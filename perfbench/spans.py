"""In-memory span tracer for the benchmark's traced run.

A span records its name, start, end and parent span; the run id, shared by
all spans of a run, is written once with them.  Spans are kept in memory and
written out once, when the run ends.  The benchmark opens
a span around every call it makes itself; child spans come from wrapping a
public function under the module attribute its caller looks it up by, so the
wrappers see exactly the calls the program makes through that name.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import numpy as np

# column order of a span record
ID, PARENT, NAME, START, END, ATTRS = range(6)


class Tracer:
    """Collects spans; ``span`` nests by call order within the one thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Open a span under the innermost open one; yields its attribute dict."""
        parent = self._stack[-1] if self._stack else -1
        attrs: dict = {}
        rec = [len(self.spans), parent, name, time.perf_counter(), 0.0, attrs]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        try:
            yield attrs
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, count=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a child span.

        ``count(args, kwargs)`` may return a dict of counters stored on the
        span.  A missing attribute is skipped, so the layer reports no calls.
        ``unwrap_all`` restores the originals.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        name = f"{module.__name__}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                if count is not None:
                    attrs.update(count(args, kwargs))
                return original(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """One JSON document: the run id and every span as a row."""
        doc = {
            "run_id": self.run_id,
            "columns": ["id", "parent", "name", "start", "end", "attrs"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class NullTracer:
    """Stand-in for the untraced run: spans cost one generator step."""

    @contextmanager
    def span(self, name: str):
        yield {}


def phase_totals(spans: list[list], phase_name: str) -> list[dict[str, dict[str, float]]]:
    """Per instance of the phase span ``phase_name``: for every span name below
    it, the summed duration ``s``, self time ``self_s``, call count ``calls``
    and the sum of each numeric attribute.

    Self time is a span's duration minus the part its children cover.  Calls
    run in one thread, so children never overlap and their durations add.
    """
    children: dict[int, list[list]] = {}
    for rec in spans:
        children.setdefault(rec[PARENT], []).append(rec)

    def visit(rec, acc):
        dur = rec[END] - rec[START]
        kids = children.get(rec[ID], [])
        row = acc.setdefault(rec[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += dur
        row["self_s"] += dur - sum(k[END] - k[START] for k in kids)
        row["calls"] += 1
        for key, value in rec[ATTRS].items():
            row[key] = row.get(key, 0) + value
        for kid in kids:
            visit(kid, acc)

    out = []
    for rec in spans:
        if rec[NAME] == phase_name:
            acc: dict[str, dict[str, float]] = {}
            for kid in children.get(rec[ID], []):
                visit(kid, acc)
            out.append(acc)
    return out


def per_phase_layer_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Layer cost of one set-up, one round and the final check, if any.

    A time is the median over set-ups, plus the median over rounds (as for
    the end-to-end rates), plus the check's.  A count must
    be the same in every set-up and in every round, because the benchmark
    repeats identical work; a differing count raises ``ValueError``.
    """
    table: dict[str, dict[str, float]] = {}
    for phase in ("setup", "round", "check"):
        instances = phase_totals(spans, phase)
        for name in sorted({name for inst in instances for name in inst}):
            rows = [inst.get(name, {}) for inst in instances]
            out = table.setdefault(name, {})
            for key in sorted({k for r in rows for k in r}):
                values = [r.get(key, 0) for r in rows]
                if key in ("s", "self_s"):
                    merged = float(np.median(values))
                elif len(set(values)) == 1:
                    merged = values[0]
                else:
                    raise ValueError(
                        f"count {name}.{key} differs between {phase}s: {sorted(set(values))}"
                    )
                out[key] = out.get(key, 0) + merged
    return table
