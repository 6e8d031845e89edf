"""Compare benchmark results of two versions, workload by workload.

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Each file is a result written by ``run.py`` (``.perfbench/results/``).  For
every workload and every metric the output gives each side's median and
quartiles over its files and the ratio of the medians.  Results measured with
different kernel backends are not comparable: the comparison refuses them.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def kernel_kind(result: dict) -> str:
    """``compiled`` for the Cython kernel, ``numpy`` for any numpy kernel."""
    return "compiled" if result["fingerprint"]["kernel_backend"] == "fast" else "numpy"


def metric_values(result: dict) -> dict[str, float]:
    values = {k: v["value"] for k, v in result["report"].items()}
    values.update(result["per_layer"])
    values["attempted"] = result["attempted"]
    values["failed"] = result["failed"]
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base: list[dict], new: list[dict]) -> list[str]:
    """Lines of the comparison; raises ``ValueError`` on mixed kernel backends."""
    kinds = {kernel_kind(r) for r in base + new}
    if len(kinds) > 1:
        raise ValueError(f"results mix kernel backends {sorted(kinds)}; refusing to compare")
    groups: dict[tuple, dict[str, list[dict]]] = defaultdict(lambda: {"base": [], "new": []})
    for side, results in (("base", base), ("new", new)):
        for r in results:
            groups[(r["workload"], r["trace"])][side].append(r)
    lines = []
    for (workload, trace), sides in sorted(groups.items()):
        lines.append(f"== {workload} (trace {trace}): "
                     f"{len(sides['base'])} base, {len(sides['new'])} new results")
        if not sides["base"] or not sides["new"]:
            continue
        per_side = {s: [metric_values(r) for r in rs] for s, rs in sides.items()}
        names = sorted(set.intersection(*(set(v) for vs in per_side.values() for v in vs)))
        for name in names:
            b = quartiles([v[name] for v in per_side["base"]])
            n = quartiles([v[name] for v in per_side["new"]])
            ratio = n[1] / b[1] if b[1] else float("nan")
            lines.append(f"{name:42s} base {b[1]:12.6g} [{b[0]:.6g}, {b[2]:.6g}]"
                         f"  new {n[1]:12.6g} [{n[0]:.6g}, {n[2]:.6g}]  new/base {ratio:.4f}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)

    def load(paths):
        out = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                out.append(json.load(fh))
        return out

    try:
        lines = compare(load(args.base), load(args.new))
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
