"""The benchmark's three workloads.

Each workload is a closed loop with one caller.  ``setup`` turns the seed
into the program's inputs; ``round`` is one pass of the timed work and does
the same work every time, so its outputs and counts repeat exactly; an
optional ``check`` runs once after the timed rounds.  Every
call into the program goes through ``Ops.run``, which times it, opens a span
for the traced run, and counts it as attempted or failed.  Output checks run
outside the timed calls; a failed check counts its call as failed.
"""
from __future__ import annotations

import dataclasses
import math
import os
import statistics
import time

import numpy as np

from edgeoffload import model, mtl, solvers
from edgeoffload.errors import ValidationError


class OpFailed(Exception):
    """A call into the program raised; the current set-up or round stops."""


class Ops:
    """Times the benchmark's calls into the program and counts failures."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` in a span named ``edgeoffload.<name>``.

        Returns ``(result, seconds, attrs)``; ``attrs`` is the span's
        attribute dict, for counts the caller learns after the call.
        """
        self.attempted += 1
        with self.tracer.span("edgeoffload." + name) as attrs:
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # every raising call is a counted failure
                self.failed += 1
                self.note(f"{name} raised {exc!r}")
                raise OpFailed(name) from exc
            seconds = time.perf_counter() - t0
        return result, seconds, attrs

    def check(self, name: str, problems: list[str]) -> None:
        """Count the call ``name`` as failed if its output had problems."""
        if problems:
            self.failed += 1
            self.note(f"{name}: " + "; ".join(problems[:3]))

    def note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


def solution_problems(sol, inst) -> list[str]:
    """Problems with one returned ``OffloadSolution``, by its own validation."""
    try:
        dataclasses.replace(sol)  # re-runs the dataclass validation
        expected = model.total_cost(inst, sol.decisions, sol.alloc)
    except ValidationError as exc:
        return [f"invalid solution: {exc!r}"]
    if not math.isclose(sol.cost, expected, rel_tol=1e-12):
        return [f"solution cost {sol.cost!r} != recomputed {expected!r}"]
    return []


def mask_of(sol) -> int:
    return solvers.decisions_to_mask(sol.decisions)


def same_dataset(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("features", "decision", "alloc", "cost")
    )


def dataset_problems(ds, instances) -> list[str]:
    n = instances[0].n_vehicles
    if ds.n_samples != len(instances) or ds.n_vehicles != n:
        return [f"labeled {ds.n_samples}x{ds.n_vehicles}, expected {len(instances)}x{n}"]
    if ds.decision.min() < 0 or ds.decision.max() >= 1 << n:
        return ["decision index out of range"]
    if not np.all(np.isfinite(ds.cost)):
        return ["non-finite label cost"]
    return []


# ---------------------------------------------------------------------------
# corpus-n2: the fig5a / CLI pipeline at N=2
# ---------------------------------------------------------------------------

class CorpusN2:
    """generate -> instance file -> label -> label file -> train -> evaluate.

    Set-up labels the held-out set; each round runs the pipeline on a fresh
    corpus drawn from the seed.
    """

    n_vehicles = 2
    corpus = 1000
    held_out = 1000
    train_cfg = mtl.TrainConfig(chi_c=1.0, chi_r=1.0, epochs=30, hidden_sizes=(12, 12), seed=0)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.inst_path = os.path.join(workdir, "corpus-n2-instances.txt")
        self.labels_path = os.path.join(workdir, "corpus-n2-labels.csv")

    def setup(self, ops: Ops):
        insts, _, _ = ops.run("model.generate_instances", model.generate_instances,
                              self.n_vehicles, self.held_out, seed=self.seed + 1)
        ds, _, _ = ops.run("solvers.label_instances", solvers.label_instances, insts, workers=1)
        ops.check("solvers.label_instances", dataset_problems(ds, insts))
        return ds

    def round(self, ops: Ops, held_out):
        t = {}
        insts, t["generate"], _ = ops.run("model.generate_instances", model.generate_instances,
                                          self.n_vehicles, self.corpus, seed=self.seed)
        _, t["write_instances"], attrs = ops.run("model.write_instances", model.write_instances,
                                                 self.inst_path, insts)
        attrs["bytes"] = os.path.getsize(self.inst_path)
        back, t["read_instances"], _ = ops.run("model.read_instances", model.read_instances,
                                               self.inst_path)
        ops.check("model.read_instances",
                  [] if back == insts else ["instances read back differ from those written"])
        ds, t["label"], _ = ops.run("solvers.label_instances", solvers.label_instances,
                                    back, workers=1)
        ops.check("solvers.label_instances", dataset_problems(ds, back))
        _, t["write_labels"], attrs = ops.run("solvers.write_labels", solvers.write_labels,
                                              self.labels_path, ds)
        attrs["bytes"] = os.path.getsize(self.labels_path)
        ds_back, t["read_labels"], _ = ops.run("solvers.read_labels", solvers.read_labels,
                                               self.labels_path)
        ops.check("solvers.read_labels",
                  [] if same_dataset(ds, ds_back) else ["labels read back differ from those written"])
        (net, log), t["train"], _ = ops.run("mtl.train", mtl.train, ds_back, self.train_cfg)
        ops.check("mtl.train", [] if all(math.isfinite(r["loss"]) for r in log)
                  else ["non-finite training loss"])
        metrics, t["evaluate"], _ = ops.run("mtl.evaluate", mtl.evaluate, net, held_out)
        ops.check("mtl.evaluate", [] if 0.0 <= metrics.class_accuracy <= 1.0
                  else [f"accuracy {metrics.class_accuracy!r} out of range"])
        seconds = sum(t.values())
        return {
            "seconds": seconds,
            "inst_per_s": self.corpus / seconds,
            "stage_s": t,
            "mtl_accuracy": metrics.class_accuracy,
            "signature": (metrics.class_accuracy, metrics.reg_mse, log[-1]["loss"]),
        }

    def report(self, rounds):
        return {
            "mtl_accuracy": (rounds[0]["mtl_accuracy"], "fraction"),
            **{f"stage.{k}_s": (statistics.median([r["stage_s"][k] for r in rounds]), "s")
               for k in rounds[0]["stage_s"]},
        }


# ---------------------------------------------------------------------------
# solve-n8: the fig5b comparison at N=8, one call at a time
# ---------------------------------------------------------------------------

class SolveN8:
    """Learned solver (reg head) against sBB with a 16-node budget, per call.

    Set-up labels a training set and a held-out set and trains the 64x64,
    chi_c=0 model.  A round is one pass over the held-out set; the two solvers
    alternate, and which goes first alternates from one instance to the next.
    """

    n_vehicles = 8
    train_size = 2000
    held_out = 400
    train_cfg = mtl.TrainConfig(chi_c=0.0, chi_r=1.0, epochs=25, hidden_sizes=(64, 64), seed=0)
    sbb_cfg = solvers.SbbConfig(max_nodes=16)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self, ops: Ops):
        train_insts, _, _ = ops.run("model.generate_instances", model.generate_instances,
                                    self.n_vehicles, self.train_size, seed=self.seed)
        test_insts, _, _ = ops.run("model.generate_instances", model.generate_instances,
                                   self.n_vehicles, self.held_out, seed=self.seed + 1)
        ds, _, _ = ops.run("solvers.label_instances", solvers.label_instances,
                           train_insts, workers=1)
        ops.check("solvers.label_instances", dataset_problems(ds, train_insts))
        test_ds, _, _ = ops.run("solvers.label_instances", solvers.label_instances,
                                test_insts, workers=1)
        ops.check("solvers.label_instances", dataset_problems(test_ds, test_insts))
        (net, log), _, _ = ops.run("mtl.train", mtl.train, ds, self.train_cfg)
        ops.check("mtl.train", [] if all(math.isfinite(r["loss"]) for r in log)
                  else ["non-finite training loss"])
        return net, test_insts, test_ds

    def _infer(self, ops, net, inst):
        sol, sec, _ = ops.run("mtl.infer_solution", mtl.infer_solution, net, inst, "reg")
        return sol, sec

    def _sbb(self, ops, inst):
        rep, sec, attrs = ops.run("solvers.solve_sbb", solvers.solve_sbb, inst, self.sbb_cfg)
        attrs["nodes"] = rep.nodes_explored
        attrs["proven"] = int(rep.proven_optimal)
        return rep.solution, sec

    def round(self, ops: Ops, state):
        net, insts, labels = state
        infer_s, sbb_s, infer_sols, sbb_sols = [], [], [], []
        for i, inst in enumerate(insts):
            if i % 2 == 0:
                sol, a = self._infer(ops, net, inst)
                ref, b = self._sbb(ops, inst)
            else:
                ref, b = self._sbb(ops, inst)
                sol, a = self._infer(ops, net, inst)
            infer_s.append(a)
            sbb_s.append(b)
            infer_sols.append(sol)
            sbb_sols.append(ref)
        for inst, sol, ref in zip(insts, infer_sols, sbb_sols):
            ops.check("mtl.infer_solution", solution_problems(sol, inst))
            ops.check("solvers.solve_sbb", solution_problems(ref, inst))
        mtl_masks = np.array([mask_of(s) for s in infer_sols])
        sbb_masks = np.array([mask_of(s) for s in sbb_sols])
        seconds = sum(infer_s) + sum(sbb_s)
        return {
            "seconds": seconds,
            "inst_per_s": len(insts) / seconds,
            "infer_s": infer_s,
            "sbb_s": sbb_s,
            "mtl_accuracy": float((mtl_masks == labels.decision).mean()),
            "sbb16_accuracy": float((sbb_masks == labels.decision).mean()),
            "signature": (tuple(mtl_masks), tuple(sbb_masks)),
        }

    def report(self, rounds):
        out = {}
        for key, label in (("infer_s", "infer"), ("sbb_s", "sbb16")):
            samples = np.concatenate([r[key] for r in rounds]) * 1e6
            out[f"{label}_p50_us"] = (float(np.median(samples)), "us")
            q, value = tail(samples)
            out[f"{label}_p{q}_us"] = (value, "us")
            out[f"{label}_samples"] = (len(samples), "count")
        out["mtl_accuracy"] = (rounds[0]["mtl_accuracy"], "fraction")
        out["sbb16_accuracy"] = (rounds[0]["sbb16_accuracy"], "fraction")
        return out


# ---------------------------------------------------------------------------
# oracle-n14: exact labeling and exact sBB at N=14
# ---------------------------------------------------------------------------

class OracleN14:
    """Exhaustive labeling of a batch; after the timed rounds, unbudgeted sBB
    on the first instances, each checked against its label.

    Every sBB mask must equal the exhaustive mask and be proven optimal.
    """

    n_vehicles = 14
    batch = 500
    checked = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self, ops: Ops):
        insts, _, _ = ops.run("model.generate_instances", model.generate_instances,
                              self.n_vehicles, self.batch, seed=self.seed)
        return insts

    def round(self, ops: Ops, insts):
        ds, label_s, _ = ops.run("solvers.label_instances", solvers.label_instances,
                                 insts, workers=1)
        ops.check("solvers.label_instances", dataset_problems(ds, insts))
        return {
            "seconds": label_s,
            "inst_per_s": self.batch / label_s,
            "labels": ds.decision,
            "signature": tuple(ds.decision),
        }

    def check(self, ops: Ops, insts, last_round):
        sbb_s = 0.0
        for j in range(self.checked):
            rep, sec, attrs = ops.run("solvers.solve_sbb", solvers.solve_sbb, insts[j])
            attrs["nodes"] = rep.nodes_explored
            attrs["proven"] = int(rep.proven_optimal)
            sbb_s += sec
            problems = solution_problems(rep.solution, insts[j])
            if not rep.proven_optimal:
                problems.append("exact sBB did not prove optimality")
            if mask_of(rep.solution) != last_round["labels"][j]:
                problems.append(f"sBB mask {mask_of(rep.solution)} != "
                                f"exhaustive {last_round['labels'][j]}")
            ops.check("solvers.solve_sbb", problems)
        return {"exact_sbb_inst_per_s": (self.checked / sbb_s, "1/s"),
                "exact_sbb_samples": (self.checked, "count")}

    def report(self, rounds):
        return {"exact_label_inst_per_s": (statistics.median([r["inst_per_s"] for r in rounds]), "1/s")}


WORKLOADS = {"corpus-n2": CorpusN2, "solve-n8": SolveN8, "oracle-n14": OracleN14}


def tail(samples) -> tuple[int, float]:
    """Highest of p99/p90/p75/p50 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return q, float(np.percentile(samples, q))
    return 50, float(np.median(samples))
