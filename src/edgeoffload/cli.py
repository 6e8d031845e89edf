"""``edgeoffload`` command-line front end.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 validation
error, 1 anything else.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import offload_config, read_kv_file, split_scenario, train_config
from .errors import ConfigError, EdgeOffloadError, FileFormatError, ValidationError
from .experiments import EXPERIMENT_KINDS, ExperimentSpec, replay_manifest, run_experiment
from .model import generate_instances, read_instances, write_instances
from .mtl import decision_seconds, evaluate, load_model, save_model, train, write_training_log
from .solvers import SOLVERS, SbbConfig, label_instances, read_labels, solve_batch, write_labels
from .split import STRATEGIES, best_split, eta_sweep_csv, local_joint_crossover, strategy_cost

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4


def _solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--solver", choices=SOLVERS, default="exhaustive")
    parser.add_argument("--max-nodes", type=int, default=None,
                        help=f"sbb node budget (default: {SbbConfig().max_nodes:,} nodes); "
                             "a config error for any other solver")


def _read_cfg(args) -> dict[str, str]:
    return read_kv_file(args.config) if args.config else {}


def cmd_generate(args) -> int:
    n_vehicles, ranges = offload_config(_read_cfg(args))
    instances = generate_instances(n_vehicles, args.count, ranges, seed=args.seed)
    write_instances(args.out, instances)
    print(f"wrote {len(instances)} instances (N={n_vehicles}) to {args.out}")
    return EXIT_OK


def cmd_label(args) -> int:
    instances = read_instances(args.instances)
    ds = label_instances(instances, solver=args.solver, max_nodes=args.max_nodes,
                         workers=args.workers)
    write_labels(args.out, ds)
    print(f"labeled {len(instances)} instances with {args.solver} -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    ds = read_labels(args.labels)
    seed = {} if args.seed is None else {"seed": args.seed}  # the flag wins over the config
    cfg = train_config(_read_cfg(args), **seed)
    model, log = train(ds, cfg)
    save_model(args.out, model)
    if args.log is not None:
        write_training_log(args.log, log)
    final = log[-1]["loss"] if log else float("nan")
    print(f"trained {cfg.epochs} epochs, final loss {final:.6g} -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    ds = read_labels(args.labels)
    metrics, seconds = evaluate(model, ds), decision_seconds(model, ds)
    print(f"accuracy  {metrics.class_accuracy:.4f}")
    print(f"alloc_mse {metrics.reg_mse:.6g}")
    print(f"mean_inference_s {seconds:.3e}")
    return EXIT_OK


def cmd_solve(args) -> int:
    instances = read_instances(args.instances)
    for i, rep in enumerate(solve_batch(instances, args.solver, args.max_nodes)):
        sol = rep.solution
        dec = "".join(str(d) for d in sol.decisions)
        alloc = ",".join(f"{a:.6f}" for a in sol.alloc)
        print(f"{i}: decisions={dec} alloc=[{alloc}] cost={sol.cost:.6g} "
              f"optimal={rep.proven_optimal} nodes={rep.nodes_explored}")
    return EXIT_OK


def cmd_split_plan(args) -> int:
    scenario, eta_step = split_scenario(_read_cfg(args))
    # every value is computed before the first line prints
    k, cost = best_split(scenario)
    costs = {name: strategy_cost(scenario, name, args.eta) for name in STRATEGIES}
    eta_star = local_joint_crossover(scenario)
    sweep = None if args.out is None else eta_sweep_csv(scenario, eta_step)
    print(f"best split point k={k} (offload-path cost {cost:.6g})")
    for name, value in costs.items():
        print(f"cost_{name}@eta={args.eta:g} {value:.6g}")
    if eta_star is None:
        print("local/joint crossover: none in [0, 1]")
    else:
        print(f"local/joint crossover eta* = {eta_star:.6g}")
    if sweep is not None:
        Path(args.out).write_text(sweep, encoding="utf-8")
        print(f"eta sweep -> {args.out}")
    return EXIT_OK


def _measurement(value) -> str:
    """A float measurement is a wall time; the environment entries print as is."""
    return f"{value:.3e}s" if isinstance(value, float) else str(value)


def cmd_experiment(args) -> int:
    if args.replay is not None:
        old, new, identical = replay_manifest(args.replay, args.out)
        print(f"replayed {old.kind} (seed {old.seed}) -> {args.out}")
        for name, value in new.measurements.items():
            recorded = old.measurements.get(name, "n/a")
            print(f"measurement {name}: {_measurement(value)} (recorded {_measurement(recorded)})")
        print("byte-identical CSVs" if identical else "DIGEST MISMATCH")
        return EXIT_OK if identical else EXIT_VALIDATION
    if args.kind is None:
        raise ConfigError("experiment requires --kind (or --replay MANIFEST)")
    config_text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    spec = ExperimentSpec(kind=args.kind, out_dir=args.out, seed=args.seed,
                          config_text=config_text)
    manifest = run_experiment(spec)
    for name, secs in manifest.stage_seconds.items():
        print(f"stage {name}: {secs:.3f}s")
    for name, value in manifest.measurements.items():
        print(f"measurement {name}: {_measurement(value)}")
    print(f"artifacts in {args.out}: {', '.join(sorted(manifest.digests))} + manifest.json")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeoffload",
        description="MEC task-offloading solvers, learned MTL solver and "
                    "split-inference cost simulator.",
    )
    parser.add_argument("--version", action="version", version=f"edgeoffload {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw random offloading instances")
    p.add_argument("--config", type=Path, help="offload config file (key = value)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True, help="instance file to write")
    p.add_argument("--count", type=int, default=40000)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("label", help="solve instances into a labeled dataset")
    p.add_argument("instances", type=Path)
    p.add_argument("--out", type=Path, required=True, help="label file to write")
    p.add_argument("--workers", type=int, default=1)
    _solver_flags(p)
    p.set_defaults(fn=cmd_label)

    p = sub.add_parser("train", help="train the MTL model on a labeled dataset")
    p.add_argument("labels", type=Path)
    p.add_argument("--config", type=Path, help="train config file (key = value)")
    p.add_argument("--seed", type=int, default=None,
                   help="training seed; overrides the config's seed (default: config, else 0)")
    p.add_argument("--out", type=Path, required=True, help="model file to write")
    p.add_argument("--log", type=Path, default=None, help="training-log CSV path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model on a labeled dataset")
    p.add_argument("model", type=Path)
    p.add_argument("labels", type=Path)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("solve", help="solve instances and print their solutions")
    p.add_argument("instances", type=Path)
    _solver_flags(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("split-plan", help="split-point choice and strategy costs")
    p.add_argument("--config", type=Path, help="split config file (key = value)")
    p.add_argument("--out", type=Path, help="eta-sweep CSV to write")
    p.add_argument("--eta", type=float, default=0.3, help="bad-data ratio to report costs at")
    p.set_defaults(fn=cmd_split_plan)

    p = sub.add_parser("experiment", help="run or replay an experiment pipeline")
    p.add_argument("--config", type=Path, help="experiment config file (prefixed keys)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--kind", choices=EXPERIMENT_KINDS, default=None)
    p.add_argument("--replay", type=Path, default=None, help="manifest.json to replay")
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileFormatError as exc:
        print(f"file format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EdgeOffloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
