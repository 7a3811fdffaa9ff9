"""Command-line entry points: generate, run, analyze."""

from __future__ import annotations

import argparse
# argparse's gettext loads locale lazily, at the first parser; load it with the package
import locale  # noqa: F401
import os
import sys

from . import analyze, config, graphs
from .experiment import run_experiment


def cmd_generate(args) -> int:
    for flag, value, low in (("--dx", args.dx, 1), ("--num-classes", args.num_classes, 1),
                             ("--seed", args.seed, 0)):
        if value < low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")
    out = args.out
    if os.path.isdir(out) and os.listdir(out) and not args.force:
        raise ValueError(f"output directory {out} is not empty (use --force)")
    g = graphs.GENERATORS[args.generator](args, args.dx, args.num_classes, args.seed)
    graphs.save_graph_dir(g, out)
    print(f"wrote {g.num_nodes} nodes, {g.num_edges} edges to {out}")
    return 0


def cmd_run(args) -> int:
    cfg = config.load_config(args.config) if args.config else config.ExperimentConfig()
    if args.set:
        cfg = config.apply_overrides(cfg, args.set)
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    if cfg.dataset.kind == "dir" and not os.path.isdir(cfg.dataset.path):
        raise ValueError(f"dataset path {cfg.dataset.path} does not exist")
    out = args.out or f"run_seed{cfg.seed}"
    if os.path.isdir(out) and os.listdir(out) and not args.force:
        raise ValueError(f"output directory {out} is not empty (use --force)")
    result = run_experiment(cfg, out_dir=out, config_path=args.config)
    final = result.summary["final"]
    print(f"run complete: {out} "
          f"(test acc mean {final['test_acc_mean']}, std {final['test_acc_std']})")
    return 0


def cmd_analyze(args) -> int:
    fn = analyze.ANALYSES[args.analysis]
    text = fn(args.run_dir)
    if args.out:
        with open(args.out, "w", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="subfedsim",
                                description="Personalized subgraph FL simulator")
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic graph directory")
    gsub = gen.add_subparsers(dest="generator", required=True)
    sbm = gsub.add_parser("sbm")
    sbm.add_argument("--blocks", type=int, default=5)
    sbm.add_argument("--block-size", type=int, default=100)
    sbm.add_argument("--p-in", type=float, default=0.1)
    sbm.add_argument("--p-cross", type=float, default=0.0)
    er = gsub.add_parser("er")
    er.add_argument("--n", type=int, default=100)
    er.add_argument("--p", type=float, default=0.05)
    ba = gsub.add_parser("ba")
    ba.add_argument("--n", type=int, default=100)
    ba.add_argument("--m", type=int, default=2)
    for sp in (sbm, er, ba):
        sp.add_argument("--dx", type=int, default=16)
        sp.add_argument("--num-classes", type=int, default=2)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--force", action="store_true")
        sp.add_argument("out")
        sp.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="execute an experiment")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--set", action="append", default=[],
                     metavar="KEY=VALUE", help="dotted-key config override")
    run.add_argument("--seed", type=int)
    run.add_argument("--out")
    run.add_argument("--force", action="store_true")
    run.set_defaults(func=cmd_run)

    an = sub.add_parser("analyze", help="derive plot-ready CSV from a run directory")
    an.add_argument("analysis", choices=sorted(analyze.ANALYSES))
    an.add_argument("run_dir")
    an.add_argument("--out")
    an.set_defaults(func=cmd_analyze)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
