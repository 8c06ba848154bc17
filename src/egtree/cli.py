"""Command-line driver.

Subcommands:

* ``simulate``       draw a synthetic series to CSV
* ``run``            drive a forecaster over a CSV series, write the log
* ``oracle``         evaluate an offline comparator on a CSV
* ``verify-bounds``  re-check a finished run's guarantees
* ``report``         aggregate several run logs into tables

Every command is deterministic given its inputs; exit code 0 means all
requested checks passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, oracles, processes
from .errors import RejectedInputError
from .losses import LossSpec


def _load_json(path) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise RejectedInputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise RejectedInputError(f"{path} must hold a JSON object, got {type(data).__name__}")
    return data


def _cmd_simulate(args) -> int:
    spec_dict = _load_json(args.spec)
    if args.seed is not None:
        spec_dict["seed"] = args.seed
    spec = processes.ProcessSpec.from_dict(spec_dict)
    ys, info = processes.generate_with_info(spec, args.T)
    harness.write_series(args.out, ys)
    meta = {"spec": spec.to_dict(), "T": args.T, **info,
            "digest": harness.data_digest(ys)}
    with open(str(args.out) + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(meta, sort_keys=True))
    return 0


def _cmd_run(args) -> int:
    config_dict = _load_json(args.config) if args.config else {}
    if args.forecaster:
        config_dict["forecaster"] = args.forecaster
    if args.effective_range:
        config_dict["effective_range"] = True
    if args.seed is not None:
        config_dict["seed"] = args.seed
    config = harness.RunConfig.from_dict(config_dict)

    if config.forecaster == "tree":
        xs, ys = harness.read_covariates(args.input)
        # the file's width is d unless the config sets one, which must match
        config = harness.RunConfig.from_dict({"d": xs.shape[1], **config_dict})
        if config.d != xs.shape[1]:
            raise RejectedInputError(
                f"config sets d = {config.d}, but {args.input} has {xs.shape[1]} covariates")
    else:
        xs, ys = None, harness.read_series(args.input)

    log = harness.run(config, ys, xs, save_state=args.save_state)
    outdir = Path(args.out)
    tree_state = log.summary.pop("tree", None)
    harness.write_run_log(log, outdir)
    if tree_state is not None:
        with open(outdir / "tree.json", "w") as fh:
            json.dump(tree_state, fh)
            fh.write("\n")
    print(json.dumps({
        "out": str(outdir),
        "T": log.summary["T"],
        "cumulative_loss": log.summary["cumulative_loss"],
        "avg_loss": log.summary["cumulative_loss"] / log.summary["T"],
        "final": log.summary["final"],
    }, sort_keys=True))
    return 0


def _cmd_oracle(args) -> int:
    loss = LossSpec(kind=args.loss, alpha=args.alpha)
    xs, ys = harness.read_input(args.input)
    if args.lag:
        if xs is not None:
            raise RejectedInputError("--lag applies to series input only")
        if len(ys) <= args.lag:
            raise RejectedInputError("series shorter than the requested lag")
        xs = np.column_stack([ys[k:len(ys) - args.lag + k] for k in range(args.lag)])
        ys = ys[args.lag:]

    if args.kind == "constant":
        fit = oracles.best_constant(ys, loss)
    elif args.kind == "histogram":
        if xs is None:
            raise RejectedInputError("histogram oracle needs covariates (or --lag)")
        fit = oracles.best_histogram(xs, ys, args.bins, xs.shape[1], loss)
    else:
        if xs is None:
            raise RejectedInputError("lipschitz oracle needs covariates (or --lag)")
        if xs.shape[1] != 1:
            raise RejectedInputError("lipschitz oracle supports d=1 only")
        fit = oracles.best_lipschitz_1d(xs[:, 0], ys, args.L, loss)
    out = fit.to_dict()
    if args.kind == "lipschitz" and fit.argmin is not None:
        u, f = fit.argmin
        out["argmin"] = {"x": [float(v) for v in u], "f": [float(v) for v in f]}
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    outdir = Path(args.out)
    log = harness.read_run_log(outdir)
    if args.input:
        xs, ys = harness.read_input(args.input)
        digest = harness.data_digest(ys, xs)
        if digest != log.summary["data_digest"]:
            print(f"REFUSED: input digest {digest[:12]}.. does not match "
                  f"the run's {log.summary['data_digest'][:12]}..", file=sys.stderr)
            return 2
    checks = harness.verify_bounds(log, lipschitz_L=args.L)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name}: achieved {c.achieved:.6g} vs bound {c.bound:.6g} "
              f"(slack {c.slack:.6g}){' - ' + c.note if c.note else ''}")
    # Serialize before opening, so a failure cannot leave a partial file.
    text = json.dumps([c.to_dict() for c in checks], indent=2, sort_keys=True)
    with open(outdir / "bounds.json", "w") as fh:
        fh.write(text + "\n")
    return 0 if all(c.passed for c in checks) else 1


def _cmd_report(args) -> int:
    tables = harness.report(args.runs, args.out)
    for row in tables["runs"]:
        print(f"{row['run']}: {row['forecaster']} T={row['T']} "
              f"avg_loss={row['avg_loss']:.6g} nodes={row['n_nodes']}")
    print(f"wrote tables to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="egtree",
                                     description="online partition-tree forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a synthetic series")
    p.add_argument("--spec", required=True, help="process spec JSON")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("run", help="run a forecaster over a CSV input")
    p.add_argument("--config", default=None, help="run config JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--forecaster", choices=["eg", "tree", "meta"], default=None)
    p.add_argument("--effective-range", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--save-state", action="store_true",
                   help="also write the final tree as tree.json")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("oracle", help="evaluate an offline comparator")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=["constant", "histogram", "lipschitz"],
                   default="constant")
    p.add_argument("--loss", choices=["absolute", "square", "pinball"],
                   default="absolute")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--bins", type=int, default=1)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--lag", type=int, default=0,
                   help="derive covariates as lag windows of a series input")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify-bounds", help="re-check a finished run")
    p.add_argument("--out", required=True, help="run directory to verify")
    p.add_argument("--input", default=None,
                   help="original input CSV; digests must match")
    p.add_argument("--L", type=float, default=None,
                   help="also check the Lipschitz-comparator bound at this L")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="aggregate run logs")
    p.add_argument("--out", required=True, help="directory for the tables")
    p.add_argument("runs", nargs="+", help="run directories")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RejectedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
