"""Command-line entry point.

Subcommands: gen-data, train, eval, corrupt, pca-viz, gradcheck.
``train`` reads every setting, the seed included, from
``--config`` and ``--set KEY=VALUE`` (for example ``--set seed=3``).
Exit codes: 0 success, 1 usage/validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .config import RunConfig, apply_overrides, load_config
from .corruption import KINDS, generate_benchmark
from .dataio import _canon_json, gen_synthetic_dataset, read_dataset, write_tensor
from .errors import AffgroundError, ConfigError, ContractError, DataFormatError
from .gradcheck import run_gradcheck_suite
from .train import evaluate_checkpoint, load_model, load_sample, train


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    @staticmethod
    def _fail(message):
        print(f"error: {message}", file=sys.stderr)
        return 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="affground",
                     description="Intention-conditioned 3D affordance grounding")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    gen = sub.add_parser("gen-data", help="generate a synthetic dataset tree")
    gen.add_argument("--out", required=True)
    gen.add_argument("--classes", type=int, default=4)
    gen.add_argument("--affordances", type=int, default=2)
    gen.add_argument("--samples-per", type=int, default=8)
    gen.add_argument("--points", type=int, default=2048)
    gen.add_argument("--d-h", type=int, default=2048)
    gen.add_argument("--seq-len", type=int, default=32)
    gen.add_argument("--seed", type=int, default=0)

    tr = sub.add_parser("train", help="train on a dataset manifest")
    tr.add_argument("--config")
    tr.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    tr.add_argument("--data", required=True, help="dataset manifest path")
    tr.add_argument("--out", required=True, help="run directory")
    tr.add_argument("--resume", help="checkpoint directory to continue from")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", help="path prefix for report files")

    co = sub.add_parser("corrupt", help="generate the corrupted benchmark")
    co.add_argument("--in", dest="source", required=True,
                    help="dataset manifest path")
    co.add_argument("--out", required=True)
    co.add_argument("--kinds", default="all",
                    help="'all' or comma-separated kinds")
    co.add_argument("--levels", default="0..4",
                    help="range like 0..4 or comma-separated levels")
    co.add_argument("--seed", type=int, required=True)

    pz = sub.add_parser("pca-viz",
                        help="project one sample's fused features to 3-D")
    pz.add_argument("--checkpoint", required=True)
    pz.add_argument("--data", required=True)
    pz.add_argument("--sample", required=True, help="sample id")
    pz.add_argument("--out", required=True)

    gc = sub.add_parser("gradcheck", help="run the finite-difference suite")
    gc.add_argument("--tol", type=float, default=1e-4)
    return parser


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    if args.set:
        config = apply_overrides(config, args.set)
    return config.validate()


def _parse_levels(text: str):
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            levels = list(range(int(lo), int(hi) + 1))
        else:
            levels = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"levels must be a range like 0..4 or comma-separated "
                          f"integers, got {text!r}") from None
    return tuple(levels)


def _cmd_gen_data(args):
    manifest = gen_synthetic_dataset(
        args.out, args.classes, args.affordances, args.samples_per,
        args.points, args.seed, d_h=args.d_h, seq_len=args.seq_len)
    print(manifest)
    return 0


def _cmd_train(args):
    config = _resolve_config(args)
    result = train(config, args.data, args.out, resume=args.resume,
                   log_fn=lambda row: print(json.dumps(row, sort_keys=True)))
    print(f"checkpoint: {result.checkpoint_dir}")
    return 0


def _cmd_eval(args):
    report = evaluate_checkpoint(args.checkpoint, args.data)
    table = report.to_table()
    print(table)
    if args.out:
        prefix = Path(args.out)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        prefix.with_suffix(".json").write_text(report.to_json() + "\n")
        prefix.with_suffix(".txt").write_text(table + "\n")
    return 0


def _cmd_corrupt(args):
    kinds = KINDS if args.kinds == "all" else \
        tuple(k.strip() for k in args.kinds.split(","))
    out = generate_benchmark(args.source, args.out, seed=args.seed,
                             kinds=kinds, levels=_parse_levels(args.levels))
    print(out)
    return 0


def _cmd_pca_viz(args):
    from .metrics import pca_project
    from .tensor import no_grad

    model, _, _ = load_model(args.checkpoint)
    dataset = read_dataset(args.data)
    record = next((r for r in dataset.records if r.id == args.sample), None)
    if record is None:
        raise ConfigError(f"sample {args.sample!r} not found in {args.data}")
    sample = load_sample(dataset, model, record)
    with no_grad():
        fused, _ = model.integrate(sample.hidden, sample.plan)
    projected = pca_project(fused.data, k=3)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_tensor(out, projected.projection.astype("float32"))
    sidecar = {"sample": record.id, "rank": projected.rank,
               "padded": projected.padded,
               "explained_variance": projected.explained.tolist()}
    out.with_suffix(".json").write_text(_canon_json(sidecar))
    print(out)
    return 0


def _cmd_gradcheck(args):
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ConfigError(f"--tol must be a positive finite number, got {args.tol}")
    results = run_gradcheck_suite(args.tol)
    failed = [r for r in results if not r.ok]
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"{status:4} {r.name:<40} max_err={r.max_error:.3e} "
              f"tol={r.tolerance:.0e}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 2


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "corrupt": _cmd_corrupt,
    "pca-viz": _cmd_pca_viz,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ContractError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AffgroundError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
