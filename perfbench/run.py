"""affground benchmark: one workload per process, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 20 --trace 0

It runs the package from ``src/`` of the checkout it sits in, prints a
readable report, then a ``detail`` JSON line (provenance, output checks,
per-layer span table) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
the run times every call into each layer and reports the per-layer ones.
The exit code is 0 when every output check passed, 1 when one failed and
2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0))


# One BLAS thread whatever the environment says, so every run is alike. On
# the 2-vCPU reference machine a second OpenBLAS thread made train-paper
# steps only about 8% faster but the train-small step-time spread between
# runs about four times wider.
BLAS_THREADS = 1


def _pin_blas_threads():
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_package():
    """Import affground from this checkout's src/ and nowhere else."""
    if not (SRC / "affground" / "__init__.py").is_file():
        _cannot_run(f"no affground package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import affground
    if Path(affground.__file__).resolve().parent != SRC / "affground":
        _cannot_run(f"affground imported from {affground.__file__}, not from {SRC}")


def _cannot_run(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "affground").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: int, trace: bool, toy: bool) -> dict:
    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "toy": toy,
        "commit": _commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": _cpu_count(),
    }


def _declared(kind: str) -> dict:
    """name -> unit for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(args) -> dict:
    import workloads as W

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = W.Run(work, trace=bool(args.trace))
    error = None
    try:
        run.install()
        if args.workload == "eval-corrupt":
            out = W.run_eval(run, args.seed, args.seconds, args.toy)
        else:
            out = W.run_train(run, args.workload, args.seed, args.seconds, args.toy)
    except Exception as exc:  # a crash in the package is a failed run, reported
        error = "".join(traceback.format_exception(exc))
        out = None
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # kept while another run uses it
            work.parent.rmdir()
    return {"run": run, "out": out, "error": error}


def report(args, measured) -> tuple[dict, int]:
    import workloads as W

    run, out = measured["run"], measured["out"]
    kind = "per_layer" if args.trace else "end_to_end"
    declared = _declared(kind)
    values = {}
    run.op("workload_completed", out is not None,
           (measured["error"] or "").strip().splitlines()[-1:])
    if out is not None:
        values = W.layer_metrics(run, out["layer"]) if args.trace \
            else out["end_to_end"]
    for name in declared:
        value = values.get(name)
        ok = isinstance(value, (int, float)) and math.isfinite(value) and (
            value > 0 or (args.trace and name in run.skips))
        run.op("metric_reported", ok, f"{name} = {value!r}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items() if name in values}

    family = "eval" if args.workload == "eval-corrupt" else "train"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in values.items():
        alias = W.ALIASES[family].get(name)
        label = f"{alias} [{name}]" if alias else name
        note = f"  (skipped: {run.skips[name]})" if name in run.skips else ""
        if name == "sample_tail_s":
            tail = run.detail["tail"]
            note += f"  (p{tail['percentile']:.1f} of {tail['units']} units)"
        if name not in declared:
            note += "  (reported, not in BENCHMARK.json)"
        unit = declared.get(name) or W.UNDECLARED_UNITS[name]
        print(f"  {label:<46} {value:.6g} {unit}{note}")
    print(f"  {'failed_share':<46} {run.failed / max(run.attempted, 1):.6g} ratio"
          f"  ({run.failed} failed of {run.attempted} attempted)")
    if measured["error"]:
        print(measured["error"], file=sys.stderr)

    detail = {
        "provenance": provenance(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.toy),
        "checks": run.checks,
        "skips": run.skips,
        "missing_targets": run.patches.missing,
        **run.detail,
    }
    if args.trace:
        detail["spans"] = run.tracer.table()
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {"correct": run.failed == 0, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    return result, 0 if result["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-paper", "train-small", "eval-corrupt"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy model and data sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    _pin_blas_threads()
    _import_package()
    result, code = report(args, measure(args))
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
