"""distillab benchmark: two workloads through the CLI, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_pipeline --seed 1 --seconds 20 --trace 0

``--trace 0`` times each CLI command as its own process and prints the
end-to-end metrics; ``--trace 1`` runs the workload in this process with
wrappers around distillab's functions and prints the per-layer metrics.
Without ``--workload`` both workloads run, one after the other. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

# A run must end within 180 s; commands still running at this point are
# killed.
RUN_LIMIT_S = 175.0


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """One workload, end to end or traced; its result object."""
    workload = workloads.WORKLOADS[name]
    scratch = workloads.fresh_dir(workloads.WORK / f"{name}-{seed}-{os.getpid()}")
    ledger = workloads.Ledger(deadline)
    info: dict[str, float] = {}
    try:
        if trace:
            import tracing

            values = tracing.run_traced(workload, seed, scratch, ledger)
            units = {k: unit for k, (unit, _) in tracing.METRICS.items()}
        else:
            values = workloads.run_untraced(workload, seed, seconds, scratch, ledger)
            units = workloads.END_TO_END
            info = {k: v for k, v in values.items() if k not in units}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while another run uses it
            workloads.WORK.rmdir()
    for problem in ledger.problems:
        print(f"{name}: {problem}", file=sys.stderr)
    return {
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (non-negative)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measure whole rounds for about this long")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (workloads.SRC / "distillab" / "cli.py").is_file():
        print(f"perfbench: no distillab sources at {workloads.SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print(json.dumps({"machine": machine(), "seed": args.seed, "trace": args.trace}))
    results, broken = {}, []
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), time.monotonic() + RUN_LIMIT_S)
        except Exception:  # a harness fault in one workload must not stop the other
            traceback.print_exc()
            broken.append(name)
            continue
        print(f"{name}: correct={results[name]['correct']} attempted={results[name]['attempted']} "
              f"failed={results[name]['failed']}")
        for metric, m in results[name]["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        for key, value in results[name].pop("info").items():
            print(f"  {key} = {value:.6g} (for information, not a metric)")
    if broken:
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
