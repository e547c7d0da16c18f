"""Solver benchmark: runs one workload of the metamorph library and reports it.

Usage, from the repository root:

    python3 bench/run.py --workload head128 --seed 23 --seconds 40 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload untraced and traced and
ends with one such object whose metric names carry the workload as a prefix.

The library is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with code 2 if it is not there.  Each workload runs in a
fresh interpreter with BLAS and OpenMP held to one thread.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "metamorph"

# the workloads of workloads.py, named here so that this process does not
# import the library
WORKLOAD_NAMES = ("head128", "mismatch64_n30", "gated64")
DEFAULT_SEEDS = {"head128": 23, "mismatch64_n30": 11, "gated64": 5}
DEFAULT_SECONDS = 40
WORKER_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # the library's METAMORPH_THREADS cap is applied too late to take effect,
    # so the thread pools are capped here, before the child imports numpy
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_workload(name: str, seed: int, seconds: float, trace: int, env) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    # a worker whose every operation failed still prints its counts, and
    # exits with code 1
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"{name}: worker exited with code {proc.returncode} and no result") from None


def print_table(title: str, result: dict):
    print(f"== {title}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's preset seed)")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: library sources not found under {PACKAGE}", file=sys.stderr)
        return 2

    # import_s times the import itself, not the first bytecode compilation
    compileall.compile_dir(str(PACKAGE), quiet=1)
    env = child_env()

    if args.workload != "all":
        seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
        result = run_workload(args.workload, seed, args.seconds, args.trace, env)
        print_table(f"{args.workload} seed {seed} trace {args.trace}", result)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
        for trace in (0, 1):
            result = run_workload(name, seed, args.seconds, trace, env)
            print_table(f"{name} seed {seed} trace {trace}", result)
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, m in result["metrics"].items():
                total["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
