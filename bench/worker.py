"""Runs one workload for a fixed time and prints its result as one JSON line.

Started by run.py in a fresh interpreter with single-threaded BLAS and
OpenMP.  An operation is one set-up, one solve and the checks of the solve's
outputs.  Before the timed rounds the run builds its case once, untimed, and
checks the ray transform on that case's geometry; if those checks fail,
every operation of the run counts as failed.  The run then repeats whole
rounds for as long as the next round should still end within ``--seconds``,
and runs at least one.

Untraced, a round is one operation, set up ``SETUP_REPEATS`` times, followed
by ``IMPORT_PROBES`` fresh interpreters that each time ``import metamorph``.
Traced, a round is an untraced operation followed by a traced one.  Every
operation of a run has the same inputs, and every solve after the first must
reproduce the first bit for bit.  The timing metrics are medians over the
run; ``final_ssim`` and ``final_objective_rel`` come from the first solve,
which all others equal.  The per-layer metrics are medians over the traced
operations.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from checks import geometry_checks, solve_checks
from tracer import Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 2
IMPORT_PROBES = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import metamorph; "
                "print(repr(time.perf_counter() - t))")

# (span name, fields) reported per traced operation; fields are the keys of
# Tracer.summary() except "steps", which is the span count of a generator
SPAN_METRICS = (
    ("ray.forward_project", ("calls", "s")),
    ("ray.back_project", ("calls", "s")),
    ("kernel.kernel_apply", ("calls", "s")),
    ("grid.sample_values_xy", ("calls", "s")),
    ("grid.gradient_central", ("calls", "s")),
    ("flow.maps_from_zero", ("calls", "s")),
    ("flow.maps_to_index", ("calls", "s")),
    ("flow.forward_maps", ("calls", "s")),
    ("flow.jacobian_chain_to_index", ("calls", "s")),
    ("flow.backward_advected_points", ("steps", "s")),
    ("metamorphosis.evolve_template", ("calls", "s")),
    ("metamorphosis.group_action", ("calls", "s")),
    ("metamorphosis.trajectories", ("s",)),
    ("objective.evaluate_parts", ("calls", "s", "self_s")),
    ("objective.gradient_core", ("calls", "s", "self_s")),
    ("optimizer.descend", ("self_s",)),
    ("harness.make_phantom", ("s",)),
    ("harness.add_noise", ("s",)),
)
UNITS = {"calls": "count", "steps": "count", "s": "s", "self_s": "s"}


def import_seconds() -> float:
    """``import metamorph`` in a fresh interpreter, without its start-up."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout)


def operation(workload, seed: int, setups: int, tracer: Tracer | None = None) -> dict:
    """One set-up (repeated ``setups`` times), one solve, and its checks."""
    setup_times = []
    with tracer or contextlib.nullcontext():
        for _ in range(setups):
            t0 = time.perf_counter()
            case = workload.build(seed)
            setup_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        report, final_ssim = workload.solve(case)
        solve_s = time.perf_counter() - t0
    return {"report": report, "ssim": final_ssim, "setup": setup_times, "solve_s": solve_s,
            "checks": solve_checks(workload, case, report)}


def fingerprint(report) -> str:
    """Digest of the objective history and the image trajectory, so that
    solves compare bit for bit without the run holding their outputs."""
    digest = hashlib.sha256(np.asarray(report.objective_history, dtype=np.float64).tobytes())
    for img in report.trajectories.image_traj:
        digest.update(np.ascontiguousarray(img.values).tobytes())
    return digest.hexdigest()


def layer_metrics(tracer: Tracer, report) -> dict[str, tuple[float, str]]:
    spans = tracer.summary()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for name, fields in SPAN_METRICS:
        entry = spans.get(name, zero)
        for field in fields:
            value = entry["calls"] if field == "steps" else entry[field]
            out[f"{name}.{field}"] = (value, UNITS[field])
    iters = report.iterations_used
    evals = spans["objective.evaluate_parts"]["calls"] - 1  # minus the initial value
    accepted = len(report.objective_history) - 1
    out["optimizer.iterations"] = (iters, "count")
    out["optimizer.evals_per_iter"] = (evals / iters, "eval/iter")
    out["optimizer.accept_ratio"] = (accepted / evals, "ratio")
    return out


def median_metrics(samples: list[dict]) -> dict:
    return {name: {"value": statistics.median(s[name][0] for s in samples),
                   "unit": samples[0][name][1]}
            for name in samples[0]}


def log_checks(tag: str, checks):
    for name, ok, detail in checks:
        print(f"{tag} check {name}: {'ok' if ok else 'FAILED'} ({detail})", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    traced = args.trace == 1

    geo_checks = geometry_checks(workload, workload.build(args.seed), args.seed)
    log_checks("run:", geo_checks)
    geometry_ok = all(ok for _, ok, _ in geo_checks)

    attempted = failed = 0
    correct = geometry_ok
    setup_times, solve_times, iter_times, import_times = [], [], [], []
    traced_solve_times, layers = [], []
    quality = None      # (final_ssim, final_objective_rel) of the first solve
    reference = None    # fingerprint of the first solve, which every later solve equals
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for use_tracer in ((False, True) if traced else (False,)):
            attempted += 1
            tracer = Tracer() if use_tracer else None
            tag = f"op {attempted}{' traced' if use_tracer else ''}:"
            try:
                op = operation(workload, args.seed, 1 if traced else SETUP_REPEATS, tracer)
            except Exception:
                failed += 1
                print(f"{tag} raised\n{traceback.format_exc()}", file=sys.stderr)
                continue
            report = op["report"]
            setups = " ".join(f"{t:.4f}" for t in op["setup"])
            print(f"{tag} setup {setups} s, solve {op['solve_s']:.4f} s", file=sys.stderr)
            log_checks(tag, op["checks"])
            first_solve = reference is None and not use_tracer
            same = first_solve or fingerprint(report) == reference
            if not same:
                print(f"{tag} outputs differ from the run's first solve", file=sys.stderr)
            if not (geometry_ok and same and all(ok for _, ok, _ in op["checks"])):
                failed += 1
                correct = False
            elif use_tracer:
                traced_solve_times.append(op["solve_s"])
                layers.append(layer_metrics(tracer, report))
            else:
                setup_times.extend(op["setup"])
                solve_times.append(op["solve_s"])
                iter_times.append(op["solve_s"] / report.iterations_used)
                if first_solve:
                    reference = fingerprint(report)
                    hist = report.objective_history
                    quality = (op["ssim"], hist[-1] / hist[0])
            # nothing of an operation outlives it, so peak memory does not
            # grow with the number of operations a run fits in
            del op, report, tracer
        if not traced:
            import_times.extend(import_seconds() for _ in range(IMPORT_PROBES))
        # start another round only if it should end within the run's time
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    if not (layers if traced else solve_times):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    if traced:
        metrics = median_metrics(layers)
        overhead = statistics.median(traced_solve_times) - statistics.median(solve_times)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "import_s": {"value": statistics.median(import_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "solve_s": {"value": statistics.median(solve_times), "unit": "s"},
            "iter_s": {"value": statistics.median(iter_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "final_ssim": {"value": quality[0], "unit": "1"},
            "final_objective_rel": {"value": quality[1], "unit": "ratio"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
