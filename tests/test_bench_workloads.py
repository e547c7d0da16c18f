"""The benchmark builds its cases and solves them through library names and
call forms; a rename, a changed signature or a solve that fails one of the
benchmark's checks must fail here, not only when the benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up here while it is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load("workloads")
CHECKS = load("checks")
RUN = load("run")


@pytest.mark.parametrize("name", RUN.WORKLOAD_NAMES)
def test_workload_solve_passes_every_check(name):
    workload = WORKLOADS.WORKLOADS[name]
    seed = RUN.DEFAULT_SEEDS[name]
    case = workload.build(seed)
    report, _ = workload.solve(case)
    checks = (CHECKS.geometry_checks(workload, case, seed)
              + CHECKS.solve_checks(workload, case, report))
    assert [check for check in checks if not check[1]] == []
