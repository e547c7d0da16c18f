"""The benchmark's tracer looks up library functions by name; a rename or a
deletion must fail here, not only when the benchmark runs."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("module, name", TRACER.LAYERS + TRACER.STEP_LAYERS)
def test_traced_name_exists(module, name):
    lib = importlib.import_module(f"{TRACER.PACKAGE}.{module}")
    assert callable(getattr(lib, name, None)), f"{module}.{name} is gone"


@pytest.mark.parametrize("module, name", TRACER.STEP_LAYERS)
def test_step_layer_is_a_generator_function(module, name):
    lib = importlib.import_module(f"{TRACER.PACKAGE}.{module}")
    assert inspect.isgeneratorfunction(getattr(lib, name))


def test_traced_solve_times_the_kernel_smoothing_and_the_image_gradients():
    # the gradient's backward sweep smooths and differentiates once per level,
    # through the names the tracer wraps
    from metamorph.experiments import shifted_disc_case, solve_case

    case = shifted_disc_case(nx=16, n_angles=8)
    tracer = TRACER.Tracer()
    with tracer:
        report, _ = solve_case(case, n_steps=3, max_iters=2, step_v=5e-4, step_zeta=1e-2)
    summary = tracer.summary()
    assert report.iterations_used == 2
    assert summary["objective.gradient_core"]["calls"] == 2
    for name in ("kernel.kernel_apply", "grid.gradient_central"):
        assert summary.get(name, {"calls": 0})["calls"] == 2 * 3, name


# traced names the solver does not call: they stay only for the tests and
# the tracer, so a solve that reaches one of them has taken a second path
NOT_IN_THE_SOLVER = ("flow.maps_from_zero", "flow.maps_to_index", "flow.forward_maps",
                     "flow.jacobian_chain_to_index", "flow.backward_advected_points",
                     "metamorphosis.group_action", "grid.sample_values_xy")


@pytest.mark.parametrize("gated", [False, True])
def test_traced_solve_calls_no_name_the_solver_does_not_use(gated):
    from metamorph.experiments import (evolving_gated_case, shifted_disc_case, solve_case,
                                       solve_gated)

    tracer = TRACER.Tracer()
    if gated:
        case = evolving_gated_case(nx=16, n_gates=2, per_gate=4)
        with tracer:
            report, _ = solve_gated(case, max_iters=2, step_v=5e-4, step_zeta=1e-2)
    else:
        case = shifted_disc_case(nx=16, n_angles=8)
        with tracer:
            report, _ = solve_case(case, n_steps=3, max_iters=2, step_v=5e-4, step_zeta=1e-2)
    summary = tracer.summary()
    assert report.iterations_used == 2
    assert summary["objective.gradient_core"]["calls"] == 2
    for name in NOT_IN_THE_SOLVER:
        assert summary.get(name, {"calls": 0})["calls"] == 0, name


@pytest.mark.parametrize("gated", [False, True])
def test_traced_solve_builds_the_template_part_only_when_read(gated):
    # only the image trajectory is built by a solve; the benchmark reads no
    # other part, so evolve_template runs once, on the first read
    from metamorph.experiments import (evolving_gated_case, shifted_disc_case, solve_case,
                                       solve_gated)

    tracer = TRACER.Tracer()
    with tracer:
        if gated:
            report, _ = solve_gated(evolving_gated_case(nx=16, n_gates=2, per_gate=4),
                                    max_iters=2, step_v=5e-4, step_zeta=1e-2)
        else:
            report, _ = solve_case(shifted_disc_case(nx=16, n_angles=8), n_steps=3,
                                   max_iters=2, step_v=5e-4, step_zeta=1e-2)
        solved = tracer.summary().get("metamorphosis.evolve_template", {"calls": 0})["calls"]
        # two reads, one build
        assert report.trajectories.template_traj is report.trajectories.template_traj
    assert solved == 0
    assert tracer.summary()["metamorphosis.evolve_template"]["calls"] == 1
