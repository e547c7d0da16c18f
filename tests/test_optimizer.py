import math

import numpy as np
import pytest

from helpers import count_checks, random_state, smooth_bump
from metamorph import flow, grid, metamorphosis, objective, optimizer
from metamorph.experiments import (
    evolving_gated_case,
    shifted_disc_case,
    solve_case,
    solve_gated,
)
from metamorph.flow import TimeGrid, TimeVaryingVectorField
from metamorph.grid import GridSpec
from metamorph.harness import Disc, PhantomSpec, make_phantom
from metamorph.kernel import KernelSpec
from metamorph.metamorphosis import TimeVaryingScalarField
from metamorph.objective import RegParams
from metamorph.optimizer import SolveConfig, reconstruct
from metamorph.ray import Geometry, forward_project

EXTENT = 16.0 * math.sqrt(2.0)


def test_solveconfig_validation():
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolveConfig(step_v=0.0)
    with pytest.raises(ValueError):
        SolveConfig(mode="bogus")


@pytest.mark.parametrize("max_iters", [2.5, 3.0, "3"])
def test_solveconfig_rejects_a_non_integer_max_iters(max_iters):
    # before this check, 2.5 constructed and descend failed with a bare TypeError
    with pytest.raises(ValueError, match=f"max_iters must be an integer, got {max_iters!r}"):
        SolveConfig(max_iters=max_iters)


def test_solveconfig_accepts_a_numpy_integer_max_iters():
    assert SolveConfig(max_iters=np.int64(3)).max_iters == 3


def consistent_problem(nx=64):
    spec = GridSpec(16.0, nx, nx)
    I0 = make_phantom(PhantomSpec("discs", discs=(Disc(0.0, 0.0, 5.0, 1.0),)), spec)
    geo = Geometry.uniform(20, 2 * nx, EXTENT)
    return spec, I0, geo, forward_project(I0, geo)


def test_consistent_data_stops_immediately():
    spec, I0, geo, g = consistent_problem()
    for mode in ("metamorphosis", "lddmm"):
        report = reconstruct(I0, g, KernelSpec(2.0), RegParams(1e-5, 1e-5),
                             TimeGrid(5), SolveConfig(mode=mode))
        assert report.stop_reason == "zero_gradient"
        assert report.iterations_used == 1
        assert report.objective_history == [0.0]
        assert np.array_equal(report.trajectories.image_traj[-1].values, I0.values)


def test_shifted_disc_recovers_target():
    case = shifted_disc_case(nx=64, n_angles=60)
    report, score = solve_case(case, sigma=2.0, max_iters=200,
                               step_v=5e-4, step_zeta=1e-2)
    assert score >= 0.90
    assert report.iterations_used <= 200


def test_objective_history_monotone_with_backtracking():
    case = shifted_disc_case(nx=32, n_angles=20)
    report, _ = solve_case(case, sigma=2.0, max_iters=25,
                           step_v=5e-3, step_zeta=5e-2)  # deliberately large steps
    hist = report.objective_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))


def test_lddmm_mode_never_touches_intensity():
    case = shifted_disc_case(nx=32, n_angles=20)
    report, _ = solve_case(case, sigma=2.0, mode="lddmm", max_iters=15,
                           step_v=5e-4, step_zeta=1e-2)
    assert not report.final_zeta.values.any()
    # and the velocity did move
    assert report.final_v.values[:, 0].any()


def test_reconstruct_deterministic():
    case = shifted_disc_case(nx=32, n_angles=20)
    r1, _ = solve_case(case, max_iters=10, step_v=5e-4, step_zeta=1e-2)
    r2, _ = solve_case(case, max_iters=10, step_v=5e-4, step_zeta=1e-2)
    assert r1.objective_history == r2.objective_history
    assert np.array_equal(r1.trajectories.image_traj[-1].values,
                          r2.trajectories.image_traj[-1].values)


def test_log_rows_schema():
    case = shifted_disc_case(nx=32, n_angles=20)
    report, _ = solve_case(case, max_iters=5, step_v=5e-4, step_zeta=1e-2)
    assert report.log_rows[0]["iter"] == 0
    assert report.log_rows[0]["evals"] == 1
    for row in report.log_rows:
        assert set(row) == {"iter", "objective", "data_term", "v_term",
                            "zeta_term", "step_v", "step_zeta", "evals",
                            "grad_v_norm", "grad_zeta_norm"}
        assert row["objective"] == pytest.approx(
            row["data_term"] + row["v_term"] + row["zeta_term"])
        assert row["evals"] >= 1


def test_objective_history_is_the_log_objective_column():
    # one record of the objective: the history reads the log and is not set
    case = shifted_disc_case(nx=32, n_angles=20)
    report, _ = solve_case(case, max_iters=3, step_v=5e-4, step_zeta=1e-2)
    assert report.objective_history == [row["objective"] for row in report.log_rows]
    assert len(report.objective_history) == report.iterations_used + 1
    with pytest.raises(AttributeError):
        report.objective_history = []


@pytest.mark.parametrize("mode", ["metamorphosis", "lddmm"])
def test_log_rows_hold_the_norms_of_the_gradient_the_step_followed(mode):
    # one iteration from rest: the final controls are -step * gradient, so
    # their norms over the accepted steps are the gradient norms
    case = shifted_disc_case(nx=32, n_angles=20)
    report, _ = solve_case(case, max_iters=1, step_v=5e-4, step_zeta=1e-2, mode=mode)
    first, row = report.log_rows
    assert first["grad_v_norm"] == first["grad_zeta_norm"] == 0.0
    assert row["grad_v_norm"] > 0.0
    assert row["grad_v_norm"] == pytest.approx(
        math.sqrt(report.final_v.norm_sq()) / row["step_v"], rel=1e-12)
    if mode == "lddmm":
        assert row["grad_zeta_norm"] == 0.0
    else:
        assert row["grad_zeta_norm"] == pytest.approx(
            math.sqrt(report.final_zeta.norm_sq()) / row["step_zeta"],
            rel=1e-12)


def count_calls(monkeypatch, module, name, counts):
    fn = getattr(module, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def test_forward_model_built_once_per_evaluation(monkeypatch):
    # the gradient reads the accepted evaluation's forward state: k steps that
    # never backtrack build the model 1 + k times (2k + 1 if it rebuilt it)
    counts = {}
    for name in ("image_levels", "forward_project"):
        count_calls(monkeypatch, objective, name, counts)
    count_calls(monkeypatch, optimizer, "evaluate_parts", counts)
    k = 3
    case = shifted_disc_case(nx=32, n_angles=20)
    report, _ = solve_case(case, max_iters=k, step_v=5e-4, step_zeta=1e-2)
    assert report.stop_reason == "max_iters" and report.iterations_used == k
    assert counts["evaluate_parts"] == 1 + k  # every first step was accepted
    assert counts == dict.fromkeys(counts, 1 + k)


def count_stencil_builds(monkeypatch):
    """Count bilinear_stencil builds, in total and while the template's
    forward levels step."""
    build = grid.bilinear_stencil
    builds = {"template": 0, "total": 0}
    in_template = []

    def counted(*args):
        builds["total"] += 1
        builds["template"] += bool(in_template)
        return build(*args)
    for module in (grid, flow, metamorphosis):
        monkeypatch.setattr(module, "bilinear_stencil", counted)

    levels = metamorphosis.forward_levels

    def levels_counted(*args):
        # stencils built while the template's forward levels step
        gen = levels(*args)
        while True:
            in_template.append(True)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                in_template.pop()
            yield item
    monkeypatch.setattr(metamorphosis, "forward_levels", levels_counted)
    return builds


def test_template_evolution_builds_one_stencil_per_level(monkeypatch):
    # each semi-Lagrangian step builds the one stencil of its departure
    # points, so an evaluation builds N stencils; the template evolution
    # (forward_levels) is not part of the solver's forward model
    builds = count_stencil_builds(monkeypatch)
    n = 10
    case = shifted_disc_case(nx=32, n_angles=20)
    tg = TimeGrid(n)
    objective.evaluate_parts(TimeVaryingVectorField.zeros(tg, case.spec),
                             TimeVaryingScalarField.zeros(tg, case.spec),
                             case.template, [(n, case.data)], RegParams(1e-5, 1e-5))
    assert builds == {"template": 0, "total": n}


def test_gradient_and_trajectories_build_no_stencils(monkeypatch):
    # the gradient and the final trajectories read the accepted evaluation's
    # stencils and levels: k steps that never backtrack build (1 + k) N
    # transport stencils.  The template part's N levels are built when
    # template_traj is first read, and the deformation part's N transport
    # stencils again when deformation_traj is
    builds = count_stencil_builds(monkeypatch)
    counts = {}
    count_calls(monkeypatch, optimizer, "evaluate_parts", counts)
    k, n = 3, 6
    case = shifted_disc_case(nx=32, n_angles=20)
    report, _ = solve_case(case, n_steps=n, max_iters=k, step_v=5e-4, step_zeta=1e-2)
    assert report.stop_reason == "max_iters" and counts["evaluate_parts"] == 1 + k
    assert builds == {"template": 0, "total": (1 + k) * n}
    assert len(report.trajectories.template_traj) == n + 1
    assert builds == {"template": n, "total": (1 + k) * n + n}
    assert len(report.trajectories.template_traj) == n + 1  # kept, not rebuilt
    assert len(report.trajectories.deformation_traj) == n + 1
    assert builds == {"template": n, "total": (1 + k) * n + 2 * n}


def test_solve_runs_no_checks_per_iteration(monkeypatch):
    # the loop derives every container from checked ones, so a longer solve
    # checks no more arrays than a shorter one
    checked = count_checks(monkeypatch)
    case = shifted_disc_case(nx=32, n_angles=20)
    totals = []
    for max_iters in (2, 4):
        checked.clear()
        report, _ = solve_case(case, n_steps=4, max_iters=max_iters, step_v=5e-4,
                               step_zeta=1e-2)
        assert report.iterations_used == max_iters and report.stop_reason == "max_iters"
        totals.append(len(checked))
    assert totals[0] == totals[1]


def test_a_non_finite_gradient_is_a_named_error(monkeypatch):
    gradient = optimizer.gradient_core

    def poisoned(*args):
        grad_v, grad_zeta = gradient(*args)
        grad_zeta.values[-1, 0, 0] = np.nan
        return grad_v, grad_zeta
    monkeypatch.setattr(optimizer, "gradient_core", poisoned)
    case = shifted_disc_case(nx=16, n_angles=8)
    with pytest.raises(ValueError, match=r"the gradient is not finite: velocity norm "
                                         r"[0-9.e+-]+, intensity norm nan"):
        solve_case(case, n_steps=3, max_iters=2, step_v=5e-4, step_zeta=1e-2)


def random_forward_state(gates, n=6, seed=4):
    """(v, zeta, I0, state) at a smooth random (v, zeta) on the 32^2 grid."""
    v, zeta = random_state(n, seed, amp_v=3.0)
    I0 = smooth_bump(1.0, -2.0, 4.0, 1.0)
    *_, state = objective.evaluate_parts(v, zeta, I0, gates, RegParams(1e-3, 1e-3))
    return v, zeta, I0, state


def same_bits(a: list, b: list) -> bool:
    return len(a) == len(b) and all(x.values.tobytes() == y.values.tobytes()
                                    for x, y in zip(a, b))


def gates_on(ends):
    geo = Geometry.uniform(8, 48, EXTENT)
    return [(end, forward_project(smooth_bump(0.5 * end, 0.0, 3.0, 1.0), geo)) for end in ends]


def test_gradient_core_reads_the_state_without_changing_it():
    gates = gates_on((2, 4, 6))
    v, zeta, _, state = random_forward_state(gates)
    params = RegParams(1e-3, 1e-3)
    first = objective.gradient_core(v, zeta, state, gates, params, KernelSpec(2.0))
    second = objective.gradient_core(v, zeta, state, gates, params, KernelSpec(2.0))
    for a, b in zip(first, second):  # (v, zeta)
        assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("ends", [(6,), (2, 4), (1, 3)])
def test_trajectories_from_the_state_equal_recomputed_ones(ends):
    # one gate at N, and gates ending before N (steps M..N-1 built afterwards)
    v, zeta, I0, state = random_forward_state(gates_on(ends))
    assert len(state.stencils) == ends[-1] == len(state.images) - 1
    fed = metamorphosis.trajectories(v, zeta, I0, state.images)
    recomputed = metamorphosis.trajectories(v, zeta, I0)
    for name in ("image_traj", "deformation_traj", "template_traj"):
        assert same_bits(getattr(fed, name), getattr(recomputed, name)), name


def test_solve_hands_its_last_state_to_trajectories():
    # a solve whose one gate ends before N: the report's trajectories equal
    # those recomputed from its final controls, bit for bit
    n = 6
    spec, I0, geo, g = consistent_problem(nx=32)
    target = make_phantom(PhantomSpec("discs", discs=(Disc(1.0, 0.0, 5.0, 1.0),)), spec)
    gates = [(4, forward_project(target, geo))]
    report = optimizer.descend(I0, gates, KernelSpec(2.0), RegParams(1e-5, 1e-5), TimeGrid(n),
                               SolveConfig(max_iters=2, step_v=5e-4, step_zeta=1e-2))
    assert report.stop_reason == "max_iters"
    recomputed = metamorphosis.trajectories(report.final_v, report.final_zeta, I0)
    for name in ("image_traj", "deformation_traj", "template_traj"):
        assert same_bits(getattr(report.trajectories, name), getattr(recomputed, name)), name


def test_forward_state_holds_one_image_and_one_compact_stencil_per_level():
    # 8 bytes of image plus 24 of stencil (one index, two offsets) per node
    # and level: the bound that keeps the stored stencils' memory small
    ends = (2, 5)
    _, _, I0, state = random_forward_state(gates_on(ends))
    levels = ends[-1] + 1
    arrays = list(state.images)
    arrays += [a for st in state.stencils for a in (st.index, st.fu, st.fw)]
    assert all(a.base is None for a in arrays)  # no view hides a larger array
    held = sum(a.nbytes for a in arrays)
    assert held <= (8 + 24) * I0.values.size * levels


def backtracking_gated_solve():
    case = evolving_gated_case(nx=32, n_gates=5, per_gate=6)
    report, _ = solve_gated(case, max_iters=4, step_v=5e-4, step_zeta=1e-2)
    return report


def test_evals_column_counts_line_search_evaluations(monkeypatch):
    counts = {}
    count_calls(monkeypatch, optimizer, "evaluate_parts", counts)
    report = backtracking_gated_solve()
    assert report.stop_reason == "max_iters"
    evals = [row["evals"] for row in report.log_rows]
    assert max(evals) > 1  # the line search backtracked
    assert sum(evals) == counts["evaluate_parts"]


def test_early_rejection_changes_no_output(monkeypatch):
    # a rejected candidate stops at the first gate that decides it; the same
    # solve with every candidate evaluated in full (the bound dropped, the
    # acceptance test applied to the full value) must give identical output
    bounded_counts, full_counts = {}, {}
    count_calls(monkeypatch, objective, "forward_project", bounded_counts)
    bounded = backtracking_gated_solve()

    monkeypatch.undo()
    count_calls(monkeypatch, objective, "forward_project", full_counts)
    evaluate_parts = objective.evaluate_parts

    def full(v, zeta, I0, gates, params, bound=None):
        cand = evaluate_parts(v, zeta, I0, gates, params)
        return cand if bound is None or cand[0] <= bound else None
    monkeypatch.setattr(optimizer, "evaluate_parts", full)
    unbounded = backtracking_gated_solve()

    assert max(row["evals"] for row in bounded.log_rows) > 1
    assert bounded.objective_history == unbounded.objective_history
    assert bounded.log_rows == unbounded.log_rows
    for a, b in zip(bounded.trajectories.image_traj, unbounded.trajectories.image_traj,
                    strict=True):
        assert a.values.tobytes() == b.values.tobytes()
    assert bounded_counts["forward_project"] < full_counts["forward_project"]
