import math

import numpy as np
import pytest

from helpers import (
    FD_KERNEL,
    FD_SPEC,
    fd_check,
    gradient_at,
    random_state,
    smooth_bump,
)
from metamorph import objective
from metamorph.flow import TimeGrid, TimeVaryingVectorField
from metamorph.grid import Image
from metamorph.metamorphosis import TimeVaryingScalarField
from metamorph.objective import RegParams, evaluate_parts, gradient_core
from metamorph.ray import Geometry, Sinogram, _build_operator, forward_project
from metamorph.spatiotemporal import GatedData, gate_angles

EXTENT = 16.0 * math.sqrt(2.0)


def make_gated_problem(n_steps=6):
    I0 = smooth_bump(1.5, -1.0, 5.5, 1.0)
    target = smooth_bump(-1.5, 1.0, 6.0, 0.85)
    frames = [Image(FD_SPEC, target.values * (0.5 + 0.5 * k / n_steps))
              for k in range(n_steps + 1)]
    geos = [Geometry.uniform(m, 48, EXTENT) for m in (14, 15, 16)]
    gates = GatedData([(2, forward_project(frames[2], geos[0])),
                       (4, forward_project(frames[4], geos[1])),
                       (6, forward_project(frames[6], geos[2]))])
    return TimeGrid(n_steps), I0, gates


def test_gated_data_validation():
    geo = Geometry.uniform(4, 16, EXTENT)
    s = Sinogram.zeros(geo)
    with pytest.raises(ValueError):
        GatedData([])
    with pytest.raises(ValueError):
        GatedData([(0, s)])
    with pytest.raises(ValueError):
        GatedData([(2, s), (2, s)])
    with pytest.raises(ValueError):
        GatedData([(3, s), (1, s)])
    gd = GatedData([(1, s), (3, s)])
    with pytest.raises(ValueError):
        gd.check_against(TimeGrid(2))


def test_gate_angles_seeded_ranges():
    out = gate_angles(10, 10, seed=5)
    assert len(out) == 10
    for i, angles in enumerate(out, start=1):
        assert len(angles) == 10
        assert np.all(angles >= (i - 1) * np.pi / 10)
        assert np.all(angles < i * np.pi / 10)
    again = gate_angles(10, 10, seed=5)
    for a, b in zip(out, again):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n_gates, per_gate, message", [
    (0, 3, "n_gates must be at least 1, got 0"),
    (2, 0, "per_gate must be at least 1, got 0"),
    (2, -1, "per_gate must be at least 1, got -1"),
])
def test_gate_angles_rejects_fewer_than_one(n_gates, per_gate, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        gate_angles(n_gates, per_gate, 1)


def test_consistent_static_gates_give_zero():
    n = 5
    tg = TimeGrid(n)
    I0 = smooth_bump(0.5, 0.5, 5.0, 1.0)
    v = TimeVaryingVectorField.zeros(tg, FD_SPEC)
    zeta = TimeVaryingScalarField.zeros(tg, FD_SPEC)
    geos = [Geometry.uniform(m, 40, EXTENT) for m in (8, 9, 10)]
    gated = GatedData([(k, forward_project(I0, geos[k - 1])) for k in (1, 2, 3)])
    assert evaluate_parts(v, zeta, I0, gated.gates, RegParams(1.0, 1.0))[0] == 0.0


def test_repeated_gated_evaluation_builds_no_operator():
    # more gates than the value-keyed cache holds: the gates keep their own
    n_gates = 40
    I0 = smooth_bump(1.5, -1.0, 5.5, 1.0)
    gated = GatedData([(k, Sinogram.zeros(Geometry(angles, 24, EXTENT)))
                       for k, angles in enumerate(gate_angles(n_gates, 2, seed=6), start=1)])
    v, zeta = random_state(n_gates, seed=8, amp_v=0.2, amp_z=0.3)
    params = RegParams(1e-4, 1e-3)
    first = evaluate_parts(v, zeta, I0, gated.gates, params)
    misses = _build_operator.cache_info().misses
    assert evaluate_parts(v, zeta, I0, gated.gates, params)[:4] == first[:4]
    assert _build_operator.cache_info().misses == misses


def test_gated_data_rejects_empty_gate_list():
    with pytest.raises(ValueError, match=r"at least one gate on the time grid 1\.\.N"):
        GatedData([])


@pytest.mark.parametrize("index", [7, -1])
def test_gated_data_rejects_gate_index_off_the_time_grid(index):
    tg, _, gated = make_gated_problem()
    grid = r"1\.\.6" if index > 0 else r"1\.\.N"
    with pytest.raises(ValueError, match=rf"gate index {index} outside the time grid {grid}"):
        GatedData(gated.gates[:2] + [(index, gated.gates[2][1])]).check_against(tg)


def test_gated_data_rejects_decreasing_gate_indices():
    _, _, gated = make_gated_problem()
    gates = [gated.gates[1], gated.gates[0], gated.gates[2]]
    with pytest.raises(ValueError, match=r"gate index 2 follows gate index 4.*1\.\.N"):
        GatedData(gates)


def test_gated_data_rejects_a_non_integer_gate_index():
    # rounding 2.7 would move the gate to another time level
    s = Sinogram.zeros(Geometry.uniform(4, 16, EXTENT))
    with pytest.raises(ValueError, match=r"gate index must be an integer, got 2\.7"):
        GatedData([(2.7, s)])
    assert GatedData([(np.int64(2), s)]).gates[0][0] == 2


def test_unbounded_evaluation_equals_infinite_bound():
    tg, I0, gated = make_gated_problem()
    v, zeta = random_state(tg.n_steps, seed=9, amp_v=0.3, amp_z=0.4)
    params = RegParams(1e-4, 1e-3)
    free = evaluate_parts(v, zeta, I0, gated.gates, params)
    bounded = evaluate_parts(v, zeta, I0, gated.gates, params, bound=math.inf)
    assert bounded[:4] == free[:4]
    for a, b in zip(bounded[4].images, free[4].images, strict=True):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(bounded[4].residuals, free[4].residuals, strict=True):
        assert a.tobytes() == b.tobytes()


def test_nan_bound_rejects():
    tg, I0, gated = make_gated_problem()
    v, zeta = random_state(tg.n_steps, seed=9)
    assert evaluate_parts(v, zeta, I0, gated.gates, RegParams(1e-4, 1e-3),
                          bound=math.nan) is None


def test_bound_below_first_gate_stops_after_one_projection(monkeypatch):
    tg, I0, gated = make_gated_problem()
    v, zeta = random_state(tg.n_steps, seed=9, amp_v=0.3, amp_z=0.4)
    params = RegParams(1e-4, 1e-3)
    _, _, v_term, z_term, _ = evaluate_parts(v, zeta, I0, gated.gates, params)
    first = evaluate_parts(v, zeta, I0, gated.gates[:1], params)[1]
    assert first > 0.0
    calls = []
    project = objective.forward_project

    def counted(*args):
        calls.append(args)
        return project(*args)
    monkeypatch.setattr(objective, "forward_project", counted)
    # the regularisers alone stay below the bound, the first gate passes it
    bound = v_term + z_term + 0.5 * first
    assert evaluate_parts(v, zeta, I0, gated.gates, params, bound=bound) is None
    assert len(calls) == 1


def test_two_identical_gates_double_data_term():
    n = 4
    tg = TimeGrid(n)
    I0 = smooth_bump(1.0, 0.0, 5.0, 1.0)
    target = smooth_bump(-1.0, 0.5, 5.5, 0.8)
    geo = Geometry.uniform(15, 40, EXTENT)
    g = forward_project(target, geo)
    v = TimeVaryingVectorField.zeros(tg, FD_SPEC)
    zeta = TimeVaryingScalarField.zeros(tg, FD_SPEC)
    params = RegParams(0.0, 0.0)
    # same sinogram pinned at two different times of a static trajectory
    single = evaluate_parts(v, zeta, I0, [(4, g)], params)[0]
    double = evaluate_parts(v, zeta, I0, [(2, g), (4, g)], params)[0]
    assert double == pytest.approx(2.0 * single, rel=1e-12)


def test_data_gradient_adds_up_over_gates():
    # the backward sweep carries all gates at once; each gate's residual must
    # enter it at its own level, so the result is the sum of single-gate runs
    _, I0, gated = make_gated_problem(n_steps=6)
    v, zeta = random_state(6, seed=29, amp_v=0.3, amp_z=0.3)
    params = RegParams(0.0, 0.0)

    def arrays(gates):
        state = evaluate_parts(v, zeta, I0, gates, params)[4]
        grad_v, grad_zeta = gradient_core(v, zeta, state, gates, params, FD_KERNEL)
        return grad_v.values[:, 0], grad_v.values[:, 1], grad_zeta.values

    together = arrays(gated.gates)
    alone = [arrays([gate]) for gate in gated.gates]
    for part, parts in zip(together, zip(*alone)):
        scale = max(np.abs(a).max() for p in parts for a in p)
        assert scale > 0.0
        for k, got in enumerate(part):
            assert np.abs(got - sum(p[k] for p in parts)).max() <= 1e-12 * scale


def test_gate_locality_of_data_gradient():
    n = 5
    tg = TimeGrid(n)
    I0 = smooth_bump(1.0, 0.0, 5.0, 1.0)
    target = smooth_bump(-1.0, 0.5, 5.5, 0.8)
    geo = Geometry.uniform(15, 40, EXTENT)
    gated = GatedData([(1, forward_project(target, geo))])
    v, zeta = random_state(n, seed=23, amp_v=0.2, amp_z=0.3)
    grad_v, grad_zeta = gradient_at(v, zeta, I0, gated.gates, RegParams(0.0, 0.0))
    # data contributions exist only for the controls driving the first step
    assert np.any(grad_v.values[0, 0])
    assert np.any(grad_zeta.values[0])
    assert not grad_v.values[1:].any()
    assert not grad_zeta.values[1:].any()


def test_gated_gradient_matches_finite_differences():
    tg, I0, gates = make_gated_problem(n_steps=6)
    params = RegParams(1e-6, 1e-6)
    v, zeta = random_state(6, seed=3)
    grad = gradient_at(v, zeta, I0, gates.gates, params)
    pairs, fds = fd_check(v, zeta, grad,
                          lambda v, z: evaluate_parts(v, z, I0, gates.gates, params)[0], 6,
                          eps=0.04)
    assert np.abs(pairs - fds).max() <= 1e-3 * np.abs(fds).max()
    assert np.median(np.abs(pairs - fds) / np.abs(fds)) <= 1e-3
