import math

import numpy as np
import pytest

from helpers import (
    FD_KERNEL,
    FD_SPEC,
    central_fd,
    pair_gradient,
    random_state,
    smooth_bump,
    smoothed_direction,
)
from metamorph.flow import TimeGrid, TimeVaryingVectorField
from metamorph.grid import Image
from metamorph.metamorphosis import TimeVaryingScalarField
from metamorph.objective import (
    RegParams,
    _data_gradient_arrays,
    evaluate,
    evaluate_parts,
    gradient,
)
from metamorph.ray import Geometry, Sinogram, _build_operator, forward_project
from metamorph.spatiotemporal import (
    GatedData,
    gate_angles,
    gated_evaluate,
    gated_gradient,
)

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


def test_consistent_static_gates_give_zero():
    n = 5
    tg = TimeGrid(n)
    I0 = smooth_bump(0.5, 0.5, 5.0, 1.0)
    v = TimeVaryingVectorField.zeros(tg, FD_SPEC)
    zeta = TimeVaryingScalarField.zeros(tg, FD_SPEC)
    geos = [Geometry.uniform(m, 40, EXTENT) for m in (8, 9, 10)]
    gated = GatedData([(k, forward_project(I0, geos[k - 1])) for k in (1, 2, 3)])
    assert gated_evaluate(v, zeta, I0, gated, RegParams(1.0, 1.0)) == 0.0


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
    assert evaluate_parts(v, zeta, I0, gated.gates, params) == first
    assert _build_operator.cache_info().misses == misses


def test_single_gate_collapses_to_single_target():
    n = 5
    tg, geo, I0, g = TimeGrid(n), Geometry.uniform(20, 48, EXTENT), smooth_bump(1.0, 0.0, 5.0, 1.0), None
    target = smooth_bump(-1.0, 0.5, 5.5, 0.8)
    g = forward_project(target, geo)
    params = RegParams(1e-4, 1e-3)
    v, zeta = random_state(n, seed=21, amp_v=0.3, amp_z=0.4)
    gated = GatedData([(n, g)])
    assert gated_evaluate(v, zeta, I0, gated, params) == evaluate(v, zeta, I0, g, params)
    a = gated_gradient(v, zeta, I0, gated, params, FD_KERNEL)
    b = gradient(v, zeta, I0, g, params, FD_KERNEL)
    for sa, sb in zip(a.grad_v.samples, b.grad_v.samples):
        assert np.array_equal(sa.vx, sb.vx) and np.array_equal(sa.vy, sb.vy)
    for sa, sb in zip(a.grad_zeta.samples, b.grad_zeta.samples):
        assert np.array_equal(sa.values, sb.values)


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
    single = gated_evaluate(v, zeta, I0, GatedData([(4, g)]), params)
    double = gated_evaluate(v, zeta, I0, GatedData([(2, g), (4, g)]), params)
    assert double == pytest.approx(2.0 * single, rel=1e-12)


def test_data_gradient_adds_up_over_gates():
    # the backward sweep carries all gates at once; each gate's residual must
    # enter it at its own level, so the result is the sum of single-gate runs
    _, I0, gated = make_gated_problem(n_steps=6)
    v, zeta = random_state(6, seed=29, amp_v=0.3, amp_z=0.3)
    together = _data_gradient_arrays(v, zeta, I0, gated.gates)
    alone = [_data_gradient_arrays(v, zeta, I0, [gate]) for gate in gated.gates]
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
    grad = gated_gradient(v, zeta, I0, gated, RegParams(0.0, 0.0), FD_KERNEL)
    # data contributions exist only for samples feeding the first step
    assert np.any(grad.grad_v.samples[0].vx)
    assert np.any(grad.grad_zeta.samples[0].values)
    for i in range(1, n + 1):
        assert np.all(grad.grad_v.samples[i].vx == 0.0)
        assert np.all(grad.grad_v.samples[i].vy == 0.0)
        assert np.all(grad.grad_zeta.samples[i].values == 0.0)


def test_gated_gradient_matches_finite_differences():
    tg, I0, gates = make_gated_problem(n_steps=6)
    params = RegParams(1e-6, 1e-6)
    v, zeta = random_state(6, seed=3)
    grad = gated_gradient(v, zeta, I0, gates, params, FD_KERNEL)
    rng = np.random.default_rng(17)
    eps = 0.04
    pairs, fds = [], []
    for _ in range(20):
        rs, dirs, etas = smoothed_direction(rng, 6)
        wf = TimeVaryingVectorField(tg, dirs)
        ef = TimeVaryingScalarField(tg, etas)
        pairs.append(pair_gradient(grad, rs, etas, 6))
        fds.append(central_fd(
            lambda a: gated_evaluate(v.add_scaled(wf, a), zeta.add_scaled(ef, a),
                                     I0, gates, params), eps))
    pairs, fds = np.array(pairs), np.array(fds)
    assert np.abs(pairs - fds).max() <= 1e-3 * np.abs(fds).max()
    assert np.median(np.abs(pairs - fds) / np.abs(fds)) <= 1e-3
