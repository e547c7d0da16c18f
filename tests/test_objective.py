import math

import numpy as np
import pytest

from helpers import (
    FD_KERNEL,
    FD_SPEC,
    fd_check,
    gradient_at,
    image_l2_inner,
    random_state,
    sfield,
    smooth_bump,
    smooth_img,
)
from metamorph.flow import TimeGrid, TimeVaryingVectorField
from metamorph.grid import GridSpec, Image, VectorImage, gradient_central
from metamorph.harness import Disc, PhantomSpec, make_phantom
from metamorph.kernel import kernel_apply
from metamorph.metamorphosis import TimeVaryingScalarField, trajectories, transport_stencil
from metamorph.objective import (
    RegParams,
    data_discrepancy,
    discrepancy_gradient,
    evaluate_parts,
    gradient_core,
)
from metamorph.ray import Geometry, Sinogram, forward_project

EXTENT = 16.0 * math.sqrt(2.0)


def test_regparams_validation():
    with pytest.raises(ValueError):
        RegParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        RegParams(0.0, -1e-9)


def test_discrepancy_trivials():
    geo = Geometry.uniform(5, 16, EXTENT)
    rng = np.random.default_rng(0)
    g = Sinogram(geo, rng.normal(size=(5, 16)))
    assert data_discrepancy(g, g) == 0.0
    zero = Sinogram.zeros(geo)
    norm_sq = np.sum(g.values ** 2) * geo.delta_angle * geo.delta_det
    assert data_discrepancy(g, zero) == pytest.approx(norm_sq)


def test_discrepancy_single_bin_hand_value():
    geo = Geometry.uniform(5, 16, EXTENT)
    a = Sinogram.zeros(geo)
    b = Sinogram.zeros(geo)
    a.values[2, 7] = 3.0
    w = geo.delta_angle * geo.delta_det
    assert data_discrepancy(a, b) == pytest.approx(9.0 * w)


def test_discrepancy_geometry_mismatch():
    a = Sinogram.zeros(Geometry.uniform(5, 16, EXTENT))
    b = Sinogram.zeros(Geometry.uniform(6, 16, EXTENT))
    with pytest.raises(ValueError):
        data_discrepancy(a, b)


def test_discrepancy_gradient_zero_at_match():
    spec = GridSpec(16.0, 32, 32)
    geo = Geometry.uniform(10, 48, EXTENT)
    rng = np.random.default_rng(1)
    g = Sinogram(geo, rng.normal(size=(10, 48)))
    out = discrepancy_gradient(g, g, spec)
    assert np.all(out.values == 0.0)


def test_discrepancy_gradient_matches_fd():
    spec = GridSpec(16.0, 32, 32)
    geo = Geometry.uniform(10, 48, EXTENT)
    rng = np.random.default_rng(2)
    f = Image(spec, rng.normal(size=spec.shape))
    g = Sinogram(geo, rng.normal(size=(10, 48)))
    grad = discrepancy_gradient(forward_project(f, geo), g, spec)
    d = Image(spec, rng.normal(size=spec.shape))

    def D_of(eps):
        fe = Image(spec, f.values + eps * d.values)
        return data_discrepancy(forward_project(fe, geo), g)

    eps = 1e-6
    fd = (D_of(eps) - D_of(-eps)) / (2 * eps)
    assert image_l2_inner(grad, d) == pytest.approx(fd, rel=1e-6)


def test_discrepancy_gradient_linear_in_residual():
    spec = GridSpec(16.0, 32, 32)
    geo = Geometry.uniform(10, 48, EXTENT)
    rng = np.random.default_rng(3)
    a = Sinogram(geo, rng.normal(size=(10, 48)))
    zero = Sinogram.zeros(geo)
    doubled = Sinogram(geo, 2.0 * a.values)
    g1 = discrepancy_gradient(a, zero, spec)
    g2 = discrepancy_gradient(doubled, zero, spec)
    assert np.allclose(g2.values, 2.0 * g1.values, rtol=1e-12, atol=1e-12)


def make_problem(n_steps=5, n_angles=45):
    geo = Geometry.uniform(n_angles, 64, EXTENT)
    I0 = smooth_bump(1.5, -1.0, 5.5, 1.0)
    target = smooth_bump(-1.5, 1.0, 6.0, 0.85)
    g = forward_project(target, geo)
    return TimeGrid(n_steps), geo, I0, g


def test_evaluate_at_rest_is_template_discrepancy():
    tg, geo, I0, g = make_problem()
    v = TimeVaryingVectorField.zeros(tg, FD_SPEC)
    zeta = TimeVaryingScalarField.zeros(tg, FD_SPEC)
    val = evaluate_parts(v, zeta, I0, [(tg.n_steps, g)], RegParams(0.3, 0.7))[0]
    assert val == pytest.approx(data_discrepancy(forward_project(I0, geo), g))


def test_evaluate_zero_at_consistent_data():
    tg, geo, I0, _ = make_problem()
    v = TimeVaryingVectorField.zeros(tg, FD_SPEC)
    zeta = TimeVaryingScalarField.zeros(tg, FD_SPEC)
    g = forward_project(I0, geo)
    assert evaluate_parts(v, zeta, I0, [(tg.n_steps, g)], RegParams(1.0, 1.0))[0] == 0.0


def test_evaluate_intensity_term_quadratic():
    tg, geo, I0, g = make_problem()
    v = TimeVaryingVectorField.zeros(tg, FD_SPEC)
    rng = np.random.default_rng(4)
    zeta = sfield(tg, [smooth_img(rng, 0.5) for _ in range(5)])
    params = RegParams(0.0, 2.0)
    gates = [(tg.n_steps, g)]
    z_term = evaluate_parts(v, zeta, I0, gates, params)[3]
    z_term_doubled = evaluate_parts(v, zeta.add_scaled(zeta, 1.0), I0, gates, params)[3]
    assert z_term_doubled == pytest.approx(4 * z_term, rel=1e-12)


def test_evaluation_wraps_only_the_projected_level_as_an_image(monkeypatch):
    # the levels stay arrays; the one Image is the level forward_project reads
    tg, _, I0, g = make_problem(n_steps=6)
    v, zeta = random_state(6, seed=3, amp_v=0.1, amp_z=0.3)
    built = []
    check = Image.__post_init__

    def counted(self):
        built.append(self)
        check(self)
    monkeypatch.setattr(Image, "__post_init__", counted)
    evaluate_parts(v, zeta, I0, [(tg.n_steps, g)], RegParams(0.3, 0.7))
    assert len(built) == 1


def test_gradient_zero_at_consistent_data():
    tg, geo, I0, _ = make_problem()
    v = TimeVaryingVectorField.zeros(tg, FD_SPEC)
    zeta = TimeVaryingScalarField.zeros(tg, FD_SPEC)
    g = forward_project(I0, geo)
    grad_v, grad_zeta = gradient_at(v, zeta, I0, [(tg.n_steps, g)], RegParams(0.0, 0.0))
    assert not grad_v.values.any()
    assert not grad_zeta.values.any()


def test_single_step_closed_form_reduction():
    tg = TimeGrid(1)
    geo = Geometry.uniform(20, 48, EXTENT)
    spec = GridSpec(16.0, 64, 64)
    I0 = make_phantom(PhantomSpec("discs", discs=(Disc(1.0, 0.0, 5.0, 1.0),)), spec)
    target = make_phantom(PhantomSpec("discs", discs=(Disc(-1.0, 0.0, 5.0, 0.8),)), spec)
    g = forward_project(target, geo)
    v = TimeVaryingVectorField.zeros(tg, spec)
    rng = np.random.default_rng(5)
    zeta = sfield(tg, [smooth_img(rng, 0.4, spec=spec)])
    _, grad_zeta = gradient_at(v, zeta, I0, [(1, g)], RegParams(0.0, 0.0))
    f1 = Image(spec, I0.values + zeta.values[0])
    direct = discrepancy_gradient(forward_project(f1, geo), g, spec)
    scale = np.abs(direct.values).max()
    assert np.abs(grad_zeta.values[0] - direct.values).max() <= 1e-10 * scale


def test_gradient_matches_finite_differences():
    tg, geo, I0, g = make_problem(n_steps=5)
    params = RegParams(1e-6, 1e-6)
    gates = [(5, g)]
    v, zeta = random_state(5, seed=3)
    grad = gradient_at(v, zeta, I0, gates, params)
    pairs, fds = fd_check(v, zeta, grad,
                          lambda v, z: evaluate_parts(v, z, I0, gates, params)[0], 5, eps=0.02)
    scale = np.abs(fds).max()
    assert np.abs(pairs - fds).max() <= 1e-3 * scale
    assert np.median(np.abs(pairs - fds) / np.abs(fds)) <= 1e-3


def test_zero_residual_fixed_point():
    # data generated from the current state's own image, no regularisation:
    # the gradient vanishes identically at any (v, zeta)
    tg, geo, I0, _ = make_problem(n_steps=4)
    v, zeta = random_state(4, seed=8, amp_v=0.3, amp_z=0.4)
    traj = trajectories(v, zeta, I0)
    g = forward_project(traj.image_traj[-1], geo)
    grad_v, grad_zeta = gradient_at(v, zeta, I0, [(4, g)], RegParams(0.0, 0.0))
    assert not grad_v.values.any()
    assert not grad_zeta.values.any()


def test_descent_direction_decreases_objective():
    tg, geo, I0, g = make_problem(n_steps=4)
    params = RegParams(1e-5, 1e-5)
    gates = [(4, g)]
    v, zeta = random_state(4, seed=9, amp_v=0.2, amp_z=0.3)
    grad_v, grad_zeta = gradient_at(v, zeta, I0, gates, params)
    J0 = evaluate_parts(v, zeta, I0, gates, params)[0]
    step = 1e-4
    for _ in range(20):
        J_new = evaluate_parts(v.add_scaled(grad_v, -step),
                               zeta.add_scaled(grad_zeta, -step), I0, gates, params)[0]
        if J_new < J0:
            break
        step *= 0.5
    else:
        pytest.fail(f"no decrease found down to step {step}")
    assert step >= 1e-8


def test_gradient_structure_kernel_range_and_raw_intensity():
    tg, geo, I0, g = make_problem(n_steps=4)
    params = RegParams(0.3, 0.7)
    v, zeta = random_state(4, seed=11, amp_v=0.1, amp_z=0.3)
    gates = [(4, g)]
    state = evaluate_parts(v, zeta, I0, gates, params)[4]
    grad_v, grad_zeta = gradient_core(v, zeta, state, gates, params, FD_KERNEL)
    # the whole gradient at gamma = tau = 0 is the data gradient
    data_v, data_zeta = gradient_core(v, zeta, state, gates, RegParams(0.0, 0.0), FD_KERNEL)
    assert np.array_equal(grad_v.values, params.gamma * v.values + data_v.values)
    assert np.array_equal(grad_zeta.values, params.tau * zeta.values + data_zeta.values)
    # at the last step the velocity data gradient is the kernel-smoothed r G_3,
    # with G_3 the gradient of f_3 + dt zeta_3 sampled through that step's
    # stencil S_3, and the intensity one is r carried back by S_3^T, unsmoothed
    r = discrepancy_gradient(state.projections[0], g, FD_SPEC).values
    dt = tg.dt
    S3 = transport_stencil(v, 3)
    G = gradient_central(Image(FD_SPEC, state.images[3] + dt * zeta.values[3]))
    Gx, Gy = S3.apply(G.vx), S3.apply(G.vy)
    smoothed = kernel_apply(VectorImage(FD_SPEC, r * Gx, r * Gy), FD_KERNEL)
    assert np.array_equal(data_v.values[3, 0], -smoothed.vx)
    assert np.array_equal(data_v.values[3, 1], -smoothed.vy)
    assert np.array_equal(data_zeta.values[3], S3.transpose(r))
