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
    evaluate_parts,
    gradient_core,
)
from metamorph.ray import Geometry, Sinogram, back_project, forward_project

EXTENT = 16.0 * math.sqrt(2.0)


def test_regparams_validation():
    with pytest.raises(ValueError):
        RegParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        RegParams(0.0, -1e-9)


def at_rest(tg, spec=FD_SPEC):
    return TimeVaryingVectorField.zeros(tg, spec), TimeVaryingScalarField.zeros(tg, spec)


def test_discrepancy_trivials():
    # at rest and gamma = tau = 0 the objective is its data term: zero at the
    # template's own projection, else the quadrature sum over the residual
    tg = TimeGrid(3)
    geo = Geometry.uniform(5, 16, EXTENT)
    I0 = smooth_bump(1.5, -1.0, 5.5, 1.0)
    rng = np.random.default_rng(0)
    g = Sinogram(geo, rng.normal(size=(5, 16)))
    params = RegParams(0.0, 0.0)
    matched = evaluate_parts(*at_rest(tg), I0, [(3, forward_project(I0, geo))], params)
    assert matched[:2] == (0.0, 0.0)
    total, data = evaluate_parts(*at_rest(tg), I0, [(3, g)], params)[:2]
    r = forward_project(I0, geo).values - g.values
    assert total == data == pytest.approx(np.sum(r * r) * geo.delta_angle * geo.delta_det)


def test_discrepancy_single_bin_hand_value():
    # a zero template projects to zeros, so one data bin of 3 is the residual
    tg = TimeGrid(2)
    geo = Geometry.uniform(5, 16, EXTENT)
    g = Sinogram.zeros(geo)
    g.values[2, 7] = 3.0
    data = evaluate_parts(*at_rest(tg), Image.full(FD_SPEC, 0.0), [(2, g)],
                          RegParams(0.0, 0.0))[1]
    assert data == pytest.approx(9.0 * geo.delta_angle * geo.delta_det)


def test_discrepancy_gradient_matches_fd():
    # at N = 1 and v = 0 the step is the identity, so grad_zeta is the
    # image-space gradient 2 T^*(T f_1 - g) of the data term at f_1 = I0 + zeta_0
    spec = GridSpec(16.0, 32, 32)
    geo = Geometry.uniform(10, 48, EXTENT)
    rng = np.random.default_rng(2)
    tg = TimeGrid(1)
    I0 = Image(spec, rng.normal(size=spec.shape))
    g = Sinogram(geo, rng.normal(size=(10, 48)))
    v, zeta = at_rest(tg, spec)
    gates = [(1, g)]
    params = RegParams(0.0, 0.0)
    grad = gradient_at(v, zeta, I0, gates, params)[1]
    d = Image(spec, rng.normal(size=spec.shape))

    def D_of(eps):
        return evaluate_parts(v, sfield(tg, [Image(spec, eps * d.values)]), I0, gates,
                              params)[1]

    eps = 1e-6
    fd = (D_of(eps) - D_of(-eps)) / (2 * eps)
    assert image_l2_inner(Image(spec, grad.values[0]), d) == pytest.approx(fd, rel=1e-6)


def test_discrepancy_gradient_linear_in_residual():
    # a zero template leaves the residual -g, so doubling g doubles the gradient
    spec = GridSpec(16.0, 32, 32)
    geo = Geometry.uniform(10, 48, EXTENT)
    rng = np.random.default_rng(3)
    a = Sinogram(geo, rng.normal(size=(10, 48)))
    doubled = Sinogram(geo, 2.0 * a.values)
    tg = TimeGrid(1)
    I0 = Image.full(spec, 0.0)
    g1, g2 = (gradient_at(*at_rest(tg, spec), I0, [(1, s)], RegParams(0.0, 0.0))[1]
              for s in (a, doubled))
    assert g1.values.any()
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
    r = forward_project(I0, geo).values - g.values
    assert val == pytest.approx(np.sum(r * r) * geo.delta_angle * geo.delta_det)


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
    direct = back_project(Sinogram(geo, 2.0 * (forward_project(f1, geo).values - g.values)), spec)
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
    r = back_project(Sinogram(geo, 2.0 * state.residuals[0]), FD_SPEC).values
    dt = tg.dt
    S3 = transport_stencil(v, 3)
    G = gradient_central(Image(FD_SPEC, state.images[3] + dt * zeta.values[3]))
    Gx, Gy = S3.apply(G.vx), S3.apply(G.vy)
    smoothed = kernel_apply(VectorImage(FD_SPEC, r * Gx, r * Gy), FD_KERNEL)
    assert np.array_equal(data_v.values[3, 0], -smoothed.vx)
    assert np.array_equal(data_v.values[3, 1], -smoothed.vy)
    assert np.array_equal(data_zeta.values[3], S3.transpose(r))
