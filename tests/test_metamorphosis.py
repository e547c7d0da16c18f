import numpy as np
import pytest

from helpers import image_l2_norm_sq, sfield, vfield
from metamorph.grid import GridSpec, Image, VectorImage, sample_values_xy
from metamorph.flow import DeformationMap, TimeGrid, TimeVaryingVectorField
from metamorph.kernel import KernelSpec, kernel_apply
from metamorph.metamorphosis import (
    TimeVaryingScalarField,
    evolve_template,
    group_action,
    image_levels,
    trajectories,
    transport_stencil,
)

SPEC = GridSpec(16.0, 32, 32)


def smooth_vec(rng, scale, spec=SPEC, sigma=3.0):
    raw = VectorImage(spec, rng.normal(size=spec.shape), rng.normal(size=spec.shape))
    sm = kernel_apply(raw, KernelSpec(sigma))
    m = max(np.abs(sm.vx).max(), np.abs(sm.vy).max())
    return VectorImage(spec, sm.vx * scale / m, sm.vy * scale / m)


def smooth_img(rng, scale, spec=SPEC, sigma=3.0):
    raw = VectorImage(spec, rng.normal(size=spec.shape), np.zeros(spec.shape))
    sm = kernel_apply(raw, KernelSpec(sigma)).vx
    return Image(spec, sm * scale / np.abs(sm).max())


def test_group_action_identity_returns_image():
    rng = np.random.default_rng(0)
    img = Image(SPEC, rng.normal(size=SPEC.shape))
    out = group_action(DeformationMap.identity(SPEC), img)
    assert np.array_equal(out.values, img.values)


def test_group_action_translation_shift_oracle():
    img = Image.from_function(SPEC, lambda x, y: np.exp(-(x ** 2 + y ** 2) / 8))
    c = 2.0
    pts = SPEC.identity_points()
    pts = pts - np.array([c, 0.0])
    shifted = group_action(DeformationMap(SPEC, pts), img)
    # oracle: direct resampling of the image at shifted sample points
    px, py = SPEC.identity_points()[..., 0], SPEC.identity_points()[..., 1]
    expect = sample_values_xy(img.values, SPEC, px - c, py)
    assert np.array_equal(shifted.values, expect)


def test_group_action_constant_invariant():
    img = Image.full(SPEC, 2.5)
    rng = np.random.default_rng(1)
    pts = SPEC.identity_points() + rng.normal(0, 0.5, SPEC.shape + (2,))
    # stay on the node hull where interpolation is a convex combination
    hull = SPEC.half_width - SPEC.h / 2
    pts = np.clip(pts, -hull, hull)
    out = group_action(DeformationMap(SPEC, pts), img)
    assert np.allclose(out.values, 2.5)


def test_transport_step_transpose_is_exact():
    # a drift of 1.5 pixels to +x plus a smooth wobble: departure points
    # x - dt v(x) leave the domain through the left edge, and others near the
    # edges read corners on the zero border
    rng = np.random.default_rng(7)
    tg = TimeGrid(4)
    dt = tg.dt
    wobble = smooth_vec(rng, 2.0)
    v = VectorImage(SPEC, 6.0 + wobble.vx, wobble.vy)
    S = transport_stencil(vfield(tg, [v] * 4), 0)
    px = SPEC.xs()[:, None] - dt * v.vx
    py = SPEC.ys()[None, :] - dt * v.vy
    L = SPEC.half_width
    outside = (np.abs(px) > L) | (np.abs(py) > L)
    assert outside[0].all() and not outside[-1].any()
    # node coordinates below 0 or above n - 1 read a corner on the border
    u = (px + L) / SPEC.h - 0.5
    w = (py + L) / SPEC.h - 0.5
    assert (~outside & ((u < 0) | (u > SPEC.nx - 1) | (w < 0) | (w > SPEC.ny - 1))).any()
    # exactly the departure points outside the domain read zero
    assert np.array_equal(S.apply(np.ones(SPEC.shape)) == 0.0, outside)
    a = rng.normal(size=SPEC.shape)
    b = rng.normal(size=SPEC.shape)
    lhs = float(np.sum(S.apply(a) * b))
    rhs = float(np.sum(a * S.transpose(b)))
    assert rhs == pytest.approx(lhs, rel=1e-12)
    # what the outside points carry is dropped, not scattered
    assert np.array_equal(S.transpose(np.where(outside, b, 0.0)), np.zeros(SPEC.shape))


def test_transport_step_one_pixel_shift_oracle():
    # dt v = (h, 0) moves the image one pixel to +x per step, and zero flows
    # in through the left edge; the transpose moves it back
    n = 4
    tg = TimeGrid(n)
    v = vfield(tg, [VectorImage(SPEC, np.full(SPEC.shape, SPEC.h * n), np.zeros(SPEC.shape))] * n)
    zeta = TimeVaryingScalarField.zeros(tg, SPEC)
    rng = np.random.default_rng(8)
    I0 = Image(SPEC, rng.normal(size=SPEC.shape))
    levels = [f for _, f in image_levels(v, zeta, I0.values, 0, n)]
    for k, f in enumerate([I0.values, *levels]):
        assert np.array_equal(f[k:], I0.values[:SPEC.nx - k])
        assert np.all(f[:k] == 0.0)
    b = rng.normal(size=SPEC.shape)
    back = transport_stencil(v, 0).transpose(b)
    assert np.array_equal(back[:-1], b[1:])
    assert np.all(back[-1] == 0.0)


def test_evolve_zero_intensity_keeps_template():
    tg = TimeGrid(6)
    rng = np.random.default_rng(2)
    v = vfield(tg, [smooth_vec(rng, 0.8) for _ in range(6)])
    zeta = TimeVaryingScalarField.zeros(tg, SPEC)
    I0 = Image(SPEC, rng.normal(size=SPEC.shape))
    for entry in evolve_template(v, zeta, I0):
        assert np.array_equal(entry.values, I0.values)


def test_evolve_constant_intensity_no_flow():
    tg = TimeGrid(5)
    v = TimeVaryingVectorField.zeros(tg, SPEC)
    c = 0.7
    zeta = sfield(tg, [Image.full(SPEC, c)] * 5)
    I0 = Image.full(SPEC, 1.0)
    out = evolve_template(v, zeta, I0)
    for i, entry in enumerate(out):
        assert np.allclose(entry.values, 1.0 + c * i / 5, atol=1e-13)


def test_evolve_self_refinement_first_order():
    # analytic space-time fields sampled at N and at a fine reference N
    def v_of(t):
        return VectorImage.from_function(
            SPEC, lambda x, y: (0.8 * np.cos(np.pi * t) * np.exp(-(x ** 2 + y ** 2) / 50) * (-y / 8),
                                0.8 * np.cos(np.pi * t) * np.exp(-(x ** 2 + y ** 2) / 50) * (x / 8)))

    def z_of(t):
        return Image.from_function(
            SPEC, lambda x, y: np.sin(2 * np.pi * t) * np.exp(-((x - 2) ** 2 + y ** 2) / 30))

    def final_template(n):
        tg = TimeGrid(n)
        v = vfield(tg, [v_of(i / n) for i in range(n)])
        zeta = sfield(tg, [z_of(i / n) for i in range(n)])
        I0 = Image.from_function(SPEC, lambda x, y: np.exp(-(x ** 2 + y ** 2) / 40))
        return evolve_template(v, zeta, I0)[-1].values

    ref = final_template(512)
    err8 = np.abs(final_template(8) - ref).max()
    err16 = np.abs(final_template(16) - ref).max()
    assert err16 < err8
    assert 1.3 <= err8 / err16 <= 2.8


def test_trajectories_start_at_template():
    tg = TimeGrid(4)
    rng = np.random.default_rng(3)
    v = vfield(tg, [smooth_vec(rng, 0.5) for _ in range(4)])
    zeta = sfield(tg, [smooth_img(rng, 0.5) for _ in range(4)])
    I0 = Image(SPEC, rng.normal(size=SPEC.shape))
    traj = trajectories(v, zeta, I0)
    for t in (traj.image_traj, traj.deformation_traj, traj.template_traj):
        assert np.array_equal(t[0].values, I0.values)


def test_zero_intensity_reduces_to_pure_transport():
    tg = TimeGrid(5)
    rng = np.random.default_rng(4)
    v = vfield(tg, [smooth_vec(rng, 1.0) for _ in range(5)])
    zeta = TimeVaryingScalarField.zeros(tg, SPEC)
    I0 = Image(SPEC, rng.normal(size=SPEC.shape))
    traj = trajectories(v, zeta, I0)
    for a, b in zip(traj.image_traj, traj.deformation_traj):
        assert np.array_equal(a.values, b.values)


def test_zero_flow_reduces_to_intensity_only():
    tg = TimeGrid(5)
    rng = np.random.default_rng(5)
    v = TimeVaryingVectorField.zeros(tg, SPEC)
    zeta = sfield(tg, [smooth_img(rng, 0.5) for _ in range(5)])
    I0 = Image(SPEC, rng.normal(size=SPEC.shape))
    traj = trajectories(v, zeta, I0)
    for a, b in zip(traj.image_traj, traj.template_traj):
        assert np.array_equal(a.values, b.values)


def test_total_intensity_change_bounded_by_control_norm():
    # |I(1) - I0| <= 2 |zeta|_2 for moderate flows (change of variables slack)
    tg = TimeGrid(6)
    rng = np.random.default_rng(6)
    for _ in range(5):
        v = vfield(tg, [smooth_vec(rng, 0.5) for _ in range(6)])
        zeta = sfield(tg, [smooth_img(rng, 0.8) for _ in range(6)])
        I0 = Image.zeros(SPEC)
        final = evolve_template(v, zeta, I0)[-1]
        lhs = np.sqrt(image_l2_norm_sq(final))
        znorm = np.sqrt(sum(image_l2_norm_sq(Image(SPEC, z)) for z in zeta.values) / 6)
        assert lhs <= 2.0 * znorm
