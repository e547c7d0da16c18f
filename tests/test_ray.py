import math

import numpy as np
import pytest

from helpers import image_l2_inner, midpoint_ray_sums
from metamorph.grid import GridSpec, Image
from metamorph.harness import Disc, PhantomSpec, make_phantom, ssim
from metamorph.ray import (
    Geometry,
    Sinogram,
    _build_operator,
    _operator_rows,
    _ray_operator,
    back_project,
    fbp,
    forward_project,
)
from metamorph.spatiotemporal import gate_angles


def sino_inner(a, b):
    geo = a.geometry
    return float(np.sum(a.values * b.values)) * geo.delta_angle * geo.delta_det


EXTENT = 16.0 * math.sqrt(2.0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(np.array([0.0, np.pi]), 10, EXTENT)
    with pytest.raises(ValueError):
        Geometry(np.array([-0.1]), 10, EXTENT)
    with pytest.raises(ValueError):
        Geometry(np.array([0.5]), 0, EXTENT)
    # an empty acquisition would otherwise divide by zero in delta_angle
    with pytest.raises(ValueError, match="at least one angle"):
        Geometry(np.array([]), 10, EXTENT)
    geo = Geometry.uniform(10, 32, EXTENT)
    assert geo.n_angles == 10
    assert geo.delta_angle == pytest.approx(np.pi / 10)


def test_geometry_equality_is_same_sampling():
    angles = np.linspace(0.0, np.pi, 8, endpoint=False)
    geo = Geometry(angles, 8, 4.0)
    twin = Geometry(angles.copy(), 8, 4.0)
    assert geo == twin and hash(geo) == hash(twin)
    assert len({geo, twin}) == 1
    for other in (Geometry(angles[:-1], 8, 4.0), Geometry(angles + 0.01, 8, 4.0),
                  Geometry(angles, 9, 4.0), Geometry(angles, 8, 5.0)):
        assert geo != other and not geo == other
    assert geo != "geometry"
    signed = Geometry(np.array([-0.0, 1.0]), 8, 4.0)
    unsigned = Geometry(np.array([0.0, 1.0]), 8, 4.0)
    assert signed == unsigned and hash(signed) == hash(unsigned)


def test_zero_image_zero_sinogram():
    spec = GridSpec(16.0, 32, 32)
    geo = Geometry.uniform(8, 32, EXTENT)
    assert np.all(forward_project(Image.zeros(spec), geo).values == 0.0)


def test_disc_chord_length_oracle():
    spec = GridSpec(16.0, 128, 128)
    disc = make_phantom(PhantomSpec("discs", discs=(Disc(0.0, 0.0, 8.0, 1.0),)), spec)
    geo = Geometry.uniform(4, 128, EXTENT)
    sino = forward_project(disc, geo)
    s = geo.det_offsets()
    chord = np.where(np.abs(s) < 8.0, 2.0 * np.sqrt(np.maximum(64.0 - s * s, 0.0)), 0.0)
    for row in sino.values:
        mask = np.abs(s) <= 0.9 * 8.0
        assert (np.abs(row[mask] - chord[mask]) / chord[mask]).max() <= 0.02
        assert np.abs(row - chord).max() / chord.max() <= 0.02


def test_disc_rotational_symmetry():
    # cross-angle agreement is limited by the h/2 ray quadrature, not 1e-6
    spec = GridSpec(16.0, 128, 128)
    disc = make_phantom(PhantomSpec("discs", discs=(Disc(0.0, 0.0, 8.0, 1.0),)), spec)
    geo = Geometry.uniform(12, 96, EXTENT)
    sino = forward_project(disc, geo)
    spread = np.abs(sino.values - sino.values[0]).max()
    assert spread <= 2e-2 * np.abs(sino.values).max()


def test_adjoint_identity_random_pairs():
    spec = GridSpec(16.0, 64, 64)
    geo = Geometry.uniform(30, 96, EXTENT)
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = Image(spec, rng.normal(size=spec.shape))
        g = Sinogram(geo, rng.normal(size=(30, 96)))
        lhs = sino_inner(forward_project(f, geo), g)
        rhs = image_l2_inner(f, back_project(g, spec))
        scale = np.linalg.norm(forward_project(f, geo).values) * np.linalg.norm(g.values)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_forward_matches_per_sample_reference():
    spec = GridSpec(16.0, 8, 8)
    f = Image(spec, np.random.default_rng(4).normal(size=spec.shape))
    angles = np.array([0.0, 0.7, np.pi / 4, np.pi / 2, 2.3, 3 * np.pi / 4])
    # extent L puts the outer bins in the edge pixels' outer halves, where
    # some corners lie on the zero border; at 16 sqrt(2) the axis-aligned rays
    # of the outer bins miss the domain
    for extent in (16.0, EXTENT):
        geo = Geometry(angles, 12, extent)
        expected = midpoint_ray_sums(f, geo)
        got = forward_project(f, geo).values
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_equal_geometries_share_one_operator():
    spec = GridSpec(16.0, 16, 16)
    first = Geometry(np.array([0.25, 1.5, 2.75]), 24, EXTENT)
    second = Geometry(np.array([0.25, 1.5, 2.75]), 24, EXTENT)
    assert first is not second
    forward_project(Image.zeros(spec), first)
    before = _build_operator.cache_info()
    back_project(Sinogram.zeros(second), spec)
    after = _build_operator.cache_info()
    assert after.hits == before.hits + 1 and after.misses == before.misses
    assert _ray_operator(spec, first) is _ray_operator(spec, second)


SPECIAL = np.array([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, 0.7])


@pytest.mark.parametrize("n, geo", [
    (64, Geometry.uniform(30, 96, EXTENT)),
    (128, Geometry.uniform(60, 256, EXTENT)),
    (32, Geometry.uniform(7, 48, EXTENT)),
    (16, Geometry(SPECIAL, 24, 16.0)),
    (16, Geometry(SPECIAL, 24, EXTENT)),
    # a repeated angle reads the same stored rows as its first occurrence
    (16, Geometry(np.array([2.0, np.pi - 2.0, 0.5, 0.5]), 24, EXTENT)),
], ids=["uniform30", "uniform60", "uniform7", "special_extent_L", "special_extent_diag",
        "repeated"])
def test_derived_rows_match_direct_build(n, geo):
    # every angle's rows, stored or derived through a symmetry of the grid,
    # against the rows built directly for that angle
    spec = GridSpec(16.0, n, n)
    direct = _operator_rows(spec, geo)
    rng = np.random.default_rng(6)
    for _ in range(3):
        f = rng.normal(size=spec.shape)
        g = rng.normal(size=(geo.n_angles, geo.n_det))
        expected = direct @ f.ravel()
        got = forward_project(Image(spec, f), geo).values.ravel()
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        scale = geo.delta_angle * geo.delta_det / spec.h ** 2
        expected = scale * (direct.T @ g.ravel())
        got = back_project(Sinogram(geo, g), spec).values.ravel()
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("n_angles, stored", [(60, 16), (7, 4), (100, 26)])
def test_uniform_geometry_stores_one_angle_per_orbit(n_angles, stored):
    spec = GridSpec(16.0, 16, 16)
    geo = Geometry.uniform(n_angles, 24, EXTENT)
    assert _ray_operator(spec, geo).matrix.shape == (stored * 24, spec.nx * spec.ny)


def test_gate_geometry_keeps_the_plain_products():
    # random gate angles have no partners: every angle's rows are stored as
    # the direct build makes them, and the products are its plain ones
    spec = GridSpec(16.0, 64, 64)
    geo = Geometry(gate_angles(10, 10, seed=5)[2], 128, EXTENT)
    op = _ray_operator(spec, geo)
    direct = _operator_rows(spec, geo)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(op.matrix, name), getattr(direct, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    rng = np.random.default_rng(7)
    f = rng.normal(size=spec.shape)
    g = rng.normal(size=(10, 128))
    assert np.array_equal(forward_project(Image(spec, f), geo).values.ravel(),
                          direct @ f.ravel())
    scale = geo.delta_angle * geo.delta_det / spec.h ** 2
    assert np.array_equal(back_project(Sinogram(geo, g), spec).values.ravel(),
                          scale * (direct.T @ g.ravel()))


def test_adjoint_identity_gate_geometry():
    spec = GridSpec(16.0, 64, 64)
    geo = Geometry(gate_angles(10, 10, seed=3)[4], 128, EXTENT)
    rng = np.random.default_rng(5)
    f = Image(spec, rng.normal(size=spec.shape))
    g = Sinogram(geo, rng.normal(size=(10, 128)))
    tf = forward_project(f, geo)
    lhs = sino_inner(tf, g)
    rhs = image_l2_inner(f, back_project(g, spec))
    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(tf.values) * np.linalg.norm(g.values)


def test_backproject_zero():
    spec = GridSpec(16.0, 32, 32)
    geo = Geometry.uniform(8, 32, EXTENT)
    assert np.all(back_project(Sinogram.zeros(geo), spec).values == 0.0)


def test_single_ray_support_band():
    spec = GridSpec(16.0, 64, 64)
    geo = Geometry(np.array([0.0]), 64, EXTENT)
    sino = Sinogram.zeros(geo)
    k = 40
    sino.values[0, k] = 1.0
    img = back_project(sino, spec)
    offset = geo.det_offsets()[k]
    ys = spec.ys()
    hot = np.abs(img.values).sum(axis=0)
    assert np.abs(img.values[:, np.abs(ys - offset) > 2.0]).max() == 0.0
    assert hot[np.argmin(np.abs(ys - offset))] > 0.0


def test_linearity_of_projectors():
    spec = GridSpec(16.0, 32, 32)
    geo = Geometry.uniform(6, 48, EXTENT)
    rng = np.random.default_rng(2)
    f = Image(spec, rng.normal(size=spec.shape))
    g = Image(spec, rng.normal(size=spec.shape))
    combo = Image(spec, 2.0 * f.values - 3.0 * g.values)
    lhs = forward_project(combo, geo).values
    rhs = 2.0 * forward_project(f, geo).values - 3.0 * forward_project(g, geo).values
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_translated_disc_sinogram_shift():
    spec = GridSpec(16.0, 128, 128)
    d = np.array([2.0, -1.0])
    base = make_phantom(PhantomSpec("discs", discs=(Disc(0.0, 0.0, 6.0, 1.0),)), spec)
    moved = make_phantom(PhantomSpec("discs", discs=(Disc(d[0], d[1], 6.0, 1.0),)), spec)
    geo = Geometry.uniform(12, 256, EXTENT)
    s0 = forward_project(base, geo)
    s1 = forward_project(moved, geo)
    offsets = geo.det_offsets()
    for a, theta in enumerate(geo.angles):
        u = np.array([-math.sin(theta), math.cos(theta)])
        expected = float(d @ u)
        com0 = np.sum(offsets * s0.values[a]) / np.sum(s0.values[a])
        com1 = np.sum(offsets * s1.values[a]) / np.sum(s1.values[a])
        assert abs((com1 - com0) - expected) <= geo.delta_det


def test_fbp_disc_reconstruction():
    spec = GridSpec(16.0, 128, 128)
    disc = make_phantom(PhantomSpec("discs", discs=(Disc(0.0, 0.0, 8.0, 1.0),)), spec)
    geo = Geometry.uniform(180, 256, EXTENT)
    rec = fbp(forward_project(disc, geo), spec, cutoff=0.9)
    assert ssim(disc, rec) >= 0.85
    assert abs(rec.values[64, 64] - 1.0) <= 0.1


def test_fbp_zero_data():
    spec = GridSpec(16.0, 32, 32)
    geo = Geometry.uniform(16, 48, EXTENT)
    assert np.all(fbp(Sinogram.zeros(geo), spec).values == 0.0)


def test_fbp_limited_angles_degrades():
    spec = GridSpec(16.0, 128, 128)
    disc = make_phantom(PhantomSpec("discs", discs=(Disc(0.0, 0.0, 8.0, 1.0),)), spec)
    full = Geometry.uniform(180, 256, EXTENT)
    few = Geometry.uniform(10, 256, EXTENT)
    s_full = ssim(disc, fbp(forward_project(disc, full), spec, cutoff=0.9))
    s_few = ssim(disc, fbp(forward_project(disc, few), spec, cutoff=0.9))
    assert s_few < s_full


def test_fbp_single_angle_warns():
    spec = GridSpec(16.0, 32, 32)
    geo = Geometry(np.array([0.3]), 32, EXTENT)
    with pytest.warns(UserWarning):
        fbp(Sinogram.zeros(geo), spec)
