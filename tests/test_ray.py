import math
import warnings

import numpy as np
import pytest

from helpers import image_l2_inner, midpoint_ray_sums
from metamorph.experiments import concatenated_fbp, evolving_gated_case
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
    lumped_fbp,
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


def test_geometry_rejects_a_non_integer_bin_count():
    with pytest.raises(ValueError, match=r"detector bins must be an integer, got 10\.0"):
        Geometry(np.array([0.5]), 10.0, EXTENT)
    assert Geometry(np.array([0.5]), np.int64(10), EXTENT).n_det == 10


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
    # 2 representatives read through the identity, transpose and quarter-turn
    # columns; pi/4 is the transpose's fixed point
    (16, Geometry.uniform(4, 24, 16.0)),
], ids=["uniform30", "uniform60", "uniform7", "special_extent_L", "special_extent_diag",
        "repeated", "uniform4"])
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


@pytest.mark.parametrize("n_angles, stored", [(60, 16), (7, 4), (100, 26), (4, 2), (12, 4)])
def test_uniform_geometry_stores_one_angle_per_orbit(n_angles, stored):
    spec = GridSpec(16.0, 16, 16)
    geo = Geometry.uniform(n_angles, 24, EXTENT)
    assert _ray_operator(spec, geo).matrix.shape == (stored * 24, spec.nx * spec.ny)


def _assert_plain_products(spec, geo):
    # every angle's rows are stored as the direct build makes them, and the
    # products equal its plain ones bit for bit
    op = _ray_operator(spec, geo)
    direct = _operator_rows(spec, geo)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(op.matrix, name), getattr(direct, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    rng = np.random.default_rng(7)
    f = rng.normal(size=spec.shape)
    g = rng.normal(size=(geo.n_angles, geo.n_det))
    assert np.array_equal(forward_project(Image(spec, f), geo).values.ravel(),
                          direct @ f.ravel())
    scale = geo.delta_angle * geo.delta_det / spec.h ** 2
    assert np.array_equal(back_project(Sinogram(geo, g), spec).values.ravel(),
                          scale * (direct.T @ g.ravel()))


def test_gate_geometry_keeps_the_plain_products():
    # random gate angles have no partners
    _assert_plain_products(GridSpec(16.0, 64, 64),
                           Geometry(gate_angles(10, 10, seed=5)[2], 128, EXTENT))


def test_gate_with_one_partner_stores_every_angle():
    # one partner among 11 angles would leave 10 representatives read through
    # 2 symmetry columns: 20 row blocks computed to read 11
    angles = gate_angles(10, 10, seed=5)[2]
    geo = Geometry(np.sort(np.append(angles, np.pi - angles[0])), 128, EXTENT)
    spec = GridSpec(16.0, 64, 64)
    assert _ray_operator(spec, geo).matrix.shape == (11 * 128, spec.nx * spec.ny)
    _assert_plain_products(spec, geo)


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


def test_lumped_fbp_of_consecutive_gates_is_the_full_fbp():
    # the full geometry stores 16 of its 60 angles under 4 symmetries; 8 parts
    # store all 6 under the identity, the two around pi/4 and 3pi/4 store 4
    # under 2
    spec = GridSpec(16.0, 64, 64)
    disc = make_phantom(PhantomSpec("discs", discs=(Disc(3.0, -2.0, 6.0, 1.0),)), spec)
    full = forward_project(disc, Geometry.uniform(60, 128, EXTENT))
    gates = [Sinogram(Geometry(full.geometry.angles[i:i + 6], 128, EXTENT), full.values[i:i + 6])
             for i in range(0, 60, 6)]
    for gate in gates:
        _ray_operator(spec, gate.geometry)
    before = _build_operator.cache_info().misses
    lumped = lumped_fbp(gates, spec)
    assert _build_operator.cache_info().misses == before
    expected = fbp(full, spec).values
    assert np.abs(lumped.values - expected).max() <= 1e-12 * np.abs(expected).max()


def test_lumped_fbp_warns_once_below_two_angles_in_all():
    spec = GridSpec(16.0, 32, 32)
    singles = [Sinogram.zeros(Geometry(np.array([a]), 32, EXTENT))
               for a in np.linspace(0.0, np.pi, 10, endpoint=False)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lumped_fbp(singles, spec)
    with pytest.warns(UserWarning, match="fewer than 2 angles") as record:
        lumped_fbp(singles[:1], spec)
    assert len(record) == 1
    assert record[0].filename == __file__


@pytest.mark.parametrize("reconstruct",
                         [fbp, lambda sino, spec, cutoff: lumped_fbp([sino], spec, cutoff)],
                         ids=["fbp", "lumped_fbp"])
@pytest.mark.parametrize("cutoff", [0.0, 1.5, math.nan])
def test_fbp_rejects_a_cutoff_outside_0_1(reconstruct, cutoff):
    geo = Geometry.uniform(4, 32, EXTENT)
    with pytest.raises(ValueError, match=r"cutoff must be in \(0, 1\], got"):
        reconstruct(Sinogram.zeros(geo), GridSpec(16.0, 32, 32), cutoff)


def test_lumped_fbp_needs_a_sinogram():
    with pytest.raises(ValueError, match="at least one sinogram"):
        lumped_fbp([], GridSpec(16.0, 32, 32))


def _two_gate_disc_fbp(detectors):
    """lumped_fbp of a disc seen through the even and the odd angles of a
    uniform 60-angle set, each gate through its own (n_det, det_extent)."""
    spec = GridSpec(16.0, 64, 64)
    disc = make_phantom(PhantomSpec("discs", discs=(Disc(3.0, -2.0, 6.0, 1.0),)), spec)
    angles = np.linspace(0.0, np.pi, 60, endpoint=False)
    gates = [forward_project(disc, Geometry(angles[i::2], n_det, extent))
             for i, (n_det, extent) in enumerate(detectors)]
    return lumped_fbp(gates, spec).values


@pytest.mark.parametrize("other", [(128, 1.5 * EXTENT), (192, EXTENT)],
                         ids=["det_extent", "n_det"])
def test_lumped_fbp_reads_each_gates_own_detector(other):
    # applying the first gate's extent to every row is 0.37 away; unequal bin
    # counts cannot be stacked into one sinogram
    expected = _two_gate_disc_fbp([(128, EXTENT), (128, EXTENT)])
    lumped = _two_gate_disc_fbp([(128, EXTENT), other])
    assert np.linalg.norm(lumped - expected) <= 0.05 * np.linalg.norm(expected)


@pytest.mark.parametrize("nx", [64, 128])
def test_concatenated_fbp_builds_no_operator(nx):
    # projecting the gates built their operators; the lumped FBP reads them
    case = evolving_gated_case(nx=nx)
    before = _build_operator.cache_info().misses
    concatenated_fbp(case)
    assert _build_operator.cache_info().misses == before
