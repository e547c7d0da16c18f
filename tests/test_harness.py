import math
import re

import numpy as np
import pytest
from helpers import full_grid_rasterise, strided_window_mean
from hypothesis import given, settings
from hypothesis import strategies as st

from metamorph.grid import GridSpec, Image
from metamorph.harness import (
    Disc,
    Ellipse,
    PhantomSpec,
    Triangle,
    add_noise,
    make_phantom,
    _frame_at,
    _window_mean,
    psnr,
    ssim,
)
from metamorph.ray import Geometry, Sinogram, forward_project

SPEC = GridSpec(16.0, 64, 64)


def test_disc_mass_matches_area():
    r, intensity = 6.0, 0.8
    img = make_phantom(PhantomSpec("discs", discs=(Disc(1.0, -2.0, r, intensity),)), SPEC)
    mass = img.values.sum() * SPEC.h ** 2
    assert mass == pytest.approx(math.pi * r * r * intensity, rel=0.01)


def test_empty_spec_zero_image():
    img = make_phantom(PhantomSpec("discs"), SPEC)
    assert np.all(img.values == 0.0)


def test_background_added():
    img = make_phantom(PhantomSpec("discs", background=0.2), SPEC)
    assert np.allclose(img.values, 0.2)


def test_triangle_and_ellipse_rasterise():
    img = make_phantom(PhantomSpec(
        "triangle_pair",
        triangles=(Triangle(((-8, -8), (8, -8), (0, 6)), 1.0),),
        ellipses=(Ellipse(0.0, 8.0, 4.0, 2.0, 30.0, 0.5),),
    ), SPEC)
    assert img.values.max() > 0.9
    assert img.values.min() == 0.0


def test_shape_outside_domain_rejected():
    with pytest.raises(ValueError):
        make_phantom(PhantomSpec("discs", discs=(Disc(12.0, 0.0, 6.0, 1.0),)), SPEC)
    with pytest.raises(ValueError):
        make_phantom(PhantomSpec("shepp_like", ellipses=(Ellipse(0, 15, 4, 4),)), SPEC)
    with pytest.raises(ValueError):
        make_phantom(PhantomSpec(
            "triangle_pair", triangles=(Triangle(((0, 0), (20, 0), (0, 5)), 1.0),)), SPEC)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        PhantomSpec("blob")


@pytest.mark.parametrize("field, kw", [
    ("background", dict(background=math.inf)),
    ("drift", dict(drift=(math.nan, 0.0))),
    ("growth", dict(growth=-math.inf)),
    ("appear_time", dict(appear_time=math.nan)),
    ("appear_ramp", dict(appear_ramp=math.nan)),
    ("times", dict(times=(0.0, math.nan, 1.0))),
    ("discs[1]", dict(discs=(Disc(0, 0, 3.0), Disc(0, 0, math.nan)))),
    ("discs[0]", dict(discs=(Disc(0, math.inf, 3.0),))),
    ("triangles[0]", dict(triangles=(Triangle(((0, 0), (4, math.nan), (0, 4))),))),
    ("ellipses[0]", dict(ellipses=(Ellipse(0, 0, 4, 2, math.nan),))),
    ("appear", dict(appear=Disc(4, 4, 2.0, math.nan))),
    ("discs[0] needs r > 0", dict(discs=(Disc(0, 0, -3.0),))),
    ("appear needs r > 0", dict(appear=Disc(4, 4, 0.0))),
    ("ellipses[0] needs a > 0", dict(ellipses=(Ellipse(0, 0, 0.0, 2),))),
    ("ellipses[0] needs b > 0", dict(ellipses=(Ellipse(0, 0, 4, -2),))),
])
def test_non_finite_or_non_positive_phantom_parameter_rejected(field, kw):
    with pytest.raises(ValueError, match=re.escape(field)):
        PhantomSpec("evolving_sequence", **kw)


@pytest.mark.parametrize("drift", [(4.0,), (1.0, 2.0, 3.0), ()])
def test_drift_without_two_entries_rejected(drift):
    # it used to construct, and make_phantom then failed with an IndexError
    with pytest.raises(ValueError, match=r"^drift needs 2 values \(dx, dy\)"):
        PhantomSpec("evolving_sequence", discs=(Disc(0, 0, 3),), drift=drift)


@pytest.mark.parametrize("kind", ["discs", "triangle_pair", "shepp_like"])
@pytest.mark.parametrize("field, value", [
    ("times", (0.0, 1.0)),
    ("drift", (5.0, 0.0)),
    ("growth", 0.5),
    ("appear", Disc(3, 3, 2.0)),
    ("appear_time", 0.25),
    ("appear_ramp", 0.5),
])
def test_motion_on_a_static_phantom_rejected(kind, field, value):
    # it used to rasterise one unmoved image
    with pytest.raises(ValueError, match=rf"^{field}: kind '{kind}' is static"):
        PhantomSpec(kind, discs=(Disc(0, 0, 3),), **{field: value})


def test_static_phantom_takes_motion_fields_at_their_defaults():
    spec = PhantomSpec("discs", discs=(Disc(0, 0, 3),), times=(), drift=[0, 0], growth=0.0,
                       appear=None, appear_time=0.5, appear_ramp=0.2)
    plain = PhantomSpec("discs", discs=(Disc(0, 0, 3),))
    assert np.array_equal(make_phantom(spec, SPEC).values, make_phantom(plain, SPEC).values)


@pytest.mark.parametrize("times, growth, when", [
    ((0.0, 0.5, 1.0), -2.0, "t = 0.5"),  # the disc vanishes there
    ((0.0, 0.25), -4.0, "t = 0.25"),
    ((), -1.0, "t = 1.0"),  # no times: frames at 0 and 1
    ((0.0, 1.0), -1.5, "t = 1.0"),  # a negative scale would draw radius |r| / 2
])
def test_growth_shrinking_a_shape_to_nothing_rejected(times, growth, when):
    with pytest.raises(ValueError, match=rf"^growth .*{re.escape(when)}.*got {growth}$"):
        PhantomSpec("evolving_sequence", discs=(Disc(0, 0, 3),), growth=growth, times=times)


def test_growth_positive_on_every_frame_accepted():
    spec = PhantomSpec("evolving_sequence", discs=(Disc(0, 0, 3),), growth=-1.5,
                       times=(0.0, 0.5))
    masses = [f.values.sum() * SPEC.h ** 2 for f in make_phantom(spec, SPEC)]
    assert masses[1] == pytest.approx(math.pi * 0.75 ** 2, rel=0.05)


@pytest.mark.parametrize("kw, when", [
    (dict(drift=(10.0, 0.0), times=(0.0, 1.0)), "t = 1.0"),  # drifts off the right edge
    (dict(drift=(0.0, -16.0), times=(0.0, 0.5, 1.0)), "t = 1.0"),
    (dict(growth=3.0, times=(0.0, 0.5, 1.0)), "t = 0.5"),  # grows past the edge
    (dict(drift=(10.0, 0.0)), "t = 1.0"),  # no times: frames at 0 and 1
])
def test_later_frame_leaving_the_domain_rejected(kw, when):
    spec = PhantomSpec("evolving_sequence", discs=(Disc(10.0, 0.0, 3.0),), **kw)
    with pytest.raises(ValueError, match=rf"leaves the domain at {re.escape(when)}$"):
        make_phantom(spec, SPEC)


def test_appearing_disc_outside_rejected_before_it_fades_in():
    spec = PhantomSpec("evolving_sequence", appear=Disc(15.0, 0.0, 2.0), appear_time=2.0)
    with pytest.raises(ValueError, match="leaves the domain"):
        make_phantom(spec, SPEC)


def test_evolving_zero_deformation_constant():
    spec = PhantomSpec("evolving_sequence", discs=(Disc(0, 0, 4.0, 1.0),),
                       times=(0.0, 0.5, 1.0))
    frames = make_phantom(spec, SPEC)
    assert len(frames) == 3
    for f in frames[1:]:
        assert np.array_equal(f.values, frames[0].values)


def test_evolving_drift_and_appearance():
    spec = PhantomSpec("evolving_sequence", discs=(Disc(-3, -2, 3.0, 1.0),),
                       drift=(5.0, 3.0), appear=Disc(5, 5, 2.0, 1.0),
                       appear_time=0.5, appear_ramp=0.2,
                       times=(0.0, 0.4, 1.0))
    frames = make_phantom(spec, SPEC)
    # disc moved: centre of mass shifts by the drift
    def com(img):
        total = img.values.sum()
        return (np.sum(SPEC.xs()[:, None] * img.values) / total,
                np.sum(SPEC.ys()[None, :] * img.values) / total)
    x0, y0 = com(frames[0])
    # frame at t=0.4: no appearance yet, pure drift
    x1, y1 = com(frames[1])
    assert x1 - x0 == pytest.approx(2.0, abs=0.1)
    assert y1 - y0 == pytest.approx(1.2, abs=0.1)
    # appearing disc present at t=1
    assert frames[2].values[np.argmin(np.abs(SPEC.xs() - 5)), np.argmin(np.abs(SPEC.ys() - 5))] > 0.9
    assert frames[1].values[np.argmin(np.abs(SPEC.xs() - 5)), np.argmin(np.abs(SPEC.ys() - 5))] == 0.0


def test_evolving_triangle_drifts():
    spec = PhantomSpec("evolving_sequence", triangles=(Triangle(((-4, -4), (4, -4), (0, 4))),),
                       drift=(5.0, 0.0), times=(0.0, 1.0))
    frames = make_phantom(spec, SPEC)
    assert not np.array_equal(frames[0].values, frames[1].values)
    centroids = [np.array([np.sum(SPEC.xs()[:, None] * f.values),
                           np.sum(SPEC.ys()[None, :] * f.values)]) / f.values.sum()
                 for f in frames]
    assert np.abs(centroids[1] - centroids[0] - (5.0, 0.0)).max() <= SPEC.h


def test_evolving_triangle_leaving_the_domain_rejected():
    spec = PhantomSpec("evolving_sequence", triangles=(Triangle(((-4, -4), (4, -4), (0, 4))),),
                       growth=1.0, times=(0.0, 0.5, 1.0))
    with pytest.raises(ValueError, match=r"^triangle vertex .* leaves the domain at t = 1.0$"):
        make_phantom(spec, GridSpec(7.0, 64, 64))


RASTER_SPEC = GridSpec(8.0, 16, 16)
L_RASTER = RASTER_SPEC.half_width
intensities = st.floats(-2.0, 2.0)


@st.composite
def discs(draw, room=L_RASTER):
    """A disc inside [-room, room]^2; a centre factor of +-1 puts it against an edge."""
    r = draw(st.floats(0.05, room / 2))
    cx, cy = (draw(st.floats(-1.0, 1.0)) * (room - r) for _ in range(2))
    return Disc(cx, cy, r, draw(intensities))


@st.composite
def ellipses(draw, room=L_RASTER):
    a, b = draw(st.floats(0.05, room / 2)), draw(st.floats(0.05, room / 2))
    cx, cy = (draw(st.floats(-1.0, 1.0)) * (room - max(a, b)) for _ in range(2))
    return Ellipse(cx, cy, a, b, draw(st.floats(0.0, 360.0)), draw(intensities))


@st.composite
def triangles(draw, room=L_RASTER):
    coord = st.floats(-room, room)
    verts = tuple((draw(coord), draw(coord)) for _ in range(3))
    return Triangle(verts, draw(intensities))


@settings(deadline=None, max_examples=60)
@given(st.lists(discs(), max_size=3), st.lists(triangles(), max_size=3),
       st.lists(ellipses(), max_size=3), st.floats(-1.0, 1.0))
def test_box_rasteriser_matches_the_full_grid(ds, ts, es, background):
    spec = PhantomSpec("discs", background, tuple(ds), tuple(ts), tuple(es))
    expected = full_grid_rasterise(RASTER_SPEC, background, spec.discs, spec.triangles,
                                   spec.ellipses)
    assert np.array_equal(make_phantom(spec, RASTER_SPEC).values, expected.values)


@settings(deadline=None, max_examples=30)
@given(st.lists(discs(L_RASTER / 4), max_size=2), st.lists(triangles(L_RASTER / 4), max_size=2),
       st.lists(ellipses(L_RASTER / 4), max_size=2), st.floats(-1.0, 1.0),
       st.tuples(st.floats(-L_RASTER / 4, L_RASTER / 4), st.floats(-L_RASTER / 4, L_RASTER / 4)),
       st.floats(-0.5, 0.5), st.none() | discs())
def test_box_rasteriser_matches_the_full_grid_on_evolving_frames(ds, ts, es, background, drift,
                                                                 growth, appear):
    # shapes within L/4 of the centre, moved by at most L/4 and scaled by at most 1.5,
    # stay inside on every frame
    spec = PhantomSpec("evolving_sequence", background, tuple(ds), tuple(ts), tuple(es),
                       times=(0.0, 0.3, 0.7, 1.0), drift=drift, growth=growth, appear=appear)
    frames = make_phantom(spec, RASTER_SPEC)
    for t, frame in zip(spec.times, frames):
        expected = full_grid_rasterise(RASTER_SPEC, background, *_frame_at(spec, t))
        assert np.array_equal(frame.values, expected.values)


def noisy_sinogram():
    img = make_phantom(PhantomSpec("discs", discs=(Disc(0, 0, 6.0, 1.0),)), SPEC)
    geo = Geometry.uniform(20, 64, 16.0 * math.sqrt(2))
    return forward_project(img, geo)


def test_add_noise_hits_target_psnr():
    sino = noisy_sinogram()
    for target in (15.6, 10.6, 25.0):
        noisy = add_noise(sino, target, seed=4)
        assert psnr(sino, noisy) == pytest.approx(target, abs=0.05)


def test_add_noise_infinite_target_is_identity():
    sino = noisy_sinogram()
    out = add_noise(sino, math.inf, seed=0)
    assert np.array_equal(out.values, sino.values)


@pytest.mark.parametrize("target", [math.nan, -math.inf])
def test_add_noise_rejects_nan_and_minus_inf(target):
    with pytest.raises(ValueError, match=rf"PSNR target must be a number or \+inf, got {target}"):
        add_noise(noisy_sinogram(), target, seed=0)


def test_add_noise_seeded_reproducible():
    sino = noisy_sinogram()
    a = add_noise(sino, 15.0, seed=42)
    b = add_noise(sino, 15.0, seed=42)
    c = add_noise(sino, 15.0, seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_add_noise_constant_rejected():
    geo = Geometry.uniform(4, 16, 10.0)
    with pytest.raises(ValueError):
        add_noise(Sinogram(geo, np.full((4, 16), 3.0)), 20.0, seed=0)


def test_psnr_identical_is_infinite():
    img = make_phantom(PhantomSpec("discs", discs=(Disc(0, 0, 5.0, 1.0),)), SPEC)
    assert psnr(img, img) == math.inf


def test_psnr_equal_energy_zero_db():
    ref = np.array([[0.0, 2.0], [0.0, 2.0]])
    test = ref + np.array([[1.0, -1.0], [1.0, -1.0]])
    assert psnr(ref, test) == pytest.approx(0.0, abs=1e-12)


def test_psnr_ratio_100_is_20db():
    ref = np.array([[0.0, 2.0], [0.0, 2.0]])
    e = 0.1 * np.array([[1.0, -1.0], [1.0, -1.0]])
    assert psnr(ref, ref + e) == pytest.approx(20.0, abs=1e-12)


def test_psnr_constant_reference_rejected():
    with pytest.raises(ValueError):
        psnr(np.ones((4, 4)), np.zeros((4, 4)))


def test_ssim_self_is_one():
    rng = np.random.default_rng(0)
    img = Image(SPEC, rng.normal(size=SPEC.shape))
    assert ssim(img, img) == pytest.approx(1.0)


def test_ssim_inversion_below_one():
    rng = np.random.default_rng(1)
    a = Image(SPEC, rng.normal(size=SPEC.shape))
    b = Image(SPEC, -a.values + 3.0)
    assert ssim(a, b) < 1.0


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_window_mean_equals_strided_mean_bitwise(data):
    nx = data.draw(st.integers(8, 68), label="nx")
    ny = data.draw(st.sampled_from([8, nx, data.draw(st.integers(8, 68), label="ny")]))
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    x = np.random.default_rng(seed).normal(size=(nx, ny))
    got = _window_mean(x)
    want = strided_window_mean(x, 8)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape, w", [((8, 8), 8), ((9, 9), 8), ((20, 8), 8),
                                      ((8, 20), 8), ((128, 128), 8)])
def test_window_mean_edge_shapes_bitwise(shape, w):
    # one window, two windows each way, one window wide or tall, and the
    # benchmark's 128^2 images
    x = np.random.default_rng(shape[0] + shape[1]).normal(size=shape)
    assert _window_mean(x).tobytes() == strided_window_mean(x, w).tobytes()


def test_ssim_checkerboard_against_direct_definition():
    n = 32
    grid = GridSpec(16.0, n, n)
    a = Image(grid, np.indices((n, n)).sum(axis=0) % 2 * 1.0)
    b = Image(grid, np.roll(a.values, 1, axis=0))
    got = ssim(a, b)

    # independent oracle: direct nested-loop window statistics
    w = 8
    r = a.values.max() - a.values.min()
    c1, c2 = (0.01 * r) ** 2, (0.03 * r) ** 2
    vals = []
    for i in range(n - w + 1):
        for j in range(n - w + 1):
            wa = a.values[i:i + w, j:j + w]
            wb = b.values[i:i + w, j:j + w]
            mua, mub = wa.mean(), wb.mean()
            va, vb = wa.var(), wb.var()
            cov = ((wa - mua) * (wb - mub)).mean()
            vals.append(((2 * mua * mub + c1) * (2 * cov + c2))
                        / ((mua ** 2 + mub ** 2 + c1) * (va + vb + c2)))
    assert got == pytest.approx(float(np.mean(vals)), abs=1e-8)


def test_ssim_symmetric_with_fixed_range():
    rng = np.random.default_rng(2)
    a = Image(SPEC, rng.normal(size=SPEC.shape))
    b = Image(SPEC, rng.normal(size=SPEC.shape))
    assert ssim(a, b, dynamic_range=4.0) == pytest.approx(
        ssim(b, a, dynamic_range=4.0), abs=1e-12)


def test_ssim_shape_mismatch():
    with pytest.raises(ValueError):
        ssim(np.zeros((16, 16)), np.zeros((16, 8)))


@pytest.mark.parametrize("dynamic_range", [0.0, -1.0, math.nan, math.inf])
def test_ssim_rejects_a_dynamic_range_that_is_not_finite_and_positive(dynamic_range):
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(16, 16)), rng.normal(size=(16, 16))
    with pytest.raises(ValueError, match=re.escape(f"got {dynamic_range!r}")):
        ssim(a, b, dynamic_range=dynamic_range)


@pytest.mark.parametrize("score", [ssim, psnr])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position, name", [(0, "reference"), (1, "test")])
def test_scores_reject_a_non_finite_entry_by_argument(score, bad, position, name):
    rng = np.random.default_rng(4)
    arrays = [rng.normal(size=(16, 16)), rng.normal(size=(16, 16))]
    arrays[position][5, 7] = bad
    with pytest.raises(ValueError, match=f"^{name} holds non-finite values"):
        score(*arrays)
