import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import image_l2_inner, masked_sample_values, vector_from_function
from metamorph.grid import (
    GridSpec,
    Image,
    _central_difference,
    bilinear_stencil,
    gradient_central,
    sample_values_xy,
)


@pytest.fixture
def spec():
    return GridSpec(16.0, 32, 32)


def test_gridspec_geometry(spec):
    assert spec.h == 1.0
    xs = spec.xs()
    assert xs[0] == -15.5 and xs[-1] == 15.5
    assert np.allclose(np.diff(xs), spec.h)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(-1.0, 32, 32)
    with pytest.raises(ValueError):
        GridSpec(16.0, 1, 1)
    with pytest.raises(ValueError):
        GridSpec(16.0, 32, 64)


def test_gridspec_rejects_non_integer_sizes():
    # a float size would construct and then fail in numpy's array allocation
    with pytest.raises(ValueError, match=r"nx=16\.0, ny=16\.0"):
        GridSpec(16.0, 16.0, 16.0)
    with pytest.raises(ValueError, match=r"ny=32\.0"):
        GridSpec(16.0, 32, 32.0)
    assert GridSpec(16.0, np.int64(32), np.int64(32)).shape == (32, 32)


def test_sample_constant_everywhere(spec):
    img = Image.full(spec, 3.7)
    px, py = np.array([0.0, 5.3, -12.7]), np.array([0.0, -2.1, 9.9])
    assert np.allclose(sample_values_xy(img.values, spec, px, py), 3.7)


def test_sample_at_nodes_exact(spec):
    rng = np.random.default_rng(0)
    img = Image(spec, rng.normal(size=spec.shape))
    px, py = np.meshgrid(spec.xs(), spec.ys(), indexing="ij")
    out = sample_values_xy(img.values, spec, px, py)
    assert np.array_equal(out, img.values)


def test_sample_cell_center_is_corner_mean():
    spec = GridSpec(16.0, 32, 32)
    img = Image.from_function(spec, lambda x, y: x)
    xs, ys = spec.xs(), spec.ys()
    i, j = 10, 14
    cx, cy = np.array([(xs[i] + xs[i + 1]) / 2]), np.array([(ys[j] + ys[j + 1]) / 2])
    expected = (img.values[i, j] + img.values[i + 1, j]
                + img.values[i, j + 1] + img.values[i + 1, j + 1]) / 4
    assert sample_values_xy(img.values, spec, cx, cy)[0] == pytest.approx(expected, abs=1e-13)


def test_sample_outside_domain_zero(spec):
    img = Image.full(spec, 5.0)
    px, py = np.array([16.5, 0.0, 100.0]), np.array([0.0, -16.5, 100.0])
    assert np.all(sample_values_xy(img.values, spec, px, py) == 0.0)


@settings(deadline=None, max_examples=25)
@given(alpha=st.floats(-5, 5), beta=st.floats(-5, 5), seed=st.integers(0, 1000))
def test_sample_linear_in_image(alpha, beta, seed):
    spec = GridSpec(8.0, 16, 16)
    rng = np.random.default_rng(seed)
    f = Image(spec, rng.normal(size=spec.shape))
    g = Image(spec, rng.normal(size=spec.shape))
    px, py = rng.uniform(-8, 8, size=(2, 20))
    combo = alpha * f.values + beta * g.values
    lhs = sample_values_xy(combo, spec, px, py)
    rhs = (alpha * sample_values_xy(f.values, spec, px, py)
           + beta * sample_values_xy(g.values, spec, px, py))
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def query_points(spec, rng, n=64):
    """Coordinates drawn from every region the sampler treats apart: anywhere
    in [-1.06 L, 1.06 L], node coordinates, exactly +-L, the last
    half-pixel before either edge, and just or far outside the domain."""
    L = spec.half_width
    xs = spec.xs()
    edge = xs[-1]
    parts = [
        rng.uniform(-1.06 * L, 1.06 * L, n),
        rng.choice(xs, n),
        rng.choice([-L, L], n),
        rng.uniform(edge, L, n) * rng.choice([-1.0, 1.0], n),
        rng.choice([np.nextafter(L, np.inf), 1.5 * L, 40.0 * L], n) * rng.choice([-1.0, 1.0], n),
    ]
    coords = np.concatenate(parts)
    return rng.permutation(coords), rng.permutation(coords)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(deadline=None, max_examples=40)
@given(n=st.sampled_from([2, 3, 16, 64, 128]), half_width=st.sampled_from([1.0, 7.3, 16.0]),
       seed=st.integers(0, 10_000))
def test_samplers_match_reference_bitwise(n, half_width, seed):
    # both sides add the same nonzero products in the same order, with zero
    # terms between them; random values keep every sum nonzero, since the
    # sign of a zero sum could differ
    spec = GridSpec(half_width, n, n)
    rng = np.random.default_rng(seed)
    px, py = query_points(spec, rng)
    values = rng.normal(size=spec.shape)
    assert np.array_equal(bits(sample_values_xy(values, spec, px, py)),
                          bits(masked_sample_values(values, spec, px, py)))


def test_one_stencil_serves_several_arrays():
    spec = GridSpec(16.0, 64, 64)
    rng = np.random.default_rng(5)
    px, py = query_points(spec, rng)
    a, b = rng.normal(size=spec.shape), rng.normal(size=spec.shape)
    stencil = bilinear_stencil(spec, px, py)
    assert np.array_equal(bits(stencil.apply(a)), bits(sample_values_xy(a, spec, px, py)))
    assert np.array_equal(bits(stencil.apply(b)), bits(sample_values_xy(b, spec, px, py)))


def test_sample_vec_trivials(spec):
    stencil = bilinear_stencil(spec, np.array([1.0, -3.0]), np.array([2.0, 4.0]))
    zx, zy = np.zeros(spec.shape), np.zeros(spec.shape)
    assert np.all(stencil.apply(zx) == 0.0) and np.all(stencil.apply(zy) == 0.0)
    cx, cy = np.full(spec.shape, 2.0), np.full(spec.shape, -1.5)
    assert np.allclose(stencil.apply(cx), 2.0)
    assert np.allclose(stencil.apply(cy), -1.5)


def test_sample_vec_cell_center_average(spec):
    vx, vy = vector_from_function(spec, lambda x, y: (y, -x))
    xs, ys = spec.xs(), spec.ys()
    i, j = 7, 21
    stencil = bilinear_stencil(spec, np.array([(xs[i] + xs[i + 1]) / 2]),
                               np.array([(ys[j] + ys[j + 1]) / 2]))
    out = [stencil.apply(vx)[0], stencil.apply(vy)[0]]
    corners = [(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)]
    expected = [np.mean([vx[c] for c in corners]), np.mean([vy[c] for c in corners])]
    assert np.allclose(out, expected, atol=1e-13)


def test_gradient_constant_zero(spec):
    gx, gy = gradient_central(Image.full(spec, 4.2).values, spec.h)
    assert np.all(gx == 0.0) and np.all(gy == 0.0)


def test_gradient_linear_exact(spec):
    gx, gy = gradient_central(Image.from_function(spec, lambda x, y: 3 * x).values, spec.h)
    assert np.allclose(gx, 3.0, atol=1e-12)
    assert np.allclose(gy, 0.0, atol=1e-12)


def test_gradient_quadratic_analytic():
    spec = GridSpec(16.0, 64, 64)
    gx, _ = gradient_central(Image.from_function(spec, lambda x, y: x * x).values, spec.h)
    expected = 2 * spec.xs()[:, None] * np.ones(spec.shape)
    err = np.abs(gx[1:-1, :] - expected[1:-1, :]).max()
    assert err <= 1e-10  # central differences are exact on quadratics


@pytest.mark.parametrize("n", [2, 3, 64, 128])
def test_gradient_and_divergence_equal_np_gradient_bit_for_bit(n):
    spec = GridSpec(16.0, n, n)
    rng = np.random.default_rng(n)
    f, w = rng.normal(size=spec.shape), rng.normal(size=spec.shape)
    gx, gy = gradient_central(f, spec.h)
    assert np.array_equal(gx, np.gradient(f, spec.h, axis=0, edge_order=1))
    assert np.array_equal(gy, np.gradient(f, spec.h, axis=1, edge_order=1))
    # the divergence of (f, w), as flow.jacobian_chain_to_index takes it
    d = _central_difference(f, spec.h, 0) + _central_difference(w, spec.h, 1)
    assert np.array_equal(d, np.gradient(f, spec.h, axis=0, edge_order=1)
                          + np.gradient(w, spec.h, axis=1, edge_order=1))


def test_image_l2_inner(spec):
    a = Image.full(spec, 1.0)
    assert image_l2_inner(a, a) == pytest.approx(4 * spec.half_width ** 2)
