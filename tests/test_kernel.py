import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import vfield_l2_inner
from metamorph.grid import GridSpec
from metamorph.kernel import KernelSpec, _tap_matrix, kernel_apply


@pytest.fixture
def spec16():
    return GridSpec(16.0, 16, 16)


def test_kernelspec_validation():
    with pytest.raises(ValueError):
        KernelSpec(0.0)
    with pytest.raises(ValueError):
        KernelSpec(-1.0)


def components(rng, spec):
    return rng.normal(size=spec.shape), rng.normal(size=spec.shape)


def test_zero_field_maps_to_zero(spec16):
    sx, sy = kernel_apply(KernelSpec(2.0), spec16, np.zeros(spec16.shape), np.zeros(spec16.shape))
    assert np.all(sx == 0.0) and np.all(sy == 0.0)


@pytest.mark.parametrize("shapes", [((16, 8), (16, 16)), ((16, 16), (8, 16)), ((256,), (256,))])
def test_kernel_apply_rejects_wrong_shape_component(spec16, shapes):
    vx, vy = (np.zeros(shape) for shape in shapes)
    with pytest.raises(ValueError, match=r"^kernel_apply on the 16x16 grid needs components "
                                         r"of shape \(16, 16\), got "):
        kernel_apply(KernelSpec(2.0), spec16, vx, vy)


def test_impulse_response_against_double_loop(spec16):
    # independent oracle: literal double sum over source nodes
    k = KernelSpec(2.0)
    ux = np.zeros(spec16.shape)
    ux[8, 8] = 1.0
    sx, sy = kernel_apply(k, spec16, ux, np.zeros(spec16.shape))
    assert sx[8, 8] == pytest.approx(spec16.h ** 2)

    xs, ys = spec16.xs(), spec16.ys()
    hsq = spec16.h ** 2
    expected = np.zeros(spec16.shape)
    for i in range(16):
        for j in range(16):
            d2 = (xs[i] - xs[8]) ** 2 + (ys[j] - ys[8]) ** 2
            expected[i, j] = np.exp(-d2 / (2 * k.sigma ** 2)) * hsq
    assert np.allclose(sx, expected, rtol=0, atol=1e-14)
    assert np.all(sy == 0.0)


@settings(deadline=None, max_examples=20)
@given(alpha=st.floats(-3, 3), beta=st.floats(-3, 3), seed=st.integers(0, 500))
def test_linearity(alpha, beta, seed):
    spec = GridSpec(16.0, 16, 16)
    k = KernelSpec(2.0)
    rng = np.random.default_rng(seed)
    u = components(rng, spec)
    v = components(rng, spec)
    lhs = kernel_apply(k, spec, alpha * u[0] + beta * v[0], alpha * u[1] + beta * v[1])
    ku, kv = kernel_apply(k, spec, *u), kernel_apply(k, spec, *v)
    scale = max(np.abs(lhs[0]).max(), np.abs(lhs[1]).max(), 1.0)
    assert np.allclose(lhs[0], alpha * ku[0] + beta * kv[0], rtol=1e-12, atol=1e-12 * scale)
    assert np.allclose(lhs[1], alpha * ku[1] + beta * kv[1], rtol=1e-12, atol=1e-12 * scale)


def test_matches_numpy_fft_convolution():
    # independent oracle: zero-padded FFT convolution with the whole 2D
    # Gaussian over every node offset, cropped to the grid
    spec = GridSpec(16.0, 128, 128)
    rng = np.random.default_rng(7)
    u = components(rng, spec)
    radius = spec.nx - 1
    d = np.arange(-radius, radius + 1) * spec.h
    size = 128 + 2 * radius
    for sigma in (0.8, 2.0, 5.0):
        taps = np.exp(-(d * d) / (2.0 * sigma ** 2))
        kernel_ft = np.fft.rfft2(np.outer(taps, taps), s=(size, size))
        out = kernel_apply(KernelSpec(sigma), spec, *u)
        for got, field in zip(out, u):
            full = np.fft.irfft2(np.fft.rfft2(field, s=(size, size)) * kernel_ft, s=(size, size))
            expected = full[radius:radius + 128, radius:radius + 128] * spec.h ** 2
            assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("sigma", [0.3, 0.8, 2.0, 5.0, 10.0])
def test_tap_matrix_positive_semidefinite(n, sigma):
    # a Gaussian is a positive-definite kernel: only rounding may go below 0
    B = _tap_matrix(KernelSpec(sigma), GridSpec(16.0, n, n))
    eig = np.linalg.eigvalsh(B)
    assert eig[0] >= -n * np.finfo(np.float64).eps * eig[-1]


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("sigma", [0.3, 0.6, 0.8])
def test_tap_matrix_holds_no_subnormal(n, sigma):
    B = _tap_matrix(KernelSpec(sigma), GridSpec(16.0, n, n))
    assert not np.any((B != 0.0) & (np.abs(B) < np.finfo(np.float64).tiny))


@pytest.mark.parametrize("sigma", [1e-300, 1e300])
def test_tap_matrix_finite_at_extreme_sigma(sigma):
    B = _tap_matrix(KernelSpec(sigma), GridSpec(16.0, 16, 16))
    # sigma far below the spacing leaves the identity, far above it all ones
    assert np.array_equal(B, np.eye(16) if sigma < 1 else np.ones((16, 16)))


def test_operator_symmetric_positive(spec16):
    rng = np.random.default_rng(3)
    k = KernelSpec(2.0)
    for _ in range(5):
        u = components(rng, spec16)
        v = components(rng, spec16)
        ku, kv = kernel_apply(k, spec16, *u), kernel_apply(k, spec16, *v)
        h = spec16.h
        lhs = vfield_l2_inner(ku, v, h)
        rhs = vfield_l2_inner(u, kv, h)
        scale = (2 * np.pi * k.sigma ** 2 * vfield_l2_inner(u, u, h) ** 0.5
                 * vfield_l2_inner(v, v, h) ** 0.5)
        assert abs(lhs - rhs) <= 1e-8 * scale
        quad = vfield_l2_inner(ku, u, h)
        assert quad >= -1e-8 * 2 * np.pi * k.sigma ** 2 * vfield_l2_inner(u, u, h)


def test_translation_equivariance_interior():
    spec = GridSpec(16.0, 32, 32)
    k = KernelSpec(1.0)
    rng = np.random.default_rng(11)
    u = components(rng, spec)
    a, _ = kernel_apply(k, spec, np.roll(u[0], 1, axis=0), np.roll(u[1], 1, axis=0))
    b, _ = kernel_apply(k, spec, *u)
    m = 12  # margin where the zero padding weighs below exp(-11^2 / 2), plus the shift
    scale = np.abs(b).max()
    assert np.abs(a[m:-m, m:-m] - np.roll(b, 1, axis=0)[m:-m, m:-m]).max() <= 1e-8 * scale


def test_vfield_inner_trivials(spec16):
    zero = np.zeros(spec16.shape), np.zeros(spec16.shape)
    rng = np.random.default_rng(0)
    v = components(rng, spec16)
    assert vfield_l2_inner(zero, v, spec16.h) == 0.0
    assert vfield_l2_inner(v, v, spec16.h) > 0.0
    assert vfield_l2_inner(zero, zero, spec16.h) == 0.0


def test_vfield_inner_constant_closed_form():
    spec = GridSpec(16.0, 64, 64)
    u = np.ones(spec.shape), np.zeros(spec.shape)
    assert vfield_l2_inner(u, u, spec.h) == pytest.approx(1024.0)


def test_vfield_inner_shape_mismatch(spec16):
    other = GridSpec(16.0, 32, 32)
    with pytest.raises(ValueError):
        vfield_l2_inner((np.zeros(spec16.shape), np.zeros(spec16.shape)),
                        (np.zeros(other.shape), np.zeros(other.shape)), spec16.h)
