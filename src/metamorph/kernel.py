"""Gaussian reproducing-kernel smoothing of vector fields.

The smoothing realises the change of metric that turns plain L2 gradients of
the data term into descent directions for the velocity: each component is
convolved with exp(-|x-y|^2 / (2 sigma^2)) and weighted by the pixel area.
The kernel is truncated at a few sigma and applied as two 1D convolutions,
one per axis, with zero padding outside the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import convolve1d

from .grid import GridSpec, VectorImage


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel width sigma (length units) and truncation in sigmas."""

    sigma: float
    truncation_radius: float = 4.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"kernel sigma must be positive, got {self.sigma}")
        if self.truncation_radius < 3:
            raise ValueError(f"truncation_radius must be >= 3, got {self.truncation_radius}")


def kernel_taps_1d(k: KernelSpec, spec: GridSpec) -> np.ndarray:
    """1D Gaussian taps exp(-d^2 / (2 sigma^2)) at grid-spacing offsets."""
    radius = int(math.ceil(k.truncation_radius * k.sigma / spec.h))
    d = np.arange(-radius, radius + 1) * spec.h
    return np.exp(-(d * d) / (2.0 * k.sigma ** 2))


def _smooth(values: np.ndarray, taps: np.ndarray) -> np.ndarray:
    out = convolve1d(values, taps, axis=0, mode="constant", cval=0.0)
    return convolve1d(out, taps, axis=1, mode="constant", cval=0.0)


def kernel_apply(v: VectorImage, k: KernelSpec) -> VectorImage:
    """Apply the kernel: (K * v)(y) = sum_x K(x, y) v(x) h^2, componentwise."""
    spec = v.spec
    taps = kernel_taps_1d(k, spec)
    hsq = spec.h ** 2
    return VectorImage(spec, _smooth(v.vx, taps) * hsq, _smooth(v.vy, taps) * hsq)


def vfield_l2_inner(u: VectorImage, v: VectorImage) -> float:
    """Grid L2 inner product of vector fields, sum(u . v) h^2."""
    if u.spec != v.spec:
        raise ValueError("vector fields must share one grid")
    return float(np.sum(u.vx * v.vx) + np.sum(u.vy * v.vy)) * u.spec.h ** 2


def vfield_l2_norm_sq(u: VectorImage) -> float:
    return vfield_l2_inner(u, u)
