"""Regular pixel grids on the square domain [-L, L]^2.

Images are scalar fields sampled at pixel centres, vector fields carry one
array per component.  Everything downstream (flows, ray transform, gradients)
builds on the bilinear sampling and the central-difference operators defined
here.  Fields are treated as zero outside the domain.

This is the one bilinear interpolant; ray.py builds its matrix from
bilinear_stencil too.  A Stencil, built once from a grid and a point set,
holds each point's four corner indices and weights; applying it to a nodal
array reads the corners from a copy with a one-pixel zero border, so
off-grid corners need no masks or clips, and points outside the domain sit
on the border's corner, so they read exactly zero.  Flows build one
stencil per point set and apply it to every array sampled there (both
velocity components, or a velocity and an intensity control);
sample_values_xy is one build and one apply.  Stencil.transpose scatters
values at the points back onto the grid, the exact transpose of apply.
sample_points_xy uses the same stencil on queries clamped onto the node hull.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Square pixel grid covering [-half_width, half_width]^2.

    Node (i, j) sits at the pixel centre (-L + (i+1/2)h, -L + (j+1/2)h) with
    spacing h = 2L/nx.  Pixels must be square, so nx == ny.
    """

    half_width: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be finite and positive, got {self.half_width}")
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid needs at least 2x2 pixels, got {self.nx}x{self.ny}")
        if self.nx != self.ny:
            raise ValueError(f"square pixels require nx == ny, got {self.nx}x{self.ny}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.nx

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def xs(self) -> np.ndarray:
        return -self.half_width + (np.arange(self.nx) + 0.5) * self.h

    def ys(self) -> np.ndarray:
        return -self.half_width + (np.arange(self.ny) + 0.5) * self.h

    def identity_points(self) -> np.ndarray:
        """Node coordinates as an (nx, ny, 2) point array."""
        pts = np.empty((self.nx, self.ny, 2))
        pts[:, :, 0] = self.xs()[:, None]
        pts[:, :, 1] = self.ys()[None, :]
        return pts


@dataclass
class Image:
    """Scalar field on a grid; values[i, j] is the sample at node (x_i, y_j)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.spec.shape:
            raise ValueError(
                f"image shape {self.values.shape} does not match grid {self.spec.shape}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("image values must be finite")

    @classmethod
    def zeros(cls, spec: GridSpec) -> "Image":
        return cls(spec, np.zeros(spec.shape))

    @classmethod
    def full(cls, spec: GridSpec, value: float) -> "Image":
        return cls(spec, np.full(spec.shape, float(value)))

    @classmethod
    def from_function(cls, spec: GridSpec, fn) -> "Image":
        xx, yy = np.meshgrid(spec.xs(), spec.ys(), indexing="ij")
        return cls(spec, np.asarray(fn(xx, yy), dtype=np.float64))

    def copy(self) -> "Image":
        return Image(self.spec, self.values.copy())


@dataclass
class VectorImage:
    """2-vector field on a grid, stored as separate x/y component arrays."""

    spec: GridSpec
    vx: np.ndarray
    vy: np.ndarray

    def __post_init__(self):
        self.vx = np.asarray(self.vx, dtype=np.float64)
        self.vy = np.asarray(self.vy, dtype=np.float64)
        if self.vx.shape != self.spec.shape or self.vy.shape != self.spec.shape:
            raise ValueError("vector field components must match the grid shape")
        if not (np.isfinite(self.vx).all() and np.isfinite(self.vy).all()):
            raise ValueError("vector field components must be finite")

    @classmethod
    def zeros(cls, spec: GridSpec) -> "VectorImage":
        return cls(spec, np.zeros(spec.shape), np.zeros(spec.shape))

    @classmethod
    def from_function(cls, spec: GridSpec, fn) -> "VectorImage":
        xx, yy = np.meshgrid(spec.xs(), spec.ys(), indexing="ij")
        vx, vy = fn(xx, yy)
        return cls(spec, np.broadcast_to(vx, spec.shape).copy(),
                   np.broadcast_to(vy, spec.shape).copy())

    def copy(self) -> "VectorImage":
        return VectorImage(self.spec, self.vx.copy(), self.vy.copy())


@dataclass(frozen=True, eq=False)
class Stencil:
    """Bilinear weights of one point set on one grid.

    index[c] and weights[c] address corner c = (0, 0), (1, 0), (0, 1), (1, 1)
    of each point's cell in the nodal array padded with a one-pixel zero
    border, so corners off the grid read zero and need no mask or clip.
    One stencil serves every array sampled at the same points.
    """

    spec: GridSpec
    index: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    weights: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Sample one nodal value array at the stencil's points."""
        nx, ny = self.spec.shape
        padded = np.zeros((nx + 2, ny + 2))
        padded[1:-1, 1:-1] = values
        flat = padded.ravel()
        (i00, i10, i01, i11), (w00, w10, w01, w11) = self.index, self.weights
        out = w00 * flat.take(i00)
        out += w10 * flat.take(i10)
        out += w01 * flat.take(i01)
        out += w11 * flat.take(i11)
        return out

    def transpose(self, values: np.ndarray) -> np.ndarray:
        """Scatter values given at the stencil's points onto the grid.

        This is the exact transpose of apply: each point adds its value
        times a corner's weight into that corner, corners on the zero border
        are dropped, so points outside the domain add nothing.
        """
        nx, ny = self.spec.shape
        size = (nx + 2) * (ny + 2)
        out = sum(np.bincount(index.ravel(), (weight * values).ravel(), size)
                  for index, weight in zip(self.index, self.weights))
        return out.reshape(nx + 2, ny + 2)[1:-1, 1:-1]


def _stencil(spec: GridSpec, u, w) -> Stencil:
    # (u, w) are node coordinates; the padded array puts node (i, j) at
    # (i + 1, j + 1)
    i0 = np.floor(u)
    j0 = np.floor(w)
    fu = u - i0
    fw = w - j0
    stride = spec.ny + 2
    k = ((i0 + 1.0) * stride + (j0 + 1.0)).astype(np.intp)
    gu = 1.0 - fu
    gw = 1.0 - fw
    return Stencil(spec, (k, k + stride, k + 1, k + (stride + 1)),
                   (gu * gw, fu * gw, gu * fw, fu * fw))


def bilinear_stencil(spec: GridSpec, px: np.ndarray, py: np.ndarray) -> Stencil:
    """Stencil of the points (px, py) for sampling with zero extension.

    Missing neighbours outside the grid contribute zero, and points outside
    the domain itself return exactly zero.
    """
    L = spec.half_width
    outside = (np.abs(px) > L) | (np.abs(py) > L)
    # node (-1, -1) is the border's corner: weight 1 on a padded zero, 0 on
    # the other three corners
    u = np.where(outside, -1.0, (px + L) / spec.h - 0.5)
    w = np.where(outside, -1.0, (py + L) / spec.h - 0.5)
    return _stencil(spec, u, w)


def sample_values_xy(values: np.ndarray, spec: GridSpec,
                     px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Bilinear sample of a nodal value array at physical coordinates.

    Missing neighbours outside the grid contribute zero, and points outside
    the domain itself return exactly zero.
    """
    return bilinear_stencil(spec, px, py).apply(values)


def sample_points_xy(points: np.ndarray, spec: GridSpec,
                     px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Bilinear sample of an (nx, ny, 2) point array at physical coordinates.

    Queries are clamped onto the node hull, so the lookup is always a convex
    combination of stored points (used for composing deformation maps).
    """
    L = spec.half_width
    nx, ny = spec.nx, spec.ny
    u = np.clip((px + L) / spec.h - 0.5, 0.0, nx - 1.0)
    w = np.clip((py + L) / spec.h - 0.5, 0.0, ny - 1.0)
    # a query on the far edge u = nx - 1 gives the corners past it weight 0,
    # and they read the zero border
    st = _stencil(spec, u, w)
    out = np.empty(u.shape + (2,))
    out[..., 0] = st.apply(points[..., 0])
    out[..., 1] = st.apply(points[..., 1])
    return out


def gradient_central(img: Image) -> VectorImage:
    """Central-difference gradient, one-sided at the boundary, scaled by 1/h."""
    h = img.spec.h
    gx = np.gradient(img.values, h, axis=0, edge_order=1)
    gy = np.gradient(img.values, h, axis=1, edge_order=1)
    return VectorImage(img.spec, gx, gy)


def divergence(v: VectorImage) -> Image:
    """Central-difference divergence, one-sided at the boundary."""
    h = v.spec.h
    d = np.gradient(v.vx, h, axis=0, edge_order=1) + np.gradient(v.vy, h, axis=1, edge_order=1)
    return Image(v.spec, d)


def image_l2_inner(a: Image, b: Image) -> float:
    """Grid L2 inner product sum(a*b) h^2."""
    if a.spec != b.spec:
        raise ValueError("images must share one grid")
    return float(np.sum(a.values * b.values)) * a.spec.h ** 2


def image_l2_norm_sq(a: Image) -> float:
    return float(np.sum(a.values * a.values)) * a.spec.h ** 2
