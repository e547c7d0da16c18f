"""Regular pixel grids on the square domain [-L, L]^2.

Images are scalar fields sampled at pixel centres, vector fields carry one
array per component.  Everything downstream (flows, ray transform, gradients)
builds on the bilinear sampling and the central-difference operators defined
here.  Fields are treated as zero outside the domain.

This is the one bilinear interpolant; ray.py builds its matrix from
bilinear_stencil too.  A Stencil, built once from a grid and a point set,
holds each point's corner (0, 0) as one flat index into a copy of the nodal
array with a one-pixel zero border, plus the point's fractional offsets in
its cell: 24 bytes per point.  The other three corners are fixed offsets
from that index, read through shifted views of the padded array, and the
four weights are derived from the offsets when the stencil is used.
Corners off the grid need no masks or clips, and points outside the domain
sit on the border's corner, so they read exactly zero.  The build does its
arithmetic in place on the arrays the stencil keeps.  Flows build one
stencil per point set and apply it to every array sampled there (both
velocity components, or a velocity and an intensity control), deriving the
weights once; sample_values_xy is one build and one apply.
Stencil.transpose scatters values at the points back onto the grid, the
exact transpose of apply.  sample_points_xy uses the same stencil on
queries clamped onto the node hull.
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
        if not all(isinstance(n, (int, np.integer)) for n in (self.nx, self.ny)):
            raise ValueError(f"grid sizes must be integers, got nx={self.nx!r}, ny={self.ny!r}")
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


def _checked(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """values as a float64 array of exactly this shape with finite entries:
    every container's one check, naming the container (what) when it fails."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != shape:
        raise ValueError(f"{what} needs shape {shape}, got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{what} values must be finite")
    return values


@dataclass
class Image:
    """Scalar field on a grid; values[i, j] is the sample at node (x_i, y_j)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _checked(self.values, self.spec.shape, "image")

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
        self.vx = _checked(self.vx, self.spec.shape, "vector field")
        self.vy = _checked(self.vy, self.spec.shape, "vector field")

    @classmethod
    def zeros(cls, spec: GridSpec) -> "VectorImage":
        return cls(spec, np.zeros(spec.shape), np.zeros(spec.shape))

    @classmethod
    def from_function(cls, spec: GridSpec, fn) -> "VectorImage":
        xx, yy = np.meshgrid(spec.xs(), spec.ys(), indexing="ij")
        vx, vy = fn(xx, yy)
        return cls(spec, np.broadcast_to(vx, spec.shape).copy(),
                   np.broadcast_to(vy, spec.shape).copy())


@dataclass(frozen=True, eq=False)
class Stencil:
    """Bilinear stencil of one point set on one grid, stored compactly.

    index holds each point's corner (0, 0) as a flat index into the nodal
    array padded with a one-pixel zero border; corners (1, 0), (0, 1) and
    (1, 1) lie ny + 2, 1 and ny + 3 further on (offsets), so they are read
    through shifted views of the padded array, and corners off the grid
    read zero and need no mask or clip.  (fu, fw) are the point's
    fractional offsets in its cell: 24 bytes per point in all.  weights()
    derives the four corner weights; a caller that applies one stencil to
    several arrays derives them once and passes them to each apply.
    """

    spec: GridSpec
    index: np.ndarray
    fu: np.ndarray
    fw: np.ndarray

    @property
    def offsets(self) -> tuple[int, int, int, int]:
        """Flat offsets of corners (0, 0), (1, 0), (0, 1), (1, 1) from index."""
        stride = self.spec.ny + 2
        return (0, stride, 1, stride + 1)

    def weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The weights of corners (0, 0), (1, 0), (0, 1), (1, 1)."""
        gu = 1.0 - self.fu
        gw = 1.0 - self.fw
        return gu * gw, self.fu * gw, gu * self.fw, self.fu * self.fw

    def apply(self, values: np.ndarray, weights=None) -> np.ndarray:
        """Sample one nodal value array at the stencil's points."""
        nx, ny = self.spec.shape
        padded = np.zeros((nx + 2, ny + 2))
        padded[1:-1, 1:-1] = values
        flat = padded.ravel()
        i00 = self.index
        _, o10, o01, o11 = self.offsets
        w00, w10, w01, w11 = self.weights() if weights is None else weights
        out = w00 * flat.take(i00)
        out += w10 * flat[o10:].take(i00)
        out += w01 * flat[o01:].take(i00)
        out += w11 * flat[o11:].take(i00)
        return out

    def transpose(self, values: np.ndarray, weights=None) -> np.ndarray:
        """Scatter values given at the stencil's points onto the grid.

        This is the exact transpose of apply: each point adds its value
        times a corner's weight into that corner, corners on the zero border
        are dropped, so points outside the domain add nothing.  Each
        corner's sums are binned on the one index and added at its offset.
        """
        nx, ny = self.spec.shape
        size = (nx + 2) * (ny + 2)
        index = self.index.ravel()
        out = np.zeros(size)
        for offset, weight in zip(self.offsets, self.weights() if weights is None else weights):
            out[offset:] += np.bincount(index, (weight * values).ravel(), size - offset)
        return out.reshape(nx + 2, ny + 2)[1:-1, 1:-1]


def _stencil(spec: GridSpec, u: np.ndarray, w: np.ndarray) -> Stencil:
    """The stencil of node coordinates (u, w), which it takes over: they
    become its fractional offsets."""
    # the padded array puts node (i, j) at (i + 1, j + 1)
    i0 = np.floor(u)
    j0 = np.floor(w)
    u -= i0
    w -= j0
    i0 += 1.0
    i0 *= spec.ny + 2
    j0 += 1.0
    i0 += j0
    return Stencil(spec, i0.astype(np.intp), u, w)


def bilinear_stencil(spec: GridSpec, px: np.ndarray, py: np.ndarray) -> Stencil:
    """Stencil of the points (px, py) for sampling with zero extension.

    Missing neighbours outside the grid contribute zero, and points outside
    the domain itself return exactly zero.
    """
    L = spec.half_width
    outside = np.abs(px) > L
    outside |= np.abs(py) > L
    u = px + L
    u /= spec.h
    u -= 0.5
    w = py + L
    w /= spec.h
    w -= 0.5
    # node (-1, -1) is the border's corner: weight 1 on a padded zero, 0 on
    # the other three corners
    u[outside] = -1.0
    w[outside] = -1.0
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
    weights = st.weights()
    out = np.empty(u.shape + (2,))
    out[..., 0] = st.apply(points[..., 0], weights)
    out[..., 1] = st.apply(points[..., 1], weights)
    return out


def _central_difference(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central difference of f along an axis, one-sided at its two ends.

    The same arithmetic as np.gradient(f, h, axis=axis, edge_order=1), bit
    for bit, on whole slices.
    """
    at = (slice(None),) * axis  # the axes before it
    out = np.empty_like(f)
    ahead, behind = f[at + (slice(2, None),)], f[at + (slice(None, -2),)]
    out[at + (slice(1, -1),)] = (ahead - behind) / (2.0 * h)
    out[at + (0,)] = (f[at + (1,)] - f[at + (0,)]) / h
    out[at + (-1,)] = (f[at + (-1,)] - f[at + (-2,)]) / h
    return out


def gradient_central(img: Image) -> VectorImage:
    """Central-difference gradient, one-sided at the boundary, scaled by 1/h."""
    h = img.spec.h
    return VectorImage(img.spec, _central_difference(img.values, h, 0),
                       _central_difference(img.values, h, 1))
