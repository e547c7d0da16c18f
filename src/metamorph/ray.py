"""2D parallel-beam ray transform, its exact discrete adjoint, and FBP.

A line with angle theta is parametrised as p(t) = s * u + t * w with ray
direction w = (cos theta, sin theta) and detector axis u = (-sin theta,
cos theta).  Line integrals are midpoint sums with step h/2 and bilinear
image lookups, whose corners, weights and zero boundary come from
grid.bilinear_stencil, the interpolant the flows use too.  Those stencils,
for all rays of a geometry with the step folded in, are one sparse CSR
matrix A: forward projection is A @ f and the backprojection is the
transpose A.T @ g (weighted for the angle/detector quadrature), so the pair
passes inner-product adjoint tests at machine precision.  The FBP baseline
filters detector rows with a Ram-Lak kernel under a cosine window and
backprojects.

A is built once per grid and geometry.  Each Geometry keeps the matrices it
has used, so a caller holding its geometries (a gated solve, whatever its
number of gates) never rebuilds one; an LRU cache of 32 entries keyed by value,
(GridSpec, n_det, det_extent, angle bytes), lets separately built but equal
geometries share one.  A takes 12 bytes per nonzero, about 215 nonzeros per ray
at 128^2: 40 MB for 60 angles x 256 bins, 1.6 MB for 10 angles x 128 bins at
64^2, 187 MB at the CLI defaults (256^2, 100 angles x 362 bins).  On one core
of a 2-vCPU host it builds in about 0.6 s at 128^2 with 60 angles and 3 s at
the CLI defaults, adding about 1.2 times its bytes to peak memory; each
product then takes about 5 ms at 128^2.  The gain rests on repeated geometry:
a descent solve applies A or its transpose three times per step, while a
one-shot projection or FBP pays the build for one product (3 s against 2.6 s
for the per-angle loops this replaced, at the CLI defaults) and holds the
matrix until the process ends.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .grid import GridSpec, Image, bilinear_stencil

# operators kept for geometries built again with equal values, such as the
# ones every preset set-up builds anew
_CACHE_ENTRIES = 32
# ray samples per build chunk, which bounds the build's temporary arrays
_CHUNK_SAMPLES = 1 << 14


@dataclass(frozen=True, eq=False)
class Geometry:
    """Parallel-beam sampling: angles in [0, pi), n_det uniform offsets.

    Detector offsets are bin midpoints in [-det_extent, det_extent].  The
    angle quadrature weight is fixed to pi / n_angles.  The angles are kept
    as a read-only copy, since the ray operators kept per geometry depend on
    them.  Two geometries are equal when they sample the same rays
    (same_sampling).
    """

    angles: np.ndarray
    n_det: int
    det_extent: float
    # ray operators by grid, filled by _ray_operator
    _operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        angles = np.array(self.angles, dtype=np.float64, ndmin=1)
        angles.flags.writeable = False
        object.__setattr__(self, "angles", angles)
        if angles.size == 0:
            raise ValueError("need at least one angle")
        if not np.isfinite(angles).all():
            raise ValueError("angles must be finite")
        if np.any(angles < 0.0) or np.any(angles >= np.pi):
            raise ValueError("angles must lie in [0, pi)")
        if self.n_det < 1:
            raise ValueError(f"need at least one detector bin, got {self.n_det}")
        if not (np.isfinite(self.det_extent) and self.det_extent > 0):
            raise ValueError(f"det_extent must be positive, got {self.det_extent}")

    @classmethod
    def uniform(cls, n_angles: int, n_det: int, det_extent: float) -> "Geometry":
        return cls(np.linspace(0.0, np.pi, n_angles, endpoint=False), n_det, det_extent)

    @property
    def n_angles(self) -> int:
        return len(self.angles)

    @property
    def delta_angle(self) -> float:
        return math.pi / self.n_angles

    @property
    def delta_det(self) -> float:
        return 2.0 * self.det_extent / self.n_det

    def det_offsets(self) -> np.ndarray:
        return -self.det_extent + (np.arange(self.n_det) + 0.5) * self.delta_det

    def same_sampling(self, other: "Geometry") -> bool:
        return (self.n_det == other.n_det
                and self.det_extent == other.det_extent
                and np.array_equal(self.angles, other.angles))

    def __eq__(self, other):
        if not isinstance(other, Geometry):
            return NotImplemented
        return self.same_sampling(other)

    def __hash__(self):
        # the angle count, not their bytes: array_equal holds -0.0 == 0.0
        return hash((self.n_det, self.det_extent, self.n_angles))


@dataclass
class Sinogram:
    """Ray-transform samples, one row per angle."""

    geometry: Geometry
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.geometry.n_angles, self.geometry.n_det):
            raise ValueError(
                f"sinogram shape {self.values.shape} does not match geometry "
                f"({self.geometry.n_angles}, {self.geometry.n_det})"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("sinogram values must be finite")

    @classmethod
    def zeros(cls, geometry: Geometry) -> "Sinogram":
        return cls(geometry, np.zeros((geometry.n_angles, geometry.n_det)))

    def copy(self) -> "Sinogram":
        return Sinogram(self.geometry, self.values.copy())


def _ray_params(spec: GridSpec) -> tuple[np.ndarray, float]:
    """Midpoint samples along each line, covering the domain's circumcircle."""
    step = spec.h / 2.0
    reach = spec.half_width * math.sqrt(2.0)
    n = int(math.ceil(2.0 * reach / step))
    t = -reach + (np.arange(n) + 0.5) * step
    return t, step


def _line_points(geo: Geometry, theta: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = geo.det_offsets()
    wx, wy = math.cos(theta), math.sin(theta)
    ux, uy = -wy, wx
    px = s[:, None] * ux + t[None, :] * wx
    py = s[:, None] * uy + t[None, :] * wy
    return px, py


def _band_sums(spec: GridSpec, px: np.ndarray, py: np.ndarray, steep: bool,
               first: np.ndarray, band: int) -> np.ndarray:
    """Bilinear weights of rows of ray samples, summed per (ray, major index,
    offset from first) into a dense array; returning frees the temporaries."""
    nx, ny = spec.nx, spec.ny
    n_major = ny if steep else nx
    stencil = bilinear_stencil(spec, px, py)
    # the padded grid puts node (i, j) at (i + 1, j + 1), so corner (0, 0)
    # decodes to the node (i1, j1) of corner (1, 1); every point lies in the
    # domain or at node (-1, -1), so 0 <= i1 <= nx and 0 <= j1 <= ny
    i1, j1 = np.divmod(stencil.index, ny + 2)
    # a corner on the zero border weighs nothing; clip it into the grid for
    # the band arithmetic
    i_on, j_on = (i1 > 0, i1 < nx), (j1 > 0, j1 < ny)
    i_in = (np.maximum(i1 - 1, 0), np.minimum(i1, nx - 1))
    j_in = (np.maximum(j1 - 1, 0), np.minimum(j1, ny - 1))
    ray_major = (np.arange(px.shape[0]) * n_major)[:, None]
    sums = np.zeros(px.shape[0] * n_major * band)
    for (di, dj), wt in zip(((0, 0), (1, 0), (0, 1), (1, 1)), stencil.weights()):
        wt = wt * (i_on[di] & j_on[dj])
        ii, jj = i_in[di], j_in[dj]
        major, minor = (jj, ii) if steep else (ii, jj)
        key = major + ray_major
        offset = minor - first[key]
        # zero weights (outside the grid) may fall off the band: clip them
        np.clip(offset, 0, band - 1, out=offset)
        key *= band
        key += offset
        sums += np.bincount(key.ravel(), wt.ravel(), minlength=sums.size)
    return sums


def _ray_operator(spec: GridSpec, geo: Geometry) -> scipy.sparse.csr_matrix:
    """The matrix of forward_project on this grid and geometry.

    The geometry keeps every matrix it has used, so a caller that holds its
    geometries (a gated solve holds its gates) never rebuilds one, however
    many it holds.  Separately built but equal geometries share one matrix
    through the value-keyed cache.
    """
    op = geo._operators.get(spec)
    if op is None:
        op = _build_operator(spec, geo.n_det, geo.det_extent, geo.angles.tobytes())
        geo._operators[spec] = op
    return op


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _build_operator(spec: GridSpec, n_det: int, det_extent: float,
                    angles: bytes) -> scipy.sparse.csr_matrix:
    """Row a * n_det + d holds ray (angle a, bin d): step * bilinear weights.

    A ray's nonzeros lie in a band: along the axis it runs closer to (the
    major axis), each pixel line holds at most 4 of them, within two pixels
    of where the ray crosses that line.  So each chunk of rays sums its
    stencil weights by bincount into a dense (ray, major index, band offset)
    array, without sorting, and copies the nonzeros into preallocated arrays,
    which are trimmed in place at the end: the build holds little beyond the
    final matrix.  Column indices are sorted within a row only for rays
    closer to the x axis; the products do not need them sorted.  The arrays
    are read-only because every caller with an equal key shares them.
    """
    geo = Geometry(np.frombuffer(angles), n_det, det_extent)
    t, step = _ray_params(spec)
    nx, ny = spec.nx, spec.ny
    L, h = spec.half_width, spec.h
    s = geo.det_offsets()
    n_rays = geo.n_angles * n_det
    # margin of one pixel on each side of the 4 that can hold a weight
    band = 6
    capacity = n_rays * max(nx, ny) * band
    data = np.empty(capacity)
    indices = np.empty(capacity, dtype=np.int32)
    indptr = np.zeros(n_rays + 1, dtype=np.int32)
    rows_per_chunk = max(1, _CHUNK_SAMPLES // t.size)
    nnz = 0
    for a, theta in enumerate(geo.angles):
        px, py = _line_points(geo, theta, t)
        wx, wy = math.cos(theta), math.sin(theta)
        # pixel-index coordinates of each ray's point at t = 0
        u0, w0 = (L - s * wy) / h - 0.5, (L + s * wx) / h - 0.5
        steep = abs(wy) >= abs(wx)
        if steep:
            n_major, major0, minor0, slope = ny, w0, u0, wx / wy
        else:
            n_major, major0, minor0, slope = nx, u0, w0, wy / wx
        crossing = minor0[:, None] + (np.arange(n_major) - major0[:, None]) * slope
        first = np.floor(crossing).astype(np.int64).ravel() - 2
        # samples outside the domain weigh nothing: a chunk runs only over
        # the sample range where one of its rays is inside
        inside = (np.abs(px) <= L) & (np.abs(py) <= L)
        hit = inside.any(axis=1)
        k_first = np.argmax(inside, axis=1)
        k_end = t.size - np.argmax(inside[:, ::-1], axis=1)
        for r0 in range(0, n_det, rows_per_chunk):
            rows = slice(r0, r0 + rows_per_chunk)
            row0 = a * n_det + r0
            n = min(rows_per_chunk, n_det - r0)
            if not hit[rows].any():
                indptr[row0 + 1:row0 + n + 1] = nnz
                continue
            span = slice(k_first[rows][hit[rows]].min(), k_end[rows][hit[rows]].max())
            chunk_first = first[r0 * n_major:(r0 + n) * n_major]
            sums = _band_sums(spec, px[rows, span], py[rows, span], steep, chunk_first, band)
            nz = np.flatnonzero(sums)
            major = (nz // band) % n_major
            minor = chunk_first[nz // band] + nz % band
            data[nnz:nnz + nz.size] = step * sums[nz]
            indices[nnz:nnz + nz.size] = minor * ny + major if steep else major * ny + minor
            counts = np.bincount(nz // (n_major * band), minlength=n)
            indptr[row0 + 1:row0 + n + 1] = nnz + np.cumsum(counts)
            nnz += nz.size
    data.resize(nnz, refcheck=False)
    indices.resize(nnz, refcheck=False)
    for arr in (data, indices, indptr):
        arr.flags.writeable = False
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(n_rays, nx * ny))


def forward_project(img: Image, geo: Geometry) -> Sinogram:
    """Line integrals of the image over the geometry's rays."""
    values = _ray_operator(img.spec, geo) @ img.values.ravel()
    return Sinogram(geo, values.reshape(geo.n_angles, geo.n_det))


def back_project(sino: Sinogram, spec: GridSpec) -> Image:
    """Adjoint of forward_project between the weighted inner products.

    Satisfies <T f, g>_sino = <f, T* g>_img with sinogram weight
    delta_angle * delta_det and image weight h^2.
    """
    geo = sino.geometry
    scale = geo.delta_angle * geo.delta_det / spec.h ** 2
    values = _ray_operator(spec, geo).T @ sino.values.ravel()
    return Image(spec, (scale * values).reshape(spec.shape))


def ramp_kernel(n: int, delta: float) -> np.ndarray:
    """Spatial-domain Ram-Lak kernel taps over offsets -n//2 .. n//2 - 1."""
    k = np.fft.ifftshift(np.arange(-n // 2, n // 2))
    taps = np.zeros(n)
    taps[0] = 1.0 / (4.0 * delta ** 2)
    odd = k % 2 == 1
    taps[odd] = -1.0 / (np.pi * k[odd] * delta) ** 2
    return taps


def _filter_rows(values: np.ndarray, delta: float, cutoff: float) -> np.ndarray:
    n_det = values.shape[1]
    n_fft = 1 << max(6, int(math.ceil(math.log2(4 * n_det))))
    taps = ramp_kernel(n_fft, delta)
    response = np.real(np.fft.fft(taps))
    freqs = np.abs(np.fft.fftfreq(n_fft, d=delta))
    f_cut = cutoff / (2.0 * delta)
    window = np.where(freqs <= f_cut, np.cos(0.5 * np.pi * freqs / max(f_cut, 1e-300)), 0.0)
    padded = np.zeros((values.shape[0], n_fft))
    padded[:, :n_det] = values
    filtered = np.real(np.fft.ifft(np.fft.fft(padded, axis=1) * (response * window), axis=1))
    return filtered[:, :n_det] * delta


def fbp(sino: Sinogram, spec: GridSpec, cutoff: float = 0.8) -> Image:
    """Filtered backprojection with cosine-windowed Ram-Lak filter.

    cutoff is the window's corner as a fraction of the detector Nyquist
    frequency.  The pi / n_angles backprojection weight is carried by the
    geometry's angle quadrature.
    """
    geo = sino.geometry
    if geo.n_angles < 2:
        warnings.warn("fbp with fewer than 2 angles is badly underdetermined", stacklevel=2)
    if not 0 < cutoff <= 1:
        raise ValueError(f"cutoff must be in (0, 1], got {cutoff}")
    filtered = _filter_rows(sino.values, geo.delta_det, cutoff)
    return back_project(Sinogram(geo, filtered), spec)
