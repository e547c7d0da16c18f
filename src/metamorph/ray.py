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

A is built once per grid and geometry, and stored once per symmetry orbit
of the view angles.  Every uniform angle set is closed under the square
grid's symmetries (the group D4 of flips and transposes): theta, pi - theta
and theta +- pi/2 see the same image up to a flip or a transpose of the
array, which is exact because the nodes are symmetric about 0.  So for each
angle b the build finds a representative a and a symmetry g with
g w(a) = +w(b), and stores only the representatives' rows, A_rep; row block
b is row block a applied to the image pulled back through g, with the bins
reversed when g reverses the detector axis.  g must map w onto +w, never
-w: the ray samples t are not symmetric about 0 (at 64^2 they run from
-22.50 to +22.75), and a reversal in t changes the projection of a random
64^2 image by up to 4e-2 relative (1e-4 for the head phantom), while with
+w the derived rows agree with a direct build to about 3e-14.  Partners are
found by comparing unit vectors within 16 machine epsilons, because in
uniform geometries they differ by at most 3 ulp and non-partners by at least
6.2e-3.  Forward projection is then one product A_rep @ X with one column of
X per symmetry in use and a gather, and the backprojection scatters into
those columns, multiplies by A_rep's transpose (a view built once per
operator) and pushes each column back through its g.  That product computes
reps x columns row blocks to read n_angles, so the orbits are kept only if
reps x columns <= n_angles + columns; otherwise every angle is its own
representative under the identity column (gather = arange), whose products
equal A @ f and A.T @ g bit for bit.  Every Geometry.uniform(n), n <= 400,
keeps its orbits (60 angles to 16, 30 to 8, 100 to 26, 7 to 4); 11 gate
angles where one has a partner are stored in full (at 64^2 x 128 bins, 10
representatives x 2 columns took 424 us per forward, against 115 us).

Each Geometry keeps the operators it has used, so a caller holding its
geometries (a gated solve, whatever its number of gates) never rebuilds
one; an LRU cache of 32 entries keyed by value, (GridSpec, n_det,
det_extent, angle bytes), lets separately built but equal geometries share
one.  A takes 12 bytes per nonzero, about 215 nonzeros per ray at 128^2.
Stored, that is 10.1 MiB instead of 38.0 MiB at 128^2 with 60 angles x 256
bins (16 representatives), 1.25 MiB instead of 4.7 MiB at 64^2 with 30 x 128
(8 representatives), and 46.4 MiB instead of 178.8 MiB at the CLI defaults
(256^2, 100 angles x 362 bins, 26 representatives); 10 random angles x 128
bins at 64^2 keep all 1.6 MiB.  On one core of a 2-vCPU host the CLI
defaults build in about 0.5 s instead of 2 s, and a fresh process that
builds them peaks at 113 MB instead of 245 MB.  At 128^2 with 60 angles a
forward projection takes about 2.9 ms and a backprojection 2.2 ms (3.9 ms
and 5.3 ms storing every angle); at 64^2 with 30 angles both take about
0.3 ms.  The build pays off on repeated geometry: a descent solve applies A
or its transpose three times per step, while a one-shot projection or FBP
pays the build for one product and holds the matrix until the process
ends.  An acquisition lumped from parts that have their own operators, such
as the gates of a gated solve, builds none: filtering is row by row and the
backprojection is a sum over angles, so fbp of parts filters each part's rows
on its own detector and backprojects them through its own operator, with
the lumped weight pi / (total angle count).  For 10 gates x 10 angles on one
core of a 2-vCPU host that takes 5-8 ms at 64^2 and 13-19 ms at 128^2,
where building one 100-angle operator took 0.3-0.6 s and 0.8-1.3 s, and a
fresh process that builds the gates and the lumped FBP peaks at 70.5 MB
instead of 88.6 MB at 64^2, and 125 MB instead of 190 MB at 128^2.

scipy.sparse, which holds A, is imported by the build (_operator_rows), not
at module level: it was about half of `import metamorph` (0.32 s against
0.17 s without it on a 2-vCPU host), which every process paid, also one
that only rasterises, reads files or scores images and never projects.  A
process that projects pays the import once, at its first operator build.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .grid import GridSpec, Image, _checked, _unchecked, bilinear_stencil

if TYPE_CHECKING:
    import scipy.sparse

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
    them.
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
        if not isinstance(self.n_det, (int, np.integer)):
            raise ValueError(f"the number of detector bins must be an integer, got {self.n_det!r}")
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


@dataclass
class Sinogram:
    """Ray-transform samples, one row per angle."""

    geometry: Geometry
    values: np.ndarray

    def __post_init__(self):
        self.values = _checked(self.values, (self.geometry.n_angles, self.geometry.n_det),
                               "sinogram")

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


def _ray_operator(spec: GridSpec, geo: Geometry) -> "_RayOperator":
    """The operator of forward_project on this grid and geometry.

    The geometry keeps every operator it has used, so a caller that holds its
    geometries (a gated solve holds its gates) never rebuilds one, however
    many it holds.  Separately built but equal geometries share one operator
    through the value-keyed cache.
    """
    op = geo._operators.get(spec)
    if op is None:
        op = _build_operator(spec, geo.n_det, geo.det_extent, geo.angles.tobytes())
        geo._operators[spec] = op
    return op


# The symmetries of the square grid, D4, as signed permutation matrices g,
# which act on the image by f -> f o g, in the order the orbit search tries
# them: a uniform geometry needs only the first four.
_SYMMETRIES = np.array([
    [[1, 0], [0, 1]],    # identity
    [[0, 1], [1, 0]],    # transpose: theta -> pi/2 - theta
    [[0, -1], [1, 0]],   # quarter turn: theta -> theta + pi/2
    [[-1, 0], [0, 1]],   # x flip: theta -> pi - theta
    [[1, 0], [0, -1]],
    [[-1, 0], [0, -1]],
    [[0, 1], [-1, 0]],
    [[0, -1], [-1, 0]],
])
# Two ray directions are partners when g maps one onto the other within this
# many units in each component.  In Geometry.uniform(n), n in {7, 12, 30, 60,
# 100, 180, 360}, partners differ by at most 3 ulp (6.3e-16) in each component
# and every non-partner by at least 6.2e-3 in one, so a few ulp separate the
# two.
_PARTNER_TOL = 16 * np.finfo(np.float64).eps


def _orbits(angles: np.ndarray) -> tuple[list[int], list[tuple[int, int]]]:
    """Representative angles, and for each angle (representative, symmetry).

    Each angle becomes a representative unless a symmetry g maps an earlier
    representative's ray direction w = (cos, sin) onto +w of this angle; -w
    would reverse the ray samples, which are not symmetric in t.
    """
    w = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    reps: list[int] = []
    source: list[tuple[int, int]] = []
    for wb in w:
        images = _SYMMETRIES @ w[reps].T  # (symmetry, component, representative)
        hits = np.argwhere(np.abs(images - wb[:, None]).max(axis=1) <= _PARTNER_TOL)
        if hits.size:
            g, r = hits[0]
            source.append((int(r), int(g)))
        else:
            source.append((len(reps), 0))
            reps.append(len(source) - 1)
    return reps, source


def _pull(values: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The image f o g as a view: flips and a transpose, since the nodes are
    symmetric about 0.  Its transpose is _pull through g.T, the inverse."""
    if g[0, 1] == 0:
        return values[::g[0, 0], ::g[1, 1]]
    return values[::g[0, 1], ::g[1, 0]].T


class _RayOperator:
    """A's stored rows, and where each angle reads them.

    Row block b of A is row block a (its representative) applied to f o g,
    with the bins reversed when g reverses the detector axis (det g = -1).
    So forward_project is one product A_rep @ X, with one column of X per
    symmetry in use, and a gather; back_project scatters into the columns,
    multiplies by A_rep's transpose and pushes each column back through its
    g.  A geometry stored in full is the case of one identity column and
    gather = arange.
    """

    def __init__(self, spec: GridSpec, matrix: scipy.sparse.csr_matrix,
                 symmetries: np.ndarray, gather: np.ndarray):
        self.spec = spec
        self.matrix = matrix
        # one csc view, sharing the arrays, for every back projection
        self.matrix_t = matrix.T
        self.symmetries = symmetries
        self.gather = gather

    def forward(self, values: np.ndarray) -> np.ndarray:
        X = np.empty(values.shape + (len(self.symmetries),))
        for c, g in enumerate(self.symmetries):
            X[:, :, c] = _pull(values, g)
        return (self.matrix @ X.reshape(-1, X.shape[-1])).ravel().take(self.gather)

    def back(self, values: np.ndarray) -> np.ndarray:
        n_cols = len(self.symmetries)
        Y = np.bincount(self.gather.ravel(), values.ravel(), self.matrix.shape[0] * n_cols)
        Z = (self.matrix_t @ Y.reshape(-1, n_cols)).reshape(self.spec.shape + (n_cols,))
        out = _pull(Z[:, :, 0], self.symmetries[0].T).copy()
        for c in range(1, n_cols):
            out += _pull(Z[:, :, c], self.symmetries[c].T)
        return out


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _build_operator(spec: GridSpec, n_det: int, det_extent: float,
                    angles: bytes) -> _RayOperator:
    """The rows of the representative angles, and each angle's gather.

    Stored row r * n_det + d holds ray (representative r, bin d).  Angle b
    with representative r and symmetry column c reads entry
    (r * n_det + d') * n_cols + c of A_rep @ X, d' = d or n_det - 1 - d.
    """
    geo = Geometry(np.frombuffer(angles), n_det, det_extent)
    reps, source = _orbits(geo.angles)
    used = sorted({g for _, g in source})
    # more than one unread row block per column: store every angle
    if len(reps) * len(used) > geo.n_angles + len(used):
        reps, source, used = range(geo.n_angles), [(b, 0) for b in range(geo.n_angles)], [0]
    matrix = _operator_rows(spec, Geometry(geo.angles[reps], n_det, det_extent))
    column = {g: c for c, g in enumerate(used)}
    bins = np.arange(n_det)
    gather = np.empty((geo.n_angles, n_det), dtype=np.intp)
    for b, (r, g) in enumerate(source):
        reverse = np.linalg.det(_SYMMETRIES[g]) < 0
        gather[b] = (r * n_det + (bins[::-1] if reverse else bins)) * len(used) + column[g]
    return _RayOperator(spec, matrix, _SYMMETRIES[used], gather)


def _operator_rows(spec: GridSpec, geo: Geometry) -> scipy.sparse.csr_matrix:
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
    import scipy.sparse

    n_det = geo.n_det
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
    """Line integrals of the image over the geometry's rays.  Products of a
    checked image, the sinogram is not checked again."""
    values = _ray_operator(img.spec, geo).forward(img.values)
    return _unchecked(Sinogram, geo, values.reshape(geo.n_angles, geo.n_det))


def back_project(sino: Sinogram, spec: GridSpec) -> Image:
    """Adjoint of forward_project between the weighted inner products.

    Satisfies <T f, g>_sino = <f, T* g>_img with sinogram weight
    delta_angle * delta_det and image weight h^2.  Like forward_project's,
    the result is not checked again.
    """
    geo = sino.geometry
    scale = geo.delta_angle * geo.delta_det / spec.h ** 2
    values = _ray_operator(spec, geo).back(sino.values)
    return _unchecked(Image, spec, (scale * values).reshape(spec.shape))


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


def fbp(data: Sinogram | Sequence[Sinogram], spec: GridSpec, cutoff: float = 0.8) -> Image:
    """Filtered backprojection with cosine-windowed Ram-Lak filter, of one
    sinogram or of several lumped into one acquisition.

    cutoff is the window's corner as a fraction of the detector Nyquist
    frequency.  Each part's rows are filtered on its own detector and
    backprojected through the operator its geometry holds (built only for a
    part that has none), so parts may differ in angles, bin count and
    extent; the angle weight is pi / (angles of all parts).  It warns once
    if all parts together have fewer than 2 angles.
    """
    sinos = [data] if isinstance(data, Sinogram) else list(data)
    if not sinos:
        raise ValueError("need at least one sinogram")
    n_angles = sum(sino.geometry.n_angles for sino in sinos)
    if n_angles < 2:
        warnings.warn("fbp with fewer than 2 angles is badly underdetermined", stacklevel=2)
    if not 0 < cutoff <= 1:
        raise ValueError(f"cutoff must be in (0, 1], got {cutoff}")
    out = np.zeros(spec.shape)
    for sino in sinos:
        geo = sino.geometry
        filtered = _filter_rows(sino.values, geo.delta_det, cutoff)
        # back_project weighs by pi / (this part's angles)
        out += geo.n_angles / n_angles * back_project(Sinogram(geo, filtered), spec).values
    return Image(spec, out)
