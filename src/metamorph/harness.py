"""Phantoms, calibrated noise injection, and image-quality metrics.

Phantoms are rasterised with 4x4 supersampling per pixel so partial pixel
coverage is anti-aliased; shape intensities add on top of a constant
background.  Each shape is drawn only on the sub-samples of its bounding box
(padded by one sub-sample), from the two 1-D sub-sample coordinate vectors
broadcast against each other; outside the box its mask is zero, so the
image is the same, bit for bit, as drawing every shape on the whole grid.
In an evolving sequence every base shape moves, triangles included, and
every frame's shapes must lie inside the domain.  Noise injection solves
the scale from the drawn sample's own norm, so the realised variance-ratio
PSNR hits the target exactly.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .grid import GridSpec, Image
from .ray import Sinogram

_SUPER = 4  # supersampling factor per axis
# the PhantomSpec fields that animate an evolving sequence
_MOTION = ("times", "drift", "growth", "appear", "appear_time", "appear_ramp")


@dataclass(frozen=True)
class Disc:
    cx: float
    cy: float
    r: float
    intensity: float = 1.0


@dataclass(frozen=True)
class Triangle:
    verts: tuple[tuple[float, float], ...]
    intensity: float = 1.0

    def __post_init__(self):
        if len(self.verts) != 3:
            raise ValueError("triangle needs exactly three vertices")


@dataclass(frozen=True)
class Ellipse:
    cx: float
    cy: float
    a: float
    b: float
    angle_deg: float = 0.0
    intensity: float = 1.0


@dataclass(frozen=True)
class PhantomSpec:
    """Shape list plus background; kind 'evolving_sequence' animates it.

    For the evolving kind, the base shapes drift by t * drift and scale by
    (1 + t * growth) about their centres (a triangle's is its centroid), and
    `appear` fades in with weight clip((t - appear_time) / appear_ramp, 0, 1).
    Its frames are drawn at `times`, or at t = 0 and 1 when it is empty, and
    the scale must stay positive at each of them.  The other kinds are
    static: they leave the motion fields at their defaults.
    """

    kind: str
    background: float = 0.0
    discs: tuple[Disc, ...] = ()
    triangles: tuple[Triangle, ...] = ()
    ellipses: tuple[Ellipse, ...] = ()
    times: tuple[float, ...] = ()
    drift: tuple[float, float] = (0.0, 0.0)
    growth: float = 0.0
    appear: Disc | None = None
    appear_time: float = 0.5
    appear_ramp: float = 0.2

    def __post_init__(self):
        kinds = ("discs", "triangle_pair", "shepp_like", "evolving_sequence")
        if self.kind not in kinds:
            raise ValueError(f"unknown phantom kind {self.kind!r}, expected one of {kinds}")
        if np.shape(self.drift) != (2,):
            raise ValueError(f"drift needs 2 values (dx, dy), got {self.drift!r}")
        for name in ("background", "drift", "growth", "appear_time", "appear_ramp", "times"):
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
        shapes = [(f"discs[{i}]", d) for i, d in enumerate(self.discs)]
        shapes += [(f"triangles[{i}]", t) for i, t in enumerate(self.triangles)]
        shapes += [(f"ellipses[{i}]", e) for i, e in enumerate(self.ellipses)]
        if self.appear is not None:
            shapes.append(("appear", self.appear))
        for name, shape in shapes:
            if not all(np.isfinite(value).all() for value in astuple(shape)):
                raise ValueError(f"{name} must be finite, got {shape}")
            for size in {Disc: ("r",), Ellipse: ("a", "b")}.get(type(shape), ()):
                if not getattr(shape, size) > 0:
                    raise ValueError(f"{name} needs {size} > 0, got {shape}")
        if self.kind != "evolving_sequence":
            moved = [f.name for f in fields(self)
                     if f.name in _MOTION and not np.array_equal(getattr(self, f.name), f.default)]
            if moved:
                raise ValueError(f"{', '.join(moved)}: kind {self.kind!r} is static; "
                                 f"only evolving_sequence moves")
        else:
            for t in self.frame_times():
                if not 1.0 + t * self.growth > 0:
                    raise ValueError(f"growth shrinks the shapes to nothing at t = {t} "
                                     f"(needs 1 + t * growth > 0), got {self.growth}")

    def frame_times(self) -> tuple[float, ...]:
        """The times an evolving sequence is drawn at."""
        return self.times or (0.0, 1.0)


def _subsamples(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The x and y coordinates of the supersampled grid's pixel centres."""
    sub = GridSpec(grid.half_width, grid.nx * _SUPER, grid.ny * _SUPER)
    return sub.xs(), sub.ys()


def _downsample(fine: np.ndarray, grid: GridSpec) -> np.ndarray:
    return fine.reshape(grid.nx, _SUPER, grid.ny, _SUPER).mean(axis=(1, 3))


def _disc_mask(xx, yy, d: Disc) -> np.ndarray:
    return ((xx - d.cx) ** 2 + (yy - d.cy) ** 2 <= d.r ** 2).astype(np.float64)


def _triangle_mask(xx, yy, tri: Triangle) -> np.ndarray:
    (x0, y0), (x1, y1), (x2, y2) = tri.verts
    # consistent half-plane test via signed areas
    d0 = (xx - x1) * (y0 - y1) - (x0 - x1) * (yy - y1)
    d1 = (xx - x2) * (y1 - y2) - (x1 - x2) * (yy - y2)
    d2 = (xx - x0) * (y2 - y0) - (x2 - x0) * (yy - y0)
    neg = (d0 < 0) & (d1 < 0) & (d2 < 0)
    pos = (d0 > 0) & (d1 > 0) & (d2 > 0)
    return (neg | pos).astype(np.float64)


def _ellipse_mask(xx, yy, e: Ellipse) -> np.ndarray:
    phi = math.radians(e.angle_deg)
    dx = xx - e.cx
    dy = yy - e.cy
    xr = dx * math.cos(phi) + dy * math.sin(phi)
    yr = -dx * math.sin(phi) + dy * math.cos(phi)
    return ((xr / e.a) ** 2 + (yr / e.b) ** 2 <= 1.0).astype(np.float64)


def _extent(shape) -> tuple[float, float, float, float]:
    """(x_min, x_max, y_min, y_max) of a box that holds the shape."""
    if isinstance(shape, Triangle):
        px, py = zip(*shape.verts)
        return min(px), max(px), min(py), max(py)
    reach = shape.r if isinstance(shape, Disc) else max(shape.a, shape.b)
    return shape.cx - reach, shape.cx + reach, shape.cy - reach, shape.cy + reach


_MASKS = {Disc: _disc_mask, Triangle: _triangle_mask, Ellipse: _ellipse_mask}


def _check_shapes(grid: GridSpec, discs, triangles, ellipses, where: str):
    """Raise if a shape reaches outside the domain; where names the frame."""
    L = grid.half_width
    for d in discs:
        if abs(d.cx) + d.r > L or abs(d.cy) + d.r > L:
            raise ValueError(f"disc at ({d.cx}, {d.cy}) r={d.r} leaves the domain{where}")
    for t in triangles:
        for x, y in t.verts:
            if abs(x) > L or abs(y) > L:
                raise ValueError(f"triangle vertex ({x}, {y}) leaves the domain{where}")
    for e in ellipses:
        reach = max(e.a, e.b)
        if abs(e.cx) + reach > L or abs(e.cy) + reach > L:
            raise ValueError(f"ellipse at ({e.cx}, {e.cy}) leaves the domain{where}")


def _rasterise(grid: GridSpec, xs, ys, background: float, discs, triangles, ellipses) -> Image:
    """Supersample the shapes over the background, each on its own box.

    A shape's box is its extent padded by one sub-sample; its mask is zero
    outside, so adding it there would add only zeros.  Inside, every
    sub-sample goes through the same arithmetic as on the whole grid.
    """
    pad = grid.h / _SUPER
    fine = np.full((xs.size, ys.size), float(background))
    for shape in discs + triangles + ellipses:
        x_min, x_max, y_min, y_max = _extent(shape)
        bx = slice(np.searchsorted(xs, x_min - pad), np.searchsorted(xs, x_max + pad, "right"))
        by = slice(np.searchsorted(ys, y_min - pad), np.searchsorted(ys, y_max + pad, "right"))
        mask = _MASKS[type(shape)](xs[bx, None], ys[None, by], shape)
        fine[bx, by] += shape.intensity * mask
    return Image(grid, _downsample(fine, grid))


def _frame_at(spec: PhantomSpec, t: float):
    """The (discs, triangles, ellipses) of an evolving sequence at time t.

    Every base shape moves by t * drift and scales by 1 + t * growth about
    its centre (a triangle about its centroid c: each vertex v moves to
    v + t * (growth * (v - c) + drift), so t = 0 leaves it bit for bit).
    """
    dx, dy = t * spec.drift[0], t * spec.drift[1]
    scale = 1.0 + t * spec.growth
    discs = tuple(Disc(d.cx + dx, d.cy + dy, d.r * scale, d.intensity) for d in spec.discs)
    triangles = []
    for tri in spec.triangles:
        cx = sum(x for x, _ in tri.verts) / 3.0
        cy = sum(y for _, y in tri.verts) / 3.0
        verts = tuple((x + t * (spec.growth * (x - cx) + spec.drift[0]),
                       y + t * (spec.growth * (y - cy) + spec.drift[1])) for x, y in tri.verts)
        triangles.append(Triangle(verts, tri.intensity))
    ellipses = tuple(
        Ellipse(e.cx + dx, e.cy + dy, e.a * scale, e.b * scale, e.angle_deg, e.intensity)
        for e in spec.ellipses
    )
    if spec.appear is not None:
        if spec.appear_ramp > 0:
            w = min(max((t - spec.appear_time) / spec.appear_ramp, 0.0), 1.0)
        else:
            w = 1.0 if t >= spec.appear_time else 0.0
        if w > 0:
            a = spec.appear
            discs = discs + (Disc(a.cx, a.cy, a.r, a.intensity * w),)
    return discs, tuple(triangles), ellipses


def _frames(spec: PhantomSpec):
    """(where, discs, triangles, ellipses) of each frame to draw; where names
    an evolving frame's time and is empty for the static kinds."""
    if spec.kind != "evolving_sequence":
        return [("", spec.discs, spec.triangles, spec.ellipses)]
    return [(f" at t = {t}", *_frame_at(spec, t)) for t in spec.frame_times()]


def check_inside(spec: PhantomSpec, grid: GridSpec) -> None:
    """Raise ValueError, naming the shape and the frame's time, if a shape of
    any frame reaches outside the domain.  The appearing disc must lie inside
    also where it has not faded in yet."""
    if spec.appear is not None:
        _check_shapes(grid, (spec.appear,), (), (), " (the appearing disc)")
    for where, *shapes in _frames(spec):
        _check_shapes(grid, *shapes, where)


def make_phantom(spec: PhantomSpec, grid: GridSpec):
    """Rasterise a phantom; returns a list of Images for the evolving kind.

    Every shape of every frame must lie inside the domain (check_inside).
    """
    check_inside(spec, grid)
    xs, ys = _subsamples(grid)
    images = [_rasterise(grid, xs, ys, spec.background, *shapes) for _, *shapes in _frames(spec)]
    return images if spec.kind == "evolving_sequence" else images[0]


def _values_of(x, name: str) -> np.ndarray:
    """The values of an Image or Sinogram (checked when built) or a raw array."""
    if isinstance(x, (Image, Sinogram)):
        return x.values
    values = np.asarray(x, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} holds non-finite values")
    return values


def psnr(reference, test) -> float:
    """Variance-ratio PSNR in dB: 10 log10(|ref - mean|^2 / |err - mean|^2)."""
    ref = _values_of(reference, "reference")
    tst = _values_of(test, "test")
    if ref.shape != tst.shape:
        raise ValueError(f"shape mismatch {ref.shape} vs {tst.shape}")
    sig = ref - ref.mean()
    s_power = float(np.sum(sig * sig))
    if s_power == 0.0:
        raise ValueError("reference is constant, PSNR undefined")
    err = tst - ref
    if not np.any(err):
        return math.inf
    err = err - err.mean()
    n_power = float(np.sum(err * err))
    if n_power == 0.0:
        return math.inf
    return 10.0 * math.log10(s_power / n_power)


def add_noise(sino: Sinogram, target_psnr_db: float, seed: int) -> Sinogram:
    """Add seeded white Gaussian noise scaled so the realised PSNR is exact.

    A target of +inf returns a copy of the data; NaN and -inf are rejected.
    """
    if not target_psnr_db > -math.inf:
        raise ValueError(f"PSNR target must be a number or +inf, got {target_psnr_db}")
    if math.isinf(target_psnr_db):
        return sino.copy()
    sig = sino.values - sino.values.mean()
    s_power = float(np.sum(sig * sig))
    if s_power == 0.0:
        raise ValueError("constant sinogram has undefined PSNR")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(sino.values.shape)
    centred = raw - raw.mean()
    n_power = float(np.sum(centred * centred))
    alpha = math.sqrt(s_power / (n_power * 10.0 ** (target_psnr_db / 10.0)))
    return Sinogram(sino.geometry, sino.values + alpha * raw)


# side of the square SSIM windows
SSIM_WINDOW = 8


def _window_mean(x: np.ndarray) -> np.ndarray:
    """Mean of every 8 x 8 window of a C-ordered 2D array.

    Equal bit for bit to sliding_window_view(x, (8, 8)).mean(axis=(2, 3)),
    which sums each window row in numpy's pairwise order (for 8 terms,
    ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7))) and then adds the rows one by one;
    this does the same on whole shifted slices.  An array exactly one window
    wide has contiguous windows, which numpy sums as one run, so it keeps the view.
    """
    w = SSIM_WINDOW
    nx, ny = x.shape
    if ny == w:
        return np.lib.stride_tricks.sliding_window_view(x, (w, w)).mean(axis=(2, 3))
    s = [x[:, j:ny - w + 1 + j] for j in range(w)]
    rows = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
    out = rows[:nx - w + 1]
    for i in range(1, w):
        out = out + rows[i:nx - w + 1 + i]
    return out / (w * w)


def ssim(a, b, dynamic_range: float | None = None) -> float:
    """Mean local SSIM over sliding 8 x 8 windows (uniform weights).

    The stabilising constants use C1 = (0.01 R)^2, C2 = (0.03 R)^2 with R the
    dynamic range of the first argument (the reference) unless given
    explicitly, as a finite positive number.
    """
    if dynamic_range is not None and not 0.0 < dynamic_range < math.inf:
        raise ValueError(f"dynamic_range must be finite and positive, got {dynamic_range!r}")
    av = np.ascontiguousarray(_values_of(a, "reference"))
    bv = np.ascontiguousarray(_values_of(b, "test"))
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch {av.shape} vs {bv.shape}")
    if min(av.shape) < SSIM_WINDOW:
        raise ValueError(f"images smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    if dynamic_range is None:
        dynamic_range = float(av.max() - av.min())
        if dynamic_range == 0.0:
            raise ValueError("constant reference image, pass dynamic_range explicitly")
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2

    mu_a = _window_mean(av)
    mu_b = _window_mean(bv)
    var_a = _window_mean(av * av) - mu_a * mu_a
    var_b = _window_mean(bv * bv) - mu_b * mu_b
    cov = _window_mean(av * bv) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))
