"""Shared builders for the gradient finite-difference checks, and per-sample
references for the ray transform, the bilinear samplers, the SSIM window
mean and the phantom rasteriser.

The fields are kernel-smoothed noise, tapered to vanish near the boundary
(velocities are compactly supported in the model), and the template/target
are broad smooth bumps so the central-difference factors inside the gradient
stay within their accuracy range on the coarse 32x32 check grid.
"""

import math

import numpy as np

from metamorph.grid import GridSpec, Image, VectorImage
from metamorph.harness import _SUPER, _disc_mask, _downsample, _ellipse_mask, _triangle_mask
from metamorph.kernel import KernelSpec, kernel_apply
from metamorph.flow import TimeGrid, TimeVaryingVectorField
from metamorph.metamorphosis import TimeVaryingScalarField
from metamorph.objective import evaluate_parts, gradient_core

FD_SPEC = GridSpec(16.0, 32, 32)
FD_KERNEL = KernelSpec(4.0)


def image_l2_inner(a: Image, b: Image) -> float:
    """Grid L2 inner product sum(a*b) h^2."""
    if a.spec != b.spec:
        raise ValueError("images must share one grid")
    return float(np.sum(a.values * b.values)) * a.spec.h ** 2


def image_l2_norm_sq(a: Image) -> float:
    return float(np.sum(a.values * a.values)) * a.spec.h ** 2


def vfield_l2_inner(u: VectorImage, v: VectorImage) -> float:
    """Grid L2 inner product of vector fields, sum(u . v) h^2."""
    if u.spec != v.spec:
        raise ValueError("vector fields must share one grid")
    return float(np.sum(u.vx * v.vx) + np.sum(u.vy * v.vy)) * u.spec.h ** 2


def _taper(spec):
    xx, yy = np.meshgrid(spec.xs(), spec.ys(), indexing="ij")

    def smooth01(t):
        t = np.clip(t, 0.0, 1.0)
        return t * t * (3.0 - 2.0 * t)

    return smooth01((13.0 - np.abs(xx)) / 5.0) * smooth01((13.0 - np.abs(yy)) / 5.0)


TAPER = _taper(FD_SPEC)


def smooth_bump(cx, cy, width, height, spec=FD_SPEC):
    return Image.from_function(
        spec, lambda x, y: height * np.exp(-(((x - cx) ** 2 + (y - cy) ** 2)) / (2 * width ** 2)))


def smooth_vec(rng, scale, spec=FD_SPEC, kernel=FD_KERNEL, taper=None):
    if taper is None:
        taper = TAPER if spec == FD_SPEC else _taper(spec)
    raw = VectorImage(spec, rng.normal(size=spec.shape), rng.normal(size=spec.shape))
    sm = kernel_apply(raw, kernel)
    m = max(np.abs(sm.vx).max(), np.abs(sm.vy).max())
    return VectorImage(spec, sm.vx * taper * scale / m, sm.vy * taper * scale / m)


def smooth_img(rng, scale, spec=FD_SPEC, kernel=FD_KERNEL, taper=None):
    if taper is None:
        taper = TAPER if spec == FD_SPEC else _taper(spec)
    raw = VectorImage(spec, rng.normal(size=spec.shape), np.zeros(spec.shape))
    sm = kernel_apply(raw, kernel).vx
    return Image(spec, sm * taper * scale / np.abs(sm).max())


def vfield(tg, samples):
    """A velocity field with one VectorImage per time step."""
    return TimeVaryingVectorField(tg, samples[0].spec, [(s.vx, s.vy) for s in samples])


def sfield(tg, samples):
    """An intensity control with one Image per time step."""
    return TimeVaryingScalarField(tg, samples[0].spec, [s.values for s in samples])


def random_state(n_steps, seed, amp_v=1e-4, amp_z=0.25):
    tg = TimeGrid(n_steps)
    rng = np.random.default_rng(seed)
    v = vfield(tg, [smooth_vec(rng, amp_v) for _ in range(n_steps)])
    zeta = sfield(tg, [smooth_img(rng, amp_z) for _ in range(n_steps)])
    return v, zeta


def smoothed_direction(rng, n_steps):
    """Raw direction r and the kernel-smoothed perturbation K*r (for v),
    plus a smooth intensity direction, normalised to unit max displacement."""
    rs = [smooth_vec(rng, 1.0) for _ in range(n_steps)]
    dirs = [kernel_apply(r, FD_KERNEL) for r in rs]
    dmax = max(max(np.abs(d.vx).max(), np.abs(d.vy).max()) for d in dirs)
    dirs = [VectorImage(FD_SPEC, d.vx / dmax, d.vy / dmax) for d in dirs]
    rs = [VectorImage(FD_SPEC, r.vx / dmax, r.vy / dmax) for r in rs]
    etas = [smooth_img(rng, 1.0) for _ in range(n_steps)]
    return rs, dirs, etas


def pair_gradient(grad, rs, etas, n_steps):
    """Directional derivative predicted by the gradient.

    For directions K*r in the velocity space the reproducing property turns
    the smoothed metric pairing into the plain grid pairing with the raw r,
    so no kernel inverse is needed.
    """
    return (1.0 / n_steps) * sum(
        vfield_l2_inner(VectorImage(FD_SPEC, *grad.grad_v.values[i]), rs[i])
        + image_l2_inner(Image(FD_SPEC, grad.grad_zeta.values[i]), etas[i])
        for i in range(n_steps))


def gradient_at(v, zeta, I0, gates, params):
    """gradient_core at (v, zeta), from the forward state evaluate_parts builds."""
    state = evaluate_parts(v, zeta, I0, gates, params)[4]
    return gradient_core(v, zeta, state, gates, params, FD_KERNEL)


def fd_check(v, zeta, grad, objective, n_steps, eps):
    """Predicted and four-point FD directional derivatives of objective(v, zeta)
    along 20 smoothed directions drawn from seed 17."""
    tg = TimeGrid(n_steps)
    rng = np.random.default_rng(17)
    pairs, fds = [], []
    for _ in range(20):
        rs, dirs, etas = smoothed_direction(rng, n_steps)
        wf, ef = vfield(tg, dirs), sfield(tg, etas)
        pairs.append(pair_gradient(grad, rs, etas, n_steps))
        fds.append(central_fd(lambda a: objective(v.add_scaled(wf, a), zeta.add_scaled(ef, a)),
                              eps))
    return np.array(pairs), np.array(fds)


def central_fd(objective, eps):
    """Four-point central difference along a parametrised line."""
    return (8.0 * (objective(eps) - objective(-eps))
            - (objective(2.0 * eps) - objective(-2.0 * eps))) / (12.0 * eps)


def midpoint_ray_sums(img, geo):
    """Per-sample reference for forward_project, one ray sample at a time.

    Each ray s * u + t * w is sampled at the midpoints of steps of h/2 over
    [-sqrt(2) L, sqrt(2) L]; a sample inside the domain adds the bilinear
    interpolant of the pixel-centre values (missing neighbours count zero).
    """
    spec = img.spec
    L, h = spec.half_width, spec.h
    step = h / 2.0
    reach = L * math.sqrt(2.0)
    n_samples = math.ceil(2.0 * reach / step)
    out = np.zeros((geo.n_angles, geo.n_det))
    for a, theta in enumerate(geo.angles):
        wx, wy = math.cos(theta), math.sin(theta)
        for d, s in enumerate(geo.det_offsets()):
            total = 0.0
            for k in range(n_samples):
                t = -reach + (k + 0.5) * step
                x, y = -s * wy + t * wx, s * wx + t * wy
                if not (-L <= x <= L and -L <= y <= L):
                    continue
                u, w = (x + L) / h - 0.5, (y + L) / h - 0.5
                for i in (math.floor(u), math.floor(u) + 1):
                    for j in (math.floor(w), math.floor(w) + 1):
                        if 0 <= i < spec.nx and 0 <= j < spec.ny:
                            total += (1 - abs(u - i)) * (1 - abs(w - j)) * img.values[i, j]
            out[a, d] = total * step
    return out


def masked_sample_values(values, spec, px, py):
    """Reference for sample_values_xy: four masked, clipped corner lookups.

    Each corner's weight is zeroed where the corner lies off the grid and its
    index clipped onto it; points outside the domain are set to zero last.
    """
    L = spec.half_width
    h = spec.h
    nx, ny = spec.nx, spec.ny
    u = (px + L) / h - 0.5
    w = (py + L) / h - 0.5
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(w).astype(np.int64)
    fu = u - i0
    fw = w - j0
    flat = values.ravel()
    out = None
    for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):
        ii = i0 + di if di else i0
        jj = j0 + dj if dj else j0
        wt = (fu if di else 1.0 - fu) * (fw if dj else 1.0 - fw)
        wt *= (ii >= 0) & (ii < nx) & (jj >= 0) & (jj < ny)
        iic = np.minimum(np.maximum(ii, 0), nx - 1)
        jjc = np.minimum(np.maximum(jj, 0), ny - 1)
        term = wt * flat[iic * ny + jjc]
        out = term if out is None else out + term
    outside = (px < -L) | (px > L) | (py < -L) | (py > L)
    if np.any(outside):
        out = np.where(outside, 0.0, out)
    return out


def hull_sample_points(points, spec, px, py):
    """Reference for sample_points_xy: queries clamped onto the node hull,
    then four direct corner lookups in the (nx, ny, 2) point array."""
    L = spec.half_width
    h = spec.h
    nx, ny = spec.nx, spec.ny
    u = np.clip((px + L) / h - 0.5, 0.0, nx - 1.0)
    w = np.clip((py + L) / h - 0.5, 0.0, ny - 1.0)
    i0 = np.minimum(np.floor(u).astype(np.int64), nx - 2)
    j0 = np.minimum(np.floor(w).astype(np.int64), ny - 2)
    fu = (u - i0)[..., None]
    fw = (w - j0)[..., None]
    p00 = points[i0, j0]
    p10 = points[i0 + 1, j0]
    p01 = points[i0, j0 + 1]
    p11 = points[i0 + 1, j0 + 1]
    return ((1.0 - fu) * (1.0 - fw) * p00 + fu * (1.0 - fw) * p10
            + (1.0 - fu) * fw * p01 + fu * fw * p11)


def strided_window_mean(x, w):
    """Reference for harness._window_mean: numpy's mean over a strided view
    of every w x w window."""
    return np.lib.stride_tricks.sliding_window_view(x, (w, w)).mean(axis=(2, 3))


def full_grid_rasterise(grid, background, discs, triangles, ellipses):
    """Reference for harness._rasterise: every shape's mask over the whole
    supersampled grid, from 2-D meshgrid coordinates, added in shape order."""
    sub = GridSpec(grid.half_width, grid.nx * _SUPER, grid.ny * _SUPER)
    xx, yy = np.meshgrid(sub.xs(), sub.ys(), indexing="ij")
    fine = np.full(xx.shape, float(background))
    for d in discs:
        fine += d.intensity * _disc_mask(xx, yy, d)
    for t in triangles:
        fine += t.intensity * _triangle_mask(xx, yy, t)
    for e in ellipses:
        fine += e.intensity * _ellipse_mask(xx, yy, e)
    return Image(grid, _downsample(fine, grid))
