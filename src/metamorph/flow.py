"""Euler discretisation of velocity flows on [0, 1].

A time-varying velocity field v is sampled at N+1 uniform instants; its flow
maps phi_{s,t} (transporting points from time s to time t) are approximated
by chaining one-step small deformations Id -+ (1/N) v(t_k, .).  Maps are
stored as node-wise point arrays and composed by bilinearly resampling the
outer map at the inner map's points.  Two builders serve the model:

* backward_levels: phi_{t_i,0} = phi_{t_{i-1},0} o (Id - (1/N) v(t_{i-1})),
                   for i = 0..end (the image trajectory, in the objective
                   and in the final trajectories, pulls back through it;
                   maps_from_zero lists the maps it yields)
* forward_levels:  the points phi_{0,t_k}(x) of the nodes x, advected one
                   Euler step per level, each with the bilinear stencil that
                   samples v(t_k) there; the template evolution samples zeta
                   through the same stencil, so a level builds one
                   (forward_maps lists the maps it yields)

Both are generators that take a step only when the next level is asked for,
so a caller that stops early (the objective does, once a line-search
candidate is rejected) builds no level past the one it stopped at.

maps_to_index (phi_{t_i,t_M}), jacobian_chain_to_index (the Jacobian
determinants of those maps, by the first-order recursion
|det| ~= (1 + (1/N) div v(t_i)) |det|_{i+1} o (Id + (1/N) v(t_i)), clamped
away from zero) and backward_advected_points (phi_{t_i,t_j} for j < i) are
not called by the solver; they stay only because the benchmark's tracer
wraps each of them by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    GridSpec,
    Image,
    Stencil,
    VectorImage,
    bilinear_stencil,
    divergence,
    sample_points_xy,
    sample_values_xy,
)

# lower clamp for Jacobian-determinant entries; the continuum determinant of a
# flow map is positive, dips below this are discretisation artifacts
DET_FLOOR = 1e-8


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, 1] into n_steps intervals, nodes i/n_steps."""

    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"need at least one time step, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) / self.n_steps


def _check_samples(samples, tgrid, kind):
    if len(samples) != tgrid.n_steps + 1:
        raise ValueError(
            f"{kind} needs {tgrid.n_steps + 1} samples, got {len(samples)}"
        )
    spec = samples[0].spec
    for s in samples:
        if s.spec != spec:
            raise ValueError(f"all {kind} samples must share one grid")


@dataclass
class TimeVaryingVectorField:
    """Velocity samples v(t_i, .), i = 0..N."""

    tgrid: TimeGrid
    samples: list[VectorImage]

    def __post_init__(self):
        self.samples = list(self.samples)
        _check_samples(self.samples, self.tgrid, "velocity")

    @property
    def spec(self) -> GridSpec:
        return self.samples[0].spec

    @classmethod
    def zeros(cls, tgrid: TimeGrid, spec: GridSpec) -> "TimeVaryingVectorField":
        return cls(tgrid, [VectorImage.zeros(spec) for _ in range(tgrid.n_steps + 1)])

    def add_scaled(self, other: "TimeVaryingVectorField", alpha: float) -> "TimeVaryingVectorField":
        return TimeVaryingVectorField(
            self.tgrid,
            [VectorImage(s.spec, s.vx + alpha * o.vx, s.vy + alpha * o.vy)
             for s, o in zip(self.samples, other.samples)],
        )


@dataclass
class DeformationMap:
    """Images of the grid nodes under one flow map, as an (nx, ny, 2) array."""

    spec: GridSpec
    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.shape != (self.spec.nx, self.spec.ny, 2):
            raise ValueError("deformation map points must have shape (nx, ny, 2)")
        if not np.isfinite(self.points).all():
            raise ValueError("deformation map points must be finite")

    @classmethod
    def identity(cls, spec: GridSpec) -> "DeformationMap":
        return cls(spec, spec.identity_points())


@dataclass
class JacobianChain:
    """Entry i approximates |det d phi_{t_i, t_end}| as an Image."""

    entries: list[Image]


def _clamp_points(pts: np.ndarray, spec: GridSpec) -> np.ndarray:
    # stored map points stay on the closed domain; fields vanish near the
    # boundary so drift outside is a discretisation artifact
    L = spec.half_width
    return np.clip(pts, -L, L)


def _one_step_queries(v_i: VectorImage, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """Node coordinates displaced by sign * (1/N) v(t_i) (exact node values)."""
    spec = v_i.spec
    qx = spec.xs()[:, None] + sign * v_i.vx
    qy = spec.ys()[None, :] + sign * v_i.vy
    return qx, qy


def _advect(points: np.ndarray, stencil: Stencil, v_i: VectorImage,
            dt_signed: float) -> np.ndarray:
    """points + dt * v(points), sampling v through the points' stencil
    (zero extension outside)."""
    out = np.empty_like(points)
    out[..., 0] = points[..., 0] + dt_signed * stencil.apply(v_i.vx)
    out[..., 1] = points[..., 1] + dt_signed * stencil.apply(v_i.vy)
    return _clamp_points(out, stencil.spec)


def backward_levels(v: TimeVaryingVectorField, end: int):
    """Yield the points of phi_{t_i,0} for i = 0..end (level 0 is the identity).

    The step to level i+1 composes level i with Id - (1/N) v(t_i), and no
    step is taken past level end.
    """
    spec = v.spec
    dt = v.tgrid.dt
    pts = spec.identity_points()
    for k in range(end + 1):
        yield pts
        if k < end:
            qx, qy = _one_step_queries(v.samples[k], -dt)
            pts = _clamp_points(sample_points_xy(pts, spec, qx, qy), spec)


# the solver reads backward_levels; the tests read this list, and the
# benchmark's tracer wraps it by name
def maps_from_zero(v: TimeVaryingVectorField, end: int | None = None) -> list[DeformationMap]:
    """Maps phi_{t_i,0} for i = 0..end (entry 0 is the identity)."""
    if end is None:
        end = v.tgrid.n_steps
    return [DeformationMap(v.spec, pts) for pts in backward_levels(v, end)]


# kept only because the benchmark's tracer wraps it by name
def maps_to_index(v: TimeVaryingVectorField, end: int) -> list[DeformationMap]:
    """Maps phi_{t_i, t_end} for i = 0..end, filled backward from the identity."""
    if not 0 <= end <= v.tgrid.n_steps:
        raise IndexError(f"end index {end} outside 0..{v.tgrid.n_steps}")
    spec = v.spec
    dt = v.tgrid.dt
    pts = spec.identity_points()
    out = [DeformationMap(spec, pts)]
    for i in range(end - 1, -1, -1):
        qx, qy = _one_step_queries(v.samples[i], dt)
        pts = _clamp_points(sample_points_xy(pts, spec, qx, qy), spec)
        out.append(DeformationMap(spec, pts))
    out.reverse()
    return out


def forward_levels(v: TimeVaryingVectorField, end: int):
    """Yield (points of phi_{0,t_k}, their stencil) for k = 0..end.

    The step to level k+1 samples v(t_k) through level k's stencil, so each
    level builds one, and no step is taken past level end.
    """
    spec = v.spec
    dt = v.tgrid.dt
    pts = spec.identity_points()
    for k in range(end + 1):
        stencil = bilinear_stencil(spec, pts[..., 0], pts[..., 1])
        yield pts, stencil
        if k < end:
            pts = _advect(pts, stencil, v.samples[k], dt)


# the solver reads forward_levels; the tests check the advection through this
# list, and the benchmark's tracer wraps it by name
def forward_maps(v: TimeVaryingVectorField, end: int | None = None) -> list[DeformationMap]:
    """Maps phi_{0,t_j} for j = 0..end, built by advecting the node points."""
    if end is None:
        end = v.tgrid.n_steps
    return [DeformationMap(v.spec, pts) for pts, _ in forward_levels(v, end)]


# kept only because the benchmark's tracer wraps it by name
def backward_advected_points(v: TimeVaryingVectorField, i: int):
    """Yield (j, points of phi_{t_i,t_j}) for j = i-1 down to 0.

    Each step advects the current points by -(1/N) v(t_j).
    """
    spec = v.spec
    dt = v.tgrid.dt
    pts = spec.identity_points()
    for j in range(i - 1, -1, -1):
        pts = _advect(pts, bilinear_stencil(spec, pts[..., 0], pts[..., 1]),
                      v.samples[j], -dt)
        yield j, pts


# kept only because the benchmark's tracer wraps it by name
def jacobian_chain_to_index(v: TimeVaryingVectorField, end: int) -> JacobianChain:
    """|det d phi_{t_i, t_end}| for i = 0..end via the divergence recursion."""
    if not 0 <= end <= v.tgrid.n_steps:
        raise IndexError(f"end index {end} outside 0..{v.tgrid.n_steps}")
    spec = v.spec
    dt = v.tgrid.dt
    det = np.ones(spec.shape)
    out = [Image(spec, det)]
    for i in range(end - 1, -1, -1):
        qx, qy = _one_step_queries(v.samples[i], dt)
        carried = sample_values_xy(det, spec, qx, qy)
        det = (1.0 + dt * divergence(v.samples[i]).values) * carried
        det = np.maximum(det, DET_FLOOR)
        out.append(Image(spec, det))
    out.reverse()
    return JacobianChain(out)
