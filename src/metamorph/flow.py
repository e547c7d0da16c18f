"""Euler discretisation of velocity flows on [0, 1], and the two controls.

Each control holds one entry per time step, entry k driving the step
t_k -> t_{k+1}, k = 0..N-1: the velocity v as one (N, 2, nx, ny) array, the
intensity control zeta as one (N, nx, ny) array, through one base class.
The velocity's flow maps phi_{s,t} (transporting points from time s to
time t) are approximated by chaining one-step small deformations
Id -+ (1/N) v_k.  Maps are stored as node-wise point arrays and composed by
bilinearly resampling the outer map at the inner map's points, through
grid's bilinear stencils (the library's one interpolant).  The image
trajectory does not use these maps: it is transported one semi-Lagrangian
step at a time (metamorphosis.py).

The solver reads one builder, the generator forward_levels: it yields the
points phi_{0,t_k}(x) of the nodes x, advected one Euler step per level,
each with the bilinear stencil that samples v_k there, and takes no step
before the next level is asked for.  The template part of the final
trajectories samples zeta through the same stencil, so a level builds one.
forward_maps lists the maps it yields.

maps_from_zero (phi_{t_i,0} = phi_{t_{i-1},0} o (Id - (1/N) v_{i-1})),
maps_to_index (phi_{t_i,t_M}), jacobian_chain_to_index (the Jacobian
determinants of those maps as Images, by the first-order recursion
|det| ~= (1 + (1/N) div v_i) |det|_{i+1} o (Id + (1/N) v_i), clamped away
from zero) and backward_advected_points (phi_{t_i,t_j} for j < i) are not
called by the solver; they stay for the tests and because the benchmark's
tracer wraps each of them by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    GridSpec,
    Image,
    Stencil,
    _central_difference,
    _checked,
    bilinear_stencil,
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
        if not isinstance(self.n_steps, (int, np.integer)):
            raise ValueError(f"the number of time steps must be an integer, got {self.n_steps!r}")
        if self.n_steps < 1:
            raise ValueError(f"need at least one time step, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) / self.n_steps


@dataclass
class _Control:
    """Controls k = 0..N-1 as one (N, *component, nx, ny) array; a subclass
    sets component, the shape of one node's value, and what, its name."""

    tgrid: TimeGrid
    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        shape = (self.tgrid.n_steps, *self.component, *self.spec.shape)
        self.values = _checked(self.values, shape, self.what)

    @classmethod
    def zeros(cls, tgrid: TimeGrid, spec: GridSpec):
        return cls(tgrid, spec, np.zeros((tgrid.n_steps, *cls.component, *spec.shape)))

    def add_scaled(self, other: "_Control", alpha: float):
        """self + alpha * other, for controls on the same time grid and grid."""
        if other.tgrid != self.tgrid or other.spec != self.spec:
            raise ValueError(f"cannot add a {other.what} on {other.tgrid}, {other.spec} "
                             f"to a {self.what} on {self.tgrid}, {self.spec}")
        return type(self)(self.tgrid, self.spec, self.values + alpha * other.values)


class TimeVaryingVectorField(_Control):
    """Velocity controls v_k as one (N, 2, nx, ny) array."""

    component = (2,)
    what = "velocity"


class TimeVaryingScalarField(_Control):
    """Intensity controls zeta_k as one (N, nx, ny) array."""

    component = ()
    what = "intensity control"


@dataclass
class DeformationMap:
    """Images of the grid nodes under one flow map, as an (nx, ny, 2) array."""

    spec: GridSpec
    points: np.ndarray

    def __post_init__(self):
        self.points = _checked(self.points, (*self.spec.shape, 2), "deformation map")

    @classmethod
    def identity(cls, spec: GridSpec) -> "DeformationMap":
        return cls(spec, spec.identity_points())


def _clamp_points(pts: np.ndarray, spec: GridSpec) -> np.ndarray:
    # stored map points stay on the closed domain; fields vanish near the
    # boundary so drift outside is a discretisation artifact
    L = spec.half_width
    return np.clip(pts, -L, L)


def _one_step_queries(v: TimeVaryingVectorField, k: int,
                      shift: float) -> tuple[np.ndarray, np.ndarray]:
    """Node coordinates displaced by shift * v_k (exact node values)."""
    spec = v.spec
    qx = spec.xs()[:, None] + shift * v.values[k, 0]
    qy = spec.ys()[None, :] + shift * v.values[k, 1]
    return qx, qy


def _advect(points: np.ndarray, stencil: Stencil, v_k: np.ndarray,
            dt_signed: float) -> np.ndarray:
    """points + dt * v_k(points), sampling the (2, nx, ny) control v_k
    through the points' stencil (zero extension outside)."""
    weights = stencil.weights()
    out = np.empty_like(points)
    out[..., 0] = points[..., 0] + dt_signed * stencil.apply(v_k[0], weights)
    out[..., 1] = points[..., 1] + dt_signed * stencil.apply(v_k[1], weights)
    return _clamp_points(out, stencil.spec)


def _composed_maps(v: TimeVaryingVectorField, steps, shift: float) -> list[DeformationMap]:
    """The identity, then for k in steps the last map composed with
    Id + shift * v_k."""
    spec = v.spec
    pts = spec.identity_points()
    out = [DeformationMap(spec, pts)]
    for k in steps:
        qx, qy = _one_step_queries(v, k, shift)
        pts = _clamp_points(sample_points_xy(pts, spec, qx, qy), spec)
        out.append(DeformationMap(spec, pts))
    return out


# the tests read this list, and the benchmark's tracer wraps it by name
def maps_from_zero(v: TimeVaryingVectorField, end: int | None = None) -> list[DeformationMap]:
    """Maps phi_{t_i,0} for i = 0..end (entry 0 is the identity).

    Entry i+1 composes entry i with Id - (1/N) v_i.
    """
    if end is None:
        end = v.tgrid.n_steps
    return _composed_maps(v, range(end), -v.tgrid.dt)


# kept only because the benchmark's tracer wraps it by name
def maps_to_index(v: TimeVaryingVectorField, end: int) -> list[DeformationMap]:
    """Maps phi_{t_i, t_end} for i = 0..end, filled backward from the identity."""
    if not 0 <= end <= v.tgrid.n_steps:
        raise IndexError(f"end index {end} outside 0..{v.tgrid.n_steps}")
    return _composed_maps(v, range(end - 1, -1, -1), v.tgrid.dt)[::-1]


def forward_levels(v: TimeVaryingVectorField, end: int):
    """Yield (points of phi_{0,t_k}, their stencil) for k = 0..end.

    The step to level k+1 samples v_k through level k's stencil, so each
    level builds one, and no step is taken past level end.
    """
    spec = v.spec
    dt = v.tgrid.dt
    pts = spec.identity_points()
    for k in range(end + 1):
        stencil = bilinear_stencil(spec, pts[..., 0], pts[..., 1])
        yield pts, stencil
        if k < end:
            pts = _advect(pts, stencil, v.values[k], dt)


# trajectories reads forward_levels; the tests check the advection through
# this list, and the benchmark's tracer wraps it by name
def forward_maps(v: TimeVaryingVectorField, end: int | None = None) -> list[DeformationMap]:
    """Maps phi_{0,t_j} for j = 0..end, built by advecting the node points."""
    if end is None:
        end = v.tgrid.n_steps
    return [DeformationMap(v.spec, pts) for pts, _ in forward_levels(v, end)]


# kept only because the benchmark's tracer wraps it by name
def backward_advected_points(v: TimeVaryingVectorField, i: int):
    """Yield (j, points of phi_{t_i,t_j}) for j = i-1 down to 0.

    Each step advects the current points by -(1/N) v_j.
    """
    spec = v.spec
    dt = v.tgrid.dt
    pts = spec.identity_points()
    for j in range(i - 1, -1, -1):
        pts = _advect(pts, bilinear_stencil(spec, pts[..., 0], pts[..., 1]),
                      v.values[j], -dt)
        yield j, pts


# kept only because the benchmark's tracer wraps it by name
def jacobian_chain_to_index(v: TimeVaryingVectorField, end: int) -> list[Image]:
    """|det d phi_{t_i, t_end}| for i = 0..end by the recursion in div v_i."""
    if not 0 <= end <= v.tgrid.n_steps:
        raise IndexError(f"end index {end} outside 0..{v.tgrid.n_steps}")
    spec = v.spec
    dt = v.tgrid.dt
    det = np.ones(spec.shape)
    out = [Image(spec, det)]
    for i in range(end - 1, -1, -1):
        qx, qy = _one_step_queries(v, i, dt)
        carried = sample_values_xy(det, spec, qx, qy)
        vx, vy = v.values[i]
        div = _central_difference(vx, spec.h, 0) + _central_difference(vy, spec.h, 1)
        det = (1.0 + dt * div) * carried
        det = np.maximum(det, DET_FLOOR)
        out.append(Image(spec, det))
    out.reverse()
    return out
