"""Transport of the image under a velocity and an intensity control.

In Eulerian form the metamorphosis is the transport equation
d_t f + v . grad f = zeta.  One semi-Lagrangian step advances it from t_k to
t_{k+1}:

    f_0 = I_0,   f_{k+1} = S_k (f_k + (1/N) zeta_k),

with S_k the bilinear stencil (zero extension) of the departure points
x - (1/N) v_k(x) of the nodes, built once per step by transport_stencil.
The controls v_k and zeta_k, k = 0..N-1, drive step k and nothing else.
Three trajectories are exposed:

* the image f_{t_i}: the step above (image_levels streams it level by level,
  so the objective can stop as soon as the levels it has seen decide the
  evaluation);
* the deformation part: the same step with zeta = 0, one more apply of each
  level's S_k, so geometry alone moves the template;
* the template part I(t_i): intensity alone, the running sum in the frame
  moving with the template,

      I(t_i) = I_0 + (1/N) * sum_{j < i} zeta_j o phi_{0, t_j},

  with zeta_j sampled through the stencil that also advects the points
  phi_{0,t_j} a step further (flow.forward_levels).

The objective reads image_levels only; the optimizer calls trajectories once,
when the solve is done.  evolve_template and group_action are standalone
forms the solver does not call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import (
    DeformationMap,
    TimeGrid,
    TimeVaryingVectorField,
    _control_array,
    _one_step_queries,
    forward_levels,
)
from .grid import GridSpec, Image, Stencil, bilinear_stencil, sample_values_xy


@dataclass
class TimeVaryingScalarField:
    """Intensity controls zeta_k, k = 0..N-1, as one (N, nx, ny) array;
    control k drives the step t_k -> t_{k+1}."""

    tgrid: TimeGrid
    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _control_array(
            self.values, (self.tgrid.n_steps, *self.spec.shape), "intensity control")

    @classmethod
    def zeros(cls, tgrid: TimeGrid, spec: GridSpec) -> "TimeVaryingScalarField":
        return cls(tgrid, spec, np.zeros((tgrid.n_steps, *spec.shape)))

    def add_scaled(self, other: "TimeVaryingScalarField", alpha: float) -> "TimeVaryingScalarField":
        return TimeVaryingScalarField(self.tgrid, self.spec, self.values + alpha * other.values)


@dataclass
class Trajectories:
    """Image, deformation-only and template-only evolutions, each N+1 images."""

    image_traj: list[Image]
    deformation_traj: list[Image]
    template_traj: list[Image]


def group_action(phi_inv: DeformationMap, img: Image) -> Image:
    """Pull an image back through a map: result(x) = img(phi_inv(x))."""
    if phi_inv.spec != img.spec:
        raise ValueError("map and image must share one grid")
    pts = phi_inv.points
    return Image(img.spec, sample_values_xy(img.values, img.spec, pts[..., 0], pts[..., 1]))


def _check_consistent(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField, I0: Image):
    if zeta.tgrid != v.tgrid or zeta.spec != v.spec or I0.spec != v.spec:
        raise ValueError("velocity, intensity control and template must be consistent")


def _template_levels(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                     I0: Image, end: int):
    """Yield the template values I(t_i) for i = 0..end."""
    dt = v.tgrid.dt
    acc = I0.values
    yield I0.copy()
    # level j's stencil carries zeta_j to I(t_{j+1})
    for j, (_, stencil) in enumerate(forward_levels(v, end - 1)):
        acc = acc + dt * stencil.apply(zeta.values[j])
        yield Image(v.spec, acc)


def evolve_template(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                    I0: Image) -> list[Image]:
    """Template values I(t_i) in the co-moving frame, i = 0..N."""
    _check_consistent(v, zeta, I0)
    return list(_template_levels(v, zeta, I0, v.tgrid.n_steps))


def transport_stencil(v: TimeVaryingVectorField, k: int) -> Stencil:
    """S_k: the stencil of the departure points x - (1/N) v_k(x) of the nodes."""
    qx, qy = _one_step_queries(v, k, -v.tgrid.dt)
    return bilinear_stencil(v.spec, qx, qy)


def image_levels(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                 I0: Image, end: int):
    """Yield the image trajectory f_{t_i} for i = 0..end, one step per request."""
    _check_consistent(v, zeta, I0)
    dt = v.tgrid.dt
    f = I0.values
    yield I0.copy()
    for k in range(end):
        f = transport_stencil(v, k).apply(f + dt * zeta.values[k])
        yield Image(v.spec, f)


def trajectories(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                 I0: Image) -> Trajectories:
    """All three output trajectories; entry 0 of each equals the template."""
    _check_consistent(v, zeta, I0)
    n = v.tgrid.n_steps
    dt = v.tgrid.dt
    out = Trajectories([I0.copy()], [I0.copy()], list(_template_levels(v, zeta, I0, n)))
    f = d = I0.values
    for k in range(n):
        stencil = transport_stencil(v, k)
        f = stencil.apply(f + dt * zeta.values[k])
        d = stencil.apply(d)
        out.image_traj.append(Image(v.spec, f))
        out.deformation_traj.append(Image(v.spec, d))
    return out
