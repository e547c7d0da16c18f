"""Transport of the image under a velocity and an intensity control.

In Eulerian form the metamorphosis is the transport equation
d_t f + v . grad f = zeta.  One semi-Lagrangian step advances it from t_k to
t_{k+1}:

    f_0 = I_0,   f_{k+1} = S_k (f_k + (1/N) zeta_k),

with S_k the bilinear stencil (zero extension) of the departure points
x - (1/N) v_k(x) of the nodes, built once per step by transport_stencil.
The controls v_k and zeta_k, k = 0..N-1, drive step k and nothing else.
Three trajectories are exposed:

* the image f_{t_i}: the step above (image_levels streams it step by step,
  each level with the stencil that reached it, so the objective can stop as
  soon as the levels it has seen decide the evaluation);
* the deformation part: the same step with zeta = 0, one more apply of each
  level's S_k, so geometry alone moves the template;
* the template part I(t_i): intensity alone, the running sum in the frame
  moving with the template,

      I(t_i) = I_0 + (1/N) * sum_{j < i} zeta_j o phi_{0, t_j},

  with zeta_j sampled through the stencil that also advects the points
  phi_{0,t_j} a step further (flow.forward_levels).

The objective reads image_levels only, and keeps each step's stencil S_k
with the levels, so S_k is built once per accepted iterate and read again by
the gradient and by trajectories.  The optimizer calls trajectories once,
when the solve is done, with the last accepted evaluation's levels and
stencils; it builds only the steps after the last gate, and the template
part, through evolve_template.  group_action is a standalone form the solver
does not call.  The intensity control is defined in flow.py, with v.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .flow import (
    DeformationMap,
    TimeVaryingScalarField,
    TimeVaryingVectorField,
    _one_step_queries,
    forward_levels,
)
from .grid import Image, Stencil, bilinear_stencil, sample_values_xy


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


def evolve_template(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                    I0: Image) -> list[Image]:
    """Template values I(t_i) in the co-moving frame, i = 0..N."""
    _check_consistent(v, zeta, I0)
    dt = v.tgrid.dt
    acc = I0.values
    out = [I0.copy()]
    # level j's stencil carries zeta_j to I(t_{j+1})
    for j, (_, stencil) in enumerate(forward_levels(v, v.tgrid.n_steps - 1)):
        acc = acc + dt * stencil.apply(zeta.values[j])
        out.append(Image(v.spec, acc))
    return out


def transport_stencil(v: TimeVaryingVectorField, k: int) -> Stencil:
    """S_k: the stencil of the departure points x - (1/N) v_k(x) of the nodes."""
    qx, qy = _one_step_queries(v, k, -v.tgrid.dt)
    return bilinear_stencil(v.spec, qx, qy)


def image_levels(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                 I0: Image, end: int):
    """Yield each step's stencil S_k and the level f_{t_{k+1}} it reaches,
    k = 0..end-1, one step per request (f_0 is I0)."""
    _check_consistent(v, zeta, I0)
    dt = v.tgrid.dt
    f = I0.values
    for k in range(end):
        stencil = transport_stencil(v, k)
        f = stencil.apply(f + dt * zeta.values[k])
        yield stencil, Image(v.spec, f)


def trajectories(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField, I0: Image,
                 images: Sequence[Image] = (), stencils: Sequence[Stencil] = ()
                 ) -> Trajectories:
    """All three output trajectories; entry 0 of each equals the template.

    images f_0..f_M and stencils S_0..S_{M-1}, as an evaluation built them
    for these (v, zeta, I0), are read instead of being built again; the
    steps after M are built here.
    """
    dt = v.tgrid.dt
    stencils = list(stencils)
    out = Trajectories([I0.copy(), *images[1:]], [I0.copy()], evolve_template(v, zeta, I0))
    f = out.image_traj[-1].values
    for k in range(len(stencils), v.tgrid.n_steps):
        stencils.append(transport_stencil(v, k))
        f = stencils[k].apply(f + dt * zeta.values[k])
        out.image_traj.append(Image(v.spec, f))
    d = I0.values
    for stencil in stencils:
        d = stencil.apply(d)
        out.deformation_traj.append(Image(v.spec, d))
    return out
