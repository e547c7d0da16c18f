"""Transport of the image under a velocity and an intensity control.

In Eulerian form the metamorphosis is the transport equation
d_t f + v . grad f = zeta.  One semi-Lagrangian step advances it from t_k to
t_{k+1}:

    f_0 = I_0,   f_{k+1} = S_k (f_k + (1/N) zeta_k),

with S_k the bilinear stencil (zero extension) of the departure points
x - (1/N) v_k(x) of the nodes, built once per step by transport_stencil.
The controls v_k and zeta_k, k = 0..N-1, drive step k and nothing else.
Three trajectories are exposed:

* the image f_{t_i}: the step above, applied only by image_levels, which
  streams the levels as arrays, each with the stencil that reached it, so
  the objective can stop as soon as the levels it has seen decide it;
* the deformation part: the same step with zeta = 0, one more apply of each
  level's S_k, so geometry alone moves the template;
* the template part I(t_i): intensity alone, the running sum in the frame
  moving with the template,

      I(t_i) = I_0 + (1/N) * sum_{j < i} zeta_j o phi_{0, t_j},

  with zeta_j sampled through the stencil that also advects the points
  phi_{0,t_j} a step further (flow.forward_levels).

The objective runs image_levels from f_0 and keeps each step's stencil S_k
with the levels, so S_k is built once per accepted iterate and read again by
the gradient.  The optimizer calls trajectories once, when the solve is
done, with the last accepted evaluation's levels f_0..f_M; it resumes
image_levels after the last gate and wraps each level as an Image without
checking it again, since it derives from checked controls.  That is all a
solve builds.  The other two parts are built on their first read
(Trajectories): the deformation part builds each S_k again with
transport_stencil and applies it to the template, N builds and N applies,
and the template part runs evolve_template, N levels of forward_levels.
Callers that read only the image part (solve_case, solve_gated, sweep, the
benchmark) never pay for them; the CLI's reconstruct and gated, which write
all three, read both.  group_action is a standalone form the solver does
not call.  The intensity control is defined in flow.py, with v.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from .flow import (
    DeformationMap,
    TimeVaryingScalarField,
    TimeVaryingVectorField,
    _one_step_queries,
    forward_levels,
)
from .grid import Image, Stencil, _unchecked, bilinear_stencil, sample_values_xy


class Trajectories:
    """Image, deformation-only and template-only evolutions, each N+1 images.

    image_traj is built with the object.  deformation_traj and template_traj
    are built from the controls (v, zeta) and the template I0 when first
    read, and kept; a solve whose caller reads only the image part never
    builds them.
    """

    def __init__(self, v: TimeVaryingVectorField, zeta: TimeVaryingScalarField, I0: Image,
                 image_traj: list[Image]):
        self.image_traj = image_traj
        self._controls = (v, zeta, I0)

    @functools.cached_property
    def deformation_traj(self) -> list[Image]:
        """The template moved by each step's S_k alone, zeta = 0."""
        v, _, I0 = self._controls
        d = I0.values
        out = [I0.copy()]
        for k in range(v.tgrid.n_steps):
            d = transport_stencil(v, k).apply(d)
            out.append(_unchecked(Image, v.spec, d))
        return out

    @functools.cached_property
    def template_traj(self) -> list[Image]:
        """The template part I(t_i), through evolve_template."""
        return evolve_template(*self._controls)


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
        out.append(_unchecked(Image, v.spec, acc))
    return out


def transport_stencil(v: TimeVaryingVectorField, k: int) -> Stencil:
    """S_k: the stencil of the departure points x - (1/N) v_k(x) of the nodes."""
    qx, qy = _one_step_queries(v, k, -v.tgrid.dt)
    return bilinear_stencil(v.spec, qx, qy)


def image_levels(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                 f, start: int, end: int):
    """Yield each step's stencil S_k and the array f_{t_{k+1}} it reaches, for
    k = start..end-1, from f = f_{t_start}: the library's one image step."""
    dt = v.tgrid.dt
    for k in range(start, end):
        stencil = transport_stencil(v, k)
        f = stencil.apply(f + dt * zeta.values[k])
        yield stencil, f


def trajectories(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField, I0: Image,
                 images: Sequence = ()) -> Trajectories:
    """All three output trajectories; entry 0 of each is a copy of the template.

    Levels f_0..f_M, as an evaluation built them for these (v, zeta, I0),
    are read instead of being built again; image_levels resumes from f_M for
    the steps after M.  Only the image part is built here (Trajectories).
    """
    _check_consistent(v, zeta, I0)
    levels = [I0.values, *images[1:]]
    levels += [f for _, f in image_levels(v, zeta, levels[-1], len(levels) - 1,
                                          v.tgrid.n_steps)]
    image_traj = [I0.copy(), *(_unchecked(Image, v.spec, f) for f in levels[1:])]
    return Trajectories(v, zeta, I0, image_traj)
