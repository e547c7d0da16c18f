"""Transport of the image under a velocity and an intensity control.

In Eulerian form the metamorphosis is the transport equation
d_t f + v . grad f = zeta.  One semi-Lagrangian step advances it from t_k to
t_{k+1}:

    f_0 = I_0,   f_{k+1} = S_k (f_k + (1/N) zeta(t_k)),

with S_k the bilinear stencil (zero extension) of the departure points
x - (1/N) v(t_k, x) of the nodes, built once per step by transport_stencil.
Three trajectories are exposed:

* the image f_{t_i}: the step above (image_levels streams it level by level,
  so the objective can stop as soon as the levels it has seen decide the
  evaluation);
* the deformation part: the same step with zeta = 0, one more apply of each
  level's S_k, so geometry alone moves the template;
* the template part I(t_i): intensity alone, the running sum in the frame
  moving with the template,

      I(t_i) = I_0 + (1/N) * sum_{j < i} zeta(t_j, .) o phi_{0, t_j},

  with zeta(t_j) sampled through the stencil that also advects the points
  phi_{0,t_j} a step further (flow.forward_levels).

The objective reads image_levels only; the optimizer calls trajectories once,
when the solve is done.  evolve_template and group_action are standalone
forms the solver does not call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flow import (
    DeformationMap,
    TimeGrid,
    TimeVaryingVectorField,
    _check_samples,
    _one_step_queries,
    forward_levels,
)
from .grid import GridSpec, Image, Stencil, VectorImage, bilinear_stencil, sample_values_xy


@dataclass
class TimeVaryingScalarField:
    """Intensity-control samples zeta(t_i, .), i = 0..N."""

    tgrid: TimeGrid
    samples: list[Image]

    def __post_init__(self):
        self.samples = list(self.samples)
        _check_samples(self.samples, self.tgrid, "intensity control")

    @property
    def spec(self) -> GridSpec:
        return self.samples[0].spec

    @classmethod
    def zeros(cls, tgrid: TimeGrid, spec: GridSpec) -> "TimeVaryingScalarField":
        return cls(tgrid, [Image.zeros(spec) for _ in range(tgrid.n_steps + 1)])

    def add_scaled(self, other: "TimeVaryingScalarField", alpha: float) -> "TimeVaryingScalarField":
        return TimeVaryingScalarField(
            self.tgrid,
            [Image(s.spec, s.values + alpha * o.values)
             for s, o in zip(self.samples, other.samples)],
        )


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
    # level j's stencil carries zeta(t_j) to I(t_{j+1})
    for j, (_, stencil) in enumerate(forward_levels(v, end - 1)):
        acc = acc + dt * stencil.apply(zeta.samples[j].values)
        yield Image(v.spec, acc)


def evolve_template(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                    I0: Image) -> list[Image]:
    """Template values I(t_i) in the co-moving frame, i = 0..N."""
    _check_consistent(v, zeta, I0)
    return list(_template_levels(v, zeta, I0, v.tgrid.n_steps))


def transport_stencil(v_k: VectorImage, dt: float) -> Stencil:
    """S_k: the stencil of the departure points x - dt v_k(x) of the nodes."""
    qx, qy = _one_step_queries(v_k, -dt)
    return bilinear_stencil(v_k.spec, qx, qy)


def image_levels(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                 I0: Image, end: int):
    """Yield the image trajectory f_{t_i} for i = 0..end, one step per request."""
    _check_consistent(v, zeta, I0)
    dt = v.tgrid.dt
    f = I0.values
    yield I0.copy()
    for k in range(end):
        f = transport_stencil(v.samples[k], dt).apply(f + dt * zeta.samples[k].values)
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
        stencil = transport_stencil(v.samples[k], dt)
        f = stencil.apply(f + dt * zeta.samples[k].values)
        d = stencil.apply(d)
        out.image_traj.append(Image(v.spec, f))
        out.deformation_traj.append(Image(v.spec, d))
    return out
