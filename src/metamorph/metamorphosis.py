"""Template evolution under an intensity control and the geometric action.

The intensity control zeta adds material along the flow: in the frame moving
with the template the solution is the running sum

    I(t_i) = I_0 + (1/N) * sum_{j < i} zeta(t_j, .) o phi_{0, t_j}

and the observable image at time t is the template pushed through the flow,
f_t = I(t) o phi_{t,0}.  Three trajectories are exposed: the image (geometry
and intensity), the deformation part (geometry only), and the template part
(intensity only).

Every resampling goes through one bilinear stencil per point set: zeta(t_j)
is sampled with the stencil that also advects the points phi_{0,t_j} a step
further, and the image and deformation parts of level i share the stencil of
phi_{t_i,0}.

One generator advances the template I(t_i) and the stencil of phi_{t_i,0}
together.  The objective reads it through image_levels, so it can stop as
soon as the levels it has seen decide the evaluation; trajectories reads all
of it.  The solver calls neither evolve_template nor group_action.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flow import (
    DeformationMap,
    TimeGrid,
    TimeVaryingVectorField,
    _check_samples,
    backward_levels,
    forward_levels,
)
from .grid import GridSpec, Image, bilinear_stencil, sample_values_xy


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


def _levels(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
            I0: Image, end: int):
    """Yield (I(t_i), stencil of phi_{t_i,0}) for i = 0..end.

    The stencil is None at level 0: phi_{0,0} is the identity, so that level
    needs no resampling.  Each step advances the template sum and the back
    map by one level, so a caller that stops early builds no level past the
    one it stopped at.
    """
    spec = v.spec
    levels = zip(_template_levels(v, zeta, I0, end), backward_levels(v, end))
    for i, (template, pts) in enumerate(levels):
        yield template, None if i == 0 else bilinear_stencil(spec, pts[..., 0], pts[..., 1])


def image_levels(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                 I0: Image, end: int):
    """Yield the image trajectory f_{t_i} = I(t_i) o phi_{t_i,0} for i = 0..end."""
    _check_consistent(v, zeta, I0)
    for template, stencil in _levels(v, zeta, I0, end):
        if stencil is not None:
            template = Image(v.spec, stencil.apply(template.values))
            # free the stencil now rather than while the next level is built;
            # holding it that long made evaluations ~9% slower at 128^2
            del stencil
        yield template


def trajectories(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                 I0: Image) -> Trajectories:
    """All three output trajectories; entry 0 of each equals the template."""
    _check_consistent(v, zeta, I0)
    out = Trajectories([], [], [])
    for template, stencil in _levels(v, zeta, I0, v.tgrid.n_steps):
        out.template_traj.append(template)
        if stencil is None:
            out.image_traj.append(template.copy())
            out.deformation_traj.append(I0.copy())
        else:
            out.image_traj.append(Image(I0.spec, stencil.apply(template.values)))
            out.deformation_traj.append(Image(I0.spec, stencil.apply(I0.values)))
    return out
