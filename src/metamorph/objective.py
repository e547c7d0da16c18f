"""Objective functional for indirect registration and its (v, zeta) gradient.

The objective is

    J(v, zeta) = gamma/2 |v|_2^2 + tau/2 |zeta|_2^2 + D(T(f_1), g)

with f_1 the end of the image trajectory and D the quadrature-weighted
squared sinogram distance.  Time integrals use the left rectangle rule with
weight 1/N over the samples that actually drive the forward model (indices
0..N-1; sample N is inert in the Euler discretisation, so its gradient
entries are zero).  The velocity norm is monitored through its plain L2
surrogate; the descent direction is unaffected since the kernel smoothing is
applied to the data term only.

Velocity sample k drives the step from t_k to t_{k+1}, so its data gradient
pairs the carried residual and the image gradient of level k+1; the
intensity sample k enters the template sum at its own level:

    grad_v(t_k)    = gamma v_k - K * ( L_{k+1} G_{k+1} )
    grad_zeta(t_k) = tau zeta_k + L_k'

with G_i = grad f_{t_i} the central-difference gradient of the image
trajectory.  L is the residual transported back along the flow by one
first-order continuity (adjoint) sweep over all gates at once:

    L_{M} = r_M,   L_k' = max(1 + (1/N) div v_k, DET_FLOOR) * L_{k+1} o (Id + (1/N) v_k),
    L_k = L_k' + r_k

where r_e = 2 T^*(T f_{t_e} - g) is the image-space residual gradient of
the gate at index e (zero where no gate ends), M is the last gate index,
and DET_FLOOR keeps each step's volume factor positive.  This index
alignment makes the gradient exact against finite differences in the
zero-velocity limit.  The same core runs any list of (end index, data)
pairs, so the gated multi-time-point objective reuses it verbatim; a gate
contributes only to samples before its index, and samples M..N-1 carry the
penalty gradients alone.

Gate indices must be strictly increasing in 1..N; nothing here checks
that.  spatiotemporal.GatedData does, where a gate list enters the library,
and the single-data-set entries build their one gate at N.

The forward model (template evolution, flow maps, image trajectory and gate
projections) is built in one place, evaluate_parts.  It returns the image
trajectory and the projections as a ForwardState, and the gradient at the
same (v, zeta) reads them instead of building the model again.

evaluate_parts builds the model one time level at a time (image_levels) and
projects each gate as soon as its level exists, adding the discrepancies in
gate order from 0.  Given a bound (the line search passes the current
objective), it returns None as soon as not (v_term + z_term + data <= bound)
for the data gathered so far.  That early answer is exact: every
discrepancy is >= 0 and rounded addition is monotone, so the running total
never falls as gates are added, and a candidate cut after gate k would fail
the same test with all gates in.  A NaN anywhere makes the test fail too,
so it still rejects.  An evaluation that is not cut computes the same
values, in the same order, as one without a bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import DET_FLOOR, TimeVaryingVectorField, _one_step_queries
from .grid import (
    GridSpec,
    Image,
    VectorImage,
    divergence,
    gradient_central,
    sample_values_xy,
)
from .kernel import KernelSpec, kernel_apply, vfield_l2_norm_sq
from .metamorphosis import TimeVaryingScalarField, image_levels
from .ray import Sinogram, back_project, forward_project


@dataclass(frozen=True)
class RegParams:
    """Weights of the velocity and intensity penalties."""

    gamma: float
    tau: float

    def __post_init__(self):
        # NaN and inf fail these comparisons
        if not (0 <= self.gamma < np.inf and 0 <= self.tau < np.inf):
            raise ValueError("regularisation weights gamma and tau must be finite and nonnegative")


@dataclass
class GradientPair:
    grad_v: TimeVaryingVectorField
    grad_zeta: TimeVaryingScalarField


def data_discrepancy(a: Sinogram, b: Sinogram) -> float:
    """Squared sinogram distance with (delta_angle * delta_det) quadrature."""
    if not a.geometry.same_sampling(b.geometry):
        raise ValueError("sinograms must share one geometry")
    d = a.values - b.values
    return float(np.sum(d * d)) * a.geometry.delta_angle * a.geometry.delta_det


def discrepancy_gradient(a: Sinogram, b: Sinogram, spec: GridSpec) -> Image:
    """Image-space gradient of f -> D(T f, g) at T f = a, g = b."""
    if not a.geometry.same_sampling(b.geometry):
        raise ValueError("sinograms must share one geometry")
    return back_project(Sinogram(a.geometry, 2.0 * (a.values - b.values)), spec)


def velocity_norm_sq(v: TimeVaryingVectorField) -> float:
    """Left-rectangle time quadrature of the L2 surrogate |v(t)|^2."""
    dt = v.tgrid.dt
    return dt * sum(vfield_l2_norm_sq(s) for s in v.samples[:-1])


def intensity_norm_sq(zeta: TimeVaryingScalarField) -> float:
    dt = zeta.tgrid.dt
    hsq = zeta.spec.h ** 2
    return dt * sum(float(np.sum(s.values * s.values)) * hsq for s in zeta.samples[:-1])


@dataclass
class ForwardState:
    """Image trajectory f_0..f_M (M the last gate index) and T f_e per gate,
    as one evaluation built them for the gradient at the same (v, zeta)."""

    images: list[Image]
    projections: list[Sinogram]


def evaluate_parts(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                   I0: Image, gates: list[tuple[int, Sinogram]], params: RegParams,
                   bound: float | None = None
                   ) -> tuple[float, float, float, float, ForwardState] | None:
    """(total, data, velocity and intensity terms, forward state) for gated data.

    With a bound, returns None as soon as the running total exceeds it (or
    is NaN); see the module docstring for why that decides the full total.
    """
    v_term = 0.5 * params.gamma * velocity_norm_sq(v)
    z_term = 0.5 * params.tau * intensity_norm_sq(zeta)
    levels = image_levels(v, zeta, I0, gates[-1][0])
    images = []
    projections = []
    data = 0
    for end, g in gates:
        while len(images) <= end:
            images.append(next(levels))
        proj = forward_project(images[end], g.geometry)
        projections.append(proj)
        data = data + data_discrepancy(proj, g)
        if bound is not None and not (v_term + z_term + data <= bound):
            return None
    return v_term + z_term + data, data, v_term, z_term, ForwardState(images, projections)


def evaluate(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
             I0: Image, g: Sinogram, params: RegParams) -> float:
    """Objective value for a single end-time data set."""
    return evaluate_parts(v, zeta, I0, [(v.tgrid.n_steps, g)], params)[0]


def gradient_core(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                  state: ForwardState, gates: list[tuple[int, Sinogram]],
                  params: RegParams, kernel: KernelSpec) -> GradientPair:
    """Full gradient for (end index, sinogram) gates from evaluate_parts' state.

    One backward sweep from the last gate: the forward state supplies the
    image trajectory f_i, whose gradients are the G_i, and the gate
    projections, whose residuals the sweep carries to every level.  Velocity
    sample k pairs the carried residual and G of level k+1; the intensity
    sample k takes the residual carried to its own level k.
    """
    spec = v.spec
    n = v.tgrid.n_steps
    dt = v.tgrid.dt
    residuals = {end: discrepancy_gradient(proj, g, spec).values
                 for proj, (end, g) in zip(state.projections, gates)}
    last = gates[-1][0]

    grad_v = [None] * (n + 1)
    grad_z = [None] * (n + 1)
    for k in range(last, n):
        vk = v.samples[k]
        grad_v[k] = VectorImage(spec, params.gamma * vk.vx, params.gamma * vk.vy)
        grad_z[k] = Image(spec, params.tau * zeta.samples[k].values)
    # sample N never enters the Euler forward model
    grad_v[n] = VectorImage.zeros(spec)
    grad_z[n] = Image.zeros(spec)
    # L holds the residual carried back to level k+1, summed over the gates
    # at k+1 and later
    L = residuals[last]
    for k in range(last - 1, -1, -1):
        vk = v.samples[k]
        G = gradient_central(state.images[k + 1])
        smoothed = kernel_apply(VectorImage(spec, L * G.vx, L * G.vy), kernel)
        grad_v[k] = VectorImage(spec, params.gamma * vk.vx - smoothed.vx,
                                params.gamma * vk.vy - smoothed.vy)
        qx, qy = _one_step_queries(vk, dt)
        factor = np.maximum(1.0 + dt * divergence(vk).values, DET_FLOOR)
        carried = factor * sample_values_xy(L, spec, qx, qy)
        grad_z[k] = Image(spec, params.tau * zeta.samples[k].values + carried)
        L = carried + residuals.get(k, 0.0)
    return GradientPair(TimeVaryingVectorField(v.tgrid, grad_v),
                        TimeVaryingScalarField(zeta.tgrid, grad_z))


def gradient(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
             I0: Image, g: Sinogram, params: RegParams,
             kernel: KernelSpec) -> GradientPair:
    """Gradient of the single-data-set objective."""
    gates = [(v.tgrid.n_steps, g)]
    state = evaluate_parts(v, zeta, I0, gates, params)[4]
    return gradient_core(v, zeta, state, gates, params, kernel)
