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
the gates at index e (zero where no gate ends, summed where several do), M
is the last gate index, and DET_FLOOR keeps each step's volume factor
positive.  This index alignment makes the gradient exact against finite
differences in the zero-velocity limit.  The same core runs any list of
(end index, data) pairs, so the gated multi-time-point objective reuses it
verbatim; a gate contributes only to samples before its index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import DET_FLOOR, TimeVaryingVectorField, _one_step_queries, maps_from_zero
from .grid import (
    GridSpec,
    Image,
    VectorImage,
    divergence,
    gradient_central,
    sample_values_xy,
)
from .kernel import KernelSpec, kernel_apply, vfield_l2_norm_sq
from .metamorphosis import TimeVaryingScalarField, evolve_template, group_action
from .ray import Sinogram, back_project, forward_project


@dataclass(frozen=True)
class RegParams:
    """Weights of the velocity and intensity penalties."""

    gamma: float
    tau: float

    def __post_init__(self):
        if self.gamma < 0 or self.tau < 0:
            raise ValueError("regularisation weights must be nonnegative")


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


def _check_inputs(v, zeta, I0):
    if zeta.tgrid != v.tgrid:
        raise ValueError("velocity and intensity control must share one time grid")
    if zeta.spec != v.spec or I0.spec != v.spec:
        raise ValueError("velocity, intensity control and template must share one grid")


def evaluate_parts(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                   I0: Image, gates: list[tuple[int, Sinogram]],
                   params: RegParams) -> tuple[float, float, float, float]:
    """(total, data term, velocity term, intensity term) for gated data."""
    _check_inputs(v, zeta, I0)
    template = evolve_template(v, zeta, I0)
    # the backward recursion's prefix property makes one chain serve all gates
    back = maps_from_zero(v, max(end for end, _ in gates))
    data = 0.0
    for end, g in gates:
        if end == 0:
            f_end = template[0]
        else:
            f_end = group_action(back[end], template[end])
        data += data_discrepancy(forward_project(f_end, g.geometry), g)
    v_term = 0.5 * params.gamma * velocity_norm_sq(v)
    z_term = 0.5 * params.tau * intensity_norm_sq(zeta)
    return v_term + z_term + data, data, v_term, z_term


def evaluate(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
             I0: Image, g: Sinogram, params: RegParams) -> float:
    """Objective value for a single end-time data set."""
    return evaluate_parts(v, zeta, I0, [(v.tgrid.n_steps, g)], params)[0]


def _data_gradient_arrays(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                          I0: Image, gates: list[tuple[int, Sinogram]]):
    """Pre-smoothing data-term gradients per sample.

    One forward pass builds the image trajectory f_i and its gradients G_i;
    one backward sweep carries the summed gate residuals to every level.
    Velocity sample k pairs the carried residual and G of level k+1; the
    intensity sample k takes the residual carried to its own level k.
    Returns (gv_x, gv_y, gz) lists over samples 0..N, zero past the last gate.
    """
    spec = v.spec
    n = v.tgrid.n_steps
    dt = v.tgrid.dt
    max_end = max(end for end, _ in gates)
    template = evolve_template(v, zeta, I0)
    back = maps_from_zero(v, max_end)
    images = [template[0]] + [group_action(back[i], template[i])
                              for i in range(1, max_end + 1)]

    residuals: dict[int, np.ndarray] = {}
    for end, g in gates:
        if end == 0:
            continue  # no sample precedes index 0, so its residual reaches none
        r = discrepancy_gradient(forward_project(images[end], g.geometry), g, spec).values
        residuals[end] = residuals.get(end, 0.0) + r

    gv_x = [np.zeros(spec.shape) for _ in range(n + 1)]
    gv_y = [np.zeros(spec.shape) for _ in range(n + 1)]
    gz = [np.zeros(spec.shape) for _ in range(n + 1)]
    # L holds the residual carried back to level k+1, summed over the gates
    # at k+1 and later
    L = residuals.get(max_end, 0.0)
    for k in range(max_end - 1, -1, -1):
        vk = v.samples[k]
        G = gradient_central(images[k + 1])
        gv_x[k] = L * G.vx
        gv_y[k] = L * G.vy
        qx, qy = _one_step_queries(vk, dt)
        factor = np.maximum(1.0 + dt * divergence(vk).values, DET_FLOOR)
        gz[k] = factor * sample_values_xy(L, spec, qx, qy)
        L = gz[k] + residuals.get(k, 0.0)
    return gv_x, gv_y, gz


def gradient_core(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                  I0: Image, gates: list[tuple[int, Sinogram]],
                  params: RegParams, kernel: KernelSpec) -> GradientPair:
    """Full gradient for a list of (end index, sinogram) gates."""
    _check_inputs(v, zeta, I0)
    spec = v.spec
    n = v.tgrid.n_steps
    gv_x, gv_y, gz = _data_gradient_arrays(v, zeta, I0, gates)
    grad_v = []
    grad_z = []
    for i in range(n + 1):
        if i < n:
            smoothed = kernel_apply(VectorImage(spec, gv_x[i], gv_y[i]), kernel)
            vi = v.samples[i]
            grad_v.append(VectorImage(spec,
                                      params.gamma * vi.vx - smoothed.vx,
                                      params.gamma * vi.vy - smoothed.vy))
            grad_z.append(Image(spec, params.tau * zeta.samples[i].values + gz[i]))
        else:
            # sample N never enters the Euler forward model
            grad_v.append(VectorImage.zeros(spec))
            grad_z.append(Image.zeros(spec))
    return GradientPair(TimeVaryingVectorField(v.tgrid, grad_v),
                        TimeVaryingScalarField(zeta.tgrid, grad_z))


def gradient(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
             I0: Image, g: Sinogram, params: RegParams,
             kernel: KernelSpec) -> GradientPair:
    """Gradient of the single-data-set objective."""
    return gradient_core(v, zeta, I0, [(v.tgrid.n_steps, g)], params, kernel)
