"""Objective functional for indirect registration and its (v, zeta) gradient.

The objective is

    J(v, zeta) = gamma/2 |v|_2^2 + tau/2 |zeta|_2^2 + D(T(f_1), g)

with f_1 the end of the image trajectory and D the quadrature-weighted
squared sinogram distance, D(T f, g) = dtheta ds sum (T f - g)^2 over the
angle and detector bins of g's geometry.  Each control holds N entries, one per time
step, and time integrals use the left rectangle rule with weight 1/N over
them.  The velocity norm is monitored through its plain L2 surrogate; the
descent direction is unaffected since the kernel smoothing is applied to the
data term only.

The forward model is the semi-Lagrangian step of metamorphosis.py,
f_{k+1} = S_k (f_k + (1/N) zeta_k), with S_k the bilinear stencil of the
departure points x - (1/N) v_k(x).  The controls v_k and zeta_k drive the
step from t_k to t_{k+1}, so both pair with the residual carried to level
k+1:

    grad_v(t_k)    = gamma v_k - K * ( L_{k+1} G_k ),   G_k = S_k grad(f_k + (1/N) zeta_k)
    grad_zeta(t_k) = tau zeta_k + S_k^T L_{k+1}

with grad the central-difference gradient.  L is the residual transported
back by the exact transpose of the forward step, in one sweep over all
gates at once:

    L_M = r_M,   L_k = S_k^T L_{k+1} + r_k

where r_e = 2 T^*(T f_{t_e} - g) is the image-space residual gradient of
the gate at index e (zero where no gate ends) and M is the last gate index.
S_k^T scatters each node's value to the four corners it was read from, so
the intensity gradient is exact for the discrete model, and G_k samples the
image gradient at the same departure points.  The same core runs any list
of (end index, data) pairs, so the gated multi-time-point objective reuses
it verbatim; a gate contributes only to the controls before its index, and
controls M..N-1 carry the penalty gradients alone.

Gate indices must be strictly increasing in 1..N; nothing here checks
that.  spatiotemporal.GatedData does, where a gate list enters the library,
and optimizer.reconstruct builds its one gate at N.

The forward model is built in one place, evaluate_parts, and returned as a
ForwardState: the levels f_0..f_M as plain arrays (f_0 is the template's
own), the step stencils S_0..S_{M-1} and the residual T f_e - g_e per
gate, as a plain array in g_e's geometry; only the levels forward_project
reads are wrapped as Images.  The residual is all the data term needs: the
evaluation sums its squares, and the gradient back-projects twice it.  The gradient at the same
(v, zeta) reads the state, as the optimizer's final trajectories do, so S_k
is built once per accepted iterate.  Each stencil is stored compactly
(grid.Stencil, 24 bytes per node), so a level and its stencil hold 32 bytes
per node.

evaluate_parts builds the model one time level at a time (image_levels) and
projects each gate as soon as its level exists, adding the discrepancies in
gate order from 0.  It returns None as soon as not (v_term + z_term + data
<= bound) for the data gathered so far; the line search passes the current
objective, and the default bound, inf, rejects only a NaN.  That early
answer is exact: every discrepancy is >= 0 and rounded addition is
monotone, so the running total never falls as gates are added, and a
candidate cut after gate k would fail the same test with all gates in.  An
evaluation that is not cut computes the same values, in the same order,
whatever the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import TimeVaryingScalarField, TimeVaryingVectorField
from .grid import Image, Stencil, _central_difference
from .kernel import KernelSpec, _kernel_product
from .metamorphosis import _check_consistent, image_levels
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


def velocity_norm_sq(v: TimeVaryingVectorField) -> float:
    """Left-rectangle time quadrature of the L2 surrogate |v(t)|^2."""
    hsq = v.spec.h ** 2
    return v.tgrid.dt * sum(float(np.sum(vx * vx) + np.sum(vy * vy)) * hsq
                            for vx, vy in v.values)


def intensity_norm_sq(zeta: TimeVaryingScalarField) -> float:
    hsq = zeta.spec.h ** 2
    return zeta.tgrid.dt * sum(float(np.sum(z * z)) * hsq for z in zeta.values)


@dataclass
class ForwardState:
    """Levels f_0..f_M as arrays (M the last gate index), the step stencils
    S_0..S_{M-1} and the residual T f_e - g_e per gate, as one evaluation
    built them for the gradient and the trajectories at the same (v, zeta)."""

    images: list[np.ndarray]
    stencils: list[Stencil]
    residuals: list[np.ndarray]


def evaluate_parts(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                   I0: Image, gates: list[tuple[int, Sinogram]], params: RegParams,
                   bound: float = np.inf
                   ) -> tuple[float, float, float, float, ForwardState] | None:
    """(total, data, velocity and intensity terms, forward state) for gated data.

    None as soon as the running total exceeds the bound or is NaN (a NaN
    total is rejected with or without a bound); see the module docstring.
    """
    _check_consistent(v, zeta, I0)
    v_term = 0.5 * params.gamma * velocity_norm_sq(v)
    z_term = 0.5 * params.tau * intensity_norm_sq(zeta)
    levels = image_levels(v, zeta, I0.values, 0, gates[-1][0])
    images = [I0.values]
    stencils = []
    residuals = []
    data = 0
    for end, g in gates:
        while len(images) <= end:
            stencil, f = next(levels)
            stencils.append(stencil)
            images.append(f)
        geo = g.geometry
        r = forward_project(Image(v.spec, images[end]), geo).values - g.values
        residuals.append(r)
        data = data + float(np.sum(r * r)) * geo.delta_angle * geo.delta_det
        if not (v_term + z_term + data <= bound):
            return None
    state = ForwardState(images, stencils, residuals)
    return v_term + z_term + data, data, v_term, z_term, state


def gradient_core(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                  state: ForwardState, gates: list[tuple[int, Sinogram]],
                  params: RegParams, kernel: KernelSpec
                  ) -> tuple[TimeVaryingVectorField, TimeVaryingScalarField]:
    """Full gradient for (end index, sinogram) gates from evaluate_parts' state.

    One backward sweep from the last gate, which builds no stencil: the
    forward state supplies each step's stencil S_k, as the evaluation built
    it, the image f_k, whose sampled gradient is G_k, and each gate's
    residual, whose back projection the sweep carries to every level through
    S_k^T.  Each level derives S_k's weights once, for G_k and for S_k^T.
    The state is only read, so one state serves any number of calls.
    """
    spec = v.spec
    h = spec.h
    dt = v.tgrid.dt
    # 2 T^*(T f_e - g_e), the image-space gradient of gate e's discrepancy
    residuals = {end: back_project(Sinogram(g.geometry, 2.0 * r), spec).values
                 for r, (end, g) in zip(state.residuals, gates)}
    last = gates[-1][0]

    # the penalty gradients; the data terms enter the controls before the
    # last gate
    grad_v = params.gamma * v.values
    grad_z = params.tau * zeta.values
    # L holds the residual carried back to level k+1, summed over the gates
    # at k+1 and later
    L = residuals[last]
    for k in range(last - 1, -1, -1):
        stencil = state.stencils[k]
        weights = stencil.weights()
        f = state.images[k] + dt * zeta.values[k]
        # one apply per component: a stacked (2, nx, ny) gather measured
        # about twice the time of two applies at 128^2
        Gx = stencil.apply(_central_difference(f, h, 0), weights)
        Gy = stencil.apply(_central_difference(f, h, 1), weights)
        smoothed_x, smoothed_y = _kernel_product(kernel, spec, L * Gx, L * Gy)
        grad_v[k, 0] -= smoothed_x
        grad_v[k, 1] -= smoothed_y
        carried = stencil.transpose(L, weights)
        grad_z[k] += carried
        L = carried + residuals.get(k, 0.0)
    return (TimeVaryingVectorField(v.tgrid, spec, grad_v),
            TimeVaryingScalarField(zeta.tgrid, spec, grad_z))
