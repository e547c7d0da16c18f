"""Gradient descent on (v, zeta) with backtracking line search.

Plain first-order descent: each iteration steps against the gradient with
separate step sizes for the velocity and the intensity control (their scales
differ by orders of magnitude), halving both on failure to decrease the
objective.  The 'lddmm' mode freezes zeta at zero and follows the velocity
gradient only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flow import TimeGrid, TimeVaryingVectorField
from .grid import Image
from .kernel import KernelSpec
from .metamorphosis import TimeVaryingScalarField, Trajectories, trajectories
from .objective import GradientPair, RegParams, evaluate_parts, gradient_core
from .ray import Geometry, Sinogram

MODES = ("metamorphosis", "lddmm")
# columns of SolveReport.log_rows, in report.csv order
LOG_FIELDS = ("iter", "objective", "data_term", "v_term", "zeta_term",
              "step_v", "step_zeta")


class DivergenceError(RuntimeError):
    """Raised when the objective blows up with backtracking disabled."""


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 200
    step_v: float = 1e-5
    step_zeta: float = 1e-2
    backtracking: bool = True
    max_halvings: int = 20
    rel_tol: float = 1e-6
    mode: str = "metamorphosis"

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.step_v <= 0 or self.step_zeta <= 0:
            raise ValueError("step sizes must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class SolveReport:
    objective_history: list[float]
    iterations_used: int
    trajectories: Trajectories
    stop_reason: str
    log_rows: list[dict] = field(default_factory=list)
    final_v: TimeVaryingVectorField | None = None
    final_zeta: TimeVaryingScalarField | None = None


def _grad_is_zero(grad: GradientPair, lddmm: bool) -> bool:
    for s in grad.grad_v.samples:
        if np.any(s.vx) or np.any(s.vy):
            return False
    if not lddmm:
        for s in grad.grad_zeta.samples:
            if np.any(s.values):
                return False
    return True


def descend(I0: Image, gates: list[tuple[int, Sinogram]], kernel: KernelSpec,
            params: RegParams, tgrid: TimeGrid, cfg: SolveConfig) -> SolveReport:
    """Shared descent loop over a list of (end index, sinogram) gates."""
    spec = I0.spec
    lddmm = cfg.mode == "lddmm"
    v = TimeVaryingVectorField.zeros(tgrid, spec)
    zeta = TimeVaryingScalarField.zeros(tgrid, spec)

    total, data, v_term, z_term = evaluate_parts(v, zeta, I0, gates, params)
    initial = total
    history = [total]
    rows = [{"iter": 0, "objective": total, "data_term": data,
             "v_term": v_term, "zeta_term": z_term,
             "step_v": 0.0, "step_zeta": 0.0}]
    stop_reason = "max_iters"
    iterations = 0

    for it in range(1, cfg.max_iters + 1):
        iterations = it
        grad = gradient_core(v, zeta, I0, gates, params, kernel)
        if _grad_is_zero(grad, lddmm):
            stop_reason = "zero_gradient"
            break

        sv, sz = cfg.step_v, cfg.step_zeta
        accepted = False
        halvings = 0
        while True:
            v_new = v.add_scaled(grad.grad_v, -sv)
            zeta_new = zeta if lddmm else zeta.add_scaled(grad.grad_zeta, -sz)
            cand = evaluate_parts(v_new, zeta_new, I0, gates, params)
            if not cfg.backtracking:
                accepted = True
                break
            if cand[0] <= total:
                accepted = True
                break
            halvings += 1
            if halvings > cfg.max_halvings:
                break
            sv *= 0.5
            sz *= 0.5

        if not cfg.backtracking and cand[0] > 1e3 * max(initial, 1e-300):
            raise DivergenceError(
                f"objective {cand[0]:.6g} exceeds 1000x the initial value "
                f"{initial:.6g} at iteration {it}; reduce the step sizes"
            )
        if not accepted:
            stop_reason = "no_decrease"
            break

        v, zeta = v_new, zeta_new
        previous = total
        total, data, v_term, z_term = cand
        history.append(total)
        rows.append({"iter": it, "objective": total, "data_term": data,
                     "v_term": v_term, "zeta_term": z_term,
                     "step_v": sv, "step_zeta": 0.0 if lddmm else sz})
        if previous - total <= cfg.rel_tol * abs(previous):
            stop_reason = "converged"
            break

    return SolveReport(
        objective_history=history,
        iterations_used=iterations,
        trajectories=trajectories(v, zeta, I0),
        stop_reason=stop_reason,
        log_rows=rows,
        final_v=v,
        final_zeta=zeta,
    )


def reconstruct(I0: Image, g: Sinogram, geo: Geometry, kernel: KernelSpec,
                params: RegParams, tgrid: TimeGrid, cfg: SolveConfig) -> SolveReport:
    """Register a template against one data set acquired at the end time."""
    if not g.geometry.same_sampling(geo):
        raise ValueError("data geometry does not match the configured geometry")
    return descend(I0, [(tgrid.n_steps, g)], kernel, params, tgrid, cfg)
