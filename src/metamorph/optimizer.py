"""Gradient descent on (v, zeta) with backtracking line search.

Plain first-order descent: each iteration steps against the gradient with
separate step sizes for the velocity and the intensity control (their scales
differ by orders of magnitude), halving both on failure to decrease the
objective.  The 'lddmm' mode freezes zeta at zero and follows the velocity
gradient only.

Between the line search and the next gradient, descend keeps the accepted
candidate's (v, zeta), objective terms and forward state (image trajectory,
step stencils and gate projections); the gradient reads that state.  The
previous gradient is dropped first, which makes room for the stencils.
The last accepted state also gives the final trajectories their image part
up to the last gate, unless a line search that found no decrease dropped it.

Only the solve's inputs are checked (grid._checked): the template and the
data by their constructors, before descend.  The containers the loop
derives from them, the gradients of gradient_core, the candidates of
add_scaled and the projections, are not checked again, so no iteration runs
_checked.  The one test left in the loop is on the gradient: its two norms,
computed for the log anyway, must be finite, or descend raises a
ValueError naming them, rather than searching along a NaN direction.

Each candidate is evaluated against the current objective as a bound, so a
rejected one stops at the first gate whose running objective exceeds it;
accepted candidates are evaluated in full, and the iterates are those of a
search that evaluates every candidate in full.
Each log row records the evaluations its line search made (1 for row 0,
the initial evaluation) and the norms of the gradient its step followed, in
the dt h^2 quadrature of the penalty terms (0.0 for row 0, as its steps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import TimeGrid, TimeVaryingScalarField, TimeVaryingVectorField
from .grid import Image
from .kernel import KernelSpec
from .metamorphosis import Trajectories, trajectories
from .objective import RegParams, evaluate_parts, gradient_core
from .ray import Sinogram

MODES = ("metamorphosis", "lddmm")
# columns of SolveReport.log_rows, in report.csv order
LOG_FIELDS = ("iter", "objective", "data_term", "v_term", "zeta_term",
              "step_v", "step_zeta", "evals", "grad_v_norm", "grad_zeta_norm")
# halvings of both steps before a line search gives up
MAX_HALVINGS = 20


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 200
    step_v: float = 1e-5
    step_zeta: float = 1e-2
    rel_tol: float = 1e-6
    mode: str = "metamorphosis"

    def __post_init__(self):
        if not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        # NaN and inf fail these comparisons
        if not (0 < self.step_v < np.inf and 0 < self.step_zeta < np.inf):
            raise ValueError("step sizes step_v and step_zeta must be finite and positive")
        if not np.isfinite(self.rel_tol):
            raise ValueError(f"rel_tol must be finite, got {self.rel_tol}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class SolveReport:
    iterations_used: int
    trajectories: Trajectories
    stop_reason: str
    # one row of LOG_FIELDS per accepted iterate, row 0 the start
    log_rows: list[dict]
    final_v: TimeVaryingVectorField | None = None
    final_zeta: TimeVaryingScalarField | None = None

    @property
    def objective_history(self) -> list[float]:
        """The objective of each accepted iterate: the log's objective column."""
        return [row["objective"] for row in self.log_rows]


def descend(I0: Image, gates: list[tuple[int, Sinogram]], kernel: KernelSpec,
            params: RegParams, tgrid: TimeGrid, cfg: SolveConfig) -> SolveReport:
    """Shared descent loop over a list of (end index, sinogram) gates."""
    spec = I0.spec
    lddmm = cfg.mode == "lddmm"
    v = TimeVaryingVectorField.zeros(tgrid, spec)
    zeta = TimeVaryingScalarField.zeros(tgrid, spec)

    *terms, state = evaluate_parts(v, zeta, I0, gates, params)
    total = terms[0]
    rows = [dict(zip(LOG_FIELDS, (0, *terms, 0.0, 0.0, 1, 0.0, 0.0)))]
    stop_reason = "max_iters"

    for it in range(1, cfg.max_iters + 1):
        grad_v, grad_zeta = gradient_core(v, zeta, state, gates, params, kernel)
        if not (grad_v.values.any() or (not lddmm and grad_zeta.values.any())):
            stop_reason = "zero_gradient"
            break
        norms = (math.sqrt(grad_v.norm_sq()),
                 0.0 if lddmm else math.sqrt(grad_zeta.norm_sq()))
        if not math.isfinite(norms[0] + norms[1]):
            raise ValueError(f"the gradient is not finite: velocity norm {norms[0]!r}, "
                             f"intensity norm {norms[1]!r}")
        state = cand = None  # the line search holds one trajectory at a time

        sv, sz = cfg.step_v, cfg.step_zeta
        for evals in range(1, MAX_HALVINGS + 2):
            v_new = v.add_scaled(grad_v, -sv)
            zeta_new = zeta if lddmm else zeta.add_scaled(grad_zeta, -sz)
            # None: rejected; also None after the loop if no step was accepted
            cand = evaluate_parts(v_new, zeta_new, I0, gates, params, bound=total)
            if cand is not None:
                break
            sv *= 0.5
            sz *= 0.5

        if cand is None:
            stop_reason = "no_decrease"
            break

        v, zeta = v_new, zeta_new
        grad_v = grad_zeta = None  # freed, making room for the stored stencils
        previous = total
        *terms, state = cand
        total = terms[0]
        rows.append(dict(zip(LOG_FIELDS, (it, *terms, sv, 0.0 if lddmm else sz, evals, *norms))))
        if previous - total <= cfg.rel_tol * abs(previous):
            stop_reason = "converged"
            break

    # the last accepted state's levels, unless a failed line search dropped it
    known = state.images if state is not None else ()
    return SolveReport(
        iterations_used=it,
        trajectories=trajectories(v, zeta, I0, known),
        stop_reason=stop_reason,
        log_rows=rows,
        final_v=v,
        final_zeta=zeta,
    )


def reconstruct(I0: Image, g: Sinogram, kernel: KernelSpec, params: RegParams,
                tgrid: TimeGrid, cfg: SolveConfig) -> SolveReport:
    """Register a template against one data set acquired at the end time."""
    return descend(I0, [(tgrid.n_steps, g)], kernel, params, tgrid, cfg)
