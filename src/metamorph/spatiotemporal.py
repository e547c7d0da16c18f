"""Gated multi-time-point objective: one trajectory matched to all gates.

Each gate pins the image trajectory at one time index with its own limited
geometry; the data terms add up and every gate contributes gradient only to
instants before its time (its residual enters the gradient's backward sweep
at the gate index instead of at 1).  With a single gate at the final index
this collapses to the single-target objective exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import TimeGrid, TimeVaryingVectorField
from .grid import Image
from .kernel import KernelSpec
from .metamorphosis import TimeVaryingScalarField
from .objective import GradientPair, RegParams, evaluate_parts, gradient_core
from .optimizer import SolveConfig, SolveReport, descend
from .ray import Sinogram


@dataclass
class GatedData:
    """Gates as (time index, sinogram) pairs, strictly increasing in time."""

    gates: list[tuple[int, Sinogram]]

    def __post_init__(self):
        self.gates = [(int(k), s) for k, s in self.gates]
        if not self.gates:
            raise ValueError("need at least one gate")
        last = 0
        for k, _ in self.gates:
            if k < 1:
                raise ValueError(f"gate index {k} must be at least 1")
            if k <= last:
                raise ValueError("gate indices must be strictly increasing")
            last = k

    def check_against(self, tgrid: TimeGrid):
        if self.gates[-1][0] > tgrid.n_steps:
            raise ValueError(
                f"gate index {self.gates[-1][0]} exceeds the time grid ({tgrid.n_steps})"
            )


def gate_angles(n_gates: int, per_gate: int, seed: int) -> list[np.ndarray]:
    """Random gate angles: gate i draws uniformly from [(i-1)pi/G, i pi/G)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(1, n_gates + 1):
        lo = (i - 1) * np.pi / n_gates
        hi = i * np.pi / n_gates
        out.append(np.sort(rng.uniform(lo, hi, size=per_gate)))
    return out


def gated_evaluate(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                   I0: Image, gated: GatedData, params: RegParams) -> float:
    """Objective value summing per-gate discrepancies plus the regularisers."""
    gated.check_against(v.tgrid)
    return evaluate_parts(v, zeta, I0, gated.gates, params)[0]


def gated_gradient(v: TimeVaryingVectorField, zeta: TimeVaryingScalarField,
                   I0: Image, gated: GatedData, params: RegParams,
                   kernel: KernelSpec) -> GradientPair:
    """Gradient of the gated objective; regulariser terms added once."""
    gated.check_against(v.tgrid)
    return gradient_core(v, zeta, I0, gated.gates, params, kernel)


def reconstruct_gated(I0: Image, gated: GatedData, kernel: KernelSpec,
                      params: RegParams, tgrid: TimeGrid,
                      cfg: SolveConfig) -> SolveReport:
    """Recover one trajectory matching all gates by gradient descent."""
    gated.check_against(tgrid)
    return descend(I0, gated.gates, kernel, params, tgrid, cfg)
