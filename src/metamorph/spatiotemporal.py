"""Gated multi-time-point objective: one trajectory matched to all gates.

Each gate pins the image trajectory at one time index with its own limited
geometry; the data terms add up and every gate contributes gradient only to
the controls before its time (its residual enters the gradient's backward
sweep at the gate index instead of at 1).  objective.evaluate_parts and
gradient_core take any gate list, so a single gate at the final index is the
single-target objective exactly; this module checks a gate list and solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import TimeGrid
from .grid import Image
from .kernel import KernelSpec
from .objective import RegParams
from .optimizer import SolveConfig, SolveReport, descend
from .ray import Sinogram


@dataclass
class GatedData:
    """Gates as (time index, sinogram) pairs, strictly increasing in 1..N.

    The library's one gate-list check: construction checks all but the upper
    end N, which check_against takes from a time grid.
    """

    gates: list[tuple[int, Sinogram]]

    def __post_init__(self):
        if not self.gates:
            raise ValueError("need at least one gate on the time grid 1..N")
        last = 0
        for k, _ in self.gates:
            if not isinstance(k, (int, np.integer)):
                raise ValueError(f"a gate index must be an integer, got {k!r}")
            if k < 1:
                raise ValueError(f"gate index {k} outside the time grid 1..N")
            if k <= last:
                raise ValueError(f"gate index {k} follows gate index {last}; "
                                 f"indices on the time grid 1..N must increase strictly")
            last = k
        self.gates = [(int(k), s) for k, s in self.gates]

    def check_against(self, tgrid: TimeGrid):
        n = tgrid.n_steps
        if self.gates[-1][0] > n:
            raise ValueError(f"gate index {self.gates[-1][0]} outside the time grid 1..{n}")


def gate_angles(n_gates: int, per_gate: int, seed: int) -> list[np.ndarray]:
    """Random gate angles: gate i draws uniformly from [(i-1)pi/G, i pi/G)."""
    for name, count in (("n_gates", n_gates), ("per_gate", per_gate)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(1, n_gates + 1):
        lo = (i - 1) * np.pi / n_gates
        hi = i * np.pi / n_gates
        out.append(np.sort(rng.uniform(lo, hi, size=per_gate)))
    return out


def reconstruct_gated(I0: Image, gated: GatedData, kernel: KernelSpec,
                      params: RegParams, tgrid: TimeGrid,
                      cfg: SolveConfig) -> SolveReport:
    """Recover one trajectory matching all gates by gradient descent."""
    gated.check_against(tgrid)
    return descend(I0, gated.gates, kernel, params, tgrid, cfg)
