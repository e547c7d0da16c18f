"""The benchmark's workloads: how each builds its inputs and runs its solve.

Each workload builds a ``metamorph.experiments`` case from a seed, with the
library's presets or, for gated64, ``gated_case`` below (that is its set-up),
and then runs one solve with a fixed iteration budget through
``solve_case`` or ``solve_gated``, with their default kernel (sigma = 2) and
regularisation (gamma = tau = 1e-5).  checks.py fails a solve that stops
before its budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from metamorph import harness
from metamorph.experiments import (
    DEFAULT_HALF_WIDTH,
    GatedCase,
    head_phantom_case,
    intensity_mismatch_case,
    project_with_noise,
    solve_case,
    solve_gated,
)
from metamorph.flow import TimeGrid
from metamorph.grid import GridSpec
from metamorph.harness import Disc, PhantomSpec
from metamorph.ray import Geometry
from metamorph.spatiotemporal import GatedData, gate_angles

# gated64 draws its gate angles from this seed, evolving_gated_case's
# default, and only its noise from the run's seed.  Angles drawn from the run's
# seed move final_objective_rel by about 15% between seeds.
GATE_ANGLE_SEED = 5


def gated_case(seed: int) -> GatedCase:
    """``evolving_gated_case(nx=64, n_gates=10, per_gate=10, psnr_db=25.0)``
    with the angles of GATE_ANGLE_SEED; gate i's noise is drawn from
    seed + i.  At seed 5 the two give the same case."""
    spec = GridSpec(DEFAULT_HALF_WIDTH, 64, 64)
    tgrid = TimeGrid(10)
    # called through its module, so that the traced run's wrapper sees it
    frames = harness.make_phantom(PhantomSpec(
        "evolving_sequence",
        discs=(Disc(-3.0, -2.0, 4.0, 1.0),),
        drift=(5.0, 3.0),
        growth=0.1,
        appear=Disc(4.5, 4.0, 2.2, 0.9),
        appear_time=0.45,
        appear_ramp=0.25,
        times=tuple(tgrid.times()),
    ), spec)
    det_extent = spec.half_width * math.sqrt(2.0)
    gates = []
    for i, angles in enumerate(gate_angles(10, 10, GATE_ANGLE_SEED), start=1):
        geo = Geometry(angles, 2 * spec.nx, det_extent)
        gates.append((i, project_with_noise(frames[i], geo, 25.0, seed + i)))
    return GatedCase(spec, frames[0], frames, GatedData(gates), tgrid)


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], object]  # seed -> case
    iterations: int
    gated: bool = False
    solve_kw: dict = field(default_factory=dict)

    def solve(self, case):
        """One solve; returns its report and the final SSIM (the mean over
        the gate frames for gated data)."""
        if self.gated:
            report, scores = solve_gated(case, max_iters=self.iterations, **self.solve_kw)
            return report, float(np.mean(scores))
        return solve_case(case, max_iters=self.iterations, **self.solve_kw)


WORKLOADS = {
    # ray transform dominates: 128^2 grid, 60 angles, N = 10, FFT kernel path
    "head128": Workload(
        lambda seed: head_phantom_case(nx=128, n_angles=60, psnr_db=15.0, seed=seed),
        iterations=5, solve_kw={"n_steps": 10}),
    # G-term advections dominate: N = 30 steps on a 64^2 grid, 30 angles
    "mismatch64_n30": Workload(
        lambda seed: intensity_mismatch_case(nx=64, n_angles=30, psnr_db=15.0, seed=seed),
        iterations=8, solve_kw={"n_steps": 30}),
    # line search backtracks; 10 gates of 10 random angles each, N = 10 gates
    "gated64": Workload(
        gated_case, iterations=8, gated=True,
        solve_kw={"step_v": 5e-4, "step_zeta": 1e-2}),
}
