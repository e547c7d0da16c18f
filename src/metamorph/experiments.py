"""Desk-scale experiment presets and data builders shared by the CLI, the
scripts and the test suite.

Each case builds a (template, target, data) triple from the phantom
generator, runs the solver, and reports structural similarity against the
known target; `sweep` is the one loop over a (sigma, gamma, tau) grid, run
by the sweep presets and the CLI.  Sizes default to 64x64 so a full case runs
in seconds to minutes; parameters scale up to the 256x256 setting via the CLI
config.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .flow import TimeGrid
from .grid import GridSpec, Image
from .harness import Disc, Ellipse, PhantomSpec, add_noise, make_phantom, psnr, ssim
from .kernel import KernelSpec
from .objective import RegParams
from .optimizer import SolveConfig, SolveReport, reconstruct
from .ray import Geometry, Sinogram, forward_project, lumped_fbp
from .spatiotemporal import GatedData, gate_angles, reconstruct_gated

DEFAULT_HALF_WIDTH = 16.0
# columns of a sweep row, in sweep.csv order after the CLI's id
SWEEP_FIELDS = ("sigma", "gamma", "tau", "ssim", "psnr")


def default_geometry(spec: GridSpec, n_angles: int = 60) -> Geometry:
    return Geometry.uniform(n_angles, 2 * spec.nx, spec.half_width * math.sqrt(2.0))


def project_with_noise(img: Image, geo: Geometry, psnr_db: float, seed: int) -> Sinogram:
    return add_noise(forward_project(img, geo), psnr_db, seed)


@dataclass
class Case:
    spec: GridSpec
    template: Image
    target: Image
    geometry: Geometry
    data: Sinogram


def shifted_disc_case(nx: int = 64, n_angles: int = 60,
                      shift_pixels: float = 2.0) -> Case:
    """Template and target are the same disc, offset by a couple of pixels."""
    spec = GridSpec(DEFAULT_HALF_WIDTH, nx, nx)
    shift = shift_pixels * spec.h
    target = make_phantom(PhantomSpec("discs", discs=(Disc(0.0, 0.0, 5.0, 1.0),)), spec)
    template = make_phantom(PhantomSpec("discs", discs=(Disc(shift, 0.0, 5.0, 1.0),)), spec)
    geo = default_geometry(spec, n_angles)
    return Case(spec, template, target, geo, forward_project(target, geo))


def intensity_mismatch_case(nx: int = 64, n_angles: int = 60,
                            psnr_db: float = 15.0, seed: int = 11) -> Case:
    """Matching geometry, wrong template background (0.2 instead of 0)."""
    spec = GridSpec(DEFAULT_HALF_WIDTH, nx, nx)
    disc = Disc(0.5, -0.5, 5.0, 1.0)
    target = make_phantom(PhantomSpec("discs", background=0.0, discs=(disc,)), spec)
    template = make_phantom(
        PhantomSpec("discs", background=0.2,
                    discs=(Disc(disc.cx - spec.h, disc.cy + spec.h, disc.r, 0.8),)),
        spec,
    )
    geo = default_geometry(spec, n_angles)
    return Case(spec, template, target, geo,
                project_with_noise(target, geo, psnr_db, seed))


def head_phantom_case(nx: int = 64, n_angles: int = 60,
                      psnr_db: float = 15.0, seed: int = 23) -> Case:
    """Head-style phantom: target is deformed and grows a bright disc."""
    spec = GridSpec(DEFAULT_HALF_WIDTH, nx, nx)
    template = make_phantom(PhantomSpec(
        "shepp_like",
        ellipses=(
            Ellipse(0.0, 0.0, 9.5, 11.5, 0.0, 1.0),
            Ellipse(-3.0, 2.5, 2.0, 3.2, 18.0, -0.45),
            Ellipse(3.0, 2.5, 2.0, 3.2, -18.0, -0.45),
        ),
    ), spec)
    target = make_phantom(PhantomSpec(
        "shepp_like",
        ellipses=(
            Ellipse(0.4, -0.5, 10.0, 11.0, 6.0, 1.0),
            Ellipse(-4.2, 1.2, 2.4, 3.4, 40.0, -0.45),
            Ellipse(4.4, 3.4, 1.7, 2.9, -40.0, -0.45),
        ),
        discs=(Disc(0.0, -5.5, 1.8, 0.55),),
    ), spec)
    geo = default_geometry(spec, n_angles)
    return Case(spec, template, target, geo,
                project_with_noise(target, geo, psnr_db, seed))


def _solve_settings(*, n_steps: int = 10, mode: str = "metamorphosis", max_iters: int = 120,
                    step_v: float = 2e-5, step_zeta: float = 2e-3):
    """(TimeGrid, SolveConfig) of the presets' solver keywords, with their defaults."""
    return TimeGrid(n_steps), SolveConfig(max_iters=max_iters, step_v=step_v,
                                          step_zeta=step_zeta, mode=mode)


def solve_case(case: Case, sigma: float = 2.0, gamma: float = 1e-5,
               tau: float = 1e-5, **solve_kw) -> tuple[SolveReport, float]:
    """Run one reconstruction; returns the report and the final-image SSIM.

    solve_kw are the solver keywords of _solve_settings: n_steps, mode,
    max_iters, step_v and step_zeta.
    """
    report = reconstruct(case.template, case.data, KernelSpec(sigma), RegParams(gamma, tau),
                         *_solve_settings(**solve_kw))
    recon = report.trajectories.image_traj[-1]
    return report, ssim(case.target, recon)


def scaled_solver(cfg: SolveConfig, sigma: float, sigma_ref: float) -> SolveConfig:
    """cfg with its velocity step, the step at kernel width sigma_ref, scaled to
    width sigma: step_v * (sigma_ref / sigma)^2 (see `sweep`).

    A scaled step that overflows or rounds to zero is a ValueError naming
    sigma, so a caller can reject it before any solve.
    """
    try:
        step_v = cfg.step_v * (sigma_ref / sigma) ** 2
    except OverflowError:
        step_v = math.inf
    if not 0 < step_v < math.inf:
        raise ValueError(f"kernel sigma {sigma!r}: the scaled velocity step {cfg.step_v!r} * "
                         f"({sigma_ref!r} / {sigma!r})^2 is not a finite positive number")
    return replace(cfg, step_v=step_v)


def sweep(case: Case, kernels, regs, tgrid: TimeGrid, cfg: SolveConfig,
          sigma_ref: float) -> Iterator[dict]:
    """Solve the case at every (kernel, regularisation) pair, kernels outermost,
    yielding each row of SWEEP_FIELDS as its solve finishes: the final image's
    SSIM and PSNR against the target.

    cfg.step_v is the velocity step at kernel width sigma_ref; width sigma
    steps by step_v * (sigma_ref / sigma)^2, since the smoothing gain grows with
    the kernel mass and an unscaled step would confound kernel size with step
    length.  At sigma = sigma_ref the factor is exactly 1: the plain solve.
    """
    for kernel in kernels:
        solver = scaled_solver(cfg, kernel.sigma, sigma_ref)
        for reg in regs:
            report = reconstruct(case.template, case.data, kernel, reg, tgrid, solver)
            recon = report.trajectories.image_traj[-1]
            yield dict(zip(SWEEP_FIELDS, (kernel.sigma, reg.gamma, reg.tau,
                                          ssim(case.target, recon), psnr(case.target, recon))))


def kernel_size_sweep(case: Case, sigmas, gamma: float = 1e-5, tau: float = 1e-5,
                      step_v: float = 5e-4, **solve_kw) -> list[tuple[float, float]]:
    """(sigma, SSIM) rows of `sweep` over kernel sizes at one (gamma, tau);
    step_v is the velocity step at sigma = 2, and solve_kw takes solve_case's
    other solver keywords."""
    rows = sweep(case, [KernelSpec(s) for s in sigmas], [RegParams(gamma, tau)],
                 *_solve_settings(step_v=step_v, **solve_kw), sigma_ref=2.0)
    return [(row["sigma"], row["ssim"]) for row in rows]


def regularizer_sweep(case: Case, gammas, taus, sigma: float = 3.0,
                      **solve_kw) -> list[tuple[float, float, float]]:
    """(gamma, tau, SSIM) rows of `sweep` over the regularisation grid at one
    kernel size, which takes solve_kw's step_v unscaled."""
    rows = sweep(case, [KernelSpec(sigma)], [RegParams(g, t) for g in gammas for t in taus],
                 *_solve_settings(**solve_kw), sigma_ref=sigma)
    return [(row["gamma"], row["tau"], row["ssim"]) for row in rows]


def gated_projections(frames: list[Image], n_gates: int, per_gate: int, n_det: int,
                      det_extent: float, psnr_db: float,
                      seed: int) -> list[tuple[int, Sinogram]]:
    """(t_index, sinogram) per gate: gate i of n_gates observes frame i*N // n_gates
    of f_0..f_N through its ``gate_angles`` draw, with noise seeded seed + i."""
    gates = []
    for i, angles in enumerate(gate_angles(n_gates, per_gate, seed), start=1):
        t_index = i * (len(frames) - 1) // n_gates
        geo = Geometry(angles, n_det, det_extent)
        gates.append((t_index, project_with_noise(frames[t_index], geo, psnr_db, seed + i)))
    return gates


@dataclass
class GatedCase:
    spec: GridSpec
    template: Image
    frames: list[Image]
    gated: GatedData
    tgrid: TimeGrid


def evolving_gated_case(nx: int = 64, n_gates: int = 10, per_gate: int = 10,
                        seed: int = 5, psnr_db: float = 25.0,
                        n_det: int | None = None) -> GatedCase:
    """Drifting disc plus an appearing disc, observed through gated data."""
    spec = GridSpec(DEFAULT_HALF_WIDTH, nx, nx)
    if n_det is None:
        n_det = 2 * spec.nx
    tgrid = TimeGrid(n_gates)
    times = tuple(tgrid.times())
    phantom = PhantomSpec(
        "evolving_sequence",
        discs=(Disc(-3.0, -2.0, 4.0, 1.0),),
        drift=(5.0, 3.0),
        growth=0.1,
        appear=Disc(4.5, 4.0, 2.2, 0.9),
        appear_time=0.45,
        appear_ramp=0.25,
        times=times,
    )
    frames = make_phantom(phantom, spec)
    gates = gated_projections(frames, n_gates, per_gate, n_det,
                              spec.half_width * math.sqrt(2.0), psnr_db, seed)
    return GatedCase(spec, frames[0], frames, GatedData(gates), tgrid)


def concatenated_fbp(case: GatedCase, cutoff: float = 0.8) -> Image:
    """Static FBP from all gate angles lumped into one acquisition.

    Each gate's rows go through its own detector and the operator its
    geometry already holds, so the call builds no ray operator.
    """
    return lumped_fbp([sino for _, sino in case.gated.gates], case.spec, cutoff)


def solve_gated(case: GatedCase, sigma: float = 2.0, gamma: float = 1e-5,
                tau: float = 1e-5, max_iters: int = 150, step_v: float = 2e-5,
                step_zeta: float = 2e-3) -> tuple[SolveReport, list[float]]:
    """Gated reconstruction; returns the report and per-gate SSIM values."""
    report = reconstruct_gated(
        case.template, case.gated, KernelSpec(sigma), RegParams(gamma, tau),
        case.tgrid, SolveConfig(max_iters=max_iters, step_v=step_v, step_zeta=step_zeta),
    )
    scores = [ssim(case.frames[k], report.trajectories.image_traj[k])
              for k, _ in case.gated.gates]
    return report, scores
