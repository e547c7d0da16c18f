"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
even on success).  Tolerances are fixed here, not tuned at runtime; the
slower reconstruction-quality checks reuse the desk-scale experiment presets.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    FD_SPEC,
    fd_check,
    gradient_at,
    image_l2_inner,
    random_state,
    smooth_bump,
    vfield,
)
from metamorph.experiments import (
    concatenated_fbp,
    evolving_gated_case,
    head_phantom_case,
    intensity_mismatch_case,
    kernel_size_sweep,
    regularizer_sweep,
    shifted_disc_case,
    solve_case,
    solve_gated,
)
from metamorph.flow import TimeGrid, forward_levels
from metamorph.grid import GridSpec, Image, VectorImage
from metamorph.harness import Disc, PhantomSpec, add_noise, make_phantom, psnr, ssim
from metamorph.kernel import KernelSpec
from metamorph.metamorphosis import TimeVaryingScalarField, trajectories
from metamorph.objective import RegParams, evaluate_parts
from metamorph.optimizer import SolveConfig, reconstruct
from metamorph.ray import Geometry, Sinogram, back_project, forward_project
from metamorph.spatiotemporal import GatedData, reconstruct_gated

EXTENT = 16.0 * math.sqrt(2.0)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_adjoint_correctness():
    t0 = time.time()
    spec = GridSpec(16.0, 64, 64)
    geo = Geometry.uniform(30, 96, EXTENT)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        f = Image(spec, rng.normal(size=spec.shape))
        g = Sinogram(geo, rng.normal(size=(30, 96)))
        Tf = forward_project(f, geo)
        lhs = float(np.sum(Tf.values * g.values)) * geo.delta_angle * geo.delta_det
        rhs = image_l2_inner(f, back_project(g, spec))
        worst = max(worst, abs(lhs - rhs)
                    / (np.linalg.norm(Tf.values) * np.linalg.norm(g.values)))
    elapsed = time.time() - t0
    report("1 adjoint", worst <= 1e-10 and elapsed < 10,
           f"defect {worst:.2e} (<=1e-10), {elapsed:.1f}s (<10s)")


def test_02_disc_chord_oracle():
    t0 = time.time()
    spec = GridSpec(16.0, 128, 128)
    disc = make_phantom(PhantomSpec("discs", discs=(Disc(0.0, 0.0, 8.0, 1.0),)), spec)
    geo = Geometry.uniform(4, 128, EXTENT)
    sino = forward_project(disc, geo)
    s = geo.det_offsets()
    chord = np.where(np.abs(s) < 8.0, 2.0 * np.sqrt(np.maximum(64.0 - s * s, 0.0)), 0.0)
    worst = 0.0
    for row in sino.values:
        mask = np.abs(s) <= 0.9 * 8.0
        worst = max(worst, (np.abs(row[mask] - chord[mask]) / chord[mask]).max(),
                    np.abs(row - chord).max() / chord.max())
    elapsed = time.time() - t0
    report("2 ray oracle", worst <= 0.02 and elapsed < 5,
           f"max rel err {worst:.4f} (<=0.02), {elapsed:.1f}s (<5s)")


def _fd_check(n_steps, I0, gates, params, eps):
    v, zeta = random_state(n_steps, seed=3)
    grad = gradient_at(v, zeta, I0, gates, params)
    pairs, fds = fd_check(v, zeta, grad,
                          lambda v, z: evaluate_parts(v, z, I0, gates, params)[0], n_steps, eps)
    # relative to the batch scale: random directions can be near-orthogonal
    # to the gradient, where a per-direction ratio loses meaning
    batch_rel = np.abs(pairs - fds).max() / np.abs(fds).max()
    return batch_rel, float(np.median(np.abs(pairs - fds) / np.abs(fds)))


def test_03_gradient_matches_finite_differences():
    t0 = time.time()
    geo = Geometry.uniform(45, 64, EXTENT)
    I0 = smooth_bump(1.5, -1.0, 5.5, 1.0)
    target = smooth_bump(-1.5, 1.0, 6.0, 0.85)
    g = forward_project(target, geo)
    params = RegParams(1e-6, 1e-6)
    rel1, med1 = _fd_check(5, I0, [(5, g)], params, eps=0.02)

    frames = [Image(FD_SPEC, target.values * (0.5 + 0.5 * k / 6)) for k in range(7)]
    geos = [Geometry.uniform(m, 48, EXTENT) for m in (14, 15, 16)]
    gates = GatedData([(2, forward_project(frames[2], geos[0])),
                       (4, forward_project(frames[4], geos[1])),
                       (6, forward_project(frames[6], geos[2]))])
    rel2, med2 = _fd_check(6, I0, gates.gates, params, eps=0.04)
    elapsed = time.time() - t0
    ok = rel1 <= 1e-3 and rel2 <= 1e-3 and med1 <= 1e-3 and med2 <= 1e-3 and elapsed < 120
    report("3 gradient FD", ok,
           f"single {rel1:.2e} (median {med1:.2e}), gated {rel2:.2e} "
           f"(median {med2:.2e}) (<=1e-3), {elapsed:.1f}s (<120s)")


def test_04_flow_convergence_order():
    t0 = time.time()
    spec = GridSpec(16.0, 64, 64)
    omega = 0.4
    # the solver's builder: its end points phi_{0,1}(x) rotate x by +omega
    rot = np.array([[np.cos(omega), -np.sin(omega)],
                    [np.sin(omega), np.cos(omega)]])
    ident = spec.identity_points()
    mask = (np.abs(ident[..., 0]) <= 8.0) & (np.abs(ident[..., 1]) <= 8.0)
    errs = []
    for n in (8, 16, 32):
        v = vfield(TimeGrid(n), [
            VectorImage.from_function(spec, lambda x, y: (-omega * y, omega * x))] * n)
        *_, (end, _) = forward_levels(v, n)
        errs.append(np.linalg.norm(end[mask] - (ident[mask] @ rot.T), axis=-1).max())
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    elapsed = time.time() - t0
    ok = 1.6 <= r1 <= 2.4 and 1.6 <= r2 <= 2.4 and elapsed < 30
    report("4 flow order", ok,
           f"halving ratios {r1:.3f}, {r2:.3f} (in [1.6, 2.4]), {elapsed:.1f}s (<30s)")


def test_05_degeneracies():
    spec = GridSpec(16.0, 32, 32)
    rng = np.random.default_rng(5)
    from helpers import smooth_vec

    tg = TimeGrid(5)
    v = vfield(tg, [smooth_vec(rng, 1.0, spec=spec) for _ in range(5)])
    zeta0 = TimeVaryingScalarField.zeros(tg, spec)
    I0 = smooth_bump(1.0, -1.0, 5.0, 1.0, spec=spec)
    traj = trajectories(v, zeta0, I0)
    transport_ok = all(np.array_equal(a.values, b.values)
                       for a, b in zip(traj.image_traj, traj.deformation_traj))

    geo = Geometry.uniform(20, 48, EXTENT)
    g = forward_project(smooth_bump(-1.0, 1.0, 5.5, 0.8, spec=spec), geo)
    params = RegParams(1e-4, 1e-3)
    cfg = SolveConfig(max_iters=2)
    single = reconstruct(I0, g, KernelSpec(2.0), params, tg, cfg)
    gated = reconstruct_gated(I0, GatedData([(5, g)]), KernelSpec(2.0), params, tg, cfg)
    collapse_ok = (gated.objective_history == single.objective_history
                   and all(np.array_equal(a.values, b.values) for a, b in
                           zip(gated.trajectories.image_traj, single.trajectories.image_traj)))
    report("5 degeneracy", transport_ok and collapse_ok,
           f"zero-intensity transport bitwise: {transport_ok}, "
           f"single-gate collapse bitwise: {collapse_ok}")


def test_06_intensity_mismatch_margin():
    t0 = time.time()
    case = intensity_mismatch_case(nx=64, n_angles=60, psnr_db=15.0, seed=11)
    _, s_meta = solve_case(case, sigma=2.0, mode="metamorphosis", max_iters=100,
                           step_v=5e-4, step_zeta=1e-2)
    _, s_lddmm = solve_case(case, sigma=2.0, mode="lddmm", max_iters=100,
                            step_v=5e-4, step_zeta=1e-2)
    elapsed = time.time() - t0
    ok = s_meta >= s_lddmm + 0.05 and elapsed < 600
    report("6 intensity mismatch", ok,
           f"metamorphosis {s_meta:.3f} vs lddmm {s_lddmm:.3f} "
           f"(margin {s_meta - s_lddmm:+.3f} >= 0.05), {elapsed:.0f}s (<600s)")


def test_07_kernel_size_trend():
    t0 = time.time()
    case = head_phantom_case(nx=64, n_angles=60, psnr_db=10.6, seed=23)
    rows = kernel_size_sweep(case, [0.3, 2.0, 10.0], max_iters=120,
                             step_zeta=2e-3)
    scores = {s: v for s, v in rows}
    elapsed = time.time() - t0
    ok = scores[2.0] > scores[0.3] and scores[2.0] > scores[10.0] and elapsed < 1800
    report("7 kernel trend", ok,
           f"ssim {scores[0.3]:.3f} / {scores[2.0]:.3f} / {scores[10.0]:.3f} "
           f"at sigma 0.3/2/10 (interior max), {elapsed:.0f}s (<1800s)")


def test_08_regularizer_insensitivity():
    t0 = time.time()
    case = head_phantom_case(nx=48, n_angles=50, psnr_db=10.6, seed=23)
    weights = [1e-7, 1e-5, 1e-3, 1e-1]
    rows = regularizer_sweep(case, weights, weights, sigma=3.0, max_iters=80,
                             step_v=5e-4, step_zeta=2e-3)
    scores = [s for _, _, s in rows]
    spread = max(scores) - min(scores)
    elapsed = time.time() - t0
    ok = spread <= 0.05 and elapsed < 3600
    report("8 regularizer insensitivity", ok,
           f"ssim spread {spread:.4f} over 16 combos (<=0.05), {elapsed:.0f}s (<3600s)")


def test_09_gated_beats_static_fbp():
    t0 = time.time()
    case = evolving_gated_case(nx=64, n_gates=10, per_gate=10, seed=5, psnr_db=25.0)
    _, scores = solve_gated(case, sigma=2.0, max_iters=100,
                            step_v=5e-4, step_zeta=1e-2)
    fbp_img = concatenated_fbp(case)
    fbp_scores = [ssim(case.frames[k], fbp_img) for k, _ in case.gated.gates]
    tracked, static = float(np.mean(scores)), float(np.mean(fbp_scores))
    elapsed = time.time() - t0
    ok = tracked > static and elapsed < 1200
    report("9 spatiotemporal", ok,
           f"mean per-gate ssim tracked {tracked:.3f} > static fbp {static:.3f}, "
           f"{elapsed:.0f}s (<1200s)")


def test_10_noise_calibration():
    t0 = time.time()
    spec = GridSpec(16.0, 64, 64)
    disc = make_phantom(PhantomSpec("discs", discs=(Disc(0, 0, 6.0, 1.0),)), spec)
    sino = forward_project(disc, Geometry.uniform(20, 64, EXTENT))
    worst = 0.0
    for seed in range(100):
        noisy = add_noise(sino, 15.6, seed=seed)
        worst = max(worst, abs(psnr(sino, noisy) - 15.6))
    elapsed = time.time() - t0
    report("10 noise calibration", worst <= 0.05 and elapsed < 10,
           f"max |realised - target| {worst:.2e} dB (<=0.05), {elapsed:.1f}s (<10s)")


def test_11_monotone_descent():
    case = shifted_disc_case(nx=32, n_angles=20)
    hists = []
    for steps in ((5e-4, 1e-2), (5e-3, 5e-2)):
        rep, _ = solve_case(case, max_iters=30, step_v=steps[0], step_zeta=steps[1])
        hists.append(rep.objective_history)
    case2 = intensity_mismatch_case(nx=32, n_angles=20, psnr_db=15.0, seed=2)
    rep, _ = solve_case(case2, max_iters=30, step_v=5e-3, step_zeta=5e-2)
    hists.append(rep.objective_history)
    ok = all(all(b <= a for a, b in zip(h, h[1:])) for h in hists)
    report("11 monotone descent", ok,
           f"{len(hists)} histories non-increasing: {ok}")
