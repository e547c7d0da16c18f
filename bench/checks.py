"""Output checks, each made apart from the solver.

(a) adjoint identity of the ray transform on the workload's geometry;
(b) forward projection of a centred disc against its analytic chords;
(c) the objective history never rises and ends below its start;
(d) the final image is closer to the truth than the template (plain L2);
(e) gated only: the mean per-gate error beats both the concatenated FBP and
    the template.
Checks (a) and (b) run once per run, on the geometry the run's seed gives;
the others run on every solve, together with a check that the solve ran its
whole iteration budget, since a solve that stops early would read as fast.
Each check is (name, passed, detail).
"""

from __future__ import annotations

import numpy as np

from metamorph.experiments import concatenated_fbp
from metamorph.grid import Image
from metamorph.harness import Disc, PhantomSpec, make_phantom
from metamorph.ray import Sinogram, back_project, forward_project

# <Tf, g> and <f, T*g> are sums of the same products in another order
ADJOINT_TOL = 1e-10
# a pixelised disc edge shifts each of a chord's two ends by at most half a
# grid spacing, so inside 0.9 of the radius the projection may differ from
# the analytic chord by up to one grid spacing h
CHORD_TOL_H = 1.0


def geometries(workload, case):
    if workload.gated:
        return [sino.geometry for _, sino in case.gated.gates]
    return [case.geometry]


def adjoint_defect(spec, geo, seed: int) -> float:
    rng = np.random.default_rng(seed)
    f = Image(spec, rng.normal(size=spec.shape))
    g = Sinogram(geo, rng.normal(size=(geo.n_angles, geo.n_det)))
    tf = forward_project(f, geo)
    lhs = float(np.sum(tf.values * g.values)) * geo.delta_angle * geo.delta_det
    rhs = float(np.sum(f.values * back_project(g, spec).values)) * spec.h ** 2
    return abs(lhs - rhs) / (np.linalg.norm(tf.values) * np.linalg.norm(g.values))


def chord_error(spec, geo) -> float:
    """Largest |projection - chord| inside 0.9 r, in units of h."""
    r = spec.half_width / 2.0
    disc = make_phantom(PhantomSpec("discs", discs=(Disc(0.0, 0.0, r, 1.0),)), spec)
    s = geo.det_offsets()
    inner = np.abs(s) <= 0.9 * r
    chord = 2.0 * np.sqrt(r * r - s[inner] ** 2)
    rows = forward_project(disc, geo).values[:, inner]
    return float(np.max(np.abs(rows - chord))) / spec.h


def l2(a, b) -> float:
    return float(np.linalg.norm(a.values - b.values))


def geometry_checks(workload, case, seed: int) -> list[tuple[str, bool, str]]:
    """Checks (a) and (b); they depend only on the run's seed, not on a solve."""
    spec = case.spec
    geos = geometries(workload, case)
    defect = max(adjoint_defect(spec, geo, seed) for geo in geos)
    chord = max(chord_error(spec, geo) for geo in geos)
    return [("adjoint", defect <= ADJOINT_TOL, f"defect {defect:.2e} <= {ADJOINT_TOL:g}"),
            ("chord", chord <= CHORD_TOL_H, f"error {chord:.3f} h <= {CHORD_TOL_H:g} h")]


def solve_checks(workload, case, report) -> list[tuple[str, bool, str]]:
    """Checks (c), (d) and, for gated data, (e) on one solve's outputs, and
    that the solve ran its whole iteration budget."""
    hist = report.objective_history
    monotone = all(b <= a for a, b in zip(hist, hist[1:])) and hist[-1] < hist[0]
    full = (report.iterations_used == workload.iterations
            and report.stop_reason == "max_iters")
    out = [("descent", monotone, f"{hist[0]:.6g} -> {hist[-1]:.6g} never rising"),
           ("budget", full, f"{report.iterations_used} of {workload.iterations} "
                            f"iterations, stop reason {report.stop_reason}")]
    traj = report.trajectories.image_traj
    if workload.gated:
        gates = [k for k, _ in case.gated.gates]
        fbp_img = concatenated_fbp(case)
        recon = float(np.mean([l2(traj[k], case.frames[k]) for k in gates]))
        fbp_err = float(np.mean([l2(fbp_img, case.frames[k]) for k in gates]))
        tmpl = float(np.mean([l2(case.template, case.frames[k]) for k in gates]))
        out.append(("gated", recon < fbp_err and recon < tmpl,
                    f"L2 {recon:.3f} < fbp {fbp_err:.3f}, template {tmpl:.3f}"))
    else:
        recon = l2(traj[-1], case.target)
        tmpl = l2(case.template, case.target)
        out.append(("closer", recon < tmpl, f"L2 {recon:.3f} < template {tmpl:.3f}"))
    return out
