"""Batch front-end: phantom generation, projection, reconstruction, metrics.

Every subcommand is driven by a plain sectioned key-value config file (INI
syntax).  Validation collects every problem before exiting, output files are
written atomically, and identical config + seed reproduces byte-identical
CSVs.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from pathlib import Path


class ConfigError(Exception):
    """Carries the full list of config problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ConfigReader:
    """Typed config access that accumulates problems instead of raising."""

    def __init__(self, path):
        self.parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        read = self.parser.read(path)
        self.problems: list[str] = []
        if not read:
            self.problems.append(f"config file {path} not found or unreadable")

    def _raw(self, section, key, default, required):
        if self.parser.has_option(section, key):
            return self.parser.get(section, key)
        if required:
            self.problems.append(f"[{section}] {key}: missing required key")
        return default

    def get_float(self, section, key, default=None, required=False):
        raw = self._raw(section, key, default, required)
        if raw is None or isinstance(raw, float):
            return raw
        try:
            return float(raw)
        except ValueError:
            self.problems.append(f"[{section}] {key}: not a number ({raw!r})")
            return default

    def get_int(self, section, key, default=None, required=False):
        raw = self._raw(section, key, default, required)
        if raw is None or isinstance(raw, int):
            return raw
        try:
            return int(raw)
        except ValueError:
            self.problems.append(f"[{section}] {key}: not an integer ({raw!r})")
            return default

    def get_bool(self, section, key, default=None, required=False):
        raw = self._raw(section, key, default, required)
        if raw is None or isinstance(raw, bool):
            return raw
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        self.problems.append(f"[{section}] {key}: not a boolean ({raw!r})")
        return default

    def get_str(self, section, key, default=None, required=False, choices=None):
        raw = self._raw(section, key, default, required)
        if raw is not None and choices and raw not in choices:
            self.problems.append(f"[{section}] {key}: expected one of {choices}, got {raw!r}")
            return default
        return raw

    def get_floats(self, section, key, default=None, required=False):
        raw = self._raw(section, key, None, required)
        if raw is None:
            return default
        try:
            return [float(tok) for tok in raw.replace(",", " ").split()]
        except ValueError:
            self.problems.append(f"[{section}] {key}: not a number list ({raw!r})")
            return default

    def get_input_path(self, section, key, required=True):
        raw = self._raw(section, key, None, required)
        if raw is None:
            return None
        p = Path(raw)
        if not p.exists():
            self.problems.append(f"[{section}] {key}: path {raw!r} does not exist")
            return None
        return p

    def finish(self):
        if self.problems:
            raise ConfigError(self.problems)


def _grid(cfg: ConfigReader):
    from .grid import GridSpec

    half_width = cfg.get_float("grid", "half_width", 16.0)
    nx = cfg.get_int("grid", "nx", 256)
    ny = cfg.get_int("grid", "ny", nx)
    try:
        return GridSpec(half_width, nx, ny)
    except (ValueError, TypeError) as exc:
        cfg.problems.append(f"[grid]: {exc}")
        return None


def _geometry(cfg: ConfigReader, spec):
    from .ray import Geometry

    n_angles = cfg.get_int("geometry", "n_angles", 100)
    n_det = cfg.get_int("geometry", "n_det", 362)
    default_extent = spec.half_width * math.sqrt(2.0) if spec else 22.6
    det_extent = cfg.get_float("geometry", "det_extent", default_extent)
    try:
        return Geometry.uniform(n_angles, n_det, det_extent)
    except (ValueError, TypeError) as exc:
        cfg.problems.append(f"[geometry]: {exc}")
        return None


def _solver(cfg: ConfigReader):
    from .optimizer import SolveConfig

    mode = cfg.get_str("solver", "mode", "metamorphosis",
                       choices=("metamorphosis", "lddmm", "fbp"))
    kw = dict(
        max_iters=cfg.get_int("solver", "max_iters", 200),
        step_v=cfg.get_float("solver", "step_v", 5e-4),
        step_zeta=cfg.get_float("solver", "step_zeta", 1e-2),
        backtracking=cfg.get_bool("solver", "backtracking", True),
        rel_tol=cfg.get_float("solver", "rel_tol", 1e-6),
        mode="metamorphosis" if mode == "fbp" else mode,
    )
    try:
        return mode, SolveConfig(**kw)
    except (ValueError, TypeError) as exc:
        cfg.problems.append(f"[solver]: {exc}")
        return mode, None


def _phantom_spec(cfg: ConfigReader):
    from .harness import Disc, Ellipse, PhantomSpec, Triangle

    kind = cfg.get_str("phantom", "kind", required=True,
                       choices=("discs", "triangle_pair", "shepp_like", "evolving_sequence"))
    background = cfg.get_float("phantom", "background", 0.0)
    shapes = {"discs": [], "triangles": [], "ellipses": []}
    if cfg.parser.has_section("phantom"):
        for key, raw in cfg.parser.items("phantom"):
            vals = None
            if key.startswith(("disc", "triangle", "ellipse")) and key[-1].isdigit():
                try:
                    vals = [float(tok) for tok in raw.replace(",", " ").split()]
                except ValueError:
                    cfg.problems.append(f"[phantom] {key}: not a number list ({raw!r})")
                    continue
            if vals is None:
                continue
            try:
                if key.startswith("disc"):
                    shapes["discs"].append(Disc(*vals))
                elif key.startswith("triangle"):
                    shapes["triangles"].append(
                        Triangle(((vals[0], vals[1]), (vals[2], vals[3]), (vals[4], vals[5])),
                                 vals[6] if len(vals) > 6 else 1.0))
                else:
                    shapes["ellipses"].append(Ellipse(*vals))
            except (TypeError, ValueError, IndexError) as exc:
                cfg.problems.append(f"[phantom] {key}: {exc}")
    if kind is None:
        return None
    kw = dict(kind=kind, background=background or 0.0,
              discs=tuple(shapes["discs"]), triangles=tuple(shapes["triangles"]),
              ellipses=tuple(shapes["ellipses"]))
    if kind == "evolving_sequence":
        steps = cfg.get_int("time", "steps", 10)
        drift = cfg.get_floats("phantom", "drift", [0.0, 0.0])
        kw.update(
            times=tuple(i / steps for i in range(steps + 1)),
            drift=(drift[0], drift[1]) if len(drift) == 2 else (0.0, 0.0),
            growth=cfg.get_float("phantom", "growth", 0.0),
            appear_time=cfg.get_float("phantom", "appear_time", 0.5),
            appear_ramp=cfg.get_float("phantom", "appear_ramp", 0.2),
        )
        appear = cfg.get_floats("phantom", "appear", None)
        if appear:
            kw["appear"] = Disc(*appear)
    try:
        return PhantomSpec(**kw)
    except (TypeError, ValueError) as exc:
        cfg.problems.append(f"[phantom]: {exc}")
        return None


def _out_dir(cfg: ConfigReader, args) -> Path:
    out = args.out or cfg.get_str("io", "out_dir", "out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _seed(cfg: ConfigReader, args, section="noise", default=0):
    if args.seed is not None:
        return args.seed
    return cfg.get_int(section, "seed", default)


def _write_rows_csv(path, fieldnames, rows):
    from .fileio import atomic_write_bytes

    import io as _io

    buf = _io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    atomic_write_bytes(path, buf.getvalue().encode())


def cmd_phantom(args) -> int:
    cfg = ConfigReader(args.config)
    spec = _grid(cfg)
    phantom = _phantom_spec(cfg)
    cfg.finish()
    from .fileio import write_image_raw, write_pgm
    from .harness import make_phantom

    out = _out_dir(cfg, args)
    result = make_phantom(phantom, spec)
    if isinstance(result, list):
        for i, frame in enumerate(result):
            write_image_raw(frame, out / f"phantom_{i:02d}.mimg")
            write_pgm(frame, out / f"phantom_{i:02d}.pgm")
        print(f"wrote {len(result)} frames to {out}")
    else:
        write_image_raw(result, out / "phantom.mimg")
        write_pgm(result, out / "phantom.pgm")
        print(f"wrote {out / 'phantom.mimg'}")
    return 0


def cmd_project(args) -> int:
    cfg = ConfigReader(args.config)
    spec = _grid(cfg)
    geo = _geometry(cfg, spec)
    src = cfg.get_input_path("io", "image")
    psnr_db = cfg.get_float("noise", "psnr_db", math.inf)
    seed = _seed(cfg, args)
    cfg.finish()
    from .fileio import read_image_raw, write_pgm, write_sinogram
    from .harness import add_noise
    from .ray import forward_project

    out = _out_dir(cfg, args)
    img = read_image_raw(src)
    sino = forward_project(img, geo)
    if not math.isinf(psnr_db):
        sino = add_noise(sino, psnr_db, seed)
    write_sinogram(sino, out / "data.sino")
    write_pgm(sino.values, out / "data.pgm")
    print(f"wrote {out / 'data.sino'}")
    return 0


def _load_common(cfg: ConfigReader):
    from .flow import TimeGrid
    from .kernel import KernelSpec
    from .objective import RegParams

    spec = _grid(cfg)
    steps = cfg.get_int("time", "steps", 10)
    sigma = cfg.get_float("kernel", "sigma", 2.0)
    trunc = cfg.get_float("kernel", "truncation_radius", 4.0)
    gamma = cfg.get_float("reg", "gamma", 1e-5)
    tau = cfg.get_float("reg", "tau", 1e-5)
    tgrid = kernel = params = None
    try:
        tgrid = TimeGrid(steps)
    except (ValueError, TypeError) as exc:
        cfg.problems.append(f"[time]: {exc}")
    try:
        kernel = KernelSpec(sigma, trunc)
    except (ValueError, TypeError) as exc:
        cfg.problems.append(f"[kernel]: {exc}")
    try:
        params = RegParams(gamma, tau)
    except (ValueError, TypeError) as exc:
        cfg.problems.append(f"[reg]: {exc}")
    return spec, tgrid, kernel, params


def _write_report(report, out: Path):
    """Trajectory frames, report.csv and a one-line summary of a solve."""
    from .fileio import write_image_raw, write_pgm
    from .optimizer import LOG_FIELDS

    for name, traj in (("image", report.trajectories.image_traj),
                       ("deformation", report.trajectories.deformation_traj),
                       ("template", report.trajectories.template_traj)):
        for i, frame in enumerate(traj):
            write_image_raw(frame, out / f"{name}_{i:02d}.mimg")
            write_pgm(frame, out / f"{name}_{i:02d}.pgm")
    _write_rows_csv(out / "report.csv", LOG_FIELDS, report.log_rows)
    print(f"stop={report.stop_reason} iters={report.iterations_used} "
          f"objective={report.objective_history[-1]:.6g}")


def cmd_reconstruct(args) -> int:
    cfg = ConfigReader(args.config)
    spec, tgrid, kernel, params = _load_common(cfg)
    geo = _geometry(cfg, spec)
    mode, solver = _solver(cfg)
    fbp_cutoff = cfg.get_float("solver", "fbp_cutoff", 0.8)
    template_path = None
    if mode != "fbp":
        template_path = cfg.get_input_path("io", "template")
    data_path = cfg.get_input_path("io", "data")
    cfg.finish()
    from .fileio import read_image_raw, read_sinogram, write_image_raw, write_pgm
    from .optimizer import reconstruct

    out = _out_dir(cfg, args)
    data = read_sinogram(data_path, geo.det_extent)
    if mode == "fbp":
        from .ray import fbp

        recon = fbp(data, spec, cutoff=fbp_cutoff)
        write_image_raw(recon, out / "fbp.mimg")
        write_pgm(recon, out / "fbp.pgm")
        print(f"fbp cutoff={fbp_cutoff} wrote {out / 'fbp.mimg'}")
        return 0
    template = read_image_raw(template_path)
    report = reconstruct(template, data, data.geometry, kernel, params, tgrid, solver)
    _write_report(report, out)
    return 0


def cmd_gated(args) -> int:
    cfg = ConfigReader(args.config)
    spec, tgrid, kernel, params = _load_common(cfg)
    mode, solver = _solver(cfg)
    if mode == "fbp":
        cfg.problems.append("[solver] mode: gated reconstruction needs a descent mode")
    template_path = cfg.get_input_path("io", "template")
    bundle = cfg.get_str("io", "gated_dir", required=True)
    if bundle and not Path(bundle).is_dir():
        cfg.problems.append(f"[io] gated_dir: {bundle!r} is not a directory")
    cfg.finish()
    from .fileio import read_gated_bundle, read_image_raw
    from .spatiotemporal import GatedData, reconstruct_gated

    out = _out_dir(cfg, args)
    template = read_image_raw(template_path)
    gated = GatedData(read_gated_bundle(bundle))
    report = reconstruct_gated(template, gated, kernel, params, tgrid, solver)
    _write_report(report, out)
    return 0


def cmd_project_gated(args) -> int:
    cfg = ConfigReader(args.config)
    spec = _grid(cfg)
    phantom = _phantom_spec(cfg)
    steps = cfg.get_int("time", "steps", 10)
    n_det = cfg.get_int("geometry", "n_det", 362)
    per_gate = cfg.get_int("gated", "angles_per_gate", 10)
    n_gates = cfg.get_int("gated", "n_gates", steps)
    psnr_db = cfg.get_float("noise", "psnr_db", math.inf)
    seed = _seed(cfg, args, section="gated")
    if phantom is not None and phantom.kind != "evolving_sequence":
        cfg.problems.append("[phantom] kind: gated projection needs an evolving_sequence")
    if n_gates is not None and steps is not None and n_gates > steps:
        cfg.problems.append(f"[gated] n_gates: {n_gates} exceeds time steps {steps}")
    cfg.finish()
    from .fileio import write_gated_bundle, write_image_raw
    from .harness import add_noise, make_phantom
    from .ray import Geometry, forward_project
    from .spatiotemporal import gate_angles

    out = _out_dir(cfg, args)
    frames = make_phantom(phantom, spec)
    det_extent = cfg.get_float("geometry", "det_extent", spec.half_width * math.sqrt(2.0))
    gates = []
    for i, angles in enumerate(gate_angles(n_gates, per_gate, seed), start=1):
        t_index = i * steps // n_gates
        geo = Geometry(angles, n_det, det_extent)
        sino = forward_project(frames[t_index], geo)
        if not math.isinf(psnr_db):
            sino = add_noise(sino, psnr_db, seed + i)
        gates.append((t_index, sino))
    write_gated_bundle(out, gates, seed=seed)
    for i, frame in enumerate(frames):
        write_image_raw(frame, out / f"truth_{i:02d}.mimg")
    print(f"wrote {len(gates)} gates to {out}")
    return 0


def cmd_metrics(args) -> int:
    cfg = ConfigReader(args.config)
    ref_path = cfg.get_input_path("metrics", "reference")
    test_path = cfg.get_input_path("metrics", "test")
    exp_id = cfg.get_str("metrics", "id", "run")
    sigma = cfg.get_float("kernel", "sigma", 0.0)
    gamma = cfg.get_float("reg", "gamma", 0.0)
    tau = cfg.get_float("reg", "tau", 0.0)
    cfg.finish()
    from .fileio import read_image_raw
    from .harness import psnr, ssim

    out = _out_dir(cfg, args)
    ref = read_image_raw(ref_path)
    test = read_image_raw(test_path)
    row = {"id": exp_id, "sigma": sigma, "gamma": gamma, "tau": tau,
           "ssim": ssim(ref, test), "psnr": psnr(ref, test)}
    _write_rows_csv(out / "metrics.csv", list(row.keys()), [row])
    print(f"ssim={row['ssim']:.4f} psnr={row['psnr']:.3f}")
    return 0


def cmd_sweep(args) -> int:
    cfg = ConfigReader(args.config)
    spec, tgrid, kernel, params = _load_common(cfg)
    geo = _geometry(cfg, spec)
    mode, solver = _solver(cfg)
    if mode == "fbp":
        cfg.problems.append("[solver] mode: sweeps need a descent mode")
    template_path = cfg.get_input_path("io", "template")
    target_path = cfg.get_input_path("io", "target")
    sigmas = cfg.get_floats("sweep", "sigma_values", None)
    gammas = cfg.get_floats("sweep", "gamma_values", None)
    taus = cfg.get_floats("sweep", "tau_values", None)
    psnr_db = cfg.get_float("noise", "psnr_db", math.inf)
    seed = _seed(cfg, args)
    cfg.finish()
    from .fileio import read_image_raw
    from .harness import add_noise, psnr, ssim
    from .kernel import KernelSpec
    from .objective import RegParams
    from .optimizer import reconstruct
    from .ray import forward_project

    out = _out_dir(cfg, args)
    template = read_image_raw(template_path)
    target = read_image_raw(target_path)
    data = forward_project(target, geo)
    if not math.isinf(psnr_db):
        data = add_noise(data, psnr_db, seed)
    sigmas = sigmas or [kernel.sigma]
    gammas = gammas or [params.gamma]
    taus = taus or [params.tau]
    rows = []
    for sigma in sigmas:
        for gamma in gammas:
            for tau in taus:
                report = reconstruct(template, data, geo, KernelSpec(sigma),
                                     RegParams(gamma, tau), tgrid, solver)
                recon = report.trajectories.image_traj[-1]
                rows.append({"id": f"s{sigma}_g{gamma}_t{tau}", "sigma": sigma,
                             "gamma": gamma, "tau": tau,
                             "ssim": ssim(target, recon), "psnr": psnr(target, recon)})
                print(f"sigma={sigma} gamma={gamma} tau={tau} ssim={rows[-1]['ssim']:.4f}")
    _write_rows_csv(out / "sweep.csv",
                    ["id", "sigma", "gamma", "tau", "ssim", "psnr"], rows)
    return 0


_COMMANDS = {
    "phantom": cmd_phantom,
    "project": cmd_project,
    "project-gated": cmd_project_gated,
    "reconstruct": cmd_reconstruct,
    "gated": cmd_gated,
    "metrics": cmd_metrics,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="metamorph",
        description="Indirect image registration for 2D parallel-beam tomography",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="sectioned key-value config file")
        p.add_argument("--out", default=None, help="output directory (overrides [io] out_dir)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: config: {len(exc.problems)} problem(s): {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
