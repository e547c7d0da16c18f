"""Batch front-end: phantom generation, projection, reconstruction, metrics.

Every subcommand is driven by a plain sectioned key-value config file (INI
syntax).  Validation collects every problem before exiting, including every
key that is not in the one table of known keys per section (_KNOWN_KEYS),
which is reported with the closest known key; output files are written
atomically, and identical config + seed reproduces byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import difflib
import io
import math
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from .experiments import (SWEEP_FIELDS, Case, gated_projections, project_with_noise,
                          scaled_solver, sweep)
from .fileio import (atomic_write_bytes, read_gated_bundle, read_image_raw, read_sinogram,
                     write_gated_bundle, write_image_raw, write_pgm, write_sinogram)
from .flow import TimeGrid
from .grid import GridSpec
from .harness import (Disc, Ellipse, PhantomSpec, Triangle, check_inside, make_phantom, psnr,
                      ssim)
from .kernel import KernelSpec
from .objective import RegParams
from .optimizer import LOG_FIELDS, SolveConfig, reconstruct
from .ray import Geometry, fbp
from .spatiotemporal import GatedData, reconstruct_gated


# every key a section may hold, whichever command or mode reads it; [phantom]
# also takes shape keys (_shape_of)
_KNOWN_KEYS = {
    "grid": ("half_width", "nx", "ny"),
    "geometry": ("n_angles", "n_det", "det_extent"),
    "time": ("steps",),
    "kernel": ("sigma",),
    "reg": ("gamma", "tau"),
    "solver": ("mode", "max_iters", "step_v", "step_zeta", "rel_tol", "fbp_cutoff"),
    "phantom": ("kind", "background", "drift", "growth", "appear_time", "appear_ramp",
                "appear"),
    "noise": ("psnr_db", "seed"),
    "gated": ("angles_per_gate", "n_gates", "seed"),
    "io": ("out_dir", "image", "template", "data", "target", "gated_dir"),
    "metrics": ("reference", "test", "id"),
    "sweep": ("sigma_values", "gamma_values", "tau_values"),
}
# keys that were settings once, with what to say instead of a near match
_RETIRED_KEYS = {
    ("solver", "backtracking"): "not a setting; the line search always backtracks",
    ("kernel", "truncation_radius"): "not a setting; the kernel is the untruncated Gaussian",
}
# how many values each shape key takes: disc cx cy r [intensity], ellipse
# cx cy a b [angle_deg [intensity]], triangle x0 y0 x1 y1 x2 y2 [intensity]
_SHAPE_VALUE_COUNTS = {"disc": (3, 4), "ellipse": (4, 6), "triangle": (6, 7)}


def _shape_of(key: str) -> str | None:
    """The shape a [phantom] key draws (a shape name, anything, a final
    digit, such as disc0), or None."""
    shape = next((s for s in _SHAPE_VALUE_COUNTS if key.startswith(s)), None)
    return shape if key[-1:].isdigit() else None


def _closest(name: str, known) -> str:
    return difflib.get_close_matches(name, known, n=1, cutoff=0.0)[0]


class ConfigError(Exception):
    """Carries the full list of config problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ConfigReader:
    """Typed config access that accumulates problems instead of raising."""

    def __init__(self, path):
        self.parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            read = self.parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            # a half-read parser may hold lists in place of values: read no key
            raise ConfigError([f"config file {path}: {' '.join(str(exc).split())}"]) from None
        self.problems: list[str] = []
        if not read:
            self.problems.append(f"config file {path} not found or unreadable")

    def _raw(self, section, key, default, required=False):
        if self.parser.has_option(section, key):
            return self.parser.get(section, key)
        if required:
            self.problems.append(f"[{section}] {key}: missing required key")
        return default

    def _number(self, section, key, default, kind, what):
        raw = self._raw(section, key, default)
        if raw is None or isinstance(raw, kind):
            return raw
        try:
            return kind(raw)
        except ValueError:
            self.problems.append(f"[{section}] {key}: not {what} ({raw!r})")
            return default

    def get_float(self, section, key, default=None):
        return self._number(section, key, default, float, "a number")

    def get_int(self, section, key, default=None):
        return self._number(section, key, default, int, "an integer")

    def get_str(self, section, key, default=None, required=False, choices=None):
        raw = self._raw(section, key, default, required)
        if raw is not None and choices and raw not in choices:
            self.problems.append(f"[{section}] {key}: expected one of {choices}, got {raw!r}")
            return default
        return raw

    def get_floats(self, section, key, default=None):
        raw = self._raw(section, key, None)
        if raw is None:
            return default
        try:
            return [float(tok) for tok in raw.replace(",", " ").split()]
        except ValueError:
            self.problems.append(f"[{section}] {key}: not a number list ({raw!r})")
            return default

    def get_input_path(self, section, key):
        raw = self._raw(section, key, None, required=True)
        if raw is None:
            return None
        p = Path(raw)
        if not p.exists():
            self.problems.append(f"[{section}] {key}: path {raw!r} does not exist")
            return None
        return p

    def _check_keys(self):
        """Every key must be in _KNOWN_KEYS; an unknown one is reported with
        the closest known key, since it is most likely a misspelling."""
        defaults = set(self.parser.defaults())
        every_key = {key for keys in _KNOWN_KEYS.values() for key in keys}
        for key in sorted(defaults - every_key):
            self.problems.append(f"[DEFAULT] {key}: unknown key; "
                                 f"did you mean {_closest(key, every_key)!r}?")
        for section in self.parser.sections():
            known = _KNOWN_KEYS.get(section)
            if known is None:
                self.problems.append(f"[{section}]: unknown section; "
                                     f"did you mean [{_closest(section, _KNOWN_KEYS)}]?")
                continue
            for key in self.parser.options(section):
                if key in known or key in defaults or (section == "phantom" and _shape_of(key)):
                    continue
                reason = _RETIRED_KEYS.get((section, key))
                if reason is None:
                    candidates = known
                    if section == "phantom":
                        candidates += tuple(f"{shape}0" for shape in _SHAPE_VALUE_COUNTS)
                    reason = f"unknown key; did you mean {_closest(key, candidates)!r}?"
                self.problems.append(f"[{section}] {key}: {reason}")

    def finish(self):
        self._check_keys()
        if self.problems:
            # a bad value shared by several sweep rows is one problem
            raise ConfigError(dict.fromkeys(self.problems))


def _build(cfg: ConfigReader, section: str, make, *args, **kwargs):
    """make(*args, **kwargs), or None with its error recorded as a problem."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        cfg.problems.append(f"[{section}]: {exc}")
        return None


def _grid(cfg: ConfigReader):
    half_width = cfg.get_float("grid", "half_width", 16.0)
    nx = cfg.get_int("grid", "nx", 256)
    ny = cfg.get_int("grid", "ny", nx)
    return _build(cfg, "grid", GridSpec, half_width, nx, ny)


def _detector(cfg: ConfigReader, spec):
    """[geometry] (n_det, det_extent), or None if either is out of range; the
    extent defaults to the grid's half-diagonal."""
    n_det = cfg.get_int("geometry", "n_det", 362)
    default_extent = spec.half_width * math.sqrt(2.0) if spec else 22.6
    det_extent = cfg.get_float("geometry", "det_extent", default_extent)
    problems = len(cfg.problems)
    if n_det < 1:
        cfg.problems.append(f"[geometry] n_det: need at least 1, got {n_det}")
    # NaN and inf fail this comparison
    if not 0 < det_extent < math.inf:
        cfg.problems.append(f"[geometry] det_extent: need a positive number, got {det_extent!r}")
    return (n_det, det_extent) if len(cfg.problems) == problems else None


def _geometry(cfg: ConfigReader, spec):
    n_angles = cfg.get_int("geometry", "n_angles", 100)
    detector = _detector(cfg, spec)
    return detector and _build(cfg, "geometry", Geometry.uniform, n_angles, *detector)


def _solver(cfg: ConfigReader):
    mode = cfg.get_str("solver", "mode", "metamorphosis",
                       choices=("metamorphosis", "lddmm", "fbp"))
    kw = dict(
        max_iters=cfg.get_int("solver", "max_iters", 200),
        step_v=cfg.get_float("solver", "step_v", 5e-4),
        step_zeta=cfg.get_float("solver", "step_zeta", 1e-2),
        rel_tol=cfg.get_float("solver", "rel_tol", 1e-6),
        mode="metamorphosis" if mode == "fbp" else mode,
    )
    return mode, _build(cfg, "solver", SolveConfig, **kw)


def _shape_takes(cfg: ConfigReader, key: str, shape: str, vals) -> bool:
    """Whether a shape takes the [phantom] key's values; if not, records why."""
    lo, hi = _SHAPE_VALUE_COUNTS[shape]
    takes = lo <= len(vals) <= hi
    if not takes:
        cfg.problems.append(f"[phantom] {key}: {shape} needs {lo} to {hi} values, got {len(vals)}")
    return takes


def _phantom_spec(cfg: ConfigReader, spec):
    """The [phantom] section; an evolving sequence also reads and checks [time] steps.

    Every shape of every frame must lie inside the grid's domain, checked
    once the section has no other problem."""
    problems = len(cfg.problems)
    kind = cfg.get_str("phantom", "kind", required=True,
                       choices=("discs", "triangle_pair", "shepp_like", "evolving_sequence"))
    background = cfg.get_float("phantom", "background", 0.0)
    shapes = {"discs": [], "triangles": [], "ellipses": []}
    if cfg.parser.has_section("phantom"):
        for key in cfg.parser.options("phantom"):
            shape = _shape_of(key)
            if shape is None:
                continue
            vals = cfg.get_floats("phantom", key)
            if vals is None or not _shape_takes(cfg, key, shape, vals):
                continue
            if shape == "disc":
                shapes["discs"].append(Disc(*vals))
            elif shape == "triangle":
                shapes["triangles"].append(
                    Triangle(((vals[0], vals[1]), (vals[2], vals[3]), (vals[4], vals[5])),
                             *vals[6:]))
            else:
                shapes["ellipses"].append(Ellipse(*vals))
    if kind is None:
        return None
    kw = dict(kind=kind, background=background or 0.0,
              discs=tuple(shapes["discs"]), triangles=tuple(shapes["triangles"]),
              ellipses=tuple(shapes["ellipses"]))
    if kind == "evolving_sequence":
        tgrid = _build(cfg, "time", TimeGrid, cfg.get_int("time", "steps", 10))
        if tgrid is None:
            return None
        drift = cfg.get_floats("phantom", "drift", [0.0, 0.0])
        if len(drift) == 2:
            kw["drift"] = tuple(drift)
        else:
            cfg.problems.append(f"[phantom] drift: need 2 values (dx, dy), got {len(drift)}")
        kw.update(
            times=tuple(tgrid.times()),
            growth=cfg.get_float("phantom", "growth", 0.0),
            appear_time=cfg.get_float("phantom", "appear_time", 0.5),
            appear_ramp=cfg.get_float("phantom", "appear_ramp", 0.2),
        )
        appear = cfg.get_floats("phantom", "appear", None)
        if appear and _shape_takes(cfg, "appear", "disc", appear):
            kw["appear"] = Disc(*appear)
    phantom = _build(cfg, "phantom", PhantomSpec, **kw)
    if phantom is not None and spec is not None and len(cfg.problems) == problems:
        _build(cfg, "phantom", check_inside, phantom, spec)
    return phantom


def _out_dir(cfg: ConfigReader, args) -> Path:
    path = Path(args.out or cfg.get_str("io", "out_dir", "out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _noise(cfg: ConfigReader, args, seed_section="noise"):
    """[noise] psnr_db (a number, or inf for none) and the noise seed.

    The seed must be non-negative where it is drawn from: with noise, and
    always for the [gated] seed, which also draws the gate angles."""
    psnr_db = cfg.get_float("noise", "psnr_db", math.inf)
    # NaN and -inf fail this comparison
    if not psnr_db > -math.inf:
        cfg.problems.append(f"[noise] psnr_db: need a number or inf, got {psnr_db!r}")
    seed = args.seed if args.seed is not None else cfg.get_int(seed_section, "seed", 0)
    if seed < 0 and (psnr_db < math.inf or seed_section == "gated"):
        where = "--seed" if args.seed is not None else f"[{seed_section}] seed"
        cfg.problems.append(f"{where}: need a non-negative integer, got {seed}")
    return psnr_db, seed


def _write_rows_csv(path, fieldnames, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    atomic_write_bytes(path, buf.getvalue().encode())


def cmd_phantom(args) -> int:
    cfg = ConfigReader(args.config)
    spec = _grid(cfg)
    phantom = _phantom_spec(cfg, spec)
    cfg.finish()
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
    psnr_db, seed = _noise(cfg, args)
    cfg.finish()
    out = _out_dir(cfg, args)
    sino = project_with_noise(read_image_raw(src), geo, psnr_db, seed)
    write_sinogram(sino, out / "data.sino")
    write_pgm(sino.values, out / "data.pgm")
    print(f"wrote {out / 'data.sino'}")
    return 0


def _load_common(cfg: ConfigReader):
    spec = _grid(cfg)
    steps = cfg.get_int("time", "steps", 10)
    sigma = cfg.get_float("kernel", "sigma", 2.0)
    gamma = cfg.get_float("reg", "gamma", 1e-5)
    tau = cfg.get_float("reg", "tau", 1e-5)
    return (spec, _build(cfg, "time", TimeGrid, steps),
            _build(cfg, "kernel", KernelSpec, sigma),
            _build(cfg, "reg", RegParams, gamma, tau))


def _write_report(report, out: Path):
    """Trajectory frames, report.csv and a one-line summary of a solve."""
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
    # NaN fails this comparison
    if mode == "fbp" and not 0 < fbp_cutoff <= 1:
        cfg.problems.append(f"[solver] fbp_cutoff: need a number in (0, 1], got {fbp_cutoff!r}")
    template_path = None
    if mode != "fbp":
        template_path = cfg.get_input_path("io", "template")
    data_path = cfg.get_input_path("io", "data")
    cfg.finish()
    out = _out_dir(cfg, args)
    data = read_sinogram(data_path, geo.det_extent)
    if mode == "fbp":
        recon = fbp(data, spec, cutoff=fbp_cutoff)
        write_image_raw(recon, out / "fbp.mimg")
        write_pgm(recon, out / "fbp.pgm")
        print(f"fbp cutoff={fbp_cutoff} wrote {out / 'fbp.mimg'}")
        return 0
    template = read_image_raw(template_path)
    report = reconstruct(template, data, kernel, params, tgrid, solver)
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
    out = _out_dir(cfg, args)
    template = read_image_raw(template_path)
    gated = GatedData(read_gated_bundle(bundle))
    report = reconstruct_gated(template, gated, kernel, params, tgrid, solver)
    _write_report(report, out)
    return 0


def cmd_project_gated(args) -> int:
    cfg = ConfigReader(args.config)
    spec = _grid(cfg)
    phantom = _phantom_spec(cfg, spec)
    steps = None
    if phantom is not None and phantom.kind != "evolving_sequence":
        cfg.problems.append("[phantom] kind: gated projection needs an evolving_sequence")
    elif phantom is not None:
        steps = len(phantom.times) - 1
    detector = _detector(cfg, spec)
    per_gate = cfg.get_int("gated", "angles_per_gate", 10)
    n_gates = cfg.get_int("gated", "n_gates", steps)
    psnr_db, seed = _noise(cfg, args, seed_section="gated")
    if per_gate is not None and per_gate < 1:
        cfg.problems.append(f"[gated] angles_per_gate: need at least 1, got {per_gate}")
    if n_gates is not None and n_gates < 1:
        cfg.problems.append(f"[gated] n_gates: need at least 1, got {n_gates}")
    elif n_gates is not None and steps is not None and n_gates > steps:
        cfg.problems.append(f"[gated] n_gates: {n_gates} exceeds time steps {steps}")
    cfg.finish()
    out = _out_dir(cfg, args)
    frames = make_phantom(phantom, spec)
    gates = gated_projections(frames, n_gates, per_gate, *detector, psnr_db, seed)
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
    # every row's settings pass the library's checks before any output exists
    kernels = [_build(cfg, "sweep", replace, kernel, sigma=s)
               for s in sigmas or [kernel.sigma]] if kernel else []
    if kernel and solver:
        for k in filter(None, kernels):
            _build(cfg, "sweep", scaled_solver, solver, k.sigma, kernel.sigma)
    regs = [_build(cfg, "sweep", RegParams, g, t)
            for g in gammas or [params.gamma] for t in taus or [params.tau]] if params else []
    psnr_db, seed = _noise(cfg, args)
    cfg.finish()
    out = _out_dir(cfg, args)
    target = read_image_raw(target_path)
    case = Case(spec, read_image_raw(template_path), target, geo,
                project_with_noise(target, geo, psnr_db, seed))
    rows = []
    # [solver] step_v is the step at [kernel] sigma; sweep scales it per kernel
    for row in sweep(case, kernels, regs, tgrid, solver, sigma_ref=kernel.sigma):
        rows.append({"id": "s{sigma}_g{gamma}_t{tau}".format(**row), **row})
        print("sigma={sigma} gamma={gamma} tau={tau} ssim={ssim:.4f}".format(**row))
    _write_rows_csv(out / "sweep.csv", ["id", *SWEEP_FIELDS], rows)
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
    except Exception as exc:
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
