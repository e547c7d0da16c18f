import csv
import math
import re

import numpy as np
import pytest

from metamorph.cli import main
from metamorph.experiments import evolving_gated_case, head_phantom_case, kernel_size_sweep
from metamorph.fileio import (read_gated_bundle, read_image_raw, read_sinogram,
                              write_gated_bundle, write_image_raw, write_sinogram)
from metamorph.grid import GridSpec
from metamorph.harness import Disc, PhantomSpec, make_phantom, psnr, ssim
from metamorph.ray import forward_project, Geometry


def write_config(path, text):
    path.write_text(text)
    return str(path)


BASE = """
[grid]
half_width = 16.0
nx = 32
ny = 32

[time]
steps = 4

[kernel]
sigma = 2.0

[reg]
gamma = 1e-5
tau = 1e-5

[geometry]
n_angles = 12
n_det = 48

[solver]
max_iters = 3
step_v = 5e-4
step_zeta = 1e-2
"""


def test_phantom_command(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", BASE + """
[phantom]
kind = discs
background = 0.1
disc0 = 0, 0, 5.0, 1.0
""")
    out = tmp_path / "out"
    assert main(["phantom", "--config", cfg, "--out", str(out)]) == 0
    img = read_image_raw(out / "phantom.mimg")
    assert img.spec.nx == 32
    assert img.values.max() > 1.0
    assert (out / "phantom.pgm").exists()


def test_project_and_reconstruct_roundtrip(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    spec = GridSpec(16.0, 32, 32)
    disc = make_phantom(PhantomSpec("discs", discs=(Disc(0, 0, 5.0, 1.0),)), spec)
    write_image_raw(disc, out / "truth.mimg")
    cfg = write_config(tmp_path / "c.ini", BASE + f"""
[noise]
psnr_db = inf

[io]
image = {out / 'truth.mimg'}
template = {out / 'truth.mimg'}
out_dir = {out}
""")
    assert main(["project", "--config", cfg]) == 0
    sino = read_sinogram(out / "data.sino", det_extent=16.0 * math.sqrt(2.0))
    assert sino.values.max() > 0

    cfg2 = write_config(tmp_path / "c2.ini", BASE + f"""
[io]
template = {out / 'truth.mimg'}
data = {out / 'data.sino'}
out_dir = {out}
""")
    assert main(["reconstruct", "--config", cfg2]) == 0
    report = (out / "report.csv").read_text()
    # consistent data: stops immediately with zero objective
    assert report.splitlines()[0] == (
        "iter,objective,data_term,v_term,zeta_term,step_v,step_zeta,evals,"
        "grad_v_norm,grad_zeta_norm")
    assert (out / "image_04.mimg").exists()
    recon = read_image_raw(out / "image_04.mimg")
    assert np.array_equal(recon.values, disc.values)


def test_config_errors_are_collected(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.ini", """
[grid]
half_width = banana
nx = 1

[kernel]
sigma = -3

[io]
template = /does/not/exist.mimg
data = /also/missing.sino
""")
    rc = main(["reconstruct", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 2
    line = captured.err.strip()
    assert line.startswith("error: config:")
    assert "\n" not in line
    for frag in ("half_width", "sigma", "template", "data"):
        assert frag in line


def test_metrics_command(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    spec = GridSpec(16.0, 32, 32)
    a = make_phantom(PhantomSpec("discs", discs=(Disc(0, 0, 5.0, 1.0),)), spec)
    b = make_phantom(PhantomSpec("discs", discs=(Disc(0.5, 0, 5.0, 1.0),)), spec)
    write_image_raw(a, out / "a.mimg")
    write_image_raw(b, out / "b.mimg")
    cfg = write_config(tmp_path / "m.ini", f"""
[metrics]
id = demo
reference = {out / 'a.mimg'}
test = {out / 'b.mimg'}
""")
    assert main(["metrics", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "metrics.csv").read_text()
    assert text.splitlines()[0] == "id,sigma,gamma,tau,ssim,psnr"
    assert "demo" in text


def test_project_gated_then_reconstruct(tmp_path):
    out = tmp_path / "gated"
    cfg = write_config(tmp_path / "g.ini", BASE + f"""
[phantom]
kind = evolving_sequence
disc0 = -3, -2, 3.0, 1.0
drift = 4, 2
appear = 4, 4, 2.0, 0.8
appear_time = 0.5

[gated]
n_gates = 4
angles_per_gate = 6
seed = 3

[noise]
psnr_db = inf

[io]
out_dir = {out}
""")
    assert main(["project-gated", "--config", cfg]) == 0
    assert (out / "gates.toml").exists()
    assert (out / "truth_00.mimg").exists()

    cfg2 = write_config(tmp_path / "g2.ini", BASE + f"""
[io]
template = {out / 'truth_00.mimg'}
gated_dir = {out}
out_dir = {out / 'recon'}
""")
    assert main(["gated", "--config", cfg2]) == 0
    assert (out / "recon" / "report.csv").exists()
    assert (out / "recon" / "image_04.mimg").exists()


def test_project_gated_config_errors_are_collected(tmp_path, capsys):
    out = tmp_path / "gated"
    cfg = write_config(tmp_path / "g.ini", f"""
[grid]
half_width = 16.0
nx = 32

[time]
steps = 0

[geometry]
det_extent = wide

[phantom]
kind = evolving_sequence
disc0 = -3, -2, 3.0, 1.0

[gated]
n_gates = 0
angles_per_gate = -2

[io]
out_dir = {out}
""")
    assert main(["project-gated", "--config", cfg]) == 2
    line = capsys.readouterr().err.strip()
    assert line.startswith("error: config: 4 problem(s):")
    for frag in ("[time]: need at least one time step, got 0",
                 "[geometry] det_extent: not a number ('wide')",
                 "[gated] n_gates: need at least 1, got 0",
                 "[gated] angles_per_gate: need at least 1, got -2"):
        assert frag in line
    assert not (out / "gates.toml").exists()


def test_sweep_csv_deterministic(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    spec = GridSpec(16.0, 32, 32)
    target = make_phantom(PhantomSpec("discs", discs=(Disc(0, 0, 5.0, 1.0),)), spec)
    template = make_phantom(PhantomSpec("discs", discs=(Disc(1.0, 0, 5.0, 1.0),)), spec)
    write_image_raw(target, out / "target.mimg")
    write_image_raw(template, out / "template.mimg")
    cfg = write_config(tmp_path / "s.ini", BASE + f"""
[sweep]
sigma_values = 1.0, 3.0

[noise]
psnr_db = 25.0
seed = 7

[io]
template = {out / 'template.mimg'}
target = {out / 'target.mimg'}
out_dir = {out}
""")
    assert main(["sweep", "--config", cfg]) == 0
    first = (out / "sweep.csv").read_bytes()
    assert main(["sweep", "--config", cfg]) == 0
    assert (out / "sweep.csv").read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[0] == "id,sigma,gamma,tau,ssim,psnr"
    assert len(lines) == 3


# a small head case: the data is the case's own (2 * nx bins, seed 23, 15 dB)
HEAD_SWEEP = """
[grid]
half_width = 16.0
nx = 32

[time]
steps = 10

[kernel]
sigma = 2.0

[reg]
gamma = 1e-5
tau = 1e-5

[geometry]
n_angles = 20
n_det = 64

[noise]
psnr_db = 15.0
seed = 23

[solver]
max_iters = 20
step_v = 5e-4
step_zeta = 2e-3

[sweep]
sigma_values = 1, 2, 4
"""


@pytest.fixture(scope="module")
def head_sweep(tmp_path_factory):
    """(case, config path, output directory, sweep.csv rows) of one CLI kernel sweep."""
    root = tmp_path_factory.mktemp("head_sweep")
    case = head_phantom_case(nx=32, n_angles=20, psnr_db=15.0, seed=23)
    write_image_raw(case.template, root / "template.mimg")
    write_image_raw(case.target, root / "target.mimg")
    cfg = write_config(root / "sweep.ini", HEAD_SWEEP + f"""
[io]
image = {root / 'target.mimg'}
template = {root / 'template.mimg'}
target = {root / 'target.mimg'}
data = {root / 'data.sino'}
out_dir = {root}
""")
    assert main(["sweep", "--config", cfg]) == 0
    with open(root / "sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    return case, cfg, root, rows


def test_cli_kernel_sweep_equals_the_experiments_sweep(head_sweep):
    # [solver] step_v is the step at [kernel] sigma = 2, scaled by (2 / sigma)^2
    # per row as in kernel_size_sweep; with the step unscaled the CLI read
    # 0.8717 / 0.8792 / 0.8877 where the experiments read 0.8872 / 0.8792 / 0.8721
    case, _, _, rows = head_sweep
    expected = kernel_size_sweep(case, [1.0, 2.0, 4.0], step_v=5e-4, max_iters=20,
                                 step_zeta=2e-3)
    assert [(float(row["sigma"]), float(row["ssim"])) for row in rows] == expected


def test_sweep_row_at_the_kernel_sigma_equals_reconstruct(head_sweep):
    # at [kernel] sigma the step factor is exactly 1: the row is the plain solve
    case, cfg, root, rows = head_sweep
    assert main(["project", "--config", cfg]) == 0
    assert main(["reconstruct", "--config", cfg]) == 0
    recon = read_image_raw(root / "image_10.mimg")
    (row,) = [row for row in rows if float(row["sigma"]) == 2.0]
    assert float(row["ssim"]) == ssim(case.target, recon)
    assert float(row["psnr"]) == psnr(case.target, recon)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus", "--config", "x"])


@pytest.mark.parametrize("command", ["project", "project-gated", "sweep"])
@pytest.mark.parametrize("psnr_db", ["nan", "-inf"])
def test_non_finite_psnr_target_is_a_config_problem(tmp_path, capsys, command, psnr_db):
    spec = GridSpec(16.0, 32, 32)
    write_image_raw(make_phantom(PhantomSpec("discs", discs=(Disc(0, 0, 5.0, 1.0),)), spec),
                    tmp_path / "disc.mimg")
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "n.ini", BASE + f"""
[phantom]
kind = evolving_sequence
disc0 = -3, -2, 3.0, 1.0

[noise]
psnr_db = {psnr_db}

[io]
image = {tmp_path / 'disc.mimg'}
template = {tmp_path / 'disc.mimg'}
target = {tmp_path / 'disc.mimg'}
out_dir = {out}
""")
    assert main([command, "--config", cfg]) == 2
    line = capsys.readouterr().err.strip()
    assert line == (f"error: config: 1 problem(s): "
                    f"[noise] psnr_db: need a number or inf, got {float(psnr_db)!r}")
    assert not out.exists()


def test_project_gated_matches_evolving_gated_case(tmp_path):
    # one gate per time step: the CLI's gates are the preset's, byte for byte
    out = tmp_path / "gated"
    cfg = write_config(tmp_path / "g.ini", BASE + f"""
[phantom]
kind = evolving_sequence
disc0 = -3, -2, 4.0, 1.0
drift = 5, 3
growth = 0.1
appear = 4.5, 4.0, 2.2, 0.9
appear_time = 0.45
appear_ramp = 0.25

[gated]
n_gates = 4
angles_per_gate = 6
seed = 5

[noise]
psnr_db = 25.0

[io]
out_dir = {out}
""")
    assert main(["project-gated", "--config", cfg]) == 0
    case = evolving_gated_case(nx=32, n_gates=4, per_gate=6, seed=5, psnr_db=25.0, n_det=48)
    write_gated_bundle(tmp_path / "case", case.gated.gates, seed=5)
    cli_gates = read_gated_bundle(out)
    assert [k for k, _ in cli_gates] == [k for k, _ in case.gated.gates] == [1, 2, 3, 4]
    for num, ((_, ours), (_, theirs)) in enumerate(zip(cli_gates, case.gated.gates), start=1):
        assert np.array_equal(ours.geometry.angles, theirs.geometry.angles)
        name = f"gate_{num}.sino"
        assert (out / name).read_bytes() == (tmp_path / "case" / name).read_bytes()
    assert (out / "gates.toml").read_bytes() == (tmp_path / "case" / "gates.toml").read_bytes()


def test_retired_truncation_radius_is_a_config_problem(tmp_path, capsys):
    # the kernel is the untruncated Gaussian: the old radius is reported, not ignored
    spec = GridSpec(16.0, 32, 32)
    disc = make_phantom(PhantomSpec("discs", discs=(Disc(0, 0, 5.0, 1.0),)), spec)
    write_image_raw(disc, tmp_path / "disc.mimg")
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "r.ini", BASE.replace(
        "sigma = 2.0", "sigma = 2.0\ntruncation_radius = 4") + f"""
[io]
template = {tmp_path / 'disc.mimg'}
target = {tmp_path / 'disc.mimg'}
out_dir = {out}
""")
    assert main(["sweep", "--config", cfg]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: config: 1 problem(s): [kernel] truncation_radius: "
        "not a setting; the kernel is the untruncated Gaussian")
    assert not out.exists()


@pytest.mark.parametrize("extra, fragment", [
    ("[grid]\nnx = 16\n", "section 'grid' already exists"),
    ("background = 0.5\n", "option 'background' in section 'phantom' already exists"),
    ("# caf\xe9\n", "can't decode byte 0xe9"),
])
def test_unparsable_config_is_one_config_problem(tmp_path, capsys, extra, fragment):
    # one problem: after a failed read the parser may hold half-read values, so no key is read
    out = tmp_path / "out"
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes((BASE + f"""
[io]
out_dir = {out}

[phantom]
kind = discs
background = 0.1
""").encode() + extra.encode("latin-1"))
    assert main(["phantom", "--config", str(cfg)]) == 2
    line = capsys.readouterr().err.strip()
    assert line.startswith(f"error: config: 1 problem(s): config file {cfg}: ")
    assert fragment in line
    assert not out.exists()


@pytest.mark.parametrize("command", ["project", "project-gated"])
@pytest.mark.parametrize("key, value", [("n_det", "0"), ("det_extent", "-1"),
                                        ("det_extent", "nan"), ("det_extent", "inf")])
def test_detector_out_of_range_is_a_config_problem(tmp_path, capsys, command, key, value):
    spec = GridSpec(16.0, 32, 32)
    write_image_raw(make_phantom(PhantomSpec("discs", discs=(Disc(0, 0, 5.0, 1.0),)), spec),
                    tmp_path / "disc.mimg")
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "d.ini", BASE.replace("n_det = 48", f"{key} = {value}") + f"""
[phantom]
kind = evolving_sequence
disc0 = -3, -2, 3.0, 1.0

[io]
image = {tmp_path / 'disc.mimg'}
out_dir = {out}
""")
    assert main([command, "--config", cfg]) == 2
    line = capsys.readouterr().err.strip()
    assert line.startswith(f"error: config: 1 problem(s): [geometry] {key}: ")
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("reg", "gamma", "nan"), ("reg", "tau", "inf"),
    ("solver", "step_v", "nan"), ("solver", "step_zeta", "inf"), ("solver", "rel_tol", "nan"),
    ("kernel", "sigma", "nan"), ("kernel", "sigma", "inf"),
])
def test_non_finite_setting_is_a_config_problem(tmp_path, capsys, section, key, value):
    spec = GridSpec(16.0, 32, 32)
    disc = make_phantom(PhantomSpec("discs", discs=(Disc(0, 0, 5.0, 1.0),)), spec)
    write_image_raw(disc, tmp_path / "disc.mimg")
    geo = Geometry.uniform(12, 48, 16.0 * math.sqrt(2.0))
    write_sinogram(forward_project(disc, geo), tmp_path / "data.sino")
    out = tmp_path / "out"
    text = re.sub(rf"^{key} = .*\n", "", BASE, flags=re.M)
    cfg = write_config(tmp_path / "f.ini", text.replace(
        f"[{section}]\n", f"[{section}]\n{key} = {value}\n") + f"""
[io]
template = {tmp_path / 'disc.mimg'}
data = {tmp_path / 'data.sino'}
out_dir = {out}
""")
    assert main(["reconstruct", "--config", cfg]) == 2
    line = capsys.readouterr().err.strip()
    assert line.startswith(f"error: config: 1 problem(s): [{section}]: ")
    assert key in line
    assert not out.exists()


@pytest.mark.parametrize("command, text, argv, problem", [
    # the line search always backtracks: the old switch is reported, not ignored
    ("reconstruct", "[solver]\nbacktracking = false\n", [],
     "[solver] backtracking: not a setting; the line search always backtracks"),
    ("reconstruct", "[solver]\nmode = fbp\nfbp_cutoff = 2\n", [],
     "[solver] fbp_cutoff: need a number in (0, 1], got 2.0"),
    ("reconstruct", "[solver]\nmode = fbp\nfbp_cutoff = nan\n", [],
     "[solver] fbp_cutoff: need a number in (0, 1], got nan"),
    ("project", "[noise]\npsnr_db = 20\n", ["--seed", "-1"],
     "--seed: need a non-negative integer, got -1"),
    ("project", "[noise]\npsnr_db = 20\nseed = -4\n", [],
     "[noise] seed: need a non-negative integer, got -4"),
    ("sweep", "[noise]\npsnr_db = 20\nseed = -4\n", [],
     "[noise] seed: need a non-negative integer, got -4"),
    # the gated seed also draws the gate angles: checked even without noise
    ("project-gated", "[gated]\nseed = -4\n", [],
     "[gated] seed: need a non-negative integer, got -4"),
    ("project-gated", "", ["--seed", "-1"], "--seed: need a non-negative integer, got -1"),
    # every sweep row is checked before any output exists; a value shared by
    # several rows is one problem
    ("sweep", "[sweep]\nsigma_values = 1.0, -1\n", [],
     "[sweep]: kernel sigma must be positive, got -1.0"),
    ("sweep", "[sweep]\nsigma_values = nan\n", [],
     "[sweep]: kernel sigma must be positive, got nan"),
    ("sweep", "[sweep]\ngamma_values = nan\ntau_values = 1e-5, 1e-3\n", [],
     "[sweep]: regularisation weights gamma and tau must be finite and nonnegative"),
    ("sweep", "[sweep]\ntau_values = -1\n", [],
     "[sweep]: regularisation weights gamma and tau must be finite and nonnegative"),
    # each row's velocity step, step_v * ([kernel] sigma / sigma)^2, overflows
    # or rounds to zero
    ("sweep", "[sweep]\nsigma_values = 1e-160\n", [],
     "[sweep]: kernel sigma 1e-160: the scaled velocity step 0.0005 * (2.0 / 1e-160)^2 "
     "is not a finite positive number"),
    ("sweep", "[sweep]\nsigma_values = 1e300\n", [],
     "[sweep]: kernel sigma 1e+300: the scaled velocity step 0.0005 * (2.0 / 1e+300)^2 "
     "is not a finite positive number"),
], ids=["backtracking", "fbp_cutoff_2", "fbp_cutoff_nan", "project_seed_flag",
        "project_noise_seed", "sweep_noise_seed", "gated_seed", "gated_seed_flag",
        "sweep_negative_sigma", "sweep_nan_sigma", "sweep_nan_gamma_two_taus",
        "sweep_negative_tau", "sweep_step_overflow", "sweep_step_underflow"])
def test_out_of_range_setting_is_a_config_problem(tmp_path, capsys, command, text, argv,
                                                  problem):
    spec = GridSpec(16.0, 32, 32)
    disc = make_phantom(PhantomSpec("discs", discs=(Disc(0, 0, 5.0, 1.0),)), spec)
    write_image_raw(disc, tmp_path / "disc.mimg")
    write_sinogram(forward_project(disc, Geometry.uniform(12, 48, 16.0 * math.sqrt(2.0))),
                   tmp_path / "data.sino")
    out = tmp_path / "out"
    base = re.sub(r"\[solver\]\n(.+\n)*", "", BASE)
    cfg = write_config(tmp_path / "o.ini", base + text + f"""
[phantom]
kind = evolving_sequence
disc0 = -3, -2, 3.0, 1.0

[io]
image = {tmp_path / 'disc.mimg'}
template = {tmp_path / 'disc.mimg'}
target = {tmp_path / 'disc.mimg'}
data = {tmp_path / 'data.sino'}
out_dir = {out}
""")
    assert main([command, "--config", cfg, *argv]) == 2
    assert capsys.readouterr().err.strip() == f"error: config: 1 problem(s): {problem}"
    assert not out.exists()


@pytest.mark.parametrize("command", ["phantom", "project-gated"])
@pytest.mark.parametrize("key, value, fragment", [
    ("drift", "1 2 3", "need 2 values (dx, dy), got 3"),
    ("drift", "4", "need 2 values (dx, dy), got 1"),
    ("appear", "4, 4", "disc needs 3 to 4 values, got 2"),
    ("appear", "4, 4, 2, 0.8, 1", "disc needs 3 to 4 values, got 5"),
])
def test_evolving_phantom_list_length_is_a_config_problem(tmp_path, capsys, command, key,
                                                          value, fragment):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "p.ini", BASE + f"""
[phantom]
kind = evolving_sequence
disc0 = -3, -2, 3.0, 1.0
{key} = {value}

[io]
out_dir = {out}
""")
    assert main([command, "--config", cfg]) == 2
    line = capsys.readouterr().err.strip()
    assert line.startswith(f"error: config: 1 problem(s): [phantom] {key}: ")
    assert fragment in line
    assert not out.exists()


def test_one_value_drift_is_one_config_problem(tmp_path, capsys):
    # the CLI reports it once, in its own words; the library's drift check
    # never sees the value
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "p.ini", BASE + f"""
[phantom]
kind = evolving_sequence
disc0 = -3, -2, 3.0, 1.0
drift = 4

[io]
out_dir = {out}
""")
    assert main(["phantom", "--config", cfg]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: config: 1 problem(s): [phantom] drift: need 2 values (dx, dy), got 1")
    assert not out.exists()


@pytest.mark.parametrize("command", ["phantom", "project-gated"])
@pytest.mark.parametrize("extra, problem", [
    ("disc0 = 14, 0, 3.0, 1.0", "disc at (14.0, 0.0) r=3.0 leaves the domain at t = 0.0"),
    ("disc0 = 10, 0, 3.0, 1.0\ndrift = 10, 0",
     "disc at (15.0, 0.0) r=3.0 leaves the domain at t = 0.5"),
    ("triangle0 = -4, -4, 4, -4, 0, 4\ndrift = 0, 14",
     "triangle vertex (0.0, 18.0) leaves the domain at t = 1.0"),
])
def test_shape_outside_the_domain_is_a_config_problem(tmp_path, capsys, command, extra,
                                                      problem):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "p.ini", BASE + f"""
[phantom]
kind = evolving_sequence
{extra}

[io]
out_dir = {out}
""")
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.strip() == f"error: config: 1 problem(s): [phantom]: {problem}"
    assert not out.exists()


@pytest.mark.parametrize("key, value, problem", [
    ("disc1", "0, 0, nan", "discs[1] must be finite"),
    ("disc1", "0, 0, -3", "discs[1] needs r > 0"),
    ("ellipse0", "0, 0, 4, 0", "ellipses[0] needs b > 0"),
    ("drift", "nan, 0", "drift must be finite"),
    ("appear_time", "nan", "appear_time must be finite"),
    ("appear", "4, 4, inf", "appear must be finite"),
    ("growth", "-2", "growth shrinks the shapes to nothing at t = 0.5 "
                     "(needs 1 + t * growth > 0)"),
])
def test_non_finite_phantom_parameter_is_a_config_problem(tmp_path, capsys, key, value,
                                                          problem):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "p.ini", BASE + f"""
[phantom]
kind = evolving_sequence
disc0 = -3, -2, 3.0, 1.0
{key} = {value}

[io]
out_dir = {out}
""")
    assert main(["phantom", "--config", cfg]) == 2
    line = capsys.readouterr().err.strip()
    assert line.startswith(f"error: config: 1 problem(s): [phantom]: {problem}, got ")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("disc1", "0 0 5 1 7"),
    ("disc1", "0 0"),
    ("ellipse1", "0 0 4"),
    ("ellipse1", "0 0 4 2 30 1 9"),
    ("triangle1", "0 0 4 0 0 4 1 9"),
    ("triangle1", "0 0 4 0 0"),
])
def test_shape_value_count_is_a_config_problem(tmp_path, capsys, key, value):
    accepted = {"disc1": "disc needs 3 to 4", "ellipse1": "ellipse needs 4 to 6",
                "triangle1": "triangle needs 6 to 7"}[key]
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "p.ini", BASE + f"""
[phantom]
kind = discs
disc0 = 0, 0, 5.0, 1.0
{key} = {value}

[io]
out_dir = {out}
""")
    assert main(["phantom", "--config", cfg]) == 2
    assert capsys.readouterr().err.strip() == (
        f"error: config: 1 problem(s): [phantom] {key}: {accepted} values, "
        f"got {len(value.split())}")
    assert not out.exists()


@pytest.mark.parametrize("section, key, closest", [
    ("grid", "half_widht", "half_width"),
    ("geometry", "n_angels", "n_angles"),
    ("time", "stpes", "steps"),
    ("kernel", "sigam", "sigma"),
    ("reg", "gama", "gamma"),
    ("solver", "max_iter", "max_iters"),
    ("phantom", "backround", "background"),
    ("phantom", "dsic1", "disc0"),
    ("noise", "psnr", "psnr_db"),
    ("gated", "n_gate", "n_gates"),
    ("io", "out_dri", "out_dir"),
    ("metrics", "refrence", "reference"),
    ("sweep", "sigma_value", "sigma_values"),
    # a [DEFAULT] key reaches every section: it must be known in one of them
    ("DEFAULT", "sed", "seed"),
])
def test_misspelt_key_is_a_config_problem(tmp_path, capsys, section, key, closest):
    # a key no command reads is a misspelling, reported with the known key
    # nearest to it, even in a section this command does not read
    out = tmp_path / "out"
    text = BASE + f"""
[phantom]
kind = discs
disc0 = 0, 0, 5.0, 1.0

[io]
out_dir = {out}
"""
    if f"[{section}]\n" in text:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n")
    else:
        text += f"\n[{section}]\n{key} = 1\n"
    cfg = write_config(tmp_path / "k.ini", text)
    assert main(["phantom", "--config", cfg]) == 2
    assert capsys.readouterr().err.strip() == (
        f"error: config: 1 problem(s): [{section}] {key}: unknown key; did you mean {closest!r}?")
    assert not out.exists()


def test_unknown_section_is_a_config_problem(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "s.ini", BASE + f"""
[phantom]
kind = discs
disc0 = 0, 0, 5.0, 1.0

[phantm]
background = 0.5

[io]
out_dir = {out}
""")
    assert main(["phantom", "--config", cfg]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: config: 1 problem(s): [phantm]: unknown section; did you mean [phantom]?")
    assert not out.exists()


def test_failure_prints_its_traceback(tmp_path, capsys):
    garbage = tmp_path / "garbage.mimg"
    garbage.write_bytes(b"not an image")
    cfg = write_config(tmp_path / "m.ini", f"""
[metrics]
reference = {garbage}
test = {garbage}
""")
    assert main(["metrics", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert err.splitlines()[-1].startswith("error: ValueError: ")
    # a config problem exits with 2 and no traceback
    bad = write_config(tmp_path / "bad.ini", "[metrics]\nreference = /does/not/exist\n")
    assert main(["metrics", "--config", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "Traceback" not in err
