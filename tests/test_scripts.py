"""The example scripts run end to end at tiny sizes and write what they promise,
and the README's library quick start runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "gated_reconstruction.py": (
        ["--nx", "32", "--gates", "2", "--angles-per-gate", "4", "--iters", "2"],
        # frames 0..2 of two gates
        [f"{name}_{i:02d}.{ext}" for i in range(3)
         for name, ext in (("truth", "pgm"), ("image", "mimg"), ("image", "pgm"))]
        + ["fbp_concatenated.pgm"]),
    "intensity_mismatch.py": (
        ["--nx", "32", "--angles", "10", "--iters", "2"],
        ["template.pgm", "target.pgm", "data.pgm", "recon_metamorphosis.mimg",
         "recon_metamorphosis.pgm", "recon_lddmm.mimg", "recon_lddmm.pgm"]),
    "kernel_size_sweep.py": (
        ["--nx", "32", "--angles", "10", "--iters", "2", "--sigmas", "1", "3"],
        ["sweep.csv"]),
    "regularizer_sweep.py": (
        ["--nx", "32", "--angles", "10", "--iters", "2", "--weights", "1e-5", "1e-3"],
        ["sweep.csv"]),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_writes_its_outputs(tmp_path, script):
    argv, files = SCRIPTS[script]
    out = tmp_path / "out"
    # warnings fail a script, as they fail the suite
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error"}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--out", str(out),
                           *argv], env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    for name in files:
        assert (out / name).stat().st_size > 0, name


def test_readme_quick_start_runs(tmp_path):
    # the first example a user copies; warnings fail it, as they fail the suite
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error"}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    score, _stop_reason = done.stdout.split()
    assert 0.0 < float(score) <= 1.0
