"""`import metamorph` loads numpy and the package's own modules, not scipy.

scipy.sparse is imported by the first ray-operator build, so commands and
library calls that never project do not pay for it.  Each case runs in a
fresh interpreter, since this test process has long imported scipy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """
[grid]
half_width = 16.0
nx = 32
ny = 32

[phantom]
kind = discs
disc0 = 0, 0, 5.0, 1.0
"""


def run_fresh(tmp_path, body: str) -> str:
    """Run body in a new interpreter and return what it prints; the body
    ends by printing the sorted scipy modules it finds loaded."""
    script = textwrap.dedent("""
        import sys
        from pathlib import Path
        tmp = Path(sys.argv[1])
    """) + textwrap.dedent(body) + textwrap.dedent("""
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error"}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_import_loads_no_scipy(tmp_path):
    assert run_fresh(tmp_path, """
        import metamorph
        import metamorph.cli
    """) == "[]"


@pytest.mark.parametrize("command", ["phantom", "metrics"])
def test_commands_that_never_project_load_no_scipy(tmp_path, command):
    (tmp_path / "c.ini").write_text(CONFIG + f"""
[metrics]
reference = {tmp_path / 'out' / 'phantom.mimg'}
test = {tmp_path / 'out' / 'phantom.mimg'}
""")
    body = """
        from metamorph.cli import main
        config = ["--config", str(tmp / "c.ini"), "--out", str(tmp / "out")]
        assert main(["phantom", *config]) == 0
    """
    if command == "metrics":
        body += """
        assert main(["metrics", *config]) == 0
        """
    assert run_fresh(tmp_path, body) == "[]"


def test_config_problem_loads_no_scipy(tmp_path):
    (tmp_path / "c.ini").write_text(CONFIG + "\n[geometry]\nn_det = 0\n")
    assert run_fresh(tmp_path, """
        from metamorph.cli import main
        assert main(["project", "--config", str(tmp / "c.ini"), "--out", str(tmp / "out")]) == 2
        assert not (tmp / "out").exists()
    """) == "[]"


def test_first_projection_loads_scipy_sparse(tmp_path):
    # three angles without symmetry partners: A is stored in full
    loaded = run_fresh(tmp_path, """
        import numpy as np
        from metamorph import Geometry, GridSpec, Image, forward_project
        from metamorph.ray import _ray_operator
        spec = GridSpec(16.0, 32, 32)
        geo = Geometry(np.array([0.3, 1.1, 2.0]), 48, 16.0 * 2 ** 0.5)
        f = np.random.default_rng(0).normal(size=spec.shape)
        assert "scipy.sparse" not in sys.modules
        sino = forward_project(Image(spec, f), geo)
        A = _ray_operator(spec, geo).matrix
        assert A.shape == (3 * 48, 32 * 32)
        assert np.array_equal(sino.values.ravel(), A @ f.ravel())
    """)
    assert "'scipy.sparse'" in loaded
