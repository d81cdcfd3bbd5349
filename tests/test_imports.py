"""scipy is loaded only where a quadrature runs.

Importing scipy.integrate costs more than half a second, and the Monte
Carlo path never integrates, so the package imports it inside the three
functions that call ``quad``.  Each check runs in a fresh interpreter: in
pytest's own process other tests have already imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(code, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
        timeout=300, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_does_not_load_scipy(tmp_path):
    out = run_fresh(
        "import sys, fdsched, fdsched.cli, fdsched.validate\n"
        "print('scipy' in sys.modules)", tmp_path)
    assert out == ["False"]


def test_simulate_does_not_load_scipy(tmp_path):
    out = run_fresh(
        "import sys\n"
        "from fdsched import cli\n"
        "rc = cli.main(['simulate', '--preset', 'fig4', '--trials', '64', '--workers', '2',"
        " '--out', 'fig4.csv'])\n"
        "print(rc, 'scipy' in sys.modules)", tmp_path)
    assert out[-2:] == ["0", "False"]


@pytest.mark.parametrize("argv", [
    ["validate", "--only", "special-functions", "--quick"],
    ["analyze", "--alg", "a1", "--out", "an.csv"],
], ids=["validate", "analyze"])
def test_quadrature_commands_load_scipy_when_they_run(tmp_path, argv):
    out = run_fresh(
        "import sys\n"
        "from fdsched import cli\n"
        "before = 'scipy' in sys.modules\n"
        f"rc = cli.main({argv!r})\n"
        "print(before, rc, 'scipy' in sys.modules)", tmp_path)
    assert out[-3:] == ["False", "0", "True"]
