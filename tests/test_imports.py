"""What importing the package gives, and what it costs.

``fdsched.__all__`` is exactly the public names ``fdsched/__init__.py``
imports, and each resolves.

numpy is the package's only runtime dependency: the third-party modules the
sources import are exactly the ``dependencies`` of ``pyproject.toml``.  scipy
(about half a second and 40 MB to import) is no dependency at all, and where
it is installed no command loads it: the rate integral behind ``analyze``'s
oracle column is a numpy Gauss-Kronrod rule, and ``validate``'s xi_n
reference is a numpy double-exponential rule.  Each scipy check runs in a fresh interpreter: in
pytest's own process other tests have already imported scipy.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_all_is_the_public_imports():
    import fdsched

    tree = ast.parse((ROOT / "src" / "fdsched" / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    public = {name for name in imported if not name.startswith("_")}
    assert len(fdsched.__all__) == len(set(fdsched.__all__))
    assert set(fdsched.__all__) == public
    for name in fdsched.__all__:
        assert getattr(fdsched, name) is not None, name


def run_fresh(code, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
        timeout=300, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_closed_forms_do_not_load_scipy(tmp_path):
    out = run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from fdsched import AnalyticalParams, config_from_db, xi_n\n"
        "from fdsched.analysis import avg_rate_a1, avg_rate_a2\n"
        "for n in range(1, 16):\n"
        "    for x in np.logspace(-3.0, 3.0, 13):\n"
        "        for y in (0.1, 1.0, 10.0):\n"
        "            xi_n(n, float(x), y)\n"
        "for k in (1, 5, 10, 20, 30, 48):\n"
        "    for si in (40.0, 80.0, 120.0):\n"
        "        params = AnalyticalParams.from_config(config_from_db(24, 23, si, k_u=k, k_d=k))\n"
        "        avg_rate_a1(params), avg_rate_a2(params)\n"
        "print('scipy' in sys.modules)", tmp_path)
    assert out == ["False"]


# What each case runs in a fresh interpreter; each sets ``rc``, its exit code.
_WORKFLOWS = {
    "import": "import fdsched, fdsched.cli, fdsched.validate\nrc = 0\n",
    "simulate": "rc = cli.main(['simulate', '--preset', 'fig4', '--trials', '64', '--workers', '2',"
                " '--out', 'fig4.csv'])\n",
    "analyze": "rc = cli.main(['analyze', '--alg', 'a1', '--alg', 'a2', '--out', 'an.csv'])\n",
    "validate": "rc = cli.main(['validate', '--quick'])\n",
}


@pytest.mark.parametrize("workflow", _WORKFLOWS)
def test_never_loads_scipy(workflow, tmp_path):
    out = run_fresh(
        "import sys\n"
        "from fdsched import cli\n"
        f"{_WORKFLOWS[workflow]}"
        "print(rc, 'scipy' in sys.modules)", tmp_path)
    assert out[-2:] == ["0", "False"]


def test_third_party_imports_are_the_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0] for dep in project["dependencies"]}
    imported = set()
    for path in (ROOT / "src" / "fdsched").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"fdsched"} == declared == {"numpy"}
