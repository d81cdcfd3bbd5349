"""The bytes of the data files a speed change must not move.

Each case runs the command line and compares the sha256 of its CSV with a
digest recorded before the engine's last speed changes.  NEP 19 lets numpy's
``Generator`` streams change between numpy versions, so a case skips when
the numpy version that fixes its bits differs from the one it was recorded
with.  ``analyze``'s oracle column comes from the package's own QAGS port
(recorded when it came from scipy 1.17.1's ``quad``, which the port matches
bit for bit), so no scipy version enters any digest.
"""

import hashlib

import numpy as np
import pytest

from fdsched import cli

RECORDED_WITH = {"numpy": "2.4.6"}

_SIMULATE = ["--trials", "3000", "--seed", "5", "--workers", "1"]

CASES = {
    "fig2": (["simulate", "--preset", "fig2", *_SIMULATE], ("numpy",),
             "c5b03652891c109dea7d1345af72252056524fb99175f4cd136a0c7ab5d60b0a"),
    "fig3": (["simulate", "--preset", "fig3", *_SIMULATE], ("numpy",),
             "247eb702004fc1b4573ee5ee7237111261f4b1f1580fb643d7a2646ca593e031"),
    "fig4": (["simulate", "--preset", "fig4", *_SIMULATE], ("numpy",),
             "88a968f97d42f410c364385c594c62578a0ad7feeeee208d79c85d974d71e53c"),
    "analyze-a1-a2": (["analyze", "--alg", "a1", "--alg", "a2"], ("numpy",),
                      "010530bafd00b1946d3e0a8f64dfc8d9061929a614ebbda771c8cebdde5a6080"),
}


@pytest.mark.parametrize("name", CASES)
def test_csv_digest_is_unchanged(name, tmp_path):
    argv, packages, digest = CASES[name]
    for package in packages:
        if np.__version__ != RECORDED_WITH[package]:
            pytest.skip(f"recorded with {package} {RECORDED_WITH[package]}, "
                        f"running {np.__version__}")
    out = tmp_path / f"{name}.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
