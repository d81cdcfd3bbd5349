"""The bytes of the data files and kernel arrays a speed change must not move.

Each case runs the command line and compares the sha256 of its CSV with a
digest recorded before the engine's last speed changes.  The CSVs hold
17-digit means, so the scheduling kernel's per-trial arrays get digests of
their own, recorded before its gathers became flat-index takes, and so do
the engine's stored arrays over blocks cut into chunks.  NEP 19
lets numpy's ``Generator`` streams change between numpy versions, so a case
skips when the numpy version that fixes its bits differs from the one it
was recorded with.  ``analyze``'s closed-form columns are digested without
its ``oracle_bits`` and ``abs_diff``: the rate-integral oracle is an
independent check whose last digits may move with its rule, so its values
are held to 1e-12 bits of those recorded with the rule before it (a port
of QUADPACK's QAGS).
"""

import csv
import hashlib

import numpy as np
import pytest

from fdsched import cli, sim
from fdsched.model import config_from_db
from fdsched.scheduling import Scheduler, evaluate

RECORDED_WITH = {"numpy": "2.4.6"}

_SIMULATE = ["--trials", "3000", "--seed", "5", "--workers", "1"]
_ANALYZE = ["analyze", "--alg", "a1", "--alg", "a2"]

CASES = {
    "fig2": (["simulate", "--preset", "fig2", *_SIMULATE], ("numpy",),
             "c5b03652891c109dea7d1345af72252056524fb99175f4cd136a0c7ab5d60b0a"),
    "fig3": (["simulate", "--preset", "fig3", *_SIMULATE], ("numpy",),
             "247eb702004fc1b4573ee5ee7237111261f4b1f1580fb643d7a2646ca593e031"),
    "fig4": (["simulate", "--preset", "fig4", *_SIMULATE], ("numpy",),
             "88a968f97d42f410c364385c594c62578a0ad7feeeee208d79c85d974d71e53c"),
    "analyze-a1-a2": (_ANALYZE, ("numpy",),
                      "0e3bca41fb8469fb599f83ecf3d6b9a618d60323aa6446332149d83d359d375c"),
}

# Columns a case's digest leaves out.
DROPPED = {"analyze-a1-a2": (b"oracle_bits", b"abs_diff")}

# analyze's oracle column as the QAGS port computed it.
ORACLE_BITS = {
    "avg_rate_ul_closed": 27.238476532721116,
    "avg_rate_a1": 29.867734284459335,
    "avg_rate_a2": 30.813836083396154,
}


def _without_columns(data, names):
    """The CSV's bytes with the named columns taken out of every line."""
    lines = [line.split(b",") for line in data.splitlines(keepends=True)]
    keep = [i for i, name in enumerate(lines[0]) if name not in names]
    return b"".join(b",".join(line[i] for i in keep) for line in lines)


@pytest.mark.parametrize("name", CASES)
def test_csv_digest_is_unchanged(name, tmp_path):
    argv, packages, digest = CASES[name]
    for package in packages:
        if np.__version__ != RECORDED_WITH[package]:
            pytest.skip(f"recorded with {package} {RECORDED_WITH[package]}, "
                        f"running {np.__version__}")
    out = tmp_path / f"{name}.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    data = out.read_bytes()
    if name in DROPPED:
        data = _without_columns(data, DROPPED[name])
    assert hashlib.sha256(data).hexdigest() == digest


def test_analyze_oracle_is_within_1e12_bits(tmp_path):
    out = tmp_path / "analyze.csv"
    assert cli.main([*_ANALYZE, "--out", str(out)]) == 0
    with out.open(newline="") as f:
        oracle = {row["quantity"]: float(row["oracle_bits"]) for row in csv.DictReader(f)}
    assert oracle.keys() == ORACLE_BITS.keys()
    for quantity, value in ORACLE_BITS.items():
        assert abs(oracle[quantity] - value) <= 1e-12, quantity


# sha256 of every per-trial array of all nine schedulers on one drawn block
# at k_u = k_d = K, at 20 dB (HD only), 80 and 110 dB of SI cancellation;
# ES-FDHD also alone, which bounds its search instead of sharing ES-FD's.
KERNEL_DIGESTS = {
    1: "5fceb760093fc282cd4704f0d17a8877b81bc058e6e35ffa28d1d8477bf9d509",
    2: "421f20c7d8648fa2cc79849d43e1d897a7981c0737959af0c4faf93b58dff188",
    5: "c32640a9b4fa44612b7af4f4003a46888c7a893fb32a51ec1ef66663af1bc2ab",
    15: "3cbae662ca2496ab396669d9da127d17ef9ebbb5fd37d5e4c20f163be0597043",
}

# The same at K = 64, 80 and 110 dB, on 200 rows: the pair search runs in
# row tiles there (16 rows a tile, so the last is partial).  Recorded with
# the search that swept the DL users one at a time.
LARGE_K_DIGEST = "e3dc01a5942626ed98adc1a10b154a0321b02b5f1ae4d79aa35270208c296e5b"


def _kernel_digest(k, si_dbs, rows, seed):
    digest = hashlib.sha256()
    for si_db in si_dbs:
        config = config_from_db(24.0, 23.0, si_db, k_u=k, k_d=k)
        rng = np.random.default_rng(seed)
        g_ul, g_dl, g_x = sim._draw_block(config, rng, rows)
        # the rest of the block's cross gains, as the engine draws its later chunks
        g_x = np.concatenate([g_x, rng.standard_exponential((rows - len(g_x), k, k))])
        for schedulers in (list(Scheduler), [Scheduler.ES_FDHD]):
            for s, out in evaluate(schedulers, config, g_ul[:rows], g_dl[:rows], g_x).items():
                for key, values in out.items():
                    digest.update(f"{s.value}/{key}/{values.dtype.str}".encode())
                    digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


def _skip_other_numpy():
    if np.__version__ != RECORDED_WITH["numpy"]:
        pytest.skip(f"recorded with numpy {RECORDED_WITH['numpy']}, running {np.__version__}")


@pytest.mark.parametrize("k", KERNEL_DIGESTS)
def test_kernel_arrays_are_unchanged(k):
    _skip_other_numpy()
    assert _kernel_digest(k, (20.0, 80.0, 110.0), sim.BLOCK_SIZE, 1000 + k) == KERNEL_DIGESTS[k]


def test_large_k_kernel_arrays_are_unchanged():
    _skip_other_numpy()
    assert _kernel_digest(64, (80.0, 110.0), 200, 1064) == LARGE_K_DIGEST


# sha256 of ``sim.run_coupled``'s per-trial arrays on two blocks and 7 rows
# of a third, at k_u = k_d = K and 20, 50, 60 and 90 dB of SI cancellation,
# for ES-FDHD alone and with fig4's schedulers: the engine's chunked path,
# which the kernel digests above skip.  K = 12 splits a block into chunks
# of 3640 and 456 rows.  Recorded before ES-FDHD's bound took one min over
# a chunk's cross gains; the digest is the same on 1 and 2 workers.
ENGINE_DIGESTS = {
    8: "f24886c47ea605f9748ada6a5b150f226e20819571259d08bd3ab4ab545fef88",
    12: "dcb6bc38128f1b207078f3a8409796f192c6a1a4804c5db84460d5ffa1019598",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("k", ENGINE_DIGESTS)
def test_engine_arrays_are_unchanged(k, workers):
    _skip_other_numpy()
    digest = hashlib.sha256()
    for si_db in (20.0, 50.0, 60.0, 90.0):
        config = config_from_db(24.0, 23.0, si_db, k_u=k, k_d=k)
        for schedulers in ([Scheduler.ES_FDHD], cli._PRESETS["fig4"]["schedulers"]):
            _, arrays = sim.run_coupled(config, schedulers, 2 * sim.BLOCK_SIZE + 7, 2000 + k, workers)
            for s, out in arrays.items():
                for key, values in out.items():
                    digest.update(f"{s.value}/{key}/{values.dtype.str}".encode())
                    digest.update(values.tobytes())
    assert digest.hexdigest() == ENGINE_DIGESTS[k]
