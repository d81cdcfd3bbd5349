"""Shared draws inside ``fdsched validate``: the Theorem 2 and Theorem 3
triangles draw each block once for both, criterion 7(a) draws once for both
SI levels, and no memo outlives one ``validate.run`` call.  The xi_n
reference of the special-functions criterion against 40-digit mpmath, and
the binary-opa criterion's draws against its recorded detail string."""

import mpmath as mp
import numpy as np
import pytest

from fdsched import sim, validate


@pytest.fixture
def drawn_seeds(monkeypatch):
    """The seed of every block drawn, one entry per ``sim._draw_block`` call.
    The criteria counted here run on one worker, so a block's draw follows
    the creation of its stream."""
    seeds, current = [], []
    real_rng, real_draw = sim._block_rng, sim._draw_block

    def block_rng(seed, block):
        current[:] = [seed]
        return real_rng(seed, block)

    def draw_block(config, rng, rows):
        seeds.append(current[0])
        return real_draw(config, rng, rows)

    monkeypatch.setattr(sim, "_block_rng", block_rng)
    monkeypatch.setattr(sim, "_draw_block", draw_block)
    return seeds


def _details(names):
    results, passed = validate.run(names=names, quick=True, echo=None)
    assert passed, [r.detail for r in results]
    return {r.name: r.detail for r in results}


def test_triangles_draw_each_block_once(drawn_seeds):
    # 3 user counts x 3 points x 25 blocks of 4096 rows for 100_000 trials;
    # each triangle drawing its own would be 450.
    both = _details(["theorem2-triangle", "theorem3-triangle"])
    assert len(drawn_seeds) == 225
    assert len(set(drawn_seeds)) == 9
    # The memo does not outlive a run: the next run draws them all again.
    drawn_seeds.clear()
    assert _details(["theorem2-triangle", "theorem3-triangle"]) == both
    assert len(drawn_seeds) == 225
    # Either triangle alone pays for both and reports what it did beside the other.
    drawn_seeds.clear()
    assert _details(["theorem3-triangle"])["theorem3-triangle"] == both["theorem3-triangle"]
    assert len(drawn_seeds) == 225


def test_trend_criterion_draws_once_for_both_si_levels(drawn_seeds):
    passed, _ = validate.crit_trend_reproductions(quick=True)
    assert passed
    # (a) runs on seed 41: K = 5 and K = 15, 5 blocks each for 20_000 trials,
    # shared by the 80 dB and 90 dB configs (20 if each SI level drew its own).
    assert drawn_seeds.count(41) == 10


def test_xi_reference_against_mpmath_expint():
    # The special-functions grid, in one vectorised call; xi_n(x, y) is
    # y^{1-n} e^{xy} E_n(xy).
    n, x, y = np.meshgrid(np.arange(1, 16), np.logspace(-3.0, 3.0, 13), (0.1, 1.0, 10.0))
    got = validate._xi_reference(n, x, y)
    assert got.shape == n.shape == (13, 15, 3)
    with mp.workdps(40):
        for ni, xi, yi, gi in zip(n.flat, x.flat, y.flat, got.flat):
            z = mp.mpf(float(xi)) * float(yi)
            ref = mp.mpf(float(yi)) ** (1 - int(ni)) * mp.exp(z) * mp.expint(int(ni), z)
            assert abs(gi - ref) <= 1e-14 * ref, (ni, xi, yi)


def test_binary_opa_draws_the_recorded_realizations():
    # The detail string of the quick run, recorded while each realization drew
    # its five log-powers one scalar draw at a time: one vector draw must
    # leave the stream, the powers and so every count and excess unchanged.
    passed, detail = validate.crit_binary_opa(quick=True)
    assert passed
    assert detail == ("2000 realizations, worst grid excess 3.55e-15 (tol 1e-9), "
                      "1273 fast-path cases all consistent")


def test_unknown_criterion_is_refused():
    with pytest.raises(ValueError, match=r"unknown criteria: \['nope'\]"):
        validate.run(names=["nope"], echo=None)


def test_dominance_chain_reports_the_engine_check(monkeypatch):
    monkeypatch.setattr(sim, "dominance_violations", lambda arrays: ["injected"])
    assert validate.crit_dominance_chain(quick=True) == (
        False, "per-realization dominance violated: injected")
