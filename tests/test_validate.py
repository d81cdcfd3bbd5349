"""Shared draws inside ``fdsched validate``: the Theorem 2 and Theorem 3
triangles draw each block once for both, criterion 7(a) draws once for both
SI levels, and no memo outlives one ``validate.run`` call."""

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

    def draw_block(config, rng):
        seeds.append(current[0])
        return real_draw(config, rng)

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
