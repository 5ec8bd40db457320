"""Tests for the cross-rank imbalance metrics ``--ranks`` prints."""

import pytest

from repro.analysis.ranks import rank_imbalance


class TestImbalance:
    def test_rank_imbalance_statistics(self):
        im = rank_imbalance([1.0, 2.0, 3.0, 6.0], "x")
        assert im.min == 1.0 and im.max == 6.0
        assert im.median == pytest.approx(2.5)
        assert im.mean == pytest.approx(3.0)
        assert im.imbalance_factor == pytest.approx(2.0)
        assert im.spread == pytest.approx(2.0)

    def test_balanced_factor_is_one(self):
        im = rank_imbalance([5.0, 5.0, 5.0], "x")
        assert im.imbalance_factor == pytest.approx(1.0)
        assert im.spread == pytest.approx(0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rank_imbalance([], "x")
