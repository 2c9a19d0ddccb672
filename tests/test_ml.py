"""Tests for the ML substrate (auto-encoder, decision tree, rolling windows)."""
import numpy as np
import pytest

from repro.ml import (
    DecisionTree,
    RecurrentAutoencoder,
    rolling_windows,
)


class TestAutoencoder:
    def test_deterministic(self):
        a = RecurrentAutoencoder(seed=3)
        b = RecurrentAutoencoder(seed=3)
        x = np.arange(10, dtype=float)
        assert a.score(x) == b.score(x)

    def test_different_seeds_differ(self):
        x = np.arange(10, dtype=float)
        assert RecurrentAutoencoder(seed=1).score(x) != RecurrentAutoencoder(seed=2).score(x)

    def test_score_in_unit_interval(self):
        m = RecurrentAutoencoder()
        for x in ([0.0] * 10, np.arange(10), np.random.default_rng(0).random(10) * 1e4):
            assert 0.0 <= m.score(np.asarray(x, dtype=float)) < 1.0

    def test_short_sequence_padded(self):
        m = RecurrentAutoencoder(window=10)
        assert 0.0 <= m.score(np.array([5.0, 7.0])) < 1.0

    def test_long_sequence_uses_tail(self):
        m = RecurrentAutoencoder(window=10)
        x = np.arange(25, dtype=float)
        assert m.score(x) == m.score(x[-10:])

    def test_batch_matches_single(self):
        m = RecurrentAutoencoder(window=10, hidden=8, seed=5)
        rows = np.random.default_rng(1).random((6, 10)) * 100
        batch = m.score_batch(rows)
        single = np.array([m.score(r) for r in rows])
        np.testing.assert_allclose(batch, single, rtol=1e-10)

    def test_batch_short_window_padded(self):
        m = RecurrentAutoencoder(window=10, hidden=8)
        rows = np.random.default_rng(2).random((3, 4))
        assert m.score_batch(rows).shape == (3,)

    def test_hidden_size_changes_model(self):
        x = np.arange(10, dtype=float)
        assert RecurrentAutoencoder(hidden=64).score(x) != RecurrentAutoencoder(hidden=16).score(x)


class TestDecisionTree:
    def test_flags_high_mean(self):
        t = DecisionTree(mean_hi=100.0)
        assert t.score(np.full(10, 500.0)) > t.score(np.full(10, 5.0))

    def test_flags_spike(self):
        t = DecisionTree(spike=3.0)
        calm = np.full(10, 10.0)
        spiky = calm.copy()
        spiky[-1] = 100.0
        assert t.score(spiky) > t.score(calm)

    def test_batch_matches_single_no_zeros(self):
        t = DecisionTree()
        rows = np.random.default_rng(3).random((5, 10)) * 1000 + 1
        np.testing.assert_allclose(t.score_batch(rows), [t.score(r) for r in rows])

    def test_score_bounded(self):
        t = DecisionTree()
        assert t.score(np.full(10, 1e9)) <= 0.95


class TestRollingWindows:
    def test_shape_and_padding(self):
        import pandas as pd

        w = rolling_windows(pd.Series([1.0, 2.0, 3.0]), window=2)
        np.testing.assert_array_equal(w, [[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]])

    def test_window_larger_than_series(self):
        import pandas as pd

        w = rolling_windows(pd.Series([5.0]), window=3)
        np.testing.assert_array_equal(w, [[0.0, 0.0, 5.0]])
