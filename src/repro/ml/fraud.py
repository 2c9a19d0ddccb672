"""Fraud-detection operator logic (§2.1's FC/FM, §8's FD/FD1/FD2): each
payment is scored by the current model over the last ``window`` payment
amounts of its key (user or merchant).

``score_partition`` is the Spark-side batch form used by
``repro.workflows.spark_queries`` inside ``applyInPandas``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .autoencoder import RecurrentAutoencoder
from .decision_tree import DecisionTree

Model = RecurrentAutoencoder | DecisionTree


def rolling_windows(amounts: pd.Series, window: int) -> np.ndarray:
    """(n, window) matrix: row i = the last ``window`` amounts up to and
    including amount i, zero-padded on the left — the key's state as seen
    when each tuple is processed."""
    x = amounts.to_numpy(dtype=np.float64)
    n = x.size
    padded = np.concatenate([np.zeros(window - 1), x])
    return np.lib.stride_tricks.sliding_window_view(padded, window)[:n]


def score_partition(pdf: pd.DataFrame, model: Model, *, window: int,
                    key_col: str, amount_col: str, order_col: str,
                    out_col: str = "score") -> pd.DataFrame:
    """Score every payment of one key group, in ``order_col`` order, using
    the per-key last-``window`` state, as a stream operator would score
    them one at a time."""
    pdf = pdf.sort_values(order_col, kind="mergesort")
    out = pdf.copy()
    scores = np.empty(len(pdf))
    for _, idx in pdf.groupby(key_col, sort=False).indices.items():
        w = rolling_windows(pdf.iloc[idx][amount_col], window)
        scores[idx] = model.score_batch(w)
    out[out_col] = scores
    return out
