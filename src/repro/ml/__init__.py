"""ML substrate: deterministic numpy models standing in for the paper's
LSTM auto-encoder [38] and its cheap hot-swap replacements."""
from .autoencoder import RecurrentAutoencoder
from .decision_tree import DecisionTree
from .fraud import rolling_windows, score_partition

__all__ = [
    "RecurrentAutoencoder",
    "DecisionTree",
    "rolling_windows",
    "score_partition",
]
