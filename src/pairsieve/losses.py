"""Loss functions: stable binary cross-entropy on logits and a hardest-
negative triplet loss over a batch similarity matrix."""

from __future__ import annotations

import numpy as np


class LossError(ValueError):
    """Invalid labels or shapes handed to a loss."""


def sigmoid(x):
    """Numerically stable logistic, elementwise."""
    x = np.asarray(x, dtype=float)
    ex = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) below
    out = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    return out if out.ndim else float(out)


def softplus(x):
    """log(1 + exp(x)) without overflow."""
    return np.logaddexp(0.0, x)


def bce_loss(y, f):
    """Binary cross-entropy of label y under logit f.

    Computed as softplus(f) - y*f, which equals
    -[y*log(sigma(f)) + (1-y)*log(1-sigma(f))] but never overflows.
    """
    y_arr = np.asarray(y, dtype=float)
    if not np.all((y_arr == 0.0) | (y_arr == 1.0)):
        raise LossError(f"labels must be 0 or 1, got {y!r}")
    out = softplus(f) - y_arr * np.asarray(f, dtype=float)
    return out if out.ndim else float(out)


def triplet_hinges(sim, margin):
    """Hardest-negative triplet hinges over a square similarity matrix.

    sim[i, j] scores sentence i against clip j; diagonal entries are the
    matched pairs. Each anchor i is hinged against the single hardest
    negative in its row (best wrong clip, index jr[i]) and in its column
    (best wrong sentence, index jc[i]). Returns (row_hinge, col_hinge,
    jr, jc); the batch loss is (row_hinge + col_hinge).mean().
    """
    sim = np.asarray(sim, dtype=float)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise LossError(f"similarity matrix must be square, got shape {sim.shape}")
    n = sim.shape[0]
    if n < 2:
        raise LossError("triplet loss needs at least 2 items")
    if margin < 0:
        raise LossError("margin must be >= 0")
    idx = np.arange(n)
    pos = np.diag(sim).copy()
    off = sim.copy()
    np.fill_diagonal(off, -np.inf)
    jr = off.argmax(axis=1)
    jc = off.argmax(axis=0)
    row_hinge = np.maximum(0.0, margin + off[idx, jr] - pos)
    col_hinge = np.maximum(0.0, margin + off[jc, idx] - pos)
    return row_hinge, col_hinge, jr, jc
