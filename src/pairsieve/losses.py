"""Loss functions: stable binary cross-entropy on logits and a hardest-
negative triplet loss over a batch similarity matrix.

Neither checks its input. The training step (gradients.compute_gradients)
passes 0/1 labels and a square similarity matrix of at least 2 members,
built from a config and a corpus that train checked once, before its
first step.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Numerically stable logistic, elementwise."""
    x = np.asarray(x, dtype=float)
    ex = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) below
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def softplus(x):
    """log(1 + exp(x)) without overflow."""
    return np.logaddexp(0.0, x)


def bce_loss(y, f):
    """Binary cross-entropy of label y under logit f.

    Computed as softplus(f) - y*f, which equals
    -[y*log(sigma(f)) + (1-y)*log(1-sigma(f))] but never overflows.
    """
    return softplus(f) - y * f


def triplet_hinges(sim, margin):
    """Hardest-negative triplet hinges over a square similarity matrix.

    sim (n, n), n >= 2, scores sentence i against clip j in sim[i, j];
    diagonal entries are the matched pairs, and margin is >= 0. Each
    anchor i is hinged against the single hardest negative in its row
    (best wrong clip, index jr[i]) and in its column (best wrong
    sentence, index jc[i]). Returns (row_hinge, col_hinge, jr, jc); the
    batch loss is (row_hinge + col_hinge).mean().
    """
    sim = np.asarray(sim, dtype=float)
    n = sim.shape[0]
    idx = np.arange(n)
    pos = np.diag(sim).copy()
    off = sim.copy()
    np.fill_diagonal(off, -np.inf)
    jr = off.argmax(axis=1)
    jc = off.argmax(axis=0)
    row_hinge = np.maximum(0.0, margin + off[idx, jr] - pos)
    col_hinge = np.maximum(0.0, margin + off[jc, idx] - pos)
    return row_hinge, col_hinge, jr, jc
