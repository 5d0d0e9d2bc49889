"""Loss function values, stability, and hand-checked oracles."""

import numpy as np

from pairsieve.losses import bce_loss, sigmoid, softplus, triplet_hinges

from oracles import triplet_by_enumeration


def test_sigmoid_basic_values():
    assert sigmoid(0.0) == 0.5
    assert np.isclose(sigmoid(1.0), 1.0 / (1.0 + np.exp(-1.0)))
    grid = np.linspace(-20, 20, 41)
    assert np.allclose(sigmoid(grid), 1.0 / (1.0 + np.exp(-grid)))


def test_sigmoid_extreme_inputs_stay_finite():
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0
    out = sigmoid(np.array([-1e8, 0.0, 1e8]))
    assert np.all(np.isfinite(out))


def test_softplus_matches_naive_form():
    grid = np.linspace(-20, 20, 81)
    assert np.allclose(softplus(grid), np.log1p(np.exp(grid)), atol=1e-12)
    # far out, softplus(x) ~ x without overflow
    assert np.isclose(softplus(1000.0), 1000.0)
    assert softplus(-1000.0) >= 0.0


def test_bce_known_values():
    assert np.isclose(bce_loss(1.0, 0.0), np.log(2.0))
    # evaluated by hand: softplus(2) = log(1 + e^2)
    assert np.isclose(bce_loss(0.0, 2.0), 2.1269280110429727, atol=1e-15)
    assert bce_loss(1.0, 50.0) < 1e-20


def test_bce_matches_naive_form_in_safe_range():
    rng = np.random.default_rng(0)
    f = rng.uniform(-20, 20, size=200)
    y = rng.integers(0, 2, size=200).astype(float)
    naive = -(y * np.log(sigmoid(f)) + (1 - y) * np.log(1 - sigmoid(f)))
    assert np.allclose(bce_loss(y, f), naive, atol=1e-9)


def test_bce_convex_in_logit():
    grid = np.linspace(-10, 10, 201)
    for y in (0.0, 1.0):
        vals = bce_loss(np.full_like(grid, y), grid)
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second > 0)


def test_adversarial_loss_values_and_slope():
    # the adversarial loss on the gate logit is softplus(f) = bce_loss(0, f)
    assert np.isclose(softplus(0.0), np.log(2.0))
    # evaluated by hand: log(1 + e)
    assert np.isclose(softplus(1.0), 1.3132616875182228, atol=1e-15)
    assert softplus(-30.0) <= 1e-12
    # the analytic slope sigma(f) is strictly positive everywhere, so
    # minimizing this loss always pushes the gate logit down
    grid = np.linspace(-30, 30, 61)
    assert np.all(sigmoid(grid) > 0)


def _triplet_loss(sim, margin):
    row, col, _, _ = triplet_hinges(sim, margin)
    return float((row + col).mean())


def test_triplet_margin_satisfied_is_zero():
    sim = np.full((3, 3), 0.1)
    np.fill_diagonal(sim, 0.9)
    assert _triplet_loss(sim, 0.2) == 0.0
    assert _triplet_loss(sim, 0.0) == 0.0


def test_triplet_flat_matrix_hand_value():
    # every entry 0.5: both hinges violated by exactly the margin
    sim = np.full((2, 2), 0.5)
    assert np.isclose(_triplet_loss(sim, 0.2), 0.4, atol=1e-15)


def test_triplet_matches_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        sim = rng.uniform(-1, 1, size=(n, n))
        margin = float(rng.uniform(0, 0.5))
        assert np.isclose(_triplet_loss(sim, margin), triplet_by_enumeration(sim, margin))
        # the returned indices are each anchor's hardest negatives
        _, _, jr, jc = triplet_hinges(sim, margin)
        for i in range(n):
            assert jr[i] != i and jc[i] != i
            assert sim[i, jr[i]] == max(sim[i, j] for j in range(n) if j != i)
            assert sim[jc[i], i] == max(sim[j, i] for j in range(n) if j != i)
