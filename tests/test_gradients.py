"""The training step's reported sums, its gradients against finite
differences, and its input checks."""

import zlib

import numpy as np
import pytest

from pairsieve.gradients import NumericError, compute_gradients
from pairsieve.losses import bce_loss, sigmoid
from pairsieve.model import adv_logit, attend, embed, sample_gumbel, tensor_views

from oracles import gradient_mismatches, random_problem, triplet_by_enumeration

DISC_TENSORS = ("disc.bvf", "disc.a_adv", "disc.b_adv")


def _gumbels_forcing(z):
    """Gate noise (B, 2) that forces the hard calls z: a gap of 30 between the
    two sides, far wider than the gate logits of these small problems."""
    return np.where(np.asarray(z)[:, None] == 1, [0.0, 30.0], [30.0, 0.0])


def _pooled(params, xs, xf):
    s = embed(params, "language", xs)[0]
    return s, attend(params, s, embed(params, "vision", xf)[0])[0]


def test_forward_attention_rows_normalized():
    # the step pools each pair's frames with attention rows that are convex
    # weights; with the gate off its match sum is the bce of those pooled pairs
    rng = np.random.default_rng(0)
    for kind in ("uniform", "dot", "multiplicative", "additive"):
        params, batch, cfg = random_problem(rng, attention=kind, n_frames=3, disc_on=False)
        xs, xf, labels = batch
        fwd = compute_gradients(params, *batch, cfg, "joint", None)[0]
        s = embed(params, "language", xs)[0]
        h = embed(params, "vision", xf)[0]
        v, alpha, _ = attend(params, s, h)
        assert alpha.shape == (4, 3) and np.all(alpha >= 0)
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(v, np.einsum("bf,bfe->be", alpha, h))
        t = params.tensors
        pair = bce_loss(labels, t["a_lvc"][0] * (s * v).sum(axis=1) + t["b_lvc"][0])
        assert np.isclose(fwd.lvc_sum, pair.sum(), rtol=1e-12)


def test_forward_pair_scores_are_cosines():
    # unit sentences against convex mixes of unit frames: every pair score is
    # a cosine bound, and the step's kept-mass match sum is built on them
    rng = np.random.default_rng(1)
    params, batch, cfg = random_problem(rng)
    xs, xf, labels = batch
    z = np.array([1, 0, 0, 0])
    fwd = compute_gradients(params, *batch, cfg, "joint", _gumbels_forcing(z))[0]
    s, v = _pooled(params, xs, xf)
    assert np.allclose(np.linalg.norm(s, axis=1), 1.0, atol=1e-12)
    p_lvc = (s * v).sum(axis=1)
    assert np.all(np.abs(p_lvc) <= 1.0 + 1e-12)
    pair = bce_loss(labels, params.tensors["a_lvc"][0] * p_lvc + params.tensors["b_lvc"][0])
    assert np.isclose(fwd.lvc_sum, pair[z == 0].sum(), rtol=1e-12)


def test_forward_bce_pairs_match_loss_module():
    rng = np.random.default_rng(2)
    params, batch, cfg = random_problem(rng)
    xs, xf, labels = batch
    z = np.array([0, 1, 0, 0])
    fwd = compute_gradients(params, *batch, cfg, "joint", _gumbels_forcing(z))[0]
    s, v = _pooled(params, xs, xf)
    t = params.tensors
    pair = bce_loss(labels, t["a_lvc"][0] * (s * v).sum(axis=1) + t["b_lvc"][0])
    # the kept pairs' match losses, weighted by the kept mass
    assert np.isclose(fwd.lvc_sum, pair[z == 0].sum(), rtol=1e-12)
    assert fwd.lvc_weight == 3.0


def test_forward_keep_tracks_sampler():
    rng = np.random.default_rng(3)
    params, batch, cfg = random_problem(rng, sampler="gumbel_hard")
    z = np.array([1, 0, 0, 1])
    fwd = compute_gradients(params, *batch, cfg, "joint", _gumbels_forcing(z))[0]
    assert np.array_equal(fwd.keep, 1.0 - z)

    # the soft gate takes no noise: keep is 1 - sigmoid(f_adv / tau)
    params, batch, cfg = random_problem(rng, sampler="softmax_soft")
    fwd = compute_gradients(params, *batch, cfg, "joint", None)[0]
    s, v = _pooled(params, *batch[:2])
    f_adv = adv_logit(params, (s * v).sum(axis=1), (s @ params.tensors["disc.bvf"].T).max(axis=1))
    assert np.allclose(fwd.keep, 1.0 - sigmoid(f_adv / cfg.tau), rtol=0, atol=1e-12)
    assert np.all((fwd.keep > 0) & (fwd.keep < 1))


def test_forward_disc_off_keeps_everything():
    rng = np.random.default_rng(4)
    params, batch, cfg = random_problem(rng, disc_on=False)
    fwd = compute_gradients(params, *batch, cfg, "joint", None)[0]
    assert np.array_equal(fwd.keep, np.ones(4))
    assert fwd.lvc_weight == 4.0
    assert fwd.adv_sum == 0.0


def test_forward_deterministic_with_fixed_gumbels():
    # the gate's noise is an input: the same noise gives the same bits
    rng = np.random.default_rng(5)
    params, batch, cfg = random_problem(rng)
    gumbels = sample_gumbel(np.random.default_rng(99), (4, 2))
    a, grad_a = compute_gradients(params, *batch, cfg, "joint", gumbels)
    b, grad_b = compute_gradients(params, *batch, cfg, "joint", gumbels.copy())
    assert a.keep.tobytes() == b.keep.tobytes()
    assert (a.lvc_sum, a.lvc_weight, a.adv_sum) == (b.lvc_sum, b.lvc_weight, b.adv_sum)
    assert grad_a.tobytes() == grad_b.tobytes()


def test_freeze_phase_zeroes_discriminator_gradients():
    rng = np.random.default_rng(6)
    for sampler in ("gumbel_hard", "softmax_soft"):
        for loss in ("bce", "triplet"):
            params, batch, cfg = random_problem(rng, sampler=sampler, loss=loss)
            gumbels = sample_gumbel(rng, (4, 2)) if sampler == "gumbel_hard" else None
            grads = tensor_views(compute_gradients(params, *batch, cfg, "freeze", gumbels)[1],
                                 params.layout)
            for name in DISC_TENSORS:
                assert not grads[name].any(), f"{name} should be zero in freeze"


def test_disc_off_zeroes_discriminator_gradients():
    rng = np.random.default_rng(7)
    params, batch, cfg = random_problem(rng, disc_on=False)
    grad = compute_gradients(params, *batch, cfg, "joint", None)[1]
    # one gradient vector laid out like the parameters
    assert grad.shape == params.flat.shape
    grads = tensor_views(grad, params.layout)
    for name in DISC_TENSORS:
        assert not grads[name].any()


def test_triplet_members_follow_gate():
    rng = np.random.default_rng(8)
    params, batch, cfg = random_problem(rng, loss="triplet", batch=6)
    # gate out the second positive: only pairs 0 and 2 stay members
    z = np.array([0, 1, 0, 0, 0, 0])
    fwd = compute_gradients(params, *batch, cfg, "joint", _gumbels_forcing(z))[0]
    assert fwd.lvc_weight == 2

    # a single member is not enough for a triplet
    z = np.array([0, 1, 1, 0, 0, 0])
    fwd = compute_gradients(params, *batch, cfg, "joint", _gumbels_forcing(z))[0]
    assert fwd.lvc_weight == 0
    assert fwd.lvc_sum == 0.0


def test_triplet_term_matches_loss_module():
    rng = np.random.default_rng(9)
    params, batch, cfg = random_problem(rng, loss="triplet", batch=8, n_frames=3)
    fwd = compute_gradients(params, *batch, cfg, "joint", _gumbels_forcing(np.zeros(8)))[0]
    assert fwd.lvc_weight == 4
    s, v = _pooled(params, *batch[:2])
    sim = s[:4] @ v[:4].T
    assert np.isclose(fwd.lvc_sum / fwd.lvc_weight,
                      triplet_by_enumeration(sim, cfg.triplet_margin))


FD_CASES = [
    ("dot", "residual", "gumbel_hard", "bce", True, "joint"),
    ("dot", "residual", "gumbel_hard", "bce", True, "freeze"),
    ("multiplicative", "concat", "softmax_soft", "bce", True, "joint"),
    ("additive", "adv_only", "gumbel_hard", "triplet", True, "joint"),
    ("uniform", "residual", "softmax_soft", "triplet", True, "joint"),
    ("additive", "concat", "softmax_soft", "triplet", True, "freeze"),
    ("dot", "residual", "gumbel_hard", "bce", False, "joint"),
    ("multiplicative", "residual", "gumbel_hard", "triplet", False, "joint"),
]


@pytest.mark.parametrize("attention,mode,sampler,loss,disc_on,phase", FD_CASES)
def test_gradients_match_finite_differences(attention, mode, sampler, loss, disc_on, phase):
    # a stable digest: hash() of strings is salted per process
    case = (attention, mode, sampler, loss, disc_on, phase)
    rng = np.random.default_rng(zlib.crc32(repr(case).encode()))
    params, batch, cfg = random_problem(
        rng, attention=attention, input_mode=mode, sampler=sampler,
        loss=loss, disc_on=disc_on, n_frames=3, batch=4,
    )
    bad = gradient_mismatches(params, batch, cfg, phase, rng)
    assert bad == [], f"coordinates off: {bad[:5]}"


def test_nonfinite_loss_raises():
    rng = np.random.default_rng(11)
    params, batch, cfg = random_problem(rng)
    batch[0][0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        compute_gradients(params, *batch, cfg, "joint", sample_gumbel(rng, (4, 2)))
