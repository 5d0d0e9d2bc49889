"""Forward-pass invariants and analytic gradients vs finite differences."""

import zlib

import numpy as np
import pytest

from pairsieve.gradients import NumericError, compute_gradients
from pairsieve.losses import bce_loss
from pairsieve.model import ModelError

from oracles import gradient_mismatches, random_problem, triplet_by_enumeration


def test_forward_attention_rows_normalized():
    rng = np.random.default_rng(0)
    for kind in ("uniform", "dot", "multiplicative", "additive"):
        params, batch, cfg = random_problem(rng, attention=kind, n_frames=3)
        fwd = compute_gradients(params, *batch, cfg, "joint", rng=rng)[0]
        assert np.all(fwd.alpha >= 0)
        assert np.allclose(fwd.alpha.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(fwd.v, np.einsum("bf,bfe->be", fwd.alpha, fwd.H))


def test_forward_pair_scores_are_cosines():
    rng = np.random.default_rng(1)
    params, batch, cfg = random_problem(rng)
    fwd = compute_gradients(params, *batch, cfg, "joint", rng=rng)[0]
    assert np.allclose(fwd.p_lvc, (fwd.s * fwd.v).sum(axis=1))
    assert np.all(np.abs(fwd.p_lvc) <= 1.0 + 1e-12)


def test_forward_bce_pairs_match_loss_module():
    rng = np.random.default_rng(2)
    params, batch, cfg = random_problem(rng)
    fwd = compute_gradients(params, *batch, cfg, "joint", rng=rng)[0]
    expect = bce_loss(batch[2].astype(float), fwd.f_lvc)
    assert np.allclose(fwd.pair_lvc_loss, expect)


def test_forward_keep_tracks_sampler():
    rng = np.random.default_rng(3)
    params, batch, cfg = random_problem(rng, sampler="gumbel_hard")
    fwd = compute_gradients(params, *batch, cfg, "joint", rng=rng)[0]
    assert np.array_equal(fwd.keep, 1.0 - fwd.z)

    params, batch, cfg = random_problem(rng, sampler="softmax_soft")
    fwd = compute_gradients(params, *batch, cfg, "joint", rng=rng)[0]
    assert np.allclose(fwd.keep, 1.0 - fwd.w)
    assert np.array_equal(fwd.z, (fwd.w > 0.5).astype(int))


def test_forward_disc_off_keeps_everything():
    rng = np.random.default_rng(4)
    params, batch, cfg = random_problem(rng, disc_on=False)
    fwd = compute_gradients(params, *batch, cfg, "joint", rng=rng)[0]
    assert np.array_equal(fwd.z, np.zeros(4, dtype=int))
    assert np.array_equal(fwd.keep, np.ones(4))
    assert fwd.loss_adv == 0.0


def test_forward_deterministic_with_fixed_gumbels():
    rng = np.random.default_rng(5)
    params, batch, cfg = random_problem(rng)
    gumbels = np.random.default_rng(99).gumbel(size=(4, 2))
    a = compute_gradients(params, *batch, cfg, "joint", gumbels=gumbels)[0]
    b = compute_gradients(params, *batch, cfg, "joint", gumbels=gumbels)[0]
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.w, b.w)
    assert a.loss == b.loss


def test_freeze_phase_zeroes_discriminator_gradients():
    rng = np.random.default_rng(6)
    for sampler in ("gumbel_hard", "softmax_soft"):
        for loss in ("bce", "triplet"):
            params, batch, cfg = random_problem(rng, sampler=sampler, loss=loss)
            _, grads, _ = compute_gradients(params, *batch, cfg, "freeze", rng=rng)
            for name in ("disc.bvf", "disc.a_adv", "disc.b_adv"):
                assert not grads[name].any(), f"{name} should be zero in freeze"


def test_disc_off_zeroes_discriminator_gradients():
    rng = np.random.default_rng(7)
    params, batch, cfg = random_problem(rng, disc_on=False)
    _, grads, grad = compute_gradients(params, *batch, cfg, "joint", rng=rng)
    for name in ("disc.bvf", "disc.a_adv", "disc.b_adv"):
        assert not grads[name].any()
    # the name -> array map views the one returned gradient vector
    assert grad.shape == params.flat.shape
    assert all(np.shares_memory(g, grad) for g in grads.values())
    assert sum(g.size for g in grads.values()) == grad.size


def test_triplet_members_follow_gate():
    rng = np.random.default_rng(8)
    params, batch, cfg = random_problem(rng, loss="triplet", batch=6)
    # gate out the second positive: only pairs 0 and 2 stay members
    z = np.array([0, 1, 0, 0, 0, 0])
    fwd = compute_gradients(params, *batch, cfg, "joint", rng=rng, z_override=z)[0]
    assert fwd.member_idx.tolist() == [0, 2]

    # a single member is not enough for a triplet
    z = np.array([0, 1, 1, 0, 0, 0])
    fwd = compute_gradients(params, *batch, cfg, "joint", rng=rng, z_override=z)[0]
    assert fwd.member_idx.tolist() == [0]
    assert fwd.loss_lvc == 0.0


def test_triplet_term_matches_loss_module():
    rng = np.random.default_rng(9)
    params, batch, cfg = random_problem(rng, loss="triplet", batch=8, n_frames=3)
    z = np.zeros(8, dtype=int)
    fwd = compute_gradients(params, *batch, cfg, "joint", rng=rng, z_override=z)[0]
    mi = fwd.member_idx
    assert mi.tolist() == [0, 1, 2, 3]
    sim = fwd.s[mi] @ fwd.v[mi].T
    assert np.isclose(fwd.loss_lvc, triplet_by_enumeration(sim, cfg.triplet_margin))


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
        compute_gradients(params, *batch, cfg, "joint", rng=rng)


def test_batch_validation():
    rng = np.random.default_rng(12)
    params, batch, cfg = random_problem(rng)
    xs, xf, _ = batch
    with pytest.raises(ModelError):
        compute_gradients(params, xs, xf, np.array([1, 2, 0, 0]), cfg, "joint", rng=rng)
    with pytest.raises(ModelError):
        compute_gradients(params, *batch, cfg, "warmup", rng=rng)
    with pytest.raises(ModelError):
        compute_gradients(params, *batch, cfg, "joint", rng=rng, z_override=np.array([1, 0]))


def test_gumbel_hard_needs_rng_or_gumbels():
    rng = np.random.default_rng(13)
    params, batch, cfg = random_problem(rng)
    with pytest.raises(ModelError):
        compute_gradients(params, *batch, cfg, "joint")
