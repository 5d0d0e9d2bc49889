"""Batched forward pass and hand-derived exact gradients.

The batch objective mixes a correspondence loss on kept pairs with an
adversarial loss on discarded pairs. Discard decisions are discrete, so
the gate trains through a straight-through surrogate: the hard decision
sets the forward value while the smooth gate weight carries the backward
signal. With the gate noise held fixed, everything below is the exact
derivative of that surrogate, which is what the finite-difference tests
check.

Objective by sampler (z = hard call, w = smooth gate weight, w0 = w at
the current point treated as a constant, L_adv = softplus(gate logit)):

  gumbel_hard  mean_i[(1 - z_i - w_i + w0_i) * lvc_i + (z_i + w_i - w0_i) * L_adv_i]
  softmax_soft mean_i[(1 - w_i) * lvc_i + w_i * L_adv_i]

For the bce loss kind lvc_i is the per-pair match loss. For the triplet
kind the lvc part is instead a hinge loss over the gated-in positive
pairs: their similarity matrix scores sentence a against clip b's own
pooled vector (pooled under sentence b), each anchor hinges against its
row and column hardest negatives, anchors are weighted by their keep
weight, and the hinges average over members. During the warm-up phase
the discriminator is frozen: the gate still filters pairs but
contributes no gradient, and the adversarial term is not optimized.

compute_gradients runs the forward and then the backward over one
batch of plain arrays, the gate's noise among them, and returns only
what training reads: each pair's keep weight, the loss sums and the
gradient vector. It draws no random numbers: training draws an epoch's
frames and gate noise before the epoch's first step. The forward
formulas are not written here: embedding, attention, pooling, the gate
logit and the gate sampler come from model and the triplet hinges from
losses, the code eval and attention-dump run too. Neither the step nor
those formulas check their input: train checks its config
(TrainConfig.validate) and each record (ClipRecord.validate, run by
training.check_sizes) once, before the first step, and builds every
batch from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import bce_loss, sigmoid, softplus, triplet_hinges
from .model import adv_logit, attend, embed, sample_gate, tensor_views


class NumericError(RuntimeError):
    """Non-finite value produced during a training step."""


def first_nonfinite(tensors):
    """Name of the first tensor in a name -> array map holding a NaN or infinity."""
    return next((name for name, arr in tensors.items() if not np.isfinite(arr).all()), None)


@dataclass
class BatchForward:
    """What the training loop reads from one forward.

    Epoch means divide the sums: loss_lvc = lvc_sum / lvc_weight, weighted
    by kept mass (bce) or member count (triplet, 0 below 2), and loss_adv =
    adv_sum / discarded mass, the sum of 1 - keep.
    """

    keep: np.ndarray  # (B,) lvc mixing weight: 1-z hard, 1-w soft, 1 with the gate off
    lvc_sum: float
    lvc_weight: float
    adv_sum: float


def _l2relu_backward(d_out, unit, norm, pre):
    # through y = act / ||act|| then relu; zero where the vector died
    inner = (unit * d_out).sum(axis=-1, keepdims=True)
    d_act = (d_out - unit * inner) / np.where(norm > 0, norm, np.inf)
    return d_act * (pre > 0)


def _attention_backward(params, de, s, H, cache, ds, dH, grads):
    kind, t = params.attention_kind, params.tensors
    if kind == "dot":
        ds += np.einsum("bf,bfe->be", de, H)
        dH += de[:, :, None] * s[:, None, :]
    elif kind == "multiplicative":
        g = np.einsum("bf,bfe->be", de, H)
        ds += g @ t["attention.w_mult"].T
        dH += de[:, :, None] * cache["u"][:, None, :]
        grads["attention.w_mult"] += s.T @ g
    elif kind == "additive":
        th = cache["t"]
        dt = de[:, :, None] * t["attention.w_score"] * (1.0 - th * th)
        grads["attention.w_score"] += de.reshape(-1) @ th.reshape(-1, th.shape[-1])
        dp = dt.sum(axis=1)
        ds += dp @ t["attention.w1"].T
        grads["attention.w1"] += s.T @ dp
        dH += dt @ t["attention.w2"].T
        grads["attention.w2"] += H.reshape(-1, H.shape[-1]).T @ dt.reshape(-1, dt.shape[-1])


def compute_gradients(params, xs, xf, labels, cfg, phase, gumbels):
    """Forward plus exact gradients of the surrogate objective for one batch.

    xs (B, d_in) holds the sentences, xf (B, F, d_in) the sampled frames and
    labels (B,) a 1 per matched pair and a 0 per other pair; phase is
    "freeze" or "joint". gumbels (B, 2) is the gumbel_hard gate's noise,
    and None when the gate draws none (softmax_soft, or the discriminator
    off); the step itself draws nothing. Returns
    (fwd, grad): fwd is the BatchForward summary and grad one vector laid
    out like params.flat. In the freeze phase the discriminator tensors
    get exactly zero gradient and the gate contributes no pathway.
    """
    b = xs.shape[0]
    t = params.tensors
    disc_on = cfg.discriminator_enabled
    hard = cfg.sampler_kind == "gumbel_hard"
    joint = phase == "joint"

    # forward
    s, pre_s, ns = embed(params, "language", xs)
    H, pre_h, nh = embed(params, "vision", xf)
    v, alpha, att_cache = attend(params, s, H)
    p_lvc = np.einsum("be,be->b", s, v)
    f_lvc = t["a_lvc"][0] * p_lvc + t["b_lvc"][0]

    if disc_on:
        q = s @ t["disc.bvf"].T
        jstar = q.argmax(axis=1)
        p_adv = q[np.arange(b), jstar]
        f_adv = adv_logit(params, p_lvc, p_adv)
        z, w = sample_gate(f_adv, cfg.tau, cfg.sampler_kind, gumbels)
        pair_adv = softplus(f_adv)
        keep = 1.0 - z if hard else 1.0 - w
    else:
        z, pair_adv, keep = np.zeros(b, dtype=int), np.zeros(b), np.ones(b)

    if cfg.loss_kind == "bce":
        pair_lvc = bce_loss(labels, f_lvc)
        lvc_sum, lvc_weight = float((keep * pair_lvc).sum()), float(keep.sum())
        lvc_term = lvc_sum / b
    else:
        pair_lvc = None
        pos = np.flatnonzero(labels == 1)
        # z is all zero with the discriminator off, so every positive stays
        member_idx = pos[z[pos] == 0] if hard else pos
        m = member_idx.shape[0]
        if m >= 2:
            # sentence a against clip b's own pooled vector
            r_h, c_h, jr, jc = triplet_hinges(s[member_idx] @ v[member_idx].T,
                                              cfg.triplet_margin)
            hinges = r_h + c_h
            lvc_sum, lvc_weight = float((keep[member_idx] * hinges).sum()), m
            lvc_term = lvc_sum / m
        else:
            lvc_sum, lvc_weight, lvc_term = 0.0, 0, 0.0

    adv_sum = float(((1.0 - keep) * pair_adv).sum())
    adv_term = adv_sum / b if (disc_on and joint) else 0.0
    loss = lvc_term + adv_term
    if not np.isfinite(loss):
        raise NumericError("non-finite batch loss; check learning rate and inputs")
    fwd = BatchForward(keep=keep, lvc_sum=lvc_sum, lvc_weight=lvc_weight, adv_sum=adv_sum)

    # backward
    grad = np.zeros(params.flat.size)
    grads = tensor_views(grad, params.layout)
    dp_lvc = np.zeros(b)

    # match-loss pathway (bce kind)
    if cfg.loss_kind == "bce":
        df_lvc = keep / b * (sigmoid(f_lvc) - labels)
        grads["a_lvc"][0] += float(df_lvc @ p_lvc)
        grads["b_lvc"][0] += float(df_lvc.sum())
        dp_lvc += df_lvc * t["a_lvc"][0]

    # adversarial loss and gate pathway (joint phase only)
    if disc_on and joint:
        b_coef = (z if hard else w) / b
        dw_coef = (pair_adv - pair_lvc if cfg.loss_kind == "bce" else pair_adv) / b
        if cfg.loss_kind == "triplet" and m >= 2:
            dw_coef[member_idx] -= hinges / m
        df_adv = b_coef * sigmoid(f_adv) + dw_coef * w * (1.0 - w) / cfg.tau

        grads["disc.b_adv"][0] += float(df_adv.sum())
        dp_adv = df_adv * t["disc.a_adv"][0]
        if params.input_mode == "residual":
            grads["disc.a_adv"][0] += float(df_adv @ (p_adv - p_lvc))
            dp_lvc -= dp_adv
        elif params.input_mode == "concat":
            grads["disc.a_adv"][0] += float(df_adv @ p_adv)
            grads["disc.a_adv"][1] += float(df_adv @ p_lvc)
            dp_lvc += df_adv * t["disc.a_adv"][1]
        else:
            grads["disc.a_adv"][0] += float(df_adv @ p_adv)

        np.add.at(grads["disc.bvf"], jstar, dp_adv[:, None] * s)

    # pair score pathway
    ds = dp_lvc[:, None] * v
    dv = dp_lvc[:, None] * s
    if disc_on and joint:
        ds += dp_adv[:, None] * t["disc.bvf"][jstar]

    # triplet matrix: S = Sm @ Vm.T over members, feeding the same ds/dv
    if cfg.loss_kind == "triplet" and m >= 2:
        coeff = keep[member_idx] / m
        dS = np.zeros((m, m))
        idx = np.arange(m)
        ra, ca = r_h > 0, c_h > 0
        dS[idx[ra], jr[ra]] += coeff[ra]
        dS[jc[ca], idx[ca]] += coeff[ca]
        dS[idx, idx] -= coeff * ra + coeff * ca
        ds[member_idx] += dS @ v[member_idx]
        dv[member_idx] += dS.T @ s[member_idx]

    # attention pooling backward for every pair
    dalpha = np.einsum("be,bfe->bf", dv, H)
    dH = alpha[:, :, None] * dv[:, None, :]
    if params.attention_kind != "uniform":
        de = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
        _attention_backward(params, de, s, H, att_cache, ds, dH, grads)

    # shared encoder backward
    dpre_s = _l2relu_backward(ds, s, ns, pre_s)
    grads["language.weight"] += xs.T @ dpre_s
    grads["language.bias"] += dpre_s.sum(axis=0)
    dpre_h = _l2relu_backward(dH, H, nh, pre_h)
    grads["vision.weight"] += (xf.reshape(-1, xf.shape[-1]).T
                               @ dpre_h.reshape(-1, dpre_h.shape[-1]))
    grads["vision.bias"] += dpre_h.sum(axis=(0, 1))

    if not np.isfinite(grad).all():
        raise NumericError(f"non-finite gradient in {first_nonfinite(grads)}")
    return fwd, grad
