"""Embedding channels, frame attention, and the gating discriminator.

Both modalities map raw features through a single fully-connected layer
with ReLU and L2 normalization. Video-side embeddings pool their frames
through one of several attention scorers conditioned on the sentence.
The discriminator compares the pair score against the best match over a
small bank of background video features and turns that margin into a
keep-or-discard gate via the Gumbel trick.

This module is the only home of the forward formulas; training, eval
and attention-dump all call them. A formula that uses trainable tensors
takes the ModelParams and reads them by layout name ("attention.w1",
"disc.a_adv"), the names the gradient, the SGD step and checkpoints use
too. Shape contract: embed maps (..., d_in) to (..., E) through the
"language" or "vision" channel; attention_scores and attend take
sentences s (..., E) and frames h (..., F, E) and broadcast the leading
axes, so training's batch (B, E) with (B, F, E) and whole records,
chunked by frame count, take the same einsum path; clip_scores takes one
clip (F, E) and every query on the last axis, s.T (E, n), with
query_projection's q; adv_logit and sample_gate work elementwise on
arrays, and sample_gate takes its noise as an array rather than drawing
it. Additive attention, whose exact score costs a tanh per query,
frame and attention unit, has eval's filter formulas instead of
clip_scores: clip_bounds and vertex_bounds bound a pair's score from its
frame scores, and additive_pair_scores scores gathered pairs exactly.
A model's attention kind and input mode are checked once, by
model_layout when it is made or loaded, so the formulas branch on them
with no fallback error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .corpus import BLOCK_CLIPS, length_chunks
from .files import read_text, write_atomically
from .losses import sigmoid

ATTENTION_KINDS = ("uniform", "dot", "multiplicative", "additive")
INPUT_MODES = ("residual", "concat", "adv_only")
SAMPLER_KINDS = ("gumbel_hard", "softmax_soft")

PARAMS_FORMAT = "pairsieve-params"
PARAMS_VERSION = 1
# init_model and load_checkpoint refuse a model of more values than this
# (512 MiB as float64) before allocating it; training also holds a velocity
# and a gradient of the same size
MAX_MODEL_VALUES = 2**26


class ModelError(ValueError):
    """Bad model configuration, shapes, or checkpoint contents."""


@dataclass
class ModelParams:
    """Everything trainable, addressed by layout name.

    flat holds every value and layout places each tensor in it as a
    (name, start, stop, shape) entry; model_layout picks the names and
    shapes. tensors maps each name to its view of flat, in layout order.
    Write tensors in place: a rebound entry is cut off from flat and from
    training.

    disc.bvf rows start as unit vectors (init_model, init_bvf); nothing
    projects them back, so SGD and weight decay may shrink them. a_lvc,
    the scale on the pair score for the match logit, and b_lvc, its
    offset, are exempt from weight decay: the pair score lies in [0, 1],
    so decay on the scale would flatten the logit (optim,
    training.NO_DECAY).
    """

    attention_kind: str
    input_mode: str
    flat: np.ndarray
    layout: tuple
    tensors: dict


def pack_layout(shapes):
    """Lay (name, shape) pairs end to end: one (name, start, stop, shape) each."""
    out, start = [], 0
    for name, shape in shapes:
        stop = start + math.prod(shape)
        out.append((name, start, stop, shape))
        start = stop
    return tuple(out)


def tensor_views(flat, layout):
    """name -> view of flat for each layout entry."""
    return {name: flat[start:stop].reshape(shape) for name, start, stop, shape in layout}


def model_layout(d_in, d_emb, attention_kind, input_mode, n_bvf, d_att, max_values=None):
    """The flat layout of a model, checked before anything is allocated.

    Validates the attention kind, the input mode and the sizes; a d_att
    below 1 means d_emb. A layout of more than max_values values (a
    checkpoint's bound from its file length) or of more than
    MAX_MODEL_VALUES is a ModelError.
    """
    if attention_kind not in ATTENTION_KINDS:
        raise ModelError(f"unknown attention kind {attention_kind!r}")
    if input_mode not in INPUT_MODES:
        raise ModelError(f"unknown discriminator input mode {input_mode!r}")
    if d_in < 1 or d_emb < 1 or n_bvf < 1:
        raise ModelError("d_in, d_emb, and n_bvf must all be >= 1")
    if d_att < 1:
        d_att = d_emb
    shapes = [("language.weight", (d_in, d_emb)), ("language.bias", (d_emb,)),
              ("vision.weight", (d_in, d_emb)), ("vision.bias", (d_emb,))]
    if attention_kind == "multiplicative":
        shapes.append(("attention.w_mult", (d_emb, d_emb)))
    elif attention_kind == "additive":
        shapes += [("attention.w1", (d_emb, d_att)), ("attention.w2", (d_emb, d_att)),
                   ("attention.w_score", (d_att,))]
    shapes += [("disc.bvf", (n_bvf, d_emb)),
               ("disc.a_adv", (2,) if input_mode == "concat" else (1,)),
               ("disc.b_adv", (1,)), ("a_lvc", (1,)), ("b_lvc", (1,))]
    layout = pack_layout(shapes)
    n_values = layout[-1][2]
    if max_values is not None and n_values > max_values:
        raise ModelError("checkpoint meta describes more values than the file holds")
    if n_values > MAX_MODEL_VALUES:
        raise ModelError(f"a model with d_in={d_in}, d_emb={d_emb}, bvf_count={n_bvf}, "
                         f"d_att={d_att} has {n_values} values, above the limit of "
                         f"{MAX_MODEL_VALUES}")
    return layout


def _zero_model(d_in, d_emb, attention_kind, input_mode, n_bvf, d_att, max_values=None):
    """Zero-filled ModelParams whose tensors are views into one flat vector.

    The arguments are model_layout's, which checks them first.
    """
    layout = model_layout(d_in, d_emb, attention_kind, input_mode, n_bvf, d_att, max_values)
    flat = np.zeros(layout[-1][2])
    return ModelParams(attention_kind, input_mode, flat, layout, tensor_views(flat, layout))


def init_model(d_in, d_emb, cfg_attention, cfg_input_mode, n_bvf, rng, d_att=0):
    """Random init; weights ~ N(0, 1/sqrt(fan_in)), biases zero.

    A model of more than MAX_MODEL_VALUES values is a ModelError, raised
    before anything is allocated.

    The gate bias starts slightly negative so early training keeps most
    pairs, matching the warm-up behaviour we want before the channels
    have learned anything.
    """
    params = _zero_model(d_in, d_emb, cfg_attention, cfg_input_mode, n_bvf, d_att)
    t = params.tensors
    for name in ("language.weight", "vision.weight", "attention.w_mult",
                 "attention.w1", "attention.w2", "attention.w_score"):
        if name in t:
            # fan_in is the first axis: d_in, d_emb, or d_att for w_score
            t[name][...] = rng.normal(scale=1.0 / np.sqrt(t[name].shape[0]),
                                      size=t[name].shape)
    raw = rng.normal(size=t["disc.bvf"].shape)
    t["disc.bvf"][...] = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    # start the gate steep enough that score differences between good and
    # bad pairs move it, and biased toward keeping pairs early on
    t["disc.a_adv"][...] = [4.0, -4.0] if cfg_input_mode == "concat" else [4.0]
    t["disc.b_adv"][...] = -0.4
    t["a_lvc"][...] = 1.0
    return params


def embed(params, side, x):
    """l2norm(relu(x @ W + b)) over the last axis; returns (y, pre, norm).

    side, "language" or "vision", names the channel whose weight W and
    bias b apply. pre is the pre-activation and norm the ReLU output's L2
    norm, both kept for the backward pass. If ReLU zeroes every unit the
    embedding is the zero vector, not an error; downstream scores with it
    are simply 0.
    """
    t = params.tensors
    pre = x @ t[f"{side}.weight"] + t[f"{side}.bias"]
    act = np.maximum(pre, 0.0)
    norm = np.sqrt(np.einsum("...e,...e->...", act, act))[..., None]
    return act / np.where(norm > 0, norm, np.inf), pre, norm


def attention_scores(params, s, h):
    """Raw frame scores e (..., F) and the cache backward needs.

    s is (..., E) and h is (..., F, E): one pair or a batch of pairs.
    """
    kind, t = params.attention_kind, params.tensors
    if kind == "uniform":
        return np.zeros(np.broadcast_shapes(s.shape[:-1] + (1,), h.shape[:-1])), {}
    if kind == "dot":
        return np.einsum("...e,...fe->...f", s, h), {}
    if kind == "multiplicative":
        u = s @ t["attention.w_mult"]
        return np.einsum("...e,...fe->...f", u, h), {"u": u}
    th = np.tanh((s @ t["attention.w1"])[..., None, :] + h @ t["attention.w2"])  # (..., F, A)
    return th @ t["attention.w_score"], {"t": th}


def softmax(e, axis=-1):
    m = e - e.max(axis=axis, keepdims=True)
    w = np.exp(m)
    return w / w.sum(axis=axis, keepdims=True)


def attend(params, s, h):
    """Pool frames into video vectors; returns (v (..., E), alpha (..., F), cache).

    Shapes as in attention_scores; cache is its backward cache.
    """
    e, cache = attention_scores(params, s, h)
    alpha = softmax(e)
    return np.einsum("...f,...fe->...e", alpha, h), alpha, cache


def query_projection(params, sT):
    """clip_scores' q for the queries sT (E, n): (s @ w_mult).T, (s @ w1).T or None."""
    name = {"multiplicative": "attention.w_mult",
            "additive": "attention.w1"}.get(params.attention_kind)
    return None if name is None else params.tensors[name].T @ sT


def clip_scores(params, h, sT, q):
    """s_i . v_i for every query i against one clip h (F, E); sT is (E, n).

    q is query_projection(params, sT). As s . v = sum_f alpha_f s . h_f
    with the frame scores p_f = s . h_f, v is not built. Uniform, dot and
    multiplicative attention only: eval scores additive attention through
    clip_bounds, vertex_bounds and additive_pair_scores.
    """
    kind = params.attention_kind
    p = h @ sT  # (F, n)
    if kind == "uniform":
        e = np.zeros_like(p)
    elif kind == "dot":
        e = p
    else:
        e = h @ q
    return np.einsum("fn,fn->n", softmax(e, axis=0), p)


def clip_bounds(params, h, p):
    """Additive attention's bounds on one clip's scores: (c, r, ub, lb).

    h (F, E) is the clip and p = h @ sT (F, n) its frame scores under
    every query. c = h @ w2 (F, A) are its frame projections. Two of its
    logits differ by at most delta = max_fg sum_a |w_score_a|
    min(2, |c_fa - c_ga|), as tanh is 1-Lipschitz and bounded by 1, so no
    softmax weight is below r = e^-delta times another (math.exp, which
    goes to 0 without an underflow error). Each weight is then at least
    a = r / (r + F - 1), and ub = a sum_f p_f + (1 - F a) max_f p_f and
    lb, the same with min_f p_f, bound every query's score s . v from
    above and below. A NaN bound means nothing is known.
    """
    t = params.tensors
    c, w = h @ t["attention.w2"], t["attention.w_score"]
    r = math.exp(-(np.minimum(np.abs(c[:, None] - c), 2.0) @ np.abs(w)).max())
    frames = len(p)
    a = r / (r + frames - 1)
    mix, rest = a * p.sum(axis=0), 1.0 - frames * a
    return c, r, mix + rest * p.max(axis=0), mix + rest * p.min(axis=0)


def vertex_bounds(p, r):
    """The tightest bounds (ub, lb) on pairs' scores that their r allows.

    p (F, m) holds the frame scores of m pairs with F frames each, r (m,)
    their clip_bounds r. A score is sum_f u_f p_f / sum_f u_f with
    weights u_f in [r, 1] (scaled to a top of 1). That ratio is highest
    with u = 1 on the k highest frame scores and r on the rest, for some
    k, and lowest with the k lowest; with L_k the sum of the k lowest
    and T = L_F, ub = max_k (T - (1 - r) L_(F-k)) / (k + r (F - k)) and
    lb = min_k (r T + (1 - r) L_k) / (k + r (F - k)). A NaN frame score
    gives NaN bounds.
    """
    frames = len(p)
    low = np.zeros((frames + 1, p.shape[1]))  # low[k] = L_k
    low[1:] = np.sort(p, axis=0)
    np.cumsum(low, axis=0, out=low)
    total, q = low[-1], 1.0 - r
    weight = np.arange(1.0, frames + 1)[:, None] * q + r * frames  # row k - 1: k + r (F - k)
    return (((total - q * low[-2::-1]) / weight).max(axis=0),
            ((r * total + q * low[1:]) / weight).min(axis=0))


def additive_pair_scores(params, q, ct, p, rows, clips):
    """Exact additive scores s_i . v_ij of m gathered pairs of F-frame clips.

    Pair k is query rows[k], column rows[k] of query_projection's q
    (A, n), against clip clips[k], whose frame projections c (F, A)
    (clip_bounds) are ct[:, :, clips[k]]; ct is (F, A, clips) and p
    (F, m) holds the pairs' frame scores. Each frame is one pass over all
    pairs: the gathered q plus c_f, tanh, and the w_score contraction.
    The gathers are C-ordered, and the contraction is einsum, not
    matmul, whose gemv rounds a column by its position; numpy sums a lone
    column in another order than several, so a lone pair is scored
    twice. So a score is the same bits for any m and any pairs beside it.
    """
    if rows.size == 1:
        return additive_pair_scores(params, q, ct, np.repeat(p, 2, axis=1), np.repeat(rows, 2),
                                    np.repeat(clips, 2))[:1]
    w = params.tensors["attention.w_score"]
    qg = np.take(q, rows, axis=1)  # q[:, rows] would come out Fortran-ordered
    work = np.empty_like(qg)
    e = np.empty_like(p)
    for f, cf in enumerate(ct):
        np.take(cf, clips, axis=1, out=work, mode="clip")
        work += qg
        np.tanh(work, out=work)
        np.einsum("a,an->n", w, work, out=e[f])
    return np.einsum("fn,fn->n", softmax(e, axis=0), p)


def adv_logit(params, p_lvc, p_adv):
    """Gate logit from the two pair scores, per the input mode; elementwise."""
    mode, a, b = params.input_mode, params.tensors["disc.a_adv"], params.tensors["disc.b_adv"]
    if mode == "residual":
        return a[0] * (p_adv - p_lvc) + b[0]
    if mode == "concat":
        return a[0] * p_adv + a[1] * p_lvc + b[0]
    return a[0] * p_adv + b[0]


def sample_gumbel(rng, size=None):
    u = rng.uniform(low=np.finfo(float).tiny, high=1.0, size=size)
    return -np.log(-np.log(u))


def sample_gate(f_adv, tau, sampler, gumbels):
    """Draw keep/discard decisions for logits (0, f_adv); returns (z, w).

    gumbel_hard perturbs both logits with the Gumbel(0,1) noise gumbels,
    shaped (..., 2) like f_adv plus a last axis (sample_gumbel draws it),
    and takes the argmax; its marginal P(z=1) is sigma(f_adv) for any tau.
    w is the softmax weight of the discard side at temperature tau.
    softmax_soft takes no noise (gumbels is None): w = sigma(f_adv / tau)
    and z is just the induced hard call (w > 1/2). sampler is one of
    SAMPLER_KINDS and tau > 0 (TrainConfig.validate).
    """
    if sampler == "softmax_soft":
        w = sigmoid(f_adv / tau)
        return np.greater(w, 0.5).astype(int), w
    margin = f_adv + gumbels[..., 1] - gumbels[..., 0]
    return (margin > 0).astype(int), sigmoid(margin / tau)


def init_bvf(params, clips, rng):
    """Seed the background bank from the current vision channel.

    Every training clip (there is at least one) is embedded with uniform
    frame pooling, in length_chunks of BLOCK_CLIPS clips; the pool is
    randomly split into n_bvf groups, and each bank row becomes the
    normalized group mean. Groups that die under ReLU fall back to a
    random unit vector.
    """
    bank = params.tensors["disc.bvf"]  # written row by row in place: a view into params.flat
    pooled = np.empty((len(clips), bank.shape[1]))
    for chunk in length_chunks(clips, BLOCK_CLIPS):
        frames = np.stack([clips[i].frames_raw for i in chunk])
        pooled[chunk] = embed(params, "vision", frames)[0].mean(axis=1)
    groups = np.array_split(rng.permutation(len(clips)), bank.shape[0])
    for i, g in enumerate(groups):
        mean = pooled[g].mean(axis=0) if g.size else np.zeros(bank.shape[1])
        norm = np.linalg.norm(mean)
        if norm < 1e-12:
            mean = rng.normal(size=bank.shape[1])
            norm = np.linalg.norm(mean)
        bank[i] = mean / norm


def save_checkpoint(params, path):
    """Serialize all tensors plus the metadata needed to rebuild them.

    The file is replaced atomically (files.write_atomically).
    """
    t = params.tensors
    meta = {
        "attention_kind": params.attention_kind,
        "input_mode": params.input_mode,
        "d_in": int(t["language.weight"].shape[0]),
        "d_emb": int(t["language.weight"].shape[1]),
        "d_att": int(t["attention.w_score"].shape[0]) if "attention.w_score" in t else 0,
        "n_bvf": int(t["disc.bvf"].shape[0]),
    }
    tensors = {
        name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
        for name, arr in t.items()
    }
    doc = {
        "format": PARAMS_FORMAT,
        "version": PARAMS_VERSION,
        "meta": meta,
        "tensors": tensors,
    }
    with write_atomically(path) as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path):
    """Rebuild ModelParams from save_checkpoint output; exact round-trip.

    The zero-filled model is laid out from meta; each tensor is then copied
    in from the file once it is present, has the layout's shape and holds
    only finite values. Anything else is a ModelError.
    """
    text = read_text(path, ModelError)
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ModelError(f"invalid checkpoint: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != PARAMS_FORMAT:
        raise ModelError(f"not a {PARAMS_FORMAT} file")
    if doc.get("version") != PARAMS_VERSION:
        raise ModelError(f"unsupported checkpoint version {doc.get('version')!r}")
    meta, entries = doc.get("meta"), doc.get("tensors")
    if not isinstance(meta, dict) or not isinstance(entries, dict):
        raise ModelError("checkpoint needs 'meta' and 'tensors' objects")
    d_in, d_emb, n_bvf, d_att = dims = [meta.get(k) for k in ("d_in", "d_emb", "n_bvf", "d_att")]
    if not all(type(v) is int and v >= 0 for v in dims):
        raise ModelError("checkpoint meta needs integers d_in, d_emb, n_bvf, d_att >= 0")
    # each stored value takes >= 2 characters: bounds what _zero_model allocates
    params = _zero_model(d_in, d_emb, meta.get("attention_kind"), meta.get("input_mode"),
                         n_bvf, d_att, max_values=len(text) // 2)
    for name, arr in params.tensors.items():
        entry = entries.get(name)
        if not isinstance(entry, dict):
            raise ModelError(f"checkpoint tensor {name!r} is missing or not an object")
        try:
            data = np.asarray(entry.get("data"), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ModelError(f"tensor {name!r} has non-numeric data") from exc
        if entry.get("shape") != list(arr.shape) or data.shape != (arr.size,):
            raise ModelError(f"tensor {name!r} has shape {entry.get('shape')} and "
                             f"{data.size} values, expected {list(arr.shape)}")
        if not np.all(np.isfinite(data)):
            raise ModelError(f"tensor {name!r} has non-finite values")
        arr[...] = data.reshape(arr.shape)
    return params
