"""Shared test oracles: a frozen-noise surrogate objective, central
finite differences over it, the triplet loss by enumeration, the
frame sampler one batch at a time, the per-tensor SGD rule, the
per-query retrieval rank, the whole score matrix from eval's blocks,
additive attention's exact scores of one clip against every query at
once, frame scores by formula, the attention dump and the background bank
computed one record at a time, exact record equality, a corpus-file
reader and writer that edit records field by field in either file
version, and the corpus generator drawn and normalised one vector at a
time.

The analytic gradients are exact for the objective in which the gate's
random draw is pinned: the hard call z and the gumbel pair keep their
sampled values while the smooth gate weight w tracks the parameters
(straight-through). surrogate composes that objective from model's
formula functions (embed, attend, adv_logit, sample_gate) and the loss
functions, so finite differences can probe it one coordinate at a time.
It reads nothing from compute_gradients; gradient_mismatches checks the
step's reported sums against its own.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from pairsieve.config import TrainConfig
from pairsieve import evaluation
from pairsieve.corpus import TAGS, ClipRecord, CorpusError, build_concept_bank
from pairsieve.gradients import compute_gradients
from pairsieve.losses import bce_loss, softplus, triplet_hinges
from pairsieve.model import (adv_logit, attend, embed, init_model, sample_gate,
                             sample_gumbel, softmax, tensor_views)

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_TOL = 1e-7
# the oracle's keep and loss sums against the step's
SUM_TOL = 1e-12


def surrogate(params, batch, cfg, phase, gumbels, pinned=None):
    """The step's objective with the gate noise pinned, and what it reports.

    batch = (xs, xf, labels) and gumbels, the gate's (B, 2) noise or None,
    as compute_gradients takes them, and pinned = (z0, w0) the
    hard calls and gate weights at the base point; None makes this call
    the base point. The gate weight is z0 + w - w0 for the hard sampler
    and w for the soft one, held at its base value in the freeze phase;
    keep = 1 - gate weights the match loss, and gate the adversarial loss,
    which only the joint phase optimizes. Triplet members are the
    positives with z0 = 0 (all positives for the soft sampler).

    Returns (loss, keep, lvc_sum, lvc_weight, adv_sum, pinned); the middle
    four are what compute_gradients reports at the base point.
    """
    xs, xf, labels = batch
    b = xs.shape[0]
    hard = cfg.sampler_kind == "gumbel_hard"
    joint = phase == "joint"
    t = params.tensors
    s = embed(params, "language", xs)[0]
    v = attend(params, s, embed(params, "vision", xf)[0])[0]
    p_lvc = (s * v).sum(axis=1)
    if cfg.discriminator_enabled:
        f_adv = adv_logit(params, p_lvc, (s @ t["disc.bvf"].T).max(axis=1))
        z, w = sample_gate(f_adv, cfg.tau, cfg.sampler_kind, gumbels)
        z0, w0 = pinned = (z, w) if pinned is None else pinned
        if not joint:
            gate = z0 if hard else w0
        else:
            gate = z0 + (w - w0) if hard else w
        pair_adv = softplus(f_adv)
    else:
        z0, gate, pair_adv = np.zeros(b, dtype=int), np.zeros(b), np.zeros(b)
    keep = 1.0 - gate

    if cfg.loss_kind == "bce":
        pair_lvc = bce_loss(labels, t["a_lvc"][0] * p_lvc + t["b_lvc"][0])
        lvc_sum, lvc_weight = float((keep * pair_lvc).sum()), float(keep.sum())
        lvc = lvc_sum / b
    else:
        pos = np.flatnonzero(labels == 1)
        members = pos[z0[pos] == 0] if hard else pos
        m = members.shape[0]
        lvc_sum, lvc_weight, lvc = 0.0, 0, 0.0
        if m >= 2:
            r_h, c_h, _, _ = triplet_hinges(s[members] @ v[members].T, cfg.triplet_margin)
            lvc_sum, lvc_weight = float((keep[members] * (r_h + c_h)).sum()), m
            lvc = lvc_sum / m
    adv_sum = float((gate * pair_adv).sum())
    adv = adv_sum / b if cfg.discriminator_enabled and joint else 0.0
    return lvc + adv, keep, lvc_sum, lvc_weight, adv_sum, pinned


def reference_sample_frames(records, clip_idx, n_f, rng):
    """One batch's sampled frames (B, n_f, d), drawn with one rng.random((B, W)) call.

    W = max(n_f, longest clip in the batch). A clip of L >= n_f frames keeps
    the frames with the n_f smallest of its first L keys; a shorter clip
    keeps every frame and fills the remaining slots with frame
    floor(key * L). corpus.sample_frames draws a whole epoch of these
    batches in one call and must pick the same frames.
    """
    clips = [records[i].frames_raw for i in clip_idx]
    lengths = np.array([c.shape[0] for c in clips])
    keys = rng.random((len(clips), max(n_f, lengths.max())))
    frame = np.arange(keys.shape[1])
    inside = frame < lengths[:, None]
    subset = np.argpartition(np.where(inside, keys, 2.0), n_f - 1, axis=1)[:, :n_f]
    reuse = np.where(inside[:, :n_f], frame[:n_f], (keys[:, :n_f] * lengths[:, None]).astype(int))
    idx = np.where((lengths >= n_f)[:, None], subset, reuse)
    idx.sort(axis=1)
    starts = np.cumsum(lengths) - lengths
    return np.concatenate(clips)[starts[:, None] + idx]


def finite_difference(fn, arr, h=FD_STEP):
    """Central differences of the scalar fn() over every entry of arr."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        hi = fn()
        arr[idx] = orig - h
        lo = fn()
        arr[idx] = orig
        g[idx] = (hi - lo) / (2.0 * h)
    return g


def gradient_mismatches(params, batch, cfg, phase, rng):
    """Compare analytic gradients against finite differences.

    The gumbel_hard gate's (B, 2) noise comes from a fresh generator seeded
    from rng, and the step and every surrogate call take the same noise.
    The step's keep and loss sums must match the surrogate's at the base
    point to SUM_TOL. Returns a list of (tensor name, index, analytic,
    numeric) tuples for every coordinate outside tolerance; an empty list
    means agreement.
    """
    seed = int(rng.integers(2**63))
    gumbels = None
    if cfg.discriminator_enabled and cfg.sampler_kind == "gumbel_hard":
        gumbels = sample_gumbel(np.random.default_rng(seed), (batch[0].shape[0], 2))
    fwd, grad = compute_gradients(params, *batch, cfg, phase, gumbels)
    _, keep, lvc_sum, lvc_weight, adv_sum, pinned = surrogate(params, batch, cfg, phase, gumbels)
    for name, ours, step in (("keep", keep, fwd.keep), ("lvc_sum", lvc_sum, fwd.lvc_sum),
                             ("lvc_weight", lvc_weight, fwd.lvc_weight),
                             ("adv_sum", adv_sum, fwd.adv_sum)):
        if not np.allclose(ours, step, rtol=SUM_TOL, atol=SUM_TOL):
            raise AssertionError(f"surrogate {name} {ours!r} differs from the step's {step!r}")
    grads = tensor_views(grad, params.layout)
    bad = []
    for name, arr in params.tensors.items():
        num = finite_difference(
            lambda: surrogate(params, batch, cfg, phase, gumbels, pinned)[0], arr)
        ana = grads[name]
        err = np.abs(ana - num)
        tol = np.maximum(ABS_TOL, REL_TOL * np.maximum(np.abs(ana), np.abs(num)))
        for idx in np.argwhere(err > tol):
            i = tuple(int(x) for x in idx)
            bad.append((name, i, float(ana[i]), float(num[i])))
    return bad


def random_problem(rng, attention="dot", input_mode="residual",
                   sampler="gumbel_hard", loss="bce", disc_on=True,
                   d_in=4, d_emb=4, n_frames=2, batch=4, n_bvf=2):
    """A small random model, one balanced batch (xs, xf, labels) and its config."""
    cfg = TrainConfig(
        attention_kind=attention, input_mode=input_mode, sampler_kind=sampler,
        loss_kind=loss, discriminator_enabled=disc_on, batch_size=batch,
        d_emb=d_emb, bvf_count=n_bvf, n_f=n_frames,
    )
    params = init_model(d_in, d_emb, attention, input_mode, n_bvf, rng)
    # keep most relu units clear of the kink, where central differences
    # measure the wrong thing
    params.tensors["language.bias"] += 0.3
    params.tensors["vision.bias"] += 0.3
    half = batch // 2
    xs = rng.normal(size=(batch, d_in))
    xf = rng.normal(size=(batch, n_frames, d_in))
    labels = np.array([1] * half + [0] * (batch - half))
    return params, (xs, xf, labels), cfg


def triplet_by_enumeration(sim, margin):
    """Hardest-negative triplet loss by looping over every anchor and negative."""
    n = sim.shape[0]
    total = 0.0
    for i in range(n):
        row_hard = max(sim[i, j] for j in range(n) if j != i)
        col_hard = max(sim[j, i] for j in range(n) if j != i)
        total += max(0.0, margin - sim[i, i] + row_hard)
        total += max(0.0, margin - sim[i, i] + col_hard)
    return total / n


def sgd_step_per_tensor(tensors, grads, velocity, lr, momentum, weight_decay,
                        frozen=(), no_decay=()):
    """Reference SGD rule, one tensor at a time over name -> array maps.

    velocity <- momentum * velocity + (grad + weight_decay * param), then
    param <- param - lr * velocity; frozen names are skipped entirely and
    no_decay names drop the weight_decay term.
    """
    for name, arr in tensors.items():
        if name in frozen:
            continue
        g = grads[name] if name in no_decay else grads[name] + weight_decay * arr
        vel = velocity[name]
        vel *= momentum
        vel += g
        arr -= lr * vel


def rank_of(scores, rel_idx):
    """1-based rank of scores[rel_idx] in one query's score vector.

    Ties break by candidate index: an equal score before the relevant
    item outranks it, an equal score after it does not.
    """
    s = scores[rel_idx]
    return 1 + int((scores > s).sum()) + int((scores[:rel_idx] == s).sum())


def full_score_matrix(params, records, near=None):
    """The n x n score matrix: evaluation.score_matrix's blocks side by side.

    The blocks are the ones bidirectional_retrieval scores, BLOCK_CLIPS
    clips wide, against the query side embedded once, with its own-pair
    scores as near unless near is given: a near of NaN places no pair, so
    every additive entry is scored exactly.
    """
    n, width = len(records), evaluation.BLOCK_CLIPS
    queries = evaluation.embed_queries(params, records)
    if near is None:
        near = evaluation.own_pair_scores(params, records, queries)
    return np.hstack([evaluation.score_matrix(params, records, queries, near, lo,
                                              min(lo + width, n))
                      for lo in range(0, n, width)])


def additive_clip_scores(params, h, sT, q):
    """Every query's exact additive score against one clip h (F, E).

    sT (E, n) and q (A, n) are evaluation.embed_queries' query side. All
    n queries are scored side by side in (A, n) arrays, one clip at a
    time, with the operations model.additive_pair_scores applies to
    gathered pairs, so for n > 1 its scores must be the same bits.
    """
    t = params.tensors
    p, c, w = h @ sT, h @ t["attention.w2"], t["attention.w_score"]
    e, work = np.empty_like(p), np.empty_like(q)
    for f, cf in enumerate(c):
        np.add(q, cf[:, None], out=work)
        np.tanh(work, out=work)
        np.einsum("a,an->n", w, work, out=e[f])
    return np.einsum("fn,fn->n", softmax(e, axis=0), p)


def frame_scores_by_formula(params, s, h):
    """Frame-by-frame score of one sentence s (E,) against frames h (F, E)."""
    t = params.tensors
    out = []
    for frame in h:
        if params.attention_kind == "uniform":
            out.append(0.0)
        elif params.attention_kind == "dot":
            out.append(s @ frame)
        elif params.attention_kind == "multiplicative":
            out.append(s @ t["attention.w_mult"] @ frame)
        else:
            out.append(np.tanh(s @ t["attention.w1"] + frame @ t["attention.w2"])
                       @ t["attention.w_score"])
    return np.array(out)


def reference_attention_dump(params, records):
    """export_attention's weights, one record at a time: the record's sentence and
    frames embedded alone, each frame scored by its formula, then the softmax."""
    weights = []
    for rec in records:
        s = embed(params, "language", rec.sentence_raw)[0]
        e = frame_scores_by_formula(params, s, embed(params, "vision", rec.frames_raw)[0])
        w = np.exp(e - e.max())
        weights.append(w / w.sum())
    return weights


def attention_rows(records, weights):
    """One dict per frame, in record and frame order, from each record's attention
    weights: clip id, frame index, grounded flag, weight, and weight relative to
    the clip's strongest frame (the attention-dump columns)."""
    return [{"clip_id": rec.id, "frame": f, "grounded": int(rec.grounded[f]),
             "alpha": float(a), "alpha_rel": float(a / alpha.max())}
            for rec, alpha in zip(records, weights) for f, a in enumerate(alpha)]


def reference_bank(params, clips, rng):
    """The bank init_bvf seeds, from one clip at a time: each clip's frames
    embedded alone and averaged, then grouped and normalised as init_bvf does."""
    bank = params.tensors["disc.bvf"].copy()
    pooled = np.stack([embed(params, "vision", c.frames_raw)[0].mean(axis=0) for c in clips])
    for i, g in enumerate(np.array_split(rng.permutation(len(clips)), bank.shape[0])):
        mean = pooled[g].mean(axis=0) if g.size else np.zeros(bank.shape[1])
        norm = np.linalg.norm(mean)
        if norm < 1e-12:
            mean = rng.normal(size=bank.shape[1])
            norm = np.linalg.norm(mean)
        bank[i] = mean / norm
    return bank


def records_equal(a, b):
    """Exact field-for-field equality of two corpus records (floats bit-identical)."""
    return (
        a.id == b.id
        and a.tag == b.tag
        and np.array_equal(a.sentence_raw, b.sentence_raw)
        and np.array_equal(a.frames_raw, b.frames_raw)
        and np.array_equal(a.grounded, b.grounded)
    )


def corpus_fields(path):
    """(header, records) of a version-2 corpus file, as JSON dicts.

    Each record's "sentence" becomes a (d,) array and "frames" a (F, d)
    array, decoded independently of pairsieve.corpus.
    """
    header, *lines = path.read_text().splitlines()
    header = json.loads(header)
    assert header["version"] == 2, header
    records = []
    for line in lines:
        rec = json.loads(line)
        sentence = np.frombuffer(base64.b64decode(rec["sentence"]), "<f8")
        rec["sentence"] = sentence
        rec["frames"] = np.frombuffer(base64.b64decode(rec["frames"]), "<f8").reshape(
            -1, sentence.shape[0])
        records.append(rec)
    return header, records


def corpus_line(record, version):
    """One record line in a corpus file version, from corpus_fields' form.

    "frames" may be a list of rows of unequal length: version 1 writes
    the rows as they are, version 2 writes their floats one after another.
    """
    rec = dict(record)
    rows = [np.asarray(row, dtype=float) for row in rec["frames"]]
    if version == 1:
        rec["sentence"] = np.asarray(rec["sentence"], dtype=float).tolist()
        rec["frames"] = [row.tolist() for row in rows]
    else:
        rec["sentence"] = base64.b64encode(
            np.asarray(rec["sentence"], dtype="<f8").tobytes()).decode()
        rec["frames"] = base64.b64encode(
            np.concatenate(rows).astype("<f8").tobytes()).decode()
    return json.dumps(rec)


def _unit(x):
    n = np.linalg.norm(x)
    if n < 1e-12:
        raise CorpusError("degenerate feature vector (norm ~ 0)")
    return x / n


def _perturbed_unit(concepts, subset, sigma, rng):
    # unit-norm composition of the subset, jittered, then re-normalized
    base = _unit(concepts[subset].sum(axis=0))
    if sigma > 0:
        base = _unit(base + sigma * rng.normal(size=base.shape))
    return base


def _reference_record(rec_id, tag, concepts, spec, rng):
    m = spec.concepts_per_pair
    n_frames = int(rng.integers(spec.frame_len_min, spec.frame_len_max + 1))
    own = rng.choice(spec.k, size=m, replace=False)
    rest = np.setdiff1d(np.arange(spec.k), own)
    sentence = _perturbed_unit(concepts, own, spec.feature_noise_sigma, rng)

    frames = np.empty((n_frames, spec.d))
    grounded = np.zeros(n_frames, dtype=bool)
    if tag == "clean":
        n_grounded = int(rng.integers((n_frames + 1) // 2, n_frames + 1))
        grounded[rng.choice(n_frames, size=n_grounded, replace=False)] = True
        for i in range(n_frames):
            subset = own if grounded[i] else rng.choice(rest, size=m, replace=False)
            frames[i] = _perturbed_unit(concepts, subset, spec.feature_noise_sigma, rng)
    elif tag == "loose":
        g = int(rng.integers(n_frames))
        grounded[g] = True
        shared = own[int(rng.integers(m))]
        for i in range(n_frames):
            if i == g:
                subset = np.concatenate(
                    [[shared], rng.choice(rest, size=m - 1, replace=False)]
                ).astype(int)
            else:
                subset = rng.choice(rest, size=m, replace=False)
            frames[i] = _perturbed_unit(concepts, subset, spec.feature_noise_sigma, rng)
    elif tag == "noise":
        for i in range(n_frames):
            subset = rng.choice(rest, size=m, replace=False)
            frames[i] = _perturbed_unit(concepts, subset, spec.feature_noise_sigma, rng)
    else:
        raise CorpusError(f"unknown tag {tag!r}")

    record = ClipRecord(
        id=rec_id, sentence_raw=sentence, frames_raw=frames, tag=tag, grounded=grounded
    )
    record.validate()
    return record


def reference_corpus(spec):
    """(train, test) record lists as the generator drew them one vector at a time.

    Each sentence and frame is composed, jittered and normalised on its own,
    with the norm from np.linalg.norm; generate_corpus must match it bit for bit.
    """
    spec.validate()
    root = np.random.SeedSequence(spec.seed)
    ss_bank, ss_train, ss_test = root.spawn(3)
    concepts = build_concept_bank(spec.k, spec.d, ss_bank)

    rng_train = np.random.default_rng(ss_train)
    probs = np.array([spec.frac_clean, spec.frac_loose, spec.frac_noise])
    tag_idx = rng_train.choice(len(TAGS), size=spec.n_train, p=probs / probs.sum())
    train = [
        _reference_record(f"train-{i:05d}", TAGS[tag_idx[i]], concepts, spec, rng_train)
        for i in range(spec.n_train)
    ]

    rng_test = np.random.default_rng(ss_test)
    test = [
        _reference_record(f"test-{i:04d}", "clean", concepts, spec, rng_test)
        for i in range(spec.n_test)
    ]
    return train, test
