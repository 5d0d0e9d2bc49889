"""Two-phase training loop.

Phase one (freeze) trains the embedding channels while the discriminator
stays fixed: the gate already filters pairs but receives no updates.
Phase two (joint) unfreezes the discriminator, adds the adversarial term
to the objective, and drops the learning rate once. Per-epoch metrics
stream to CSV as they are produced, so a crashed run keeps its history.

Before an epoch's first step, everything the epoch needs that does not
depend on the parameters is drawn, each RNG stream in step order: the
(sentence_idx, clip_idx) batches from corpus.epoch_batches, positives
first, so one label vector serves every step; the frames of all batches,
as row indices from one sample_frames call; and for the gumbel_hard gate
one (S, B, 2) sample_gumbel draw. A step then only gathers its
sentences (rows of one (n, d) matrix) and frames (rows of the corpus's
frame_store), computes and takes the SGD step. The step's keep weights
and loss sums go into (S, B) and (S, 3) arrays that _EpochStats turns
into the metrics row at the epoch's end: loss means divide the loss
sums, and the adversarial mean divides by the discarded mass, the sum
of 1 - keep. check_sizes runs the record rule (corpus.check_records)
and the size checks that train and ablate both run before allocating;
the step checks nothing again.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .config import ConfigError
from .corpus import TAGS, CorpusError, check_records, epoch_batches, frame_store, sample_frames
from .gradients import NumericError, compute_gradients, first_nonfinite
from .model import (init_bvf, init_model, model_layout, sample_gumbel, save_checkpoint,
                    tensor_views)
from .optim import sgd_step, update_runs

DISC_TENSORS = frozenset({"disc.bvf", "disc.a_adv", "disc.b_adv"})
# Match-logit scale and offset: kept out of weight decay (see optim).
NO_DECAY = frozenset({"a_lvc", "b_lvc"})
# train refuses a config whose per-frame step tensors, batch_size * n_f rows
# as wide as the widest of d_in, d_emb and d_att, would hold more floats than
# this (128 MiB as float64), before anything is allocated
MAX_STEP_FLOATS = 2**24


@dataclass
class EpochMetrics:
    """One metrics row: losses and gate behaviour for one epoch."""

    epoch: int
    phase: str
    lr: float
    loss_lvc: float
    loss_adv: float
    z0_fraction: float
    z1_rate_clean: float
    z1_rate_loose: float
    z1_rate_noise: float

    def csv_row(self):
        """The fields in METRICS_COLUMNS order; floats as repr, so they round-trip."""
        epoch, phase, *values = astuple(self)
        return ",".join([str(epoch), phase] + [repr(float(v)) for v in values])


METRICS_COLUMNS = tuple(f.name for f in fields(EpochMetrics))


def metrics_csv_header():
    return ",".join(METRICS_COLUMNS)


class _EpochStats:
    """One epoch's per-step forward sums, turned into its metrics row at its end.

    Every epoch total adds the steps' own sums in step order: a step's sum
    over a row of keep has the bits of that step's keep.sum(), and the
    running sums have the bits of a total kept step by step.
    """

    def __init__(self, n_steps, batch_size):
        self.keep = np.empty((n_steps, batch_size))
        self.sums = np.empty((n_steps, 3))  # lvc_sum, lvc_weight, adv_sum per step

    def add(self, step, fwd):
        self.keep[step] = fwd.keep
        self.sums[step] = fwd.lvc_sum, fwd.lvc_weight, fwd.adv_sum

    def row(self, epoch, phase, lr, pos_tags):
        """The metrics row; pos_tags (S, B // 2) are the tag indices of each
        step's positive half, the first half of its pairs."""
        def in_order(per_step):
            return np.cumsum(per_step, axis=0)[-1]

        def ratio(num, den):
            return float(num / den) if den > 0 else 0.0
        gate = 1.0 - self.keep
        lvc_num, lvc_den, adv_num = in_order(self.sums)
        pos_gate = gate[:, :pos_tags.shape[1]]
        rates = []
        for k in range(len(TAGS)):
            sel = pos_tags == k
            # a boolean-index sum per step: summing a zero-masked row instead
            # groups the pairwise sum differently and rounds differently
            gated = in_order([g[m].sum() for g, m in zip(pos_gate, sel)])
            rates.append(ratio(gated, int(sel.sum())))
        return EpochMetrics(
            epoch=epoch, phase=phase, lr=lr,
            loss_lvc=ratio(lvc_num, lvc_den),
            loss_adv=ratio(adv_num, in_order(gate.sum(axis=1))),
            z0_fraction=ratio(in_order(self.keep.sum(axis=1)), self.keep.size),
            z1_rate_clean=rates[TAGS.index("clean")],
            z1_rate_loose=rates[TAGS.index("loose")],
            z1_rate_noise=rates[TAGS.index("noise")],
        )


def check_sizes(cfg, corpus):
    """train's checks of a config against its corpus; returns (store, sentences).

    The corpus needs at least 2 clips and batch_size // 2 clips, each of
    them valid and all of one feature dimension (corpus.check_records): the
    one check of a hand-built ClipRecord before the step uses it. A step
    tensor of more than MAX_STEP_FLOATS or a model of more than
    model.MAX_MODEL_VALUES values is refused before anything is allocated.
    The corpus's frame_store and its (n, d_in) sentence matrix are returned
    for the steps to gather from.
    """
    if len(corpus) < 2:
        raise CorpusError("training needs at least 2 clips")
    d_in = check_records(corpus)
    # a larger positive half repeats clips, which then hinge against their own copies
    if cfg.batch_size // 2 > len(corpus):
        raise CorpusError(f"batch_size {cfg.batch_size} needs at least {cfg.batch_size // 2} "
                          f"clips, the corpus has {len(corpus)}")
    step_floats = cfg.batch_size * cfg.n_f * max(d_in, cfg.d_emb, cfg.d_att)
    if step_floats > MAX_STEP_FLOATS:
        raise ConfigError(f"batch_size * n_f * max(d_in, d_emb, d_att) = {step_floats} "
                          f"exceeds the limit of {MAX_STEP_FLOATS} floats per step tensor")
    model_layout(d_in, cfg.d_emb, cfg.attention_kind, cfg.input_mode, cfg.bvf_count,
                 cfg.d_att)
    return frame_store(corpus), np.stack([c.sentence_raw for c in corpus])


# non-finite values are caught by the checks in the step loop and reported
# once, as a NumericError, instead of as a RuntimeWarning per operation
@np.errstate(all="ignore")
def train(cfg, corpus, run_dir=None, log=None):
    """Train on a tagged corpus; returns (params, per-epoch metrics).

    With run_dir set, metrics.csv is streamed row by row and checkpoints
    are written at the freeze/joint boundary and at the end; a step that
    fails with a NumericError after the first epoch first writes the
    parameters of the last finished epoch to checkpoint_last_good.json.
    check_sizes runs first.
    """
    cfg.validate()
    store, sentences = check_sizes(cfg, corpus)
    root = np.random.SeedSequence(cfg.seed)
    ss_init, ss_bvf, ss_batch, ss_frame, ss_gate = root.spawn(5)
    rng_init = np.random.default_rng(ss_init)
    rng_batch = np.random.default_rng(ss_batch)
    rng_frame = np.random.default_rng(ss_frame)
    rng_gate = np.random.default_rng(ss_gate)

    params = init_model(
        sentences.shape[1], cfg.d_emb, cfg.attention_kind, cfg.input_mode,
        cfg.bvf_count, rng_init, d_att=cfg.d_att,
    )
    if cfg.discriminator_enabled:
        init_bvf(params, corpus, np.random.default_rng(ss_bvf))

    velocity = np.zeros_like(params.flat)
    tag_idx = np.array([TAGS.index(c.tag) for c in corpus])
    rows = store[0]
    half = cfg.batch_size // 2
    labels = np.concatenate([np.ones(half, dtype=int), np.zeros(half, dtype=int)])
    gate_noise = cfg.discriminator_enabled and cfg.sampler_kind == "gumbel_hard"

    total_epochs = cfg.freeze_epochs + cfg.joint_epochs
    metrics = []
    last_good = None  # params.flat at the end of the last finished epoch
    csv_fh = None
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        csv_fh = open(os.path.join(run_dir, "metrics.csv"), "w")
        csv_fh.write(metrics_csv_header() + "\n")
        csv_fh.flush()
    try:
        for epoch in range(total_epochs):
            phase = "freeze" if epoch < cfg.freeze_epochs else "joint"
            lr = cfg.lr if phase == "freeze" else cfg.lr / cfg.lr_drop_factor
            frozen = DISC_TENSORS if (phase == "freeze" or not cfg.discriminator_enabled) else ()
            runs = update_runs(params.layout, frozen, NO_DECAY)
            sentence_idx, clip_idx = map(np.stack, zip(*epoch_batches(
                len(corpus), cfg.batch_size, rng_batch)))
            frame_idx = sample_frames(store, clip_idx, cfg.n_f, rng_frame)
            gumbels = sample_gumbel(rng_gate, clip_idx.shape + (2,)) if gate_noise else None
            stats = _EpochStats(*clip_idx.shape)
            for step in range(clip_idx.shape[0]):
                try:
                    fwd, grad = compute_gradients(
                        params, sentences[sentence_idx[step]], rows[frame_idx[step]], labels,
                        cfg, phase, None if gumbels is None else gumbels[step])
                    sgd_step(params.flat, grad, velocity, lr, cfg.momentum,
                             cfg.weight_decay, runs)
                    if not np.isfinite(params.flat).all():
                        raise NumericError("non-finite parameter in "
                                           f"{first_nonfinite(params.tensors)}")
                except NumericError as exc:
                    if run_dir is not None and last_good is not None:
                        good = replace(params, flat=last_good,
                                       tensors=tensor_views(last_good, params.layout))
                        save_checkpoint(good, os.path.join(run_dir, "checkpoint_last_good.json"))
                    raise NumericError(f"epoch {epoch}, step {step} ({phase}): {exc}") from None
                stats.add(step, fwd)
            last_good = params.flat.copy()
            row = stats.row(epoch, phase, lr, tag_idx[clip_idx[:, :half]])
            metrics.append(row)
            if csv_fh is not None:
                csv_fh.write(row.csv_row() + "\n")
                csv_fh.flush()
            if log is not None:
                log(f"epoch {epoch:3d} [{phase}] lr={lr:g} "
                    f"loss_lvc={row.loss_lvc:.4f} loss_adv={row.loss_adv:.4f} "
                    f"z0={row.z0_fraction:.3f}")
            if run_dir is not None and cfg.freeze_epochs > 0 and epoch == cfg.freeze_epochs - 1:
                save_checkpoint(params, os.path.join(run_dir, "checkpoint_freeze.json"))
        if run_dir is not None:
            save_checkpoint(params, os.path.join(run_dir, "checkpoint_final.json"))
    finally:
        if csv_fh is not None:
            csv_fh.close()
    return params, metrics
