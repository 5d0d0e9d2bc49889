"""The two-phase training loop: schedule, freezing, metrics, artifacts."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from pairsieve import training
from pairsieve.cli import main
from pairsieve.config import ConfigError, TrainConfig
from pairsieve.corpus import (CorpusError, CorpusSpec, epoch_batches, frame_store,
                              generate_corpus, load_corpus, save_corpus)
from pairsieve.gradients import NumericError
from pairsieve.model import ModelError, init_bvf, init_model, load_checkpoint, sample_gumbel
from pairsieve.training import NO_DECAY, _EpochStats, metrics_csv_header, train

from golden_grid import grid_digests
from oracles import corpus_bytes, corpus_fields, reference_sample_frames

SMALL = TrainConfig(d_emb=8, batch_size=8, n_f=3, freeze_epochs=2,
                    joint_epochs=3, bvf_count=2, seed=0)


def _cfg(**kw):
    return dataclasses.replace(SMALL, **kw)


def test_schedule_phases_and_lr(tiny_corpus):
    corpus, _ = tiny_corpus
    _, metrics = train(SMALL, corpus)
    assert [m.epoch for m in metrics] == [0, 1, 2, 3, 4]
    assert [m.phase for m in metrics] == ["freeze"] * 2 + ["joint"] * 3
    assert [m.lr for m in metrics] == [0.1, 0.1, 0.01, 0.01, 0.01]
    for m in metrics:
        assert 0.0 <= m.z0_fraction <= 1.0
        for rate in (m.z1_rate_clean, m.z1_rate_loose, m.z1_rate_noise):
            assert 0.0 <= rate <= 1.0
        assert np.isfinite(m.loss_lvc) and np.isfinite(m.loss_adv)


def test_freeze_epochs_zero_is_all_joint(tiny_corpus):
    corpus, _ = tiny_corpus
    _, metrics = train(_cfg(freeze_epochs=0, joint_epochs=2), corpus)
    assert [m.phase for m in metrics] == ["joint", "joint"]
    assert [m.lr for m in metrics] == [0.01, 0.01]


def test_training_is_deterministic(tiny_corpus):
    corpus, _ = tiny_corpus
    params_a, metrics_a = train(SMALL, corpus)
    params_b, metrics_b = train(SMALL, corpus)
    assert [m.csv_row() for m in metrics_a] == [m.csv_row() for m in metrics_b]
    for name, arr in params_a.tensors.items():
        assert np.array_equal(arr, params_b.tensors[name]), name

    params_c, metrics_c = train(_cfg(seed=1), corpus)
    assert [m.csv_row() for m in metrics_a] != [m.csv_row() for m in metrics_c]


def test_golden_grid_is_deterministic(tmp_path):
    # the digests depend on the numpy and BLAS build, so only their
    # repeatability is tested; ROADMAP.md records the reference values
    digests = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        digests.append(grid_digests(str(tmp_path / name)))
    assert digests[0] == digests[1]


def _replay_init(cfg, corpus, with_bvf):
    """Rebuild the params train() starts from, using its seeding scheme."""
    root = np.random.SeedSequence(cfg.seed)
    ss_init, ss_bvf = root.spawn(5)[:2]
    d_in = corpus[0].sentence_raw.shape[0]
    params = init_model(d_in, cfg.d_emb, cfg.attention_kind, cfg.input_mode,
                        cfg.bvf_count, np.random.default_rng(ss_init), d_att=cfg.d_att)
    if with_bvf:
        init_bvf(params, corpus, np.random.default_rng(ss_bvf))
    return params


def test_freeze_phase_leaves_discriminator_untouched(tiny_corpus):
    corpus, _ = tiny_corpus
    cfg = _cfg(freeze_epochs=2, joint_epochs=0)
    params, _ = train(cfg, corpus)
    start = _replay_init(cfg, corpus, with_bvf=True)
    for name in ("disc.bvf", "disc.a_adv", "disc.b_adv"):
        assert np.array_equal(params.tensors[name], start.tensors[name]), name
    # while the embedding channels did move
    assert not np.array_equal(params.tensors["language.weight"], start.tensors["language.weight"])


def test_disabled_discriminator_never_updates(tiny_corpus):
    corpus, _ = tiny_corpus
    cfg = _cfg(discriminator_enabled=False, freeze_epochs=0, joint_epochs=3)
    params, metrics = train(cfg, corpus)
    start = _replay_init(cfg, corpus, with_bvf=False)
    assert np.array_equal(params.tensors["disc.bvf"], start.tensors["disc.bvf"])
    assert all(m.z0_fraction == 1.0 for m in metrics)
    assert all(m.loss_adv == 0.0 for m in metrics)


def test_decay_exemption_names_the_match_logit_scalars():
    params = init_model(6, 4, "dot", "residual", 2, np.random.default_rng(0))
    assert NO_DECAY == {"a_lvc", "b_lvc"}
    assert NO_DECAY <= set(params.tensors)


def test_soft_sampler_and_triplet_loss_run(tiny_corpus):
    corpus, _ = tiny_corpus
    _, metrics = train(_cfg(sampler_kind="softmax_soft"), corpus)
    assert all(0.0 <= m.z0_fraction <= 1.0 for m in metrics)
    _, metrics = train(_cfg(loss_kind="triplet"), corpus)
    assert all(np.isfinite(m.loss_lvc) for m in metrics)


def test_run_dir_artifacts(tmp_path, tiny_corpus):
    corpus, _ = tiny_corpus
    run_dir = tmp_path / "run"
    params, metrics = train(SMALL, corpus, run_dir=run_dir)
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "checkpoint_final.json", "checkpoint_freeze.json", "metrics.csv"]

    lines = [metrics_csv_header()] + [m.csv_row() for m in metrics]
    assert lines[0] == ("epoch,phase,lr,loss_lvc,loss_adv,"
                        "z0_fraction,z1_rate_clean,z1_rate_loose,z1_rate_noise")
    assert (run_dir / "metrics.csv").read_text() == "\n".join(lines) + "\n"

    final = load_checkpoint(run_dir / "checkpoint_final.json")
    for name, arr in params.tensors.items():
        assert np.array_equal(arr, final.tensors[name]), name

    frozen = load_checkpoint(run_dir / "checkpoint_freeze.json")
    start = _replay_init(SMALL, corpus, with_bvf=True)
    assert np.array_equal(frozen.tensors["disc.bvf"], start.tensors["disc.bvf"])
    assert not np.array_equal(frozen.tensors["language.weight"], final.tensors["language.weight"])


def test_metrics_survive_numeric_failure(tmp_path, tiny_corpus):
    corpus, _ = tiny_corpus
    run_dir = tmp_path / "run"
    # a learning rate this absurd overflows the weights within an epoch
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        train(_cfg(lr=1e200, freeze_epochs=0, joint_epochs=2), corpus, run_dir=run_dir)
    text = (run_dir / "metrics.csv").read_text()
    assert text.splitlines()[0] == metrics_csv_header()


def test_numeric_failure_keeps_the_last_finished_epoch(tmp_path, tiny_corpus, monkeypatch,
                                                       capsys):
    # a step of epoch 1 fails: checkpoint_last_good.json holds the parameters at the
    # end of epoch 0, those a one-epoch run of the same config ends with; through the
    # CLI the failure is still exit 2 with one line
    corpus, _ = tiny_corpus
    compute_gradients = training.compute_gradients
    calls = []

    def failing_at(call):
        def counting_compute_gradients(*args, **kwargs):
            calls.append(None)
            if len(calls) == call:
                raise NumericError("planted failure")
            return compute_gradients(*args, **kwargs)
        return counting_compute_gradients

    monkeypatch.setattr(training, "compute_gradients", failing_at(0))
    one_epoch, _ = train(_cfg(freeze_epochs=1, joint_epochs=0), corpus)
    steps = len(calls)
    calls.clear()
    monkeypatch.setattr(training, "compute_gradients", failing_at(steps + 2))
    run_dir = tmp_path / "run"
    with pytest.raises(NumericError, match=r"^epoch 1, step 1 \(freeze\): planted failure$"):
        train(SMALL, corpus, run_dir=run_dir)
    assert np.array_equal(load_checkpoint(run_dir / "checkpoint_last_good.json").flat,
                          one_epoch.flat)

    save_corpus(corpus, tmp_path / "train.corpus")
    calls.clear()
    out = tmp_path / "cli"
    keys = ("d_emb=8", "batch_size=8", "n_f=3", "freeze_epochs=2", "joint_epochs=3",
            "bvf_count=2")
    code = main(["train", "--corpus", str(tmp_path / "train.corpus"), "--out", str(out),
                 "--seed", "0", "--quiet"] + [a for kv in keys for a in ("--set", kv)])
    assert code == 2
    assert capsys.readouterr().err == \
        "pairsieve: numeric failure: epoch 1, step 1 (freeze): planted failure\n"
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint_last_good.json", "metrics.csv"]
    assert np.array_equal(load_checkpoint(out / "checkpoint_last_good.json").flat,
                          one_epoch.flat)


def test_corpus_validation(tiny_corpus):
    corpus, _ = tiny_corpus
    with pytest.raises(CorpusError):
        train(SMALL, corpus[:1])
    mixed = corpus[:4] + [dataclasses.replace(
        corpus[4],
        sentence_raw=np.zeros(5),
        frames_raw=np.zeros((3, 5)),
        grounded=np.zeros(3, dtype=bool),
    )]
    with pytest.raises(CorpusError):
        train(SMALL, mixed)
    # the first record is checked before its dimension is taken as the corpus's
    first = dataclasses.replace(corpus[0], sentence_raw=corpus[0].sentence_raw[:, None])
    with pytest.raises(CorpusError, match=f"^record {corpus[0].id}: sentence must be 1-d"):
        train(SMALL, [first] + corpus[1:])


@pytest.mark.parametrize("sampler", ["gumbel_hard", "softmax_soft"])
def test_each_step_gets_the_draws_of_a_step_by_step_loop(tiny_corpus, monkeypatch, sampler):
    # an epoch's frames and gate noise are drawn before its first step, yet each
    # step gets the sentences, frames and noise that drawing them step by step
    # from the same streams gives: the per-batch sampler, then a (B, 2) gumbel draw
    corpus, _ = tiny_corpus
    cfg = _cfg(sampler_kind=sampler)
    seen = []

    def recording(params, xs, xf, labels, cfg, phase, gumbels):
        seen.append((xs, xf, gumbels))
        return compute_gradients(params, xs, xf, labels, cfg, phase, gumbels)

    compute_gradients = training.compute_gradients
    monkeypatch.setattr(training, "compute_gradients", recording)
    train(cfg, corpus)
    _, _, ss_batch, ss_frame, ss_gate = np.random.SeedSequence(cfg.seed).spawn(5)
    rng_batch, rng_frame, rng_gate = map(np.random.default_rng, (ss_batch, ss_frame, ss_gate))
    sentences = np.stack([c.sentence_raw for c in corpus])
    expected = []
    for _ in range(cfg.freeze_epochs + cfg.joint_epochs):
        for sentence_idx, clip_idx in epoch_batches(len(corpus), cfg.batch_size, rng_batch):
            xf = reference_sample_frames(corpus, clip_idx, cfg.n_f, rng_frame)
            gumbels = (sample_gumbel(rng_gate, (cfg.batch_size, 2))
                       if sampler == "gumbel_hard" else None)
            expected.append((sentences[sentence_idx], xf, gumbels))
    assert len(seen) == len(expected)
    for (xs, xf, g), (xs_ref, xf_ref, g_ref) in zip(seen, expected):
        assert xs.tobytes() == xs_ref.tobytes() and xf.tobytes() == xf_ref.tobytes()
        assert (g is None and g_ref is None) or g.tobytes() == g_ref.tobytes()


def test_a_loaded_corpus_trains_without_a_copy_of_its_frames(tmp_path):
    # frames are most of a corpus: train's own allocations on a corpus loaded from
    # a version-3 file (save_corpus) or a version-2 file stay below their size,
    # while records built in memory are copied into one array first, and all three
    # train to the same bits
    corpus, _ = generate_corpus(CorpusSpec(n_train=100, n_test=2, d=64, frame_len_min=40,
                                           frame_len_max=50, seed=2))
    save_corpus(corpus, tmp_path / "v3.corpus")
    (tmp_path / "v2.corpus").write_bytes(
        corpus_bytes(corpus_fields(tmp_path / "v3.corpus")[1], 2))
    loaded = [load_corpus(tmp_path / f"v{version}.corpus") for version in (3, 2)]
    frame_bytes = sum(r.frames_raw.nbytes for r in corpus)
    for records in loaded:
        rows = frame_store(records)[0]
        assert rows.nbytes == frame_bytes
        assert all(np.shares_memory(rows, r.frames_raw) for r in records)
    cfg = _cfg(freeze_epochs=1, joint_epochs=1)
    runs = []
    for records in (*loaded, corpus):
        tracemalloc.start()
        try:
            params, metrics = train(cfg, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        runs.append((params.flat.tobytes(), [m.csv_row() for m in metrics], peak))
    assert runs[0][:2] == runs[1][:2] == runs[2][:2]
    assert max(runs[0][2], runs[1][2]) < frame_bytes <= runs[2][2]


def test_size_limits_admit_exactly_the_limit(tiny_corpus, monkeypatch):
    # d_emb=4 on the d=8 corpus, so d_in is the widest: 8 * 3 * 8 = 192 floats
    # per step tensor, and a model of 2 * (8 * 4 + 4) + 2 * 4 + 4 = 84 values
    corpus, _ = tiny_corpus
    cfg = _cfg(d_emb=4, freeze_epochs=1, joint_epochs=0)
    monkeypatch.setattr("pairsieve.training.MAX_STEP_FLOATS", 192)
    monkeypatch.setattr("pairsieve.model.MAX_MODEL_VALUES", 84)
    train(cfg, corpus)
    monkeypatch.setattr("pairsieve.training.MAX_STEP_FLOATS", 191)
    with pytest.raises(ConfigError, match=r"= 192 exceeds the limit of 191 floats"):
        train(cfg, corpus)
    monkeypatch.setattr("pairsieve.training.MAX_STEP_FLOATS", 192)
    monkeypatch.setattr("pairsieve.model.MAX_MODEL_VALUES", 83)
    with pytest.raises(ModelError, match=r"has 84 values, above the limit of 83"):
        train(cfg, corpus)


def test_epoch_stats_rates_from_planted_gates():
    # a batch's first half holds its positive pairs, the only ones with tags, so the
    # per-tag gate-out rates read gate = 1 - keep there alone; the negative half's
    # gates differ from the positive half's, so reading the wrong half changes them
    clean, loose, noise = 0, 1, 2
    stats = _EpochStats(2, 6)
    stats.add(0, SimpleNamespace(keep=np.array([0.5, 0.0, 0.0, 0.0, 1.0, 1.0]),
                                 lvc_sum=3.0, lvc_weight=2.0, adv_sum=1.5))
    stats.add(1, SimpleNamespace(keep=np.array([0.25, 1.0, 1.0, 1.0, 0.0, 0.0]),
                                 lvc_sum=1.0, lvc_weight=2.0, adv_sum=0.5))
    row = stats.row(7, "joint", 0.01, np.array([[clean, loose, noise], [noise, clean, clean]]))
    # positive gates: clean 0.5, 0, 0; loose 1; noise 1, 0.75
    assert (row.z1_rate_clean, row.z1_rate_loose, row.z1_rate_noise) == (0.5 / 3, 1.0, 1.75 / 2)
    assert row.z0_fraction == 5.75 / 12
    assert row.loss_lvc == 4.0 / 4.0
    assert row.loss_adv == 2.0 / 6.25
    assert (row.epoch, row.phase, row.lr) == (7, "joint", 0.01)
