"""Acceptance suite: behaviour bands and trends on the default corpus.

Each test prints one pass/fail line with the measured numbers, then
asserts. Training runs are cached at module level so the criteria that
share a configuration train it only once.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from oracles import gradient_mismatches, random_problem, records_equal
from pairsieve.config import TrainConfig
from pairsieve.corpus import CorpusSpec, generate_corpus, load_corpus, save_corpus
from pairsieve.evaluation import bidirectional_retrieval, random_baseline_map
from pairsieve.losses import sigmoid
from pairsieve.model import (
    attend,
    init_model,
    load_checkpoint,
    sample_gate,
    sample_gumbel,
)
from pairsieve.training import train

SEEDS = range(5)

_cache = {}


def default_corpus():
    if "corpus" not in _cache:
        _cache["corpus"] = generate_corpus(CorpusSpec())
    return _cache["corpus"]


def run_variant(seed, **overrides):
    """Train one configuration on the default corpus; memoized on the resolved
    config, so overrides that restate a default share the default's run."""
    cfg = dataclasses.replace(TrainConfig(), seed=seed, **overrides)
    if cfg not in _cache:
        train_recs, test_recs = default_corpus()
        params, metrics = train(cfg, train_recs)
        report = bidirectional_retrieval(params, test_recs)
        _cache[cfg] = (metrics, report)
    return _cache[cfg]


def mean_map(report):
    return 0.5 * (report.video_search.mean_ap + report.sentence_search.mean_ap)


def _verdict(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_criterion_1_random_baseline():
    started = time.perf_counter()
    _, test_recs = default_corpus()
    d = test_recs[0].sentence_raw.shape[0]
    base = TrainConfig()
    maps_v, maps_s, recs_v, recs_s = [], [], [], []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        params = init_model(d, base.d_emb, base.attention_kind,
                            base.input_mode, base.bvf_count, rng)
        report = bidirectional_retrieval(params, test_recs)
        maps_v.append(report.video_search.mean_ap)
        maps_s.append(report.sentence_search.mean_ap)
        recs_v.append(report.video_search.recall[5])
        recs_s.append(report.sentence_search.recall[5])
    mv, ms = float(np.mean(maps_v)), float(np.mean(maps_s))
    rv, rs = float(np.mean(recs_v)), float(np.mean(recs_s))

    # Monte-Carlo random scorer over 100 candidates vs the analytic mean
    scores = np.random.default_rng(77).standard_normal((10**5, 100))
    ranks = 1 + (scores[:, 1:] > scores[:, :1]).sum(axis=1)
    mc = float((1.0 / ranks).mean())
    analytic = random_baseline_map(100) / 100.0
    elapsed = time.perf_counter() - started

    ok = (all(3.5 <= m <= 7.5 for m in (mv, ms))
          and all(2.0 <= r <= 9.0 for r in (rv, rs))
          and abs(mc - analytic) <= 2e-3
          and elapsed < 60.0)
    _verdict("criterion 1", ok,
             f"untrained mAP v={mv:.2f} s={ms:.2f} in [3.5,7.5], "
             f"Rec@5 v={rv:.2f} s={rs:.2f} in [2,9], "
             f"MC {mc:.5f} vs analytic {analytic:.5f}, {elapsed:.1f}s")


def test_criterion_2_gradient_oracle():
    started = time.perf_counter()
    grid = list(itertools.product(
        ("dot", "multiplicative", "additive"),
        ("residual", "concat", "adv_only"),
        ("bce", "triplet"),
        ("gumbel_hard", "softmax_soft"),
    ))
    # (attention, mode, loss, sampler, frames, phase, discriminator on)
    cases = [(att, mode, loss, samp, 2, "joint", True) for att, mode, loss, samp in grid]
    cases += [(att, mode, loss, samp, 3, "joint", True) for att, mode, loss, samp in grid[::2]]
    # uniform pooling, the freeze phase and the discriminator switched off
    cases += [("uniform", mode, loss, samp, 3, "joint", True)
              for mode, loss, samp in itertools.product(
                  ("residual", "concat", "adv_only"), ("bce", "triplet"),
                  ("gumbel_hard", "softmax_soft"))]
    cases += [(att, mode, loss, samp, 2, "freeze", True) for att, mode, loss, samp in grid[1::2]]
    cases += [(att, "residual", loss, samp, 3, phase, False)
              for att, loss, samp, phase in itertools.product(
                  ("uniform", "dot", "multiplicative", "additive"), ("bce", "triplet"),
                  ("gumbel_hard", "softmax_soft"), ("joint", "freeze"))]
    assert len(cases) >= 50
    n_bad = 0
    for i, (att, mode, loss, samp, n_frames, phase, disc_on) in enumerate(cases):
        rng = np.random.default_rng(9000 + i)
        params, batch, cfg = random_problem(
            rng, attention=att, input_mode=mode, sampler=samp, loss=loss,
            disc_on=disc_on, n_frames=n_frames)
        bad = gradient_mismatches(params, batch, cfg, phase, rng)
        if bad:
            n_bad += 1
            print(f"  mismatch in {att}/{mode}/{loss}/{samp}/{phase}/"
                  f"disc={'on' if disc_on else 'off'}: {bad[:3]}")
    elapsed = time.perf_counter() - started
    ok = n_bad == 0 and elapsed < 60.0
    _verdict("criterion 2", ok,
             f"{len(cases)} random configs, {n_bad} with finite-difference "
             f"mismatches, {elapsed:.1f}s")


def test_criterion_3_gate_distribution():
    n = 10**5
    worst = 0.0
    for i, (tau, f) in enumerate(itertools.product((0.5, 1.0), (-2.0, 0.0, 1.0))):
        rng = np.random.default_rng(300 + i)
        hits = int(sample_gate(np.full(n, f), tau, "gumbel_hard",
                               sample_gumbel(rng, (n, 2)))[0].sum())
        p = float(sigmoid(np.array(f)))
        se = np.sqrt(p * (1.0 - p) / n)
        worst = max(worst, abs(hits / n - p) / se)
    ok = worst <= 3.0
    _verdict("criterion 3", ok,
             f"P(z=1) vs sigmoid(f) at f in {{-2,0,1}}, tau in {{0.5,1.0}}: "
             f"worst deviation {worst:.2f} MC standard errors (limit 3)")


def test_criterion_4_curriculum_trend():
    started = time.perf_counter()
    metrics, _ = run_variant(seed=0)
    elapsed = time.perf_counter() - started
    z0 = np.array([m.z0_fraction for m in metrics])
    first_joint = next(m for m in metrics if m.phase == "joint").z0_fraction
    final = float(z0[-1])
    ma = np.convolve(z0, np.ones(3) / 3.0, mode="valid")
    peak, drop = ma[0], 0.0
    for v in ma[1:]:
        peak = max(peak, v)
        drop = max(drop, peak - v)
    ok = final > first_joint and drop <= 0.02 and elapsed < 600.0
    _verdict("criterion 4", ok,
             f"z0 first joint epoch {first_joint:.3f} -> final {final:.3f}, "
             f"max 3-epoch moving-average drop {100 * drop:.2f}pp (limit 2), "
             f"{elapsed:.0f}s")


def test_criterion_5_noise_separation():
    gaps = []
    for seed in SEEDS:
        last = run_variant(seed=seed)[0][-1]
        gaps.append(last.z1_rate_noise - last.z1_rate_clean)
    mean_gap = float(np.mean(gaps))
    ok = mean_gap >= 0.10
    _verdict("criterion 5", ok,
             f"final-epoch gate-out rate, noise minus clean: "
             f"{100 * mean_gap:.1f}pp mean over 5 seeds (need >= 10)")


def test_criterion_6_model_ordering():
    full, att_only, plain = [], [], []
    for seed in SEEDS:
        full.append(mean_map(run_variant(seed=seed)[1]))
        att_only.append(mean_map(run_variant(
            seed=seed, discriminator_enabled=False)[1]))
        plain.append(mean_map(run_variant(
            seed=seed, discriminator_enabled=False, attention_kind="uniform")[1]))
    mf, ma_, mp = map(lambda v: float(np.mean(v)), (full, att_only, plain))
    per_seed = all(f > a > p for f, a, p in zip(full, att_only, plain))
    ok = mf > ma_ > mp and per_seed
    _verdict("criterion 6", ok,
             f"mean mAP full {mf:.2f} > attention-only {ma_:.2f} > "
             f"uniform-pooling {mp:.2f}, ordering holds on "
             f"{sum(f > a > p for f, a, p in zip(full, att_only, plain))}/5 seeds")


def test_criterion_7a_bvf_count_band():
    means = {}
    for count in (4, 16, 64):
        means[count] = float(np.mean(
            [mean_map(run_variant(seed=s, bvf_count=count)[1]) for s in SEEDS]))
    spread = max(means.values()) - min(means.values())
    ok = spread <= 2.0
    _verdict("criterion 7a", ok,
             "background vector count {4,16,64} mean mAP "
             + "/".join(f"{means[c]:.2f}" for c in (4, 16, 64))
             + f", pairwise spread {spread:.2f} (limit 2)")


def test_criterion_7b_sampler_ordering():
    hard = float(np.mean([mean_map(run_variant(seed=s)[1]) for s in SEEDS]))
    soft = float(np.mean([mean_map(run_variant(
        seed=s, sampler_kind="softmax_soft")[1]) for s in SEEDS]))
    off = float(np.mean([mean_map(run_variant(
        seed=s, discriminator_enabled=False)[1]) for s in SEEDS]))
    ok = off < soft < hard
    _verdict("criterion 7b", ok,
             f"mean mAP gate-off {off:.2f} < soft sampler {soft:.2f} "
             f"< hard sampler {hard:.2f}")


def test_criterion_7c_loss_parity():
    bce = float(np.mean([mean_map(run_variant(seed=s)[1]) for s in SEEDS]))
    trip = float(np.mean([mean_map(run_variant(
        seed=s, loss_kind="triplet")[1]) for s in SEEDS]))
    gap = trip - bce
    ok = trip >= bce - 2.0
    _verdict("criterion 7c", ok,
             f"triplet mean mAP {trip:.2f} vs bce {bce:.2f}, trip - bce = "
             f"{gap:+.2f} (swapping bce for triplet may cost at most 2). "
             f"Triplet is expected to lead by about 9: it trains on the "
             f"hardest in-batch negative, bce on one random negative per "
             f"positive, and every negative in this corpus is a true "
             f"negative; the lead holds on clean-only training too.")


def test_criterion_8_determinism_and_roundtrips(tmp_path):
    spec = CorpusSpec(n_train=60, n_test=10, d=8, k=12, seed=9)
    train_recs, _ = generate_corpus(spec)
    cfg = TrainConfig(d_emb=8, batch_size=8, n_f=3, freeze_epochs=2,
                      joint_epochs=3, bvf_count=2, seed=4)
    for name in ("a", "b"):
        train(cfg, train_recs, run_dir=str(tmp_path / name))
    csv_same = ((tmp_path / "a" / "metrics.csv").read_bytes()
                == (tmp_path / "b" / "metrics.csv").read_bytes())
    ckpt_same = ((tmp_path / "a" / "checkpoint_final.json").read_bytes()
                 == (tmp_path / "b" / "checkpoint_final.json").read_bytes())

    corpus_path = tmp_path / "roundtrip.corpus"
    save_corpus(train_recs, corpus_path)
    loaded_recs = load_corpus(corpus_path)
    corpus_ok = (len(loaded_recs) == len(train_recs)
                 and all(records_equal(x, y)
                         for x, y in zip(loaded_recs, train_recs)))

    loaded = load_checkpoint(tmp_path / "a" / "checkpoint_final.json")
    reloaded = load_checkpoint(tmp_path / "a" / "checkpoint_final.json")
    ckpt_ok = all(
        np.array_equal(arr, reloaded.tensors[name])
        for name, arr in loaded.tensors.items()
    )

    rng = np.random.default_rng(8)
    d = 8
    models = [init_model(d, d, kind, "residual", 2, rng)
              for kind in ("uniform", "dot", "multiplicative", "additive")]
    worst = 0.0
    for i in range(10**4):
        model = models[i % len(models)]
        s = rng.normal(size=d)
        h = rng.normal(size=(1 + i % 8, d))
        _, alpha, _ = attend(model, s, h)
        worst = max(worst, abs(float(alpha.sum()) - 1.0))
    sums_ok = worst <= 1e-12

    ok = csv_same and ckpt_same and corpus_ok and ckpt_ok and sums_ok
    _verdict("criterion 8", ok,
             f"same-seed CSVs byte-identical={csv_same}, checkpoints "
             f"byte-identical={ckpt_same}, corpus round-trip={corpus_ok}, "
             f"checkpoint round-trip={ckpt_ok}, worst attention sum deviation "
             f"{worst:.1e} over 10^4 cases")
