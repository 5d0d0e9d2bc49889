"""Synthetic corpus generation, persistence, and batch/frame sampling."""

import json

import numpy as np
import pytest

from pairsieve.corpus import (
    CorpusError,
    CorpusSpec,
    build_concept_bank,
    epoch_batches,
    generate_corpus,
    load_corpus,
    records_equal,
    sample_frames,
    save_corpus,
)

SMALL = CorpusSpec(n_train=60, n_test=10, d=8, k=12, seed=5)


def test_concept_bank_unit_norm_and_deterministic():
    a = build_concept_bank(12, 8, seed=3)
    b = build_concept_bank(12, 8, seed=3)
    assert a.shape == (12, 8)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-9)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, build_concept_bank(12, 8, seed=4))
    assert np.array_equal(a, build_concept_bank(12, 8, seed=np.random.SeedSequence(3)))


def test_generate_counts_and_tags():
    train, test = generate_corpus(SMALL)
    assert len(train) == 60
    assert len(test) == 10
    assert all(r.tag == "clean" for r in test)
    assert all(r.id.startswith("train-") for r in train)
    assert all(r.id.startswith("test-") for r in test)


def test_generate_is_deterministic():
    train_a, test_a = generate_corpus(SMALL)
    train_b, test_b = generate_corpus(SMALL)
    assert all(records_equal(x, y) for x, y in zip(train_a + test_a, train_b + test_b))


def test_degenerate_fractions_all_clean():
    spec = CorpusSpec(n_train=10, n_test=2, d=8, k=12,
                      frac_clean=1.0, frac_loose=0.0, frac_noise=0.0, seed=1)
    train, _ = generate_corpus(spec)
    assert len(train) == 10
    assert all(r.tag == "clean" for r in train)
    assert all(2 * r.grounded.sum() >= r.frames_raw.shape[0] for r in train)


def test_tag_counts_near_multinomial_expectation():
    spec = CorpusSpec(n_train=1000, n_test=1, d=8, k=12, seed=7)
    train, _ = generate_corpus(spec)
    counts = {t: sum(r.tag == t for r in train) for t in ("clean", "loose", "noise")}
    for tag, frac in (("clean", 0.5), ("loose", 0.3), ("noise", 0.2)):
        sigma = np.sqrt(1000 * frac * (1 - frac))
        assert abs(counts[tag] - 1000 * frac) <= 3 * sigma, counts


def test_tag_structure_invariants():
    train, _ = generate_corpus(SMALL)
    for r in train:
        n = r.frames_raw.shape[0]
        assert SMALL.frame_len_min <= n <= SMALL.frame_len_max
        assert r.grounded.shape[0] == n
        if r.tag == "noise":
            assert not r.grounded.any()
        elif r.tag == "loose":
            assert r.grounded.sum() == 1
        else:
            assert 2 * r.grounded.sum() >= n


def test_clean_pairs_more_aligned_than_noise():
    train, _ = generate_corpus(CorpusSpec(n_train=300, n_test=1, d=8, k=12, seed=9))

    def mean_cos(r, mask):
        target = r.frames_raw[mask].mean(axis=0)
        target = target / np.linalg.norm(target)
        return float(r.sentence_raw @ target)

    clean = [mean_cos(r, r.grounded) for r in train if r.tag == "clean"]
    noise = [mean_cos(r, np.ones(r.frames_raw.shape[0], dtype=bool))
             for r in train if r.tag == "noise"]
    assert np.mean(clean) > np.mean(noise)


def test_spec_validation_errors():
    with pytest.raises(CorpusError):
        CorpusSpec(frac_clean=0.5, frac_loose=0.4, frac_noise=0.2).validate()
    with pytest.raises(CorpusError):
        CorpusSpec(n_test=0).validate()
    with pytest.raises(CorpusError):
        CorpusSpec(d=1).validate()
    with pytest.raises(CorpusError):
        CorpusSpec(k=5, concepts_per_pair=3).validate()
    with pytest.raises(CorpusError):
        CorpusSpec(frame_len_min=6, frame_len_max=4).validate()


def test_save_load_round_trip_exact(tmp_path):
    train, test = generate_corpus(SMALL)
    path = tmp_path / "train.corpus"
    save_corpus(train, path)
    loaded = load_corpus(path)
    assert len(loaded) == len(train)
    assert all(records_equal(a, b) for a, b in zip(train, loaded))
    # writing the loaded records again produces identical bytes
    path2 = tmp_path / "again.corpus"
    save_corpus(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    save_corpus(test, path)
    assert all(records_equal(a, b) for a, b in zip(test, load_corpus(path)))


def test_load_empty_file_is_empty_corpus(tmp_path):
    path = tmp_path / "empty.corpus"
    path.write_text("")
    assert load_corpus(path) == []


def test_load_reports_line_numbers(tmp_path):
    train, _ = generate_corpus(SMALL)
    path = tmp_path / "bad.corpus"
    save_corpus(train[:3], path)
    lines = path.read_text().splitlines()

    # frame dimension mismatch inside one record
    rec = json.loads(lines[2])
    rec["frames"][0] = rec["frames"][0][:-1]
    path.write_text("\n".join([lines[0], lines[1], json.dumps(rec)]) + "\n")
    with pytest.raises(CorpusError, match="line 3"):
        load_corpus(path)

    rec = json.loads(lines[1])
    del rec["grounded"]
    path.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n")
    with pytest.raises(CorpusError, match="line 2.*grounded"):
        load_corpus(path)

    path.write_text(lines[0] + "\nnot json\n")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)

    # malformed arrays and non-object records name their line
    for field, value in (("frames", 5), ("frames", [[1, "a"]]), ("sentence", "x"),
                         ("grounded", 5), ("grounded", [1]), ("tag", "vague")):
        rec = json.loads(lines[2])
        rec[field] = value
        path.write_text("\n".join([lines[0], lines[1], json.dumps(rec)]) + "\n")
        with pytest.raises(CorpusError, match="line 3"):
            load_corpus(path)
    path.write_text("\n".join([lines[0], lines[1], "[1, 2]"]) + "\n")
    with pytest.raises(CorpusError, match="line 3.*object"):
        load_corpus(path)

    # a repeated id names both lines
    path.write_text("\n".join([lines[0], lines[1], lines[2], lines[1]]) + "\n")
    with pytest.raises(CorpusError, match="line 4.*line 2"):
        load_corpus(path)


def test_load_rejects_wrong_format_or_version(tmp_path):
    path = tmp_path / "bad.corpus"
    path.write_text('{"format": "something-else", "version": 1, "d": 8}\n')
    with pytest.raises(CorpusError, match="pairsieve-corpus"):
        load_corpus(path)
    path.write_text('{"format": "pairsieve-corpus", "version": 99, "d": 8}\n')
    with pytest.raises(CorpusError, match="version"):
        load_corpus(path)


def test_batch_balance_and_negative_rule():
    rng = np.random.default_rng(0)
    for sentence_idx, clip_idx in epoch_batches(60, 10, rng):
        assert sentence_idx.shape == clip_idx.shape == (10,)
        # positives first: own sentences, then mismatched ones
        assert np.all(sentence_idx[:5] == clip_idx[:5])
        assert np.all(sentence_idx[5:] != clip_idx[5:])


def test_negatives_never_use_own_sentence_small_corpus():
    rng = np.random.default_rng(1)
    n_batches = 0
    while n_batches < 10_000:
        for sentence_idx, clip_idx in epoch_batches(5, 2, rng):
            n_batches += 1
            assert sentence_idx[1] != clip_idx[1]
            assert 0 <= sentence_idx[1] < 5
    assert n_batches == 10_000


def test_epoch_covers_every_clip_as_positive():
    rng = np.random.default_rng(3)
    seen = set()
    n_batches = 0
    for sentence_idx, clip_idx in epoch_batches(60, 8, rng):
        n_batches += 1
        assert np.all(sentence_idx[:4] == clip_idx[:4])
        assert np.all(sentence_idx[4:] != clip_idx[4:])
        seen.update(clip_idx[:4].tolist())
    assert seen == set(range(60))
    assert n_batches == int(np.ceil(60 / 4))


def test_sample_frames_without_replacement_when_possible():
    train, _ = generate_corpus(SMALL)
    clip = next(r for r in train if r.frames_raw.shape[0] >= 5)
    rng = np.random.default_rng(4)
    for _ in range(50):
        frames = sample_frames(clip, 5, rng)
        assert frames.shape == (5, 8)
        # all distinct rows of the original clip
        ids = [np.flatnonzero((clip.frames_raw == f).all(axis=1))[0] for f in frames]
        assert len(set(ids)) == 5
        assert ids == sorted(ids)


def test_sample_frames_reuses_when_short():
    train, _ = generate_corpus(SMALL)
    clip = min(train, key=lambda r: r.frames_raw.shape[0])
    n = clip.frames_raw.shape[0]
    rng = np.random.default_rng(5)
    frames = sample_frames(clip, n + 3, rng)
    assert frames.shape[0] == n + 3
    for orig in clip.frames_raw:
        assert any((orig == f).all() for f in frames)


def test_sample_frames_single_frame_clip():
    train, _ = generate_corpus(SMALL)
    rec = train[0]
    one = type(rec)(
        id="x", sentence_raw=rec.sentence_raw, frames_raw=rec.frames_raw[:1],
        tag="noise", grounded=np.zeros(1, dtype=bool),
    )
    frames = sample_frames(one, 1, np.random.default_rng(6))
    assert np.array_equal(frames, one.frames_raw)
    with pytest.raises(CorpusError):
        sample_frames(one, 0, np.random.default_rng(6))
