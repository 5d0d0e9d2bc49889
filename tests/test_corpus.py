"""Synthetic corpus generation, persistence, and batch/frame sampling."""

import base64
import json
import os
import re
import threading
import zlib
from dataclasses import replace

import numpy as np
import pytest

from pairsieve import corpus, evaluation, training
from pairsieve.cli import main
from pairsieve.config import TrainConfig
from pairsieve.corpus import (
    MAX_CORPUS_FLOATS,
    ClipRecord,
    CorpusError,
    CorpusSpec,
    build_concept_bank,
    epoch_batches,
    frame_store,
    generate_corpus,
    load_corpus,
    sample_frames,
    save_corpus,
)
from pairsieve.evaluation import bidirectional_retrieval, export_attention
from pairsieve.model import init_model, save_checkpoint
from pairsieve.training import train

from oracles import (corpus_fields, corpus_line, records_equal, reference_corpus,
                     reference_sample_frames)

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



def _record_bytes(r):
    return (r.id, r.tag, r.grounded.tobytes(), r.sentence_raw.shape, r.sentence_raw.tobytes(),
            r.frames_raw.shape, r.frames_raw.tobytes())


@pytest.mark.parametrize("spec", [
    CorpusSpec(seed=0),
    CorpusSpec(seed=11),
    CorpusSpec(n_train=600, n_test=2000),
    CorpusSpec(n_train=200, feature_noise_sigma=0.0),
    CorpusSpec(n_train=200, concepts_per_pair=1),
    CorpusSpec(n_train=200, frame_len_min=7, frame_len_max=7),
    CorpusSpec(n_train=200, frac_clean=0.0, frac_loose=1.0, frac_noise=0.0),
    CorpusSpec(n_train=200, frac_clean=0.0, frac_loose=0.0, frac_noise=1.0),
    CorpusSpec(n_train=0),
], ids=["default", "seed11", "retrieve2k", "sigma0", "m1", "fixed_len", "loose_only",
        "noise_only", "no_train"])
def test_generate_matches_the_per_vector_reference(spec):
    # the reference draws and normalises one vector at a time; generate_corpus
    # makes the same draws but does a record's arithmetic in one pass, bit for bit
    for got, want in zip(generate_corpus(spec), reference_corpus(spec), strict=True):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert _record_bytes(a) == _record_bytes(b), a.id


def _antipodal_bank(k, d, seed):
    v, w = np.eye(d)[:2]
    return np.stack([v, -v, w, -w])


@pytest.mark.parametrize("sigma", [0.05, 0.0, 1e200, 1e308])
def test_degenerate_feature_vector_is_an_error(tmp_path, monkeypatch, capsys, sigma):
    # with concepts v, -v, w, -w a subset {v, -v} or {w, -w} sums to exactly zero;
    # with a sigma of 1e200 or 1e308 a jittered vector's norm overflows, and would
    # scale the vector to a zero or NaN row
    if sigma < 1:
        monkeypatch.setattr("pairsieve.corpus.build_concept_bank", _antipodal_bank)
        settings = {"n_train": 20, "n_test": 5, "d": 4, "k": 4, "concepts_per_pair": 2}
        message = "degenerate feature vector (norm ~ 0)"
    else:
        settings = {"n_train": 20, "n_test": 5}
        message = "feature vector norm is not finite (overflow)"
    settings["feature_noise_sigma"] = sigma
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        with np.errstate(all="ignore"):
            generate_corpus(CorpusSpec(**settings))
    out = tmp_path / "corpus"
    argv = ["gen-corpus", "--out", str(out)]
    for key, value in settings.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"pairsieve: error: {message}\n"
    assert not out.exists()

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


def test_spec_bounds_the_feature_floats_it_can_draw():
    # the default spec holds (2000 + 100) * 10 * 32 frame floats; the bound is on
    # the largest the spec allows, and on the concept bank
    limit = MAX_CORPUS_FLOATS
    CorpusSpec(n_train=limit // 20 - 1, n_test=1, frame_len_max=10, d=2).validate()
    with pytest.raises(CorpusError, match=re.escape(
            f"(n_train + n_test) * frame_len_max * d = {limit + 2} exceeds the limit of {limit}")):
        CorpusSpec(n_train=limit // 2, n_test=1, frame_len_min=1, frame_len_max=1,
                   d=2).validate()
    CorpusSpec(k=limit // 32, d=32, n_train=0).validate()
    with pytest.raises(CorpusError, match=re.escape(f"k * d = {limit + 32} exceeds")):
        CorpusSpec(k=limit // 32 + 1, d=32, n_train=0).validate()


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


def test_corpus_write_failing_midway_keeps_previous_file(tmp_path, monkeypatch):
    train, test = generate_corpus(SMALL)
    path = tmp_path / "train.corpus"
    save_corpus(test, path)
    before = path.read_bytes()
    dumps = json.dumps
    calls = []

    def dumps_then_fail(obj, **kwargs):
        # the header and two records reach the file, then the write fails
        calls.append(obj)
        if len(calls) > 3:
            raise OSError("disk full")
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_corpus(train, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["train.corpus"]


def _bad_record(rec, kind):
    """rec broken in one way the record rule refuses."""
    if kind in ("nan-frame", "inf-sentence"):
        field = "frames_raw" if kind == "nan-frame" else "sentence_raw"
        values = getattr(rec, field).copy()
        values.flat[-3] = np.nan if kind == "nan-frame" else -np.inf
        return replace(rec, **{field: values})
    return replace(rec, **{
        "frames-5-wide": dict(frames_raw=rec.frames_raw[:, :5]),
        "3-d-frames": dict(frames_raw=rec.frames_raw[:, :, None]),
        "no-frames": dict(frames_raw=rec.frames_raw[:0], grounded=rec.grounded[:0]),
        "2-d-sentence": dict(sentence_raw=rec.sentence_raw[:, None]),
        "0-d-sentence": dict(sentence_raw=rec.sentence_raw[0, ...]),
        "2-d-mask": dict(grounded=rec.grounded[:, None]),
        "short-mask": dict(grounded=rec.grounded[:-1]),
        "unknown-tag": dict(tag="bogus"),
        "grounded-noise": dict(tag="noise"),
        "other-d": dict(sentence_raw=rec.sentence_raw[:5], frames_raw=rec.frames_raw[:, :5]),
    }[kind])


BAD_RECORD_MESSAGES = {
    "frames-5-wide": "frame dimension != sentence dimension",
    "3-d-frames": "frames must be a non-empty 2-d stack",
    "no-frames": "frames must be a non-empty 2-d stack",
    "2-d-sentence": r"sentence must be 1-d, has shape \(8, 1\)",
    "0-d-sentence": r"sentence must be 1-d, has shape \(\)",
    "2-d-mask": r"grounded must be a 1-d mask of one flag per frame, has shape \(\d+, 1\)",
    "short-mask": r"grounded must be a 1-d mask of one flag per frame, has shape \(\d+,\)",
    "nan-frame": "non-finite feature values in frames",
    "inf-sentence": "non-finite feature values in sentence",
    "unknown-tag": "unknown tag 'bogus'",
    "grounded-noise": "noise records cannot have grounded frames",
    "other-d": "feature dimension 5, expected 8",
}


@pytest.mark.parametrize("entry", ["train", "bidirectional_retrieval", "export_attention",
                                   "save_corpus"])
@pytest.mark.parametrize("kind", list(BAD_RECORD_MESSAGES))
def test_every_entry_point_refuses_a_bad_record_before_any_work(tmp_path, monkeypatch, kind,
                                                                 entry):
    # ClipRecord.validate is the one record rule: a hand-built record that breaks
    # it is a CorpusError naming it, from each entry point, before any step or
    # score and before save_corpus opens a file
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(training, "compute_gradients", no_work)
    monkeypatch.setattr(evaluation, "score_matrix", no_work)
    monkeypatch.setattr(evaluation, "_own_pairs", no_work)
    monkeypatch.setattr(corpus, "write_atomically", no_work)
    _, records = generate_corpus(SMALL)
    records[1] = _bad_record(records[1], kind)
    params = init_model(8, 6, "dot", "residual", 2, np.random.default_rng(0))
    call = {
        "train": lambda: train(TrainConfig(d_emb=6, batch_size=4, n_f=3, bvf_count=2),
                               records),
        "bidirectional_retrieval": lambda: bidirectional_retrieval(params, records),
        "export_attention": lambda: export_attention(params, records),
        "save_corpus": lambda: save_corpus(records, tmp_path / "bad.corpus"),
    }[entry]
    with pytest.raises(CorpusError,
                       match=f"^record {records[1].id}: {BAD_RECORD_MESSAGES[kind]}$"):
        call()
    assert list(tmp_path.iterdir()) == []


def test_load_empty_file_is_empty_corpus(tmp_path):
    path = tmp_path / "empty.corpus"
    path.write_text("")
    assert load_corpus(path) == []


def test_load_reports_line_numbers(tmp_path):
    # every case is written as a real record of each file version: version 2 carries
    # the features as base64 float64, version 1 as JSON number lists
    for version in (2, 1):
        _check_line_numbers(tmp_path, version)


def test_load_refuses_grounded_flags_other_than_0_and_1(tmp_path, capsys):
    # a grounded flag other than 0 or 1 is an error naming its line, in either file
    # version and through the CLI; JSON true and false load as 1 and 0. Each bad value
    # replaces a 1, so a loader that took any nonzero value as grounded would load
    # the record's own mask; "X" is written as 1e400, which json.dumps cannot write.
    save_corpus(generate_corpus(SMALL)[0], tmp_path / "train.corpus")
    header, recs = corpus_fields(tmp_path / "train.corpus")
    rec = next(r for r in recs if r["tag"] == "clean")
    other = next(r for r in recs if r is not rec)
    flags, g = rec["grounded"], rec["grounded"].index(1)
    bad = [flags[:g] + [value] + flags[g + 1:] for value in (0.5, 7, -1, "X")]
    bad.append([str(f) for f in flags])
    path = tmp_path / "flags.corpus"
    for version in (2, 1):
        head = json.dumps(dict(header, version=version)) + "\n" + corpus_line(other, version)

        def write(grounded):
            line = corpus_line(dict(rec, grounded=grounded), version).replace('"X"', "1e400")
            path.write_text(head + "\n" + line + "\n")

        write([bool(f) for f in flags])
        assert load_corpus(path)[1].grounded.tolist() == [bool(f) for f in flags]
        for grounded in bad:
            write(grounded)
            with pytest.raises(CorpusError, match="^line 3: field 'grounded' must hold only "
                                                  "0/1 flags$"):
                load_corpus(path)
            assert main(["train", "--corpus", str(path), "--quiet"]) == 1
            assert capsys.readouterr().err == ("pairsieve: error: line 3: field 'grounded' "
                                               "must hold only 0/1 flags\n")


def _check_line_numbers(tmp_path, version):
    train, _ = generate_corpus(SMALL)
    path = tmp_path / "bad.corpus"
    save_corpus(train[:3], path)
    header, recs = corpus_fields(path)
    header["version"] = version
    lines = [json.dumps(header)] + [corpus_line(rec, version) for rec in recs]

    # frames one float short: a ragged list, or a payload that is not whole rows
    rec = dict(recs[1], frames=[recs[1]["frames"][0][:-1], *recs[1]["frames"][1:]])
    path.write_text("\n".join([lines[0], lines[1], corpus_line(rec, version)]) + "\n")
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
    # JSON that the parser refuses by depth or by integer length
    for junk in ("[" * 100_000, '{"id": ' + "9" * 5000 + "}"):
        path.write_text(lines[0] + "\n" + junk + "\n")
        with pytest.raises(CorpusError, match="line 2: invalid record"):
            load_corpus(path)
        path.write_text(junk + "\n")
        with pytest.raises(CorpusError, match="line 1: invalid header"):
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

    # with "d": null the first record sets d; a record one dimension short names its line
    null_header = json.dumps({**header, "d": None})
    short = corpus_line(dict(recs[1], sentence=recs[1]["sentence"][:-1],
                             frames=recs[1]["frames"][:, :-1]), version)
    path.write_text("\n".join([null_header, lines[1], lines[2]]) + "\n")
    assert [r.sentence_raw.shape[0] for r in load_corpus(path)] == [8, 8]
    path.write_text("\n".join([null_header, lines[1], short]) + "\n")
    with pytest.raises(CorpusError, match="line 3: dimension mismatch.*line 2 d=8"):
        load_corpus(path)
    path.write_text("\n".join([null_header, short, lines[1]]) + "\n")
    with pytest.raises(CorpusError, match="line 3: dimension mismatch.*line 2 d=7"):
        load_corpus(path)
    path.write_text("\n".join([lines[0], short]) + "\n")
    with pytest.raises(CorpusError, match="line 2: dimension mismatch.*header d=8"):
        load_corpus(path)
    # a header d that is neither an integer nor null is one line-1 error naming its repr
    for value in ("8", True, 8.0):
        path.write_text("\n".join([json.dumps({**header, "d": value}), lines[1]]) + "\n")
        with pytest.raises(CorpusError, match=f"^line 1: .*{re.escape(repr(value))}$"):
            load_corpus(path)
    # save_corpus writes d = 0 for an empty corpus
    path.write_text(json.dumps({**header, "d": 0}) + "\n")
    assert load_corpus(path) == []

    # bytes that are not UTF-8 name the path and their line
    path.write_bytes("\n".join(lines).encode() + b"\n")
    assert len(load_corpus(path)) == 3
    raw = "\n".join(lines).encode().replace(b'"tag"', b'"t\xffg"', 3)
    path.write_bytes(raw)
    with pytest.raises(CorpusError, match=re.escape(f"{path}: line 2: not UTF-8")):
        load_corpus(path)
    path.write_bytes(b"\xff\xfe" + "\n".join(lines).encode())
    with pytest.raises(CorpusError, match=re.escape(f"{path}: line 1: not UTF-8")):
        load_corpus(path)


def _b64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def test_load_rejects_malformed_base64_features(tmp_path):
    # each bad version-2 payload is one CorpusError naming its line and field
    train, _ = generate_corpus(SMALL)
    path = tmp_path / "bad.corpus"
    save_corpus(train[:2], path)
    head, first, second = path.read_text().splitlines()
    header, recs = corpus_fields(path)
    sentence, frames = recs[1]["sentence"], recs[1]["frames"]
    text = json.loads(second)
    nan_frames = frames.copy()
    nan_frames[1, 2] = np.nan
    inf_sentence = sentence.copy()
    inf_sentence[0] = -np.inf
    cases = [
        ("sentence", text["sentence"][:5] + "*" + text["sentence"][5:], "'sentence' is not base64"),
        ("frames", text["frames"][:7] + "\u00e9" + text["frames"][8:], "'frames' is not base64"),
        ("sentence", text["sentence"].rstrip("="), "'sentence' is not base64.*padding"),
        ("frames", "", "'frames' holds 0 bytes"),
        ("sentence", base64.b64encode(sentence.tobytes()[:-4]).decode(), "'sentence' holds 60 bytes"),
        ("sentence", _b64(sentence[:-1]), "dimension mismatch.*sentence d=7"),
        ("frames", _b64(frames.ravel()[:-3]), "'frames' holds 69 floats, not whole rows of d=8"),
        ("frames", _b64(nan_frames), "non-finite feature values in frames"),
        ("sentence", _b64(inf_sentence), "non-finite feature values in sentence"),
        ("sentence", sentence.tolist(), "'sentence' must be a base64 string, not an array"),
        ("frames", frames.tolist(), "'frames' must be a base64 string, not an array"),
        ("frames", 3.5, "'frames' must be a base64 string, not a number"),
        ("sentence", None, "'sentence' must be a base64 string, not null"),
    ]
    for field, value, message in cases:
        path.write_text("\n".join([head, first, json.dumps({**text, field: value})]) + "\n")
        with pytest.raises(CorpusError, match=f"^line 3: .*{message}"):
            load_corpus(path)
    path.write_text("\n".join([head, first, json.dumps(text)]) + "\n")
    assert records_equal(load_corpus(path)[1], train[1])


def test_version_1_file_loads_bit_identical_to_its_version_2_resave(tmp_path):
    train, test = generate_corpus(SMALL)
    v1 = tmp_path / "v1.corpus"
    with open(v1, "w") as fh:
        fh.write(json.dumps({"format": "pairsieve-corpus", "version": 1, "d": 8}) + "\n")
        for rec in train:
            fh.write(json.dumps({"id": rec.id, "tag": rec.tag,
                                 "sentence": rec.sentence_raw.tolist(),
                                 "frames": rec.frames_raw.tolist(),
                                 "grounded": rec.grounded.astype(int).tolist()}) + "\n")
    old = load_corpus(v1)
    v2 = tmp_path / "v2.corpus"
    save_corpus(old, v2)
    assert json.loads(v2.read_text().splitlines()[0])["version"] == 2
    new = load_corpus(v2)
    assert len(old) == len(new) == len(train)
    for a, b, rec in zip(old, new, train):
        assert records_equal(a, b) and records_equal(a, rec)
        for x, y in ((a.sentence_raw, b.sentence_raw), (a.frames_raw, b.frames_raw)):
            assert x.dtype == y.dtype == np.float64
            assert x.flags.writeable and y.flags.writeable
    # version 2: save -> load -> save is byte-identical
    again = tmp_path / "again.corpus"
    save_corpus(new, again)
    assert again.read_bytes() == v2.read_bytes()


def _mutated(data, kind, rng):
    """One mutation of a corpus file's bytes; JSON edits keep save_corpus's layout."""
    if kind == "byte flip":
        out = bytearray(data)
        out[rng.integers(len(out))] ^= int(rng.integers(1, 256))
        return bytes(out)
    if kind == "truncation":
        return data[:rng.integers(len(data))]
    lines = data.decode().splitlines()
    if kind == "base64 swap":
        lineno = int(rng.integers(1, len(lines)))
        rec = json.loads(lines[lineno])
        field = ("sentence", "frames")[rng.integers(2)]
        chars = list(rec[field])
        i, j = rng.choice(len(chars), size=2, replace=False)
        chars[i], chars[j] = chars[j], chars[i]
        rec[field] = "".join(chars)
    else:  # a JSON value swap, in the header or a record
        lineno = int(rng.integers(len(lines)))
        rec = json.loads(lines[lineno])
        key = sorted(rec)[rng.integers(len(rec))]
        value = rec[key]
        if isinstance(value, str):
            swapped = 3
        elif isinstance(value, (int, float)):
            swapped = str(value)
        else:
            swapped = json.dumps(value)
        rec[key] = (swapped, None, float("nan"), 1e308, [[1.0, [2.0]]])[rng.integers(5)]
    lines[lineno] = json.dumps(rec)
    return ("\n".join(lines) + "\n").encode()


def test_load_corpus_mutation_fuzz(tmp_path, capsys):
    # ~300 seeded mutations of a 5-record corpus: each load returns records or
    # raises CorpusError, never another exception; `eval` on a rejected file ends
    # in one error line
    train, _ = generate_corpus(SMALL)
    path = tmp_path / "fuzz.corpus"
    save_corpus(train[:5], path)
    data = path.read_bytes()
    kinds = ("byte flip", "truncation", "base64 swap", "JSON value swap")
    rng = np.random.default_rng(zlib.crc32(b"load_corpus mutation fuzz"))
    outcomes = {}
    rejected = {}
    for i in range(300):
        kind = kinds[i % len(kinds)]
        path.write_bytes(_mutated(data, kind, rng))
        try:
            records = load_corpus(path)
        except CorpusError:
            rejected.setdefault(kind, path.read_bytes())
            outcome = "rejected"
        except Exception as exc:  # report the mutation that escaped
            pytest.fail(f"mutation {i} ({kind}): {type(exc).__name__}: {exc}")
        else:
            assert all(isinstance(r, ClipRecord) for r in records), i
            outcome = "loaded"
        outcomes[kind, outcome] = outcomes.get((kind, outcome), 0) + 1
    assert sorted(rejected) == sorted(kinds), outcomes
    assert sum(n for (_, outcome), n in outcomes.items() if outcome == "loaded") > 0, outcomes

    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(init_model(8, 6, "dot", "residual", 2, np.random.default_rng(0)), checkpoint)
    for kind, bad in rejected.items():
        path.write_bytes(bad)
        assert main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pairsieve: error:") and err.count("\n") == 1, (kind, err)


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


def _numbered_clips(lengths, d=3):
    """Records whose frame f of clip c holds 100 * c + f in every feature."""
    return [
        ClipRecord(id=f"c{c}", sentence_raw=np.ones(d),
                   frames_raw=np.repeat(100.0 * c + np.arange(n)[:, None], d, axis=1),
                   tag="noise", grounded=np.zeros(n, dtype=bool))
        for c, n in enumerate(lengths)
    ]


def _sample(records, clip_idx, n_f, rng):
    """The frames (B, n_f, d) sample_frames picks for one batch of clips."""
    store = frame_store(records)
    return store[0][sample_frames(store, np.asarray(clip_idx)[None], n_f, rng)[0]]


def _frame_ids(frames, clip_idx):
    """Frame indices of a sampled (B, n_f, d) batch; checks each row's clip."""
    assert np.all(frames == frames[:, :, :1])
    ids = frames[:, :, 0] - 100.0 * np.asarray(clip_idx)[:, None]
    assert np.all((ids >= 0) & (ids < 100) & (ids == np.round(ids)))
    return ids.astype(int)


def test_sample_frames_without_replacement_when_possible():
    train, _ = generate_corpus(SMALL)
    i = next(i for i, r in enumerate(train) if r.frames_raw.shape[0] >= 5)
    clip = train[i]
    rng = np.random.default_rng(4)
    batch = _sample(train, np.full(50, i), 5, rng)
    assert batch.shape == (50, 5, 8)
    for frames in batch:
        # all distinct rows of the original clip
        ids = [np.flatnonzero((clip.frames_raw == f).all(axis=1))[0] for f in frames]
        assert len(set(ids)) == 5
        assert ids == sorted(ids)


def test_sample_frames_reuses_when_short():
    train, _ = generate_corpus(SMALL)
    i = min(range(len(train)), key=lambda j: train[j].frames_raw.shape[0])
    clip = train[i]
    n = clip.frames_raw.shape[0]
    rng = np.random.default_rng(5)
    frames = _sample(train, [i], n + 3, rng)[0]
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
    frames = _sample([one], [0], 1, np.random.default_rng(6))[0]
    assert np.array_equal(frames, one.frames_raw)


def test_sample_frames_mixed_length_batch():
    records = _numbered_clips(range(1, 11))
    clip_idx = np.random.default_rng(7).permutation(np.repeat(np.arange(10), 20))
    ids = _frame_ids(_sample(records, clip_idx, 5, np.random.default_rng(8)), clip_idx)
    assert ids.shape == (200, 5)
    for row, c in zip(ids, clip_idx):
        n = c + 1
        assert np.all(np.diff(row) >= 0) and row.max() < n
        if n >= 5:
            assert len(set(row.tolist())) == 5
        else:
            assert set(row.tolist()) == set(range(n))


def test_sample_frames_n_f_beyond_longest_clip():
    records = _numbered_clips([1, 2, 3, 4])
    clip_idx = np.array([3, 0, 2, 1, 3])
    frames = _sample(records, clip_idx, 7, np.random.default_rng(9))
    assert frames.shape == (5, 7, 3)
    for row, c in zip(_frame_ids(frames, clip_idx), clip_idx):
        assert np.all(np.diff(row) >= 0)
        assert set(row.tolist()) == set(range(c + 1))


def test_sample_frames_subsets_are_uniform():
    n_draws = 20_000
    ids = _frame_ids(_sample(_numbered_clips([5]), np.zeros(n_draws, dtype=int), 2,
                                   np.random.default_rng(10)), np.zeros(n_draws))
    assert np.all(ids[:, 0] < ids[:, 1])
    counts = np.bincount(ids[:, 0] * 5 + ids[:, 1], minlength=25)
    pairs = [a * 5 + b for a in range(5) for b in range(a + 1, 5)]
    assert counts.sum() == counts[pairs].sum() == n_draws
    p = 1 / len(pairs)
    sigma = np.sqrt(n_draws * p * (1 - p))
    assert np.all(np.abs(counts[pairs] - n_draws * p) <= 5 * sigma), counts[pairs]


def test_sample_frames_same_seed_same_batch():
    train, _ = generate_corpus(SMALL)
    clip_idx = np.arange(0, 60, 3)
    a = _sample(train, clip_idx, 5, np.random.default_rng(11))
    b = _sample(train, clip_idx, 5, np.random.default_rng(11))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, _sample(train, clip_idx, 5, np.random.default_rng(12)))


@pytest.mark.parametrize("lengths,n_f,batch,widths_differ", [
    ([3, 9, 1, 6, 10, 4, 7, 2], 4, 6, True),
    ([1, 2, 3], 7, 4, False),
    ([1, 1, 1, 1], 1, 2, False),
    ([1, 1, 1, 12, 1, 1, 1, 1], 2, 4, True),
], ids=["mixed-lengths", "n_f-beyond-longest", "single-frame", "one-wide-batch"])
def test_sample_frames_draws_an_epoch_as_its_batches_would(lengths, n_f, batch, widths_differ):
    # one draw for the whole epoch picks, bit for bit, the frames the per-batch
    # reference picks from the same generator, batch after batch
    records = _numbered_clips(lengths)
    clip_idx = np.stack([c for _, c in epoch_batches(len(records), batch,
                                                     np.random.default_rng(13))])
    widths = np.maximum(n_f, np.array(lengths)[clip_idx].max(axis=1))
    assert (len(set(widths.tolist())) > 1) == widths_differ
    store = frame_store(records)
    frames = store[0][sample_frames(store, clip_idx, n_f, np.random.default_rng(14))]
    rng = np.random.default_rng(14)
    expected = np.stack([reference_sample_frames(records, c, n_f, rng) for c in clip_idx])
    assert frames.shape == (clip_idx.shape[0], batch, n_f, 3)
    assert frames.tobytes() == expected.tobytes()


def test_frame_store_shares_a_loaded_corpus_and_copies_others(tmp_path):
    train, _ = generate_corpus(SMALL)
    path = tmp_path / "train.corpus"
    save_corpus(train, path)
    loaded = load_corpus(path)
    rows, starts, lengths = frame_store(loaded)
    assert rows.nbytes == sum(r.frames_raw.nbytes for r in loaded)
    for rec, start, n in zip(loaded, starts, lengths):
        view = rows[start:start + n]
        assert view.__array_interface__ == rec.frames_raw.__array_interface__
    # generated records, and a loaded record replaced by hand, are copied
    for records in (train, loaded[:5] + [ClipRecord(**{**vars(loaded[5]),
                                                       "frames_raw": train[5].frames_raw})]):
        copy, starts, lengths = frame_store(records)
        assert not any(np.shares_memory(copy, r.frames_raw) for r in records)
        for rec, start, n in zip(records, starts, lengths):
            assert np.array_equal(copy[start:start + n], rec.frames_raw)


def test_load_from_a_pipe_copies_nothing_into_the_store(tmp_path):
    # a pipe has no length to size the store from: each record keeps its own
    # frames, and frame_store then copies them as it does generated records
    train, _ = generate_corpus(SMALL)
    path = tmp_path / "train.corpus"
    save_corpus(train, path)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    piped = load_corpus(pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert all(records_equal(a, b) for a, b in zip(piped, train)) and len(piped) == len(train)
    rows = frame_store(piped)[0]
    assert np.array_equal(rows, frame_store(train)[0])
    assert not any(np.shares_memory(rows, r.frames_raw) for r in piped)
