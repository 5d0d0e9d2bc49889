"""Ranking metrics, the query-conditioned score matrix in blocks, and reports."""

import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pairsieve import cli, evaluation, model
from pairsieve.cli import main
from pairsieve.corpus import CorpusSpec, generate_corpus, save_corpus
from pairsieve.evaluation import (
    TIE_BAND,
    EvalError,
    _direction_report,
    bidirectional_retrieval,
    export_attention,
    own_pair_scores,
    random_baseline_map,
    report_csv,
    report_summary,
    retrieval_ranks,
)
from pairsieve.model import ATTENTION_KINDS, attend, embed, init_model, save_checkpoint

from oracles import full_score_matrix, rank_of, reference_attention_dump


def test_rank_of_basic_and_ties():
    # matched pairs on the diagonal: row i ranks the clips for sentence i,
    # column j ranks the sentences for clip j
    scores = np.array([[0.5, 0.3, 0.5],
                       [0.9, 0.1, 0.5],
                       [0.5, 0.3, 0.5]])
    video, sentence = retrieval_ranks([scores], np.diag(scores))
    # ties break by candidate index: an equal score before the matched item
    # outranks it (row 2, column 2), an equal score after it does not (row 0,
    # column 0)
    assert video.tolist() == [1, 3, 2]
    assert sentence.tolist() == [2, 3, 3]
    video, sentence = retrieval_ranks([np.array([[0.7]])], [0.7])
    assert video.tolist() == sentence.tolist() == [1]


def test_ranks_match_per_query_oracle():
    # integer-valued scores from {0, 1, 2} make ties the common case
    rng = np.random.default_rng(20)
    for trial in range(200):
        n = int(rng.integers(1, 31))
        scores = rng.integers(0, 3, size=(n, n)).astype(float)
        video, sentence = retrieval_ranks([scores], np.diag(scores))
        assert video.tolist() == [rank_of(scores[i, :], i) for i in range(n)], trial
        assert sentence.tolist() == [rank_of(scores[:, j], j) for j in range(n)], trial


def _blocks(scores, width):
    return [scores[:, lo:lo + width] for lo in range(0, scores.shape[1], width)]


def test_blocked_ranks_match_per_query_oracle_for_every_width():
    # ties that cross block edges: a constant matrix ties every pair, so each
    # candidate at a lower index ranks ahead; a banded one ties each row with the
    # columns next to its diagonal, on either side of any edge; integer scores from
    # {0, 1, 2} tie everywhere, and nudged by +-TIE_BAND/4 they also hold near-ties
    # on either side of the diagonal. Every cut must rank as rank_of and as one
    # block, with near the exact diagonal or off it by up to TIE_BAND/2.
    rng = np.random.default_rng(21)
    n = 11
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
    matrices = [np.zeros((n, n)), band.astype(float), (band * 2 - np.eye(n)).T]
    matrices += [rng.integers(0, 3, size=(m, m)).astype(float) for m in (1, 2, 5, 9, 16, 23)]
    matrices += [m + rng.choice([-TIE_BAND / 4, 0.0, TIE_BAND / 4], size=m.shape)
                 for m in matrices[-3:]]
    for scores in matrices:
        m = scores.shape[0]
        want = ([rank_of(scores[i, :], i) for i in range(m)],
                [rank_of(scores[:, j], j) for j in range(m)])
        for shift in (0.0, TIE_BAND / 2, -TIE_BAND / 2):
            near = np.diag(scores) + shift
            video, sentence = retrieval_ranks([scores], near)
            assert (video.tolist(), sentence.tolist()) == want, (m, shift)
            for width in range(1, m + 1):
                video, sentence = retrieval_ranks(_blocks(scores, width), near)
                assert (video.tolist(), sentence.tolist()) == want, (m, width, shift)
    # every entry of a constant matrix lies in the band, and the ranks stay exact
    video, sentence = retrieval_ranks(_blocks(np.zeros((n, n)), 4), np.zeros(n))
    assert video.tolist() == sentence.tolist() == list(range(1, n + 1))


def test_ranks_refuse_a_near_score_off_the_diagonal():
    # a diagonal entry more than TIE_BAND from near could have been ranked against
    # the wrong entries, so it is an error naming the clip, for any block width
    scores = np.random.default_rng(22).integers(0, 3, size=(7, 7)).astype(float)
    for row in range(7):
        near = np.diag(scores).copy()
        near[row] += 2 * TIE_BAND
        for width in range(1, 8):
            with pytest.raises(EvalError, match=f"^clip {row}: own-pair score differs "):
                retrieval_ranks(_blocks(scores, width), near)


def test_ranks_reject_non_finite_scores():
    for bad in (np.nan, np.inf, -np.inf):
        scores = np.eye(3)
        scores[1, 2] = bad
        with pytest.raises(EvalError, match="scores must be finite"):
            retrieval_ranks([scores], np.diag(scores))
        # also when only the last of several blocks holds it
        scores = np.eye(7)
        scores[0, 6] = bad
        with pytest.raises(EvalError, match="scores must be finite"):
            retrieval_ranks(_blocks(scores, 3), np.diag(scores))


def test_ap_and_recall_from_rank():
    # AP with one relevant item is 1/rank; Rec@k counts ranks <= k
    report = _direction_report(np.array([1, 2, 4, 1]))
    assert report.mean_ap == 68.75
    assert report.recall == {1: 50.0, 5: 100.0, 10: 100.0}


def _records(n=6, seed=0, frames=(4, 10)):
    _, test = generate_corpus(CorpusSpec(n_train=0, n_test=n, d=8, k=12, seed=seed,
                                         frame_len_min=frames[0], frame_len_max=frames[1]))
    return test


def _per_pair_scores(params, records):
    """s_i . v_ij from one attend call per (sentence, clip) pair."""
    out = np.empty((len(records), len(records)))
    for i, qi in enumerate(records):
        s = embed(params, "language", qi.sentence_raw)[0]
        for j, cj in enumerate(records):
            v, _, _ = attend(params, s, embed(params, "vision", cj.frames_raw)[0])
            out[i, j] = float(s @ v)
    return out


def _dead(params, side):
    """params with every ReLU unit of the side's channel dead: all its embeddings are 0."""
    params.tensors[f"{side}.bias"][...] = -1e3
    return params


def _tied(params):
    """params whose two channels share one weight, so own pairs tend to score highest,
    as after training."""
    params.tensors["language.weight"][...] = params.tensors["vision.weight"]
    return params


def _check_pruned(params, records, kind, near):
    """score_matrix's entries under near: exact where the bound reaches the floor,
    the bound, which lies below it, elsewhere; returns (pruned matrix, exact mask)."""
    n = len(records)
    got = full_score_matrix(params, records, near)
    exact = full_score_matrix(params, records, np.full(n, -np.inf))
    bound = full_score_matrix(params, records, np.full(n, np.inf))
    floor = np.minimum.outer(near, near) - 2 * TIE_BAND
    scored = ~(bound < floor) if kind == "additive" else np.ones((n, n), dtype=bool)
    assert np.array_equal(got[scored], exact[scored])  # the same bits as with none pruned
    # the other entries hold their bound, apart from one exact partner of a lone
    # exact entry in its column
    assert ((got == bound) | (got == exact))[~scored].all()
    assert (bound[~scored] < floor[~scored]).all()
    assert (bound >= exact - 1e-12).all()
    return got, scored


@pytest.mark.parametrize("kind", ["uniform", "dot", "multiplicative", "additive"])
def test_score_matrix_matches_per_pair_loop(kind):
    # clips of 1 to 10 frames, a single query, and an attention width unlike d_emb:
    # every entry scored exactly matches the per-pair loop to 1e-12, and an
    # additive entry is scored exactly unless its bound lies below the floor
    # min(near_i, near_j) - 2 TIE_BAND
    mixed = (_records(2, seed=0, frames=(1, 1)) + _records(2, seed=1, frames=(10, 10))
             + _records(2, seed=2))
    for d_att in (0, 3) if kind == "additive" else (0,):
        params = init_model(8, 6, kind, "residual", 2, np.random.default_rng(1), d_att=d_att)
        for records in (mixed, _records(n=1)):
            n = len(records)
            want = _per_pair_scores(params, records)
            got = full_score_matrix(params, records, np.full(n, -np.inf))
            assert np.allclose(got, want, rtol=0, atol=1e-12), (d_att, n)
            near = own_pair_scores(params, records, evaluation.embed_queries(params, records))
            assert np.allclose(near, np.diag(want), rtol=0, atol=1e-12), (d_att, n)
            assert np.diag(_check_pruned(params, records, kind, near)[1]).all()
        records = _records(n=40, seed=7)
        near = own_pair_scores(params, records, evaluation.embed_queries(params, records))
        scores, scored = _check_pruned(params, records, kind, near)
        assert np.diag(scored).all()
        ranks = retrieval_ranks([scores], near)
        want = _per_pair_scores(params, records)
        assert ranks[0].tolist() == [rank_of(want[i, :], i) for i in range(40)], d_att
        assert ranks[1].tolist() == [rank_of(want[:, j], j) for j in range(40)], d_att


def test_pruned_ranks_match_per_pair_oracle():
    # eval's blocks, with their bounds, rank as the per-pair loop for a random, a
    # trained-like and two all-tie models whose vision or language ReLU units are
    # all dead, with blocks of 7 clips so that ranks cross block edges
    records = _records(n=30, seed=13, frames=(1, 10))
    for make in (lambda p: p, _tied, lambda p: _dead(p, "vision"),
                 lambda p: _dead(p, "language")):
        params = make(init_model(8, 6, "additive", "residual", 2, np.random.default_rng(3)))
        near = own_pair_scores(params, records, evaluation.embed_queries(params, records))
        scores, scored = _check_pruned(params, records, "additive", near)
        assert np.diag(scored).all()  # a diagonal entry is always scored exactly
        want = _per_pair_scores(params, records)
        video, sentence = retrieval_ranks(_blocks(scores, 7), near)
        assert video.tolist() == [rank_of(want[i, :], i) for i in range(30)]
        assert sentence.tolist() == [rank_of(want[:, j], j) for j in range(30)]


def test_score_matrix_scores_every_entry_whose_bound_reaches_the_floor():
    # near may lie up to TIE_BAND off the exact diagonal, so the floor keeps a margin
    # of 2 TIE_BAND below it: with each near_i placed TIE_BAND above the bound of
    # one entry of row i, that entry must still be scored exactly
    records = _records(n=12, seed=14, frames=(3, 10))
    params = _tied(init_model(8, 6, "additive", "residual", 2, np.random.default_rng(4)))
    bound = full_score_matrix(params, records, np.full(12, np.inf))
    exact = full_score_matrix(params, records, np.full(12, -np.inf))
    for shift in range(1, 12):
        cols = (np.arange(12) + shift) % 12
        near = bound[np.arange(12), cols] + TIE_BAND
        got = _check_pruned(params, records, "additive", near)[0]
        assert np.array_equal(got[np.arange(12), cols], exact[np.arange(12), cols]), shift


def test_eval_scores_fewer_additive_entries_than_n_squared(monkeypatch):
    # under a trained-like model most entries' bounds lie below their floor, so
    # clip_scores pools fewer than n^2 / 2 columns exactly; every column is pooled
    # by one softmax over its frames (axis 0). Some clips leave only their own
    # sentence open, which is pooled beside a second one and keeps its bits.
    widths = []
    softmax = model.softmax

    def counting_softmax(e, axis=-1):
        if axis == 0:
            widths.append(e.shape[1])
        return softmax(e, axis)

    monkeypatch.setattr(model, "softmax", counting_softmax)
    records = _records(n=60, seed=15)
    params = _tied(init_model(8, 32, "additive", "residual", 2, np.random.default_rng(1)))
    params.tensors["attention.w_score"][...] *= 0.1  # flatter attention: a tighter bound
    bidirectional_retrieval(params, records)
    assert len(widths) == 60
    assert 60 <= sum(widths) < 60 * 60 / 2, sum(widths)
    near = own_pair_scores(params, records, evaluation.embed_queries(params, records))
    scored = _check_pruned(params, records, "additive", near)[1]
    assert (scored.sum(axis=0) == 1).any()


def _use_cores(monkeypatch, cores, min_clips_for_threads=1):
    """Make score_matrix see `cores` usable cores, whatever the host has.

    By default it also splits any number of clips over them, so that a few
    clips exercise the threaded path.
    """
    monkeypatch.setattr(evaluation.os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    monkeypatch.setattr(evaluation, "MIN_CLIPS_FOR_THREADS", min_clips_for_threads)


@pytest.mark.parametrize("kind", ["uniform", "dot", "multiplicative", "additive"])
def test_score_matrix_same_for_any_core_count(kind, monkeypatch):
    # one thread per share beyond the caller's, each filling its own columns: the
    # matrix is the same bits for 1, 2, 3 and 5 cores, also with fewer clips than
    # cores, and for any block width
    params = init_model(8, 6, kind, "residual", 2, np.random.default_rng(1))
    threads = set()

    def recording_clip_scores(*args):
        threads.add(threading.current_thread())
        return clip_scores(*args)

    clip_scores = evaluation.clip_scores
    block_clips = evaluation.BLOCK_CLIPS
    monkeypatch.setattr(evaluation, "clip_scores", recording_clip_scores)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that shares interleave
    try:
        for records in (_records(n=7, seed=8, frames=(1, 10)), _records(n=1), _records(n=2)):
            _use_cores(monkeypatch, 1)
            want = full_score_matrix(params, records)
            for cores in (1, 2, 3, 5):
                _use_cores(monkeypatch, cores)
                threads.clear()
                got = full_score_matrix(params, records)
                assert np.array_equal(got, want), (cores, len(records))
                assert len(threads) == min(cores, len(records)), (cores, len(records))
            # and for any block width: blocks of 3 cut 7 clips into 3, 3 and 1
            monkeypatch.setattr(evaluation, "BLOCK_CLIPS", 3)
            assert np.array_equal(full_score_matrix(params, records), want), len(records)
            monkeypatch.setattr(evaluation, "BLOCK_CLIPS", block_clips)
    finally:
        sys.setswitchinterval(interval)


def test_score_matrix_scores_fewer_clips_than_the_crossover_on_the_calling_thread(monkeypatch):
    # below MIN_CLIPS_FOR_THREADS test clips no thread starts, and the matrix is the
    # same bits as the threaded one; from it on, each block starts one thread
    crossover = evaluation.MIN_CLIPS_FOR_THREADS
    records = _records(n=crossover, seed=12)
    params = init_model(8, 6, "additive", "residual", 2, np.random.default_rng(2))
    _use_cores(monkeypatch, 2)
    want = full_score_matrix(params, records[:-1])
    started = []
    thread = threading.Thread

    def recording_thread(*args, **kwargs):
        started.append(args or kwargs)
        return thread(*args, **kwargs)

    monkeypatch.setattr(evaluation.threading, "Thread", recording_thread)
    _use_cores(monkeypatch, 2, min_clips_for_threads=crossover)
    assert np.array_equal(full_score_matrix(params, records[:-1]), want)
    assert started == []
    full_score_matrix(params, records)
    assert len(started) == -(-crossover // evaluation.BLOCK_CLIPS)


def test_score_matrix_threads_keep_callers_error_state(monkeypatch):
    # +-1e308 weights overflow in every share; under the caller's errstate(all="ignore")
    # no share may warn, though numpy's error state does not pass to new threads
    _use_cores(monkeypatch, 2)
    params = init_model(8, 8, "additive", "residual", 2, np.random.default_rng(0))
    weight = params.tensors["vision.weight"]
    weight[...] = np.resize([1e308, -1e308], weight.shape)
    records = _records(n=6, seed=3)
    near = np.zeros(6)  # given, so that only the shares embed clips
    with pytest.warns(RuntimeWarning):
        full_score_matrix(params, records[3:], near[3:])  # the second share's clips overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            scores = full_score_matrix(params, records, near)
    assert not np.isfinite(scores).all()


def test_score_matrix_worker_error_is_raised_after_every_join(tmp_path, monkeypatch, capsys):
    # a MemoryError in the last share's thread reaches the caller, and `eval` ends in
    # one error line; no thread outlives score_matrix
    _use_cores(monkeypatch, 2)
    records = _records(n=6, seed=10)
    params = init_model(8, 6, "additive", "residual", 2, np.random.default_rng(6))
    failing = {"Unable to allocate 1.00 GiB for an array":
               embed(params, "vision", records[-1].frames_raw)[0]}
    clip_scores = evaluation.clip_scores

    def failing_clip_scores(model, h, *rest):
        for message, frames in failing.items():
            if np.array_equal(h, frames):
                raise MemoryError(message)
        return clip_scores(model, h, *rest)

    monkeypatch.setattr(evaluation, "clip_scores", failing_clip_scores)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="Unable to allocate"):
        full_score_matrix(params, records)
    assert threading.active_count() == before
    # with both shares failing, the first share's error is the one raised
    failing["first share"] = embed(params, "vision", records[0].frames_raw)[0]
    with pytest.raises(MemoryError, match="first share"):
        full_score_matrix(params, records)
    del failing["first share"]
    checkpoint, corpus = tmp_path / "checkpoint.json", tmp_path / "test.corpus"
    save_checkpoint(params, checkpoint)
    save_corpus(records, corpus)
    assert main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus)]) == 1
    err = capsys.readouterr().err
    assert err == "pairsieve: error: Unable to allocate 1.00 GiB for an array\n", err
    assert threading.active_count() == before


def test_score_matrix_builds_no_query_frame_grid(monkeypatch):
    # the additive scorer must not hold an (n, F, A) grid: the traced peak of scoring
    # one block stays below the size of one such grid. Each share holds its own
    # buffers, so the core count is pinned to make the peak host-independent. Nor
    # does eval hold an n x n array: with blocks of 64 clips, its traced peak on one
    # core, queries, block, band and all, stays below n x n floats.
    _use_cores(monkeypatch, 2)
    monkeypatch.setattr(evaluation, "BLOCK_CLIPS", 64)
    records = _records(n=400, seed=6)
    params = init_model(8, 32, "additive", "residual", 2, np.random.default_rng(5))
    n, d_att = len(records), params.tensors["attention.w_score"].shape[0]
    f_max = max(r.frames_raw.shape[0] for r in records)
    queries = evaluation.embed_queries(params, records)
    tracemalloc.start()
    try:
        evaluation.score_matrix(params, records, queries, np.full(n, -np.inf), 0, 64)
        block_peak = tracemalloc.get_traced_memory()[1]
        _use_cores(monkeypatch, 1)
        tracemalloc.reset_peak()
        bidirectional_retrieval(params, records)
        eval_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block_peak < n * f_max * d_att * 8, (block_peak, f_max)
    assert eval_peak < n * n * 8, eval_peak


def test_eval_memory_grows_linearly_in_n(monkeypatch):
    # beyond one block and its masks eval holds only the band of near-ties, so its
    # traced peak on one core, with blocks of 32 clips, about doubles from 800 to
    # 1600 clips; deferring whole row pieces until each diagonal is known triples it
    _use_cores(monkeypatch, 1)
    monkeypatch.setattr(evaluation, "BLOCK_CLIPS", 32)
    params = init_model(8, 32, "dot", "residual", 2, np.random.default_rng(5))
    peaks = []
    for n in (800, 1600):
        records = _records(n=n, seed=6)
        tracemalloc.start()
        try:
            bidirectional_retrieval(params, records)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2.3 * peaks[0], peaks


def test_eval_refuses_too_many_clips_before_scoring(tmp_path, monkeypatch, capsys):
    # more than MAX_EVAL_CLIPS test clips end `eval` and `ablate` in one error line
    # and exit 1 before any block is scored or any run trained; exactly the limit runs
    records = _records(n=4, seed=9)
    params = init_model(8, 6, "dot", "residual", 2, np.random.default_rng(7))
    checkpoint, corpus = tmp_path / "checkpoint.json", tmp_path / "test.corpus"
    save_checkpoint(params, checkpoint)
    save_corpus(records, corpus)
    monkeypatch.setattr(evaluation, "MAX_EVAL_CLIPS", 3)
    scored = []
    score_matrix = evaluation.score_matrix
    monkeypatch.setattr(evaluation, "score_matrix",
                        lambda *args: scored.append(args[4:]) or score_matrix(*args))
    message = "pairsieve: error: test set has 4 clips; eval takes at most 3\n"
    with pytest.raises(EvalError, match="4 clips; eval takes at most 3"):
        bidirectional_retrieval(params, records)
    assert main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus)]) == 1
    assert capsys.readouterr().err == message
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("trained"))
    assert main(["ablate", "--corpus", str(corpus), "--test-corpus", str(corpus),
                 "--axis", "bvf_count", "--values", "2", "--out", str(tmp_path / "ab")]) == 1
    assert capsys.readouterr().err == message
    assert scored == []
    bidirectional_retrieval(params, records[:3])
    assert scored == [(0, 3)]


def test_retrieval_report_consistent_with_matrix(monkeypatch):
    # blocks of 3 clips: 8 is not a multiple, and ranks cross block edges
    monkeypatch.setattr(evaluation, "BLOCK_CLIPS", 3)
    records = _records(n=8, seed=3)
    params = init_model(8, 6, "dot", "residual", 2, np.random.default_rng(2))
    scores = full_score_matrix(params, records)
    report = bidirectional_retrieval(params, records)
    video_ranks = np.array([rank_of(scores[i, :], i) for i in range(8)])
    sent_ranks = np.array([rank_of(scores[:, j], j) for j in range(8)])
    assert report.n_queries == 8
    for direction, ranks in ((report.video_search, video_ranks),
                             (report.sentence_search, sent_ranks)):
        assert np.isclose(direction.mean_ap, (1.0 / ranks).mean() * 100)
        for k, rec in direction.recall.items():
            assert np.isclose(rec, (ranks <= k).mean() * 100)


def test_random_baselines():
    # harmonic-number identity: mean over ranks 1..n of 1/rank
    assert np.isclose(random_baseline_map(100), 5.187377517639621)
    assert random_baseline_map(1) == 100.0
    with pytest.raises(EvalError):
        random_baseline_map(0)


def test_report_csv_round_trips_floats():
    records = _records(n=5, seed=4)
    params = init_model(8, 6, "dot", "residual", 2, np.random.default_rng(3))
    report = bidirectional_retrieval(params, records)
    text = report_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == "metric,direction,value"
    values = {}
    for line in lines[1:]:
        metric, direction, value = line.split(",")
        values[(metric, direction)] = float(value)
    assert values[("map", "video_search")] == report.video_search.mean_ap
    assert values[("rec_at_10", "sentence_search")] == report.sentence_search.recall[10]

    summary = report_summary(report)
    assert summary["n_queries"] == 5
    assert summary["map_video_search"] == report.video_search.mean_ap
    assert summary["recall_video_search"]["5"] == report.video_search.recall[5]


def test_export_attention_rows():
    records = _records(n=4, seed=5)
    params = init_model(8, 6, "dot", "residual", 2, np.random.default_rng(4))
    rows = export_attention(params, records)
    assert len(rows) == sum(r.frames_raw.shape[0] for r in records)
    by_clip = {}
    for row in rows:
        by_clip.setdefault(row["clip_id"], []).append(row)
    for rec in records:
        clip_rows = by_clip[rec.id]
        assert [r["frame"] for r in clip_rows] == list(range(rec.frames_raw.shape[0]))
        assert [r["grounded"] for r in clip_rows] == [int(g) for g in rec.grounded]
        alphas = np.array([r["alpha"] for r in clip_rows])
        assert np.isclose(alphas.sum(), 1.0, atol=1e-12)
        rels = [r["alpha_rel"] for r in clip_rows]
        assert np.isclose(max(rels), 1.0)

    with pytest.raises(EvalError):
        export_attention(params, [])


@pytest.mark.parametrize("kind", ATTENTION_KINDS)
def test_export_attention_matches_per_record_oracle_across_chunks(kind, monkeypatch):
    # clips of 1 to 10 frames in chunks of two: length groups interleave in record
    # order and split over chunks, and the rows still come in record and frame order
    monkeypatch.setattr(evaluation, "BLOCK_CLIPS", 2)
    records = _records(n=25, seed=16, frames=(1, 10))
    lengths = [r.frames_raw.shape[0] for r in records]
    assert lengths != sorted(lengths) and max(map(lengths.count, lengths)) > 2
    params = init_model(8, 6, kind, "residual", 2, np.random.default_rng(5), d_att=3)
    rows, want = export_attention(params, records), reference_attention_dump(params, records)
    assert [(r["clip_id"], r["frame"], r["grounded"]) for r in rows] == [
        (r["clip_id"], r["frame"], r["grounded"]) for r in want]
    for key in ("alpha", "alpha_rel"):
        assert np.allclose([r[key] for r in rows], [r[key] for r in want], rtol=0, atol=1e-15)


def test_export_attention_names_the_first_nonfinite_clip_in_record_order():
    # clip b has 5 frames and comes between two 3-frame clips; the 3-frame chunk is
    # pooled first, but b is the first non-finite clip in record order
    three = _records(n=2, seed=1, frames=(3, 3))
    five = _records(n=1, seed=2, frames=(5, 5))
    records = [replace(three[0], id="a"),
               replace(five[0], id="b", frames_raw=five[0].frames_raw * np.nan),
               replace(three[1], id="c", frames_raw=three[1].frames_raw * np.nan)]
    params = init_model(8, 6, "dot", "residual", 2, np.random.default_rng(4))
    with np.errstate(all="ignore"), pytest.raises(EvalError, match="^clip b: attention"):
        export_attention(params, records)
    with pytest.raises(EvalError, match="no records to evaluate"):
        bidirectional_retrieval(params, [])
