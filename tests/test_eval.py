"""Ranking metrics, the query-conditioned score matrix, and reports."""

import tracemalloc

import numpy as np
import pytest

from pairsieve.corpus import CorpusSpec, generate_corpus
from pairsieve.evaluation import (
    EvalError,
    _direction_report,
    bidirectional_retrieval,
    export_attention,
    random_baseline_map,
    report_csv,
    report_summary,
    retrieval_ranks,
    score_matrix,
)
from pairsieve.model import attend, embed, init_model

from oracles import rank_of


def test_rank_of_basic_and_ties():
    # matched pairs on the diagonal: row i ranks the clips for sentence i,
    # column j ranks the sentences for clip j
    scores = np.array([[0.5, 0.3, 0.5],
                       [0.9, 0.1, 0.5],
                       [0.5, 0.3, 0.5]])
    video, sentence = retrieval_ranks(scores)
    # ties break by candidate index: an equal score before the matched item
    # outranks it (row 2, column 2), an equal score after it does not (row 0,
    # column 0)
    assert video.tolist() == [1, 3, 2]
    assert sentence.tolist() == [2, 3, 3]
    video, sentence = retrieval_ranks(np.array([[0.7]]))
    assert video.tolist() == sentence.tolist() == [1]


def test_ranks_match_per_query_oracle():
    # integer-valued scores from {0, 1, 2} make ties the common case
    rng = np.random.default_rng(20)
    for trial in range(200):
        n = int(rng.integers(1, 31))
        scores = rng.integers(0, 3, size=(n, n)).astype(float)
        video, sentence = retrieval_ranks(scores)
        assert video.tolist() == [rank_of(scores[i, :], i) for i in range(n)], trial
        assert sentence.tolist() == [rank_of(scores[:, j], j) for j in range(n)], trial


def test_ranks_reject_non_finite_scores():
    for bad in (np.nan, np.inf, -np.inf):
        scores = np.eye(3)
        scores[1, 2] = bad
        with pytest.raises(EvalError, match="scores must be finite"):
            retrieval_ranks(scores)


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
        s = embed(params.language, qi.sentence_raw)[0]
        for j, cj in enumerate(records):
            v, _, _ = attend(params.attention, s, embed(params.vision, cj.frames_raw)[0])
            out[i, j] = float(s @ v)
    return out


@pytest.mark.parametrize("kind", ["uniform", "dot", "multiplicative", "additive"])
def test_score_matrix_matches_per_pair_loop(kind):
    # clips of 1 to 10 frames, a single query, and an attention width unlike d_emb
    mixed = (_records(2, seed=0, frames=(1, 1)) + _records(2, seed=1, frames=(10, 10))
             + _records(2, seed=2))
    for d_att in (0, 3) if kind == "additive" else (0,):
        params = init_model(8, 6, kind, "residual", 2, np.random.default_rng(1), d_att=d_att)
        for records in (mixed, _records(n=1)):
            got = score_matrix(params, records)
            want = _per_pair_scores(params, records)
            assert np.allclose(got, want, rtol=0, atol=1e-12), (d_att, len(records))
        records = _records(n=40, seed=7)
        ranks = retrieval_ranks(score_matrix(params, records))
        want = _per_pair_scores(params, records)
        assert ranks[0].tolist() == [rank_of(want[i, :], i) for i in range(40)], d_att
        assert ranks[1].tolist() == [rank_of(want[:, j], j) for j in range(40)], d_att


def test_score_matrix_builds_no_query_frame_grid():
    # the additive scorer must not hold an (n, F, A) grid: beyond the (n, n) output,
    # its traced peak stays below the size of one such grid
    records = _records(n=400, seed=6)
    params = init_model(8, 32, "additive", "residual", 2, np.random.default_rng(5))
    n, d_att = len(records), params.attention.w_score.shape[0]
    f_max = max(r.frames_raw.shape[0] for r in records)
    tracemalloc.start()
    try:
        score_matrix(params, records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - n * n * 8 < n * f_max * d_att * 8, (peak, f_max)


def test_retrieval_report_consistent_with_matrix():
    records = _records(n=8, seed=3)
    params = init_model(8, 6, "dot", "residual", 2, np.random.default_rng(2))
    scores = score_matrix(params, records)
    report = bidirectional_retrieval(params, records)
    video_ranks = np.array([rank_of(scores[i, :], i) for i in range(8)])
    sent_ranks = np.array([rank_of(scores[:, j], j) for j in range(8)])
    assert np.array_equal(report.video_search.ranks, video_ranks)
    assert np.array_equal(report.sentence_search.ranks, sent_ranks)
    assert np.isclose(report.video_search.mean_ap, (1.0 / video_ranks).mean() * 100)
    assert report.n_queries == 8
    r5 = report.sentence_search.recall[5]
    assert np.isclose(r5, (sent_ranks <= 5).mean() * 100)


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
    with pytest.raises(EvalError):
        score_matrix(params, [])
