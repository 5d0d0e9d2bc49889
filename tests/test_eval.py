"""Ranking metrics, the query-conditioned score matrix, and reports."""

import numpy as np
import pytest

from pairsieve.corpus import CorpusSpec, generate_corpus
from pairsieve.evaluation import (
    EvalError,
    _direction_report,
    bidirectional_retrieval,
    export_attention,
    random_baseline_map,
    random_baseline_recall,
    rank_of,
    report_csv,
    report_summary,
    score_matrix,
)
from pairsieve.model import attend, embed, init_model


def test_rank_of_basic_and_ties():
    assert rank_of([0.9, 0.5, 0.1], 0) == 1
    assert rank_of([0.9, 0.5, 0.1], 2) == 3
    # ties break by candidate index: equal score before the relevant
    # item outranks it, equal score after does not
    assert rank_of([0.5, 0.3, 0.5], 2) == 2
    assert rank_of([0.5, 0.3, 0.5], 0) == 1


def test_rank_of_validation():
    with pytest.raises(EvalError):
        rank_of([], 0)
    with pytest.raises(EvalError):
        rank_of([0.1, 0.2], 5)
    with pytest.raises(EvalError):
        rank_of([0.1, np.nan], 0)


def test_ap_and_recall_from_rank():
    # AP with one relevant item is 1/rank; Rec@k counts ranks <= k
    scores = [0.1, 0.9, 0.5, 0.3]
    ranks = [rank_of(scores, 1), rank_of(scores, 2)]
    assert ranks == [1, 2]
    report = _direction_report(ranks, 4, (1, 2, 10))
    assert report.mean_ap == 75.0
    assert report.recall == {1: 50.0, 2: 100.0, 10: 100.0}


def _records(n=6, seed=0):
    _, test = generate_corpus(CorpusSpec(n_train=0, n_test=n, d=8, k=12, seed=seed))
    return test


@pytest.mark.parametrize("kind", ["uniform", "dot", "multiplicative", "additive"])
def test_score_matrix_matches_per_pair_loop(kind):
    records = _records()
    params = init_model(8, 6, kind, "residual", 2, np.random.default_rng(1))
    got = score_matrix(params, records)
    for i, qi in enumerate(records):
        s = embed(params.language, qi.sentence_raw)[0]
        for j, cj in enumerate(records):
            h = embed(params.vision, cj.frames_raw)[0]
            v, _, _ = attend(params.attention, s, h)
            assert np.isclose(got[i, j], float(s @ v), atol=1e-12), (i, j)


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
    assert random_baseline_recall(100, 5) == 5.0
    assert random_baseline_recall(3, 10) == 100.0
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
