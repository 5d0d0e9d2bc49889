"""Ranking metrics, the query-conditioned score matrix in blocks, its forked shares,
and reports."""

import os
import signal
import tracemalloc
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

from oracles import additive_clip_scores, full_score_matrix, rank_of, reference_attention_dump


def test_rank_of_basic_and_ties():
    # matched pairs on the diagonal: row i ranks the clips for sentence i,
    # column j ranks the sentences for clip j
    scores = np.array([[0.5, 0.3, 0.5],
                       [0.9, 0.1, 0.5],
                       [0.5, 0.3, 0.5]])
    video, sentence = retrieval_ranks([(0, scores)], np.diag(scores))
    # ties break by candidate index: an equal score before the matched item
    # outranks it (row 2, column 2), an equal score after it does not (row 0,
    # column 0)
    assert video.tolist() == [1, 3, 2]
    assert sentence.tolist() == [2, 3, 3]
    video, sentence = retrieval_ranks([(0, np.array([[0.7]]))], [0.7])
    assert video.tolist() == sentence.tolist() == [1]


def test_ranks_match_per_query_oracle():
    # integer-valued scores from {0, 1, 2} make ties the common case
    rng = np.random.default_rng(20)
    for trial in range(200):
        n = int(rng.integers(1, 31))
        scores = rng.integers(0, 3, size=(n, n)).astype(float)
        video, sentence = retrieval_ranks([(0, scores)], np.diag(scores))
        assert video.tolist() == [rank_of(scores[i, :], i) for i in range(n)], trial
        assert sentence.tolist() == [rank_of(scores[:, j], j) for j in range(n)], trial


def _blocks(scores, width):
    return [(lo, scores[:, lo:lo + width]) for lo in range(0, scores.shape[1], width)]


def _ranks_against(scores, near):
    """rank_of over each row and each column with its own entry replaced by near."""
    video, sentence = [], []
    for i in range(scores.shape[0]):
        row, column = scores[i, :].copy(), scores[:, i].copy()
        row[i] = column[i] = near[i]
        video.append(rank_of(row, i))
        sentence.append(rank_of(column, i))
    return video, sentence


def test_blocked_ranks_match_per_query_oracle_for_every_width():
    # ties that cross block edges: a constant matrix ties every pair, so each
    # candidate at a lower index ranks ahead; a banded one ties each row with the
    # columns next to its diagonal, on either side of any edge; integer scores from
    # {0, 1, 2} tie everywhere, and nudged by +-TIE_BAND/4 they also hold near-ties
    # on either side of the diagonal. Every candidate ranks against near, the exact
    # diagonal or off it by up to TIE_BAND/2, as rank_of does with the own entry
    # replaced by near, for every cut and as one block.
    rng = np.random.default_rng(21)
    n = 11
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
    matrices = [np.zeros((n, n)), band.astype(float), (band * 2 - np.eye(n)).T]
    matrices += [rng.integers(0, 3, size=(m, m)).astype(float) for m in (1, 2, 5, 9, 16, 23)]
    matrices += [m + rng.choice([-TIE_BAND / 4, 0.0, TIE_BAND / 4], size=m.shape)
                 for m in matrices[-3:]]
    for scores in matrices:
        m = scores.shape[0]
        for shift in (0.0, TIE_BAND / 2, -TIE_BAND / 2):
            near = np.diag(scores) + shift
            want = _ranks_against(scores, near)
            video, sentence = retrieval_ranks([(0, scores)], near)
            assert (video.tolist(), sentence.tolist()) == want, (m, shift)
            for width in range(1, m + 1):
                video, sentence = retrieval_ranks(_blocks(scores, width), near)
                assert (video.tolist(), sentence.tolist()) == want, (m, width, shift)
    # every entry of a constant matrix ties with near, and ranks by index
    video, sentence = retrieval_ranks(_blocks(np.zeros((n, n)), 4), np.zeros(n))
    assert video.tolist() == sentence.tolist() == list(range(1, n + 1))
    # an entry strictly between the diagonal and near ranks by near: entry (0, 2)
    # lies above the diagonal 0 but below near[0] = near[2], and entry (3, 1) below
    # the diagonal but above near[3] = near[1]
    scores = np.full((4, 4), -1.0)
    np.fill_diagonal(scores, 0.0)
    scores[0, 2], scores[3, 1] = TIE_BAND / 4, -TIE_BAND / 4
    near = np.array([1, -1, 1, -1]) * TIE_BAND / 2
    for width in range(1, 5):
        video, sentence = retrieval_ranks(_blocks(scores, width), near)
        assert (video.tolist(), sentence.tolist()) == ([1, 1, 1, 2], [1, 2, 1, 1]), width
    assert _ranks_against(scores, near) == ([1, 1, 1, 2], [1, 2, 1, 1])


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
            retrieval_ranks([(0, scores)], np.diag(scores))
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


def _bounds(params, records):
    """(ub, lb, tight_ub, tight_lb), each (n, n): every pair's model.clip_bounds and
    model.vertex_bounds, entry (i, j) for sentence i and clip j, one clip at a time."""
    n = len(records)
    sT = evaluation.embed_queries(params, records)[0]
    out = np.empty((4, n, n))
    for j, record in enumerate(records):
        h = embed(params, "vision", record.frames_raw)[0]
        p = h @ sT
        _, r, ub, lb = model.clip_bounds(params, h, p)
        out[:, :, j] = ub, lb, *model.vertex_bounds(p, np.full(n, r))
    return out


def _check_pruned(params, records, kind, near):
    """score_matrix's entries under near: an additive entry whose clip_bounds, or
    else its vertex_bounds, lie wholly below or above both bands near[i] +- 2
    TIE_BAND and near[j] +- 2 TIE_BAND holds that ub, which lies on the exact
    score's side of both retrieval bands near +- TIE_BAND; every other entry is
    the same bits as with every entry exact (near NaN). Returns (matrix, mask of
    the entries scored exactly)."""
    n = len(records)
    got = full_score_matrix(params, records, near)
    exact = full_score_matrix(params, records, np.full(n, np.nan))
    scored = np.ones((n, n), dtype=bool)
    if kind == "additive":
        low, high = near - 2 * TIE_BAND, near + 2 * TIE_BAND
        ub, lb, tight_ub, tight_lb = _bounds(params, records)
        first = (((ub < low[:, None]) | (lb > high[:, None]))
                 & ((ub < low[None]) | (lb > high[None])))
        second = (((tight_ub < low[:, None]) | (tight_lb > high[:, None]))
                  & ((tight_ub < low[None]) | (tight_lb > high[None]))) & ~first
        assert np.array_equal(got[first], ub[first])
        assert np.array_equal(got[second], tight_ub[second])
        scored = ~first & ~second
        for diag in (near[:, None], near[None]):  # row i's and column j's own-pair score
            below = (got < diag - TIE_BAND) & (exact < diag - TIE_BAND)
            above = (got > diag + TIE_BAND) & (exact > diag + TIE_BAND)
            assert (below | above)[~scored].all()
    assert np.array_equal(got[scored], exact[scored])
    return got, scored


@pytest.mark.parametrize("kind", ["uniform", "dot", "multiplicative", "additive"])
def test_score_matrix_matches_per_pair_loop(kind, monkeypatch):
    # clips of 1 to 10 frames, a single query, and an attention width unlike d_emb:
    # every entry scored exactly matches the per-pair loop to 1e-12, and an
    # additive entry is scored exactly unless its bounds place it outside both
    # bands of its diagonals; the matrix is the same bits for any block width
    mixed = (_records(2, seed=0, frames=(1, 1)) + _records(2, seed=1, frames=(10, 10))
             + _records(2, seed=2))
    for d_att in (0, 3) if kind == "additive" else (0,):
        params = init_model(8, 6, kind, "residual", 2, np.random.default_rng(1), d_att=d_att)
        for records in (mixed, _records(n=1)):
            n = len(records)
            want = _per_pair_scores(params, records)
            got = full_score_matrix(params, records, np.full(n, np.nan))
            assert np.allclose(got, want, rtol=0, atol=1e-12), (d_att, n)
            near = own_pair_scores(params, records, evaluation.embed_queries(params, records))
            assert np.allclose(near, np.diag(want), rtol=0, atol=1e-12), (d_att, n)
            assert np.diag(_check_pruned(params, records, kind, near)[1]).all()
        records = _records(n=40, seed=7)
        near = own_pair_scores(params, records, evaluation.embed_queries(params, records))
        scores, scored = _check_pruned(params, records, kind, near)
        assert np.diag(scored).all()
        ranks = retrieval_ranks([(0, scores)], near)
        want = _per_pair_scores(params, records)
        assert ranks[0].tolist() == [rank_of(want[i, :], i) for i in range(40)], d_att
        assert ranks[1].tolist() == [rank_of(want[:, j], j) for j in range(40)], d_att
        with monkeypatch.context() as patch:  # blocks of 7: five of 7 clips, one of 5
            patch.setattr(evaluation, "BLOCK_CLIPS", 7)
            assert np.array_equal(full_score_matrix(params, records, near), scores), d_att


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
    # near may lie up to TIE_BAND off the exact diagonal, and a bound off its exact
    # value by rounding, so the bands keep a margin of 2 TIE_BAND around near: with
    # each near_i placed 1.5 TIE_BAND above the tightest upper bound of one entry of
    # row i, that entry must still be scored exactly
    records = _records(n=12, seed=14, frames=(3, 10))
    params = _tied(init_model(8, 6, "additive", "residual", 2, np.random.default_rng(4)))
    tight_ub = _bounds(params, records)[2]
    exact = full_score_matrix(params, records, np.full(12, np.nan))
    for shift in range(1, 12):
        cols = (np.arange(12) + shift) % 12
        near = tight_ub[np.arange(12), cols] + 1.5 * TIE_BAND
        got = _check_pruned(params, records, "additive", near)[0]
        assert np.array_equal(got[np.arange(12), cols], exact[np.arange(12), cols]), shift


def test_score_matrix_places_entries_above_both_diagonals_or_between_them():
    # planted diagonals: entry (i, j) whose lower bound clears both diagonals' bands
    # ranks above both, one whose bounds lie below row i's band and above column
    # j's ranks between them; each keeps clip_bounds' ub. One that only
    # vertex_bounds places keeps its tighter ub.
    records = _records(n=12, seed=17, frames=(3, 10))
    params = _tied(init_model(8, 6, "additive", "residual", 2, np.random.default_rng(4)))
    ub, lb, tight_ub, _ = _bounds(params, records)
    exact = full_score_matrix(params, records, np.full(12, np.nan))
    i, j = 2, 7
    near = np.full(12, np.nan)
    near[[i, j]] = lb[i, j] - 3 * TIE_BAND
    got = _check_pruned(params, records, "additive", near)[0]
    assert got[i, j] == ub[i, j] != exact[i, j]
    assert min(got[i, j], exact[i, j]) > near[i] + TIE_BAND
    near[i], near[j] = ub[i, j] + 3 * TIE_BAND, lb[i, j] - 3 * TIE_BAND
    got = _check_pruned(params, records, "additive", near)[0]
    assert got[i, j] == ub[i, j] != exact[i, j]
    assert near[j] + TIE_BAND < exact[i, j] <= got[i, j] < near[i] - TIE_BAND
    gap = ub - tight_ub
    gap[np.eye(12, dtype=bool)] = 0
    i, j = np.unravel_index(np.argmax(gap), gap.shape)
    assert gap[i, j] > 10 * TIE_BAND
    near = np.full(12, np.nan)
    near[[i, j]] = tight_ub[i, j] + 3 * TIE_BAND
    got = _check_pruned(params, records, "additive", near)[0]
    assert got[i, j] == tight_ub[i, j] != exact[i, j]


def test_grouped_pairs_of_several_clips_keep_their_exact_bits():
    # near is NaN for sentence 0 and +inf for the others, so only row 0 and column 0
    # stay open: each frame count's group holds one pair from each of several clips,
    # and the one 9-frame clip is a group of one lone pair. Every open entry is the
    # same bits as its clip scored against all queries at once, and so is every entry
    # with none placed. Gathering the queries as q[:, rows], which comes out
    # Fortran-ordered, rounds them differently.
    records = _records(n=16, seed=18, frames=(4, 6)) + _records(n=1, seed=19, frames=(9, 9))
    n = len(records)
    params = init_model(8, 32, "additive", "residual", 2, np.random.default_rng(6))
    sT, q = evaluation.embed_queries(params, records)
    want = np.stack([additive_clip_scores(params, embed(params, "vision", r.frames_raw)[0], sT, q)
                     for r in records], axis=1)
    near = np.full(n, np.inf)
    near[0] = np.nan
    got = full_score_matrix(params, records, near)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[:, 0], want[:, 0])
    assert (got[1:, 1:] != want[1:, 1:]).all()
    assert np.array_equal(full_score_matrix(params, records, np.full(n, np.nan)), want)


def test_eval_scores_fewer_additive_entries_than_n_squared(monkeypatch):
    # under a trained-like model most pairs' bounds place them outside both bands:
    # of 3600 pairs, clip_bounds leaves 375 open (a one-sided test on its ub, 448),
    # and vertex_bounds 195. Each group of open pairs is pooled by one softmax over
    # its frames (axis 0), a lone pair beside a copy of itself.
    widths = []
    softmax = model.softmax

    def counting_softmax(e, axis=-1):
        if axis == 0:
            widths.append(e.shape[1])
        return softmax(e, axis)

    monkeypatch.setattr(model, "softmax", counting_softmax)
    records = _records(n=60, seed=15)
    params = _tied(init_model(8, 32, "additive", "residual", 2, np.random.default_rng(1)))
    bidirectional_retrieval(params, records)
    pooled, twos = sum(widths), widths.count(2)  # a lone pair's copy widens it to 2
    near = own_pair_scores(params, records, evaluation.embed_queries(params, records))
    scored = _check_pruned(params, records, "additive", near)[1]
    assert scored.sum() <= pooled <= scored.sum() + twos, (pooled, scored.sum())
    assert 60 <= scored.sum() < 300, scored.sum()


def _cores(monkeypatch, count):
    """Make eval see count usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_score_matrix_builds_no_query_frame_grid(monkeypatch):
    # the additive scorer must not hold an (n, F, A) grid: with every pair open (near
    # NaN), the traced peak of scoring one block of 64 clips stays below the size of
    # one such grid. Each frame count's group of open pairs is scored before it
    # passes n pairs, so that peak also stays within a few of the block's own output,
    # where holding the block's open pairs until its end would take their frame
    # scores, about 7 times the block. Nor does eval hold an n x n array: its traced
    # peak, queries, block and masks included, stays below n x n floats. On one core,
    # so that every block is scored where tracemalloc sees it.
    _cores(monkeypatch, 1)
    monkeypatch.setattr(evaluation, "BLOCK_CLIPS", 64)
    records = _records(n=400, seed=6)
    params = init_model(8, 32, "additive", "residual", 2, np.random.default_rng(5))
    n, d_att = len(records), params.tensors["attention.w_score"].shape[0]
    f_max = max(r.frames_raw.shape[0] for r in records)
    queries = evaluation.embed_queries(params, records)
    tracemalloc.start()
    try:
        evaluation.score_matrix(params, records, queries, np.full(n, np.nan), 0, 64)
        block_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        bidirectional_retrieval(params, records)
        eval_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block_peak < n * f_max * d_att * 8, (block_peak, f_max)
    assert block_peak < 6 * n * 64 * 8, block_peak
    assert eval_peak < n * n * 8, eval_peak


def test_eval_memory_grows_linearly_in_n(monkeypatch):
    # beyond its inputs eval holds one block and its masks, so its traced peak on one
    # core, with blocks of 32 clips, about doubles from 800 to 1600 clips, also where
    # every score ties with every own-pair score (dead language units score 0)
    _cores(monkeypatch, 1)
    monkeypatch.setattr(evaluation, "BLOCK_CLIPS", 32)
    records = {n: _records(n=n, seed=6) for n in (800, 1600)}
    live = init_model(8, 32, "dot", "residual", 2, np.random.default_rng(5))
    dead = _dead(init_model(8, 32, "dot", "residual", 2, np.random.default_rng(5)), "language")
    for params in (live, dead):
        peaks = []
        for n in (800, 1600):
            tracemalloc.start()
            try:
                bidirectional_retrieval(params, records[n])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2.3 * peaks[0], (params is dead, peaks)


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


@pytest.mark.parametrize("kind", ATTENTION_KINDS)
def test_ranks_and_report_are_the_same_for_any_core_count(kind, monkeypatch):
    # 30 clips in blocks of 7 (four of 7 and one of 2) or of 20 (two blocks, fewer
    # than 3 cores): on 1, 2 or 3 cores eval's ranks, report and report.csv are
    # the serial run's, which are retrieval_ranks over the whole matrix
    records = _records(n=30, seed=23, frames=(1, 10))
    params = _tied(init_model(8, 6, kind, "residual", 2, np.random.default_rng(8), d_att=3))
    ranks = []
    direction_report = evaluation._direction_report
    monkeypatch.setattr(evaluation, "_direction_report",
                        lambda r: ranks.append(r.tolist()) or direction_report(r))
    for width in (7, 20):
        monkeypatch.setattr(evaluation, "BLOCK_CLIPS", width)
        near = own_pair_scores(params, records, evaluation.embed_queries(params, records))
        want = [r.tolist() for r in retrieval_ranks(_blocks(full_score_matrix(params, records),
                                                            width), near)]
        _cores(monkeypatch, 1)
        serial = bidirectional_retrieval(params, records)
        assert ranks == want, width
        for cores in (2, 3):
            ranks.clear()
            _cores(monkeypatch, cores)
            report = bidirectional_retrieval(params, records)
            _no_children_left()
            assert ranks == want, (width, cores)
            assert report == serial and report_csv(report) == report_csv(serial)
        ranks.clear()


def test_counts_larger_than_a_pipe_buffer_come_back_whole(monkeypatch):
    # each share sends 512 KB, eight 64 KB pipe buffers, and the sums come back
    # exact and in any share's order
    _cores(monkeypatch, 3)
    total = evaluation._sum_over_shares(lambda lo: np.full((2, 1 << 15), lo), range(0, 50, 5))
    assert np.array_equal(total, np.full((2, 1 << 15), 225))
    _no_children_left()


def _planted(monkeypatch, plants):
    """Patch evaluation.score_matrix to write, into the block of clips lo.. for each
    lo -> kind in plants, a NaN ("nan") or a diagonal entry 1e-3 off its near
    ("off") at its second clip."""
    score_matrix = evaluation.score_matrix

    def planted(*args):
        out, lo = score_matrix(*args), args[4]
        if lo in plants:
            out[lo + 1, 1] = np.nan if plants[lo] == "nan" else out[lo + 1, 1] + 1e-3
        return out

    monkeypatch.setattr(evaluation, "score_matrix", planted)


@pytest.mark.parametrize("plants, message", [
    ({4: "off", 8: "nan"}, "clip 5: own-pair score differs from its pre-pass value by 0.001, "
                           "beyond 1e-06"),
    ({4: "nan", 8: "off"}, "scores must be finite"),
    ({8: "off", 12: "nan"}, "clip 9: own-pair score differs from its pre-pass value by 0.001, "
                            "beyond 1e-06"),
    ({12: "off", 16: "off"}, "clip 13: own-pair score differs from its pre-pass value by "
                             "0.001, beyond 1e-06"),
])
def test_forked_shares_raise_the_error_of_the_lowest_failing_block(plants, message, tmp_path,
                                                                    monkeypatch, capsys):
    # blocks of 4 of 20 clips: on 2 cores the calling process ranks the blocks at
    # 0, 8 and 16 and a child those at 4 and 12, so the planted blocks lie in either
    # process or both. On 1, 2 or 3 cores the error is the serial run's, that of the
    # lowest planted block, and `eval` ends in that one line with exit code 1.
    records = _records(n=20, seed=24)
    params = _tied(init_model(8, 6, "dot", "residual", 2, np.random.default_rng(9)))
    checkpoint, corpus = tmp_path / "checkpoint.json", tmp_path / "test.corpus"
    save_checkpoint(params, checkpoint)
    save_corpus(records, corpus)
    monkeypatch.setattr(evaluation, "BLOCK_CLIPS", 4)
    _planted(monkeypatch, plants)
    for cores in (1, 2, 3):
        _cores(monkeypatch, cores)
        with pytest.raises(EvalError) as raised:
            bidirectional_retrieval(params, records)
        assert str(raised.value) == message, cores
        _no_children_left()
        assert main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus)]) == 1
        assert capsys.readouterr().err == f"pairsieve: error: {message}\n", cores
        _no_children_left()


def test_a_share_that_ends_without_its_ranks_is_one_error_line(tmp_path, monkeypatch, capsys):
    # a child that exits before it sends its ranks ends eval in one line giving its
    # exit status, without a hang or a process left behind
    records = _records(n=12, seed=25)
    params = init_model(8, 6, "dot", "residual", 2, np.random.default_rng(10))
    checkpoint, corpus = tmp_path / "checkpoint.json", tmp_path / "test.corpus"
    save_checkpoint(params, checkpoint)
    save_corpus(records, corpus)
    monkeypatch.setattr(evaluation, "BLOCK_CLIPS", 4)
    parent, score_matrix = os.getpid(), evaluation.score_matrix
    monkeypatch.setattr(evaluation, "score_matrix",
                        lambda *args: score_matrix(*args) if os.getpid() == parent else os._exit(3))
    _cores(monkeypatch, 2)
    message = "a forked share of eval's blocks exited with status 3 before sending its ranks"
    with pytest.raises(EvalError, match=f"^{message}$"):
        bidirectional_retrieval(params, records)
    _no_children_left()
    assert main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus)]) == 1
    assert capsys.readouterr().err == f"pairsieve: error: {message}\n"
    _no_children_left()


class _Interrupt(BaseException):
    """A failure of the calling process that no share catches, as a Ctrl-C would be."""


def test_a_failing_parent_does_not_wait_on_a_child_blocked_on_a_full_pipe(monkeypatch):
    # the child's 2 MB of counts fill its pipe while the calling process fails in its
    # own share; it closes the pipe's read end before it reaps the child, so the
    # child's write fails and it exits. An alarm turns a hang into a failure.
    parent = os.getpid()

    def count(lo):
        if os.getpid() == parent:
            raise _Interrupt
        return np.ones((2, 1 << 17))

    def hang(signum, frame):
        raise AssertionError("the calling process hung on its child")

    _cores(monkeypatch, 2)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        with pytest.raises(_Interrupt):
            evaluation._sum_over_shares(count, range(2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _no_children_left()


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
