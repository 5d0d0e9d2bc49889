"""Bidirectional retrieval evaluation.

Every test sentence is scored against every test clip with training's
embedding and attention formulas (model.embed, and model.clip_scores,
their form for one clip against all queries), so a clip's pooled
vector depends on which sentence is querying it. A test set of
MIN_CLIPS_FOR_THREADS clips or more is split into contiguous shares,
one per usable core, and scored on threads that each fill their own
columns of the score matrix; a smaller one is scored serially. Video
search ranks clips for each sentence (rows of the score matrix); sentence
search ranks sentences for each clip (columns); both are ranked for all
queries at once. Each query has exactly one relevant item, so average
precision reduces to 1/rank.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import attend, clip_scores, embed

DEFAULT_RECALL_KS = (1, 5, 10)

# score_matrix scores fewer clips than this on the calling thread alone. On a
# 2-core box (OpenBLAS with 2 threads), the median ms serially vs split over
# 2 threads was, for additive attention, 19.6 vs 34.9 at 100 clips, 117 vs
# 141 at 300, 323 vs 284 at 500 and 4670 vs 2875 at 2000; for dot attention,
# 4.1 vs 9.5 at 100, 49 vs 75 at 500 and 384 vs 405 at 2000.
MIN_CLIPS_FOR_THREADS = 500


class EvalError(ValueError):
    """Bad inputs to a metric or an empty evaluation set."""


def score_matrix(params, records):
    """Score every sentence against every clip: out[i, j] = s_i . v_ij.

    v_ij pools all of clip j's frames under sentence i's attention;
    model.clip_scores scores each clip against all queries at once. From
    MIN_CLIPS_FOR_THREADS clips on, the clips are split into
    min(usable cores, n) contiguous shares; the calling thread scores
    the first and one new thread each of the others. Fewer clips form
    one share, scored on the calling thread. Each share writes only its
    own columns of out and holds its own (A, n) additive buffer, so out
    is the same bits for any number of shares. Each thread runs in a copy of the caller's context, so
    the caller's numpy error state holds there too. An error in a share
    is raised, the first in share order, once every thread has ended.
    """
    if not records:
        raise EvalError("no records to evaluate")
    kind = params.attention_kind
    s = embed(params, "language", np.stack([r.sentence_raw for r in records]))[0]
    sT = np.ascontiguousarray(s.T)
    w_name = {"multiplicative": "attention.w_mult", "additive": "attention.w1"}.get(kind)
    q = None if w_name is None else params.tensors[w_name].T @ sT
    n = len(records)
    out = np.empty((n, n))
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    shares = min(cores, n) if n >= MIN_CLIPS_FOR_THREADS else 1
    errors = [None] * shares

    def score_share(k):
        try:
            buf = np.empty_like(q) if kind == "additive" else None
            for j in range(k * n // shares, (k + 1) * n // shares):
                h = embed(params, "vision", records[j].frames_raw)[0]
                out[:, j] = clip_scores(params, h, sT, q, buf)
        except BaseException as exc:  # re-raised in the caller after every join
            errors[k] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(score_share, k))
               for k in range(1, shares)]
    for thread in threads:
        thread.start()
    score_share(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return out


@dataclass
class DirectionReport:
    """Metrics for one search direction, in percent."""

    mean_ap: float
    recall: dict


@dataclass
class RetrievalReport:
    n_queries: int
    video_search: DirectionReport
    sentence_search: DirectionReport


def retrieval_ranks(scores):
    """1-based ranks of the matched pairs on the diagonal of a score matrix.

    Returns (video, sentence): video[i] ranks clip i in row i, sentence[j]
    ranks sentence j in column j. Ties break by candidate index: an equal
    score at a lower index ranks ahead of the matched pair.
    """
    if not np.isfinite(scores).all():
        raise EvalError("scores must be finite")
    n = scores.shape[0]
    diag = np.diag(scores)
    before = np.tri(n, k=-1, dtype=bool)  # before[i, j]: j < i
    # a candidate ranks ahead if it scores higher, or the same at a lower index;
    # the masks take three n x n booleans at most, however many scores tie
    ahead = scores == diag[:, None]
    ahead &= before
    ahead |= scores > diag[:, None]
    video = 1 + np.count_nonzero(ahead, axis=1)
    np.equal(scores, diag, out=ahead)
    ahead &= before.T
    ahead |= scores > diag
    return video, 1 + np.count_nonzero(ahead, axis=0)


def _direction_report(ranks):
    mean_ap = float((1.0 / ranks).mean() * 100.0)
    recall = {k: float((ranks <= k).mean() * 100.0) for k in DEFAULT_RECALL_KS}
    return DirectionReport(mean_ap=mean_ap, recall=recall)


def bidirectional_retrieval(params, records):
    """Evaluate both directions over a test set of matched pairs."""
    video_ranks, sentence_ranks = retrieval_ranks(score_matrix(params, records))
    return RetrievalReport(
        n_queries=video_ranks.shape[0],
        video_search=_direction_report(video_ranks),
        sentence_search=_direction_report(sentence_ranks),
    )


def random_baseline_map(n):
    """Expected mAP (percent) of uniform random ranking over n items."""
    if n < 1:
        raise EvalError("n must be >= 1")
    return float(np.mean(1.0 / np.arange(1, n + 1)) * 100.0)


def report_csv(report):
    """metric,direction,value rows; values in percent, repr floats."""
    lines = ["metric,direction,value"]
    for name, direction in (
        ("video_search", report.video_search),
        ("sentence_search", report.sentence_search),
    ):
        lines.append(f"map,{name},{repr(direction.mean_ap)}")
        for k in sorted(direction.recall):
            lines.append(f"rec_at_{k},{name},{repr(direction.recall[k])}")
    return "\n".join(lines) + "\n"


def report_summary(report):
    """One-line dict of headline numbers, for JSON output and logs."""
    return {
        "n_queries": report.n_queries,
        "map_video_search": report.video_search.mean_ap,
        "map_sentence_search": report.sentence_search.mean_ap,
        "recall_video_search": {str(k): v for k, v in sorted(report.video_search.recall.items())},
        "recall_sentence_search": {
            str(k): v for k, v in sorted(report.sentence_search.recall.items())
        },
    }


def export_attention(params, records):
    """Per-frame attention of each record under its own sentence.

    Yields dict rows: clip id, frame index, grounded flag, weight, and
    weight relative to the clip's strongest frame.
    """
    if not records:
        raise EvalError("no records to dump")
    rows = []
    for rec in records:
        s = embed(params, "language", rec.sentence_raw)[0]
        _, alpha, _ = attend(params, s, embed(params, "vision", rec.frames_raw)[0])
        if not np.isfinite(alpha).all():
            raise EvalError(f"clip {rec.id}: attention weights must be finite")
        top = alpha.max()
        for f in range(alpha.shape[0]):
            rows.append({
                "clip_id": rec.id,
                "frame": f,
                "grounded": int(rec.grounded[f]),
                "alpha": float(alpha[f]),
                "alpha_rel": float(alpha[f] / top) if top > 0 else 0.0,
            })
    return rows
