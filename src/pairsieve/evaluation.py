"""Bidirectional retrieval evaluation.

Every test sentence is scored against every test clip with the
embedding and attention pooling that training runs (model.embed and
model.attend, one clip against all queries at a time), so a clip's
pooled vector depends on which sentence is querying it. Video search
ranks clips for each sentence (rows of the score matrix); sentence
search ranks sentences for each clip (columns). Each query has exactly
one relevant item, so average precision reduces to 1/rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import attend, embed

DEFAULT_RECALL_KS = (1, 5, 10)


class EvalError(ValueError):
    """Bad inputs to a metric or an empty evaluation set."""


def rank_of(scores, rel_idx):
    """1-based rank of the relevant item; ties break by candidate index."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.shape[0] < 1:
        raise EvalError("scores must be a non-empty vector")
    if not 0 <= rel_idx < scores.shape[0]:
        raise EvalError(f"relevant index {rel_idx} out of range")
    if not np.all(np.isfinite(scores)):
        raise EvalError("scores must be finite")
    s = scores[rel_idx]
    greater = int((scores > s).sum())
    ties_before = int((scores[:rel_idx] == s).sum())
    return 1 + greater + ties_before


def score_matrix(params, records):
    """Score every sentence against every clip: out[i, j] = s_i . v_ij.

    v_ij pools clip j's frames (all of them) under sentence i's
    attention, so each clip is re-pooled per query.
    """
    if not records:
        raise EvalError("no records to evaluate")
    s = embed(params.language, np.stack([r.sentence_raw for r in records]))[0]
    out = np.empty((len(records), len(records)))
    for j, rec in enumerate(records):
        v, _, _ = attend(params.attention, s, embed(params.vision, rec.frames_raw)[0])
        out[:, j] = (s * v).sum(axis=1)
    return out


@dataclass
class DirectionReport:
    """Metrics for one search direction, in percent."""

    mean_ap: float
    recall: dict
    ranks: np.ndarray


@dataclass
class RetrievalReport:
    n_queries: int
    video_search: DirectionReport
    sentence_search: DirectionReport


def _direction_report(ranks, n_candidates, ks):
    ranks = np.asarray(ranks)
    mean_ap = float((1.0 / ranks).mean() * 100.0)
    recall = {
        int(k): float((ranks <= min(k, n_candidates)).mean() * 100.0) for k in ks
    }
    return DirectionReport(mean_ap=mean_ap, recall=recall, ranks=ranks)


def bidirectional_retrieval(params, records, ks=DEFAULT_RECALL_KS):
    """Evaluate both directions over a test set of matched pairs."""
    scores = score_matrix(params, records)
    n = scores.shape[0]
    video_ranks = [rank_of(scores[i, :], i) for i in range(n)]
    sentence_ranks = [rank_of(scores[:, j], j) for j in range(n)]
    return RetrievalReport(
        n_queries=n,
        video_search=_direction_report(video_ranks, n, ks),
        sentence_search=_direction_report(sentence_ranks, n, ks),
    )


def random_baseline_map(n):
    """Expected mAP (percent) of uniform random ranking over n items."""
    if n < 1:
        raise EvalError("n must be >= 1")
    return float(np.mean(1.0 / np.arange(1, n + 1)) * 100.0)


def random_baseline_recall(n, k):
    """Expected Rec@k (percent) of uniform random ranking over n items."""
    if n < 1 or k < 1:
        raise EvalError("n and k must be >= 1")
    return 100.0 * min(k, n) / n


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
        s = embed(params.language, rec.sentence_raw)[0]
        _, alpha, _ = attend(params.attention, s, embed(params.vision, rec.frames_raw)[0])
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
