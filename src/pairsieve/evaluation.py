"""Bidirectional retrieval evaluation.

Every test sentence is scored against every test clip with training's
embedding and attention formulas (model.embed, and model.clip_scores,
their form for one clip against all queries), so a clip's pooled
vector depends on which sentence is querying it. The query side is
embedded once; the clips are then scored in column blocks of
BLOCK_CLIPS clips, and each block is ranked as it arrives, so no n x n
array ever exists. From MIN_CLIPS_FOR_THREADS test clips on, each
block's clips are split into contiguous shares, one per usable core,
and scored on threads; a smaller test set is scored serially.

Video search ranks clips for each sentence (rows), sentence search
ranks sentences for each clip (columns). A block holds its columns'
own diagonal entries, so sentence search ranks them at once, and so
does video search for the rows whose diagonal is already known. The
rows below the block wait, as row pieces of one block's height, for
the block that holds their diagonal. They peak at n^2/4 floats (2n^2
bytes) halfway through; with one block and its masks that is the
memory a test set of n clips needs beyond its corpus. Each query has
exactly one relevant item, so average precision reduces to 1/rank.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import attend, clip_scores, embed

DEFAULT_RECALL_KS = (1, 5, 10)

# bidirectional_retrieval scores and ranks this many clips at a time
BLOCK_CLIPS = 256

# eval refuses more test clips than this before scoring: the deferred row
# pieces of retrieval_ranks peak at 2n^2 bytes, 2 GiB here
MAX_EVAL_CLIPS = 2**15

# A test set of fewer clips than this is scored on the calling thread alone;
# from it on, the threads split each block's clips. On a 2-core box (OpenBLAS
# with 2 threads), the median ms serially vs split over 2 threads was, for
# additive attention, 19.6 vs 34.9 at 100 clips, 117 vs 141 at 300, 323 vs
# 284 at 500 and 4670 vs 2875 at 2000; for dot attention, 4.1 vs 9.5 at 100,
# 49 vs 75 at 500 and 384 vs 405 at 2000 (measured with the whole test set
# as one block).
MIN_CLIPS_FOR_THREADS = 500


class EvalError(ValueError):
    """Bad inputs to a metric or an empty evaluation set."""


def check_eval_size(records):
    """Refuse an empty test set or one of more than MAX_EVAL_CLIPS clips."""
    if not records:
        raise EvalError("no records to evaluate")
    if len(records) > MAX_EVAL_CLIPS:
        raise EvalError(f"test set has {len(records)} clips; eval takes at most "
                        f"{MAX_EVAL_CLIPS}")


def embed_queries(params, records):
    """The query side of score_matrix, (sT, q): embedded sentences on the last axis.

    q is the attention projection of the queries for the multiplicative
    and additive kinds, None for the others.
    """
    s = embed(params, "language", np.stack([r.sentence_raw for r in records]))[0]
    sT = np.ascontiguousarray(s.T)
    w_name = {"multiplicative": "attention.w_mult",
              "additive": "attention.w1"}.get(params.attention_kind)
    return sT, None if w_name is None else params.tensors[w_name].T @ sT


def score_matrix(params, records, queries, lo, hi):
    """Score every sentence against clips lo..hi: out[i, j - lo] = s_i . v_ij.

    v_ij pools all of clip j's frames under sentence i's attention;
    model.clip_scores scores each clip against all queries at once, and
    queries is embed_queries(params, records). From MIN_CLIPS_FOR_THREADS
    records on, the block's clips are split into min(usable cores,
    hi - lo) contiguous shares; the calling thread scores the first and
    one new thread each of the others. A smaller test set forms one
    share, scored on the calling thread. Each share writes only its own
    columns of out and holds its own (A, n) additive buffer, so every
    score is the same bits for any number of shares and any block. Each
    thread runs in a copy of the caller's context, so the caller's numpy
    error state holds there too. An error in a share is raised, the
    first in share order, once every thread has ended.
    """
    sT, q = queries
    kind = params.attention_kind
    n, width = len(records), hi - lo
    out = np.empty((n, width))
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    shares = min(cores, width) if n >= MIN_CLIPS_FOR_THREADS else 1
    errors = [None] * shares

    def score_share(k):
        try:
            buf = np.empty_like(q) if kind == "additive" else None
            for j in range(k * width // shares, (k + 1) * width // shares):
                h = embed(params, "vision", records[lo + j].frames_raw)[0]
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


def retrieval_ranks(blocks):
    """1-based ranks of the matched pairs on the diagonal of a blocked score matrix.

    blocks are the (n, w) column blocks of the n x n matrix in clip
    order, all as wide as the first but the last, which may be narrower.
    Returns (video, sentence): video[i] ranks clip i in row i,
    sentence[j] ranks sentence j in column j. Ties break by candidate
    index: an equal score at a lower index ranks ahead of the matched pair.
    """
    deferred = {}  # row lo -> pieces of that row block from earlier column blocks
    lo = 0
    for block in blocks:
        if not np.isfinite(block).all():
            raise EvalError("scores must be finite")
        n, w = block.shape
        if lo == 0:
            step, diag = w, np.empty(n)
            video, sentence = np.ones(n, dtype=np.int64), np.ones(n, dtype=np.int64)
        hi = lo + w
        own = np.arange(lo, hi)
        d = diag[lo:hi] = block[own, own - lo]
        # a candidate ranks ahead if it scores higher, or the same at a lower index
        ahead = block == d
        ahead &= ~np.tri(n, w, k=-lo, dtype=bool)  # row i < column lo + j
        ahead |= block > d
        sentence[lo:hi] += np.count_nonzero(ahead, axis=0)
        top = block[:hi]  # the rows whose diagonal is known by now
        ahead = top == diag[:hi, None]
        ahead &= np.tri(hi, w, k=-lo - 1, dtype=bool)  # column lo + j < row i
        ahead |= top > diag[:hi, None]
        video[:hi] += np.count_nonzero(ahead, axis=1)
        # every entry of a piece is at a lower column than its row's diagonal
        video[lo:hi] += sum(np.count_nonzero(piece >= d[:, None], axis=1)
                            for piece in deferred.pop(lo, ()))
        for start in range(hi, n, step):
            deferred.setdefault(start, []).append(block[start:start + step].copy())
        lo = hi
        del block, top, ahead  # free this block before the next one is scored
    return video, sentence


def _direction_report(ranks):
    mean_ap = float((1.0 / ranks).mean() * 100.0)
    recall = {k: float((ranks <= k).mean() * 100.0) for k in DEFAULT_RECALL_KS}
    return DirectionReport(mean_ap=mean_ap, recall=recall)


def bidirectional_retrieval(params, records):
    """Evaluate both directions over a test set of matched pairs.

    The test set is size-checked first (check_eval_size); its clips are
    then scored and ranked BLOCK_CLIPS at a time.
    """
    check_eval_size(records)
    queries = embed_queries(params, records)
    n = len(records)
    blocks = (score_matrix(params, records, queries, lo, min(lo + BLOCK_CLIPS, n))
              for lo in range(0, n, BLOCK_CLIPS))
    video_ranks, sentence_ranks = retrieval_ranks(blocks)
    return RetrievalReport(
        n_queries=n,
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
