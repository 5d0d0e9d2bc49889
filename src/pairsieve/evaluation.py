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
ranks sentences for each clip (columns). Before any block is scored,
own_pair_scores computes near[i], clip i's score under sentence i, in
training's batched embed and attend over clips of one length, the pass
export_attention takes its weights from; near differs from the block's
exact diagonal entry by rounding only. A block holds its columns' own
diagonal entries, so sentence search ranks them at once, and so does
video search for the rows whose diagonal is already known. A row below
the block counts at once the entries above near + TIE_BAND and drops
those below near - TIE_BAND; only the entries inside the band wait for
the block that holds the row's diagonal, which first checks that the
diagonal lies inside the band. Beyond its corpus, a test set of n clips
then needs one block and its masks, plus the band: a few near-ties, up
to n^2/4 floats only where every score ties with its row's own. Each
query has exactly one relevant item, so average precision reduces to
1/rank. A score that model.clip_scores bounds below min(near[i],
near[j]) - 2 TIE_BAND ranks as its exact score would, behind both
diagonals and outside both bands.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np

from .corpus import BLOCK_CLIPS, length_chunks
from .model import attend, clip_scores, embed, query_projection

DEFAULT_RECALL_KS = (1, 5, 10)

# eval refuses more test clips than this before scoring: where every score
# ties with its row's own, the band retrieval_ranks defers reaches 2n^2
# bytes, 2 GiB here
MAX_EVAL_CLIPS = 2**15

# half-width of the band around near[i] whose entries wait for row i's exact
# diagonal; scores are bounded by 1 in absolute value, and near differs from
# the diagonal by rounding only
TIE_BAND = 1e-6

# A test set of fewer clips than this is scored on the calling thread alone;
# from it on, the threads split each block's clips. On a 2-core box (OpenBLAS
# with 2 threads), the median ms of a whole eval of trained checkpoints,
# serially vs split over 2 threads, was for additive attention 86 vs 159 at
# 300 clips, 159 vs 274 at 500, 557 vs 615 at 1000, 668 vs 765 at 1250, 1151
# vs 1078 at 1500, 1289 vs 1309 at 1750 and 1712 vs 1423 at 2000; for dot
# attention 16 vs 31 at 300, 32 vs 54 at 500, 129 vs 145 at 1000, 251 vs 283
# at 1500, 347 vs 350 at 1750 and 451 vs 414 at 2000.
MIN_CLIPS_FOR_THREADS = 1500


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
    """The query side of score_matrix, (sT, q): embedded sentences on the last
    axis and their model.query_projection."""
    s = embed(params, "language", np.stack([r.sentence_raw for r in records]))[0]
    sT = np.ascontiguousarray(s.T)
    return sT, query_projection(params, sT)


def score_matrix(params, records, queries, near, lo, hi):
    """Score every sentence against clips lo..hi: out[i, j - lo] = s_i . v_ij.

    v_ij pools all of clip j's frames under sentence i's attention;
    model.clip_scores scores each clip against all queries at once, and
    queries is embed_queries(params, records). near is own_pair_scores':
    clip j's floor for sentence i is min(near[i], near[j]) - 2 TIE_BAND,
    and an entry that clip_scores bounds below it holds that bound in
    place of s_i . v_ij; no rank moves, and each diagonal entry is scored
    exactly. From MIN_CLIPS_FOR_THREADS records on, the block's clips are
    split into min(usable cores, hi - lo) contiguous shares; the calling
    thread scores the first and one new thread each of the others. A
    smaller test set forms one share, scored on the calling thread. Each
    share writes only its own columns of out and holds its own scratch
    buffer, so every score is the same bits for any number of shares and
    any block. Each thread runs in a copy of the caller's context, so the
    caller's numpy error state holds there too. An error in a share is
    raised, the first in share order, once every thread has ended.
    """
    sT, q = queries
    n, width = len(records), hi - lo
    low = near - 2 * TIE_BAND
    out = np.empty((n, width))
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    shares = min(cores, width) if n >= MIN_CLIPS_FOR_THREADS else 1
    errors = [None] * shares

    def score_share(k):
        try:
            buf = None if q is None else np.empty_like(q)
            for j in range(k * width // shares, (k + 1) * width // shares):
                h = embed(params, "vision", records[lo + j].frames_raw)[0]
                out[:, j] = clip_scores(params, h, sT, q, buf, np.minimum(low, low[lo + j]))
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


def _own_pairs(params, records, sT):
    """(chunk, s, v, alpha) per length_chunks(records, BLOCK_CLIPS): record
    indices, their sentences from sT (E, n), and each clip embedded and
    pooled under its own sentence by training's batched embed and attend."""
    for chunk in length_chunks(records, BLOCK_CLIPS):
        s = sT[:, chunk].T
        h = embed(params, "vision", np.stack([records[i].frames_raw for i in chunk]))[0]
        v, alpha, _ = attend(params, s, h)
        yield chunk, s, v, alpha


def own_pair_scores(params, records, queries):
    """near[i] = s_i . v_ii, clip i's score under its own sentence.

    queries is embed_queries(params, records). near differs from
    score_matrix's diagonal entry by rounding only.
    """
    near = np.empty(len(records))
    for chunk, s, v, _ in _own_pairs(params, records, queries[0]):
        near[chunk] = np.einsum("be,be->b", s, v)
    return near


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


def retrieval_ranks(blocks, near):
    """1-based ranks of the matched pairs on the diagonal of a blocked score matrix.

    blocks are the (n, w) column blocks of the n x n matrix in clip
    order, all as wide as the first but the last, which may be narrower.
    near[i] is row i's diagonal entry up to rounding (own_pair_scores);
    each diagonal entry is checked to lie within TIE_BAND of it, and one
    that does not is an EvalError naming the clip. Returns (video,
    sentence): video[i] ranks clip i in row i, sentence[j] ranks
    sentence j in column j. Ties break by candidate index: an equal
    score at a lower index ranks ahead of the matched pair.
    """
    near = np.asarray(near, dtype=float)
    if not np.isfinite(near).all():
        raise EvalError("scores must be finite")
    n = near.shape[0]
    low, high = near - TIE_BAND, near + TIE_BAND
    video, sentence = np.ones(n, dtype=np.int64), np.ones(n, dtype=np.int64)
    diag = np.empty(n)
    deferred = {}  # row lo -> (band values in row order, count per row) of earlier blocks
    lo = 0
    for block in blocks:
        if not np.isfinite(block).all():
            raise EvalError("scores must be finite")
        w = block.shape[1]
        if lo == 0:
            step = w
        hi = lo + w
        own = np.arange(lo, hi)
        d = diag[lo:hi] = block[own, own - lo]
        outside = ~((low[lo:hi] <= d) & (d <= high[lo:hi]))
        if outside.any():
            i = lo + int(np.argmax(outside))
            raise EvalError(f"clip {i}: own-pair score differs from its pre-pass value "
                            f"by {abs(diag[i] - near[i]):.3g}, beyond {TIE_BAND:g}")
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
        # every deferred entry is at a lower column than its row's diagonal
        for values, counts in deferred.pop(lo, ()):
            rows = np.repeat(np.arange(w), counts)
            video[lo:hi] += np.bincount(rows[values >= d[rows]], minlength=w)
        # rows below: entries above the band rank ahead, those below it do not
        below = block[hi:]
        ahead = below > high[hi:, None]
        video[hi:] += np.count_nonzero(ahead, axis=1)
        band = below >= low[hi:, None]
        band ^= ahead  # every entry above the band is also at or above its low edge
        for start in range(hi, n, step):
            mask = band[start - hi:start - hi + step]
            if mask.any():
                deferred.setdefault(start, []).append(
                    (block[start:start + step][mask], np.count_nonzero(mask, axis=1)))
        lo = hi
        del block, top, ahead, below, band  # free this block before the next one is scored
    return video, sentence


def _direction_report(ranks):
    mean_ap = float((1.0 / ranks).mean() * 100.0)
    recall = {k: float((ranks <= k).mean() * 100.0) for k in DEFAULT_RECALL_KS}
    return DirectionReport(mean_ap=mean_ap, recall=recall)


def bidirectional_retrieval(params, records):
    """Evaluate both directions over a test set of matched pairs.

    The test set is size-checked first (check_eval_size); each clip's
    own-pair score is computed next (own_pair_scores), and the clips are
    then scored and ranked BLOCK_CLIPS at a time.
    """
    check_eval_size(records)
    queries = embed_queries(params, records)
    near = own_pair_scores(params, records, queries)
    n = len(records)
    blocks = (score_matrix(params, records, queries, near, lo, min(lo + BLOCK_CLIPS, n))
              for lo in range(0, n, BLOCK_CLIPS))
    video_ranks, sentence_ranks = retrieval_ranks(blocks, near)
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

    The weights are those own_pair_scores pools with. Returns a list of
    dict rows in record and frame order: clip id, frame index, grounded
    flag, weight, and weight relative to the clip's strongest frame.
    """
    if not records:
        raise EvalError("no records to dump")
    alphas = [None] * len(records)
    for chunk, _, _, alpha in _own_pairs(params, records, embed_queries(params, records)[0]):
        for i, a in zip(chunk, alpha):
            alphas[i] = a
    rows = []
    for rec, alpha in zip(records, alphas):
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
