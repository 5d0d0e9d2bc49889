"""Bidirectional retrieval evaluation.

Every test sentence is scored against every test clip with training's
embedding and attention formulas (model.embed, and model.clip_scores,
their form for one clip against all queries), so a clip's pooled
vector depends on which sentence is querying it. The query side is
embedded once; the clips are then scored in column blocks of
BLOCK_CLIPS clips, and each block is ranked as it arrives, so no n x n
array ever exists. The blocks are dealt into one interleaved share per
usable core: the calling process scores and ranks the first, and a
child made with os.fork each other, which sends back its rank counts
(_sum_over_shares). The counts are integer sums, so the ranks are the
same for any number of cores.

Video search ranks clips for each sentence (rows), sentence search
ranks sentences for each clip (columns). Before any block is scored,
own_pair_scores computes near[i], pair i's score, in training's batched
embed and attend over clips of one length, the pass whose weights
export_attention returns for attention-dump, and every candidate in
both directions is ranked against near. near differs from the block's
diagonal entry by rounding only, which each block checks, so a block's
rank counts (ranks_ahead) depend on that block and near alone, and a
rank is 1 plus their sum over the blocks. Beyond its corpus, a test set
of n clips then needs one block and its masks. Each query has exactly
one relevant item, so average precision reduces to 1/rank.

Additive attention is filtered before it is refined. Pair (i, j)
needs only its score's side of two bands, near[i] +- 2 TIE_BAND and
near[j] +- 2 TIE_BAND, and a pair whose bounds [lb, ub] lie wholly
below or wholly above each of them keeps ub: it ranks as its exact
score would, in both directions. model.clip_bounds bounds each clip's pairs as it
is scored; the pairs it leaves open wait, grouped by frame count, for
model.vertex_bounds' tighter bounds, and those still open are scored
exactly by model.additive_pair_scores.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

from .corpus import BLOCK_CLIPS, check_records, length_chunks
from .model import (additive_pair_scores, attend, clip_bounds, clip_scores, embed,
                    query_projection, vertex_bounds)

DEFAULT_RECALL_KS = (1, 5, 10)

# eval refuses more test clips than this before scoring: it holds one
# n x BLOCK_CLIPS block of scores (32 MiB here) and scores n^2 pairs
MAX_EVAL_CLIPS = 2**15

# how far a diagonal entry may lie from near before ranks_ahead refuses
# it, and half the margin of the additive filter's bands; scores are bounded
# by 1 in absolute value, and near differs from the diagonal by rounding only
TIE_BAND = 1e-6

class EvalError(ValueError):
    """Bad inputs to a metric or an empty evaluation set."""


def check_eval_size(records, d_in):
    """An empty test set or one of more than MAX_EVAL_CLIPS clips is an EvalError;
    corpus.check_records then checks each record against the model's d_in."""
    if not records:
        raise EvalError("no records to evaluate")
    if len(records) > MAX_EVAL_CLIPS:
        raise EvalError(f"test set has {len(records)} clips; eval takes at most "
                        f"{MAX_EVAL_CLIPS}")
    check_records(records, d_in)


def embed_queries(params, records):
    """The query side of score_matrix, (sT, q): embedded sentences on the last
    axis and their model.query_projection."""
    s = embed(params, "language", np.stack([r.sentence_raw for r in records]))[0]
    sT = np.ascontiguousarray(s.T)
    return sT, query_projection(params, sT)


def score_matrix(params, records, queries, near, lo, hi):
    """Score every sentence against clips lo..hi: out[i, j - lo] = s_i . v_ij.

    v_ij pools all of clip j's frames under sentence i's attention, and
    queries is embed_queries(params, records). Uniform, dot and
    multiplicative attention score each clip against all queries at once
    (model.clip_scores). For additive attention, a pair whose bounds
    _placed finds outside both bands, near[i] +- 2 TIE_BAND and near[j]
    +- 2 TIE_BAND with own_pair_scores' near, holds its upper bound
    in place of s_i . v_ij: it ranks as s_i . v_ij would, and each
    diagonal entry is exact. The pairs model.clip_bounds leaves open wait
    in one group per frame count, which _score_open_pairs bounds again
    and scores before it would pass n pairs and at the end of the block.
    An exact score is the same bits for any block and any near.
    """
    sT, q = queries
    n = len(records)
    out = np.empty((n, hi - lo))
    if params.attention_kind != "additive":
        for j in range(lo, hi):
            out[:, j - lo] = clip_scores(params, embed(params, "vision", records[j].frames_raw)[0],
                                         sT, q)
        return out
    low, high = near - 2 * TIE_BAND, near + 2 * TIE_BAND
    waiting = {}  # frame count -> (p, rows, column, c, r) of each clip with open pairs
    for j in range(lo, hi):
        h = embed(params, "vision", records[j].frames_raw)[0]
        p = h @ sT
        c, r, ub, lb = clip_bounds(params, h, p)
        out[:, j - lo] = ub
        rows = np.flatnonzero(~_placed(ub, lb, low, high, low[j], high[j]))
        if rows.size:
            group = waiting.setdefault(len(p), [])
            if rows.size + sum(clip[1].size for clip in group) > n:
                _score_open_pairs(params, q, out, low, high, lo, group)
                group.clear()
            group.append((np.take(p, rows, axis=1), rows, j - lo, c, r))
    for group in waiting.values():
        _score_open_pairs(params, q, out, low, high, lo, group)
    return out


def _placed(ub, lb, low_i, high_i, low_j, high_j):
    """Where [lb, ub] lies wholly below or wholly above [low_i, high_i], and
    also [low_j, high_j]; a NaN bound or band is never placed."""
    return ((ub < low_i) | (lb > high_i)) & ((ub < low_j) | (lb > high_j))


def _score_open_pairs(params, q, out, low, high, lo, group):
    """Write the open pairs of a group of clips of one frame count into out,
    the block of clips lo..: the pairs that model.vertex_bounds places get
    its ub, the others their exact score. group holds (p, rows, column, c,
    r) per clip: the pairs' frame scores (F, k) and rows, the clip's column
    in out, and its clip_bounds c and r."""
    p, rows, cols, c, r = zip(*group)
    clips = np.repeat(np.arange(len(rows)), [x.size for x in rows])
    p, rows, cols = np.concatenate(p, axis=1), np.concatenate(rows), np.asarray(cols)[clips]
    ub, lb = vertex_bounds(p, np.asarray(r)[clips])
    out[rows, cols] = ub
    diag = lo + cols
    keep = np.flatnonzero(~_placed(ub, lb, low[rows], high[rows], low[diag], high[diag]))
    if keep.size:
        out[rows[keep], cols[keep]] = additive_pair_scores(
            params, q, np.stack(c, axis=-1), np.take(p, keep, axis=1), rows[keep], clips[keep])


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


def ranks_ahead(lo, block, near):
    """The candidates ahead of the matched pairs in one column block of the score matrix.

    block holds the (n, w) columns lo..lo + w of the n x n matrix, and
    near[i] is pair i's score (own_pair_scores), which every candidate
    is ranked against. Returns a (2, n) int64 array: row 0 counts the
    clips ahead of clip i for sentence i in row i of the block, row 1
    the sentences ahead of sentence j for clip j in column j (0 outside
    lo..lo + w). A candidate ranks ahead if it scores higher, or the
    same at a lower index, so a rank is 1 plus the counts summed over
    every block. Each diagonal entry is checked to lie within TIE_BAND
    of near, and one that does not is an EvalError naming the clip.
    """
    if not (np.isfinite(near).all() and np.isfinite(block).all()):
        raise EvalError("scores must be finite")
    n, hi = near.shape[0], lo + block.shape[1]
    own = np.arange(lo, hi)
    off = np.abs(block[own, own - lo] - near[lo:hi]) > TIE_BAND
    if off.any():
        i = lo + int(np.argmax(off))
        raise EvalError(f"clip {i}: own-pair score differs from its pre-pass value "
                        f"by {abs(block[i, i - lo] - near[i]):.3g}, beyond {TIE_BAND:g}")
    counts = np.zeros((2, n), dtype=np.int64)
    ahead = block == near[:, None]
    ahead &= np.tri(n, hi - lo, k=-lo - 1, dtype=bool)  # column lo + j < row i
    ahead |= block > near[:, None]
    ahead[own, own - lo] = False
    counts[0] = np.count_nonzero(ahead, axis=1)
    ahead = block == near[lo:hi]
    ahead &= ~np.tri(n, hi - lo, k=-lo, dtype=bool)  # row i < column lo + j
    ahead |= block > near[lo:hi]
    ahead[own, own - lo] = False
    counts[1, lo:hi] = np.count_nonzero(ahead, axis=0)
    return counts


def _share_sum(count, share):
    """(None, the sum of count(lo) over share), or (lo, exception) for the
    first lo whose count raised."""
    total = 0
    for lo in share:
        try:
            total = total + count(lo)
        except Exception as exc:
            return lo, exc
    return None, total


def _sum_over_shares(count, starts):
    """The sum of count(lo) over starts, in k = min(usable cores, len(starts))
    interleaved shares starts[i::k].

    The calling process sums share 0. Each other share is summed in a
    child made with os.fork, which pickles its outcome back through a
    pipe and calls os._exit. Every read end is closed before any child is
    reaped, so a child blocked on a full pipe ends too. The exception
    raised is the one from the lowest failing start, as a serial loop
    would raise it, and a child that ends without an outcome is an
    EvalError giving its exit status. Without os.fork or
    os.sched_getaffinity, k is 1.
    """
    usable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    k = min(len(os.sched_getaffinity(0)) if usable else 1, len(starts))
    children = []  # (pid, read end) of each child
    try:
        for i in range(1, k):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    with os.fdopen(w, "wb") as pipe:
                        pickle.dump(_share_sum(count, starts[i::k]), pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        outcomes = [_share_sum(count, starts[0::k])]
        sent = [pipe.read() for _, pipe in children]
    finally:
        for _, pipe in children:
            pipe.close()
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    for data, status in zip(sent, statuses):
        if status:
            raise EvalError(f"a forked share of eval's blocks exited with status {status} "
                            "before sending its ranks")
        outcomes.append(pickle.loads(data))
    failed = [outcome for outcome in outcomes if outcome[0] is not None]
    if failed:
        raise min(failed, key=lambda outcome: outcome[0])[1]
    return sum(total for _, total in outcomes)


def _direction_report(ranks):
    mean_ap = float((1.0 / ranks).mean() * 100.0)
    recall = {k: float((ranks <= k).mean() * 100.0) for k in DEFAULT_RECALL_KS}
    return DirectionReport(mean_ap=mean_ap, recall=recall)


def bidirectional_retrieval(params, records):
    """Evaluate both directions over a test set of matched pairs.

    The test set and its records are checked against the model first
    (check_eval_size); each clip's own-pair score is computed next
    (own_pair_scores), and the clips are then scored and ranked
    BLOCK_CLIPS at a time, in one share of the blocks per usable core
    (_sum_over_shares).
    """
    check_eval_size(records, params.tensors["language.weight"].shape[0])
    queries = embed_queries(params, records)
    near = own_pair_scores(params, records, queries)
    n = len(records)

    def ahead(lo):  # the candidates ahead in the block of clips lo.., per row and per column
        return ranks_ahead(lo, score_matrix(params, records, queries, near, lo,
                                            min(lo + BLOCK_CLIPS, n)), near)

    video_ranks, sentence_ranks = 1 + _sum_over_shares(ahead, range(0, n, BLOCK_CLIPS))
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

    The records are checked first (corpus.check_records against the
    model's d_in), and the weights are those own_pair_scores pools with.
    Returns each record's (F,) weights, in record order; a record whose
    weights are not all finite is an EvalError naming the first such
    record.
    """
    if not records:
        raise EvalError("no records to dump")
    check_records(records, params.tensors["language.weight"].shape[0])
    alphas = [None] * len(records)
    for chunk, _, _, alpha in _own_pairs(params, records, embed_queries(params, records)[0]):
        for i, a in zip(chunk, alpha):
            alphas[i] = a
    for rec, alpha in zip(records, alphas):
        if not np.isfinite(alpha).all():
            raise EvalError(f"clip {rec.id}: attention weights must be finite")
    return alphas
