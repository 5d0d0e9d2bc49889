"""Synthetic sentence-video corpora with planted correspondence tags.

Every record pairs one sentence feature vector with an ordered stack of
frame feature vectors, all composed from a shared bank of unit-norm
concept vectors. Each record carries a ground-truth tag (clean / loose /
noise) describing how well the two sides actually correspond -- the thing
scraped video data never exposes -- so gate behaviour downstream can be
checked against truth. The generator makes a record's random draws first,
one concept subset and one noise vector per sentence or frame in a fixed
order, then composes, jitters and normalises all of the record's vectors
in one array pass. Training batches are plain (sentence_idx, clip_idx)
index arrays from epoch_batches. frame_store lays every record's frames
out as rows of one array, and sample_frames draws a whole epoch's frame
choices as row indices into it, in one call.

A corpus file starts with JSON lines: a header, then one line per record.
Version 3, which save_corpus writes, follows them with one block of
little-endian float64 rows: every record's frames in record order, then
every record's sentence. load_corpus reads that block with one call into
one array, and each record's features are views of its rows there, so
frame_store hands the frames to training as they are. Versions 1 and 2,
which hold each record's features in its line (as JSON number lists, or
as base64 strings of float64), are still read.
"""

from __future__ import annotations

import base64
import json
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .files import write_atomically

TAGS = ("clean", "loose", "noise")

CORPUS_FORMAT = "pairsieve-corpus"
CORPUS_VERSION = 3
# gen-corpus refuses a spec whose feature arrays could exceed this many floats
# (1 GiB as float64), before it draws anything, and load_corpus a version-3
# header that asks for more from a pipe
MAX_CORPUS_FLOATS = 2**27
# eval scores and ranks this many clips at a time, and each pass over whole clips
# (own-pair scores, attention-dump, the bank seed) embeds at most this many of one length
BLOCK_CLIPS = 128


class CorpusError(ValueError):
    """Invalid corpus spec, malformed corpus file, or bad sampling request."""


def _units(x):
    """The rows of x scaled to unit norm; a row of norm ~ 0 is a CorpusError, and
    so is one whose norm is not finite (it overflowed), which would scale to 0 or NaN.

    The norm is sqrt(vecdot(x, x)), the same BLAS dot that np.linalg.norm
    takes for one vector, so each row gets the bits it would get alone.
    """
    norms = np.sqrt(np.vecdot(x, x))
    if (norms < 1e-12).any():
        raise CorpusError("degenerate feature vector (norm ~ 0)")
    if not np.isfinite(norms).all():
        raise CorpusError("feature vector norm is not finite (overflow)")
    return x / norms[:, None]


def build_concept_bank(k, d, seed):
    """Draw k random unit vectors of dimension d; returns the (k, d) array.

    seed is an int or a SeedSequence.
    """
    raw = np.random.default_rng(seed).normal(size=(k, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


@dataclass(eq=False)
class ClipRecord:
    """One sentence-video pair with its planted correspondence tag.

    frames_raw keeps temporal order; grounded marks the frames whose
    content the sentence actually describes (all False for noise pairs).
    """

    id: str
    sentence_raw: np.ndarray  # (d,)
    frames_raw: np.ndarray    # (F, d)
    tag: str
    grounded: np.ndarray      # (F,) bool

    def validate(self, d=None):
        """The one per-record rule; a record that breaks it is a CorpusError naming it.

        The tag is one of TAGS; the sentence is 1-d, of d values when d is
        given; the frames are a 2-d stack of at least one frame as wide as
        the sentence; grounded is a 1-d mask of one flag per frame; every
        feature is finite; a noise record grounds no frame and a clean one
        at least half of them. check_records runs it over a corpus.
        """
        if self.tag not in TAGS:
            raise CorpusError(f"record {self.id}: unknown tag {self.tag!r}")
        if self.sentence_raw.ndim != 1:
            raise CorpusError(f"record {self.id}: sentence must be 1-d, "
                              f"has shape {self.sentence_raw.shape}")
        if d is not None and self.sentence_raw.shape[0] != d:
            raise CorpusError(f"record {self.id}: feature dimension "
                              f"{self.sentence_raw.shape[0]}, expected {d}")
        if self.frames_raw.ndim != 2 or self.frames_raw.shape[0] < 1:
            raise CorpusError(f"record {self.id}: frames must be a non-empty 2-d stack")
        if self.frames_raw.shape[1] != self.sentence_raw.shape[0]:
            raise CorpusError(f"record {self.id}: frame dimension != sentence dimension")
        if self.grounded.shape != self.frames_raw.shape[:1]:
            raise CorpusError(f"record {self.id}: grounded must be a 1-d mask of one flag "
                              f"per frame, has shape {self.grounded.shape}")
        for name, values in (("sentence", self.sentence_raw), ("frames", self.frames_raw)):
            if not np.isfinite(values).all():
                raise CorpusError(f"record {self.id}: non-finite feature values in {name}")
        if self.tag == "noise" and self.grounded.any():
            raise CorpusError(f"record {self.id}: noise records cannot have grounded frames")
        if self.tag == "clean" and self.grounded.sum() * 2 < self.frames_raw.shape[0]:
            raise CorpusError(f"record {self.id}: clean records need >= half the frames grounded")


def check_records(records, d=None):
    """Validate each record in order, all of one feature dimension: d when it is
    given, else the first record's. Returns that dimension (d for no records)."""
    for rec in records:
        rec.validate(d)
        d = rec.sentence_raw.shape[0]
    return d


@dataclass(frozen=True)
class CorpusSpec:
    """Knobs of the synthetic corpus generator."""

    n_train: int = 2000
    n_test: int = 100
    d: int = 32
    k: int = 50
    frac_clean: float = 0.5
    frac_loose: float = 0.3
    frac_noise: float = 0.2
    concepts_per_pair: int = 3
    feature_noise_sigma: float = 0.05
    frame_len_min: int = 4
    frame_len_max: int = 10
    seed: int = 0

    def validate(self):
        fracs = (self.frac_clean, self.frac_loose, self.frac_noise)
        if any(f < 0 for f in fracs):
            raise CorpusError("frac_clean/frac_loose/frac_noise must be nonnegative")
        if abs(sum(fracs) - 1.0) > 1e-12:
            raise CorpusError(
                f"frac_clean/frac_loose/frac_noise must sum to 1 (got {sum(fracs)!r})"
            )
        if self.n_test < 1:
            raise CorpusError("n_test must be >= 1")
        if self.n_train < 0:
            raise CorpusError("n_train must be >= 0")
        if self.d < 2:
            raise CorpusError("d must be >= 2")
        if self.concepts_per_pair < 1:
            raise CorpusError("concepts_per_pair must be >= 1")
        if self.k < 2 * self.concepts_per_pair:
            raise CorpusError("k must be >= 2 * concepts_per_pair so distractors exist")
        if self.frame_len_min < 1 or self.frame_len_max < self.frame_len_min:
            raise CorpusError("need 1 <= frame_len_min <= frame_len_max")
        if self.feature_noise_sigma < 0:
            raise CorpusError("feature_noise_sigma must be >= 0")
        if self.seed < 0:
            raise CorpusError("corpus_seed must be >= 0")
        for keys, floats in (("(n_train + n_test) * frame_len_max * d",
                              (self.n_train + self.n_test) * self.frame_len_max * self.d),
                             ("k * d", self.k * self.d)):
            if floats > MAX_CORPUS_FLOATS:
                raise CorpusError(f"{keys} = {floats} exceeds the limit of "
                                  f"{MAX_CORPUS_FLOATS} feature floats")


def _make_record(rec_id, tag, concepts, spec, rng):
    # every draw comes first, in the order of the per-vector generator (one
    # subset choice and one noise vector per sentence or frame), so the
    # corpus bytes do not depend on how the arithmetic below is grouped
    m, sigma = spec.concepts_per_pair, spec.feature_noise_sigma
    n_frames = int(rng.integers(spec.frame_len_min, spec.frame_len_max + 1))
    own = rng.choice(spec.k, size=m, replace=False)
    others = np.ones(spec.k, dtype=bool)
    others[own] = False
    rest = np.flatnonzero(others)
    # row 0 is the sentence, row 1 + i frame i
    subsets = np.empty((n_frames + 1, m), dtype=int)
    noise = np.empty((n_frames + 1, spec.d))

    def draw(row, subset):
        subsets[row] = subset
        if sigma > 0:
            noise[row] = rng.normal(size=spec.d)

    draw(0, own)
    grounded = np.zeros(n_frames, dtype=bool)
    if tag == "clean":
        n_grounded = int(rng.integers((n_frames + 1) // 2, n_frames + 1))
        grounded[rng.choice(n_frames, size=n_grounded, replace=False)] = True
    elif tag == "loose":  # one grounded frame, sharing one of the sentence's concepts
        grounded[int(rng.integers(n_frames))] = True
        shared = own[int(rng.integers(m))]
    for i in range(n_frames):
        if not grounded[i]:
            draw(i + 1, rng.choice(rest, size=m, replace=False))
        elif tag == "clean":
            draw(i + 1, own)
        else:
            draw(i + 1, np.concatenate([[shared], rng.choice(rest, size=m - 1, replace=False)]))

    # unit-norm composition of each subset, jittered, then re-normalized
    vec = _units(concepts[subsets].sum(axis=1))
    if sigma > 0:
        vec = _units(vec + sigma * noise)
    # copies, not views: a view keeps vec as a third array object per record,
    # 4% more peak memory at n_train=40000, d=4
    return ClipRecord(id=rec_id, sentence_raw=vec[0].copy(), frames_raw=vec[1:].copy(),
                      tag=tag, grounded=grounded)


def generate_corpus(spec):
    """Generate (train, test) record lists; deterministic given spec.seed.

    Clean pairs ground the sentence's full concept subset in >= half the
    frames, loose pairs share exactly one concept with a single grounded
    frame, noise pairs share nothing. Test records are always clean.

    Each record draws, in order: its frame count, the sentence's concept
    subset, the sentence's noise vector, the tag's grounding choices, then
    per frame its subset (grounded clean frames reuse the sentence's) and
    its noise vector; the noise draws are skipped when
    feature_noise_sigma is 0. The vectors are then built in one pass over
    the record: each subset's concepts summed and scaled to unit norm,
    jittered by sigma times its noise and scaled to unit norm again. A
    vector of norm ~ 0 or of a norm that overflows is a CorpusError.
    """
    spec.validate()
    root = np.random.SeedSequence(spec.seed)
    ss_bank, ss_train, ss_test = root.spawn(3)
    concepts = build_concept_bank(spec.k, spec.d, ss_bank)

    rng_train = np.random.default_rng(ss_train)
    probs = np.array([spec.frac_clean, spec.frac_loose, spec.frac_noise])
    tag_idx = rng_train.choice(len(TAGS), size=spec.n_train, p=probs / probs.sum())
    train = [
        _make_record(f"train-{i:05d}", TAGS[tag_idx[i]], concepts, spec, rng_train)
        for i in range(spec.n_train)
    ]

    rng_test = np.random.default_rng(ss_test)
    test = [
        _make_record(f"test-{i:04d}", "clean", concepts, spec, rng_test)
        for i in range(spec.n_test)
    ]
    return train, test


def save_corpus(records, path):
    """Write records in format version 3.

    The header line holds d, records (the record count) and rows (their
    total frame count); each record's line holds its id, tag, frame count
    and 0/1 grounded list. One block of little-endian float64 follows: every
    record's frames, row after row in record order, then every record's
    sentence, so every float round-trips bit for bit. The records are
    checked first (check_records), so a file is written only when
    load_corpus would read it back; it is replaced atomically
    (files.write_atomically).
    """
    d = check_records(records) or 0
    rows = sum(rec.frames_raw.shape[0] for rec in records)
    with write_atomically(path) as fh:
        fh.write(json.dumps({"format": CORPUS_FORMAT, "version": CORPUS_VERSION, "d": d,
                             "records": len(records), "rows": rows}) + "\n")
        for rec in records:
            line = json.dumps({"id": rec.id, "tag": rec.tag, "frames": rec.frames_raw.shape[0],
                               "grounded": [int(g) for g in rec.grounded]})
            fh.write(line + "\n")
        fh.flush()
        for features in [rec.frames_raw for rec in records] + [rec.sentence_raw for rec in records]:
            fh.buffer.write(np.ascontiguousarray(features, dtype="<f8"))


def _list_array(obj, field, lineno):
    """A JSON number list as an array: frames are a list of rows, the rest flat."""
    ndim = 2 if field == "frames" else 1
    try:
        arr = np.asarray(obj[field], dtype=float)
    except (TypeError, ValueError) as exc:
        raise CorpusError(f"line {lineno}: field {field!r} is not a numeric array: {exc}") from None
    if arr.ndim != ndim or arr.size == 0:
        raise CorpusError(f"line {lineno}: field {field!r} must be a non-empty {ndim}-d array")
    return arr


_JSON_TYPES = {dict: "an object", list: "an array", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


def _base64_array(obj, field, lineno):
    """A base64 string of little-endian float64 as a flat, writable float array."""
    value = obj[field]
    if not isinstance(value, str):
        raise CorpusError(f"line {lineno}: field {field!r} must be a base64 string, "
                          f"not {_JSON_TYPES[type(value)]}")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:
        raise CorpusError(f"line {lineno}: field {field!r} is not base64: {exc}") from None
    if not raw or len(raw) % 8:
        raise CorpusError(f"line {lineno}: field {field!r} holds {len(raw)} bytes, "
                          f"not a non-empty run of 8-byte floats")
    return np.frombuffer(raw, "<f8").astype(float)


# corpus version -> decoder of the sentence and frames fields; version 2's
# frames come flat, as rows as wide as the sentence
_FEATURE_DECODERS = {1: _list_array, 2: _base64_array}


def _record_object(line, lineno, fields):
    """A record line's JSON object, which must hold every one of fields."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise CorpusError(f"line {lineno}: invalid record: {exc}") from exc
    if not isinstance(obj, dict):
        raise CorpusError(f"line {lineno}: record is not a JSON object")
    for field in fields:
        if field not in obj:
            raise CorpusError(f"line {lineno}: missing field {field!r}")
    return obj


def _grounded_flags(obj, lineno):
    """A record's grounded list of 0/1 flags as a bool mask; JSON true and false
    count as 1 and 0, and any other value is a CorpusError naming the line."""
    grounded = _list_array(obj, "grounded", lineno)
    if not set(obj["grounded"]) <= {0, 1}:
        raise CorpusError(f"line {lineno}: field 'grounded' must hold only 0/1 flags")
    return grounded != 0


def _claim_id(first_line, record, lineno):
    """Note the line record's id is first used on; a repeated id is a CorpusError
    naming both lines."""
    if record.id in first_line:
        raise CorpusError(f"line {lineno}: record id {record.id!r} already used "
                          f"on line {first_line[record.id]}")
    first_line[record.id] = lineno


def _validated(record, lineno):
    """record once ClipRecord.validate passes; its CorpusError is prefixed with the line."""
    try:
        record.validate()
    except CorpusError as exc:
        raise CorpusError(f"line {lineno}: {exc}") from None
    return record


def _parse_record_line(obj, lineno, d_expected, d_source, decode):
    sentence = decode(obj, "sentence", lineno)
    d = sentence.shape[0]
    if d_expected is not None and d != d_expected:
        raise CorpusError(
            f"line {lineno}: dimension mismatch ({d_source} d={d_expected}, sentence d={d})"
        )
    frames = decode(obj, "frames", lineno)
    if frames.ndim == 1:
        if frames.shape[0] % d:
            raise CorpusError(f"line {lineno}: field 'frames' holds {frames.shape[0]} floats, "
                              f"not whole rows of d={d}")
        frames = frames.reshape(-1, d)
    record = ClipRecord(id=str(obj["id"]), sentence_raw=sentence, frames_raw=frames,
                        tag=str(obj["tag"]), grounded=_grounded_flags(obj, lineno))
    return _validated(record, lineno)


def _text_lines(path, fh):
    """(line number, text) of each line of a binary file, as UTF-8 without its line end.

    Bytes that are not UTF-8 raise a CorpusError naming the path and line.
    """
    for lineno, raw in enumerate(fh, start=1):
        try:
            yield lineno, raw.rstrip(b"\r\n").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: line {lineno}: not UTF-8 text "
                              f"(byte {exc.start} of the line: {exc.reason})") from None


def _frame_capacity(version, size):
    """An upper bound on the frame floats a corpus file of size bytes holds.

    Version 1 spends at least a digit and a separator on a float, version 2
    32/3 base64 characters on its 8 bytes.
    """
    return size // 2 if version == 1 else size * 3 // 32


def _line_records(fh, lines, header, version):
    """The records of a version-1 or version-2 file, whose features are in its lines.

    Frames are copied into one array of as many rows as the file's length
    allows (_frame_capacity), and each record's frames_raw becomes a view
    of its rows there.
    """
    decode = _FEATURE_DECODERS[version]
    d, d_source = header.get("d"), "header"
    if d is not None and type(d) is not int:
        raise CorpusError(f"line 1: header d must be an integer or null, got {d!r}")
    size = os.fstat(fh.fileno()).st_size
    records = []
    first_line = {}
    store, used = None, 0
    for lineno, line in lines:
        if not line.strip():
            continue
        obj = _record_object(line, lineno, ("id", "tag", "sentence", "frames", "grounded"))
        record = _parse_record_line(obj, lineno, d, d_source, decode)
        if d is None:
            d, d_source = record.sentence_raw.shape[0], f"line {lineno}"
        _claim_id(first_line, record, lineno)
        if store is None:
            store = np.empty((_frame_capacity(version, size) // d, d))
        n = record.frames_raw.shape[0]
        # a pipe reports size 0 and a file may grow while it is read: frames
        # past the capacity keep arrays of their own, and frame_store copies
        if used + n <= store.shape[0]:
            store[used:used + n] = record.frames_raw
            record.frames_raw = store[used:used + n]
            used += n
        records.append(record)
    return records


def _block_records(path, fh, lines, header):
    """The records of a version-3 file, whose features are views of its float64 block.

    The header's d, records and rows bound the block before it is
    allocated: by the bytes left in a regular file, by MAX_CORPUS_FLOATS
    for a pipe, which has no length. The record lines come next, exactly
    as many as the header says, and then the block, read with one
    readinto, which must fill it exactly and leave nothing behind. Each
    record is checked (ClipRecord.validate) once its features are read.
    """
    for key in ("d", "records", "rows"):
        if type(header.get(key)) is not int or header[key] < 0:
            raise CorpusError(f"line 1: header {key} must be a non-negative integer, "
                              f"got {header.get(key)!r}")
    d, count, rows = header["d"], header["records"], header["rows"]
    if count and not d:
        raise CorpusError("line 1: header d must be positive in a corpus with records")
    nbytes = (rows + count) * d * 8
    info = os.fstat(fh.fileno())
    if stat.S_ISREG(info.st_mode):
        room, what = info.st_size - fh.tell(), "the bytes left in the file"
    else:
        room, what = 8 * MAX_CORPUS_FLOATS, f"the limit of {MAX_CORPUS_FLOATS} floats"
    if nbytes > room:
        raise CorpusError(f"line 1: header sizes need {nbytes} bytes of features, "
                          f"more than {what} ({room})")
    block = np.empty((rows + count, d), dtype="<f8")  # no page is touched before readinto
    records, first_line, used = [], {}, 0
    for i in range(count):
        lineno, line = next(lines, (None, None))
        if line is None:
            raise CorpusError(f"{path}: header records={count}, but the file ends after "
                              f"{i} record lines")
        obj = _record_object(line, lineno, ("id", "tag", "frames", "grounded"))
        n = obj["frames"]
        if type(n) is not int or n < 1:
            raise CorpusError(f"line {lineno}: field 'frames' must be a positive frame count, "
                              f"got {n!r}")
        if used + n > rows:
            raise CorpusError(f"line {lineno}: frame counts pass the header's rows={rows}")
        record = ClipRecord(id=str(obj["id"]), sentence_raw=block[rows + i],
                            frames_raw=block[used:used + n], tag=str(obj["tag"]),
                            grounded=_grounded_flags(obj, lineno))
        _claim_id(first_line, record, lineno)
        used += n
        records.append(record)
    if used != rows:
        raise CorpusError(f"line 1: header rows={rows}, but the frame counts sum to {used}")
    got = fh.readinto(block)
    if got != nbytes or fh.read(1):
        raise CorpusError(f"{path}: the feature block must be {nbytes} bytes, but the file "
                          f"holds {got if got < nbytes else 'more'}")
    for lineno, record in enumerate(records, start=2):
        _validated(record, lineno)
    return records


def load_corpus(path):
    """Load a corpus file; an empty file is an empty corpus.

    The header's version picks the reader. Version 3's record lines hold
    no features: its block of float64 rows is read with one call into one
    array, and each record's frames and sentence are views of its rows
    (_block_records). Versions 1 and 2 are parsed one line at a time, and
    each record's frames are copied into one array (_line_records).
    Either way the file is never held whole, and frame_store returns the
    frames' array without a copy (for versions 1 and 2, from a regular
    file only).

    Every malformed record, including one that repeats an earlier id, one
    whose dimension differs from the header's d and one with a non-finite
    feature, is a CorpusError naming its line; so is a version-3 header
    whose sizes do not match its record lines and block. In versions 1
    and 2 a header with "d": null takes d from the first record, and any
    other d that is not an integer is a line-1 CorpusError.
    """
    with open(path, "rb") as fh:
        lines = _text_lines(path, fh)
        first = next(lines, None)
        if first is None:
            return []
        try:
            header = json.loads(first[1])
        except (ValueError, RecursionError) as exc:
            raise CorpusError(f"line 1: invalid header: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != CORPUS_FORMAT:
            raise CorpusError(f"line 1: not a {CORPUS_FORMAT} file")
        version = header.get("version")
        if type(version) is not int or version not in (*_FEATURE_DECODERS, CORPUS_VERSION):
            raise CorpusError(f"line 1: unsupported corpus version {version!r}")
        if version == CORPUS_VERSION:
            return _block_records(path, fh, lines, header)
        return _line_records(fh, lines, header, version)


def frame_store(records):
    """Every record's frames as rows of one array: (rows, starts, lengths).

    Record i's frames are rows[starts[i]:starts[i] + lengths[i]]. When all
    of them are row ranges of one C-contiguous 2-d array, as load_corpus
    makes them, rows is that array, up to the last row a record uses, and
    nothing is copied. Otherwise, as for records from generate_corpus or
    built by hand, rows is a concatenated copy.
    """
    frames = [r.frames_raw for r in records]
    lengths = np.array([f.shape[0] for f in frames])
    base = frames[0].base
    if (isinstance(base, np.ndarray) and base.ndim == 2 and base.flags.c_contiguous
            and all(f.base is base and f.strides == base.strides
                    and f.shape[1] == base.shape[1] for f in frames)):
        offsets = (np.array([f.__array_interface__["data"][0] for f in frames])
                   - base.__array_interface__["data"][0])
        starts, slack = np.divmod(offsets, base.strides[0])
        if not slack.any():
            return base[:(starts + lengths).max()], starts, lengths
    return np.concatenate(frames), np.cumsum(lengths) - lengths, lengths


def epoch_batches(n, batch_size, rng):
    """Yield one epoch of (sentence_idx, clip_idx) batches over n clips.

    The first half of each batch pairs clips with their own sentences;
    clips are visited in a fresh random order, and the last batch wraps
    around so every batch keeps the exact half/half balance. The second
    half pairs uniform clips with uniform sentences other than their own.
    """
    half = batch_size // 2
    perm = rng.permutation(n)
    for b in range(math.ceil(n / half)):
        pos = perm[np.arange(b * half, (b + 1) * half) % n]
        neg_clips = rng.integers(0, n, size=half)
        neg_sents = rng.integers(0, n - 1, size=half)
        neg_sents += neg_sents >= neg_clips  # skip the clip's own sentence
        yield np.concatenate([pos, neg_sents]), np.concatenate([pos, neg_clips])


def sample_frames(store, clip_idx, n_f, rng):
    """Draw n_f frames per clip for an epoch's batches; (S, B, n_f) row indices.

    store is frame_store's (rows, starts, lengths) and clip_idx (S, B) holds
    the clips of the epoch's S batches; pair j of batch s gets the frames
    rows[idx[s, j]], in temporal order. Batch s keys its clips with a (B, W)
    block of uniforms, W = max(n_f, longest clip in the batch), and one
    rng.random call draws the blocks of all batches in order: the values S
    calls of one batch each would draw. A clip of L >= n_f frames keeps the
    frames with the n_f smallest of its first L keys: a uniform subset,
    without replacement. A shorter clip keeps every frame and fills the
    remaining slots with frame floor(key * L), uniform reuse. n_f >= 1 and
    every clip has a frame (TrainConfig.validate, ClipRecord.validate).
    """
    _, starts, lengths = store
    n_batches, batch = clip_idx.shape
    length = lengths[clip_idx]
    widths = np.maximum(n_f, length.max(axis=1))
    # row-major order of the (S, B, W_max) keys, padding past each batch's W
    # skipped, is the order of the draws
    frame = np.arange(widths.max())
    keys = np.full((n_batches, batch, frame.size), 2.0)
    keys[np.broadcast_to(frame < widths[:, None, None], keys.shape)] = rng.random(
        batch * int(widths.sum()))
    keys = keys.reshape(n_batches * batch, -1)
    length = length.reshape(-1)
    inside = frame < length[:, None]
    reuse = np.where(inside[:, :n_f], frame[:n_f], (keys[:, :n_f] * length[:, None]).astype(int))
    keys[~inside] = 2.0
    subset = np.argpartition(keys, n_f - 1, axis=1)[:, :n_f]
    idx = np.where((length >= n_f)[:, None], subset, reuse)
    idx.sort(axis=1)
    return (starts[clip_idx.reshape(-1)][:, None] + idx).reshape(n_batches, batch, n_f)


def length_chunks(records, size):
    """Index lists of records of one frame count, at most size each, in record order."""
    by_length = {}
    for i, rec in enumerate(records):
        by_length.setdefault(rec.frames_raw.shape[0], []).append(i)
    return [g[k:k + size] for g in by_length.values() for k in range(0, len(g), size)]
