"""Run one pairsieve CLI command with a span recorded around each layer call.

Usage: python3 perfbench/tracer.py SPANS_NPZ -- <pairsieve arguments>

Each traced function is replaced at the module attribute its caller looks
up (``pairsieve.training.sample_frames``, not ``pairsieve.corpus.sample_frames``),
so the package source is untouched and no RNG stream changes. Spans stay in
memory until the command returns; then they go to SPANS_NPZ as one array
per field: ``names`` (the span names) and, one entry per span, ``name``
(index into ``names``), ``parent`` (index of the enclosing span, -1 for
none), ``start`` and ``end`` (``time.perf_counter`` seconds) and ``extra``:
the size in bytes of the file a call read or wrote, or for a generator
resumption 1 if it yielded an item and 0 if it was exhausted. Writing binary
arrays keeps the dump to milliseconds, so it barely shows in the child's wall
time.

Two more fields describe the tracer's own cost. ``cost``, one entry per name,
is the time its wrapper spends per call outside the span it records: that
time lands in the parent span, so run.py subtracts it from the parent's self
time. ``tracer_s`` is how long measuring ``cost`` took, outside ``cli.main``.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time

import numpy as np

# (module, attribute the caller looks up, span name, index of a path argument
# whose file size is recorded after the call, or None)
FUNCTIONS = (
    ("cli", "main", "cli.main", None),
    ("cli", "generate_corpus", "corpus.generate", None),
    ("cli", "save_corpus", "corpus.save", 1),
    ("cli", "load_corpus", "corpus.load", 0),
    ("cli", "train", "training.train", None),
    ("cli", "load_checkpoint", "model.load_checkpoint", 0),
    ("cli", "bidirectional_retrieval", "evaluation.bidirectional_retrieval", None),
    ("cli", "export_attention", "evaluation.export_attention", None),
    ("training", "init_bvf", "model.init_bvf", None),
    ("training", "sample_frames", "corpus.sample_frames", None),
    ("training", "compute_gradients", "gradients.compute_gradients", None),
    ("training", "sgd_step", "optim.sgd_step", None),
    ("training", "save_checkpoint", "model.save_checkpoint", 1),
    ("evaluation", "score_matrix", "evaluation.score_matrix", None),
)
# Generator functions: one span per resumption of the returned generator.
GENERATORS = (
    ("training", "epoch_batches", "corpus.epoch_batches"),
)


CALIBRATION_CALLS = 10000
CALIBRATION_TRIALS = 5


class Recorder:
    """Keeps every span in a list; a stack gives each span its parent."""

    def __init__(self):
        self.spans = []   # [name, parent, start, end, extra]
        self.stack = []

    def _open(self, name):
        row = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(row)
        row[2] = time.perf_counter()
        return row

    def _close(self, row):
        row[3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, path_arg):
        def timed(*args, **kwargs):
            row = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(row)
            if path_arg is not None:
                row[4] = os.path.getsize(args[path_arg])
            return out
        return timed

    def wrap_generator(self, name, fn):
        def timed(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                row = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(row)
                row[4] = 1
                yield item
        return timed

    def save(self, path, cost, tracer_s):
        names = sorted({row[0] for row in self.spans})
        index = {name: i for i, name in enumerate(names)}
        name, parent, start, end, extra = zip(*self.spans) if self.spans else ((),) * 5
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(names, dtype=str),
                     name=np.array([index[n] for n in name], dtype=np.int64),
                     parent=np.array(parent, dtype=np.int64),
                     start=np.array(start, dtype=float), end=np.array(end, dtype=float),
                     extra=np.array(extra, dtype=np.int64),
                     cost=np.array([cost[n] for n in names], dtype=float),
                     tracer_s=np.array(tracer_s))

    def install(self):
        for module, attr, name, path_arg in FUNCTIONS:
            mod = importlib.import_module(f"pairsieve.{module}")
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), path_arg))
        for module, attr, name in GENERATORS:
            mod = importlib.import_module(f"pairsieve.{module}")
            setattr(mod, attr, self.wrap_generator(name, getattr(mod, attr)))


def _noop():
    return None


def _noop_items(n):
    yield from range(n)


def calibrate():
    """Seconds each wrapper adds to its caller per span, outside the span.

    Times a batch of wrapped no-op calls (and generator resumptions) against
    the same batch unwrapped and takes away the recorded span time. What is
    left is the extra call frame and the bookkeeping around the span. The
    fastest of several trials is the least disturbed by other load.
    """
    recorder = Recorder()
    fn = recorder.wrap("fn", _noop, None)
    gen = recorder.wrap_generator("gen", _noop_items)
    n = CALIBRATION_CALLS
    best = {"fn": math.inf, "gen": math.inf}
    for _ in range(CALIBRATION_TRIALS):
        recorder.spans.clear()
        t0 = time.perf_counter()
        for _ in range(n):
            _noop()
        t1 = time.perf_counter()
        for _ in range(n):
            fn()
        t2 = time.perf_counter()
        for _ in _noop_items(n):
            pass
        t3 = time.perf_counter()
        for _ in gen(n):
            pass
        t4 = time.perf_counter()
        inside = {"fn": 0.0, "gen": 0.0}
        for name, _, start, end, _ in recorder.spans:
            inside[name] += end - start
        best["fn"] = min(best["fn"], ((t2 - t1) - (t1 - t0) - inside["fn"]) / n)
        best["gen"] = min(best["gen"], ((t4 - t3) - (t3 - t2) - inside["gen"]) / (n + 1))
    # Wrappers with a path argument also stat a file after the call; they run
    # a few times per command, so the plain function cost stands for them.
    cost = {name: best["fn"] for _, _, name, _ in FUNCTIONS}
    cost.update({name: best["gen"] for _, _, name in GENERATORS})
    return cost


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py SPANS_NPZ -- <pairsieve arguments>", file=sys.stderr)
        return 1
    spans_path, argv = sys.argv[1], sys.argv[3:]
    start = time.perf_counter()
    cost = calibrate()
    tracer_s = time.perf_counter() - start
    recorder = Recorder()
    recorder.install()
    from pairsieve import cli

    code = cli.main(argv)
    recorder.save(spans_path, cost, tracer_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
