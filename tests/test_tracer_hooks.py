"""The benchmark tracer (perfbench/tracer.py) wraps pairsieve functions by the
module attribute their callers look up. A renamed or re-imported function
would leave its hook dangling or its spans empty, so both are checked here.
"""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

from pairsieve import training
from pairsieve.config import TrainConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves():
    tracer = _tracer()
    assert tracer.FUNCTIONS and tracer.GENERATORS
    for module, attr, name, _ in tracer.FUNCTIONS:
        fn = getattr(importlib.import_module(f"pairsieve.{module}"), attr, None)
        assert callable(fn), f"pairsieve.{module}.{attr} (span {name}) is missing"
    for module, attr, name in tracer.GENERATORS:
        fn = getattr(importlib.import_module(f"pairsieve.{module}"), attr, None)
        assert inspect.isgeneratorfunction(fn), \
            f"pairsieve.{module}.{attr} (span {name}) is not a generator function"


def test_training_step_hooks_record_one_span_per_step(tiny_corpus, monkeypatch):
    tracer = _tracer()
    hooks = [h[:2] for h in tracer.FUNCTIONS] + [h[:2] for h in tracer.GENERATORS]
    for module, attr in hooks:  # let monkeypatch restore what install replaces
        mod = importlib.import_module(f"pairsieve.{module}")
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    recorder = tracer.Recorder()
    recorder.install()
    corpus, _ = tiny_corpus
    cfg = TrainConfig(d_emb=8, batch_size=8, n_f=3, freeze_epochs=1, joint_epochs=1,
                      bvf_count=2, seed=0)
    training.train(cfg, corpus)
    names = [row[0] for row in recorder.spans]
    per_epoch = math.ceil(len(corpus) / (cfg.batch_size // 2))
    steps = 2 * per_epoch
    # an epoch draws its batches and all their frames before its first step
    assert names.count("corpus.sample_frames") == 2
    assert names.count("gradients.compute_gradients") == steps
    assert names.count("optim.sgd_step") == steps
    # one resumption per batch plus the one that ends each epoch
    assert names.count("corpus.epoch_batches") == steps + 2
    assert names.count("model.init_bvf") == 1
    epoch = ["corpus.epoch_batches"] * (per_epoch + 1) + ["corpus.sample_frames"]
    epoch += ["gradients.compute_gradients", "optim.sgd_step"] * per_epoch
    assert names == ["model.init_bvf"] + epoch * 2
