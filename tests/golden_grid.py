"""Golden grid: two SHA-256 digests over every training configuration.

A refactor that must not change numbers reproduces both digests. The
input is the criterion-8 corpus (60 train and 10 test records) and
training config, run once per configuration: 4 attention kinds x 3
input modes x 2 losses x 2 samplers with the discriminator on, then
4 attention kinds x 2 losses x 2 samplers with it off.

- The run digest covers the saved train corpus, then each run's
  metrics.csv, checkpoint_freeze.json and checkpoint_final.json. The
  runs train on the corpus as load_corpus reads it back, whose frames
  share one array, the way the train command gets them.
- The scoring digest covers, per run, report_csv of the final
  parameters on the test records and repr() of the attention-dump
  rows of all 70 records: oracles.attention_rows over the weights
  export_attention returns.

The values depend on the numpy and BLAS build, so no test pins them;
ROADMAP.md records them for this repository's reference machine.

    PYTHONPATH=src python tests/golden_grid.py
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from dataclasses import replace

from pairsieve.config import LOSS_KINDS, TrainConfig
from pairsieve.corpus import CorpusSpec, generate_corpus, load_corpus, save_corpus
from pairsieve.evaluation import bidirectional_retrieval, export_attention, report_csv
from pairsieve.model import ATTENTION_KINDS, INPUT_MODES, SAMPLER_KINDS
from pairsieve.training import train

from oracles import attention_rows

CORPUS = CorpusSpec(n_train=60, n_test=10, d=8, k=12, seed=9)
BASE = TrainConfig(d_emb=8, batch_size=8, n_f=3, freeze_epochs=2, joint_epochs=3,
                   bvf_count=2, seed=4)
RUN_FILES = ("metrics.csv", "checkpoint_freeze.json", "checkpoint_final.json")


def grid_configs():
    """Every grid configuration, in digest order."""
    on = [replace(BASE, attention_kind=a, input_mode=m, loss_kind=loss, sampler_kind=s)
          for a in ATTENTION_KINDS for m in INPUT_MODES
          for loss in LOSS_KINDS for s in SAMPLER_KINDS]
    off = [replace(BASE, attention_kind=a, loss_kind=loss, sampler_kind=s,
                   discriminator_enabled=False)
           for a in ATTENTION_KINDS for loss in LOSS_KINDS for s in SAMPLER_KINDS]
    return on + off


def grid_digests(work_dir):
    """(run digest, scoring digest) as hex strings; runs are written under work_dir."""
    train_recs, test_recs = generate_corpus(CORPUS)
    corpus_path = os.path.join(work_dir, "train.corpus")
    save_corpus(train_recs, corpus_path)
    train_recs = load_corpus(corpus_path)
    runs = hashlib.sha256()
    with open(corpus_path, "rb") as fh:
        runs.update(fh.read())
    scoring = hashlib.sha256()
    for i, cfg in enumerate(grid_configs()):
        run_dir = os.path.join(work_dir, f"run{i:02d}")
        params, _ = train(cfg, train_recs, run_dir=run_dir)
        for name in RUN_FILES:
            with open(os.path.join(run_dir, name), "rb") as fh:
                runs.update(fh.read())
        scoring.update(report_csv(bidirectional_retrieval(params, test_recs)).encode())
        records = train_recs + test_recs
        scoring.update(repr(attention_rows(records, export_attention(params, records))).encode())
    return runs.hexdigest(), scoring.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as work_dir:
        runs, scoring = grid_digests(work_dir)
    print(f"runs    {runs}")
    print(f"scoring {scoring}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
