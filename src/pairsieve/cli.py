"""Command line interface.

Commands cover the whole experiment cycle: generate a tagged corpus,
train, evaluate retrieval, sweep one ablation axis, and dump attention
weights. Exit codes: 0 success, 1 bad usage or bad data, 2 numeric
failure during training.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .config import (
    LOSS_KINDS,
    ConfigError,
    apply_overrides,
    corpus_spec_from,
    load_config,
    parse_value,
    resolved_values,
    train_config_from,
    write_manifest,
)
from .corpus import TAGS, CorpusError, check_records, generate_corpus, load_corpus, save_corpus
from .evaluation import (
    EvalError,
    bidirectional_retrieval,
    check_eval_size,
    export_attention,
    report_csv,
    report_summary,
)
from .files import write_atomically
from .gradients import NumericError
from .model import (
    ATTENTION_KINDS,
    INPUT_MODES,
    SAMPLER_KINDS,
    ModelError,
    load_checkpoint,
)
from .training import check_sizes, train

ABLATION_AXES = {
    "bvf_count": [4, 16, 64],
    "sampler_kind": list(SAMPLER_KINDS),
    "input_mode": list(INPUT_MODES),
    "loss_kind": list(LOSS_KINDS),
    "attention_kind": list(ATTENTION_KINDS),
    "discriminator_enabled": [True, False],
}


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_values(args):
    values = load_config(args.config) if args.config else {}
    return apply_overrides(values, args.set or [])


def cmd_gen_corpus(args):
    spec = corpus_spec_from(_load_values(args), seed_override=args.seed)
    train_recs, test_recs = generate_corpus(spec)
    os.makedirs(args.out, exist_ok=True)
    train_path = os.path.join(args.out, "train.corpus")
    test_path = os.path.join(args.out, "test.corpus")
    save_corpus(train_recs, train_path)
    save_corpus(test_recs, test_path)
    write_manifest(
        os.path.join(args.out, "manifest.json"),
        "gen-corpus",
        resolved_values(spec, "corpus"),
        {"train_corpus": "train.corpus", "test_corpus": "test.corpus"},
        __version__,
    )
    tags = [r.tag for r in train_recs]
    counts = {t: tags.count(t) for t in TAGS}
    print(f"wrote {len(train_recs)} train / {len(test_recs)} test records to {args.out} "
          f"(train tags: {counts})")
    return 0


def cmd_train(args):
    cfg = train_config_from(_load_values(args), seed_override=args.seed)
    corpus = load_corpus(args.corpus)
    log = None if args.quiet else print
    params, metrics = train(cfg, corpus, run_dir=args.out, log=log)
    if args.out is not None:
        write_manifest(
            os.path.join(args.out, "manifest.json"),
            "train",
            resolved_values(cfg, "train"),
            {
                "corpus": os.path.abspath(args.corpus),
                "metrics": "metrics.csv",
                "checkpoint": "checkpoint_final.json",
            },
            __version__,
        )
    last = metrics[-1]
    print(f"done: {len(metrics)} epochs, final z0_fraction={last.z0_fraction:.3f}, "
          f"loss_lvc={last.loss_lvc:.4f}")
    return 0


def cmd_eval(args):
    params, records = load_checkpoint(args.checkpoint), load_corpus(args.corpus)
    report = bidirectional_retrieval(params, records)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with write_atomically(os.path.join(args.out, "report.csv")) as fh:
            fh.write(report_csv(report))
    print(json.dumps(report_summary(report)))
    return 0


def cmd_ablate(args):
    values = _load_values(args)
    corpus = load_corpus(args.corpus)
    test_records = load_corpus(args.test_corpus)
    check_eval_size(test_records, check_records(corpus))
    axis_values = ABLATION_AXES[args.axis]
    if args.values:
        axis_values = [parse_value(args.axis, item) for item in args.values.split(",")]
    # build and size-check every config first, so a bad value fails before any run
    cfgs = [train_config_from({**values, args.axis: val}, seed_override=args.seed)
            for val in axis_values]
    for cfg in cfgs:
        check_sizes(cfg, corpus)
    os.makedirs(args.out, exist_ok=True)
    header = ("axis,value,map_video_search,map_sentence_search,"
              "rec_at_5_video_search,rec_at_5_sentence_search,final_z0_fraction")
    rows = [header]
    for val, cfg in zip(axis_values, cfgs):
        run_dir = os.path.join(args.out, f"{args.axis}={val}")
        params, metrics = train(cfg, corpus, run_dir=run_dir)
        report = bidirectional_retrieval(params, test_records)
        row = ",".join([
            args.axis, str(val),
            repr(report.video_search.mean_ap),
            repr(report.sentence_search.mean_ap),
            repr(report.video_search.recall[5]),
            repr(report.sentence_search.recall[5]),
            repr(metrics[-1].z0_fraction),
        ])
        rows.append(row)
        print(row)
    with write_atomically(os.path.join(args.out, "ablation.csv")) as fh:
        fh.write("\n".join(rows) + "\n")
    # the resolved training config every run shares, seed included; the axis is swept
    base = {k: v for k, v in resolved_values(cfgs[0], "train").items() if k != args.axis}
    write_manifest(
        os.path.join(args.out, "manifest.json"),
        "ablate",
        base,
        {"axis": args.axis, "values": [str(v) for v in axis_values],
         "table": "ablation.csv"},
        __version__,
    )
    return 0


def cmd_attention_dump(args):
    params, records = load_checkpoint(args.checkpoint), load_corpus(args.corpus)
    weights = export_attention(params, records)

    def write_rows(fh):  # each line as it is formatted: no whole-file string
        fh.write("clip_id,frame,grounded,alpha,alpha_rel\n")
        for rec, alpha in zip(records, weights):
            top = alpha.max()  # a finite softmax peaks at 1/F or more
            fh.writelines(f"{rec.id},{f},{int(g)},{float(a)!r},{float(a / top)!r}\n"
                          for f, (g, a) in enumerate(zip(rec.grounded, alpha)))

    if args.out is None:
        write_rows(sys.stdout)
    else:
        with write_atomically(args.out) as fh:
            write_rows(fh)
        print(f"wrote attention weights for {len(records)} clips to {args.out}")
    return 0


def _add_common(p, seed_help):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, default=None, help=seed_help)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")


def build_parser():
    parser = _Parser(prog="pairsieve", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"pairsieve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-corpus", help="generate a tagged synthetic corpus")
    _add_common(p, "override corpus_seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("train", help="train on a tagged corpus")
    _add_common(p, "override the training seed")
    p.add_argument("--corpus", required=True, help="training corpus file")
    p.add_argument("--out", default=None, help="run directory for metrics and checkpoints")
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch logging")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="bidirectional retrieval metrics for a checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--corpus", required=True, help="test corpus file")
    p.add_argument("--out", default=None, help="directory for report.csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="sweep one config axis and tabulate retrieval")
    _add_common(p, "training seed shared by every run in the sweep")
    p.add_argument("--corpus", required=True, help="training corpus file")
    p.add_argument("--test-corpus", required=True, help="test corpus file")
    p.add_argument("--axis", required=True, choices=sorted(ABLATION_AXES),
                   help="config key to sweep")
    p.add_argument("--values", default=None,
                   help="comma-separated axis values (default: a built-in list)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("attention-dump", help="per-frame attention weights as CSV")
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--corpus", required=True, help="corpus file to attend over")
    p.add_argument("--out", default=None, help="output CSV file (default: stdout)")
    p.set_defaults(func=cmd_attention_dump)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # an overflow ends as a non-finite value that the checks downstream
        # report in one line; a RuntimeWarning per operation would only add noise
        with np.errstate(all="ignore"):
            return args.func(args)
    except NumericError as exc:
        print(f"pairsieve: numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, CorpusError, ModelError, EvalError, OSError) as exc:
        print(f"pairsieve: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"pairsieve: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
