"""End-to-end command line runs: artifacts, output, and exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pairsieve import evaluation
from pairsieve.cli import main
from pairsieve.config import CONFIG_SCHEMA, train_config_from
from pairsieve.corpus import load_corpus
from pairsieve.model import ATTENTION_KINDS, init_model, load_checkpoint, save_checkpoint
from pairsieve.training import train

from oracles import attention_rows, corpus_fields, corpus_line, reference_attention_dump

CORPUS_KEYS = ["--set", "n_train=30", "--set", "n_test=8",
               "--set", "d=8", "--set", "k=12"]
TRAIN_KEYS = ["--set", "d_emb=8", "--set", "batch_size=8", "--set", "n_f=3",
              "--set", "freeze_epochs=1", "--set", "joint_epochs=2",
              "--set", "bvf_count=2"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One corpus and one finished training run, shared by command tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = root / "corpus"
    run_dir = root / "run"
    assert main(["gen-corpus", "--out", str(corpus_dir), "--seed", "5"]
                + CORPUS_KEYS) == 0
    assert main(["train", "--corpus", str(corpus_dir / "train.corpus"),
                 "--out", str(run_dir), "--quiet"] + TRAIN_KEYS) == 0
    return root


def test_gen_corpus_artifacts(workspace, capsys):
    corpus_dir = workspace / "corpus"
    train = load_corpus(corpus_dir / "train.corpus")
    test = load_corpus(corpus_dir / "test.corpus")
    assert len(train) == 30 and len(test) == 8
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    assert manifest["command"] == "gen-corpus"
    assert manifest["config"]["corpus_seed"] == 5
    assert manifest["artifacts"]["train_corpus"] == "train.corpus"

    out = workspace / "corpus2"
    assert main(["gen-corpus", "--out", str(out), "--seed", "5"] + CORPUS_KEYS) == 0
    assert "30 train / 8 test" in capsys.readouterr().out
    assert (out / "train.corpus").read_bytes() == (corpus_dir / "train.corpus").read_bytes()


def test_train_artifacts(workspace):
    run_dir = workspace / "run"
    rows = (run_dir / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["freeze", "joint", "joint"]
    load_checkpoint(run_dir / "checkpoint_final.json")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["freeze_epochs"] == 1
    assert manifest["artifacts"]["checkpoint"] == "checkpoint_final.json"


def test_train_is_reproducible(workspace):
    corpus = workspace / "corpus" / "train.corpus"
    a, b = workspace / "run_a", workspace / "run_b"
    for out in (a, b):
        assert main(["train", "--corpus", str(corpus), "--out", str(out),
                     "--quiet", "--seed", "7"] + TRAIN_KEYS) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "checkpoint_final.json").read_bytes() == (b / "checkpoint_final.json").read_bytes()


def test_same_seed_reruns_write_byte_identical_manifests(workspace):
    # the environment entry holds versions only, no time or host detail, so a rerun
    # with the same seed writes the same manifest bytes
    corpus = workspace / "corpus" / "train.corpus"
    reruns = [workspace / "rerun_a", workspace / "rerun_b"]
    for out in reruns:
        assert main(["gen-corpus", "--out", str(out / "corpus"), "--seed", "5"]
                    + CORPUS_KEYS) == 0
        assert main(["train", "--corpus", str(corpus), "--out", str(out / "run"), "--quiet",
                     "--seed", "7"] + TRAIN_KEYS) == 0
    for name in ("corpus/manifest.json", "run/manifest.json"):
        first = (reruns[0] / name).read_bytes()
        assert first == (reruns[1] / name).read_bytes(), name
        assert set(json.loads(first)["environment"]) == {"python", "numpy", "blas"}, name


def test_train_logs_epochs_unless_quiet(workspace, capsys):
    corpus = workspace / "corpus" / "train.corpus"
    assert main(["train", "--corpus", str(corpus)] + TRAIN_KEYS) == 0
    out = capsys.readouterr().out
    assert "epoch   0 [freeze]" in out
    assert "done:" in out


def test_eval_command(workspace, capsys):
    run_dir = workspace / "run"
    out_dir = workspace / "eval"
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint_final.json"),
                 "--corpus", str(workspace / "corpus" / "test.corpus"),
                 "--out", str(out_dir)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_queries"] == 8
    assert 0.0 <= summary["map_video_search"] <= 100.0
    report = (out_dir / "report.csv").read_text().splitlines()
    assert report[0] == "metric,direction,value"
    assert len(report) == 1 + 2 * 4  # map + three recall rows per direction


def test_eval_leaves_numpy_random_unloaded(workspace):
    # importing numpy.random adds about 6 MB to eval's peak RSS
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["eval", "--checkpoint", str(workspace / "run" / "checkpoint_final.json"),
            "--corpus", str(workspace / "corpus" / "test.corpus")]
    code = ("import sys\n"
            "from pairsieve.cli import main\n"
            f"print(main({argv!r}), 'numpy.random' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.stdout.splitlines()[-1:] == ["0 False"], done.stdout + done.stderr


def test_ablate_command(workspace, capsys):
    corpus_dir = workspace / "corpus"
    out_dir = workspace / "ablate"
    code = main(["ablate", "--corpus", str(corpus_dir / "train.corpus"),
                 "--test-corpus", str(corpus_dir / "test.corpus"),
                 "--axis", "bvf_count", "--values", "2,3",
                 "--out", str(out_dir), "--seed", "0"] + TRAIN_KEYS)
    assert code == 0
    lines = (out_dir / "ablation.csv").read_text().splitlines()
    assert lines[0].startswith("axis,value,map_video_search")
    assert len(lines) == 3
    assert lines[1].startswith("bvf_count,2,")
    assert (out_dir / "bvf_count=2" / "metrics.csv").exists()
    assert (out_dir / "bvf_count=3" / "checkpoint_final.json").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["artifacts"]["values"] == ["2", "3"]


def test_ablate_manifest_records_the_resolved_config_and_seed(workspace, tmp_path):
    # every training key but the swept one, the --seed value included: training
    # from the manifest's config reproduces the run's checkpoint
    corpus_dir = workspace / "corpus"
    out_dir = tmp_path / "ablate"
    assert main(["ablate", "--corpus", str(corpus_dir / "train.corpus"),
                 "--test-corpus", str(corpus_dir / "test.corpus"), "--axis", "bvf_count",
                 "--values", "2", "--out", str(out_dir), "--seed", "7"] + TRAIN_KEYS) == 0
    config = json.loads((out_dir / "manifest.json").read_text())["config"]
    train_keys = {key for key, (_, (owner, _)) in CONFIG_SCHEMA.items() if owner == "train"}
    assert set(config) == train_keys - {"bvf_count"}
    assert config["seed"] == 7
    params, _ = train(train_config_from({**config, "bvf_count": 2}),
                      load_corpus(corpus_dir / "train.corpus"))
    ran = load_checkpoint(out_dir / "bvf_count=2" / "checkpoint_final.json")
    assert params.flat.tobytes() == ran.flat.tobytes()


def test_negative_seeds_end_in_one_error_line(workspace, tmp_path, capsys):
    corpus_dir = workspace / "corpus"
    train_args = ["train", "--corpus", str(corpus_dir / "train.corpus"), "--quiet"] + TRAIN_KEYS
    ablate_args = ["ablate", "--corpus", str(corpus_dir / "train.corpus"),
                   "--test-corpus", str(corpus_dir / "test.corpus"), "--axis", "bvf_count",
                   "--values", "2", "--out", str(tmp_path / "ablate")] + TRAIN_KEYS
    cases = [
        (["gen-corpus", "--out", str(tmp_path / "a"), "--seed", "-1"], "corpus_seed"),
        (["gen-corpus", "--out", str(tmp_path / "b"), "--set", "corpus_seed=-2"], "corpus_seed"),
        (train_args + ["--seed", "-1"], "seed"),
        (train_args + ["--set", "seed=-5"], "seed"),
        (ablate_args + ["--seed", "-1"], "seed"),
    ]
    for argv, key in cases:
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == f"pairsieve: error: {key} must be >= 0\n", argv
    assert not any((tmp_path / name).exists() for name in ("a", "b", "ablate"))


def test_attention_dump_rows_come_in_corpus_and_frame_order(workspace, tmp_path, monkeypatch):
    # a corpus of 2 to 4 frames per clip, dumped in chunks of two: the length groups
    # interleave and split over chunks, and the rows keep the corpus's order
    corpus_dir = tmp_path / "mixed"
    assert main(["gen-corpus", "--out", str(corpus_dir), "--seed", "3", "--set", "n_test=20",
                 "--set", "frame_len_min=2", "--set", "frame_len_max=4"] + CORPUS_KEYS) == 0
    records = load_corpus(corpus_dir / "test.corpus")
    lengths = [r.frames_raw.shape[0] for r in records]
    assert lengths != sorted(lengths) and max(map(lengths.count, lengths)) > 2
    monkeypatch.setattr(evaluation, "BLOCK_CLIPS", 2)
    checkpoint = workspace / "run" / "checkpoint_final.json"
    out = tmp_path / "attention.csv"
    assert main(["attention-dump", "--checkpoint", str(checkpoint),
                 "--corpus", str(corpus_dir / "test.corpus"), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "clip_id,frame,grounded,alpha,alpha_rel"
    rows = [line.split(",") for line in lines[1:]]
    want = attention_rows(records, reference_attention_dump(load_checkpoint(checkpoint), records))
    assert [(r[0], int(r[1]), int(r[2])) for r in rows] == [
        (w["clip_id"], w["frame"], w["grounded"]) for w in want]
    assert np.allclose([[float(r[3]), float(r[4])] for r in rows],
                       [[w["alpha"], w["alpha_rel"]] for w in want], rtol=0, atol=1e-15)


def test_attention_dump_command(workspace, capsys):
    run_dir = workspace / "run"
    args = ["attention-dump", "--checkpoint", str(run_dir / "checkpoint_final.json"),
            "--corpus", str(workspace / "corpus" / "test.corpus")]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "clip_id,frame,grounded,alpha,alpha_rel"
    assert len(lines) > 8

    out_file = workspace / "attention.csv"
    assert main(args + ["--out", str(out_file)]) == 0
    assert out_file.read_text().splitlines()[0] == lines[0]


def test_config_file_with_overrides(workspace, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("d_emb = 8\nbatch_size = 8\nn_f = 3\n"
                   "freeze_epochs = 1\njoint_epochs = 1\nbvf_count = 2\n")
    corpus = workspace / "corpus" / "train.corpus"
    assert main(["train", "--corpus", str(corpus), "--config", str(cfg),
                 "--quiet", "--set", "joint_epochs=2"]) == 0
    assert "done: 3 epochs" in capsys.readouterr().out


def test_exit_code_one_on_bad_input(workspace, tmp_path, capsys):
    corpus = workspace / "corpus" / "train.corpus"
    assert main(["train", "--corpus", str(corpus), "--set", "bogus=1"]) == 1
    assert main(["train", "--corpus", str(tmp_path / "missing.corpus")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["eval", "--checkpoint", str(bad), "--corpus", str(corpus)]) == 1
    capsys.readouterr()

    # a NaN weight and a repeated record id each end in one error line
    checkpoint = workspace / "run" / "checkpoint_final.json"
    doc = json.loads(checkpoint.read_text())
    doc["tensors"]["vision.weight"]["data"][0] = float("nan")
    nan_ckpt = tmp_path / "nan.json"
    nan_ckpt.write_text(json.dumps(doc))
    lines = corpus.read_text().splitlines()
    dup_corpus = tmp_path / "dup.corpus"
    dup_corpus.write_text("\n".join(lines[:3] + lines[1:2]) + "\n")
    for ckpt, records in ((nan_ckpt, corpus), (checkpoint, dup_corpus)):
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(records)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pairsieve: error:") and err.count("\n") == 1, err

    # a record one dimension short under "d": null, and a corpus whose d is not the
    # checkpoint's d_in, each end in one error line from eval and attention-dump;
    # each case is written in both corpus file versions
    test_corpus = workspace / "corpus" / "test.corpus"
    header, records = corpus_fields(test_corpus)
    short = [dict(rec, sentence=rec["sentence"][:-1], frames=rec["frames"][:, :-1])
             for rec in records]
    for version in (2, 1):
        full_lines = [corpus_line(rec, version) for rec in records]
        short_lines = [corpus_line(rec, version) for rec in short]
        ragged_corpus = tmp_path / f"ragged_v{version}.corpus"
        ragged_corpus.write_text("\n".join(
            [json.dumps({**header, "version": version, "d": None}), *full_lines[:2],
             short_lines[2]]) + "\n")
        narrow_corpus = tmp_path / f"narrow_v{version}.corpus"
        narrow_corpus.write_text("\n".join(
            [json.dumps({**header, "version": version, "d": 7}), *short_lines]) + "\n")
        assert load_corpus(narrow_corpus)[0].sentence_raw.shape == (7,)
        for bad_corpus, why in ((ragged_corpus, "line 4: dimension mismatch"),
                                (narrow_corpus, "feature dimension 7")):
            for command in (["eval"], ["attention-dump", "--out", str(tmp_path / "att.csv")]):
                assert main(command + ["--checkpoint", str(checkpoint),
                                       "--corpus", str(bad_corpus)]) == 1
                err = capsys.readouterr().err
                assert err.startswith("pairsieve: error:") and err.count("\n") == 1, err
                assert why in err, err
    out = tmp_path / "ablate_narrow"
    assert main(["ablate", "--corpus", str(corpus), "--test-corpus", str(narrow_corpus),
                 "--axis", "bvf_count", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pairsieve: error:") and err.count("\n") == 1, err
    assert not out.exists()

    # non-finite config floats, from --set or a file, fail before any work starts
    bad_floats = [["train", "--corpus", str(corpus), "--set", f"{key}={value}"]
                  for key, value in (("lr", "nan"), ("tau", "nan"), ("weight_decay", "nan"),
                                     ("triplet_margin", "nan"), ("lr", "inf"),
                                     ("momentum", "-inf"), ("lr_drop_factor", "1e400"))]
    bad_floats.append(["gen-corpus", "--out", str(tmp_path / "nan_corpus"),
                       "--set", "feature_noise_sigma=nan"])
    nan_config = tmp_path / "nan.cfg"
    nan_config.write_text("tau = nan\n")
    bad_floats.append(["train", "--corpus", str(corpus), "--config", str(nan_config)])
    # a corpus, checkpoint or config file that is not UTF-8
    utf16_corpus = tmp_path / "utf16.corpus"
    utf16_corpus.write_bytes(b"\xff\xfe" + corpus.read_bytes())
    raw = bytearray(checkpoint.read_bytes())
    raw[len(raw) // 2] = 0xFF
    binary_ckpt = tmp_path / "binary.json"
    binary_ckpt.write_bytes(bytes(raw))
    binary_config = tmp_path / "binary.cfg"
    binary_config.write_bytes(b"lr = 0.1 \xff\n")
    for command in bad_floats + [
            ["train", "--corpus", str(utf16_corpus)],
            ["eval", "--checkpoint", str(checkpoint), "--corpus", str(utf16_corpus)],
            ["eval", "--checkpoint", str(binary_ckpt), "--corpus", str(corpus)],
            ["attention-dump", "--checkpoint", str(binary_ckpt), "--corpus", str(corpus)],
            ["train", "--corpus", str(corpus), "--config", str(binary_config)]]:
        assert main(command) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("pairsieve: error:") and err.count("\n") == 1, err
    assert not (tmp_path / "nan_corpus").exists()

    # finite values that overflow: weights of +-1e308 give NaN scores and attention
    # weights under every attention kind, and a noise scale of 1e308 gives non-finite
    # features; each ends in one error line, with no RuntimeWarning before it
    huge_ckpts = []
    for kind in ATTENTION_KINDS:
        params = init_model(8, 8, kind, "residual", 2, np.random.default_rng(0))
        weight = params.tensors["vision.weight"]
        weight[...] = np.resize([1e308, -1e308], weight.shape)
        huge_ckpts.append(tmp_path / f"huge_{kind}.json")
        save_checkpoint(params, huge_ckpts[-1])
    for command in (
            *(["eval", "--checkpoint", str(ckpt), "--corpus", str(test_corpus)]
              for ckpt in huge_ckpts),
            ["attention-dump", "--checkpoint", str(huge_ckpts[1]), "--corpus", str(test_corpus),
             "--out", str(tmp_path / "huge_att.csv")],
            ["gen-corpus", "--out", str(tmp_path / "huge_corpus"),
             "--set", "feature_noise_sigma=1e308"] + CORPUS_KEYS):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would be a second message
            assert main(command) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("pairsieve: error:") and err.count("\n") == 1, err
    assert not (tmp_path / "huge_att.csv").exists()

    # bad ablation values fail before any training run starts
    for axis, values in (("discriminator_enabled", "maybe"), ("bvf_count", "a,b"),
                         ("attention_kind", "dot,bogus")):
        out = tmp_path / f"ablate_{axis}"
        assert main(["ablate", "--corpus", str(corpus), "--test-corpus", str(test_corpus),
                     "--axis", axis, "--values", values, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pairsieve: error:") and err.count("\n") == 1, err
        assert not out.exists()

    # a positive half larger than the 30-clip corpus fails before any run directory
    out = tmp_path / "big_batch"
    assert main(["train", "--corpus", str(corpus), "--out", str(out),
                 "--set", "batch_size=62"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pairsieve: error:") and err.count("\n") == 1, err
    assert "batch_size 62" in err and "has 30" in err, err
    assert not out.exists()


def test_a_deeply_nested_checkpoint_is_one_error_line(workspace, tmp_path, capsys):
    # json.loads raises RecursionError, not JSONDecodeError, on nesting this deep
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000)
    test_corpus = workspace / "corpus" / "test.corpus"
    for command in (["eval"], ["attention-dump", "--out", str(tmp_path / "att.csv")]):
        assert main(command + ["--checkpoint", str(nested), "--corpus", str(test_corpus)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pairsieve: error: invalid checkpoint:"), err
        assert err.count("\n") == 1, err
    assert not (tmp_path / "att.csv").exists()


def test_gen_corpus_refuses_an_oversized_spec_before_allocating(tmp_path, capsys):
    # d=1e8 asks for 2.1e12 frame floats (16 TiB): one error line naming the keys,
    # the value and the limit, before any array is drawn
    out = tmp_path / "huge_corpus"
    for setting, message in (
            ("d=100000000", "(n_train + n_test) * frame_len_max * d = 2100000000000 exceeds "
                            "the limit of 134217728 feature floats"),
            ("k=100000000", "k * d = 3200000000 exceeds the limit of 134217728 feature floats")):
        tracemalloc.start()
        try:
            assert main(["gen-corpus", "--out", str(out), "--set", setting]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == f"pairsieve: error: {message}\n"
        assert peak < 4 * 2**20, peak
        assert not out.exists()



def test_train_refuses_oversized_sizes_before_allocating(workspace, capsys):
    # n_f=1e8 or d_emb=1e7 would ask for tens of GiB per step tensor, and
    # bvf_count=1e8 for a 6 GiB model: one error line each, before allocating
    corpus = workspace / "corpus" / "train.corpus"
    for setting, message in (
            ("n_f=100000000", "batch_size * n_f * max(d_in, d_emb, d_att) = 6400000000 "
                              "exceeds the limit of 16777216 floats per step tensor"),
            ("d_emb=10000000", "batch_size * n_f * max(d_in, d_emb, d_att) = 240000000 "
                               "exceeds the limit of 16777216 floats per step tensor"),
            ("bvf_count=100000000", "a model with d_in=8, d_emb=8, bvf_count=100000000, "
                                    "d_att=8 has 800000148 values, above the limit of 67108864")):
        tracemalloc.start()
        try:
            code = main(["train", "--corpus", str(corpus), "--quiet"] + TRAIN_KEYS
                        + ["--set", setting])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == f"pairsieve: error: {message}\n"
        assert peak < 4 * 2**20, peak


def test_ablate_refuses_an_oversized_value_before_any_run(workspace, tmp_path, capsys):
    # the second value's model is over the limit: nothing is trained or written
    corpus_dir = workspace / "corpus"
    out = tmp_path / "ablate_oversized"
    code = main(["ablate", "--corpus", str(corpus_dir / "train.corpus"),
                 "--test-corpus", str(corpus_dir / "test.corpus"), "--axis", "bvf_count",
                 "--values", "2,100000000", "--out", str(out)] + TRAIN_KEYS)
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("pairsieve: error: a model with d_in=8, d_emb=8, bvf_count=100000000, "
                   "d_att=8 has 800000148 values, above the limit of 67108864\n")
    assert not out.exists()


# a one-epoch train; no spaces, so one flipped byte cannot lengthen a number,
# and a string value last, so a flipped final newline cannot either
FUZZ_CONFIG = ("d_emb=6\nbatch_size=8\nn_f=3\nfreeze_epochs=0\njoint_epochs=1\n"
               "bvf_count=2\nlr=0.1\ntau=1.0\nloss_kind=bce\nattention_kind=dot\n")
JSON_SWAPS = ("a string", None, float("nan"), 1e308, [[1.0, [2.0]]])
CONFIG_SWAPS = ("a string", "null", "nan", "1e308", "[[1.0, [2.0]]]")


def _json_slots(node):
    """(container, key) of every value in a JSON tree; of a list, its first item."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield node, key
            yield from _json_slots(value)
    elif isinstance(node, list) and node:
        yield node, 0
        yield from _json_slots(node[0])


def _mutant(data, kind, rng):
    """One byte flip, truncation or value swap of a checkpoint or config file."""
    if kind == "byte flip":
        out = bytearray(data)
        out[rng.integers(len(out))] ^= int(rng.integers(1, 256))
        return bytes(out)
    if kind == "truncation":
        return data[:rng.integers(len(data))]
    text = data.decode()
    if text.startswith("{"):
        doc = json.loads(text)
        slots = list(_json_slots(doc))
        node, key = slots[rng.integers(len(slots))]
        node[key] = JSON_SWAPS[rng.integers(len(JSON_SWAPS))]
        return json.dumps(doc).encode()
    lines = text.splitlines()
    i = rng.integers(len(lines))
    lines[i] = lines[i].partition("=")[0] + "=" + CONFIG_SWAPS[rng.integers(len(CONFIG_SWAPS))]
    return ("\n".join(lines) + "\n").encode()


def test_checkpoint_and_config_mutation_fuzz(workspace, tmp_path, capsys):
    # 300 seeded mutants, run in process: a checkpoint through eval or
    # attention-dump, a config file through train. Each ends in exit 0 or 1, or
    # 2 for a numeric failure in train (lr=1e308), with at most one stderr line
    corpus = workspace / "corpus"
    checkpoint, config = tmp_path / "checkpoint.json", tmp_path / "run.cfg"
    sources = {checkpoint: (workspace / "run" / "checkpoint_final.json").read_bytes(),
               config: FUZZ_CONFIG.encode()}
    commands = {
        "eval": (checkpoint, ["eval", "--checkpoint", str(checkpoint),
                              "--corpus", str(corpus / "test.corpus")]),
        "attention-dump": (checkpoint, ["attention-dump", "--checkpoint", str(checkpoint),
                                        "--corpus", str(corpus / "test.corpus"),
                                        "--out", str(tmp_path / "attention.csv")]),
        "train": (config, ["train", "--config", str(config),
                           "--corpus", str(corpus / "train.corpus"), "--quiet"]),
    }
    kinds = ("byte flip", "truncation", "value swap")
    rng = np.random.default_rng(zlib.crc32(b"checkpoint and config mutation fuzz"))
    codes = Counter()
    for i in range(300):
        command, kind = list(commands)[i % 3], kinds[i // 3 % 3]
        target, argv = commands[command]
        target.write_bytes(_mutant(sources[target], kind, rng))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second message
            try:
                code = main(argv)
            except Exception as exc:  # report the mutant that escaped
                pytest.fail(f"mutant {i} ({command}, {kind}): {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        assert err.count("\n") <= 1 and "Traceback" not in err, (i, command, kind, err)
        assert code in (0, 1) or (code == 2 and command == "train"
                                  and err.startswith("pairsieve: numeric failure:")), \
            (i, command, kind, code, err)
        codes[command, code] += 1
    assert all(codes[command, 0] and codes[command, 1] for command in commands), codes

@pytest.mark.parametrize("message,shown", [
    ("Unable to allocate 745. GiB for an array", "Unable to allocate 745. GiB for an array"),
    ("", "out of memory"),
])
def test_memory_error_is_one_line(tmp_path, monkeypatch, capsys, message, shown):
    def out_of_memory(spec):
        raise MemoryError(message)
    monkeypatch.setattr("pairsieve.cli.generate_corpus", out_of_memory)
    assert main(["gen-corpus", "--out", str(tmp_path / "corpus")] + CORPUS_KEYS) == 1
    assert capsys.readouterr().err == f"pairsieve: error: {shown}\n"


def test_exit_code_two_on_numeric_failure(workspace, capsys):
    import numpy as np
    corpus = workspace / "corpus" / "train.corpus"
    with np.errstate(all="ignore"):
        code = main(["train", "--corpus", str(corpus), "--quiet"] + TRAIN_KEYS
                    + ["--set", "lr=1e200", "--set", "freeze_epochs=0"])
    assert code == 2
    assert "numeric failure" in capsys.readouterr().err


def test_numeric_failure_names_its_step_before_any_checkpoint(workspace, tmp_path, capsys):
    corpus = workspace / "corpus" / "train.corpus"
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would be a second message
        code = main(["train", "--corpus", str(corpus), "--out", str(out), "--quiet"]
                    + TRAIN_KEYS + ["--set", "lr=1e300"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith("pairsieve: numeric failure: epoch 0, step ")
    assert "(freeze): non-finite parameter in " in err
    assert sorted(p.name for p in out.iterdir()) == ["metrics.csv"]


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required --corpus
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()
