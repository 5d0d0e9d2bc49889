"""Benchmark of the pairsieve command line, timed from outside.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every input is made by ``pairsieve gen-corpus`` from the seed. Each CLI
command runs as a child process of this one, one at a time, with BLAS
threads pinned to the number of usable cores.

--trace 0 repeats the workload's timed commands until their wall times add
up to S seconds, and sets the workload up SETUP_REPEATS times, spread over
that time. It reports set-up time as the median over set-ups, and timings of
the timed commands as each command's median over its repeats. --trace 1
sets up once plainly and once under perfbench/tracer.py, then alternates
plain and traced repeats of the timed commands until S seconds have passed
(at least TRACE_PAIRS pairs). It checks that all of them give the same
bytes, and reports per-layer metrics from the spans of the fastest traced
repeat.

Outputs are checked on every run. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A command that exits
non-zero or fails a check counts in "failed"; a metric that needs its output
is then null and "correct" is false. Scratch files go to .perfbench_work/ in
the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORK = ROOT / ".perfbench_work"
# Same entry point as the installed `pairsieve` console script.
ENTRY = "import sys; from pairsieve.cli import main; sys.exit(main())"
SETUP_REPEATS = 3
TRACE_PAIRS = 2


@dataclass(frozen=True)
class Workload:
    """What one workload runs. Settings are `--set KEY=VALUE` overrides."""

    corpus: tuple = ()        # gen-corpus overrides
    trains: tuple = ()        # (run name, train overrides) pairs
    timed_train: bool = True  # False: the trains only make checkpoints in set-up
    evals: tuple = ()         # runs whose final checkpoint `eval` scores on test.corpus
    dump: str | None = None   # run whose final checkpoint `attention-dump` reads


WORKLOADS = {
    "train-default": Workload(
        trains=(("run", ()),),
        evals=("run",),
    ),
    "retrieve-2k": Workload(
        corpus=("n_train=600", "n_test=2000"),
        trains=(("dot", ()), ("additive", ("attention_kind=additive",))),
        timed_train=False,
        evals=("dot", "additive"),
        dump="additive",
    ),
}

# Files a command writes that must repeat byte for byte. Train manifests are
# left out because they record the absolute corpus path.
OUTPUT_FILES = {
    "gen-corpus": ("train.corpus", "test.corpus", "manifest.json"),
    "train": ("metrics.csv", "checkpoint_freeze.json", "checkpoint_final.json"),
    "eval": ("report.csv",),
    "attention-dump": (),
}

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "corpus.sample_frames_s": "s",
    "corpus.sample_frames_calls": "count",
    "corpus.epoch_batches_s": "s",
    "corpus.load_s": "s",
    "corpus.load_mb_per_s": "MB/s",
    "corpus.generate_s": "s",
    "corpus.save_s": "s",
    "gradients.compute_s": "s",
    "gradients.step_ms_p50": "ms",
    "gradients.step_ms_p99": "ms",
    "optim.sgd_s": "s",
    "training.self_s": "s",
    "training.step_ms_p50": "ms",
    "training.step_ms_p99": "ms",
    "model.init_bvf_s": "s",
    "model.save_checkpoint_s": "s",
    "model.checkpoint_bytes": "bytes",
    "model.load_checkpoint_s": "s",
    "evaluation.score_matrix_s": "s",
    "evaluation.rank_s": "s",
    "evaluation.export_attention_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Cmd:
    """One CLI command and, once run, what it did."""

    kind: str
    argv: list
    out: Path             # directory (gen-corpus, train, eval) or file (attention-dump)
    wall: float = 0.0     # child start to exit, seconds
    rss_mb: float = 0.0   # peak resident memory of the child
    code: int = -1
    stdout: str = ""
    spans: dict | None = None  # tracer.py arrays, for a traced run


def sets(overrides):
    return [a for kv in overrides for a in ("--set", kv)]


def train_cmds(w, seed, corpus_dir, out_dir):
    return [
        Cmd("train", ["train", "--corpus", corpus_dir / "train.corpus", "--out", out_dir / name,
                      "--seed", seed, *sets(overrides)], out_dir / name)
        for name, overrides in w.trains
    ]


def setup_cmds(w, seed, d):
    cmds = [Cmd("gen-corpus", ["gen-corpus", "--out", d, "--seed", seed, *sets(w.corpus)], d)]
    if not w.timed_train:
        cmds += train_cmds(w, seed, d, d)
    return cmds


def timed_cmds(w, seed, setup_dir, d):
    cmds = train_cmds(w, seed, setup_dir, d) if w.timed_train else []
    runs = d if w.timed_train else setup_dir
    test = setup_dir / "test.corpus"
    for name in w.evals:
        cmds.append(Cmd("eval", ["eval", "--checkpoint", runs / name / "checkpoint_final.json",
                                 "--corpus", test, "--out", d / f"eval-{name}"], d / f"eval-{name}"))
    if w.dump is not None:
        cmds.append(Cmd("attention-dump", [
            "attention-dump", "--checkpoint", runs / w.dump / "checkpoint_final.json",
            "--corpus", test, "--out", d / "attention.csv"], d / "attention.csv"))
    return cmds


class Runner:
    """Runs commands one at a time and records failed commands and checks."""

    def __init__(self, work):
        self.work = work
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self.env = child_env()
        self.attempted = 0
        self.failed = set()   # ids of commands that exited non-zero or failed a check
        self.problems = []

    def fail(self, cmd, message):
        self.failed.add(id(cmd))
        self.problems.append(f"{cmd.kind} {cmd.out}: {message}")

    def run(self, cmd, traced=False):
        n = self.attempted
        self.attempted += 1
        argv = [str(a) for a in cmd.argv]
        spans_path = self.logs / f"{n:03d}.spans.npz"
        prog = ([sys.executable, str(TRACER), str(spans_path), "--", *argv] if traced
                else [sys.executable, "-c", ENTRY, *argv])
        out_path = self.logs / f"{n:03d}.out"
        with open(out_path, "w") as out, open(self.logs / f"{n:03d}.err", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(prog, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            cmd.wall = time.perf_counter() - start
        proc.returncode = cmd.code = os.waitstatus_to_exitcode(status)
        cmd.rss_mb = usage.ru_maxrss / 1024.0
        cmd.stdout = out_path.read_text()
        if cmd.code != 0:
            self.fail(cmd, f"exit code {cmd.code}")
        elif traced and not spans_path.is_file():
            self.fail(cmd, "tracer wrote no spans")
        elif traced:
            with np.load(spans_path) as arrays:
                cmd.spans = {key: arrays[key] for key in arrays.files}
        return cmd

    def run_all(self, cmds, traced=False):
        for cmd in cmds:
            self.run(cmd, traced)
        return cmds

    def check(self, cmd, fn):
        """Run one output check; a failing or crashing check fails the command."""
        if cmd.code != 0:
            return
        try:
            message = fn(cmd)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            message = f"check could not run: {exc!r}"
        if message:
            self.fail(cmd, message)


def blas_threads():
    """BLAS threads for every child: the cores this process may run on."""
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # keep src/ free of bytecode caches
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


# ---- outputs and checks ---------------------------------------------------

def fingerprint(cmd):
    """Digest of everything the command must reproduce exactly."""
    digest = hashlib.sha256(cmd.stdout.encode() if cmd.kind == "eval" else b"")
    paths = [cmd.out / f for f in OUTPUT_FILES[cmd.kind]] if cmd.out.is_dir() else [cmd.out]
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
    return digest.hexdigest()


def check_same(runner, reference, cmds):
    """Each command in cmds must reproduce the bytes of its peer in reference."""
    for ref, cmd in zip(reference, cmds):
        runner.check(cmd, lambda c, ref=ref: None if fingerprint(c) == fingerprint(ref)
                     else f"output differs from {ref.out}")


def manifest(directory):
    return json.loads((directory / "manifest.json").read_text())["config"]


def metrics_rows(run_dir):
    lines = (run_dir / "metrics.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def train_steps(cmd, corpus_dir):
    cfg = manifest(cmd.out)
    per_epoch = math.ceil(manifest(corpus_dir)["n_train"] / (cfg["batch_size"] // 2))
    return (cfg["freeze_epochs"] + cfg["joint_epochs"]) * per_epoch


def gate_noise_gap(cmd):
    last = metrics_rows(cmd.out)[-1]
    return float(last["z1_rate_noise"]) - float(last["z1_rate_clean"])


def check_train(cmd):
    cfg = manifest(cmd.out)
    epochs = len(metrics_rows(cmd.out))
    if epochs != cfg["freeze_epochs"] + cfg["joint_epochs"]:
        return f"metrics.csv has {epochs} epochs"
    if not gate_noise_gap(cmd) > 0:
        return f"gate_noise_gap {gate_noise_gap(cmd)} is not > 0"
    return None


def eval_map(cmd):
    summary = json.loads(cmd.stdout)
    return (summary["map_video_search"] + summary["map_sentence_search"]) / 2.0


def check_eval(cmd, corpus_dir):
    from pairsieve.evaluation import random_baseline_map

    n_test = manifest(corpus_dir)["n_test"]
    summary = json.loads(cmd.stdout)
    if summary["n_queries"] != n_test:
        return f"n_queries {summary['n_queries']} != {n_test}"
    if not eval_map(cmd) > random_baseline_map(n_test):
        return f"retrieval_map {eval_map(cmd)} is not above the random baseline"
    return None


def check_dump(cmd, corpus_dir):
    """One block of rows per test clip, in order; weights sum to 1 per clip."""
    n_test = manifest(corpus_dir)["n_test"]
    lines = cmd.out.read_text().splitlines()
    if lines[0] != "clip_id,frame,grounded,alpha,alpha_rel":
        return "bad header"
    clips = {}
    for ln in lines[1:]:
        clip_id, frame, _, alpha, alpha_rel = ln.split(",")
        rows = clips.setdefault(clip_id, [])
        if int(frame) != len(rows):
            return f"clip {clip_id} frame {frame} out of order"
        rows.append((float(alpha), float(alpha_rel)))
    if list(clips) != [f"test-{i:04d}" for i in range(n_test)]:
        return f"{len(clips)} clips, expected test-0000..test-{n_test - 1:04d} in order"
    for clip_id, rows in clips.items():
        if abs(sum(a for a, _ in rows) - 1.0) > 1e-9 or max(r for _, r in rows) != 1.0:
            return f"clip {clip_id} attention weights do not sum to 1"
    return None


def check_outputs(runner, w, corpus_dir, cmds):
    for cmd in cmds:
        if cmd.kind == "train" and w.timed_train:
            runner.check(cmd, check_train)
        elif cmd.kind == "eval":
            runner.check(cmd, lambda c: check_eval(c, corpus_dir))
        elif cmd.kind == "attention-dump":
            runner.check(cmd, lambda c: check_dump(c, corpus_dir))


def measured(fn):
    """fn(), or None when it needs the output of a command that failed."""
    try:
        return fn()
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError):
        return None


def ok(cmds):
    return [c for c in cmds if c.code == 0]


def guards(w, corpus_dir, setup, timed):
    """Quality guards, reported beside the metrics: eval mAP and the gate gap."""
    trains = [c for c in ok(timed if w.timed_train else setup) if c.kind == "train"]
    evals = [c for c in ok(timed) if c.kind == "eval"]
    return {
        "retrieval_map": measured(lambda: statistics.fmean(eval_map(c) for c in evals)),
        "gate_noise_gap": measured(lambda: statistics.fmean(gate_noise_gap(c) for c in trains)),
        "n_test": measured(lambda: manifest(corpus_dir)["n_test"]),
    }


# ---- trace 0: end-to-end metrics -------------------------------------------

def walls(reps, stat, kind=None):
    """Per timed command (of the given kind): one repeat of it that exited 0,
    and stat() of its wall times over the repeats that exited 0.

    Raises ValueError if some command exited non-zero in every repeat.
    """
    out = []
    for cmds in zip(*reps):
        if kind is None or cmds[0].kind == kind:
            if not ok(cmds):
                raise ValueError(f"{cmds[0].kind} failed in every repeat")
            out.append((ok(cmds)[0], stat([c.wall for c in ok(cmds)])))
    return out


def wall(cmds):
    if len(ok(cmds)) < len(cmds):
        raise ValueError("a command failed")
    return sum(c.wall for c in cmds)


def per_second(pairs, count):
    return sum(count(cmd) for cmd, _ in pairs) / sum(t for _, t in pairs)


def end_to_end(runner, w, seed, seconds):
    # Set-up repeats are spread over the run, one each time another
    # 1/SETUP_REPEATS of the timed seconds has passed, so that their median
    # sees the same drift in host speed as the timed repeats.
    corpus_dir = runner.work / "setup0"
    setups, reps, timed = [], [], 0.0
    while len(setups) < SETUP_REPEATS or not reps or timed < seconds:
        if len(setups) < SETUP_REPEATS and timed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(runner.run_all(
                setup_cmds(w, seed, runner.work / f"setup{len(setups)}")))
            continue
        d = runner.work / f"rep{len(reps)}"
        reps.append(runner.run_all(timed_cmds(w, seed, corpus_dir, d)))
        timed += sum(c.wall for c in reps[-1])
    for cmds in setups[1:]:
        check_same(runner, setups[0], cmds)
    for cmds in reps[1:]:
        check_same(runner, reps[0], cmds)
    check_outputs(runner, w, corpus_dir, reps[0])

    # Each timed command counts at its median over the repeats: the host's
    # speed drifts by up to 1.6x over seconds to minutes (see README.md).
    # Throughput counts the workload's main work: SGD steps per second of the
    # timed trains, or, with no timed train, queries per second of the evals
    # (n sentence queries plus n clip queries per eval).
    median = statistics.median
    if w.timed_train:
        throughput = measured(lambda: per_second(
            walls(reps, median, "train"), lambda c: train_steps(c, corpus_dir)))
    else:
        throughput = measured(lambda: per_second(
            walls(reps, median, "eval"), lambda c: 2 * manifest(corpus_dir)["n_test"]))
    metrics = {
        "wall_s": measured(lambda: sum(t for _, t in walls(reps, median))),
        "setup_s": measured(lambda: median(wall(cmds) for cmds in setups)),
        "throughput_per_s": throughput,
        "peak_rss_mb": measured(lambda: median(
            max(c.rss_mb for c in cmds) for cmds in reps if len(ok(cmds)) == len(cmds))),
    }
    info = guards(w, corpus_dir, sum(setups, []), sum(reps, []))
    info["setup_walls_s"] = [sum(c.wall for c in cmds) for cmds in setups]
    info["timed_walls_s"] = [sum(c.wall for c in cmds) for cmds in reps]
    return metrics, info


# ---- trace 1: per-layer metrics ---------------------------------------------

def span_table(cmds):
    """Name, duration, self time and extra of every span of the commands.

    A span's self time is its duration minus the durations of its children,
    and minus the time the tracer spent around each child outside its span.
    """
    cols = {"name": [], "dur": [], "own": [], "extra": []}
    for cmd in cmds:
        s = cmd.spans
        dur = s["end"] - s["start"]
        own = dur.copy()
        child = s["parent"] >= 0
        np.subtract.at(own, s["parent"][child], dur[child] + s["cost"][s["name"][child]])
        for key, value in (("name", s["names"][s["name"]]), ("dur", dur),
                           ("own", own), ("extra", s["extra"])):
            cols[key].append(value)
    return {key: np.concatenate(value) for key, value in cols.items()}


def step_times(s):
    """A training step runs from one batch draw to the next draw of its epoch."""
    draws = np.flatnonzero(s["names"][s["name"]] == "corpus.epoch_batches")
    start, parent, yielded = s["start"][draws], s["parent"][draws], s["extra"][draws]
    same_epoch_run = (yielded[:-1] == 1) & (parent[1:] == parent[:-1])
    return np.diff(start)[same_epoch_run]


def percentile_ms(values, q):
    """Nearest-rank percentile of durations in seconds, in milliseconds."""
    if len(values) == 0:
        return 0.0
    ordered = np.sort(values)
    return 1000.0 * float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def layer_metrics(setup, timed, plain_reps, traced_reps):
    t, st = span_table(timed), span_table(setup)

    def total(name, table=t, col="dur"):
        return float(table[col][table["name"] == name].sum())

    def durations(name):
        return t["dur"][t["name"] == name]

    load_s = total("corpus.load")
    saved = t["extra"][t["name"] == "model.save_checkpoint"]
    steps = np.concatenate([step_times(c.spans) for c in timed])
    grads = durations("gradients.compute_gradients")
    tracer_s = sum(float(c.spans["tracer_s"]) for c in timed)
    return {
        "corpus.sample_frames_s": total("corpus.sample_frames"),
        "corpus.sample_frames_calls": int(len(durations("corpus.sample_frames"))),
        "corpus.epoch_batches_s": total("corpus.epoch_batches"),
        "corpus.load_s": load_s,
        "corpus.load_mb_per_s": total("corpus.load", col="extra") / 1e6 / load_s,
        "corpus.generate_s": total("corpus.generate", st),
        "corpus.save_s": total("corpus.save", st),
        "gradients.compute_s": float(grads.sum()),
        "gradients.step_ms_p50": percentile_ms(grads, 0.50),
        "gradients.step_ms_p99": percentile_ms(grads, 0.99),
        "optim.sgd_s": total("optim.sgd_step"),
        "training.self_s": total("training.train", col="own"),
        "training.step_ms_p50": percentile_ms(steps, 0.50),
        "training.step_ms_p99": percentile_ms(steps, 0.99),
        "model.init_bvf_s": total("model.init_bvf"),
        "model.save_checkpoint_s": total("model.save_checkpoint"),
        "model.checkpoint_bytes": int(saved[-1]) if len(saved) else 0,
        "model.load_checkpoint_s": total("model.load_checkpoint"),
        "evaluation.score_matrix_s": total("evaluation.score_matrix"),
        "evaluation.rank_s": total("evaluation.bidirectional_retrieval", col="own"),
        "evaluation.export_attention_s": total("evaluation.export_attention"),
        "cli.overhead_s": wall(timed) - total("cli.main") - tracer_s,
        # Fastest traced minus fastest plain repeat, per command: one repeat
        # of each would mostly measure the host's speed changes between them.
        "trace.overhead_s": (sum(t for _, t in walls(traced_reps, min))
                             - sum(t for _, t in walls(plain_reps, min))),
    }


def per_layer(runner, w, seed, seconds):
    plain, traced = runner.work / "plain", runner.work / "traced"
    plain_setup = runner.run_all(setup_cmds(w, seed, plain / "setup"))
    traced_setup = runner.run_all(setup_cmds(w, seed, traced / "setup"), traced=True)
    plain_reps, traced_reps = [], []
    start = time.perf_counter()
    while len(plain_reps) < TRACE_PAIRS or time.perf_counter() - start < seconds:
        d = f"rep{len(plain_reps)}"
        plain_reps.append(runner.run_all(timed_cmds(w, seed, plain / "setup", plain / d)))
        traced_reps.append(runner.run_all(timed_cmds(w, seed, traced / "setup", traced / d),
                                          traced=True))
    check_same(runner, plain_setup, traced_setup)
    for cmds in plain_reps[1:] + traced_reps:
        check_same(runner, plain_reps[0], cmds)
    check_outputs(runner, w, plain / "setup", plain_reps[0])

    info = guards(w, plain / "setup", plain_setup, sum(plain_reps, []))
    complete = [cmds for cmds in traced_reps if all(c.spans is not None for c in cmds)]
    if not complete or any(c.spans is None for c in traced_setup):
        return dict.fromkeys(PER_LAYER), info
    metrics = measured(lambda: layer_metrics(traced_setup, min(complete, key=wall),
                                             plain_reps, traced_reps))
    return metrics or dict.fromkeys(PER_LAYER), info


# ---- environment and report ------------------------------------------------

def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(str(path.relative_to(SRC)).encode())
        src_digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pairsieve" / "cli.py").is_file():
        print(f"perfbench: no pairsieve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(work)
    try:
        if args.trace:
            metrics, info = per_layer(runner, w, args.seed, args.seconds)
            units = PER_LAYER
        else:
            metrics, info = end_to_end(runner, w, args.seed, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    missing = [name for name in units if metrics[name] is None]
    if missing and not runner.failed:
        runner.problems.append(f"no value for {', '.join(missing)}")
    for problem in runner.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not runner.failed and not missing
    info["error_rate"] = len(runner.failed) / runner.attempted
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": environment(), "guards": info}))
    for name, unit in units.items():
        print(f"{args.workload:<14} {name:<30} {show(metrics[name]):>14} {unit}")
    for name in ("retrieval_map", "gate_noise_gap", "error_rate"):
        print(f"{args.workload:<14} {name:<30} {show(info[name]):>14} (guard)")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def show(value):
    return "n/a" if value is None else f"{value:.6g}"


if __name__ == "__main__":
    sys.exit(main())
