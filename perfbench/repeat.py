"""Run perfbench/run.py over several seeds per workload and summarise.

Usage:
    python3 perfbench/repeat.py [--workloads a,b] [--seeds 1-10] [--seconds 20]
                                [--trace 0|1] [--out FILE]

With the defaults this is the one command that runs every workload: for each
workload and seed it runs the benchmark once, one run at a time, then prints
each metric's median, quartiles and spread ((q3 - q1) / median) with its
unit, and each workload's error rate (failed / attempted commands). --out
writes the summary, every run's result and the environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None):
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            got = subprocess.run(cmd, capture_output=True, text=True)
            if got.returncode != 0:
                sys.stderr.write(got.stderr)
                print(f"{workload} seed {seed}: exit code {got.returncode}")
                return 1
            lines = got.stdout.strip().splitlines()
            context, result = json.loads(lines[0]), json.loads(lines[-1])
            runs.append({"seed": seed, "guards": context["guards"], **result})
            report["environment"] = context["environment"]
        names = list(runs[0]["metrics"])
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "runs": runs,
            "error_rate": failed / attempted,
            "all_correct": all(r["correct"] for r in runs),
            "metrics": {
                name: {"unit": runs[0]["metrics"][name]["unit"],
                       **summarise([r["metrics"][name]["value"] for r in runs])}
                for name in names
            },
            "guards": {
                name: summarise([r["guards"][name] for r in runs])
                for name in ("retrieval_map", "gate_noise_gap")
            },
        }
        report["workloads"][workload] = entry
        print(f"{workload}: {len(runs)} runs, error_rate {entry['error_rate']:.4g} "
              f"({failed}/{attempted}), all correct: {entry['all_correct']}")
        for name, m in entry["metrics"].items():
            bound = bounds.get(name)
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            flag = " (over bound/3)" if bound and m["spread"] and m["spread"] > bound / 3 else ""
            print(f"  {name:<30} median {m['median']:<12.6g} {m['unit']:<6} "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {spread}{flag}")
        for name, m in entry["guards"].items():
            print(f"  {name:<30} median {m['median']:<12.6g} (guard) "
                  f"min {min(m['values']):.6g}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
