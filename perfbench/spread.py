"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads smooth stream --seeds 1 2 3 4 5

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``. A spread above a third of the
bound is flagged, except for ``setup_s``. ``--out`` saves every run's
result, details and environment stamp as JSON. Runs go one at a time so
they do not disturb each other's timings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    record = {"seed": seed}
    for line in lines:
        record.update(json.loads(line))
    return record


def summarise(values):
    if len(values) < 2:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(q2) if q2 else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write all runs and summaries to this JSON file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: attempted {runs[-1]['attempted']} "
                  f"failed {runs[-1]['failed']}", file=sys.stderr, flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = summarise([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and summary[name]["spread"] > bound / 3:
                flag, steady = "  <-- above a third of the bound", False
            print(f"{workload:13s} {name:28s} median {summary[name]['median']:<12.6g} "
                  f"spread {summary[name]['spread']:.4f}"
                  + (f" bound {bound}" if bound is not None else "") + flag)
        details = {key: summarise([r["detail"][key] for r in runs])
                   for key in runs[0]["detail"] if all(key in r["detail"] for r in runs)}
        report["workloads"][workload] = {"summary": summary, "details": details, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
