"""Fast self-check of the benchmark (about a minute).

    python3 perfbench/selfcheck.py

Checks that ``BENCHMARK.json`` keeps to its format and names the same
metrics as ``workloads.json``, and only workloads it describes; runs
every workload of ``workloads.json`` on tiny
inputs with tracing off and on, and checks that the last output line
parses and carries every named metric with its unit and a finite value;
and checks that the harness fails without printing a result in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec, doc):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], w
        names.append(w["name"])
    assert set(names) <= set(doc["workloads"]), (names, list(doc["workloads"]))
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            assert set(m) == keys, m
            assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
            names.append(m["name"])
        assert [m["name"] for m in spec[group]] == list(doc[group]), group
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names)), names
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def check_result(proc, expected):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], (name, metric)
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def check_bare_directory():
    bare = ROOT / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "smooth", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    doc = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    check_spec(spec, doc)
    print("BENCHMARK.json and workloads.json agree", flush=True)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[group]}
        for workload in doc["workloads"]:
            check_result(run(ROOT, workload, trace), expected)
            print(f"{workload} --trace {trace}: {len(expected)} metrics ok", flush=True)
    check_bare_directory()
    print("bare directory: fails without a result line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
