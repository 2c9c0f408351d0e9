"""shadowtrack benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload smooth --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the last line of standard output carries
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it
carries the per-layer metrics, from spans recorded around the package's
public functions. Lines before it give the environment stamp, workload
details and every failed op with its cause. ``--tiny`` shrinks the inputs
for ``selfcheck.py``. See ``workloads.json`` for what each workload is.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("smooth", "stream", "cli-pipeline")
SETUP_REPEATS = 5
STARTUP_REPEATS = 3
NPROC = len(os.sched_getaffinity(0))
# BLAS threads are pinned so runs on one machine compare; never above nproc.
BLAS_THREADS = min(2, NPROC)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-check")
    parser.add_argument("--warmup-only", action="store_true",
                        help="import and run one warm-up op, then exit (times set-up)")
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def timed_process(argv, env):
    start = time.perf_counter()
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True, timeout=120)
    return time.perf_counter() - start


def make_workload(args, work_dir, in_process=None):
    import workloads

    if args.workload == "smooth":
        return workloads.Smooth(args.seed, args.tiny)
    if args.workload == "stream":
        return workloads.Stream(args.seed, args.tiny)
    # The CLI's scenarios have fixed sizes, so --tiny leaves this workload as is.
    return workloads.CliPipeline(args.seed, str(work_dir), child_env(), in_process)


def one_op(workload, k, tracer):
    from workloads import Op

    def scope(name):
        return tracer.active(k, name) if tracer else contextlib.nullcontext()

    with scope("bench.input"):
        inp = workload.make_input(k)
    start = time.perf_counter()
    try:
        with scope("bench.op"):
            out = workload.run_op(inp)
    except Exception as exc:  # a failed op is counted and reported, not fatal
        return Op(k, time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}",
                  workload.samples(inp))
    elapsed = time.perf_counter() - start
    try:
        failure, stats = workload.check(inp, out)
    except Exception as exc:
        failure, stats = f"check raised {type(exc).__name__}: {exc}", None
    return Op(k, elapsed, failure, workload.samples(inp), stats)


def run_ops(workload, start, seconds, tracer=None):
    """Closed loop for ``seconds``, ending on a whole cycle of op kinds."""
    ops = []
    k = start
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline or (k - start) % workload.cycle_len:
        ops.append(one_op(workload, k, tracer))
        k += 1
    return ops, k


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


# Set-up for cli-pipeline: import the CLI and answer ``--version``.
CLI_SETUP = """
import time
start = time.perf_counter()
import contextlib, io
from shadowtrack import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--version"])
    except SystemExit:
        pass
print(time.perf_counter() - start)
"""


def setup_seconds(args):
    """Median set-up time over fresh processes, each timing its own import
    and one warm-up op. Timing inside the child leaves out interpreter exit,
    where joining the BLAS thread pool adds a jitter of up to 0.2 s."""
    if args.workload == "cli-pipeline":
        argv = [sys.executable, "-c", CLI_SETUP]
    else:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", "0", "--warmup-only"]
        if args.tiny:
            argv.append("--tiny")
    env = child_env()

    def once():
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              check=True, timeout=120)
        return float(proc.stdout.split()[-1])

    return statistics.median(once() for _ in range(SETUP_REPEATS))


def peak_rss_mb(workload_name):
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-pipeline" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(args, workload, ops, finished, setup):
    seconds = [op.seconds for op in ops]
    return {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
        "op_p50_ms": (percentile(seconds, 50) * 1e3, "ms"),
        "op_p95_ms": (percentile(seconds, 95) * 1e3, "ms"),
        "samples_per_s": (sum(op.samples for op in ops) / sum(seconds), "1/s"),
        "rmse_ratio": (workload.rmse_ratio(ops), "ratio"),
        "affine_digits": (finished["affine_digits"], "digits"),
    }


def cli_startup_ms():
    """Subprocess import of ``shadowtrack.cli`` next to a bare interpreter."""
    env = child_env()

    def median_ms(code):
        return 1e3 * statistics.median(
            timed_process([sys.executable, "-c", code], env) for _ in range(STARTUP_REPEATS))

    return median_ms("import shadowtrack.cli"), median_ms("pass")


def traced(args, work_dir):
    """Half the run untraced, half traced; per-layer metrics from the traced half."""
    import workloads
    from tracing import Tracer, layer_metrics

    tracer = Tracer()

    def in_process(argv):
        if tracer.op is None:
            return workloads.run_cli_in_process(argv)
        with tracer.span(f"cli.{argv[0]}"):
            return workloads.run_cli_in_process(argv)

    workload = make_workload(args, work_dir, in_process)
    for k in workload.warmup:
        one_op(workload, k, None)
    plain, k = run_ops(workload, workload.first, args.seconds / 2)
    tracer.install()
    try:
        spanned, _ = run_ops(workload, k, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    ops = plain + spanned
    workload.finish(ops)
    values = layer_metrics(tracer.spans, len(spanned))
    values["trace.overhead_share"] = (
        statistics.median(op.seconds for op in spanned)
        / statistics.median(op.seconds for op in plain) - 1.0)
    startup = cli_startup_ms() if args.workload == "cli-pipeline" else (0.0, 0.0)
    values["cli.startup_ms"], values["cli.python_startup_ms"] = startup
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    return workload, ops, {name: (values[name], units[name]) for name in units}, tracer


def untraced(args, work_dir):
    workload = make_workload(args, work_dir)
    setup = setup_seconds(args)
    for k in workload.warmup:
        one_op(workload, k, None)
    ops, _ = run_ops(workload, workload.first, args.seconds)
    finished = workload.finish(ops)
    return workload, ops, end_to_end(args, workload, ops, finished, setup)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def blas_threads_in_use():
    """Thread count reported by the OpenBLAS library numpy loaded, if found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment(args):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "shadowtrack" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a shadowtrack checkout",
              file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("error: BENCHMARK.json not found beside perfbench/", file=sys.stderr)
        return 2
    for var, value in child_env().items():
        os.environ[var] = value
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.warmup_only:
        workload = make_workload(args, ROOT / ".perfbench_work" / "warmup")
        one_op(workload, workload.warmup[0], None)
        print(time.perf_counter() - started)
        return 0

    import workloads

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = environment(args)
    try:
        if args.trace:
            workload, ops, metrics, tracer = traced(args, work_dir)
            tracer.dump(str(ROOT / ".perfbench_out"
                            / f"spans-{args.workload}-seed{args.seed}.json"), env)
        else:
            workload, ops, metrics = untraced(args, work_dir)
    finally:
        workloads.remove_tree(work_dir)

    failures = [{"op": op.index, "cause": op.failure} for op in ops if op.failure]
    for failure in failures:
        print(f"failed op {failure['op']}: {failure['cause']}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": {"ops": len(ops), **workload.details(ops)}}))
    print(json.dumps({"failures": failures}))
    bad = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
