"""The three benchmark workloads: smooth, stream and cli-pipeline.

Each workload is a closed loop with one caller. The harness in ``run.py``
calls ``make_input(k)`` (untimed), then ``run_op(input)`` (timed), then
``check(input, output)`` (untimed), and after the loop ``finish(ops)``
for checks that cover the whole run. Inputs come from the run seed and
the op index only, so the same seed gives the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from shadowtrack import cli, fileio, geometry, scenarios, solver
from shadowtrack.geometry import PolarObservation, SensorSite
from shadowtrack.matrices import build_time_grid
from shadowtrack.tracker import POLICY_FORECAST, SequentialTracker, TrackerConfig

EPS = float(np.finfo(float).eps)


def digits(rel_err: float) -> float:
    """Correct decimal digits of a relative error, capped at float64's."""
    return -math.log10(max(rel_err, EPS))


def affine_rel_err(positions, affine) -> float:
    """Worst position error relative to the largest affine value."""
    return float(np.max(np.abs(positions - affine)) / np.max(np.abs(affine)))


def op_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0] % 2**31)


def median_op_rmse_ratio(ops) -> float:
    """Median over good ops of each op's smoothed error over its raw error
    against truth; robust to the odd op whose truth swings inside a long gap."""
    return float(np.median([math.sqrt(op.stats["smoothed_sq"] / op.stats["raw_sq"])
                            for op in ops if op.failure is None]))


@dataclass(slots=True)
class Op:
    index: int
    seconds: float
    failure: str | None
    samples: int
    stats: object = None


def check_track(traj, samples: int, dim: int) -> str | None:
    """Shape and finiteness of a solved trajectory."""
    lead = (samples,) if dim == 1 else (samples, dim)
    tail = (samples - 1,) if dim == 1 else (samples - 1, dim)
    for name, shape in (("positions", lead), ("velocities", lead), ("accelerations", tail)):
        arr = getattr(traj, name)
        if arr.shape != shape:
            return f"{name} shape {arr.shape}, expected {shape}"
        if not np.all(np.isfinite(arr)):
            return f"{name} not finite"
    return None


# --- smooth ---------------------------------------------------------------


class Smooth:
    """One op is one fixed-eta batch solve on a fresh seeded series.

    Scalar series sit on irregular grids whose gaps are log-uniform over
    ``GAP_DECADES`` decades, with ``ZERO_SHARE`` of the interior slots as
    zero-weight placeholders: the inputs on which the dense solver loses
    rank and accuracy. Planar series come from range-bearing fixes
    converted with the full propagated covariance, so their information
    matrices are full and correlated. Ops follow ``CYCLE`` and the loop
    stops only at a cycle boundary, so every run has the same mix; the
    median op is a planar solve and the 95th percentile a 1600-sample one.
    After the loop the first cycle's grids and weights are solved again
    with noiseless affine data, which the exact solution reproduces; the
    mean of their correct digits (a geometric mean of the errors) is
    steadier across seeds than the worst of five grids.
    """

    name = "smooth"
    GAP_DECADES = 3.0
    ZERO_SHARE = 0.1
    SCALAR_ETA = 100.0
    PLANAR_ETA = 10.0
    CYCLE = ("scalar-1600", "scalar-400", "planar-400", "scalar-400", "planar-400")
    TINY_CYCLE = ("scalar-160", "scalar-40", "planar-40")

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.cycle = self.TINY_CYCLE if tiny else self.CYCLE
        self.cycle_len = len(self.cycle)
        # The warm-up solves a cycle's second kind on an index no run reaches.
        self.warmup = (10**7 * self.cycle_len + 1,)
        self.first = 0

    def samples(self, inp):
        return inp["samples"]

    def make_input(self, k: int):
        kind, size = self.cycle[k % len(self.cycle)].split("-")
        size = int(size)
        if kind == "scalar":
            return self._scalar(k, size)
        return self._planar(k, size)

    def _scalar(self, k, n):
        rng = np.random.default_rng([self.seed, k])
        half = self.GAP_DECADES / 2.0
        times = np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-half, half, n - 1))])
        span = times[-1]
        phase = rng.uniform(0.0, 2.0 * np.pi, 2)
        truth = (10.0 * np.sin(6.0 * np.pi * times / span + phase[0])
                 + 4.0 * np.sin(22.0 * np.pi * times / span + phase[1]))
        values = truth + rng.standard_normal(n)
        weights = np.ones(n)
        weights[rng.choice(np.arange(1, n - 1), int(self.ZERO_SHARE * n), replace=False)] = 0.0
        grid = build_time_grid(times)
        affine = 50.0 + rng.uniform(-20.0, 20.0) * (times / span - 0.5)
        return {
            "series": solver.ScalarObservationSeries(grid=grid, values=values, weights=weights),
            "affine": solver.ScalarObservationSeries(grid=grid, values=affine, weights=weights),
            "truth": truth, "samples": n, "dim": 1, "eta": self.SCALAR_ETA,
        }

    def _planar(self, k, n):
        sc = scenarios.gen_range_bearing(op_seed(self.seed, k), count=n)
        ests = [geometry.range_bearing_to_position(sc.site, obs, geometry.MODE_PROPAGATE,
                                                   time=float(t))
                for t, obs in zip(sc.times, sc.observations)]
        values = np.array([e.position for e in ests])
        infos = np.array([e.information for e in ests])
        grid = build_time_grid(sc.times)
        rng = np.random.default_rng([self.seed, k])
        affine = rng.uniform(-50.0, 50.0, 2) + np.outer(sc.times / sc.times[-1] - 0.5,
                                                         rng.uniform(-20.0, 20.0, 2))
        return {
            "series": solver.VectorObservationSeries(grid=grid, values=values, informations=infos),
            "affine": solver.VectorObservationSeries(grid=grid, values=affine, informations=infos),
            "truth": sc.truth, "samples": n, "dim": 2, "eta": self.PLANAR_ETA,
        }

    def _solve(self, series, eta):
        if isinstance(series, solver.ScalarObservationSeries):
            return solver.solve_scalar(series, eta)
        return solver.solve_vector(series, eta)

    def run_op(self, inp):
        return self._solve(inp["series"], inp["eta"])

    def check(self, inp, traj):
        failure = check_track(traj, inp["samples"], inp["dim"])
        if failure:
            return failure, None
        series, truth = inp["series"], inp["truth"]
        if inp["dim"] == 1:
            used = series.weights > 0.0
            smoothed = (traj.positions - truth)[used] ** 2
            raw = (series.values - truth)[used] ** 2
        else:
            smoothed = (traj.positions - truth) ** 2
            raw = (series.values - truth) ** 2
        return None, {"kind": f"{'scalar' if inp['dim'] == 1 else 'planar'}-{inp['samples']}",
                      "smoothed_sq": float(smoothed.sum()), "raw_sq": float(raw.sum())}

    def finish(self, ops):
        """Mean correct digits of affine solves on the first cycle's grids."""
        found = []
        for op in ops[: self.cycle_len]:
            inp = self.make_input(op.index)
            traj = self._solve(inp["affine"], inp["eta"])
            failure = check_track(traj, inp["samples"], inp["dim"])
            if failure:
                op.failure = op.failure or f"affine solve: {failure}"
                continue
            found.append(digits(affine_rel_err(traj.positions, inp["affine"].values)))
        return {"affine_digits": float(np.mean(found))}

    rmse_ratio = staticmethod(median_op_rmse_ratio)

    def details(self, ops):
        kinds = sorted({op.stats["kind"] for op in ops if op.stats})
        return {f"solve_p50_ms.{kind}": float(np.median(
            [op.seconds for op in ops if op.stats and op.stats["kind"] == kind])) * 1e3
            for kind in kinds}


# --- stream ---------------------------------------------------------------


class Stream:
    """One op is one range-bearing reading: geometry conversion, then one
    ``SequentialTracker.step`` over a sliding window.

    The target circles at bounded range from one site, so the stream is
    statistically the same however many readings a run gets through. A
    seeded ``DROP_SHARE`` of readings is lost and the tracker inserts a
    forecast in its place.
    """

    name = "stream"
    SITE = (150.0, 100.0)
    WINDOW = 25
    ETA = 1.0
    DROP_SHARE = 0.1
    RANGE_SD = 1.0
    BEARING_SD = 0.02
    CHUNK = 512
    AFFINE_STEPS = 300

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.site = SensorSite(np.array(self.SITE))
        rng = np.random.default_rng([seed, 2**20])
        self.phase = rng.uniform(0.0, 2.0 * np.pi, 3)
        self.tracker = self._new_tracker()
        # Timing starts once the window has filled twice over.
        self.warmup = range(2 * self.WINDOW)
        self.first = 2 * self.WINDOW
        self.cycle_len = 1
        self._chunk = (-1, None)
        self.affine_steps = 60 if tiny else self.AFFINE_STEPS

    def _new_tracker(self):
        return SequentialTracker(TrackerConfig(eta=self.ETA, window=self.WINDOW,
                                               policy=POLICY_FORECAST))

    def _truth(self, t):
        a, b, c = self.phase
        return np.column_stack([
            60.0 * np.cos(2 * np.pi * t / 200.0 + a) + 15.0 * np.cos(2 * np.pi * t / 37.0 + b),
            60.0 * np.sin(2 * np.pi * t / 200.0 + a) + 15.0 * np.sin(2 * np.pi * t / 37.0 + c),
        ])

    def _times_and_drops(self, chunk):
        rng = np.random.default_rng([self.seed, chunk])
        first = chunk * self.CHUNK
        times = np.arange(first, first + self.CHUNK) + rng.uniform(-0.3, 0.3, self.CHUNK)
        drops = rng.random(self.CHUNK) < self.DROP_SHARE
        if chunk == 0:
            drops[:5] = False  # the tracker needs fixes before it can forecast
        return rng, times, drops

    def _readings(self, chunk):
        rng, times, drops = self._times_and_drops(chunk)
        truth = self._truth(times)
        offsets = truth - self.site.position
        ranges = np.hypot(offsets[:, 0], offsets[:, 1]) + self.RANGE_SD * rng.standard_normal(self.CHUNK)
        bearings = np.arctan2(offsets[:, 1], offsets[:, 0]) + self.BEARING_SD * rng.standard_normal(self.CHUNK)
        readings = [None if drop else PolarObservation(
            distance=float(r), bearing=float(b),
            distance_variance=self.RANGE_SD ** 2, bearing_variance=self.BEARING_SD ** 2)
            for drop, r, b in zip(drops, ranges, bearings)]
        return times, truth, readings

    def make_input(self, k: int):
        chunk, i = divmod(k, self.CHUNK)
        if self._chunk[0] != chunk:
            self._chunk = (chunk, self._readings(chunk))
        times, truth, readings = self._chunk[1]
        return float(times[i]), readings[i], truth[i]

    def samples(self, inp):
        return 1

    def run_op(self, inp):
        return self._step(self.tracker, inp[0], inp[1])

    def _step(self, tracker, t, reading):
        if reading is None:
            return None, tracker.step(t, None)
        est = geometry.range_bearing_to_position(self.site, reading,
                                                 geometry.MODE_IGNORE_CORRELATION, time=t)
        return est, tracker.step(t, est)

    def check(self, inp, out):
        est, point = out
        if point.position.shape != (2,) or not np.all(np.isfinite(point.position)):
            return f"position {point.position!r}", None
        if est is None:
            return None, None
        # A bare pair, not a dict: a run keeps one per reading, and peak
        # memory should not grow with the number of readings a run gets to.
        truth = inp[2]
        return None, (float(np.sum((point.position - truth) ** 2)),
                      float(np.sum((est.position - truth) ** 2)))

    def finish(self, ops):
        """Track a noiseless constant-velocity target on the run's times and drops."""
        tracker = self._new_tracker()
        _, times, drops = self._times_and_drops(0)
        rng = np.random.default_rng([self.seed, 2**21])
        origin, velocity = rng.uniform(-60.0, 60.0, 2), rng.uniform(-0.3, 0.3, 2)
        worst, scale = 0.0, 0.0
        for t, drop in zip(times[: self.affine_steps], drops):
            truth = origin + velocity * t
            offset = truth - self.site.position
            reading = None if drop else PolarObservation(
                distance=float(np.hypot(*offset)), bearing=float(np.arctan2(offset[1], offset[0])),
                distance_variance=self.RANGE_SD ** 2, bearing_variance=self.BEARING_SD ** 2)
            _, point = self._step(tracker, float(t), reading)
            worst = max(worst, float(np.max(np.abs(point.position - truth))))
            scale = max(scale, float(np.max(np.abs(truth))))
        return {"affine_digits": digits(worst / scale)}

    def rmse_ratio(self, ops):
        pairs = [op.stats for op in ops if op.failure is None and op.stats]
        return math.sqrt(sum(p[0] for p in pairs) / sum(p[1] for p in pairs))

    def details(self, ops):
        return {}


# --- cli-pipeline -----------------------------------------------------------


class CliPipeline:
    """One op is ``generate range-bearing -> transform -> track`` (full
    history), then ``generate planar -> filter --xi``, each command a
    fresh interpreter, so start-up, file I/O and manifests are all in.
    """

    name = "cli-pipeline"
    # The generated planar path's RMS acceleration is about 0.1, and eta 10
    # tracks the range-bearing path better than the raw fixes; the defaults
    # (eta 1000) over-smooth both.
    XI = 0.1
    TRACK_ETA = 10.0
    AFFINE_ETA = 1000.0
    STAGES = ("generate-rb", "transform", "track", "generate-planar", "filter")
    # Both generated scenarios hold 151 samples.
    SAMPLES_PER_OP = 151 + 151

    def __init__(self, seed: int, work_dir: str, env: dict, in_process=None):
        self.seed = seed
        self.work_dir = work_dir
        self.env = env
        self.warmup = ()
        self.first = 0
        self.cycle_len = 1
        # ``in_process(argv)`` runs ``cli.main`` without a subprocess; the
        # traced run uses it so the package's spans are visible.
        self.in_process = in_process

    def _call(self, argv):
        if self.in_process is not None:
            return self.in_process(argv), ""
        proc = subprocess.run([sys.executable, "-m", "shadowtrack.cli", *argv],
                              env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120, check=False)
        return proc.returncode, proc.stderr.decode(errors="replace").strip()

    def _paths(self, base, s):
        rb, pl = f"range-bearing-seed{s}", f"planar-seed{s}"
        return {
            "polar": os.path.join(base, "g", f"{rb}-polar.csv"),
            "geometry": os.path.join(base, "g", f"{rb}-manifest.json"),
            "rb_truth": os.path.join(base, "g", f"{rb}-truth.csv"),
            "estimates": os.path.join(base, "x", f"{rb}-polar-raw-estimates.csv"),
            "track": os.path.join(base, "k", f"{rb}-polar-raw-estimates-track.csv"),
            "planar": os.path.join(base, "p", f"{pl}-observations.csv"),
            "planar_truth": os.path.join(base, "p", f"{pl}-truth.csv"),
            "trajectory": os.path.join(base, "f", f"{pl}-observations-xi{self.XI:g}-trajectory.csv"),
        }

    def make_input(self, k: int):
        base = os.path.join(self.work_dir, f"op{k}")
        return base, op_seed(self.seed, k)

    def samples(self, inp):
        return self.SAMPLES_PER_OP

    def commands(self, base, s):
        p = self._paths(base, s)
        return [
            ("generate-rb", ["generate", "range-bearing", "--seed", str(s), "--out", os.path.join(base, "g")]),
            ("transform", ["transform", p["polar"], p["geometry"], "--out", os.path.join(base, "x")]),
            ("track", ["track", p["estimates"], "--eta", f"{self.TRACK_ETA:g}",
                       "--out", os.path.join(base, "k")]),
            ("generate-planar", ["generate", "planar", "--seed", str(s), "--out", os.path.join(base, "p")]),
            ("filter", ["filter", p["planar"], "--xi", f"{self.XI:g}", "--out", os.path.join(base, "f")]),
        ]

    def run_op(self, inp):
        stages = {}
        for stage, argv in self.commands(*inp):
            start = time.perf_counter()
            code, err = self._call(argv)
            stages[stage] = time.perf_counter() - start
            if code != 0:
                return {"failure": f"{stage} exited {code}: {err}", "stages": stages}
        return {"failure": None, "stages": stages}

    def check(self, inp, out):
        try:
            return self._check(inp, out)
        finally:
            if os.path.basename(inp[0]) != "op0":  # kept for the rerun check
                remove_tree(inp[0])

    def _check(self, inp, out):
        if out["failure"]:
            return out["failure"], None
        p = self._paths(*inp)
        missing = [path for path in p.values() if not os.path.isfile(path)]
        if missing:
            return f"missing {missing}", None
        polar = fileio.read_table(p["polar"])
        track = fileio.read_table(p["track"])
        if len(track.rows) != len(polar.rows):
            return f"track has {len(track.rows)} rows for {len(polar.rows)} readings", None
        smoothed_sq = raw_sq = 0.0
        for est_path, est_cols, raw_path, truth_path in (
                (p["track"], ("px", "py"), p["estimates"], p["rb_truth"]),
                (p["trajectory"], ("px", "py"), p["planar"], p["planar_truth"])):
            est = fileio.read_table(est_path)
            smoothed = np.column_stack([est.floats(c) for c in est_cols])
            raw = fileio.read_table(raw_path)
            raw_xy = np.column_stack([raw.floats("x"), raw.floats("y")])
            truth = fileio.read_table(truth_path)
            truth_xy = np.column_stack([truth.floats("x"), truth.floats("y")])
            if smoothed.shape != truth_xy.shape or not np.all(np.isfinite(smoothed)):
                return f"{os.path.basename(est_path)} positions not finite or misshaped", None
            smoothed_sq += float(np.sum((smoothed - truth_xy) ** 2))
            raw_sq += float(np.sum((raw_xy - truth_xy) ** 2))
        return None, {"smoothed_sq": smoothed_sq, "raw_sq": raw_sq, "stages": out["stages"]}

    def finish(self, ops):
        """Rerun op 0 into a fresh directory and run an affine filter check."""
        result = {}
        if ops and ops[0].failure is None:
            base, s = self.make_input(0)
            again = base + "-rerun"
            for stage, argv in self.commands(again, s):
                code, err = self._call(argv)
                if code != 0:
                    ops[0].failure = f"rerun {stage} exited {code}: {err}"
                    break
            else:
                files = _tree(base)
                if files != _tree(again):
                    ops[0].failure = "rerun wrote a different set of files"
                elif any(_read(base, rel) != _read(again, rel) for rel in files):
                    ops[0].failure = "rerun not byte-identical: " + ", ".join(
                        rel for rel in files if _read(base, rel) != _read(again, rel))
        result["affine_digits"] = self._affine_digits()
        return result

    def _affine_digits(self):
        base = os.path.join(self.work_dir, "affine")
        os.makedirs(base, exist_ok=True)
        rng = np.random.default_rng([self.seed, 2**22])
        times = np.arange(151.0)
        affine = rng.uniform(-50.0, 50.0, 2) + np.outer(times / 150.0 - 0.5, rng.uniform(-20.0, 20.0, 2))
        infos = np.broadcast_to(np.eye(2) / 25.0, (151, 2, 2))
        source = os.path.join(base, "affine.csv")
        fileio.write_vector_observations(source, times, affine, infos)
        code, err = self._call(["filter", source, "--eta", f"{self.AFFINE_ETA:g}", "--out", base])
        if code != 0:
            raise RuntimeError(f"affine filter exited {code}: {err}")
        out = fileio.read_table(os.path.join(base, f"affine-eta{self.AFFINE_ETA:g}-trajectory.csv"))
        positions = np.column_stack([out.floats("px"), out.floats("py")])
        return digits(affine_rel_err(positions, affine))

    rmse_ratio = staticmethod(median_op_rmse_ratio)

    def details(self, ops):
        good = [op.stats["stages"] for op in ops if op.failure is None]
        return {f"stage_p50_s.{stage}": float(np.median([s[stage] for s in good]))
                for stage in self.STAGES} if good else {}


def _tree(base):
    return sorted(os.path.relpath(os.path.join(d, f), base)
                  for d, _, files in os.walk(base) for f in files)


def _read(base, rel):
    with open(os.path.join(base, rel), "rb") as handle:
        return handle.read()


def run_cli_in_process(argv):
    """``cli.main`` with its output captured, returning the exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse exits on bad arguments
            return exc.code


def remove_tree(path):
    shutil.rmtree(path, ignore_errors=True)
