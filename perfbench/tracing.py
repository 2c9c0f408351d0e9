"""Span tracing for the traced benchmark run, installed from outside ``src/``.

``Tracer.install`` replaces public functions at the names their callers
bind (for example ``shadowtrack.tracker.solve_vector``, not only
``shadowtrack.solver.solve_vector``) with wrappers that record a span:
name, start, end, parent span and op id, plus a few facts read from the
call's result. Spans are kept in memory and written out once at the end.
Wrappers record nothing while no op is active, so the harness's own
checks stay out of the trace. ``layer_metrics`` turns spans into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self._undo: list[tuple] = []

    @contextmanager
    def active(self, op_id, name):
        """Record spans under ``op_id``, inside a root span ``name``."""
        self.op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self.op = None

    @contextmanager
    def span(self, name, info=None):
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0,
                  self._stack[-1] if self._stack else -1, self.op, info]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[END] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` with a spanning wrapper.

        ``note(args, kwargs, result)`` returns facts stored with the span;
        it runs after the span has ended, so its cost is not in the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return original(*args, **kwargs)
            with tracer.span(name) as record:
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    record[INFO] = {"raised": type(exc).__name__}
                    raise
            if note is not None:
                record[INFO] = note(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self):
        """Wrap every traced boundary of the package."""
        from shadowtrack import cli, fileio, geometry, scenarios, solver, tracker

        def solve_note(args, kwargs, traj):
            obs = args[0]
            samples = obs.grid.times.size
            dim = traj.dim
            # The reduced system has one null direction per component by
            # design, so full rank is dim * (samples - 1).
            return {"unknowns": samples * dim,
                    "rank_deficit": dim * (samples - 1) - traj.rank,
                    "residual": traj.residual_norm}

        self.wrap(solver, "build_filter_matrices", "matrices.build")
        for owner in (solver, tracker, cli):
            self.wrap(owner, "solve_scalar", "solver.solve", solve_note)
            self.wrap(owner, "solve_vector", "solver.solve", solve_note)
        self.wrap(cli, "search_eta", "solver.search",
                  lambda a, k, found: {"solves": len(found.trace)})
        self.wrap(tracker, "evaluate_spline", "solver.spline")
        self.wrap(tracker, "build_time_grid", "matrices.grid")
        self.wrap(tracker.SequentialTracker, "step", "tracker.step",
                  lambda a, k, point: {"provenance": point.provenance,
                                       "window": a[0].window_size})

        def fix_note(args, kwargs, est):
            return {"dropped": est.provenance == geometry.PROVENANCE_DROPPED}

        self.wrap(geometry, "range_bearing_to_position", "geometry.fix", fix_note)
        for attr in ("range_bearing_to_position", "two_bearings_to_position",
                     "two_ranges_to_position"):
            self.wrap(cli, attr, "geometry.fix", fix_note)
        for attr in ("gen_scalar_rednoise", "gen_planar_path",
                     "gen_two_sensor_bearings", "gen_range_bearing"):
            self.wrap(cli, attr, "scenarios.gen")
            self.wrap(scenarios, attr, "scenarios.gen")

        def written(args, kwargs, result):
            return {"bytes": os.path.getsize(args[0])}

        def table_written(args, kwargs, result):
            with open(args[0], "rb") as handle:
                lines = handle.read().count(b"\n")
            # Two comment lines and one header row precede the data rows.
            comments = 2 if kwargs.get("manifest_digest") is not None else 1
            return {"bytes": os.path.getsize(args[0]),
                    "rows": lines - comments - 1}

        self.wrap(fileio, "read_table", "fileio.table_read",
                  lambda a, k, table: {"rows": len(table.rows)})
        self.wrap(fileio, "write_table", "fileio.table_write", table_written)
        self.wrap(fileio, "write_json", "fileio.json_write", written)
        self.wrap(fileio, "read_json", "fileio.read")
        for attr in dir(fileio):
            if attr.startswith("read_") and attr not in ("read_table", "read_json"):
                self.wrap(fileio, attr, "fileio.read")
            elif attr.startswith("write_") and attr not in ("write_table", "write_json"):
                self.wrap(fileio, attr, "fileio.write")

    def dump(self, path, env):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"env": env,
                       "fields": ["name", "start_ns", "end_ns", "parent", "op", "info"],
                       "spans": self.spans}, handle)


def _slope(points):
    """Least-squares slope of log(time) against log(unknowns)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(spans, ops):
    """Per-layer metrics from ``spans`` recorded over ``ops`` ops.

    Counts and times are per op unless the name says otherwise
    (``_per_step``, ``_per_fix``, ``_per_row``, ``spline_us`` per call).
    """
    ops = max(ops, 1)
    count = defaultdict(int)
    total = defaultdict(int)
    own = defaultdict(int)
    child = [0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            child[record[PARENT]] += record[END] - record[START]
    for i, record in enumerate(spans):
        name = record[NAME]
        duration = record[END] - record[START]
        count[name] += 1
        total[name] += duration
        own[name] += duration - child[i]

    def infos(name):
        return [r[INFO] for r in spans if r[NAME] == name and r[INFO]]

    def nested_in(record, prefix):
        return record[PARENT] >= 0 and spans[record[PARENT]][NAME].startswith(prefix)

    def per_op(value):
        return value / ops

    solves = [r for r in spans if r[NAME] == "solver.solve" and r[INFO]
              and "unknowns" in r[INFO]]
    step_infos = infos("tracker.step")
    steps = count["tracker.step"]
    provenance = defaultdict(int)
    for info in step_infos:
        provenance[info.get("provenance") or info.get("raised")] += 1
    tracker_solve_ns = sum(r[END] - r[START] for r in spans
                           if r[NAME] == "solver.solve" and nested_in(r, "tracker."))
    # Time in fileio spans not nested in another fileio span.
    outer = defaultdict(int)
    for r in spans:
        if r[NAME].startswith("fileio.") and not nested_in(r, "fileio."):
            kind = "read" if "read" in r[NAME] else "write"
            outer[kind] += r[END] - r[START]
    read_rows = sum(i.get("rows", 0) for i in infos("fileio.table_read"))
    write_rows = sum(i.get("rows", 0) for i in infos("fileio.table_write"))
    written = sum(i.get("bytes", 0) for n in ("fileio.table_write", "fileio.json_write")
                  for i in infos(n))
    fixes = count["geometry.fix"]
    spline_calls = count["solver.spline"]
    cli_names = ("cli.generate", "cli.transform", "cli.track", "cli.filter")
    ms = 1e-6
    return {
        "scenarios.gen_ms": per_op(total["scenarios.gen"]) * ms,
        "matrices.build_calls": per_op(count["matrices.build"]),
        "matrices.build_ms": per_op(total["matrices.build"]) * ms,
        "matrices.grid_ms": per_op(total["matrices.grid"]) * ms,
        "solver.solve_calls": per_op(count["solver.solve"]),
        "solver.self_ms": per_op(own["solver.solve"]) * ms,
        "solver.size_exponent": _slope(
            [(r[INFO]["unknowns"], max(r[END] - r[START], 1)) for r in solves]),
        "solver.rank_deficit": per_op(sum(r[INFO]["rank_deficit"] for r in solves)),
        "solver.residual_max": max((r[INFO]["residual"] for r in solves), default=0.0),
        "solver.search_solves": per_op(sum(i["solves"] for i in infos("solver.search")
                                           if "solves" in i)),
        "solver.search_ms": per_op(total["solver.search"]) * ms,
        "solver.spline_calls": per_op(spline_calls),
        "solver.spline_us": total["solver.spline"] / spline_calls * 1e-3 if spline_calls else 0.0,
        "geometry.fixes": per_op(fixes),
        "geometry.us_per_fix": total["geometry.fix"] / fixes * 1e-3 if fixes else 0.0,
        "geometry.dropped": per_op(sum(1 for i in infos("geometry.fix") if i.get("dropped"))),
        "tracker.steps": per_op(steps),
        "tracker.self_us_per_step": own["tracker.step"] / steps * 1e-3 if steps else 0.0,
        "tracker.solve_ms_per_step": tracker_solve_ns / steps * ms if steps else 0.0,
        "tracker.window_mean": (sum(i.get("window", 0) for i in step_infos) / len(step_infos)
                                if step_infos else 0.0),
        "tracker.observed": per_op(provenance["observed"]),
        "tracker.forecast": per_op(provenance["forecast-inserted"]),
        "tracker.dropped": per_op(provenance["dropped"]),
        "tracker.sparse": per_op(provenance["WindowTooSparse"]),
        "fileio.read_rows": per_op(read_rows),
        "fileio.read_us_per_row": outer["read"] / read_rows * 1e-3 if read_rows else 0.0,
        "fileio.write_rows": per_op(write_rows),
        "fileio.write_us_per_row": outer["write"] / write_rows * 1e-3 if write_rows else 0.0,
        "fileio.bytes_written": per_op(written),
        "cli.generate_ms": per_op(total["cli.generate"]) * ms,
        "cli.transform_ms": per_op(total["cli.transform"]) * ms,
        "cli.track_ms": per_op(total["cli.track"]) * ms,
        "cli.filter_ms": per_op(total["cli.filter"]) * ms,
        "cli.self_ms": per_op(sum(own[n] for n in cli_names)) * ms,
    }
