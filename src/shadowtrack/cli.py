"""Command-line front end.

Four subcommands cover the batch workflow end to end:

* ``generate``: write a seeded synthetic scenario to CSV plus a manifest.
* ``filter``: batch-smooth an observation CSV at a fixed smoothing
  strength, or search for the strength matching a target RMS
  acceleration.
* ``track``: run the sequential tracker over a stream CSV.
* ``transform``: convert sensor readings (polar fixes, bearing pairs,
  range pairs) into raw Cartesian position estimates.

Every run writes a JSON manifest describing command, arguments, and
output basenames; each output CSV embeds the manifest digest, and a
rerun with the same arguments reproduces every byte. Exit codes: 0
success, 2 usage problems, 3 data problems, 4 numerical failures.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from . import fileio
from .errors import (
    DataError,
    IOFailure,
    NumericalError,
    OutOfOrderTimestamp,
    SchemaError,
    ShadowTrackError,
    UnknownScenario,
    UsageError,
    WindowTooSparse,
)
from .geometry import (
    MODE_IGNORE_CORRELATION,
    MODE_PROPAGATE,
    PROVENANCE_DROPPED,
    SensorSite,
    range_bearing_to_position,
    two_bearings_to_position,
    two_ranges_to_position,
)
from .matrices import _frozen
from .scenarios import (
    SCENARIO_IDS,
    gen_planar_path,
    gen_range_bearing,
    gen_scalar_rednoise,
    gen_two_sensor_bearings,
)
from .solver import (
    ScalarObservationSeries,
    rms_acceleration,
    search_eta,
    solve_scalar,
    solve_vector,
)
from .tracker import POLICIES, POLICY_COALESCE, SequentialTracker, TrackerConfig, TrackPoint


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadow-track",
        description="Trajectory smoothing and sequential tracking toolkit.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser(
        "generate", help="write a seeded synthetic scenario to CSV"
    )
    gen.add_argument("scenario", help=f"one of {', '.join(SCENARIO_IDS)}")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=".", help="output directory")
    gen.add_argument(
        "--missing-fraction",
        type=float,
        default=0.0,
        help="drop this interior fraction of the observations (endpoints kept)",
    )

    flt = commands.add_parser(
        "filter", help="batch-smooth an observation CSV"
    )
    flt.add_argument("observations", help="scalar or vector observation CSV")
    group = flt.add_mutually_exclusive_group(required=True)
    group.add_argument("--eta", type=float, help="smoothing strength")
    group.add_argument(
        "--xi", type=float, help="target RMS acceleration; searches for eta"
    )
    flt.add_argument(
        "--bracket",
        type=float,
        nargs=2,
        default=(1e-4, 1e8),
        metavar=("LO", "HI"),
        help="eta search bracket used with --xi",
    )
    flt.add_argument("--out", default=".", help="output directory")

    trk = commands.add_parser(
        "track", help="run the sequential tracker over a stream CSV"
    )
    trk.add_argument(
        "stream", help="scalar observation CSV or raw position estimate CSV"
    )
    trk.add_argument("--eta", type=float, default=1000.0)
    trk.add_argument(
        "--window",
        type=int,
        default=None,
        help="number of recent steps retained (default: full history)",
    )
    trk.add_argument("--policy", choices=POLICIES, default=POLICY_COALESCE)
    trk.add_argument(
        "--gamma",
        type=float,
        default=0.25,
        help="forecast information scale for the forecast-insert policy",
    )
    trk.add_argument(
        "--drop-weight",
        type=float,
        default=1e-6,
        help="condition-weight floor below which fixes are treated as gaps",
    )
    trk.add_argument("--out", default=".", help="output directory")

    tfm = commands.add_parser(
        "transform", help="convert sensor readings to raw position estimates"
    )
    tfm.add_argument("readings", help="polar, bearing-pair, or range-pair CSV")
    tfm.add_argument("geometry", help="manifest/geometry JSON describing the sites")
    tfm.add_argument(
        "--mode",
        choices=(MODE_IGNORE_CORRELATION, MODE_PROPAGATE),
        default=MODE_IGNORE_CORRELATION,
        help="noise handling for single-site polar fixes",
    )
    tfm.add_argument("--out", default=".", help="output directory")
    return parser


def _ensure_out_dir(path: str) -> str:
    if path and not os.path.isdir(path):
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise IOFailure(f"cannot create output directory {path}: {exc}") from exc
    return path


def _stem(path: str) -> str:
    base = os.path.basename(path)
    return base[: -len(".csv")] if base.endswith(".csv") else os.path.splitext(base)[0]


def _num(value: float) -> float:
    return float(value)


# --- generate -----------------------------------------------------------


def _segment_geometry(start, end, span) -> dict:
    return {
        "start": [float(start[0]), float(start[1])],
        "end": [float(end[0]), float(end[1])],
        "span": float(span),
    }


def cmd_generate(args: argparse.Namespace) -> int:
    out_dir = _ensure_out_dir(args.out)
    seed = int(args.seed)
    fraction = float(args.missing_fraction)
    scenario_id = args.scenario
    if scenario_id not in SCENARIO_IDS:
        raise UnknownScenario(
            f"unknown scenario {scenario_id!r}; choose from {', '.join(SCENARIO_IDS)}"
        )
    if fraction != 0.0 and scenario_id != "rednoise":
        raise UsageError("--missing-fraction only applies to the rednoise scenario")
    prefix = f"{scenario_id}-seed{seed}"
    manifest: dict = {
        "format": fileio.MANIFEST_FORMAT,
        "command": "generate",
        "package_version": __version__,
        "arguments": {
            "scenario": scenario_id,
            "seed": seed,
            "missing_fraction": fraction,
        },
    }
    outputs: dict = {}

    if scenario_id == "rednoise":
        sc = gen_scalar_rednoise(seed)
        times, values, weights = (
            sc.times,
            sc.observations.values,
            sc.observations.weights,
        )
        keep_note = None
        if fraction > 0.0:
            from .scenarios import apply_missing

            thinned, keep = apply_missing(sc.observations, fraction, seed)
            times = thinned.grid.times
            values, weights = thinned.values, thinned.weights
            keep_note = [int(k) for k in keep]
        outputs = {
            "observations": f"{prefix}-observations.csv",
            "truth": f"{prefix}-truth.csv",
        }
        manifest["scenario"] = dict(sc.parameters())
        if keep_note is not None:
            manifest["scenario"]["retained_indices"] = keep_note
        manifest["outputs"] = outputs
        digest = fileio.manifest_digest(manifest)
        fileio.write_scalar_observations(
            os.path.join(out_dir, outputs["observations"]),
            times, values, weights, manifest_digest=digest,
        )
        fileio.write_truth(
            os.path.join(out_dir, outputs["truth"]),
            sc.times, sc.truth, manifest_digest=digest,
        )
    elif scenario_id == "planar":
        sc = gen_planar_path(seed)
        outputs = {
            "observations": f"{prefix}-observations.csv",
            "truth": f"{prefix}-truth.csv",
        }
        manifest["scenario"] = dict(sc.parameters())
        manifest["outputs"] = outputs
        digest = fileio.manifest_digest(manifest)
        fileio.write_vector_observations(
            os.path.join(out_dir, outputs["observations"]),
            sc.times, sc.observations.values, sc.observations.informations,
            manifest_digest=digest,
        )
        fileio.write_truth(
            os.path.join(out_dir, outputs["truth"]),
            sc.times, sc.truth, manifest_digest=digest,
        )
    elif scenario_id == "sonar":
        sc = gen_two_sensor_bearings(seed)
        span = float(sc.times[-1])
        outputs = {
            "bearings": f"{prefix}-bearings.csv",
            "sensors": f"{prefix}-sensors.csv",
            "truth": f"{prefix}-truth.csv",
        }
        manifest["scenario"] = dict(sc.parameters())
        manifest["geometry"] = {
            "kind": "two-bearings",
            "site_a": _segment_geometry([-3.0, 3.0], [3.0, 1.0], span),
            "site_b": _segment_geometry([-3.0, -2.0], [3.0, -1.0], span),
        }
        manifest["outputs"] = outputs
        digest = fileio.manifest_digest(manifest)
        variances = np.full((sc.times.size, 2), sc.bearing_noise_sd**2)
        fileio.write_bearings(
            os.path.join(out_dir, outputs["bearings"]),
            sc.times, sc.bearings, variances, manifest_digest=digest,
        )
        track_a = np.stack([sc.site_a.at(t) for t in sc.times])
        track_b = np.stack([sc.site_b.at(t) for t in sc.times])
        fileio.write_sensor_tracks(
            os.path.join(out_dir, outputs["sensors"]),
            sc.times, track_a, track_b, manifest_digest=digest,
        )
        fileio.write_truth(
            os.path.join(out_dir, outputs["truth"]),
            sc.times, sc.truth, manifest_digest=digest,
        )
    else:
        sc = gen_range_bearing(seed)
        outputs = {
            "readings": f"{prefix}-polar.csv",
            "truth": f"{prefix}-truth.csv",
        }
        manifest["scenario"] = dict(sc.parameters())
        manifest["geometry"] = {
            "kind": "range-bearing",
            "site": [float(sc.site.position[0]), float(sc.site.position[1])],
        }
        manifest["outputs"] = outputs
        digest = fileio.manifest_digest(manifest)
        fileio.write_polar_observations(
            os.path.join(out_dir, outputs["readings"]),
            sc.times, sc.observations, manifest_digest=digest,
        )
        fileio.write_truth(
            os.path.join(out_dir, outputs["truth"]),
            sc.times, sc.truth, manifest_digest=digest,
        )

    fileio.write_manifest(os.path.join(out_dir, f"{prefix}-manifest.json"), manifest)
    for name in sorted(outputs):
        print(os.path.join(out_dir, outputs[name]))
    return 0


# --- filter ---------------------------------------------------------------


def cmd_filter(args: argparse.Namespace) -> int:
    out_dir = _ensure_out_dir(args.out)
    table = fileio.read_table(args.observations)
    stem = _stem(args.observations)
    if table.schema == fileio.SCHEMA_SCALAR_OBS:
        series = fileio.read_scalar_observations(args.observations)
        solve = solve_scalar
    elif table.schema == fileio.SCHEMA_VECTOR_OBS:
        series = fileio.read_vector_observations(args.observations)
        solve = solve_vector
    else:
        raise SchemaError(
            f"{args.observations} holds schema {table.schema!r}; "
            "filter accepts scalar or vector observation tables"
        )

    manifest: dict = {
        "format": fileio.MANIFEST_FORMAT,
        "command": "filter",
        "package_version": __version__,
        "arguments": {
            "observations": os.path.basename(args.observations),
            "bracket": [float(args.bracket[0]), float(args.bracket[1])],
        },
    }
    if args.eta is not None:
        eta = float(args.eta)
        manifest["arguments"]["eta"] = eta
        tag = f"eta{eta:g}"
        trajectory = solve(series, eta)
    else:
        xi_target = float(args.xi)
        manifest["arguments"]["xi"] = xi_target
        tag = f"xi{xi_target:g}"
        found = search_eta(
            series, xi_target, float(args.bracket[0]), float(args.bracket[1])
        )
        trajectory = solve(series, found.eta)
        manifest["search"] = {
            "eta": _num(found.eta),
            "xi": _num(found.xi),
            "iterations": int(found.iterations),
        }
    manifest["result"] = {
        "rms_acceleration": _num(rms_acceleration(trajectory)),
        "rank": int(trajectory.rank),
    }
    outputs = {"trajectory": f"{stem}-{tag}-trajectory.csv"}
    manifest["outputs"] = outputs
    digest = fileio.manifest_digest(manifest)
    fileio.write_trajectory(
        os.path.join(out_dir, outputs["trajectory"]),
        trajectory, manifest_digest=digest,
    )
    fileio.write_manifest(
        os.path.join(out_dir, f"{stem}-{tag}-manifest.json"), manifest
    )
    print(os.path.join(out_dir, outputs["trajectory"]))
    return 0


# --- track ----------------------------------------------------------------


def _nan_point(time: float, dim: int, weight: float, usable: int) -> TrackPoint:
    filler = _frozen(np.full(dim, math.nan))
    return TrackPoint(
        time=time,
        position=filler,
        velocity=filler,
        acceleration=filler,
        weight=weight,
        provenance=PROVENANCE_DROPPED,
        usable_points=usable,
    )


def cmd_track(args: argparse.Namespace) -> int:
    out_dir = _ensure_out_dir(args.out)
    table = fileio.read_table(args.stream)
    stem = _stem(args.stream)
    config = TrackerConfig(
        eta=float(args.eta),
        window=args.window,
        policy=args.policy,
        forecast_info_scale=float(args.gamma),
        drop_weight=float(args.drop_weight),
    )
    tracker = SequentialTracker(config)
    points: list[TrackPoint] = []

    if table.schema == fileio.SCHEMA_SCALAR_OBS:
        times = table.floats("t")
        values = table.floats("value")
        weights = table.floats("weight")
        dim = 1
        feed = [
            (times[i], None if math.isnan(values[i]) else (values[i], weights[i]))
            for i in range(len(times))
        ]
        step = lambda t, payload: (
            tracker.step(t, None)
            if payload is None
            else tracker.step_scalar(t, payload[0], payload[1])
        )
        raw_weight = lambda payload: 0.0 if payload is None else 1.0
    elif table.schema == fileio.SCHEMA_RAW_ESTIMATES:
        times, estimates = fileio.read_raw_estimates(args.stream)
        dim = 2
        feed = list(zip(times, estimates))
        step = tracker.step
        raw_weight = lambda est: 0.0 if est is None else float(est.weight)
    else:
        raise SchemaError(
            f"{args.stream} holds schema {table.schema!r}; track accepts "
            "scalar observation or raw position estimate tables"
        )

    for i, (t, payload) in enumerate(feed):
        try:
            points.append(step(t, payload))
        except WindowTooSparse:
            points.append(_nan_point(t, dim, raw_weight(payload), tracker.usable_count))
        except OutOfOrderTimestamp as exc:
            raise OutOfOrderTimestamp(f"{exc} (row {i})") from None

    manifest: dict = {
        "format": fileio.MANIFEST_FORMAT,
        "command": "track",
        "package_version": __version__,
        "arguments": {
            "stream": os.path.basename(args.stream),
            "eta": _num(config.eta),
            "window": config.window,
            "policy": config.policy,
            "gamma": _num(config.forecast_info_scale),
            "drop_weight": _num(config.drop_weight),
        },
    }
    outputs = {"estimates": f"{stem}-track.csv"}
    manifest["outputs"] = outputs
    digest = fileio.manifest_digest(manifest)
    fileio.write_track_points(
        os.path.join(out_dir, outputs["estimates"]), points, manifest_digest=digest
    )
    fileio.write_manifest(os.path.join(out_dir, f"{stem}-track-manifest.json"), manifest)
    print(os.path.join(out_dir, outputs["estimates"]))
    return 0


# --- transform --------------------------------------------------------------


def _geometry_entry(geometry: dict, key: str):
    if key not in geometry:
        raise SchemaError(f"geometry of kind {geometry.get('kind')!r} needs {key!r}")
    return geometry[key]


def _coordinates(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"geometry entry {what} must be numeric, got {value!r}") from exc


def _site_from_geometry(entry: dict, what: str) -> SensorSite:
    if not isinstance(entry, dict):
        raise SchemaError(f"geometry entry {what} must be an object")
    if "start" in entry:
        start = _coordinates(entry["start"], f"{what}.start")
        end = _coordinates(entry.get("end", entry["start"]), f"{what}.end")
        span = _coordinates(entry.get("span", 1.0), f"{what}.span")
        if span.shape != () or not span > 0:
            raise SchemaError(f"geometry entry {what} needs a positive number as span")
        span = float(span)
        return SensorSite(start, path=lambda t: start + (end - start) * (t / span))
    if "site" in entry or "position" in entry:
        position = _coordinates(entry.get("site", entry.get("position")), f"{what}.position")
        return SensorSite(position)
    raise SchemaError(f"geometry entry {what} needs 'start'/'end' or 'position'")


def cmd_transform(args: argparse.Namespace) -> int:
    out_dir = _ensure_out_dir(args.out)
    geometry_doc = fileio.read_json(args.geometry)
    geometry = geometry_doc.get("geometry", geometry_doc)
    if not isinstance(geometry, dict):
        raise SchemaError("geometry must be an object")
    kind = geometry.get("kind")
    stem = _stem(args.readings)
    estimates = []

    if kind == "range-bearing":
        site = SensorSite(_coordinates(_geometry_entry(geometry, "site"), "site"))
        times, observations = fileio.read_polar_observations(args.readings)
        for i, obs in enumerate(observations):
            estimates.append(
                range_bearing_to_position(site, obs, args.mode, time=float(times[i]))
            )
    elif kind == "two-bearings":
        site_a = _site_from_geometry(_geometry_entry(geometry, "site_a"), "site_a")
        site_b = _site_from_geometry(_geometry_entry(geometry, "site_b"), "site_b")
        times, bearings, variances = fileio.read_bearings(args.readings)
        for i, t in enumerate(times):
            estimates.append(
                two_bearings_to_position(
                    site_a, site_b,
                    bearings[i, 0], bearings[i, 1],
                    variances[i, 0], variances[i, 1],
                    time=float(t),
                )
            )
    elif kind == "two-ranges":
        site_a = _site_from_geometry(_geometry_entry(geometry, "site_a"), "site_a")
        site_b = _site_from_geometry(_geometry_entry(geometry, "site_b"), "site_b")
        hint = _coordinates(geometry.get("disambiguator", [0.0, 0.0]), "disambiguator")
        times, ranges, variances = fileio.read_range_pairs(args.readings)
        previous = hint
        for i, t in enumerate(times):
            est = two_ranges_to_position(
                site_a, site_b,
                ranges[i, 0], ranges[i, 1],
                previous,
                variance_a=variances[i, 0], variance_b=variances[i, 1],
                time=float(t),
            )
            estimates.append(est)
            if est.provenance != PROVENANCE_DROPPED:
                previous = est.position
    else:
        raise SchemaError(
            f"geometry kind {kind!r} is not supported; use range-bearing, "
            "two-bearings, or two-ranges"
        )

    manifest: dict = {
        "format": fileio.MANIFEST_FORMAT,
        "command": "transform",
        "package_version": __version__,
        "arguments": {
            "readings": os.path.basename(args.readings),
            "geometry": os.path.basename(args.geometry),
            "mode": args.mode,
        },
        "geometry": geometry,
    }
    outputs = {"estimates": f"{stem}-raw-estimates.csv"}
    manifest["outputs"] = outputs
    digest = fileio.manifest_digest(manifest)
    fileio.write_raw_estimates(
        os.path.join(out_dir, outputs["estimates"]),
        times, estimates, manifest_digest=digest,
    )
    fileio.write_manifest(
        os.path.join(out_dir, f"{stem}-transform-manifest.json"), manifest
    )
    print(os.path.join(out_dir, outputs["estimates"]))
    return 0


# --- entry point -------------------------------------------------------------


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "filter": cmd_filter,
        "track": cmd_track,
        "transform": cmd_transform,
    }
    return handlers[args.command](args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DataError, IOFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ShadowTrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
