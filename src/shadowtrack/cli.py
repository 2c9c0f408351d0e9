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
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .constants import (
    DROP_WEIGHT,
    FORECAST_INFO_SCALE,
    MODE_IGNORE_CORRELATION,
    MODE_PROPAGATE,
    POLICIES,
    POLICY_COALESCE,
    SCENARIO_IDS,
    TRACKER_ETA,
)
from .errors import (
    IOFailure,
    NumericalError,
    SchemaError,
    ShadowTrackError,
    UnknownScenario,
    UsageError,
    WindowTooSparse,
)

if TYPE_CHECKING:
    import numpy as np

    from .geometry import SensorSite

# The parser needs only the standard library, ``constants`` and ``errors``.
# Each command imports the modules it runs, so ``--version`` and ``--help``
# load no numpy, ``generate`` and ``transform`` no solver or tracker, and
# ``track`` and ``filter`` no scenarios. The library functions below are
# attributes of this module, read from the package on first use (PEP 562),
# whose name table imports each from its home module. Commands call them as
# ``_this.<name>``, because a bare name never reaches that hook; so each call
# goes to whatever a patch or a wrapper has put on the attribute.
_LIBRARY = {
    "solve_scalar", "solve_vector", "search_eta",
    "range_bearing_to_position", "two_bearings_to_position", "two_ranges_to_position",
    "gen_scalar_rednoise", "gen_planar_path", "gen_two_sensor_bearings", "gen_range_bearing",
}
_this = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value  # bound as an import would bind it; a patch replaces it
    return value


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

    trk = commands.add_parser(
        "track", help="run the sequential tracker over a stream CSV"
    )
    trk.add_argument(
        "stream", help="scalar observation CSV or raw position estimate CSV"
    )
    trk.add_argument("--eta", type=float, default=TRACKER_ETA)
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
        default=FORECAST_INFO_SCALE,
        help="forecast information scale for the forecast-insert policy",
    )
    trk.add_argument(
        "--drop-weight",
        type=float,
        default=DROP_WEIGHT,
        help="condition-weight floor below which fixes are treated as gaps",
    )

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
    # Handlers are looked up when the parser is built, so a patched
    # module attribute takes effect.
    for sub, handler in (
        (gen, cmd_generate), (flt, cmd_filter), (trk, cmd_track), (tfm, cmd_transform)
    ):
        sub.add_argument("--out", default=".", help="output directory")
        sub.set_defaults(handler=handler)
    return parser


def _stem(path: str) -> str:
    base = os.path.basename(path)
    return base[: -len(".csv")] if base.endswith(".csv") else os.path.splitext(base)[0]


def _check_names(out_dir: str, names: list[str]) -> None:
    """Raise IOFailure for the first name longer than ``out_dir``'s file system takes,
    or whose path in ``out_dir`` is.

    The limits are read from the nearest existing directory on the way to
    ``out_dir``, which need not exist yet; 255 bytes on a name, and none on a
    path, where none can be read.
    """
    directory = os.path.abspath(out_dir)
    probe = directory
    while not os.path.isdir(probe):
        probe = os.path.dirname(probe)
    try:
        limit = os.pathconf(probe, "PC_NAME_MAX")
        path_limit = os.pathconf(probe, "PC_PATH_MAX")  # counts the terminating NUL
    except (AttributeError, OSError):  # no pathconf on Windows
        limit, path_limit = 255, -1
    for name in names:
        if len(os.fsencode(name)) > limit > 0:  # -1 means no limit
            raise IOFailure(
                f"cannot write {name}: {len(os.fsencode(name))} bytes, past the file "
                f"system's limit of {limit} bytes on a file name"
            )
        path = os.path.join(directory, name)
        if len(os.fsencode(path)) >= path_limit > 0:
            raise IOFailure(
                f"cannot write {path}: {len(os.fsencode(path))} bytes, past the file "
                f"system's limit of {path_limit - 1} bytes on a path"
            )


def _publish(args, arguments: dict, manifest_name: str, outputs: dict, **sections) -> int:
    """End a run: write each output stamped with the manifest digest, then the manifest.

    ``outputs`` maps each output key to ``(basename, writer, *data)``, and
    each file is written as ``writer(path, *data, manifest_digest=...)``.
    ``sections`` are further top-level manifest entries. The digest is taken
    and every name is checked against the file system's limit before anything
    is written, so a manifest that is not strict JSON raises SchemaError, and
    a name past the limit IOFailure, with no output written. Prints the
    output paths in key order.
    """
    from . import fileio

    manifest = {
        "format": fileio.MANIFEST_FORMAT,
        "command": args.command,
        "package_version": __version__,
        "arguments": arguments,
        **sections,
        "outputs": {key: basename for key, (basename, *_) in outputs.items()},
    }
    digest = fileio.manifest_digest(manifest)
    out_dir = args.out
    _check_names(out_dir, [manifest_name, *manifest["outputs"].values()])
    if out_dir and not os.path.isdir(out_dir):
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise IOFailure(f"cannot create output directory {out_dir}: {exc}") from exc
    for basename, writer, *data in outputs.values():
        writer(os.path.join(out_dir, basename), *data, manifest_digest=digest)
    fileio.write_manifest(os.path.join(out_dir, manifest_name), manifest)
    for key in sorted(outputs):
        print(os.path.join(out_dir, outputs[key][0]))
    return 0


# --- generate -----------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    import numpy as np

    from . import fileio
    from .scenarios import apply_missing

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
    sections: dict = {}

    if scenario_id == "rednoise":
        sc = _this.gen_scalar_rednoise(seed)
        obs = sc.observations
        if fraction != 0.0:  # apply_missing rejects fractions outside [0, 1)
            obs, keep = apply_missing(obs, fraction, seed)
        outputs = {"observations": (
            f"{prefix}-observations.csv", fileio.write_scalar_observations,
            obs.grid.times, obs.values, obs.weights,
        )}
    elif scenario_id == "planar":
        sc = _this.gen_planar_path(seed)
        obs = sc.observations
        outputs = {"observations": (
            f"{prefix}-observations.csv", fileio.write_vector_observations,
            sc.times, obs.values, obs.informations,
        )}
    elif scenario_id == "sonar":
        sc = _this.gen_two_sensor_bearings(seed)
        variances = np.full((sc.times.size, 2), sc.bearing_noise_sd**2)
        tracks = [np.stack([site.at(t) for t in sc.times]) for site in (sc.site_a, sc.site_b)]
        outputs = {
            "bearings": (f"{prefix}-bearings.csv", fileio.write_bearings,
                         sc.times, sc.bearings, variances),
            "sensors": (f"{prefix}-sensors.csv", fileio.write_sensor_tracks,
                        sc.times, *tracks),
        }
        sections["geometry"] = sc.geometry()
    else:
        sc = _this.gen_range_bearing(seed)
        outputs = {"readings": (
            f"{prefix}-polar.csv", fileio.write_polar_observations,
            sc.times, sc.observations,
        )}
        sections["geometry"] = sc.geometry()

    outputs["truth"] = (f"{prefix}-truth.csv", fileio.write_truth, sc.times, sc.truth)
    sections["scenario"] = dict(sc.parameters())
    if fraction != 0.0:
        sections["scenario"]["retained_indices"] = [int(k) for k in keep]
    arguments = {"scenario": scenario_id, "seed": seed, "missing_fraction": fraction}
    return _publish(args, arguments, f"{prefix}-manifest.json", outputs, **sections)


# --- filter ---------------------------------------------------------------


def cmd_filter(args: argparse.Namespace) -> int:
    from . import fileio
    from .solver import _require_bracket, rms_acceleration

    bracket = list(_require_bracket(*args.bracket))  # checked even where --eta leaves it unused
    table = fileio.read_table(args.observations)
    if table.schema == fileio.SCHEMA_SCALAR_OBS:
        series, solve = fileio._scalar_series(table), _this.solve_scalar
    elif table.schema == fileio.SCHEMA_VECTOR_OBS:
        series, solve = fileio._vector_series(table), _this.solve_vector
    else:
        raise SchemaError(
            f"{args.observations} holds schema {table.schema!r}; "
            "filter accepts scalar or vector observation tables"
        )

    arguments = {"observations": os.path.basename(args.observations), "bracket": bracket}
    sections: dict = {}
    if args.eta is not None:
        eta = arguments["eta"] = float(args.eta)
        tag = f"eta{eta:g}"
        trajectory = solve(series, eta)
    else:
        xi_target = arguments["xi"] = float(args.xi)
        tag = f"xi{xi_target:g}"
        found = _this.search_eta(series, xi_target, *bracket)
        trajectory = found.trajectory
        sections["search"] = {
            "eta": float(found.eta),
            "xi": float(found.xi),
            "iterations": int(found.iterations),
        }
    sections["result"] = {
        "rms_acceleration": float(rms_acceleration(trajectory)),
        "rank": int(trajectory.rank),
    }
    stem = f"{_stem(args.observations)}-{tag}"
    outputs = {"trajectory": (f"{stem}-trajectory.csv", fileio.write_trajectory, trajectory)}
    return _publish(args, arguments, f"{stem}-manifest.json", outputs, **sections)


# --- track ----------------------------------------------------------------


def cmd_track(args: argparse.Namespace) -> int:
    import numpy as np

    from . import fileio
    from .series import PROVENANCE_DROPPED, _frozen
    from .tracker import SequentialTracker, TrackerConfig, TrackPoint

    table = fileio.read_table(args.stream)
    config = TrackerConfig(
        eta=float(args.eta),
        window=args.window,
        policy=args.policy,
        forecast_info_scale=float(args.gamma),
        drop_weight=float(args.drop_weight),
    )
    tracker = SequentialTracker(config)

    if table.schema == fileio.SCHEMA_SCALAR_OBS:
        dim, (times, fixes) = 1, fileio._scalar_estimates(table)
    elif table.schema == fileio.SCHEMA_RAW_ESTIMATES:
        dim, (times, fixes) = 2, fileio._raw_estimates(table)
    else:
        raise SchemaError(
            f"{args.stream} holds schema {table.schema!r}; track accepts "
            "scalar observation or raw position estimate tables"
        )

    def step(t: float, fix) -> TrackPoint:
        try:
            return tracker.step(t, fix)
        except WindowTooSparse:
            filler = _frozen(np.full(dim, math.nan))
            return TrackPoint(
                time=t,
                position=filler,
                velocity=filler,
                acceleration=filler,
                weight=0.0 if fix is None else float(fix.weight),
                provenance=PROVENANCE_DROPPED,
                usable_points=tracker.usable_count,
            )

    points = fileio._by_row(step, zip(times, fixes))

    arguments = {
        "stream": os.path.basename(args.stream),
        "eta": config.eta,
        "window": config.window,
        "policy": config.policy,
        "gamma": config.forecast_info_scale,
        "drop_weight": config.drop_weight,
    }
    stem = _stem(args.stream)
    outputs = {"estimates": (f"{stem}-track.csv", fileio.write_track_points, points)}
    return _publish(args, arguments, f"{stem}-track-manifest.json", outputs)


# --- transform --------------------------------------------------------------


def _geometry_entry(geometry: dict, key: str):
    if key not in geometry:
        raise SchemaError(f"geometry of kind {geometry.get('kind')!r} needs {key!r}")
    return geometry[key]


def _point(value, what: str) -> np.ndarray:
    """A planar point of JSON numbers, which strings and booleans are not."""
    from .geometry import _planar_point

    if all(type(item) in (int, float) for item in (value if isinstance(value, list) else [value])):
        try:
            return _planar_point(value, f"geometry entry {what}")
        except OverflowError:  # an integer past the float range
            pass
    raise SchemaError(f"geometry entry {what} must be numeric, got {value!r}")


def _site_from_geometry(entry: dict, what: str) -> SensorSite:
    from .geometry import SensorSite, _segment_path

    if not isinstance(entry, dict):
        raise SchemaError(f"geometry entry {what} must be an object")
    if "start" in entry:
        start = _point(entry["start"], f"{what}.start")
        end = _point(entry.get("end", entry["start"]), f"{what}.end")
        span = entry.get("span", 1.0)
        if type(span) not in (int, float) or not 0.0 < span <= sys.float_info.max:
            raise SchemaError(f"geometry entry {what} needs a positive number as span")
        return SensorSite(start, path=_segment_path(start, end, float(span)))
    if "site" in entry or "position" in entry:
        return SensorSite(_point(entry.get("site", entry.get("position")), f"{what}.position"))
    raise SchemaError(f"geometry entry {what} needs 'start'/'end' or 'position'")


def cmd_transform(args: argparse.Namespace) -> int:
    from . import fileio
    from .geometry import SensorSite
    from .series import PROVENANCE_DROPPED

    geometry_doc = fileio.read_json(args.geometry)
    geometry = geometry_doc.get("geometry", geometry_doc)
    if not isinstance(geometry, dict):
        raise SchemaError("geometry must be an object")
    kind = geometry.get("kind")

    if kind == "range-bearing":
        site = SensorSite(_point(_geometry_entry(geometry, "site"), "site"))
        times, observations = fileio.read_polar_observations(args.readings)
        estimates = fileio._by_row(
            lambda t, obs: _this.range_bearing_to_position(site, obs, args.mode, time=float(t)),
            zip(times, observations),
        )
    elif kind == "two-bearings":
        site_a = _site_from_geometry(_geometry_entry(geometry, "site_a"), "site_a")
        site_b = _site_from_geometry(_geometry_entry(geometry, "site_b"), "site_b")
        times, bearings, variances = fileio.read_bearings(args.readings)
        estimates = fileio._by_row(
            lambda t, pair, variance: _this.two_bearings_to_position(
                site_a, site_b, *pair, *variance, time=float(t)),
            zip(times, bearings, variances),
        )
    elif kind == "two-ranges":
        site_a = _site_from_geometry(_geometry_entry(geometry, "site_a"), "site_a")
        site_b = _site_from_geometry(_geometry_entry(geometry, "site_b"), "site_b")
        previous = _point(geometry.get("disambiguator", [0.0, 0.0]), "disambiguator")
        times, ranges, variances = fileio.read_range_pairs(args.readings)

        def fix(t, pair, variance):
            nonlocal previous
            est = _this.two_ranges_to_position(
                site_a, site_b, *pair, previous,
                variance_a=variance[0], variance_b=variance[1], time=float(t),
            )
            if est.provenance != PROVENANCE_DROPPED:
                previous = est.position
            return est

        estimates = fileio._by_row(fix, zip(times, ranges, variances))
    else:
        raise SchemaError(
            f"geometry kind {kind!r} is not supported; use range-bearing, "
            "two-bearings, or two-ranges"
        )

    arguments = {
        "readings": os.path.basename(args.readings),
        "geometry": os.path.basename(args.geometry),
        "mode": args.mode,
    }
    stem = _stem(args.readings)
    outputs = {
        "estimates": (f"{stem}-raw-estimates.csv", fileio.write_raw_estimates, times, estimates)
    }
    return _publish(
        args, arguments, f"{stem}-transform-manifest.json", outputs, geometry=geometry
    )


# --- entry point -------------------------------------------------------------


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(argv)
    except ShadowTrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            return 2
        return 4 if isinstance(exc, NumericalError) else 3


if __name__ == "__main__":
    sys.exit(main())
