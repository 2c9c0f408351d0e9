"""File formats for scenario data, solver output, and run manifests.

CSV files are UTF-8, RFC-4180 quoted, with '.' as the decimal mark and a
fixed '\\n' line ending. Two comment lines precede the header row:

    # schema=<schema id>
    # manifest=<sha256 of the producing run manifest>

The manifest line is present on files written by the command-line tool
and absent on hand-made inputs. Floats are serialized with ``repr`` (the
shortest round-trip form); NaN becomes an empty cell. Manifests and
scenario configs are JSON with sorted keys, so a rerun with identical
inputs reproduces every output byte for byte.

The column table ``_COLUMNS`` is the single source of each fixed CSV
layout: writers emit its names as the header and readers look the same
names up. Trajectory and track files name their columns from the data's
dimension, ``p`` for scalar data and ``px, py`` for planar data.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DataError,
    IndefiniteInformation,
    IOFailure,
    NonSymmetricInformation,
    SchemaError,
)
from .geometry import PolarObservation, RawPositionEstimate, _scalar_fix
from .series import (
    ScalarObservationSeries,
    VectorObservationSeries,
    _symmetrized,
    build_time_grid,
)

if TYPE_CHECKING:  # named in annotations only, so reading a file loads no solver
    from .solver import ShadowingTrajectory
    from .tracker import TrackPoint

SCHEMA_SCALAR_OBS = "shadowtrack.scalar-observations.v1"
SCHEMA_VECTOR_OBS = "shadowtrack.vector-observations.v1"
SCHEMA_SCALAR_TRUTH = "shadowtrack.scalar-truth.v1"
SCHEMA_PLANAR_TRUTH = "shadowtrack.planar-truth.v1"
SCHEMA_BEARINGS = "shadowtrack.bearings.v1"
SCHEMA_SENSOR_TRACKS = "shadowtrack.sensor-tracks.v1"
SCHEMA_POLAR_OBS = "shadowtrack.polar-observations.v1"
SCHEMA_RANGE_PAIRS = "shadowtrack.range-pair-observations.v1"
SCHEMA_TRAJECTORY = "shadowtrack.trajectory.v1"
SCHEMA_TRACK = "shadowtrack.track-estimates.v1"
SCHEMA_RAW_ESTIMATES = "shadowtrack.raw-estimates.v1"
MANIFEST_FORMAT = "shadowtrack.manifest.v1"


def format_float(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return ""
    return repr(value)


def _format_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        raise SchemaError(f"boolean cell {value!r} has no serialization")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


def parse_float(cell: str, *, row: int, column: str) -> float:
    if cell == "":
        return math.nan
    try:
        return float(cell)
    except ValueError:
        raise SchemaError(
            f"cannot parse {cell!r} as a number", row=row, column=column
        ) from None


@dataclass(frozen=True)
class Table:
    """Parsed CSV: schema id, comment metadata, header names, string rows."""

    schema: str
    meta: Mapping[str, str]
    names: Tuple[str, ...]
    rows: Tuple[Tuple[str, ...], ...]

    def column_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SchemaError(f"missing column {name!r}", column=name) from None

    def floats(self, name: str) -> np.ndarray:
        idx = self.column_index(name)
        return np.array(
            [parse_float(row[idx], row=i, column=name) for i, row in enumerate(self.rows)]
        )

    def strings(self, name: str) -> list:
        idx = self.column_index(name)
        return [row[idx] for row in self.rows]


def write_table(
    path: str,
    schema: str,
    names: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    manifest_digest: Optional[str] = None,
) -> None:
    buffer = io.StringIO()
    buffer.write(f"# schema={schema}\n")
    if manifest_digest is not None:
        buffer.write(f"# manifest={manifest_digest}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(names))
    width = len(names)
    for row in rows:
        cells = [_format_cell(value) for value in row]
        if len(cells) != width:
            raise SchemaError(
                f"row has {len(cells)} cells, header has {width}"
            )
        writer.writerow(cells)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(buffer.getvalue())
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}") from exc


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            return handle.read()
    except OSError as exc:
        raise IOFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from None


def read_table(path: str, *, expect_schema: Optional[str] = None) -> Table:
    raw_lines = _read_text(path).split("\n")
    meta: dict[str, str] = {}
    body: list[str] = []
    for line in raw_lines:
        if line.startswith("#"):
            stripped = line.lstrip("#").strip()
            key, sep, value = stripped.partition("=")
            if sep:
                meta[key.strip()] = value.strip()
        elif line != "" or body:
            body.append(line)
    while body and body[-1] == "":
        body.pop()
    schema = meta.get("schema")
    if schema is None:
        raise SchemaError(f"{path} has no '# schema=' header line")
    if expect_schema is not None and schema != expect_schema:
        raise SchemaError(
            f"{path} holds schema {schema!r}, expected {expect_schema!r}"
        )
    parsed: list[list[str]] = []
    try:
        parsed.extend(csv.reader(body))  # keeps the rows before a bad one, to name it
    except csv.Error as exc:
        raise SchemaError(f"{path}: {exc}", row=len(parsed) - 1 if parsed else None) from None
    if not parsed:
        raise SchemaError(f"{path} has no header row")
    names = tuple(parsed[0])
    rows = []
    for i, row in enumerate(parsed[1:]):
        if len(row) != len(names):
            raise SchemaError(
                f"expected {len(names)} cells, found {len(row)}", row=i
            )
        rows.append(tuple(row))
    return Table(schema=schema, meta=dict(meta), names=names, rows=tuple(rows))


def write_json(path: str, payload: Mapping[str, object]) -> None:
    """Write ``payload`` as strict JSON; NaN or an infinity raises SchemaError."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from None
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}") from exc


def read_json(path: str) -> dict:
    """The JSON object in ``path``; raises SchemaError for what is not strict JSON.

    That covers NaN and Infinity, which JSON lacks, and a number past the
    float range, such as 1e400, which would otherwise read as an infinity.
    """
    def reject(constant: str):
        raise SchemaError(f"{path} holds {constant}, which is not valid JSON")

    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise SchemaError(f"{path} holds {text}, a number past the float range")
        return value

    try:
        payload = json.loads(_read_text(path), parse_constant=reject, parse_float=finite)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int()'s digit limit
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{path} must hold a JSON object")
    return payload


def manifest_digest(manifest: Mapping[str, object]) -> str:
    """Hash of the canonical JSON form of a manifest (digest key excluded).

    That form is strict JSON: a NaN or an infinity raises SchemaError, so a
    manifest that ``write_manifest`` would refuse has no digest either.
    """
    core = {key: value for key, value in manifest.items() if key != "digest"}
    try:
        canonical = json.dumps(core, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise SchemaError(f"manifest is not strict JSON: {exc}") from None
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(path: str, manifest: Mapping[str, object]) -> str:
    """Write a manifest JSON with its own digest embedded; returns the digest."""
    digest = manifest_digest(manifest)
    payload = dict(manifest)
    payload["digest"] = digest
    write_json(path, payload)
    return digest


# --- schema layouts -------------------------------------------------------

_COLUMNS = {
    SCHEMA_SCALAR_OBS: ("t", "value", "weight"),
    SCHEMA_VECTOR_OBS: ("t", "x", "y", "ixx", "ixy", "iyy"),
    SCHEMA_SCALAR_TRUTH: ("t", "value"),
    SCHEMA_PLANAR_TRUTH: ("t", "x", "y"),
    SCHEMA_BEARINGS: ("t", "bearing_a", "bearing_b", "variance_a", "variance_b"),
    SCHEMA_SENSOR_TRACKS: ("t", "ax", "ay", "bx", "by"),
    SCHEMA_POLAR_OBS: ("t", "range", "bearing", "range_variance", "bearing_variance"),
    SCHEMA_RANGE_PAIRS: ("t", "range_a", "range_b", "variance_a", "variance_b"),
    SCHEMA_RAW_ESTIMATES: ("t", "x", "y", "ixx", "ixy", "iyy", "w", "provenance"),
}
_TEXT_COLUMNS = ("provenance",)


def _axes(prefix: str, dim: int) -> Tuple[str, ...]:
    """Column names of a d-component quantity: ``p`` for d = 1, ``px, py`` for d = 2."""
    return (prefix,) if dim == 1 else (prefix + "x", prefix + "y")


def _write_columns(
    path: str,
    schema: str,
    arrays: Sequence[object],
    manifest_digest: Optional[str],
    names: Optional[Sequence[str]] = None,
) -> None:
    """Write ``arrays`` as the columns of a table, named by ``_COLUMNS``.

    A 1-D array or a list is one column; an (n, k) array, or a list of
    length-k vectors, is k columns.
    """
    columns: list = []
    for array in arrays:
        columns.extend(np.asarray(array).T if np.ndim(array) == 2 else [array])
    if len({len(column) for column in columns}) > 1:
        raise SchemaError(f"the columns of a {schema} table differ in length")
    write_table(
        path, schema, names or _COLUMNS[schema], zip(*columns),
        manifest_digest=manifest_digest,
    )


def _columns(table: Table) -> list:
    """The columns of ``table`` in the order its schema lays them out.

    A numeric cell that is empty or not finite raises SchemaError naming
    its row and column. The one exception is an empty value cell of a
    scalar observation table, which marks a gap.
    """
    columns = []
    for name in _COLUMNS[table.schema]:
        if name in _TEXT_COLUMNS:
            columns.append(table.strings(name))
            continue
        column = table.floats(name)
        accepted = np.isfinite(column)
        if (table.schema, name) == (SCHEMA_SCALAR_OBS, "value"):
            accepted |= np.array([cell == "" for cell in table.strings(name)], dtype=bool)
        bad = np.flatnonzero(~accepted)
        if bad.size:
            raise SchemaError(f"expected a finite number, got {column[bad[0]]}",
                              row=int(bad[0]), column=name)
        columns.append(column)
    return columns


def _pairs(columns: Sequence[np.ndarray]) -> tuple:
    """The time column, then each following pair of columns as an (n, 2) array."""
    times, *rest = columns
    return (times, *(np.column_stack(rest[i : i + 2]) for i in range(0, len(rest), 2)))


def _information_columns(informations) -> Tuple[np.ndarray, ...]:
    """The ixx, ixy, iyy columns of a stack of symmetric 2x2 information matrices."""
    info = np.reshape(informations, (-1, 2, 2))
    return info[:, 0, 0], info[:, 0, 1], info[:, 1, 1]


def _informations(ixx: np.ndarray, ixy: np.ndarray, iyy: np.ndarray) -> np.ndarray:
    """Symmetric 2x2 information matrices from their ixx, ixy, iyy columns."""
    return np.stack([np.stack([ixx, ixy], -1), np.stack([ixy, iyy], -1)], -2)


def _by_row(convert, rows: Iterable[Sequence[object]],
            columns: Optional[Mapping[str, str]] = None) -> tuple:
    """``convert(*row)`` for each row; a DataError names its row as a SchemaError.

    The error also names the column of the argument at fault, if one is:
    ``columns`` maps argument names that differ from their column's.
    """
    converted = []
    for i, row in enumerate(rows):
        try:
            converted.append(convert(*row))
        except DataError as exc:
            column = (columns or {}).get(exc.argument, exc.argument)
            raise SchemaError(str(exc), row=i, column=column) from None
    return tuple(converted)


# --- scenario and solver series ----------------------------------------


def write_scalar_observations(
    path: str,
    times: np.ndarray,
    values: np.ndarray,
    weights: np.ndarray,
    *,
    manifest_digest: Optional[str] = None,
) -> None:
    _write_columns(path, SCHEMA_SCALAR_OBS, (times, values, weights), manifest_digest)


def read_scalar_observations(path: str) -> ScalarObservationSeries:
    return _scalar_series(read_table(path, expect_schema=SCHEMA_SCALAR_OBS))


def _scalar_rows(table: Table) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The times, values and weights of a scalar observation table.

    A row with an empty value cell or a zero weight is a gap: its time
    stays in the grid and its value is ignored. An empty value cell is
    returned as 0.0 with a zero weight, so the fit sees a placeholder
    slot. A negative weight raises SchemaError naming the row.
    """
    times, values, weights = _columns(table)
    bad = np.flatnonzero(weights < 0.0)
    if bad.size:
        raise SchemaError(
            f"weight must be non-negative, got {weights[bad[0]]}",
            row=int(bad[0]), column="weight",
        )
    empty = np.isnan(values)
    return times, np.where(empty, 0.0, values), np.where(empty, 0.0, weights)


def _scalar_estimates(
    table: Table,
) -> Tuple[np.ndarray, Tuple[Optional[RawPositionEstimate], ...]]:
    """The times of a scalar observation table and one fix per row, None for a gap.

    Each fix is observed, with condition weight 1 and the row's weight as
    its 1x1 information.
    """
    times, values, weights = _scalar_rows(table)
    return times, tuple(_scalar_fix(value, weight) for value, weight in zip(values, weights))


def _scalar_series(table: Table) -> ScalarObservationSeries:
    times, values, weights = _scalar_rows(table)
    return ScalarObservationSeries(
        grid=build_time_grid(times), values=values, weights=weights
    )


def write_vector_observations(
    path: str,
    times: np.ndarray,
    values: np.ndarray,
    informations: np.ndarray,
    *,
    manifest_digest: Optional[str] = None,
) -> None:
    _write_columns(
        path, SCHEMA_VECTOR_OBS,
        (times, values, *_information_columns(informations)), manifest_digest,
    )


def read_vector_observations(path: str) -> VectorObservationSeries:
    return _vector_series(read_table(path, expect_schema=SCHEMA_VECTOR_OBS))


def _vector_series(table: Table) -> VectorObservationSeries:
    """The series of a vector observation table.

    An asymmetric or indefinite information matrix raises SchemaError
    naming its row.
    """
    times, x, y, ixx, ixy, iyy = _columns(table)
    informations = _informations(ixx, ixy, iyy)
    try:
        return VectorObservationSeries(
            grid=build_time_grid(times),
            values=np.column_stack([x, y]),
            informations=informations,
        )
    except (NonSymmetricInformation, IndefiniteInformation):
        # Only a failing table pays for finding the row, one check per row.
        _by_row(lambda info: _symmetrized(info[None], where="of this row"), zip(informations))
        raise


def write_truth(
    path: str,
    times: np.ndarray,
    truth: np.ndarray,
    *,
    manifest_digest: Optional[str] = None,
) -> None:
    truth = np.asarray(truth, dtype=float)
    schema = SCHEMA_SCALAR_TRUTH if truth.ndim == 1 else SCHEMA_PLANAR_TRUTH
    _write_columns(path, schema, (times, truth), manifest_digest)


def read_truth(path: str) -> Tuple[np.ndarray, np.ndarray]:
    table = read_table(path)
    if table.schema == SCHEMA_SCALAR_TRUTH:
        return tuple(_columns(table))
    if table.schema == SCHEMA_PLANAR_TRUTH:
        return _pairs(_columns(table))
    raise SchemaError(f"{path} holds schema {table.schema!r}, expected a truth table")


def write_bearings(
    path: str,
    times: np.ndarray,
    bearings: np.ndarray,
    variances: np.ndarray,
    *,
    manifest_digest: Optional[str] = None,
) -> None:
    _write_columns(path, SCHEMA_BEARINGS, (times, bearings, variances), manifest_digest)


def read_bearings(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _pairs(_columns(read_table(path, expect_schema=SCHEMA_BEARINGS)))


def write_sensor_tracks(
    path: str,
    times: np.ndarray,
    positions_a: np.ndarray,
    positions_b: np.ndarray,
    *,
    manifest_digest: Optional[str] = None,
) -> None:
    _write_columns(
        path, SCHEMA_SENSOR_TRACKS, (times, positions_a, positions_b), manifest_digest
    )


def read_sensor_tracks(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _pairs(_columns(read_table(path, expect_schema=SCHEMA_SENSOR_TRACKS)))


def write_polar_observations(
    path: str,
    times: np.ndarray,
    observations: Sequence[PolarObservation],
    *,
    manifest_digest: Optional[str] = None,
) -> None:
    readings = [
        (obs.distance, obs.bearing, obs.distance_variance, obs.bearing_variance)
        for obs in observations
    ]
    _write_columns(
        path, SCHEMA_POLAR_OBS, (times, np.reshape(readings, (-1, 4))), manifest_digest
    )


def read_polar_observations(
    path: str,
) -> Tuple[np.ndarray, Tuple[PolarObservation, ...]]:
    times, *readings = _columns(read_table(path, expect_schema=SCHEMA_POLAR_OBS))
    # The columns follow PolarObservation's field order.
    columns = {"distance": "range", "distance_variance": "range_variance"}
    return times, _by_row(PolarObservation, zip(*readings), columns)


def write_range_pairs(
    path: str,
    times: np.ndarray,
    ranges: np.ndarray,
    variances: np.ndarray,
    *,
    manifest_digest: Optional[str] = None,
) -> None:
    _write_columns(path, SCHEMA_RANGE_PAIRS, (times, ranges, variances), manifest_digest)


def read_range_pairs(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _pairs(_columns(read_table(path, expect_schema=SCHEMA_RANGE_PAIRS)))


def write_trajectory(
    path: str,
    trajectory: ShadowingTrajectory,
    *,
    manifest_digest: Optional[str] = None,
) -> None:
    """Write t, position, velocity, acceleration columns.

    Accelerations are per interval, so the final row's acceleration
    cells are empty; a sqrt(eta)-scaled copy rides along for plots that
    compare acceleration traces across smoothing strengths.
    """
    count, dim = trajectory.grid.times.size, trajectory.dim
    accel = np.append(
        np.reshape(trajectory.accelerations, (count - 1, dim)),
        np.full((1, dim), math.nan),
        axis=0,
    )
    names = (
        "t", *_axes("p", dim), *_axes("v", dim), *_axes("a", dim),
        *(name + "_scaled" for name in _axes("a", dim)),
    )
    columns = (
        trajectory.grid.times,
        np.reshape(trajectory.positions, (count, dim)),
        np.reshape(trajectory.velocities, (count, dim)),
        accel,
        accel * math.sqrt(trajectory.eta),
    )
    _write_columns(path, SCHEMA_TRAJECTORY, columns, manifest_digest, names)


def write_track_points(
    path: str,
    points: Sequence[TrackPoint],
    *,
    manifest_digest: Optional[str] = None,
) -> None:
    if not points:
        raise SchemaError("no track points to write")
    dim = points[0].position.size
    names = (
        "t", *_axes("p", dim), *_axes("v", dim), *_axes("a", dim),
        "weight", "provenance", "usable_points",
    )
    columns = (
        [pt.time for pt in points],
        [pt.position for pt in points],
        [pt.velocity for pt in points],
        [pt.acceleration for pt in points],
        [pt.weight for pt in points],
        [pt.provenance for pt in points],
        [pt.usable_points for pt in points],
    )
    _write_columns(path, SCHEMA_TRACK, columns, manifest_digest, names)


def write_raw_estimates(
    path: str,
    times: np.ndarray,
    estimates: Sequence[RawPositionEstimate],
    *,
    manifest_digest: Optional[str] = None,
) -> None:
    columns = (
        times,
        [est.position for est in estimates],
        *_information_columns([est.information for est in estimates]),
        [est.weight for est in estimates],
        [est.provenance for est in estimates],
    )
    _write_columns(path, SCHEMA_RAW_ESTIMATES, columns, manifest_digest)


def read_raw_estimates(
    path: str,
) -> Tuple[np.ndarray, Tuple[RawPositionEstimate, ...]]:
    return _raw_estimates(read_table(path, expect_schema=SCHEMA_RAW_ESTIMATES))


def _raw_estimates(table: Table) -> Tuple[np.ndarray, Tuple[RawPositionEstimate, ...]]:
    times, x, y, ixx, ixy, iyy, weights, provenance = _columns(table)
    fixes = zip(np.column_stack([x, y]), _informations(ixx, ixy, iyy), weights, provenance)
    return times, _by_row(RawPositionEstimate, fixes, {"weight": "w"})
