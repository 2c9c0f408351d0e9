"""CSV and manifest serialization: round trips, schema checks, digests."""

import json
import math

import numpy as np
import pytest

from shadowtrack import (
    IOFailure,
    PROVENANCE_DROPPED,
    PROVENANCE_OBSERVED,
    RawPositionEstimate,
    SchemaError,
    ScalarObservationSeries,
    build_time_grid,
    solve_scalar,
    solve_vector,
    gen_scalar_rednoise,
    gen_two_sensor_bearings,
    gen_range_bearing,
    SequentialTracker,
    TrackerConfig,
)
from shadowtrack import fileio


def scalar_series():
    grid = build_time_grid([0.0, 1.0, 2.5, 4.0, 5.0])
    values = np.array([1.0, 2.0, 2.5, 4.5, 5.0])
    weights = np.array([1.0, 0.5, 2.0, 1.0, 1.0])
    return ScalarObservationSeries(grid=grid, values=values, weights=weights)


class TestFloatFormatting:
    def test_repr_round_trip(self):
        for value in (0.1, 1.0 / 3.0, -2.5e-17, 1e300, 0.0, -0.0):
            cell = fileio.format_float(value)
            assert float(cell) == value

    def test_nan_is_empty_cell(self):
        assert fileio.format_float(float("nan")) == ""

    def test_parse_empty_as_nan(self):
        assert math.isnan(fileio.parse_float("", row=0, column="v"))

    def test_parse_failure_names_location(self):
        with pytest.raises(SchemaError) as info:
            fileio.parse_float("abc", row=7, column="value")
        assert "row 7" in str(info.value)
        assert "'value'" in str(info.value)


class TestTableLayer:
    def test_round_trip_with_manifest_comment(self, tmp_path):
        path = str(tmp_path / "t.csv")
        fileio.write_table(
            path, "demo.v1", ("t", "v"), [(0.0, 1.5), (1.0, float("nan"))],
            manifest_digest="ab" * 32,
        )
        table = fileio.read_table(path, expect_schema="demo.v1")
        assert table.schema == "demo.v1"
        assert table.meta["manifest"] == "ab" * 32
        assert table.names == ("t", "v")
        assert table.rows[0] == ("0.0", "1.5")
        assert table.rows[1][1] == ""

    def test_schema_mismatch(self, tmp_path):
        path = str(tmp_path / "t.csv")
        fileio.write_table(path, "demo.v1", ("t",), [(0.0,)])
        with pytest.raises(SchemaError):
            fileio.read_table(path, expect_schema="other.v1")

    def test_missing_schema_comment(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("t,v\n0,1\n")
        with pytest.raises(SchemaError):
            fileio.read_table(str(path))

    def test_ragged_row_reports_index(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("# schema=demo.v1\nt,v\n0,1\n2\n")
        with pytest.raises(SchemaError) as info:
            fileio.read_table(str(path))
        assert "row 1" in str(info.value)

    def test_width_mismatch_on_write(self, tmp_path):
        with pytest.raises(SchemaError):
            fileio.write_table(
                str(tmp_path / "w.csv"), "demo.v1", ("a", "b"), [(1.0,)]
            )

    def test_boolean_cell_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            fileio.write_table(str(tmp_path / "b.csv"), "demo.v1", ("a",), [(True,)])

    def test_integer_cells_have_no_decimal_point(self, tmp_path):
        path = str(tmp_path / "i.csv")
        fileio.write_table(path, "demo.v1", ("n",), [(5,), (np.int64(7),)])
        table = fileio.read_table(path)
        assert table.rows == (("5",), ("7",))

    def test_column_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            fileio.write_range_pairs(
                str(tmp_path / "short.csv"), np.arange(3.0), np.ones((4, 2)), np.ones((4, 2))
            )

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IOFailure):
            fileio.read_table(str(tmp_path / "absent.csv"))


def bytes_of(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestSeriesRoundTrips:
    def test_scalar_observations(self, tmp_path):
        series = scalar_series()
        first = str(tmp_path / "a.csv")
        fileio.write_scalar_observations(
            first, series.grid.times, series.values, series.weights
        )
        loaded = fileio.read_scalar_observations(first)
        second = str(tmp_path / "b.csv")
        fileio.write_scalar_observations(
            second, loaded.grid.times, loaded.values, loaded.weights
        )
        assert bytes_of(first) == bytes_of(second)

    def test_scalar_estimates_one_fix_per_row_or_none(self, tmp_path):
        path = str(tmp_path / "stream.csv")
        values = np.array([1.0, math.nan, 2.5, 4.5, 5.0])
        weights = np.array([1.0, 1.0, 0.0, 0.25, 2.0])
        fileio.write_scalar_observations(path, np.arange(5.0), values, weights)
        times, fixes = fileio._scalar_estimates(fileio.read_table(path))
        assert np.array_equal(times, np.arange(5.0))
        assert fixes[1] is None and fixes[2] is None
        for i in (0, 3, 4):
            assert np.array_equal(fixes[i].position, [values[i]])
            assert np.array_equal(fixes[i].information, [[weights[i]]])
            assert (fixes[i].weight, fixes[i].provenance) == (1.0, PROVENANCE_OBSERVED)

    def test_vector_observations(self, tmp_path):
        rng = np.random.default_rng(0)
        times = np.arange(6.0)
        values = rng.standard_normal((6, 2))
        informations = np.stack([np.eye(2) * (i + 1.0) for i in range(6)])
        informations[2, 0, 1] = informations[2, 1, 0] = 0.3
        first = str(tmp_path / "a.csv")
        fileio.write_vector_observations(first, times, values, informations)
        loaded = fileio.read_vector_observations(first)
        assert np.array_equal(loaded.values, values)
        assert np.array_equal(loaded.informations, informations)
        second = str(tmp_path / "b.csv")
        fileio.write_vector_observations(
            second, loaded.grid.times, loaded.values, loaded.informations
        )
        assert bytes_of(first) == bytes_of(second)

    def test_truth_scalar_and_planar(self, tmp_path):
        times = np.arange(4.0)
        scalar = np.array([1.0, 2.0, 3.5, 4.0])
        planar = np.column_stack([scalar, scalar * 2])
        p1 = str(tmp_path / "s.csv")
        fileio.write_truth(p1, times, scalar)
        t_out, v_out = fileio.read_truth(p1)
        assert np.array_equal(v_out, scalar)
        fileio.write_truth(str(tmp_path / "s2.csv"), t_out, v_out)
        assert bytes_of(p1) == bytes_of(str(tmp_path / "s2.csv"))
        p2 = str(tmp_path / "p.csv")
        fileio.write_truth(p2, times, planar)
        t_out, v_out = fileio.read_truth(p2)
        assert v_out.shape == (4, 2)
        assert np.array_equal(v_out, planar)
        fileio.write_truth(str(tmp_path / "p2.csv"), t_out, v_out)
        assert bytes_of(p2) == bytes_of(str(tmp_path / "p2.csv"))

    def test_truth_rejects_other_schema(self, tmp_path):
        path = str(tmp_path / "obs.csv")
        series = scalar_series()
        fileio.write_scalar_observations(
            path, series.grid.times, series.values, series.weights
        )
        with pytest.raises(SchemaError):
            fileio.read_truth(path)

    def test_bearings_and_sensor_tracks(self, tmp_path):
        sc = gen_two_sensor_bearings(0)
        in_variances = np.full((sc.times.size, 2), sc.bearing_noise_sd**2)
        b_path = str(tmp_path / "bearings.csv")
        fileio.write_bearings(b_path, sc.times, sc.bearings, in_variances)
        times, bearings, variances = fileio.read_bearings(b_path)
        assert np.array_equal(bearings, sc.bearings)
        assert np.array_equal(variances, in_variances)
        fileio.write_bearings(str(tmp_path / "b2.csv"), times, bearings, variances)
        assert bytes_of(b_path) == bytes_of(str(tmp_path / "b2.csv"))
        track_a = np.stack([sc.site_a.at(t) for t in sc.times])
        track_b = np.stack([sc.site_b.at(t) for t in sc.times])
        s_path = str(tmp_path / "tracks.csv")
        fileio.write_sensor_tracks(s_path, sc.times, track_a, track_b)
        times, pos_a, pos_b = fileio.read_sensor_tracks(s_path)
        assert np.array_equal(pos_a, track_a)
        assert np.array_equal(pos_b, track_b)
        fileio.write_sensor_tracks(str(tmp_path / "s2.csv"), times, pos_a, pos_b)
        assert bytes_of(s_path) == bytes_of(str(tmp_path / "s2.csv"))

    def test_polar_observations(self, tmp_path):
        sc = gen_range_bearing(2)
        path = str(tmp_path / "polar.csv")
        fileio.write_polar_observations(path, sc.times, sc.observations)
        times, observations = fileio.read_polar_observations(path)
        assert np.array_equal(times, sc.times)
        assert observations[3].distance == sc.observations[3].distance
        assert observations[3].bearing_variance == sc.observations[3].bearing_variance
        fileio.write_polar_observations(str(tmp_path / "p2.csv"), times, observations)
        assert bytes_of(path) == bytes_of(str(tmp_path / "p2.csv"))

    def test_range_pairs(self, tmp_path):
        times = np.arange(5.0)
        ranges = np.column_stack([1.0 + times, 2.0 + times])
        variances = np.full((5, 2), 0.04)
        path = str(tmp_path / "pairs.csv")
        fileio.write_range_pairs(path, times, ranges, variances)
        t_out, r_out, v_out = fileio.read_range_pairs(path)
        assert np.array_equal(r_out, ranges)
        assert np.array_equal(v_out, variances)
        fileio.write_range_pairs(str(tmp_path / "pairs2.csv"), t_out, r_out, v_out)
        assert bytes_of(path) == bytes_of(str(tmp_path / "pairs2.csv"))

    def test_raw_estimates(self, tmp_path):
        times = np.arange(3.0)
        estimates = (
            RawPositionEstimate(
                position=[1.0, 2.0],
                information=np.array([[2.0, 0.5], [0.5, 3.0]]),
                weight=0.8,
                provenance=PROVENANCE_OBSERVED,
            ),
            RawPositionEstimate(
                position=[0.0, 0.0],
                information=np.zeros((2, 2)),
                weight=0.0,
                provenance=PROVENANCE_DROPPED,
            ),
            RawPositionEstimate(
                position=[-1.0, 4.0],
                information=np.eye(2),
                weight=1.0,
                provenance=PROVENANCE_OBSERVED,
            ),
        )
        path = str(tmp_path / "raw.csv")
        fileio.write_raw_estimates(path, times, estimates)
        t_out, loaded = fileio.read_raw_estimates(path)
        assert loaded[0].information[0, 1] == 0.5
        assert loaded[1].provenance == PROVENANCE_DROPPED
        assert not loaded[1].usable
        assert loaded[2].weight == 1.0
        fileio.write_raw_estimates(str(tmp_path / "raw2.csv"), t_out, loaded)
        assert bytes_of(path) == bytes_of(str(tmp_path / "raw2.csv"))

    def test_raw_estimates_reject_unknown_provenance(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# schema=shadowtrack.raw-estimates.v1\n"
            "t,x,y,ixx,ixy,iyy,w,provenance\n"
            "0.0,1.0,2.0,1.0,0.0,1.0,1.0,guessed\n"
        )
        with pytest.raises(SchemaError) as info:
            fileio.read_raw_estimates(str(path))
        assert "guessed" in str(info.value)


class TestTrajectoryFiles:
    def test_scalar_trajectory_columns(self, tmp_path):
        trajectory = solve_scalar(scalar_series(), 4.0)
        path = str(tmp_path / "traj.csv")
        fileio.write_trajectory(path, trajectory)
        table = fileio.read_table(path, expect_schema=fileio.SCHEMA_TRAJECTORY)
        assert table.names == ("t", "p", "v", "a", "a_scaled")
        assert len(table.rows) == 5
        # Acceleration lives on intervals: the final row has no value.
        assert table.rows[-1][3] == ""
        assert table.rows[-1][4] == ""
        accel = table.floats("a")[:-1]
        scaled = table.floats("a_scaled")[:-1]
        assert np.allclose(scaled, accel * math.sqrt(4.0), rtol=1e-15)
        assert np.array_equal(table.floats("p"), trajectory.positions)

    def test_vector_trajectory_columns(self, tmp_path):
        sc = gen_range_bearing(1)
        from shadowtrack import range_bearing_to_position, VectorObservationSeries

        estimates = [
            range_bearing_to_position(sc.site, obs) for obs in sc.observations[:8]
        ]
        series = VectorObservationSeries(
            grid=build_time_grid(sc.times[:8]),
            values=np.stack([e.position for e in estimates]),
            informations=np.stack([e.information for e in estimates]),
        )
        trajectory = solve_vector(series, 10.0)
        path = str(tmp_path / "traj2.csv")
        fileio.write_trajectory(path, trajectory)
        table = fileio.read_table(path)
        assert table.names == (
            "t", "px", "py", "vx", "vy", "ax", "ay", "ax_scaled", "ay_scaled"
        )
        assert table.rows[-1][5] == ""
        assert np.array_equal(table.floats("px"), trajectory.positions[:, 0])

    def test_track_points_round_trip(self, tmp_path):
        tracker = SequentialTracker(TrackerConfig(eta=10.0))
        points = [tracker.step_scalar(float(i), 2.0 + 0.5 * i, 1.0) for i in range(6)]
        path = str(tmp_path / "track.csv")
        fileio.write_track_points(path, points)
        table = fileio.read_table(path, expect_schema=fileio.SCHEMA_TRACK)
        assert table.names == (
            "t", "p", "v", "a", "weight", "provenance", "usable_points"
        )
        assert table.strings("provenance") == [PROVENANCE_OBSERVED] * 6
        assert table.floats("usable_points")[-1] == 6.0

    def test_empty_track_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            fileio.write_track_points(str(tmp_path / "empty.csv"), [])


class TestManifests:
    def test_digest_ignores_embedded_digest(self):
        manifest = {"format": "shadowtrack.manifest.v1", "arguments": {"seed": 3}}
        digest = fileio.manifest_digest(manifest)
        with_digest = dict(manifest)
        with_digest["digest"] = digest
        assert fileio.manifest_digest(with_digest) == digest

    def test_digest_is_key_order_independent(self):
        a = {"x": 1, "y": [1, 2], "z": {"a": True}}
        b = {"z": {"a": True}, "y": [1, 2], "x": 1}
        assert fileio.manifest_digest(a) == fileio.manifest_digest(b)

    def test_digest_changes_with_content(self):
        assert fileio.manifest_digest({"seed": 1}) != fileio.manifest_digest(
            {"seed": 2}
        )

    def test_write_manifest_embeds_digest(self, tmp_path):
        path = str(tmp_path / "m.json")
        manifest = {"format": "shadowtrack.manifest.v1", "outputs": ["a.csv"]}
        digest = fileio.write_manifest(path, manifest)
        loaded = fileio.read_json(path)
        assert loaded["digest"] == digest
        assert fileio.manifest_digest(loaded) == digest
        assert len(digest) == 64

    def test_read_json_validates(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SchemaError):
            fileio.read_json(str(bad))
        array = tmp_path / "arr.json"
        array.write_text(json.dumps([1, 2]))
        with pytest.raises(SchemaError):
            fileio.read_json(str(array))
        with pytest.raises(IOFailure):
            fileio.read_json(str(tmp_path / "absent.json"))

    def test_write_json_deterministic(self, tmp_path):
        payload = {"b": 2, "a": [1.5, None], "c": {"nested": "x"}}
        p1, p2 = str(tmp_path / "1.json"), str(tmp_path / "2.json")
        fileio.write_json(p1, payload)
        fileio.write_json(p2, dict(reversed(list(payload.items()))))
        assert bytes_of(p1) == bytes_of(p2)


class TestRednoiseFileCycle:
    def test_solver_result_survives_disk(self, tmp_path):
        sc = gen_scalar_rednoise(4)
        obs_path = str(tmp_path / "obs.csv")
        fileio.write_scalar_observations(
            obs_path, sc.times, sc.observations.values, sc.observations.weights
        )
        loaded = fileio.read_scalar_observations(obs_path)
        direct = solve_scalar(sc.observations, 100.0)
        from_disk = solve_scalar(loaded, 100.0)
        assert np.array_equal(direct.positions, from_disk.positions)
        assert np.array_equal(direct.accelerations, from_disk.accelerations)
