"""Command-line interface: subcommands, manifests, reruns, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from shadowtrack import (
    PROVENANCE_OBSERVED,
    NumericalError,
    PolarObservation,
    RawPositionEstimate,
    cli,
    fileio,
    solve_scalar,
    solver,
)


def run_cli(*argv):
    return cli.main(list(argv))


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def dir_snapshot(root):
    snapshot = {}
    for name in sorted(os.listdir(root)):
        snapshot[name] = read_bytes(os.path.join(root, name))
    return snapshot


class TestGenerate:
    def test_rednoise_outputs(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run_cli("generate", "rednoise", "--seed", "3", "--out", out) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        names = sorted(os.listdir(out))
        assert names == [
            "rednoise-seed3-manifest.json",
            "rednoise-seed3-observations.csv",
            "rednoise-seed3-truth.csv",
        ]
        assert [os.path.basename(line) for line in printed] == [
            "rednoise-seed3-observations.csv",
            "rednoise-seed3-truth.csv",
        ]
        manifest = fileio.read_json(os.path.join(out, "rednoise-seed3-manifest.json"))
        assert manifest["format"] == fileio.MANIFEST_FORMAT
        assert manifest["digest"] == fileio.manifest_digest(manifest)
        series = fileio.read_scalar_observations(
            os.path.join(out, "rednoise-seed3-observations.csv")
        )
        assert series.values.size == 101

    def test_csv_header_carries_manifest_digest(self, tmp_path):
        out = str(tmp_path)
        run_cli("generate", "rednoise", "--seed", "0", "--out", out)
        manifest = fileio.read_json(os.path.join(out, "rednoise-seed0-manifest.json"))
        table = fileio.read_table(os.path.join(out, "rednoise-seed0-observations.csv"))
        assert table.meta["manifest"] == manifest["digest"]

    def test_missing_fraction_thins_interior(self, tmp_path):
        out = str(tmp_path)
        run_cli(
            "generate", "rednoise", "--seed", "1", "--out", out,
            "--missing-fraction", "0.75",
        )
        series = fileio.read_scalar_observations(
            os.path.join(out, "rednoise-seed1-observations.csv")
        )
        assert series.values.size == 26
        manifest = fileio.read_json(os.path.join(out, "rednoise-seed1-manifest.json"))
        retained = manifest["scenario"]["retained_indices"]
        assert len(retained) == 26
        assert retained[0] == 0 and retained[-1] == 100

    def test_sonar_outputs_geometry(self, tmp_path):
        out = str(tmp_path)
        assert run_cli("generate", "sonar", "--seed", "1", "--out", out) == 0
        manifest = fileio.read_json(os.path.join(out, "sonar-seed1-manifest.json"))
        geometry = manifest["geometry"]
        assert geometry["kind"] == "two-bearings"
        assert geometry["site_a"]["start"] == [-3.0, 3.0]
        assert geometry["site_b"]["end"] == [3.0, -1.0]
        times, bearings, variances = fileio.read_bearings(
            os.path.join(out, "sonar-seed1-bearings.csv")
        )
        assert bearings.shape == (times.size, 2)

    def test_range_bearing_outputs(self, tmp_path):
        out = str(tmp_path)
        assert run_cli("generate", "range-bearing", "--seed", "2", "--out", out) == 0
        manifest = fileio.read_json(
            os.path.join(out, "range-bearing-seed2-manifest.json")
        )
        assert manifest["geometry"]["kind"] == "range-bearing"
        times, observations = fileio.read_polar_observations(
            os.path.join(out, "range-bearing-seed2-polar.csv")
        )
        assert all(obs.distance > 0 for obs in observations)

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        assert run_cli("generate", "mystery", "--out", str(tmp_path)) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_fraction_rejected_for_planar(self, tmp_path):
        code = run_cli(
            "generate", "planar", "--out", str(tmp_path),
            "--missing-fraction", "0.5",
        )
        assert code == 2


class TestFilter:
    def make_obs(self, tmp_path):
        out = str(tmp_path / "gen")
        run_cli("generate", "rednoise", "--seed", "2", "--out", out)
        return os.path.join(out, "rednoise-seed2-observations.csv")

    def test_eta_mode(self, tmp_path, capsys):
        obs = self.make_obs(tmp_path)
        out = str(tmp_path / "fit")
        assert run_cli("filter", obs, "--eta", "100", "--out", out) == 0
        traj_path = os.path.join(out, "rednoise-seed2-observations-eta100-trajectory.csv")
        assert os.path.exists(traj_path)
        table = fileio.read_table(traj_path, expect_schema=fileio.SCHEMA_TRAJECTORY)
        assert len(table.rows) == 101
        manifest = fileio.read_json(
            os.path.join(out, "rednoise-seed2-observations-eta100-manifest.json")
        )
        assert manifest["result"]["rank"] > 0
        assert manifest["result"]["rms_acceleration"] > 0

    def test_xi_mode_records_search(self, tmp_path):
        obs = self.make_obs(tmp_path)
        out = str(tmp_path / "fit")
        assert run_cli("filter", obs, "--xi", "0.05", "--out", out) == 0
        manifest_path = os.path.join(
            out, "rednoise-seed2-observations-xi0.05-manifest.json"
        )
        manifest = fileio.read_json(manifest_path)
        search = manifest["search"]
        assert search["iterations"] >= 1
        assert search["eta"] > 0
        assert math.isfinite(search["xi"])

    def test_linear_data_yields_zero_acceleration_columns(self, tmp_path):
        times = np.arange(8.0)
        obs_path = str(tmp_path / "line.csv")
        fileio.write_scalar_observations(
            obs_path, times, 1.0 + 2.0 * times, np.ones(8)
        )
        out = str(tmp_path / "fit")
        assert run_cli("filter", obs_path, "--eta", "1", "--out", out) == 0
        table = fileio.read_table(
            os.path.join(out, "line-eta1-trajectory.csv")
        )
        accel = table.floats("a")[:-1]
        scaled = table.floats("a_scaled")[:-1]
        assert np.abs(accel).max() <= 1e-9
        assert np.array_equal(scaled, accel * 1.0)
        assert table.rows[-1][table.column_index("a")] == ""

    def test_vector_observations_dispatch(self, tmp_path):
        times = np.arange(6.0)
        values = np.column_stack([1.0 + times, 2.0 - times])
        informations = np.stack([np.eye(2)] * 6)
        obs_path = str(tmp_path / "vec.csv")
        fileio.write_vector_observations(obs_path, times, values, informations)
        out = str(tmp_path / "fit")
        assert run_cli("filter", obs_path, "--eta", "10", "--out", out) == 0
        table = fileio.read_table(os.path.join(out, "vec-eta10-trajectory.csv"))
        assert table.names[:3] == ("t", "px", "py")
        assert np.abs(table.floats("px") - (1.0 + times)).max() <= 1e-8

    def test_eta_and_xi_mutually_exclusive(self, tmp_path, capsys):
        obs = self.make_obs(tmp_path)
        with pytest.raises(SystemExit) as info:
            run_cli("filter", obs, "--eta", "1", "--xi", "0.1")
        assert info.value.code == 2

    def test_nonpositive_eta_exits_2(self, tmp_path):
        obs = self.make_obs(tmp_path)
        assert run_cli("filter", obs, "--eta", "-5") == 2

    def test_unreachable_xi_bracket_exits_2(self, tmp_path):
        obs = self.make_obs(tmp_path)
        assert run_cli(
            "filter", obs, "--xi", "1e-12", "--bracket", "1e-4", "1e8"
        ) == 2

    @pytest.mark.parametrize("target", ["nan", "inf", "-1"])
    def test_bad_xi_target_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                    target):
        obs = self.make_obs(tmp_path)
        solves = []
        solve = solver._solve
        monkeypatch.setattr(solver, "_solve", lambda *args: solves.append(args) or solve(*args))
        out = tmp_path / "fit"
        assert run_cli("filter", obs, "--xi", target, "--out", str(out)) == 2
        assert "xi target must be a finite non-negative number" in capsys.readouterr().err
        assert not out.exists()
        assert solves == []

    def test_missing_input_exits_3(self, tmp_path):
        assert run_cli("filter", str(tmp_path / "ghost.csv"), "--eta", "1") == 3

    def test_xi_mode_writes_the_search_fit_without_solving_again(self, tmp_path,
                                                                 monkeypatch):
        obs = self.make_obs(tmp_path)
        solves = []
        solve = solver._solve
        monkeypatch.setattr(solver, "_solve", lambda *args: solves.append(args) or solve(*args))
        monkeypatch.setattr(cli, "solve_scalar", None)
        out = tmp_path / "fit"
        assert run_cli("filter", obs, "--xi", "0.05", "--out", str(out)) == 0
        manifest = fileio.read_json(
            str(out / "rednoise-seed2-observations-xi0.05-manifest.json"))
        # The two bracket ends, then one solve per iteration.
        assert len(solves) == manifest["search"]["iterations"] + 2
        table = fileio.read_table(
            str(out / "rednoise-seed2-observations-xi0.05-trajectory.csv"))
        fit = solve_scalar(fileio.read_scalar_observations(obs), manifest["search"]["eta"])
        assert np.array_equal(table.floats("p"), fit.positions)

    def test_wrong_schema_exits_3(self, tmp_path):
        path = str(tmp_path / "truth.csv")
        fileio.write_truth(path, np.arange(4.0), np.arange(4.0))
        assert run_cli("filter", path, "--eta", "1") == 3

    def test_numerical_error_exits_4(self, tmp_path, monkeypatch):
        obs = self.make_obs(tmp_path)

        def explode(args):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "cmd_filter", explode)
        assert run_cli("filter", obs, "--eta", "1") == 4


class TestTrack:
    # A gap row holds an empty value cell or a zero weight.
    @pytest.mark.parametrize(
        "command, gap_value, gap_weight",
        [("track", math.nan, 1.0), ("track", 99.0, 0.0),
         ("filter", math.nan, 1.0), ("filter", 99.0, 0.0)],
        ids=["empty-value", "zero-weight", "filter-empty-value", "filter-zero-weight"],
    )
    def test_scalar_stream_with_gaps(self, tmp_path, command, gap_value, gap_weight):
        times = np.arange(10.0)
        values = 2.0 + 3.0 * times
        weights = np.ones(10)
        values[6], weights[6] = gap_value, gap_weight
        obs_path = str(tmp_path / "stream.csv")
        fileio.write_scalar_observations(obs_path, times, values, weights)
        out = str(tmp_path / "out")
        assert run_cli(command, obs_path, "--eta", "5", "--out", out) == 0
        if command == "filter":
            table = fileio.read_table(
                os.path.join(out, "stream-eta5-trajectory.csv"),
                expect_schema=fileio.SCHEMA_TRAJECTORY,
            )
            positions = table.floats("p")
            assert positions.shape == (10,)
            assert abs(positions[6] - (2.0 + 3.0 * 6)) <= 1e-6
            return
        table = fileio.read_table(
            os.path.join(out, "stream-track.csv"), expect_schema=fileio.SCHEMA_TRACK
        )
        provenance = table.strings("provenance")
        assert provenance[6] == "dropped"
        assert provenance[5] == "observed"
        positions = table.floats("p")
        assert abs(positions[6] - (2.0 + 3.0 * 6)) <= 1e-6
        assert abs(positions[-1] - (2.0 + 3.0 * 9)) <= 1e-6

    def test_forecast_policy_marks_gap_rows(self, tmp_path):
        times = np.arange(10.0)
        values = 2.0 + 3.0 * times
        values[6] = math.nan
        obs_path = str(tmp_path / "stream.csv")
        fileio.write_scalar_observations(obs_path, times, values, np.ones(10))
        out = str(tmp_path / "trk")
        assert run_cli(
            "track", obs_path, "--eta", "5", "--out", out,
            "--policy", "forecast-insert",
        ) == 0
        table = fileio.read_table(os.path.join(out, "stream-track.csv"))
        assert table.strings("provenance")[6] == "forecast-inserted"

    def test_raw_estimate_stream(self, tmp_path):
        gen_dir = str(tmp_path / "gen")
        run_cli("generate", "range-bearing", "--seed", "1", "--out", gen_dir)
        manifest = fileio.read_json(
            os.path.join(gen_dir, "range-bearing-seed1-manifest.json")
        )
        geo_path = str(tmp_path / "geo.json")
        fileio.write_json(geo_path, {"geometry": manifest["geometry"]})
        polar = os.path.join(gen_dir, "range-bearing-seed1-polar.csv")
        xform_dir = str(tmp_path / "xf")
        assert run_cli("transform", polar, geo_path, "--out", xform_dir) == 0
        raw = os.path.join(xform_dir, "range-bearing-seed1-polar-raw-estimates.csv")
        out = str(tmp_path / "trk")
        assert run_cli("track", raw, "--eta", "1000", "--out", out) == 0
        table = fileio.read_table(
            os.path.join(out, "range-bearing-seed1-polar-raw-estimates-track.csv")
        )
        assert table.names[:3] == ("t", "px", "py")
        assert np.isfinite(table.floats("px")).all()

    def test_wrong_schema_exits_3(self, tmp_path, capsys):
        path = str(tmp_path / "truth.csv")
        fileio.write_truth(path, np.arange(4.0), np.arange(4.0))
        assert run_cli("track", path, "--out", str(tmp_path / "trk")) == 3
        assert "track accepts" in capsys.readouterr().err

    def test_all_gap_stream_emits_nan_placeholders(self, tmp_path):
        times = np.arange(5.0)
        values = np.full(5, math.nan)
        obs_path = str(tmp_path / "empty.csv")
        fileio.write_scalar_observations(obs_path, times, values, np.ones(5))
        assert run_cli("track", obs_path, "--out", str(tmp_path / "trk")) == 0
        table = fileio.read_table(
            str(tmp_path / "trk" / "empty-track.csv"),
            expect_schema=fileio.SCHEMA_TRACK,
        )
        assert np.isnan(table.floats("p")).all()
        assert table.strings("provenance") == ["dropped"] * 5
        assert np.array_equal(table.floats("weight"), np.zeros(5))

    def test_out_of_order_stream_names_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# schema=shadowtrack.scalar-observations.v1\n"
            "t,value,weight\n"
            "0.0,1.0,1.0\n"
            "2.0,1.0,1.0\n"
            "1.0,1.0,1.0\n"
        )
        assert run_cli("track", str(path), "--out", str(tmp_path / "trk")) == 3
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("window", [[], ["--window", "25"]], ids=["full", "window"])
    def test_indefinite_information_names_row(self, tmp_path, capsys, window):
        times = np.arange(60.0)
        # Row 40 carries a negated iyy.
        estimates = [
            RawPositionEstimate(position=[t, 0.5 * t],
                                information=np.diag([1.0, -1.0 if i == 40 else 1.0]),
                                weight=1.0, provenance=PROVENANCE_OBSERVED)
            for i, t in enumerate(times)
        ]
        path = str(tmp_path / "stream.csv")
        fileio.write_raw_estimates(path, times, estimates)
        assert run_cli("track", path, *window, "--out", str(tmp_path / "trk")) == 3
        err = capsys.readouterr().err
        assert "row 40" in err and "sample" not in err

    @pytest.mark.parametrize(
        "command, weight",
        [("track", ""), ("track", "-1.0"), ("track", "inf"),
         ("filter", ""), ("filter", "-1.0"), ("filter", "inf")],
        ids=["nan", "negative", "infinite",
             "filter-nan", "filter-negative", "filter-infinite"],
    )
    def test_bad_weight_names_row_and_column(self, tmp_path, capsys, command, weight):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# schema=shadowtrack.scalar-observations.v1\n"
            "t,value,weight\n"
            "0.0,1.0,1.0\n"
            f"1.0,1.0,{weight}\n"
            "2.0,1.0,1.0\n"
        )
        assert run_cli(command, str(path), "--eta", "5", "--out", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "row 1" in err and "'weight'" in err


class TestTransform:
    def test_two_ranges_recovers_plants(self, tmp_path):
        sites = np.array([[0.0, 0.0], [4.0, 0.0]])
        truth = np.column_stack([1.0 + 0.2 * np.arange(6.0), np.full(6, 2.0)])
        ranges = np.column_stack([
            np.linalg.norm(truth - sites[0], axis=1),
            np.linalg.norm(truth - sites[1], axis=1),
        ])
        times = np.arange(6.0)
        pairs = str(tmp_path / "pairs.csv")
        fileio.write_range_pairs(pairs, times, ranges, np.full((6, 2), 0.01))
        geo = str(tmp_path / "geo.json")
        fileio.write_json(geo, {
            "geometry": {
                "kind": "two-ranges",
                "site_a": {"position": [0.0, 0.0]},
                "site_b": {"position": [4.0, 0.0]},
                "disambiguator": [1.0, 1.0],
            }
        })
        out = str(tmp_path / "xf")
        assert run_cli("transform", pairs, geo, "--out", out) == 0
        times_out, estimates = fileio.read_raw_estimates(
            os.path.join(out, "pairs-raw-estimates.csv")
        )
        recovered = np.stack([e.position for e in estimates])
        assert np.abs(recovered - truth).max() <= 1e-9

    def test_two_bearings_with_moving_sites(self, tmp_path):
        gen_dir = str(tmp_path / "gen")
        run_cli("generate", "sonar", "--seed", "0", "--out", gen_dir)
        manifest = fileio.read_json(os.path.join(gen_dir, "sonar-seed0-manifest.json"))
        geo = str(tmp_path / "geo.json")
        fileio.write_json(geo, {"geometry": manifest["geometry"]})
        bearings = os.path.join(gen_dir, "sonar-seed0-bearings.csv")
        out = str(tmp_path / "xf")
        assert run_cli("transform", bearings, geo, "--out", out) == 0
        times, estimates = fileio.read_raw_estimates(
            os.path.join(out, "sonar-seed0-bearings-raw-estimates.csv")
        )
        truth_times, truth = fileio.read_truth(
            os.path.join(gen_dir, "sonar-seed0-truth.csv")
        )
        usable = [i for i, e in enumerate(estimates) if e.usable]
        assert len(usable) > 80
        errors = [
            np.linalg.norm(estimates[i].position - truth[i]) for i in usable
        ]
        assert np.median(errors) < 1.0

    def test_propagate_mode_changes_information(self, tmp_path):
        gen_dir = str(tmp_path / "gen")
        run_cli("generate", "range-bearing", "--seed", "0", "--out", gen_dir)
        manifest = fileio.read_json(
            os.path.join(gen_dir, "range-bearing-seed0-manifest.json")
        )
        geo = str(tmp_path / "geo.json")
        fileio.write_json(geo, {"geometry": manifest["geometry"]})
        polar = os.path.join(gen_dir, "range-bearing-seed0-polar.csv")
        out_a = str(tmp_path / "ignore")
        out_b = str(tmp_path / "prop")
        run_cli("transform", polar, geo, "--out", out_a, "--mode", "ignore-correlation")
        run_cli("transform", polar, geo, "--out", out_b, "--mode", "propagate")
        _, ignore = fileio.read_raw_estimates(
            os.path.join(out_a, "range-bearing-seed0-polar-raw-estimates.csv")
        )
        _, prop = fileio.read_raw_estimates(
            os.path.join(out_b, "range-bearing-seed0-polar-raw-estimates.csv")
        )
        assert np.array_equal(ignore[0].position, prop[0].position)
        off_diag = [abs(e.information[0, 1]) for e in prop if e.usable]
        assert max(off_diag) > 0
        for e in ignore:
            assert e.information[0, 1] == 0.0

    @pytest.mark.parametrize("geometry, named", [
        ({"kind": "triangulation"}, "triangulation"),
        ({"kind": "range-bearing"}, "'site'"),
        ({"kind": "range-bearing", "site": ["east", 0.0]}, "site"),
        ({"kind": "two-bearings", "site_b": {"position": [5.0, 0.0]}}, "'site_a'"),
        ({"kind": "two-ranges", "site_a": {"position": [0.0, 0.0]}}, "'site_b'"),
        ({"kind": "two-ranges", "site_a": {"start": [0.0, "north"]},
          "site_b": {"position": [5.0, 0.0]}}, "site_a.start"),
        ({"kind": "two-bearings", "site_a": {"position": {"x": 0.0}},
          "site_b": {"position": [5.0, 0.0]}}, "site_a.position"),
        ("two-ranges", "geometry must be an object"),
        ({"kind": "two-ranges", "site_a": [0.0, 0.0], "site_b": {"position": [5.0, 0.0]}},
         "site_a must be an object"),
        ({"kind": "two-bearings", "site_a": {"start": [0.0, 0.0], "span": 0.0},
          "site_b": {"position": [5.0, 0.0]}}, "site_a needs a positive number as span"),
        ({"kind": "two-ranges", "site_a": {"position": [0.0, 0.0]},
          "site_b": {"at": [5.0, 0.0]}}, "site_b needs 'start'/'end' or 'position'"),
    ], ids=["unknown-kind", "missing-site", "text-site", "missing-site-a",
            "missing-site-b", "text-start", "object-position", "not-an-object",
            "list-site", "zero-span", "neither-key"])
    def test_unknown_geometry_kind_exits_3(self, tmp_path, capsys, geometry, named):
        pairs = str(tmp_path / "pairs.csv")
        fileio.write_range_pairs(
            pairs, np.arange(3.0), np.ones((3, 2)), np.full((3, 2), 0.01)
        )
        geo = str(tmp_path / "geo.json")
        fileio.write_json(geo, {"geometry": geometry})
        assert run_cli("transform", pairs, geo, "--out", str(tmp_path)) == 3
        assert named in capsys.readouterr().err


class TestNonFiniteCells:
    """Every empty or non-finite numeric cell exits 3 naming its row and column.

    The one exception, an empty value cell of a scalar observation table,
    is a gap (``TestTrack.test_scalar_stream_with_gaps``).
    """

    TIMES = np.arange(5.0)
    SITES = {"site_a": {"position": [0.0, 0.0]}, "site_b": {"position": [5.0, 0.0]}}

    def write(self, tmp_path, schema):
        path, t = str(tmp_path / "in.csv"), self.TIMES
        pairs, variances = np.column_stack([1.0 + t, 6.0 - t]), np.full((5, 2), 0.01)
        geometry = None
        if schema == "scalar":
            fileio.write_scalar_observations(path, t, np.sin(t), np.ones(5))
        elif schema == "vector":
            fileio.write_vector_observations(
                path, t, np.column_stack([t, t * t]), np.tile(np.eye(2), (5, 1, 1)))
        elif schema == "raw":
            fileio.write_raw_estimates(path, t, [
                RawPositionEstimate(position=[x, 0.5 * x], information=np.eye(2),
                                    weight=1.0, provenance=PROVENANCE_OBSERVED)
                for x in t])
        elif schema == "polar":
            fileio.write_polar_observations(
                path, t, [PolarObservation(1.0 + x, 0.3, 0.01, 0.001) for x in t])
            geometry = {"kind": "range-bearing", "site": [0.0, 0.0]}
        elif schema == "bearings":
            fileio.write_bearings(path, t, np.column_stack([0.2 + 0.1 * t, 2.0 - 0.1 * t]),
                                  variances)
            geometry = {"kind": "two-bearings", **self.SITES}
        else:
            fileio.write_range_pairs(path, t, pairs, variances)
            geometry = {"kind": "two-ranges", **self.SITES}
        if geometry is not None:
            fileio.write_json(str(tmp_path / "geo.json"), {"geometry": geometry})
        return path

    @staticmethod
    def replace_cell(path, row, column, text):
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        index = lines[header].split(",").index(column)
        cells = lines[header + 1 + row].split(",")
        cells[index] = text
        lines[header + 1 + row] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    @pytest.mark.parametrize("command, schema, column, text", [
        ("track", "raw", "x", ""),
        ("track", "raw", "w", ""),
        ("track", "raw", "iyy", "inf"),
        ("track", "scalar", "value", "inf"),
        ("track", "scalar", "t", ""),
        ("filter", "vector", "y", ""),
        ("filter", "vector", "t", ""),
        ("filter", "scalar", "t", "nan"),
        ("transform", "polar", "range", ""),
        ("transform", "bearings", "variance_a", "-inf"),
        ("transform", "range-pairs", "range_b", ""),
    ])
    def test_exits_3_naming_row_and_column(self, tmp_path, capsys, command, schema,
                                           column, text):
        path = self.write(tmp_path, schema)
        self.replace_cell(path, 2, column, text)
        argv = {"track": [path], "filter": [path, "--eta", "5"],
                "transform": [path, str(tmp_path / "geo.json")]}[command]
        out = tmp_path / "out"
        assert run_cli(command, *argv, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert f"(row 2, column {column!r})" in err
        assert not out.exists()


# Each chain runs its steps in order; step k writes to "<root>/<k>", and
# "{k}" in an argument names that directory.
RERUN_CHAINS = {
    "rednoise-filter": [
        ("generate", "rednoise", "--seed", "7"),
        ("filter", "{0}/rednoise-seed7-observations.csv", "--eta", "1000"),
    ],
    "sonar-transform-track": [
        ("generate", "sonar", "--seed", "7"),
        ("transform", "{0}/sonar-seed7-bearings.csv", "{0}/sonar-seed7-manifest.json"),
        ("track", "{1}/sonar-seed7-bearings-raw-estimates.csv", "--window", "25"),
    ],
    "range-bearing-propagate-track": [
        ("generate", "range-bearing", "--seed", "7"),
        ("transform", "{0}/range-bearing-seed7-polar.csv",
         "{0}/range-bearing-seed7-manifest.json", "--mode", "propagate"),
        ("track", "{1}/range-bearing-seed7-polar-raw-estimates.csv"),
    ],
    "planar-filter-xi": [
        ("generate", "planar", "--seed", "7"),
        ("filter", "{0}/planar-seed7-observations.csv", "--xi", "0.1"),
    ],
}


class TestDeterministicRerun:
    @pytest.mark.parametrize("chain", RERUN_CHAINS.values(), ids=RERUN_CHAINS.keys())
    def test_pipeline_rerun_is_byte_identical(self, tmp_path, chain):
        snapshots = []
        for label in ("one", "two"):
            dirs = [str(tmp_path / label / str(k)) for k in range(len(chain))]
            merged = {}
            for k, step in enumerate(chain):
                argv = [arg.format(*dirs) for arg in step]
                assert run_cli(*argv, "--out", dirs[k]) == 0, argv
                merged.update(
                    {f"{k}/{name}": data for name, data in dir_snapshot(dirs[k]).items()}
                )
            snapshots.append(merged)
        assert snapshots[0].keys() == snapshots[1].keys()
        for name in snapshots[0]:
            assert snapshots[0][name] == snapshots[1][name], name

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--version"])
        assert info.value.code == 0


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        """Importing SciPy costs about 0.3 s, more than the CLI's whole set-up."""
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        probe = ("import sys, shadowtrack.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "[]"
