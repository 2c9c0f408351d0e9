"""Command-line interface: subcommands, manifests, reruns, exit codes."""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

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
from shadowtrack.errors import SchemaError


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

    @pytest.mark.parametrize("argv", [
        ["planar", "--missing-fraction", "0.5"],
        ["rednoise", "--missing-fraction", "-0.5"],
        ["rednoise", "--missing-fraction", "nan"],
        ["rednoise", "--seed", "-1"],
        ["rednoise", "--seed", str(2**128)],
        ["rednoise", "--seed", str(10**400)],
    ], ids=["fraction-for-planar", "negative-fraction", "nan-fraction", "negative-seed",
            "seed-2**128", "seed-10**400"])
    def test_invalid_arguments_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli("generate", *argv, "--out", str(out)) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_out_naming_a_file_exits_3(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli("generate", "planar", "--out", str(taken)) == 3
        assert "cannot create output directory" in capsys.readouterr().err


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

    def test_values_near_the_float_range_give_a_strict_manifest(self, tmp_path, capsys):
        times = np.arange(6.0)
        values = 1e300 * (0.5 * times ** 2 + np.array([0.0, 1.0, 0.0, -1.0, 0.0, 1.0]))
        obs_path = str(tmp_path / "huge.csv")
        fileio.write_scalar_observations(obs_path, times, values, np.ones(6))
        out = str(tmp_path / "fit")
        assert run_cli("filter", obs_path, "--eta", "1", "--out", out) == 0
        manifest = fileio.read_json(os.path.join(out, "huge-eta1-manifest.json"))
        assert 1e299 < manifest["result"]["rms_acceleration"] < math.inf
        assert capsys.readouterr().err == ""

    def test_repeated_time_is_named_in_plain_floats(self, tmp_path, capsys):
        obs_path = str(tmp_path / "repeat.csv")
        fileio.write_scalar_observations(obs_path, np.array([0.0, 0.0, 1.0, 2.0]),
                                         np.zeros(4), np.ones(4))
        assert run_cli("filter", obs_path, "--eta", "1", "--out", str(tmp_path / "fit")) == 3
        assert "samples 0 and 1 (0.0 -> 0.0)" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [
        ["--eta", "-5"],
        ["--eta", "5", "--bracket", "nan", "nan"],
        ["--eta", "5", "--bracket", "-1", "inf"],
        ["--eta", "5", "--bracket", "10", "1"],
        ["--xi", "0.1", "--bracket", "-1", "inf"],
    ], ids=["nonpositive-eta", "nan-bracket", "open-bracket", "reversed-bracket",
            "xi-open-bracket"])
    def test_invalid_arguments_exit_2(self, tmp_path, argv):
        obs = self.make_obs(tmp_path)
        out = tmp_path / "fit"
        assert run_cli("filter", obs, *argv, "--out", str(out)) == 2
        assert not out.exists()

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

    @pytest.mark.parametrize("window", [[], ["--window", "3"]], ids=["full", "window"])
    def test_information_of_1e308_is_tracked(self, tmp_path, window):
        """The first fix's information, 1e308 I, is usable and its root 1e154 I."""
        rows = [(t, t, 0.5 * t, 1e308 if t == 0.0 else 1.0, 0.0, 1e308 if t == 0.0 else 1.0,
                 1.0, PROVENANCE_OBSERVED) for t in np.arange(4.0)]
        path = str(tmp_path / "stream.csv")
        fileio.write_table(path, fileio.SCHEMA_RAW_ESTIMATES,
                           ("t", "x", "y", "ixx", "ixy", "iyy", "w", "provenance"), rows)
        out = tmp_path / "trk"
        assert run_cli("track", path, "--eta", "10", *window, "--out", str(out)) == 0
        table = fileio.read_table(str(out / "stream-track.csv"), expect_schema=fileio.SCHEMA_TRACK)
        for name in ("px", "py", "vx", "vy", "ax", "ay"):
            assert np.isfinite(table.floats(name)).all()
        assert np.abs(table.floats("px") - np.arange(4.0)).max() <= 1e-12

    @pytest.mark.parametrize("window", [(), ("--window", "5")], ids=["full", "window-5"])
    def test_forecast_from_informations_of_1e308(self, tmp_path, window):
        """Rows 0 and 1 hold 1e308 I and row 4 is dropped: the forecast's information, the
        mean of the informations, is finite though their sum is not."""
        rows = [(t, t, 0.5 * t, info, 0.0, info, 0.0 if t == 4.0 else 1.0,
                 "dropped" if t == 4.0 else PROVENANCE_OBSERVED)
                for t, info in zip(np.arange(6.0), (1e308, 1e308, 1.0, 1.0, 0.0, 1.0))]
        path = str(tmp_path / "stream.csv")
        fileio.write_table(path, fileio.SCHEMA_RAW_ESTIMATES,
                           ("t", "x", "y", "ixx", "ixy", "iyy", "w", "provenance"), rows)
        out = tmp_path / "trk"
        assert run_cli("track", path, "--eta", "10", "--policy", "forecast-insert", *window,
                       "--out", str(out)) == 0
        table = fileio.read_table(str(out / "stream-track.csv"), expect_schema=fileio.SCHEMA_TRACK)
        assert table.strings("provenance")[4] == "forecast-inserted"
        for name in ("px", "py", "vx", "vy", "ax", "ay"):
            assert np.isfinite(table.floats(name)).all()

    def test_name_past_the_file_system_limit_exits_3_writing_nothing(self, tmp_path, capsys):
        """A 240-byte stem fits the 250-byte track CSV but not its 260-byte manifest."""
        path = tmp_path / ("s" * 240 + ".csv")
        fileio.write_table(str(path), fileio.SCHEMA_RAW_ESTIMATES,
                           ("t", "x", "y", "ixx", "ixy", "iyy", "w", "provenance"),
                           [(t, t, 0.5 * t, 1.0, 0.0, 1.0, 1.0, PROVENANCE_OBSERVED)
                            for t in np.arange(4.0)])
        out = tmp_path / "trk"
        assert run_cli("track", str(path), "--eta", "10", "--out", str(out)) == 3
        assert f"cannot write {'s' * 240}-track-manifest.json: 260 bytes" in capsys.readouterr().err
        assert not out.exists()

    def test_path_past_the_file_system_limit_exits_3_writing_nothing(self, tmp_path, capsys):
        """A 4,078-byte --out of 200-byte components fits the track CSV's path but not
        its manifest's, so nothing is written, the directory included."""
        path = tmp_path / "a.csv"
        fileio.write_table(str(path), fileio.SCHEMA_RAW_ESTIMATES,
                           ("t", "x", "y", "ixx", "ixy", "iyy", "w", "provenance"),
                           [(t, t, 0.5 * t, 1.0, 0.0, 1.0, 1.0, PROVENANCE_OBSERVED)
                            for t in np.arange(4.0)])
        out = str(tmp_path.resolve())
        while len(out) + 202 < 4078:  # leaves 1 to 200 bytes for the last component
            out = os.path.join(out, "d" * 200)
        out = os.path.join(out, "d" * (4078 - len(out) - 1))
        assert len(os.fsencode(out)) == 4078
        assert run_cli("track", str(path), "--eta", "10", "--out", out) == 3
        manifest = os.path.join(out, "a-track-manifest.json")
        assert f"cannot write {manifest}: 4100 bytes" in capsys.readouterr().err
        assert not (tmp_path / ("d" * 200)).exists()

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
        # Row 40 carries a negated iyy, which no RawPositionEstimate can hold.
        rows = [(t, t, 0.5 * t, 1.0, 0.0, -1.0 if t == 40 else 1.0, 1.0, PROVENANCE_OBSERVED)
                for t in np.arange(60.0)]
        path = str(tmp_path / "stream.csv")
        fileio.write_table(path, fileio.SCHEMA_RAW_ESTIMATES,
                           ("t", "x", "y", "ixx", "ixy", "iyy", "w", "provenance"), rows)
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
        ({"kind": "range-bearing", "site": [10**400, 0.0]}, "site must be numeric"),
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
        ({"kind": "two-bearings", "site_a": {"start": [0.0, 0.0], "end": [1.0, 2.0, 3.0]},
          "site_b": {"position": [5.0, 0.0]}}, "site_a.end must have shape (2,)"),
        ({"kind": "two-ranges", "site_a": {"start": [0.0, 0.0], "span": "inf"},
          "site_b": {"position": [5.0, 0.0]}}, "site_a needs a positive number as span"),
        ({"kind": "two-ranges", "site_a": {"start": [0.0, 0.0], "span": "1"},
          "site_b": {"position": [5.0, 0.0]}}, "site_a needs a positive number as span"),
        ({"kind": "two-ranges", "site_a": {"start": [0.0, 0.0], "span": 10**400},
          "site_b": {"position": [5.0, 0.0]}}, "site_a needs a positive number as span"),
        ({"kind": "range-bearing", "site": [True, False]}, "site must be numeric"),
        ({"kind": "two-ranges", "site_a": {"position": ["1", 0.0]},
          "site_b": {"position": [5.0, 0.0]}}, "site_a.position must be numeric"),
        ({"kind": "range-bearing", "site": [0.0, 1.0, 2.0]}, "site must have shape (2,)"),
    ], ids=["unknown-kind", "missing-site", "text-site", "huge-site", "missing-site-a",
            "missing-site-b", "text-start", "object-position", "not-an-object",
            "list-site", "zero-span", "neither-key", "three-coordinate-end", "text-span",
            "numeral-span", "huge-span", "boolean-site", "numeral-position",
            "three-coordinate-site"])
    def test_unknown_geometry_kind_exits_3(self, tmp_path, capsys, geometry, named):
        pairs = str(tmp_path / "pairs.csv")
        fileio.write_range_pairs(
            pairs, np.arange(3.0), np.ones((3, 2)), np.full((3, 2), 0.01)
        )
        geo = str(tmp_path / "geo.json")
        fileio.write_json(geo, {"geometry": geometry})
        assert run_cli("transform", pairs, geo, "--out", str(tmp_path)) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("disambiguator", ["[1.0, 2.0, 3.0]"], ids=["three-coordinates"])
    def test_bad_disambiguator_is_named_without_a_row(self, tmp_path, capsys, disambiguator):
        path = write_reader_input(tmp_path, "range-pairs")
        geo = tmp_path / "geo.json"
        fileio.write_json(str(geo), {"geometry": {"kind": "two-ranges", **READER_SITES,
                                                  "disambiguator": "@@"}})
        geo.write_text(geo.read_text().replace('"@@"', disambiguator))
        assert run_cli("transform", path, str(geo), "--out", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "disambiguator must" in err and "row" not in err

    def test_moving_site_past_the_float_range_exits_3_without_a_warning(self, tmp_path,
                                                                         capsys):
        path = write_reader_input(tmp_path, "bearings")
        geo = str(tmp_path / "geo.json")
        fileio.write_json(geo, {"geometry": {
            "kind": "two-bearings", "site_b": READER_SITES["site_b"],
            "site_a": {"start": [0.0, 0.0], "end": [1e308, 1e308], "span": 1e-300}}})
        out = tmp_path / "out"
        assert run_cli("transform", path, geo, "--out", str(out)) == 3
        assert "site path value must be finite (row 1)" in capsys.readouterr().err
        assert not out.exists()

    # 1e400 is valid JSON that would read as an infinity.
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_strict_json_geometry_exits_3(self, tmp_path, capsys, constant):
        path = write_reader_input(tmp_path, "polar")
        geo = tmp_path / "geo.json"
        geo.write_text(geo.read_text().replace('"kind"', f'"note": {constant}, "kind"'))
        out = tmp_path / "out"
        assert run_cli("transform", path, str(geo), "--out", str(out)) == 3
        assert f"geo.json holds {constant}" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_that_is_not_strict_json_writes_no_output(self, tmp_path):
        # transform copies the geometry object into its manifest, so a
        # non-finite value there must stop the run before any output exists.
        out = tmp_path / "out"
        out.mkdir()
        args = argparse.Namespace(command="transform", out=str(out))
        outputs = {"estimates": ("estimates.csv", fileio.write_scalar_observations,
                                 np.arange(3.0), np.zeros(3), np.ones(3))}
        with pytest.raises(SchemaError, match="not strict JSON"):
            cli._publish(args, {}, "manifest.json", outputs, geometry={"note": math.inf})
        assert list(out.iterdir()) == []

    def test_unconvertible_reading_names_its_row(self, tmp_path, capsys):
        path = write_reader_input(tmp_path, "polar")
        replace_cell(path, 1, "range", "1e-12")
        assert run_cli("transform", path, str(tmp_path / "geo.json"),
                       "--out", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "below the minimum" in err and err.rstrip().endswith("(row 1)")


READER_TIMES = np.arange(5.0)
READER_SITES = {"site_a": {"position": [0.0, 0.0]}, "site_b": {"position": [5.0, 0.0]}}


def write_reader_input(tmp_path, schema):
    """A valid five-row input table of ``schema``, plus geometry.json for transform."""
    path, t = str(tmp_path / "in.csv"), READER_TIMES
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
        geometry = {"kind": "two-bearings", **READER_SITES}
    else:
        fileio.write_range_pairs(path, t, pairs, variances)
        geometry = {"kind": "two-ranges", **READER_SITES}
    if geometry is not None:
        fileio.write_json(str(tmp_path / "geo.json"), {"geometry": geometry})
    return path


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


class TestNonFiniteCells:
    """Every empty, non-finite or out-of-range numeric cell exits 3 naming its row and column.

    The one exception, an empty value cell of a scalar observation table,
    is a gap (``TestTrack.test_scalar_stream_with_gaps``); the text ``nan``
    there is not.
    """

    @pytest.mark.parametrize("command, schema, column, text", [
        ("track", "raw", "x", ""),
        ("track", "raw", "w", ""),
        ("track", "raw", "iyy", "inf"),
        ("track", "scalar", "value", "inf"),
        ("track", "scalar", "value", "nan"),
        ("filter", "scalar", "value", "nan"),
        ("track", "scalar", "t", ""),
        ("filter", "vector", "y", ""),
        ("filter", "vector", "t", ""),
        ("filter", "scalar", "t", "nan"),
        ("transform", "polar", "range", ""),
        ("transform", "bearings", "variance_a", "-inf"),
        ("transform", "range-pairs", "range_b", ""),
        ("track", "raw", "w", "1.5"),
        ("track", "raw", "w", "-0.1"),
        ("transform", "polar", "range", "0"),
        ("transform", "polar", "range_variance", "0"),
        ("transform", "polar", "bearing_variance", "-1"),
        ("transform", "bearings", "variance_a", "0"),
        ("transform", "range-pairs", "range_b", "-2"),
        ("transform", "range-pairs", "variance_b", "0"),
    ])
    def test_exits_3_naming_row_and_column(self, tmp_path, capsys, command, schema,
                                           column, text):
        path = write_reader_input(tmp_path, schema)
        replace_cell(path, 2, column, text)
        argv = {"track": [path], "filter": [path, "--eta", "5"],
                "transform": [path, str(tmp_path / "geo.json")]}[command]
        out = tmp_path / "out"
        assert run_cli(command, *argv, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert f"(row 2, column {column!r})" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, schema, target, cell, message", [
        ("filter", "scalar", "in.csv", b"\xff", "in.csv is not UTF-8 text"),
        ("transform", "polar", "geo.json", b"\xff", "geo.json is not UTF-8 text"),
        ("filter", "scalar", "in.csv", b"1" * 131073,
         "field larger than field limit (131072) (row 2)"),
    ], ids=["csv-byte-0xff", "json-byte-0xff", "csv-oversized-cell"])
    def test_unreadable_text_exits_3(self, tmp_path, capsys, command, schema, target,
                                     cell, message):
        """A byte that is not UTF-8, in a table cell or in the geometry JSON, and
        a cell past the csv module's field limit exit 3 naming the file or row."""
        path = write_reader_input(tmp_path, schema)
        if target == "in.csv":
            replace_cell(path, 2, "value", "@@")
            marker, text = b"@@", cell
        else:
            marker, text = b"range-bearing", b"range-bearing" + cell
        target = tmp_path / target
        target.write_bytes(target.read_bytes().replace(marker, text))
        argv = {"filter": [path, "--eta", "5"],
                "transform": [path, str(tmp_path / "geo.json")]}[command]
        out = tmp_path / "out"
        assert run_cli(command, *argv, "--out", str(out)) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_filter_names_the_row_of_an_indefinite_information(self, tmp_path, capsys):
        path = write_reader_input(tmp_path, "vector")
        replace_cell(path, 2, "ixx", "-1")
        out = tmp_path / "out"
        assert run_cli("filter", path, "--eta", "5", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "has eigenvalue" in err and err.rstrip().endswith("(row 2)")
        assert not out.exists()

    def test_range_pair_past_float_squares_exits_3(self, tmp_path, capsys):
        path = write_reader_input(tmp_path, "range-pairs")
        replace_cell(path, 2, "range_a", "1e200")
        replace_cell(path, 2, "range_b", "1e200")
        out = tmp_path / "out"
        assert run_cli("transform", path, str(tmp_path / "geo.json"), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "overflow" in err and "(row 2, column 'range_a')" in err
        assert not out.exists()


class TestReaderFuzz:
    """One corrupted cell of a valid table exits 3 naming its row and column."""

    SCHEMAS = {
        "scalar": (fileio.SCHEMA_SCALAR_OBS, "track"),
        "vector": (fileio.SCHEMA_VECTOR_OBS, "filter"),
        "raw": (fileio.SCHEMA_RAW_ESTIMATES, "track"),
        "polar": (fileio.SCHEMA_POLAR_OBS, "transform"),
        "bearings": (fileio.SCHEMA_BEARINGS, "transform"),
        "range-pairs": (fileio.SCHEMA_RANGE_PAIRS, "transform"),
    }
    # Values outside the range of a column that has one.
    OUT_OF_RANGE = {
        "weight": ["-1.0"], "w": ["1.5", "-0.1"], "range": ["0", "-3"],
        "range_variance": ["0"], "bearing_variance": ["-1"], "range_a": ["0"],
        "range_b": ["-2"], "variance_a": ["0", "-1e-3"], "variance_b": ["0"],
    }

    @pytest.mark.parametrize("schema", SCHEMAS)
    def test_one_bad_cell_exits_3_naming_row_and_column(self, tmp_path, capsys, schema):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        schema_id, command = self.SCHEMAS[schema]
        columns = fileio._COLUMNS[schema_id]

        def not_a_number(text):
            try:
                float(text)
            except ValueError:
                return True
            return False

        words = st.from_regex(r"[A-Za-z_.+-]{1,6}", fullmatch=True).filter(not_a_number)

        @st.composite
        def corruptions(draw):
            column = draw(st.sampled_from(columns))
            texts = ["", "nan", "inf", "-inf", *self.OUT_OF_RANGE.get(column, [])]
            if (schema, column) == ("scalar", "value"):
                texts = texts[1:]  # an empty value cell is a gap
            return column, draw(st.sampled_from(texts) | words)

        @settings(max_examples=25, deadline=None)
        @given(row=st.integers(0, READER_TIMES.size - 1), cell=corruptions())
        def check(row, cell):
            column, text = cell
            with tempfile.TemporaryDirectory(dir=tmp_path) as work:
                path = write_reader_input(pathlib.Path(work), schema)
                replace_cell(path, row, column, text)
                argv = {"track": [path], "filter": [path, "--eta", "5"],
                        "transform": [path, os.path.join(work, "geo.json")]}[command]
                code = run_cli(command, *argv, "--out", os.path.join(work, "out"))
            err = capsys.readouterr().err
            assert code == 3, (column, text, err)
            assert f"(row {row}, column {column!r})" in err, (column, text, err)

        check()


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
    # The largest seed gives the longest names the pipeline derives.
    "range-bearing-largest-seed": [
        ("generate", "range-bearing", "--seed", str(2**128 - 1)),
        ("transform", f"{{0}}/range-bearing-seed{2**128 - 1}-polar.csv",
         f"{{0}}/range-bearing-seed{2**128 - 1}-manifest.json"),
        ("track", f"{{1}}/range-bearing-seed{2**128 - 1}-polar-raw-estimates.csv"),
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


@pytest.fixture(scope="module")
def command_lines(tmp_path_factory):
    """One argument list per command and kind of input, the inputs written once."""
    root = tmp_path_factory.mktemp("commands")
    gen, out = str(root / "gen"), str(root / "out")
    for scenario in ("rednoise", "planar", "sonar", "range-bearing"):
        assert run_cli("generate", scenario, "--seed", "0", "--out", gen) == 0
    rb, sonar = os.path.join(gen, "range-bearing-seed0"), os.path.join(gen, "sonar-seed0")
    assert run_cli("transform", f"{rb}-polar.csv", f"{rb}-manifest.json",
                   "--out", str(root / "x")) == 0
    pairs, pair_sites = str(root / "pairs.csv"), str(root / "pair-sites.json")
    fileio.write_range_pairs(pairs, np.arange(4.0), np.full((4, 2), 3.0), np.full((4, 2), 0.01))
    fileio.write_json(pair_sites, {"geometry": {"kind": "two-ranges",
                                                "site_a": {"position": [0.0, 0.0]},
                                                "site_b": {"position": [4.0, 0.0]}}})
    rednoise = os.path.join(gen, "rednoise-seed0-observations.csv")
    planar = os.path.join(gen, "planar-seed0-observations.csv")
    return {
        "generate rednoise": ["generate", "rednoise", "--seed", "1",
                              "--missing-fraction", "0.2", "--out", out],
        "generate planar": ["generate", "planar", "--seed", "1", "--out", out],
        "generate sonar": ["generate", "sonar", "--seed", "1", "--out", out],
        "generate range-bearing": ["generate", "range-bearing", "--seed", "1", "--out", out],
        "transform range-bearing": ["transform", f"{rb}-polar.csv", f"{rb}-manifest.json",
                                    "--out", out],
        "transform two-bearings": ["transform", f"{sonar}-bearings.csv",
                                   f"{sonar}-manifest.json", "--out", out],
        "transform two-ranges": ["transform", pairs, pair_sites, "--out", out],
        "track scalar": ["track", rednoise, "--out", out],
        "track raw": ["track", str(root / "x" / "range-bearing-seed0-polar-raw-estimates.csv"),
                      "--eta", "10", "--out", out],
        "filter scalar": ["filter", rednoise, "--eta", "5", "--out", out],
        "filter vector": ["filter", planar, "--eta", "5", "--out", out],
        "filter xi": ["filter", planar, "--xi", "0.1", "--out", out],
    }


# Each numeric flag, as a template per command line of ``command_lines``.
NUMERIC_FLAGS = {
    "generate rednoise": ("--seed {}", "--missing-fraction {}"),
    "filter scalar": ("--eta {}",),
    "filter xi": ("--xi {}", "--bracket {} 1e8", "--bracket 1e-4 {}"),
    "track scalar": ("--eta {}", "--window {}", "--gamma {}", "--drop-weight {}"),
}
INTEGER_FLAGS = (("generate rednoise", "--seed {}"), ("track scalar", "--window {}"))


class TestNumericFlags:
    @pytest.mark.parametrize("line, extra", [
        *(pytest.param(line, flag.format(value).split(), id=f"{line} {flag.format(value)}")
          for line, flags in NUMERIC_FLAGS.items() for flag in flags
          for value in ("nan", "inf", "-inf", "-1", "0", "1e-320", "1e308")),
        *(pytest.param(line, flag.format(sign + "1" + "0" * 400).split(),
                       id=f"{line} {flag.format(sign + '10**400')}")
          for line, flag in INTEGER_FLAGS for sign in ("", "-")),
    ])
    def test_every_value_exits_with_a_documented_code(self, command_lines, capsys, line, extra):
        """Extreme values, and integers past the float range, end in exit 0, 2, 3 or 4."""
        try:
            code = run_cli(*command_lines[line], *extra)
        except SystemExit as exc:  # argparse refused the value
            code = exc.code
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in capsys.readouterr().err


def fresh_modules(code, *argv):
    """The JSON that ``code`` prints last, run with ``argv`` in a fresh interpreter."""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


# Prints the exit code and the loaded modules after ``cli.main(argv)``, or
# after the import alone when there is no argument.
COMMAND_PROBE = """
import contextlib, io, json, sys
from shadowtrack import cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


class TestStartup:
    """Each command loads only the modules it runs, seen in a fresh interpreter."""

    def test_package_import_loads_no_submodule(self):
        modules = fresh_modules("import json, sys, shadowtrack; print(json.dumps(sorted(sys.modules)))")
        assert "shadowtrack" in modules
        assert [name for name in modules if name.startswith("shadowtrack.")] == []

    def test_cli_import_loads_no_scipy(self):
        """Importing SciPy costs about 0.3 s, more than the CLI's whole set-up."""
        _, modules = fresh_modules(COMMAND_PROBE)
        assert [name for name in modules if name.split(".")[0] == "scipy"] == []

    @pytest.mark.parametrize("argv", [[], ["--version"], ["--help"]],
                             ids=["import", "version", "help"])
    def test_import_version_and_help_load_no_numpy(self, argv):
        code, modules = fresh_modules(COMMAND_PROBE, *argv)
        assert code == (None if not argv else 0)
        assert "shadowtrack.cli" in modules
        assert [name for name in modules if name.split(".")[0] == "numpy"] == []

    @pytest.mark.parametrize("line, unused", [
        *((f"generate {scenario}", ("solver", "tracker", "matrices"))
          for scenario in ("rednoise", "planar", "sonar", "range-bearing")),
        *((f"transform {kind}", ("solver", "tracker", "scenarios", "matrices"))
          for kind in ("range-bearing", "two-bearings", "two-ranges")),
        *((f"track {kind}", ("scenarios", "geometry")) for kind in ("scalar", "raw")),
        *((f"filter {kind}", ("scenarios", "tracker", "geometry"))
          for kind in ("scalar", "vector", "xi")),
    ])
    def test_a_command_loads_only_what_it_runs(self, command_lines, line, unused):
        """Run first in a fresh interpreter, every command path also reaches the
        library functions it calls through the module's import-on-read hook."""
        code, modules = fresh_modules(COMMAND_PROBE, *command_lines[line])
        assert code == 0
        assert "numpy" in modules
        assert [name for name in modules if name.split(".")[-1] in unused] == []

    @pytest.mark.parametrize("name, line", [
        ("gen_scalar_rednoise", "generate rednoise"),
        ("gen_planar_path", "generate planar"),
        ("gen_two_sensor_bearings", "generate sonar"),
        ("gen_range_bearing", "generate range-bearing"),
        ("range_bearing_to_position", "transform range-bearing"),
        ("two_bearings_to_position", "transform two-bearings"),
        ("two_ranges_to_position", "transform two-ranges"),
        ("solve_scalar", "filter scalar"),
        ("solve_vector", "filter vector"),
        ("search_eta", "filter xi"),
    ])
    def test_a_command_calls_what_its_module_attribute_holds(self, command_lines, monkeypatch,
                                                             name, line):
        """The library functions are ``cli`` attributes, read on first use, and
        each command calls the attribute, so a patch or a wrapper on it is seen."""
        library = getattr(cli, name)
        assert library is getattr(sys.modules[library.__module__], name)
        calls = []
        monkeypatch.setattr(cli, name,
                            lambda *args, **kwargs: calls.append(name) or library(*args, **kwargs))
        assert run_cli(*command_lines[line]) == 0
        assert calls
