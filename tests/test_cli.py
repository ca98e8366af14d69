"""File formats and the command-line interface, including exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crosp
from crosp import algebra, io
from crosp.cli import main
from crosp.errors import DomainError
from crosp.spaces import PointSet, chart_point_oct, parse_space, sample_uniform

S2 = parse_space("s2")


class TestStableJson:
    def test_deterministic(self):
        doc = {"a": 1 / 3, "b": [1, 2.5, "x"], "c": {"d": True, "e": None}}
        assert io.dumps_stable(doc) == io.dumps_stable(doc)

    def test_seventeen_digits_roundtrip(self):
        x = 0.1 + 0.2
        text = io.dumps_stable({"v": x})
        assert json.loads(text)["v"] == x

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            io.dumps_stable({"v": float("nan")})

    @pytest.mark.parametrize("x", [5e-324, 1.7976931348623157e308, -0.0, 0.1 + 0.2,
                                   np.float64(1 / 3), np.float32(0.1)],
                             ids=["subnormal", "max", "minus_zero", "sum", "f64", "f32"])
    def test_float_roundtrip_bit_exact(self, x):
        back = json.loads(io.dumps_stable({"v": x}))["v"]
        assert type(back) is float
        assert np.float64(back).tobytes() == np.float64(x).tobytes()
        assert io.format_float(back) == io.format_float(x) == repr(back)

    def test_numpy_values_become_python_values(self):
        doc = {"i": np.int64(-7), "b": np.bool_(True), "a": np.array([[1.5, -0.0], [2, 3]])}
        back = json.loads(io.dumps_stable(doc))
        assert back == {"i": -7, "b": True, "a": [[1.5, 0.0], [2.0, 3.0]]}
        assert math.copysign(1.0, back["a"][0][1]) == -1.0
        # the same layout as plain Python values
        assert io.dumps_stable(doc) == io.dumps_stable(back)

    @pytest.mark.parametrize("value", [
        [1.0, [math.inf]], [-math.inf], np.array([0.0, math.nan]),
        np.float64(math.inf), {1, 2}, object(),
    ], ids=["nested_inf", "minus_inf", "array_nan", "numpy_inf", "set", "object"])
    def test_rejects_nonfinite_and_unsupported(self, value):
        with pytest.raises(DomainError):
            io.dumps_stable({"v": value})


class TestPointSetFormat:
    def test_roundtrip(self, tmp_path):
        pts = sample_uniform(S2, 5, np.random.default_rng(3), label="demo")
        path = tmp_path / "pts.json"
        io.save_pointset(path, pts)
        loaded = io.load_pointset(path)
        assert loaded.space == S2
        assert loaded.label == "demo"
        assert np.allclose(loaded.points, pts.points)

    def test_malformed_rejected(self):
        with pytest.raises(DomainError):
            io.pointset_from_dict({"space": {"family": "s", "n": 2},
                                   "points": [[1.0, 0.0]]})

    @pytest.mark.parametrize("n", [2.7, "2", True, 2.0],
                             ids=["float", "string", "bool", "integral_float"])
    def test_space_dimension_must_be_a_json_integer(self, n):
        # int() would load 2.7 and "2" as s2 and true as s1
        with pytest.raises(DomainError, match="JSON integer"):
            io.pointset_from_dict({"space": {"family": "s", "n": n},
                                   "points": [[1.0, 0.0, 0.0]]})

    def test_integer_coordinates_are_json_numbers(self):
        pts = io.pointset_from_dict({"space": {"family": "s", "n": 2},
                                     "points": [[1, 0, 0], [0.0, -1, 0]]})
        assert pts.points.tolist() == [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]

    @pytest.mark.parametrize("points,label,why", [
        ([["1", 0, 0]], "", "JSON numbers"),
        ([[True, 0, 0]], "", "JSON numbers"),
        ([[[1], [0], [0]]], "", "JSON numbers"),
        ([[1.0, 0.0, 0.0]], 5, "label"),
        ([[1.0, 0.0, 0.0]], ["a"], "label"),
        ([[10**400, 0, 0]], "", "float range"),
        ([1.0, 0.0, 0.0], "", "coordinate lists"),
        ({"0": [1.0, 0.0, 0.0]}, "", "coordinate lists"),
    ], ids=["string", "bool", "nested", "int_label", "list_label", "huge_int",
            "flat_points", "points_object"])
    def test_loader_takes_only_the_format(self, tmp_path, capsys, points, label, why):
        # np.array would read "1" and true as numbers and reshape the nested
        # point; float() of 10**400 raises OverflowError
        doc = {"space": {"family": "s", "n": 2}, "points": points, "label": label}
        with pytest.raises(DomainError, match=why):
            io.pointset_from_dict(doc)
        path = tmp_path / "pts.json"
        path.write_text(json.dumps(doc))
        assert main(["energy", "--in", str(path), "--no-meta"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    def test_octonionic_rows_load(self, tmp_path, capsys):
        # 24 coordinates a point, one entry of the row real
        rng = np.random.default_rng(6)
        op2 = parse_space("op2")
        pts = PointSet.from_points(op2, [
            chart_point_oct(rng.standard_normal(8), rng.standard_normal(8)) for _ in range(5)])
        path = tmp_path / "op2.json"
        io.save_pointset(path, pts)
        assert all(len(row) == 24 for row in json.loads(path.read_text())["points"])
        assert np.array_equal(io.load_pointset(path).points, pts.points)
        assert main(["discrepancy", "--in", str(path), "--no-meta"]) == 0
        assert json.loads(capsys.readouterr().out)["n_points"] == 5

    def test_octonionic_idempotent_document_exit_code(self, tmp_path, capsys):
        # the earlier op2 format: each point the 72 coordinates of its 3 x 3
        # Jordan idempotent; it is rejected, not converted
        x = chart_point_oct([0.5, 1], [0.3, 0, 0, 0.2]).data
        P = algebra.cd_mul(x[:, None], algebra.cd_conj(x)[None])
        path = tmp_path / "op2-72.json"
        path.write_text(json.dumps({"space": {"family": "op", "n": 2},
                                    "points": [P.ravel().tolist()]}))
        assert main(["energy", "--in", str(path), "--no-meta"]) == 3
        assert capsys.readouterr().err == (
            "error: each point must have 24 coordinates for op2\n")

    def test_octonionic_row_without_real_entry_exit_code(self, tmp_path, capsys):
        x = np.random.default_rng(9).standard_normal((3, 8))
        x /= np.linalg.norm(x)
        path = tmp_path / "op2-no-real.json"
        path.write_text(json.dumps({"space": {"family": "op", "n": 2},
                                    "points": [x.ravel().tolist()]}))
        assert main(["energy", "--in", str(path), "--no-meta"]) == 3
        assert capsys.readouterr().err == (
            "error: an octonionic representative must have a real entry\n")

    def test_distance_matrix_roundtrip(self, tmp_path):
        dm = np.array([[0.0, 1.2], [1.2, 0.0]])
        path = tmp_path / "dm.csv"
        io.save_distance_matrix(path, dm)
        assert np.allclose(io.load_distance_matrix(path), dm)


class TestCli:
    def test_spaces_lists_catalog(self, capsys):
        assert main(["spaces", "--no-meta"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["code"] for row in doc["spaces"]] == [
            "s1", "s2", "s3", "rp2", "cp2", "hp2", "op2"]
        assert doc["config"]["seed"] == 0

    def test_constants_values(self, capsys):
        assert main(["constants", "--space", "s2", "--no-meta"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma"] == pytest.approx(2.0, rel=1e-14)
        assert doc["avg_chordal"] == pytest.approx(2 / 3, rel=1e-13)
        assert doc["avg_symdiff"] == pytest.approx(1 / 3, rel=1e-13)

    def test_gen_energy_discrepancy_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "pts.json"
        assert main(["gen", "--space", "cp2", "--n", "6", "--seed", "11",
                     "--no-meta", "--out", str(out)]) == 0
        assert main(["energy", "--in", str(out), "--no-meta"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["quantity"] == "pair_sum" and doc["n_points"] == 6
        assert main(["discrepancy", "--in", str(out), "--route", "closed",
                     "--no-meta"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] > 0 and doc["route"] == "closed"

    def test_gen_byte_identical_for_same_argv(self, tmp_path, monkeypatch):
        argv = ["gen", "--space", "s3", "--n", "4", "--seed", "5", "--no-meta",
                "--out", "pts.json"]
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        for d in (d1, d2):
            d.mkdir()
            monkeypatch.chdir(d)
            assert main(argv) == 0
        assert (d1 / "pts.json").read_bytes() == (d2 / "pts.json").read_bytes()

    def test_mc_route_deterministic(self, tmp_path, capsys):
        out = tmp_path / "pts.json"
        main(["gen", "--space", "s2", "--n", "5", "--seed", "2", "--no-meta",
              "--out", str(out)])
        args = ["discrepancy", "--in", str(out), "--route", "mc", "--samples",
                "20000", "--seed", "4", "--threads", "2", "--no-meta"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["stderr"] > 0

    @pytest.mark.parametrize("command", [
        ["discrepancy", "--route", "mc", "--samples", "20000"],
        ["verify", "invariance", "--samples", "20000"],
    ], ids=["mc", "verify"])
    def test_output_independent_of_threads(self, tmp_path, capsys, command):
        pts = tmp_path / "pts.json"
        main(["gen", "--space", "hp2", "--n", "20", "--seed", "2", "--no-meta",
              "--out", str(pts)])
        if command[0] == "discrepancy":
            command = command + ["--in", str(pts)]
        outs = []
        for threads in ("1", "2"):
            main(command + ["--seed", "4", "--threads", threads, "--no-meta"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "threads" not in outs[0]

    def test_output_independent_of_out_path(self, tmp_path):
        pts = tmp_path / "pts.json"
        main(["gen", "--space", "hp2", "--n", "20", "--seed", "2", "--no-meta",
              "--out", str(pts)])
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["energy", "--in", str(pts), "--no-meta", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert "a.json" not in paths[0].read_text()
        # with meta, the path is reported there
        assert main(["energy", "--in", str(pts), "--out", str(paths[0])]) == 0
        doc = json.loads(paths[0].read_text())
        assert "out" not in doc["config"] and doc["meta"]["out"] == str(paths[0])

    def test_distance_matrix_input(self, tmp_path, capsys):
        dm = tmp_path / "dm.csv"
        theta = 2.0
        io.save_distance_matrix(dm, np.array([[0.0, theta], [theta, 0.0]]))
        assert main(["energy", "--in", str(dm), "--space", "s1", "--no-meta"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(2 * math.sin(theta / 2), rel=1e-14)

    @pytest.mark.parametrize("route", ["closed", "series"])
    def test_nonfinite_distance_matrix_exit_code(self, tmp_path, capsys, route):
        dm = tmp_path / "nan.csv"
        dm.write_text("0,1,nan\n1,0,1\nnan,1,0\n")
        out = tmp_path / "out.json"
        assert main(["discrepancy", "--in", str(dm), "--space", "s2", "--route", route,
                     "--no-meta", "--out", str(out)]) == 3
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_mc_route_needs_point_set(self, tmp_path, capsys):
        dm = tmp_path / "dm.csv"
        io.save_distance_matrix(dm, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert main(["discrepancy", "--in", str(dm), "--space", "s2", "--route", "mc",
                     "--no-meta"]) == 3
        assert "explicit point set" in capsys.readouterr().err

    @pytest.mark.parametrize("route", ["closed", "series"])
    def test_nonzero_diagonal_exit_code(self, tmp_path, capsys, route):
        dm = tmp_path / "diag.csv"
        dm.write_text("0.5,1\n1,0.5\n")
        out = tmp_path / "out.json"
        assert main(["discrepancy", "--in", str(dm), "--space", "s2", "--route", route,
                     "--no-meta", "--out", str(out)]) == 3
        assert "diagonal" in capsys.readouterr().err
        assert not out.exists()

    def test_antipodal_closed_value(self, tmp_path, capsys):
        pts = PointSet.from_points(parse_space("s1"),
                                   [np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
        path = tmp_path / "anti.json"
        io.save_pointset(path, pts)
        assert main(["discrepancy", "--in", str(path), "--route", "closed",
                     "--no-meta"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(16 / math.pi**2 - 4 / math.pi, abs=1e-12)

    def test_octonionic_gen_exit_code(self, capsys):
        assert main(["gen", "--space", "op2", "--n", "10"]) == 3
        err = capsys.readouterr().err
        assert "octonionic" in err

    @pytest.mark.parametrize("n", ["9223372036854775808", "10000001"])
    def test_gen_point_count_ceiling_exit_code(self, capsys, n):
        # numpy cannot allocate 2^63 rows; the stated ceiling is 10^7 points
        assert main(["gen", "--space", "s2", "--n", n, "--no-meta"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: count must be at most 10000000, got {n}\n"

    def test_verify_invariance_octonionic_exit_code(self, capsys):
        # the Monte Carlo route cannot sample op2: a domain error, no report
        assert main(["verify", "invariance", "--space", "op2", "--no-meta"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "octonionic" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--space", "s2", "--bogus-flag"])
        assert exc.value.code == 2

    def test_format_only_for_verify(self, tmp_path):
        pts = tmp_path / "pts.json"
        main(["gen", "--space", "s2", "--n", "5", "--seed", "2", "--no-meta",
              "--out", str(pts)])
        with pytest.raises(SystemExit) as exc:
            main(["energy", "--in", str(pts), "--format", "csv", "--no-meta"])
        assert exc.value.code == 2

    def test_verify_pass_exit_code(self, capsys):
        assert main(["verify", "watson", "--no-meta"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_passed"] is True

    def test_verify_fail_exit_code(self, capsys):
        # an unreachable tolerance forces a recorded failure, exit code 1
        assert main(["verify", "pointwise", "--space", "s1", "--tol", "1e-15",
                     "--no-meta"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_passed"] is False

    def test_verify_csv_fail_exit_code(self, capsys):
        # a failing suite exits 1 in either format, and the CSV is all that is written
        assert main(["verify", "pointwise", "--space", "s1", "--tol", "1e-15",
                     "--format", "csv", "--no-meta"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "identity,verdict,max_abs_err,max_rel_err,tolerance"
        assert len(lines) == 2 and lines[1].startswith("pointwise-metric-identity,fail,")

    def test_verify_csv_format(self, capsys):
        assert main(["verify", "watson", "--format", "csv", "--no-meta"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("identity,verdict")

    @pytest.mark.parametrize("suite,flag,value", [
        ("all", "--tol", "1e-3"), ("all", "--space", "s2"),
        ("all", "--samples", "5"), ("integral", "--space", "s2"),
        ("polysum", "--tol", "1e-3"), ("watson", "--samples", "5"),
        ("invariance", "--tol", "1e-3"), ("pointwise", "--samples", "5"),
    ])
    def test_verify_option_the_suite_does_not_take_exit_code(self, capsys, suite, flag, value):
        assert main(["verify", suite, flag, value, "--no-meta"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["pointwise", "--space", "s2", "--tol", "-1"],
        ["constants", "--space", "s2", "--tol", "-1"],
        ["watson", "--tol", "0"], ["chain", "--space", "s2", "--tol", "nan"],
        ["invariance", "--samples", "1"],
    ])
    def test_verify_bad_option_value_exit_code(self, capsys, argv):
        # a bad value is a domain error, not a failed verification: no suite
        # runs, no table is printed
        assert main(["verify", *argv, "--no-meta"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_verify_constants_honours_tol(self, capsys):
        # an unreachable tolerance is checked, not only recorded in config
        assert main(["verify", "constants", "--space", "s2", "--tol", "1e-30",
                     "--no-meta"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["reports"][0]["tolerance"] == 1e-30
        assert doc["all_passed"] is False

    @pytest.mark.parametrize("command,read", [
        (["spaces"], {}),
        (["constants", "--space", "s2"], {"space": "s2"}),
        (["gen", "--space", "s2", "--n", "4"], {"space": "s2", "n": 4}),
        (["energy", "--in", "PTS"], {"infile": "PTS", "metric": "chordal"}),
        (["discrepancy", "--in", "PTS"], {"infile": "PTS", "route": "closed"}),
        (["discrepancy", "--in", "PTS", "--route", "series"],
         {"infile": "PTS", "route": "series", "tol": 1e-8}),
        (["discrepancy", "--in", "PTS", "--route", "mc", "--samples", "2000"],
         {"infile": "PTS", "route": "mc", "samples": 2000}),
        (["verify", "watson"], {"suite": "watson", "format": "json"}),
    ], ids=["spaces", "constants", "gen", "energy", "closed", "series", "mc", "verify"])
    def test_config_holds_the_options_read(self, tmp_path, capsys, command, read):
        pts = str(tmp_path / "pts.json")
        io.save_pointset(pts, sample_uniform(S2, 4, np.random.default_rng(1)))
        argv = [pts if a == "PTS" else a for a in command]
        assert main(argv + ["--seed", "3", "--threads", "2", "--no-meta"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        expected = {k: pts if v == "PTS" else v for k, v in read.items()}
        assert config == {"command": command[0], "seed": 3, **expected}

    @pytest.mark.parametrize("route,flag,value", [
        ("closed", "--samples", "5"), ("series", "--samples", "5"),
        ("closed", "--tol", "1e-3"), ("mc", "--tol", "1e-3"),
    ])
    def test_option_the_route_does_not_read_exit_code(self, tmp_path, capsys,
                                                      route, flag, value):
        pts = tmp_path / "pts.json"
        io.save_pointset(pts, sample_uniform(S2, 4, np.random.default_rng(1)))
        assert main(["discrepancy", "--in", str(pts), "--route", route, flag, value,
                     "--no-meta"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CROSP_SEED", "99")
        a = tmp_path / "a.json"
        main(["gen", "--space", "s2", "--n", "3", "--no-meta", "--out", str(a)])
        monkeypatch.delenv("CROSP_SEED")
        b = tmp_path / "b.json"
        main(["gen", "--space", "s2", "--n", "3", "--seed", "99", "--no-meta",
              "--out", str(b)])
        pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
        assert pa["config"]["seed"] == pb["config"]["seed"] == 99
        assert pa["points"] == pb["points"]

    @pytest.mark.parametrize("command", [
        ["gen", "--space", "s2", "--n", "3"],
        ["discrepancy", "--in", "PTS", "--route", "mc", "--samples", "100"],
        ["verify", "watson"],
    ])
    def test_negative_seed_exit_code(self, tmp_path, capsys, monkeypatch, command):
        pts = tmp_path / "pts.json"
        io.save_pointset(pts, sample_uniform(S2, 4, np.random.default_rng(1)))
        argv = [str(pts) if a == "PTS" else a for a in command] + ["--no-meta"]
        assert main(argv + ["--seed", "-1"]) == 3
        assert capsys.readouterr().err.startswith("error: the seed must be")
        monkeypatch.setenv("CROSP_SEED", "-1")
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: the seed must be")

    @pytest.mark.parametrize("name,content", [
        ("words.csv", b"0,1\nx,0\n"),
        ("ragged.csv", b"0,1,2\n1,0\n2,1,0\n"),
        ("rectangular.csv", b"0,1,2\n1,0,1\n"),
        ("points.json", b"not json\n"),
        ("latin1.json", b"{\"label\": \"\xe9\"}"),
        ("fractional-n.json",
         b'{"space": {"family": "s", "n": 2.5}, "points": [[1.0, 0.0, 0.0]]}'),
    ])
    def test_malformed_input_file_exit_code(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["energy", "--in", str(path), "--space", "s2", "--no-meta"]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", [
        ["energy", "--in", "PTS"],
        ["discrepancy", "--in", "PTS"],
        ["verify", "chain"],
    ], ids=["energy", "discrepancy", "verify"])
    def test_empty_space_exit_code(self, tmp_path, capsys, command):
        # an empty --space is a space code that parses to nothing, not an
        # option left out
        pts = tmp_path / "pts.json"
        io.save_pointset(pts, sample_uniform(S2, 4, np.random.default_rng(1)))
        argv = [str(pts) if a == "PTS" else a for a in command]
        assert main(argv + ["--space", "", "--no-meta"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot parse space code ''\n"


# Runs CLI commands in one fresh interpreter, in order, and prints for each
# its exit code and whether any scipy module was loaded once it returned.
_STARTUP_SCRIPT = """
import json, sys
from crosp.cli import main

tmp = sys.argv[1]
pts, out = tmp + "/pts.json", tmp + "/out.json"


def mc(space):
    path = f"{tmp}/{space}.json"
    return {f"gen-{space}": ["gen", "--space", space, "--n", "20", "--seed", "5",
                             "--out", path],
            f"mc-{space}": ["discrepancy", "--in", path, "--route", "mc",
                            "--samples", "4000"]}


commands = {
    "spaces": ["spaces"],
    "gen": ["gen", "--space", "cp2", "--n", "30", "--seed", "5", "--out", pts],
    "energy": ["energy", "--in", pts],
    "closed": ["discrepancy", "--in", pts, "--route", "closed"],
    # ball volumes with an integer b = d0/2 are a finite sum
    "mc": ["discrepancy", "--in", pts, "--route", "mc", "--samples", "4000",
           "--threads", "2"],
    **mc("hp2"),
    **mc("s2"),
    "constants": ["constants", "--space", "hp2"],
    # rp2 has b = 1/2, s3 and s1 have half-integer a and b: their ball volumes
    # take the half-integer forms of reg_inc_beta
    **mc("rp2"),
    "constants-s3": ["constants", "--space", "s3"],
    "constants-s1": ["constants", "--space", "s1"],
    # coefficient tables (gamma ratios), Gauss-Jacobi rules and ball volumes
    # on every catalog space
    "series": ["discrepancy", "--in", pts, "--route", "series", "--tol", "1e-6"],
    "verify": ["verify", "all"],
}
report = {}
for name, argv in commands.items():
    if "--out" not in argv:
        argv = argv + ["--out", out]
    code = main(argv + ["--no-meta"])
    report[name] = [code, any(m.split(".")[0] == "scipy" for m in sys.modules)]
print(json.dumps(report))
"""


class TestStartup:
    """No command loads scipy on a catalog space: its only remaining use is
    ``betainc`` for an incomplete beta off 1/2 N, imported on first use."""

    @staticmethod
    def _python(*args):
        src = str(Path(crosp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_import_leaves_scipy_unloaded(self):
        out = self._python("-c", "import sys, crosp, crosp.cli; "
                                 "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert out.strip() == "[]"

    def test_sine_rule_built_on_first_use(self):
        # numpy.polynomial (the Gauss-Legendre nodes) loads with the first
        # avg_symdiff, which reads the sine rule, not with crosp; later calls
        # share the rule
        out = self._python("-c", "import sys, crosp.cli; "
                                 "from crosp import harmonic, spaces; "
                                 "before = 'numpy.polynomial' in sys.modules; "
                                 "harmonic.avg_symdiff(spaces.parse_space('s2')); "
                                 "a, b = harmonic._sine_rule(), harmonic._sine_rule(); "
                                 "print(before, 'numpy.polynomial' in sys.modules, "
                                 "a[0] is b[0] and a[1] is b[1], "
                                 "a[0].flags.writeable or a[1].flags.writeable)")
        assert out.split() == ["False", "True", "True", "False"]

    def test_commands_load_scipy_only_when_needed(self, tmp_path):
        report = json.loads(self._python("-c", _STARTUP_SCRIPT, str(tmp_path)))
        assert report == {
            "spaces": [0, False], "gen": [0, False], "energy": [0, False],
            "closed": [0, False], "mc": [0, False],
            "gen-hp2": [0, False], "mc-hp2": [0, False],
            "gen-s2": [0, False], "mc-s2": [0, False], "constants": [0, False],
            "gen-rp2": [0, False], "mc-rp2": [0, False], "constants-s3": [0, False],
            "constants-s1": [0, False], "series": [0, False], "verify": [0, False],
        }
