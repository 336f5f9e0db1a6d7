"""Command line behaviour: exit codes, outputs, determinism."""

import json
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from toeprange import cli, linalg
from toeprange.curves import boundary_quartic, dual_quartic
from toeprange.operators import (
    counterexample_spec,
    random_spec,
    spec_to_doc,
    symbol,
    validate_spec,
)
from toeprange.ranges import SUPPORT_RTOL, convex_hull, operator_range

COUNTEREXAMPLE = os.path.join(os.path.dirname(__file__), "..", "specs", "counterexample.json")
FREE_JACOBI = os.path.join(os.path.dirname(__file__), "..", "specs", "free_jacobi.json")


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_bundled_counterexample(self, capsys):
        assert cli.main(["validate", COUNTEREXAMPLE]) == 0
        echoed = json.loads(capsys.readouterr().out)
        spec = validate_spec(echoed)
        want = counterexample_spec()
        for r in range(-2, 3):
            assert np.array_equal(spec.diagonal(r), want.diagonal(r))

    def test_wrong_diagonal_length(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, {"period": 3, "band": 1, "diagonals": {"1": [1.0, 2.0]}}
        )
        assert cli.main(["validate", path]) == 3
        assert "diagonal 1" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert cli.main(["validate", str(tmp_path / "absent.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 2

    def test_invalid_utf8(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"period": 1, "band": 0, "diagonals": {"0": [1]}}\xff')
        assert cli.main(["validate", str(path)]) == 2
        assert "cannot read input" in capsys.readouterr().err

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 2
        assert "cannot read input" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("period", 2.7), ("period", True), ("band", "1")])
    def test_non_integer_period_or_band(self, tmp_path, capsys, field, value):
        path = write_spec(tmp_path, {"period": 2, "band": 1, "diagonals": {}, field: value})
        assert cli.main(["validate", path]) == 3
        captured = capsys.readouterr()
        assert f"{field} must be an integer" in captured.err and captured.out == ""

    def test_echo_is_normalized(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"period": 2, "band": 2, "diagonals": {"1": [-1, 2]}})
        assert cli.main(["validate", path]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert sorted(echoed["diagonals"]) == ["-1", "-2", "0", "1", "2"]

    def test_oversized_period_refused(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"period": 100000000, "band": 1, "diagonals": {}})
        assert cli.main(["validate", path]) == 3
        assert "exceeds the dense size cap" in capsys.readouterr().err

    def test_oversized_band_refused(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"period": 1, "band": 300000, "diagonals": {}})
        start = time.perf_counter()
        assert cli.main(["validate", path]) == 3
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert "over the cap" in captured.err and captured.out == ""

    def test_output_mode_honours_umask(self, tmp_path):
        out = tmp_path / "echo.json"
        previous = os.umask(0o022)
        try:
            assert cli.main(["validate", COUNTEREXAMPLE, "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert out.stat().st_mode & 0o777 == 0o644


class TestSymbol:
    def test_matches_library(self, capsys):
        assert cli.main(["symbol", COUNTEREXAMPLE, "--theta", "0.9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        got = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
        assert np.max(np.abs(got - symbol(counterexample_spec(), 0.9))) < 1e-15

    def test_oversized_document_refused_before_the_symbol(self, tmp_path, monkeypatch, capsys):
        # A period-1024 document holds 1024^2 [re, im] lists, about 200 MB
        # while it is built: over a 128 MiB cap, refused before any work.
        def evaluate(*args, **kwargs):
            raise AssertionError("symbol ran")

        path = write_spec(tmp_path, spec_to_doc(random_spec(np.random.default_rng(0), 1024, 3)))
        monkeypatch.setattr(cli, "symbol", evaluate)
        monkeypatch.setattr(linalg, "BYTE_CAP", 1 << 27)
        assert cli.main(["symbol", path]) == 3
        captured = capsys.readouterr()
        assert "cap" in captured.err and captured.out == ""


class TestRange:
    def test_report_doc_roundtrips(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            ["range", COUNTEREXAMPLE, "--theta-count", "24", "--phi-count", "24",
             "--out", str(out)]
        )
        assert code == 0
        # The written JSON carries the library's polygon and residuals bit
        # for bit, and no sample rows.
        doc = json.loads(out.read_text())
        library = operator_range(counterexample_spec(), 24, 24)
        assert set(doc) == {"kind", "theta_count", "phi_count", "residual_summary", "polygon"}
        assert (doc["kind"], doc["theta_count"], doc["phi_count"]) == ("range-report", 24, 24)
        assert doc["residual_summary"] == library.residual_summary
        assert np.array_equal(np.array(doc["polygon"]), library.polygon.vertices)

    def test_report_doc_polygon_is_hull_of_flat_table(self, tmp_path):
        # The report-doc polygon is the hull of the certified boundary points,
        # whose supports are at least the flat table's largest support in
        # each direction, from the same start grid, and at most the bounds.
        args = ["range", COUNTEREXAMPLE, "--theta-count", "30", "--phi-count", "36"]
        doc_path, table_path = tmp_path / "report.json", tmp_path / "table.txt"
        assert cli.main(args + ["--out", str(doc_path)]) == 0
        assert cli.main(args + ["--format", "flat-table", "--out", str(table_path)]) == 0
        table = np.loadtxt(table_path, skiprows=1)
        assert table.shape == (30 * 36, 5)
        library = operator_range(counterexample_spec(), 30, 36)
        polygon = json.loads(doc_path.read_text())["polygon"]
        assert np.array_equal(np.array(polygon), convex_hull(library.samples[:, 1:]).vertices)
        largest = table[:, 2].reshape(30, 36).max(axis=0)
        assert np.all(library.samples[:, 0] >= largest - 1e-12)
        assert np.all(largest <= library.upper)

    def test_report_doc_matches_library(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            ["range", COUNTEREXAMPLE, "--theta-count", "20", "--phi-count", "30",
             "--out", str(out)]
        )
        assert code == 0
        library = operator_range(counterexample_spec(), 20, 30).to_dict()
        assert json.loads(out.read_text()) == library

    @pytest.mark.parametrize("fmt", ["report-doc", "flat-table"])
    def test_serialization_working_set(self, tmp_path, fmt):
        # The output text and a copy of it, the 32,400 samples (1.3 MB) and
        # one row chunk; a list of every row would exceed the bound.
        out = tmp_path / "report"
        args = ["range", COUNTEREXAMPLE, "--theta-count", "180", "--phi-count", "180",
                "--format", fmt, "--out", str(out)]
        tracemalloc.start()
        try:
            assert cli.main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        samples = 180 * 180 * 40
        assert peak < 2 * out.stat().st_size + samples + 4 * 2**20

    def test_flat_table_keeps_the_720_row_default(self, tmp_path):
        out = tmp_path / "table.txt"
        args = ["range", FREE_JACOBI, "--phi-count", "3", "--format", "flat-table"]
        assert cli.main(args + ["--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 720 * 3

    def test_flat_table_deterministic(self, tmp_path):
        args = ["range", COUNTEREXAMPLE, "--theta-count", "18", "--phi-count", "18",
                "--format", "flat-table"]
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        assert cli.main(args + ["--out", str(first)]) == 0
        assert cli.main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        header = first.read_text().splitlines()[0]
        assert header == "theta phi support_value x y"

    def test_svg_with_overlays(self, tmp_path):
        out = tmp_path / "fig.svg"
        code = cli.main(
            ["range", COUNTEREXAMPLE, "--theta-count", "30", "--phi-count", "60",
             "--format", "svg", "--overlay-thetas", "6", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.count("<path") == 7  # six dotted overlays plus the hull
        assert 'stroke="red"' in text

    def test_segment_svg_has_visible_view_box(self, tmp_path):
        # The hull of a constant diagonal symbol is the segment [1, 3].
        spec_path = write_spec(
            tmp_path, {"period": 3, "band": 1, "diagonals": {"0": [1, 2, 3]}}
        )
        out = tmp_path / "segment.svg"
        code = cli.main(
            ["range", spec_path, "--theta-count", "8", "--phi-count", "8",
             "--format", "svg", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        width, height = (float(v) for v in text.split('viewBox="0 0 ')[1].split('"')[0].split())
        assert width > 0 and height > 0
        red = [line for line in text.splitlines() if 'stroke="red"' in line]
        assert len(red) == 1
        coords = np.array(
            [float(v) for v in red[0].split('d="')[1].split('"')[0].split()
             if v not in ("M", "L", "Z")]
        ).reshape(-1, 2)
        assert np.all((coords >= 0) & (coords <= [width, height]))

    def test_oversized_sweep_refused(self, capsys):
        code = cli.main(
            ["range", COUNTEREXAMPLE, "--theta-count", "2", "--phi-count", "10000000000000"]
        )
        assert code == 3
        assert "cap" in capsys.readouterr().err

    def test_write_failure_exit_code(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.json"
        code = cli.main(
            ["range", COUNTEREXAMPLE, "--theta-count", "6", "--phi-count", "6",
             "--out", str(missing_dir)]
        )
        assert code == 4

    def test_no_partial_file_on_failure(self, tmp_path):
        target = tmp_path / "out.json"
        code = cli.main(
            ["range", COUNTEREXAMPLE, "--theta-count", "6", "--phi-count", "6",
             "--out", str(target)]
        )
        assert code == 0
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".toeprange-")]
        assert leftovers == []


class TestInterval:
    def test_free_jacobi(self, capsys):
        assert cli.main(["interval", FREE_JACOBI, "--theta-count", "400"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["a"] + 2.0) < 1e-5
        assert abs(doc["b"] - 2.0) < 1e-5

    def test_non_selfadjoint_rejected(self, capsys):
        assert cli.main(["interval", COUNTEREXAMPLE, "--theta-count", "8"]) == 3
        assert "selfadjoint" in capsys.readouterr().err

    def test_phi_count_not_accepted(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["interval", FREE_JACOBI, "--phi-count", "2"])
        assert exc.value.code == 2
        assert "--phi-count" in capsys.readouterr().err


class TestVerify:
    def test_counterexample_passes(self, capsys):
        code = cli.main(
            ["verify", COUNTEREXAMPLE, "--theta-count", "120", "--phi-count", "120",
             "--s", "3", "--s", "4", "--s", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line and line[0].isdigit()]
        assert len(rows) == 3
        assert all(row.endswith("PASS") for row in rows)

    def test_coarse_start_grid_passes(self, capsys):
        # The excess is taken against certified bounds, so a 3-angle start
        # grid cannot make rows that hold FAIL.
        assert cli.main(["verify", COUNTEREXAMPLE, "--theta-count", "3"]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines() if line and line[0].isdigit()]
        assert [row[-1] for row in rows] == ["PASS"] * 3
        assert all(float(row[4]) <= 0.0 for row in rows)
        assert out.splitlines()[-1].split()[-1] == "1e-08"

    def test_random_spec_passes(self, tmp_path):
        rng = np.random.default_rng(50)
        from toeprange.operators import random_spec

        spec = random_spec(rng, 3, 2)
        path = write_spec(tmp_path, spec_to_doc(spec))
        code = cli.main(
            ["verify", path, "--theta-count", "90", "--phi-count", "90", "--s", "2",
             "--s", "4"]
        )
        assert code == 0

    def test_precondition_violation(self, capsys):
        code = cli.main(["verify", COUNTEREXAMPLE, "--s", "2", "--theta-count", "8",
                         "--phi-count", "8"])
        assert code == 3
        assert "precondition" in capsys.readouterr().err

    def test_precondition_violation_is_not_a_spec_error(self, capsys):
        # The spec file is valid; the --s value is what breaks the precondition.
        code = cli.main(["verify", COUNTEREXAMPLE, "--s", "2", "--theta-count", "3",
                         "--phi-count", "3"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: s=2 violates a precondition")
        assert "invalid spec" not in err

    def test_oversized_s_refused_before_the_sweep(self, monkeypatch, capsys):
        def sweep(*args, **kwargs):
            raise AssertionError("operator_range ran")

        monkeypatch.setattr(cli, "operator_range", sweep)
        assert cli.main(["verify", COUNTEREXAMPLE, "--s", "3", "--s", "3000"]) == 3
        err = capsys.readouterr().err
        assert "precondition" in err and "6000" in err

    def test_tolerance_breach_exit_code(self, capsys):
        code = cli.main(
            ["verify", COUNTEREXAMPLE, "--theta-count", "60", "--phi-count", "60",
             "--s", "3", "--tol-scale", "1e-12"]
        )
        assert code == 5
        assert "FAIL" in capsys.readouterr().out


class TestScreenedVerify:
    """``verify`` sweeps at ``_SCREEN_RTOL`` and certifies to
    ``SUPPORT_RTOL`` only the directions its excess depends on."""

    ARGS = ("--theta-count", "90", "--s", "4", "--s", "8", "--s", "16")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_stdout_matches_a_fine_sweep(self, seed, tmp_path, monkeypatch, capsys):
        path = write_spec(tmp_path, spec_to_doc(random_spec(np.random.default_rng(seed), 8, 4)))
        assert cli.main(["verify", path, *self.ARGS]) == 0
        screened = capsys.readouterr().out
        monkeypatch.setattr(cli, "_SCREEN_RTOL", SUPPORT_RTOL)
        assert cli.main(["verify", path, *self.ARGS]) == 0
        assert capsys.readouterr().out == screened

    def test_solves_a_sixth_of_a_fine_sweep(self, tmp_path, monkeypatch, capsys):
        """The screen bisects nothing: its start grid and the pairs the check
        certifies take 5,540 solves of the 8 x 8 symbol parts on this spec,
        where a sweep at SUPPORT_RTOL takes 32,333 and a 1e-4 screen 8,249."""
        path = write_spec(tmp_path, spec_to_doc(random_spec(np.random.default_rng(0), 8, 4)))
        solved, eigvalsh = [], np.linalg.eigvalsh

        def counting(h):
            if np.shape(h)[-1] == 8:
                solved.append(int(np.prod(np.shape(h)[:-2])))
            return eigvalsh(h)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert cli.main(["verify", path, *self.ARGS]) == 0
        assert sum(solved) <= 6_000


class TestCounterexample:
    def test_report_roundtrips(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(
            ["counterexample", "--theta-count", "90", "--phi-count", "90",
             "--direction-count", "90", "--out", str(out)]
        )
        assert code == 0
        summary = capsys.readouterr().out
        assert "hyperbolic: False" in summary
        # The written verdict: failed at the witness direction pi/2, whose
        # four roots are [re, im] pairs, the largest |im| being max_imag.
        doc = json.loads(out.read_text())
        assert doc["kind"] == "counterexample-report"
        assert doc["range_report"]["theta_count"] == 90
        verdict = doc["nonrepresentability"]["verdict"]
        assert set(verdict) == {"hyperbolic", "max_imag", "direction_count", "tol",
                                "witness_theta", "witness_direction", "witness_roots"}
        assert verdict["hyperbolic"] is False and verdict["direction_count"] == 90
        assert abs(verdict["witness_theta"] - math.pi / 2) <= 1e-12
        roots = np.array(verdict["witness_roots"])
        assert roots.shape == (4, 2)
        assert np.max(np.abs(roots[:, 1])) == verdict["max_imag"] > verdict["tol"]

    def test_certificate_forms_json_contract(self, tmp_path):
        out = tmp_path / "report.json"
        args = ["--theta-count", "24", "--phi-count", "24", "--direction-count", "8"]
        assert cli.main(["counterexample", *args, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        quartic = {"degree": 4, "records": [
            [0, 0, 4, 16.0], [0, 2, 2, 32.0], [0, 4, 0, 16.0], [2, 0, 2, -72.0],
            [2, 2, 0, -72.0], [3, 1, 0, 64.0], [4, 0, 0, -15.0],
        ]}
        dual = {"degree": 4, "records": [
            [0, 0, 4, -27.0], [0, 2, 2, -162.0], [0, 4, 0, -135.0], [1, 1, 2, -216.0],
            [1, 3, 0, -216.0], [2, 0, 2, -72.0], [2, 2, 0, -72.0], [3, 1, 0, 32.0],
            [4, 0, 0, 16.0],
        ]}
        # Compared as JSON text, so integer exponents and float coefficients
        # are pinned too.
        assert json.dumps(doc["nonrepresentability"]["quartic"]) == json.dumps(quartic)
        assert json.dumps(doc["nonrepresentability"]["dual"]) == json.dumps(dual)
        assert doc["nonrepresentability"]["quartic"] == boundary_quartic().to_dict()
        assert doc["nonrepresentability"]["dual"] == dual_quartic().to_dict()

    def test_report_file_is_the_dict_encoding(self, tmp_path):
        out = tmp_path / "report.json"
        args = ["--theta-count", "30", "--phi-count", "40", "--direction-count", "16"]
        assert cli.main(["counterexample", *args, "--out", str(out)]) == 0
        doc, _ = cli.counterexample_doc(theta_count=30, phi_count=40, direction_count=16)
        text = out.read_text()
        assert text == json.dumps(doc) + "\n"
        library = operator_range(counterexample_spec(), 30, 40)
        written = np.array(json.loads(text)["range_report"]["polygon"])
        assert np.array_equal(written, library.polygon.vertices)

    def test_refinement_shrinks_quartic_residual(self):
        # The normalized residual shrinks strictly while it is approximation
        # error.  Polished boundary points can reach the rounding floor
        # (about 2e-14), where the two grids differ by noise alone, so a
        # coarse residual at or below the floor only asks the fine one to
        # stay there.
        floor = 1e-13
        coarse, _ = cli.counterexample_doc(theta_count=120, phi_count=120, direction_count=16)
        fine, _ = cli.counterexample_doc(theta_count=360, phi_count=360, direction_count=16)
        if coarse["quartic_residual_max"] > floor:
            assert fine["quartic_residual_max"] < coarse["quartic_residual_max"]
        else:
            assert fine["quartic_residual_max"] <= floor

    def test_polished_boundary_points_meet_the_quartic(self):
        # The default 16 x 720 grid: each boundary point comes from a
        # polished maximizer, so it lies on the quartic to 1e-9.
        doc, _ = cli.counterexample_doc(theta_count=16, phi_count=720, direction_count=16)
        assert doc["quartic_residual_max"] <= 1e-9


class TestPlot:
    def test_default_overlays(self, tmp_path):
        out = tmp_path / "fig.svg"
        code = cli.main(
            ["plot", COUNTEREXAMPLE, "--theta-count", "30", "--phi-count", "60",
             "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().count("<path") == 7

    def test_single_point_plot(self, tmp_path):
        spec_path = write_spec(
            tmp_path, {"period": 1, "band": 0, "diagonals": {"0": [[0.5, -0.5]]}}
        )
        out = tmp_path / "point.svg"
        code = cli.main(
            ["plot", spec_path, "--theta-count", "6", "--phi-count", "6",
             "--overlay-thetas", "0", "--out", str(out)]
        )
        assert code == 0
        assert "<circle" in out.read_text()


class TestEigensolverFailure:
    @staticmethod
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def test_sweep_failure_is_not_a_spec_error(self, monkeypatch, capsys):
        monkeypatch.setattr(np.linalg, "eigh", self.fail)
        code = cli.main(["range", COUNTEREXAMPLE, "--theta-count", "6", "--phi-count", "6"])
        assert code != cli.EXIT_INVARIANT
        assert code == 1
        assert "eigensolver did not converge" in capsys.readouterr().err

    def test_interval_failure_is_not_a_spec_error(self, monkeypatch, capsys):
        monkeypatch.setattr(np.linalg, "eigvalsh", self.fail)
        code = cli.main(["interval", FREE_JACOBI, "--theta-count", "8"])
        assert code != cli.EXIT_INVARIANT
        assert code == 1
        assert "eigensolver did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("routine", ["eigvals", "eig"])
    def test_structural_check_failure_exits_1(self, monkeypatch, capsys, routine):
        monkeypatch.setattr(np.linalg, routine, self.fail)
        code = cli.main(["verify", FREE_JACOBI, "--theta-count", "8", "--phi-count", "8"])
        assert code == 1
        assert "eigensolver did not converge" in capsys.readouterr().err

    def test_recursion_error_after_reading_is_not_a_read_error(self, monkeypatch, capsys):
        def overflow(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "operator_range", overflow)
        assert cli.main(["range", COUNTEREXAMPLE, "--theta-count", "4"]) == 1
        assert "cannot read input" not in capsys.readouterr().err


class TestConfigValidation:
    def test_bad_counts(self):
        assert cli.main(["range", COUNTEREXAMPLE, "--theta-count", "0"]) == 3
        assert cli.main(["range", COUNTEREXAMPLE, "--phi-count", "2"]) == 3

    @pytest.mark.parametrize(
        "options",
        [["--theta-count", "0"], ["--phi-count", "2"], ["--overlay-thetas", "5"]],
    )
    def test_option_errors_are_not_spec_errors(self, capsys, options):
        assert cli.main(["range", COUNTEREXAMPLE, *options]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "invalid spec" not in err

    def test_zero_direction_count(self, capsys):
        assert cli.main(["counterexample", "--direction-count", "0"]) == 3
        assert "direction-count" in capsys.readouterr().err

    def test_non_finite_theta(self, capsys):
        for value in ("nan", "inf"):
            assert cli.main(["symbol", COUNTEREXAMPLE, "--theta", value]) == 3
        assert capsys.readouterr().out == ""

    def test_non_finite_tol_scale(self):
        assert cli.main(["verify", COUNTEREXAMPLE, "--tol-scale", "nan"]) == 3

    def test_oversized_direction_count_refused_before_the_sweep(self, monkeypatch, capsys):
        def sweep(*args, **kwargs):
            raise AssertionError("operator_range ran")

        monkeypatch.setattr(cli, "operator_range", sweep)
        assert cli.main(["counterexample", "--direction-count", "100000000"]) == 3
        captured = capsys.readouterr()
        assert "cap" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["plot", COUNTEREXAMPLE],
            ["range", COUNTEREXAMPLE, "--format", "svg"],
        ],
    )
    def test_oversized_overlays_refused_before_the_sweep(self, monkeypatch, capsys, argv):
        def sweep(*args, **kwargs):
            raise AssertionError("operator_range ran")

        monkeypatch.setattr(cli, "operator_range", sweep)
        assert cli.main([*argv, "--overlay-thetas", "100000000"]) == 3
        captured = capsys.readouterr()
        assert "cap" in captured.err and captured.out == ""

    @pytest.mark.parametrize("fmt", ["report-doc", "flat-table"])
    def test_overlays_refused_outside_svg(self, capsys, fmt):
        argv = ["range", COUNTEREXAMPLE, "--theta-count", "3", "--phi-count", "3",
                "--format", fmt]
        assert cli.main([*argv, "--overlay-thetas", "5"]) == 3
        captured = capsys.readouterr()
        assert "only to SVG" in captured.err and captured.out == ""
        assert cli.main([*argv, "--overlay-thetas", "0"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["counterexample", "--theta-count", "3", "--phi-count", "3",
             "--direction-count", "100000000"],
            ["plot", COUNTEREXAMPLE, "--theta-count", "3", "--phi-count", "3",
             "--overlay-thetas", "100000000"],
            ["range", COUNTEREXAMPLE, "--theta-count", "3", "--phi-count", "3",
             "--format", "svg", "--overlay-thetas", "100000000"],
            ["verify", FREE_JACOBI, "--tol-scale", "-1"],
            ["verify", FREE_JACOBI, "--tol-scale", "0"],
        ],
    )
    def test_refused_before_any_work(self, capsys, argv):
        start = time.perf_counter()
        assert cli.main(argv) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


class _FullStdout:
    """Stands in for stdout redirected to a full device: writes are
    buffered, and the flush fails."""

    def write(self, text):
        return len(text)

    def flush(self):
        raise OSError(28, "No space left on device")


class TestStdoutFailure:
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", COUNTEREXAMPLE],
            ["counterexample", "--theta-count", "8", "--phi-count", "8",
             "--direction-count", "8"],
        ],
    )
    def test_write_failure_exits_4(self, monkeypatch, capsys, argv):
        monkeypatch.setattr("sys.stdout", _FullStdout())
        assert cli.main(argv) == 4
        assert "I/O failure" in capsys.readouterr().err
