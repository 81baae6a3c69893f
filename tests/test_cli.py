import importlib.resources
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from cli_runner import CliRunner

import gfadm
import gfadm.solver
from gfadm import cli
from gfadm.adomian import adomian_coefficients, adomian_polynomial_rows
from gfadm.cli import main
from gfadm.expr import MAX_NESTING

PROBLEMS = importlib.resources.files("gfadm") / "problems"
# default solve, bound and residual-summary outputs of the bundled problems
GOLDEN = Path(__file__).parent / "golden"
DIVERGENT = Path(__file__).parent / "data" / "divergent_series.ini"
BUNDLED = ["example1_catalytic", "example1_symmetric", "example2_oxygen",
           "example3_co2_pge"]


@pytest.fixture()
def runner():
    return CliRunner()


def _problem(name):
    return str(PROBLEMS / name)


def _write(tmp_path, text, name="problem.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


ZERO_RHS = """
[component.1]
operator = lane_emden alpha=2
left = neumann0
right = a=1 b=0 c=1
rhs = 0

[component.2]
operator = lane_emden alpha=2
left = neumann0
right = a=1 b=0 c=2
rhs = 0

[run]
n_terms = 3
backend = grid
grid_size = 32
"""

# a Robin problem whose increments grow slowly from term 11 on, while its
# last increment stays below its first: at n = 20 the solve warns
ROBIN_ALPHA1 = """
[component.1]
operator = lane_emden alpha=1
left = neumann0
right = a=1 b=0.5 c=1
rhs = y1^2 - 0.5*x*y2

[component.2]
operator = lane_emden alpha=1
left = neumann0
right = a=1 b=0.5 c=2
rhs = 0.3*y1*y2
"""


def _solve_in_subprocess(tmp_path, rhs):
    """``gfadm solve`` in a fresh process on ZERO_RHS with component 1's rhs replaced."""
    return _solve_file_in_subprocess(tmp_path, ZERO_RHS.replace("rhs = 0", f"rhs = {rhs}", 1))


def _solve_file_in_subprocess(tmp_path, text):
    """``gfadm solve`` in a fresh process on a problem file of this text."""
    return _run_in_subprocess("solve", _write(tmp_path, text), "--out", str(tmp_path / "s.csv"))


def _run_in_subprocess(*args, **env):
    """``gfadm`` with these arguments in a fresh process, env added to its environment."""
    src = str(Path(gfadm.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "gfadm.cli", *args],
                          env={**os.environ, **env, "PYTHONPATH": path},
                          capture_output=True, text=True)


class TestSolve:
    def test_example2_golden_row(self, runner, tmp_path):
        out = tmp_path / "sol.csv"
        res = runner.invoke(main, ["solve", _problem("example2_oxygen.ini"),
                                   "--n", "4", "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "x,psi1,psi2"
        mid = next(r for r in rows if r.startswith("0.5000000,"))
        _, p1, p2 = mid.split(",")
        assert abs(float(p1) - 1.4998959) <= 2e-7
        assert abs(float(p2) - 1.0187468) <= 2e-7

    def test_zero_rhs_baselines(self, runner, tmp_path):
        out = tmp_path / "sol.csv"
        res = runner.invoke(main, ["solve", _write(tmp_path, ZERO_RHS),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        for line in out.read_text().strip().splitlines()[1:]:
            _, p1, p2 = line.split(",")
            assert p1 == "1.0000000"
            assert p2 == "2.0000000"

    def test_symmetric_columns_differ_by_one(self, runner, tmp_path):
        out = tmp_path / "sol.csv"
        res = runner.invoke(main, ["solve", _problem("example1_symmetric.ini"),
                                   "--n", "5", "--out", str(out)])
        assert res.exit_code == 0, res.output
        for line in out.read_text().strip().splitlines()[1:]:
            _, p1, p2 = line.split(",")
            assert abs(float(p2) - float(p1) - 1.0) <= 1e-7

    def test_poly_backend_writes_coefficients(self, runner, tmp_path):
        out = tmp_path / "sol.csv"
        res = runner.invoke(main, ["solve", _problem("example1_catalytic.ini"),
                                   "--n", "3", "--backend", "poly",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "sol.coeffs.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_point_nearer_zero_than_tiny(self, runner, tmp_path):
        # 1e-320 - 0 is below the smallest normal float: the point is node 0
        rows = []
        for x in ("1e-320", "0"):
            out = tmp_path / f"{x}.csv"
            res = runner.invoke(main, ["solve", _problem("example1_catalytic.ini"),
                                       "--backend", "grid", "--abscissae", f"{x},0.5",
                                       "--out", str(out)])
            assert res.exit_code == 0, res.output
            assert res.stderr == ""
            rows.append(out.read_text().splitlines())
        assert rows[0] == rows[1]
        assert all(math.isfinite(float(v)) for v in rows[0][1].split(","))

    def test_determinism(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            res = runner.invoke(main, ["solve", _problem("example1_catalytic.ini"),
                                       "--n", "4", "--out", str(out)])
            assert res.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_defaults_without_run(self, runner, tmp_path):
        """A file without [run] solves n_terms 5 on the grid backend."""
        path = _write(tmp_path, ZERO_RHS[: ZERO_RHS.index("[run]")])
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["solve", path, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert not out.with_suffix(".coeffs.json").exists()
        res = runner.invoke(main, ["solve", path, "--backend", "poly", "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads(out.with_suffix(".coeffs.json").read_text())
        assert payload["n"] == 5 and len(payload["terms1"]) == 6

    def test_divergence_warning_is_one_line(self, runner, tmp_path):
        """A series that may diverge prints one warning line; its CSV is unchanged."""
        problem = _write(tmp_path, ROBIN_ALPHA1)
        res = runner.invoke(main, ["solve", problem, "--n", "20",
                                   "--out", str(tmp_path / "warned.csv")])
        assert res.exit_code == 0, res.output
        assert res.stderr == ("warning: the series may diverge: the increments of"
                              " terms 11..20 grow by a factor 1.1 per term\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = runner.invoke(main, ["solve", problem, "--n", "20",
                                         "--out", str(tmp_path / "quiet.csv")])
        assert quiet.exit_code == 0 and quiet.stderr == ""
        written = (tmp_path / "warned.csv").read_bytes()
        assert written.startswith(b"x,psi1,psi2\n0.1000000,")
        assert written == (tmp_path / "quiet.csv").read_bytes()

    def test_out_dir_env(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("GFADM_OUT_DIR", str(tmp_path))
        res = runner.invoke(main, ["solve", _write(tmp_path, ZERO_RHS)])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "problem_solution.csv").exists()


class TestResidual:
    def test_summary_and_points(self, runner, tmp_path):
        res = runner.invoke(main, ["residual", _problem("example1_catalytic.ini"),
                                   "--n-list", "2,3", "--backend", "poly",
                                   "--out", str(tmp_path / "r")])
        assert res.exit_code == 0, res.output
        summary = (tmp_path / "r_summary.csv").read_text().strip().splitlines()
        assert summary[0] == "n,maxr1,maxr2"
        assert len(summary) == 3
        points = (tmp_path / "r_points.csv").read_text().strip().splitlines()
        assert points[0] == "n,x,r1,r2"
        assert len(points) == 1 + 2 * 9

    def test_zero_rhs_zero_residual(self, runner, tmp_path):
        res = runner.invoke(main, ["residual", _write(tmp_path, ZERO_RHS),
                                   "--out", str(tmp_path / "r")])
        assert res.exit_code == 0, res.output
        for line in (tmp_path / "r_summary.csv").read_text().strip().splitlines()[1:]:
            _, m1, m2 = line.split(",")
            assert float(m1) <= 1e-9 and float(m2) <= 1e-9


class TestBound:
    def test_reports_m(self, runner):
        res = runner.invoke(main, ["bound", _problem("example1_symmetric.ini"),
                                   "--n-list", "2,4"])
        assert res.exit_code == 0, res.output
        assert "m      = 0.166667" in res.output
        assert "gamma" in res.output
        assert "bound[n=2]" in res.output

    def test_gamma_warning(self, runner, tmp_path):
        stiff = ZERO_RHS.replace("rhs = 0", "rhs = 9*y1", 1)
        res = runner.invoke(main, ["bound", _write(tmp_path, stiff)])
        assert res.exit_code == 0, res.output
        assert "gamma >= 1" in res.output


def test_repeated_orders_are_reported_once(runner, tmp_path, monkeypatch):
    """``--n-list`` with an order given twice reports and computes it once."""
    calls = []
    search = gfadm.analysis.max_residual

    def counted(p, sol, n, **kwargs):
        calls.append(n)
        return search(p, sol, n, **kwargs)

    monkeypatch.setattr(gfadm.analysis, "max_residual", counted)
    problem = _problem("example1_symmetric.ini")
    res = runner.invoke(main, ["bound", problem, "--n-list", "4,4,2"])
    assert res.exit_code == 0, res.output
    assert [line.split(" =")[0] for line in res.output.splitlines()
            if line.startswith("bound[")] == ["bound[n=2]", "bound[n=4]"]
    res = runner.invoke(main, ["residual", problem, "--n-list", "4,4",
                               "--out", str(tmp_path / "r")])
    assert res.exit_code == 0, res.output
    assert calls == [4]
    summary = (tmp_path / "r_summary.csv").read_text().strip().splitlines()
    assert len(summary) == 2 and summary[1].startswith("4,")
    points = (tmp_path / "r_points.csv").read_text().strip().splitlines()
    assert len(points) == 1 + 9


class TestCompare:
    def test_symmetric_deviation(self, runner):
        res = runner.invoke(main, ["compare", _problem("example1_symmetric.ini"),
                                   "--n", "10", "--fd-points", "512"])
        assert res.exit_code == 0, res.output
        dev = float(res.output.splitlines()[0].split("=")[1])
        assert dev <= 1e-4

    def test_zero_rhs(self, runner, tmp_path):
        res = runner.invoke(main, ["compare", _write(tmp_path, ZERO_RHS),
                                   "--fd-points", "64"])
        assert res.exit_code == 0, res.output
        dev = float(res.output.splitlines()[0].split("=")[1])
        assert dev <= 1e-10


@pytest.mark.parametrize("name", BUNDLED)
def test_golden_outputs(runner, tmp_path, name):
    """Default CLI outputs are byte-identical to the recorded ones."""
    problem = _problem(f"{name}.ini")
    res = runner.invoke(main, ["solve", problem,
                               "--out", str(tmp_path / f"{name}_solution.csv")])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["residual", problem,
                               "--out", str(tmp_path / f"{name}_residual")])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["bound", problem])
    assert res.exit_code == 0, res.output
    (tmp_path / f"{name}_bound.txt").write_text(res.stdout)
    golden = sorted(GOLDEN.glob(f"{name}_*"))
    assert len(golden) >= 3
    for path in golden:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


class TestErrors:
    @pytest.mark.parametrize("backend", ["grid", "poly"])
    def test_divergent_series_exit_3(self, runner, tmp_path, backend):
        """A series that grows is an error on both backends, and no file is written."""
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["solve", str(DIVERGENT), "--backend", backend,
                                   "--out", str(out)])
        assert res.exit_code == 3
        assert res.output.startswith("error: the series diverges: the increments"
                                     " of terms 6..11 grow by a factor 1.5 per term")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cmd, flag, message", [
        ("solve", "--grid-size", "grid size 2049 exceeds the largest, 2048"),
        ("compare", "--fd-points", "oracle grid M = 524289 exceeds the largest, 524288"),
    ])
    def test_oversized_input_exit_1(self, runner, tmp_path, monkeypatch, cmd, flag,
                                    message):
        """Past its limit a grid size or --fd-points is an input error; only
        the limit + 1 is tried."""
        monkeypatch.setenv("GFADM_OUT_DIR", str(tmp_path))
        limit = int(message.rpartition(" ")[2])
        res = runner.invoke(main, [cmd, _problem("example2_oxygen.ini"), flag,
                                   str(limit + 1)])
        assert res.exit_code == 1
        assert res.output == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("problem, points, code, message", [
        (DIVERGENT, "8", 1, "oracle grid needs M >= 16"),
        (DIVERGENT, "999999999", 1,
         "oracle grid M = 999999999 exceeds the largest, 524288"),
        (DIVERGENT, "64", 3, "the series diverges: the increments of terms 6..11"),
        (PROBLEMS / "example1_symmetric.ini", "8", 1, "oracle grid needs M >= 16"),
    ])
    def test_fd_points_checked_before_the_solve(self, runner, monkeypatch, problem,
                                                points, code, message):
        """--fd-points outside the oracle's range is an input error, reported
        before the series is solved; a valid one reaches the solve."""
        if code == 1:
            def solve(*args, **kwargs):
                raise AssertionError("solved before checking --fd-points")

            monkeypatch.setattr(cli, "gfadm_solve", solve)
        res = runner.invoke(main, ["compare", str(problem), "--fd-points", points])
        assert res.exit_code == code
        assert res.output.startswith(f"error: {message}")
        assert res.output.count("\n") == 1

    @pytest.mark.parametrize("right", ["a=1 b=-0.5 c=1", "a=-1 b=0.5 c=1"])
    def test_negative_robin_shift_exit_1(self, runner, tmp_path, right):
        """A right condition with b/a < 0 is rejected when the file is read."""
        problem = _write(tmp_path, ZERO_RHS.replace("a=1 b=0 c=1", right, 1))
        out = tmp_path / "out" / "s.csv"
        res = runner.invoke(main, ["solve", problem, "--out", str(out)])
        assert res.exit_code == 1
        assert res.output == ("error: [component.1]: right boundary condition needs"
                              " b/a >= 0: a and b of one sign, or b = 0\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.ini"]

    def test_missing_file(self, runner):
        res = runner.invoke(main, ["solve", "/nonexistent.ini"])
        assert res.exit_code == 1

    def test_unknown_key(self, runner, tmp_path):
        bad = ZERO_RHS.replace("rhs = 0", "rhs = 0\nwhatever = 3", 1)
        res = runner.invoke(main, ["solve", _write(tmp_path, bad)])
        assert res.exit_code == 1
        assert "whatever" in res.output

    def test_bad_expression(self, runner, tmp_path):
        bad = ZERO_RHS.replace("rhs = 0", "rhs = y3 +", 1)
        res = runner.invoke(main, ["solve", _write(tmp_path, bad)])
        assert res.exit_code == 1

    @pytest.mark.parametrize("rhs", ["(" * 300 + "y1" + ")" * 300, "-" * 2000 + "y1"])
    def test_deep_nesting_exit_1(self, tmp_path, rhs):
        """Nesting past the parser's limit is an input error, reported in one line."""
        res = _solve_in_subprocess(tmp_path, rhs)
        assert res.returncode == 1
        assert res.stderr.splitlines() == [
            f"error: [component.1]: nested deeper than {MAX_NESTING} levels"
            f" (at position {MAX_NESTING})"]
        assert not (tmp_path / "s.csv").exists()

    def test_unexpected_character_exit_1(self, tmp_path):
        """The error line names the character and its own position."""
        res = _solve_in_subprocess(tmp_path, "y1 @ y2")
        assert res.returncode == 1
        assert res.stderr.splitlines() == [
            "error: [component.1]: unexpected character '@' (at position 3)"]
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("backend", ["grid", "poly"])
    def test_overflowing_literal_exit_1(self, tmp_path, backend):
        """A literal too large for a float is an input error that names its
        position, before any solve, not a non-finite row half-way through."""
        text = (PROBLEMS / "example1_catalytic.ini").read_text()
        bad = text.replace("rhs = 1*y1^2", "rhs = 1e400*y1 + 1*y1^2", 1)
        assert bad != text
        res = _run_in_subprocess("solve", _write(tmp_path, bad), "--backend", backend,
                                 "--out", str(tmp_path / "s.csv"))
        assert res.returncode == 1
        assert res.stderr.splitlines() == [
            "error: [component.1]: number '1e400' overflows to infinity (at position 0)"]
        assert res.stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.ini"]

    def test_unknown_run_backend_exit_1(self, tmp_path):
        """A [run] backend outside grid and poly is a problem-file error, in one line."""
        res = _solve_file_in_subprocess(tmp_path, ZERO_RHS.replace(
            "backend = grid", "backend = foo"))
        assert res.returncode == 1
        assert res.stderr.splitlines() == ["error: unknown backend 'foo'"]
        assert not (tmp_path / "s.csv").exists()

    def test_percent_sign_exit_1(self, runner, tmp_path):
        """A '%' is an ordinary character, which the rhs parser rejects in one line."""
        text = (PROBLEMS / "example1_catalytic.ini").read_text()
        bad = text.replace("rhs = 1*y1^2 + 0.4*y1*y2", "rhs = 1*y1^2 + 0.4*y1*y2 % 2", 1)
        assert bad != text
        res = runner.invoke(main, ["solve", _write(tmp_path, bad),
                                   "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 1
        assert res.exc_info[0] is SystemExit  # raised by the CLI, not by the reader
        assert res.output == "error: [component.1]: unexpected character '%' (at position 19)\n"
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("case", ["out-under-a-file", "out-a-directory",
                                      "env-a-file", "residual-csv-a-directory",
                                      "coeffs-json-a-directory"])
    def test_unwritable_output_exit_1(self, tmp_path, case):
        """An output path that cannot be written is an input error, in one line."""
        problem = _write(tmp_path, ZERO_RHS)
        a_file = tmp_path / "a-file"
        a_file.write_text("")
        for name in ("x_residual_points.csv", "y.coeffs.json"):
            (tmp_path / name).mkdir()
        # the path the error names, the subcommand and its options, the environment
        target, (cmd, *opts), env = {
            "out-under-a-file": (a_file / "x.csv", ["solve", "--out", a_file / "x.csv"], {}),
            "out-a-directory": (tmp_path, ["solve", "--out", tmp_path], {}),
            "env-a-file": (a_file / "problem_residual", ["residual"],
                           {"GFADM_OUT_DIR": str(a_file)}),
            "residual-csv-a-directory": (tmp_path / "x_residual_points.csv",
                                         ["residual", "--out", tmp_path / "x_residual"], {}),
            "coeffs-json-a-directory": (tmp_path / "y.coeffs.json",
                                        ["solve", "--backend", "poly", "--out",
                                         tmp_path / "y.csv"], {}),
        }[case]
        res = _run_in_subprocess(cmd, problem, *map(str, opts), **env)
        assert res.returncode == 1
        [line] = res.stderr.splitlines()
        assert line.startswith(f"error: cannot write {target}: "), line

    @pytest.mark.parametrize("case", ["solve-out-under-a-file", "solve-out-a-directory",
                                      "solve-coeffs-json-a-directory",
                                      "residual-out-under-a-file", "residual-env-a-file",
                                      "residual-points-csv-a-directory",
                                      "residual-summary-csv-a-directory"])
    def test_unwritable_output_fails_before_the_solve(self, runner, tmp_path,
                                                      monkeypatch, case):
        """Every path a command writes is checked before the series is solved."""
        def solve(*args, **kwargs):
            raise AssertionError("solved before checking the output paths")

        monkeypatch.setattr(cli, "gfadm_solve", solve)
        problem = _write(tmp_path, ZERO_RHS)
        a_file = tmp_path / "a-file"
        a_file.write_text("")
        for name in ("x_points.csv", "y_summary.csv", "z.coeffs.json"):
            (tmp_path / name).mkdir()
        # the path the error names, the subcommand and its options, the environment
        target, (cmd, *opts), env = {
            "solve-out-under-a-file": (a_file / "x.csv",
                                       ["solve", "--out", a_file / "x.csv"], {}),
            "solve-out-a-directory": (tmp_path, ["solve", "--out", tmp_path], {}),
            "solve-coeffs-json-a-directory": (tmp_path / "z.coeffs.json",
                                              ["solve", "--backend", "poly", "--out",
                                               tmp_path / "z.csv"], {}),
            "residual-out-under-a-file": (a_file / "x", ["residual", "--out", a_file / "x"],
                                          {}),
            "residual-env-a-file": (a_file / "problem_residual", ["residual"],
                                    {"GFADM_OUT_DIR": str(a_file)}),
            "residual-points-csv-a-directory": (tmp_path / "x_points.csv",
                                                ["residual", "--out", tmp_path / "x"], {}),
            "residual-summary-csv-a-directory": (tmp_path / "y_summary.csv",
                                                 ["residual", "--out", tmp_path / "y"], {}),
        }[case]
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        res = runner.invoke(main, [cmd, problem, *map(str, opts)])
        assert res.exit_code == 1, res.output
        [line] = res.stderr.splitlines()
        assert line.startswith(f"error: cannot write {target}: "), line
        if target.is_dir():  # the message that writing to it gives
            assert line.endswith(f"Is a directory: {str(target)!r}"), line

    def test_long_sum_solves(self, runner, tmp_path):
        rhs = " + ".join(f"{k}e-8*y1*y2" for k in range(1, 3001))
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["solve", _write(tmp_path, ZERO_RHS.replace(
            "rhs = 0", f"rhs = {rhs}", 1)), "--n", "2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert out.exists()

    def test_numeric_error_exit_2(self, runner, tmp_path):
        # iterate hits the nonlinearity pole y1 = 1 at the baseline
        bad = ZERO_RHS.replace("rhs = 0", "rhs = 1/(y1 - 1)", 1)
        res = runner.invoke(main, ["solve", _write(tmp_path, bad)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("rhs, backend, code", [
        ("1/(y1 - 1)", "grid", 2),
        ("y2/(y1 - 2*x)", "grid", 2),
        ("1e200*y1^2", "grid", 2),
        ("1e200*y1^2", "poly", 2),
        ("y1/(y1 + 1)", "poly", 1),
    ])
    def test_row_errors_exit_as_one_shot(self, runner, tmp_path, monkeypatch,
                                         rhs, backend, code):
        """The running expansion fails with the exit code of fresh expansions."""
        bad = _write(tmp_path, ZERO_RHS.replace("rhs = 0", f"rhs = {rhs}", 1))
        results = []
        for _ in range(2):
            res = runner.invoke(main, ["solve", bad, "--backend", backend,
                                       "--out", str(tmp_path / "s.csv")])
            results.append((res.exit_code, res.output))
            monkeypatch.setattr(gfadm.solver, "adomian_coefficients",
                                lambda f, x, t1, t2, e: adomian_coefficients(f, x, t1, t2))
            monkeypatch.setattr(gfadm.solver, "adomian_polynomial_rows",
                                lambda f, t1, t2, e: adomian_polynomial_rows(f, t1, t2))
        assert results[0] == results[1]
        assert results[0][0] == code
        assert not (tmp_path / "s.csv").exists()

    def test_unsupported_backend_exit_1(self, runner, tmp_path):
        # the exact backend cannot expand the rational oxygen rates
        res = runner.invoke(main, ["solve", _problem("example2_oxygen.ini"),
                                   "--backend", "poly",
                                   "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 1
        assert "polynomial" in res.output

    def test_unresolved_grid_exit_2(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["solve", _problem("example1_catalytic.ini"),
                                   "--backend", "grid", "--grid-size", "1",
                                   "--n", "3", "--out", str(out)])
        assert res.exit_code == 2
        assert "grid size 1" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("old, new, backend", [
        ("alpha=2", "alpha=nan", "grid"),
        ("alpha=2", "alpha=nan", "poly"),
        ("alpha=2", "alpha=inf", "poly"),
        ("b=0 c=1", "b=nan c=1", "grid"),
        ("a=1 b=0 c=1", "a=1e-300 b=1e300 c=1", "grid"),
    ])
    def test_non_finite_parameter_exit_1(self, runner, tmp_path, old, new, backend):
        bad = ZERO_RHS.replace("rhs = 0", "rhs = 0.5*y1^2", 1).replace(old, new, 1)
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["solve", _write(tmp_path, bad), "--n", "1",
                                   "--backend", backend, "--out", str(out)])
        assert res.exit_code == 1
        assert "finite" in res.output
        assert not out.exists()
        assert not out.with_suffix(".coeffs.json").exists()

    def test_non_finite_parameter_bound_exit_1(self, runner, tmp_path):
        bad = ZERO_RHS.replace("alpha=2", "alpha=nan", 1)
        res = runner.invoke(main, ["bound", _write(tmp_path, bad)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "finite" in res.output

    @pytest.mark.parametrize("old, new, n, backend", [
        # overflow in the Adomian rows
        ("rhs = 0", "rhs = 1e200*y1^2", "3", "poly"),
        # overflow in the kernel image of the last term
        ("b=0 c=1\nrhs = 0", "b=10 c=1\nrhs = 1e308", "1", "poly"),
        ("b=0 c=1\nrhs = 0", "b=10 c=1\nrhs = 1e308", "1", "grid"),
    ])
    @pytest.mark.filterwarnings("error")  # the typed error is the only report
    def test_overflow_exit_2(self, runner, tmp_path, old, new, n, backend):
        bad = ZERO_RHS.replace(old, new, 1)
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["solve", _write(tmp_path, bad), "--n", n,
                                   "--backend", backend, "--out", str(out)])
        assert res.exit_code == 2
        assert "finite" in res.output
        assert not out.exists()
        assert not out.with_suffix(".coeffs.json").exists()

    def test_degree_cap_exit_2(self, runner, tmp_path):
        # y1 = 1 - x at first, so y1^5 gains 6 degrees per term and term 10
        # would have degree 61
        text = ZERO_RHS.replace("lane_emden alpha=2\nleft = neumann0\n"
                                "right = a=1 b=0 c=1\nrhs = 0",
                                "flat\nleft = dirichlet value=1\n"
                                "right = a=1 b=0 c=0\nrhs = y1^5", 1)
        assert "y1^5" in text
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["solve", _write(tmp_path, text), "--n", "12",
                                   "--backend", "poly", "--out", str(out)])
        assert res.exit_code == 2
        assert "degree 61 of term 10 of component 1 exceeds cap 60" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("cmd, out_name, written", [
        ("solve", "s.csv", ["s.csv"]),
        ("residual", "s", ["s_points.csv", "s_summary.csv"])])
    def test_negative_zero_abscissa_is_zero(self, runner, tmp_path, cmd, out_name,
                                            written):
        """--abscissae=-0.0 writes the rows of 0, not of -0.0000000."""
        texts = []
        for given in ("-0.0,0.5", "0,0.5"):
            out = tmp_path / given
            res = runner.invoke(main, [cmd, _problem("example1_symmetric.ini"),
                                       f"--abscissae={given}",
                                       "--out", str(out / out_name)])
            assert res.exit_code == 0, res.output
            texts.append([(out / name).read_text() for name in written])
        assert texts[0] == texts[1]
        assert "-0.0000000" not in "".join(texts[0])
        assert "\n0.0000000," in texts[0][0] or "\n5,0.0000000," in texts[0][0]

    def test_bad_abscissae(self, runner, tmp_path):
        res = runner.invoke(main, ["solve", _write(tmp_path, ZERO_RHS),
                                   "--abscissae", "0.5,1.5"])
        assert res.exit_code == 1


# the order flag of each subcommand
ORDER = {"solve": "--n", "residual": "--n-list", "bound": "--n-list", "compare": "--n"}


@pytest.mark.parametrize("cmd", list(ORDER))
class TestSharedPath:
    """Every subcommand reads, resolves and solves its problem the same way."""

    def test_missing_file_exit_1(self, runner, cmd):
        res = runner.invoke(main, [cmd, "/nonexistent.ini"])
        assert res.exit_code == 1
        assert "cannot read" in res.output

    def test_unsupported_backend_exit_1(self, runner, cmd):
        res = runner.invoke(main, [cmd, _problem("example2_oxygen.ini"),
                                   "--backend", "poly"])
        assert res.exit_code == 1
        assert "polynomial" in res.output

    def test_unresolved_grid_exit_2(self, runner, cmd, tmp_path, monkeypatch):
        monkeypatch.setenv("GFADM_OUT_DIR", str(tmp_path))
        res = runner.invoke(main, [cmd, _problem("example1_catalytic.ini"),
                                   "--backend", "grid", "--grid-size", "1",
                                   ORDER[cmd], "3"])
        assert res.exit_code == 2
        assert "grid size 1" in res.output
        assert list(tmp_path.iterdir()) == []

    def test_grid_size_flag_overrides_run(self, runner, cmd, tmp_path, monkeypatch):
        text = (PROBLEMS / "example1_catalytic.ini").read_text()
        path = _write(tmp_path, text.replace("backend = poly", "backend = grid")
                      .replace("grid_size = 64", "grid_size = 1"))
        monkeypatch.setenv("GFADM_OUT_DIR", str(tmp_path / "out"))
        assert runner.invoke(main, [cmd, path]).exit_code == 2
        res = runner.invoke(main, [cmd, path, "--grid-size", "64"])
        assert res.exit_code == 0, res.output

    def test_order_one_accepted(self, runner, cmd, tmp_path, monkeypatch):
        """Order 1 is a valid ``--n`` and ``--n-list``, not only orders from 2."""
        monkeypatch.setenv("GFADM_OUT_DIR", str(tmp_path / "out"))
        res = runner.invoke(main, [cmd, _write(tmp_path, ZERO_RHS), ORDER[cmd], "1"])
        assert res.exit_code == 0, res.output
        if cmd == "residual":
            summary = (tmp_path / "out" / "problem_residual_summary.csv").read_text()
            assert summary.splitlines()[1].startswith("1,")

    @pytest.mark.parametrize("args, named", [(["FILE", "--n", "abc"], "--n"),
                                             (["FILE", "--backend", "foo"], "--backend"),
                                             ([], "FILE")],
                             ids=["bad-n", "bad-backend", "no-file"])
    def test_click_usage_errors_exit_1(self, runner, cmd, args, named, tmp_path,
                                       monkeypatch):
        """A bad option or no FILE prints the command's usage and one error
        line naming it, exits 1 and writes nothing."""
        monkeypatch.setenv("GFADM_OUT_DIR", str(tmp_path))
        args = [_problem("example1_catalytic.ini") if a == "FILE" else a for a in args]
        res = runner.invoke(main, [cmd, *args])
        assert res.exit_code == 1
        assert res.stdout == ""
        _assert_usage_error(res.stderr, f"gfadm {cmd} ", named)
        assert list(tmp_path.iterdir()) == []


def _assert_usage_error(stderr, usage, named):
    """stderr is the usage, from ``usage: <usage>``, then one ``error:`` line
    that names ``named``."""
    *usage_lines, error = stderr.splitlines()
    assert usage_lines and usage_lines[0].startswith(f"usage: {usage}"), stderr
    assert not any(line.startswith("error") for line in usage_lines), stderr
    assert error.startswith("error: ") and named in error, stderr


@pytest.mark.parametrize("args, usage, named", [
    (["--bogus"], "gfadm ", "command"),
    ([], "gfadm ", "command"),
    (["--bogus", "solve", _problem("example1_catalytic.ini")], "gfadm solve ", "--bogus"),
], ids=["bad-option", "no-command", "bad-option-before-command"])
def test_group_usage_errors_exit_1(runner, args, usage, named):
    # raised while the parser reads the arguments, before any command runs
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert res.stdout == ""
    _assert_usage_error(res.stderr, usage, named)


@pytest.mark.parametrize("cmd, option, given", [
    ("solve", "--abscissae", ""), ("solve", "--abscissae", " , "),
    ("residual", "--abscissae", ","), ("compare", "--abscissae", ""),
    ("residual", "--n-list", ""), ("bound", "--n-list", ""), ("bound", "--n-list", " ,"),
])
def test_empty_list_is_an_input_error(runner, tmp_path, monkeypatch, cmd, option, given):
    """An explicitly empty list is an error, not the default list."""
    monkeypatch.setenv("GFADM_OUT_DIR", str(tmp_path))
    name = "n" if option == "--n-list" else "abscissae"
    res = runner.invoke(main, [cmd, _problem("example1_symmetric.ini"), option, given])
    assert res.exit_code == 1
    assert res.output == f"error: the {name} list is empty\n"
    assert list(tmp_path.iterdir()) == []


def test_group_help_exits_0(runner):
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    assert "compare" in res.output


@pytest.mark.parametrize("args, code", [
    (["solve", _problem("example1_catalytic.ini")], 0),
    (["solve", _problem("example1_catalytic.ini"), "--n", "abc"], 1),
    (["solve", "RHS_POLE", "--backend", "grid"], 2),
    (["solve", str(DIVERGENT)], 3),
], ids=["solve", "usage-error", "numeric-error", "divergent"])
def test_main_raises_system_exit_with_the_code(tmp_path, monkeypatch, capsys, args, code):
    """``main(args=..., prog_name=...)`` as the benchmark's child process calls
    it: every run ends in SystemExit with its exit code."""
    monkeypatch.setenv("GFADM_OUT_DIR", str(tmp_path))
    pole = _write(tmp_path, ZERO_RHS.replace("rhs = 0", "rhs = 1/(y1 - 1)", 1))
    args = [pole if a == "RHS_POLE" else a for a in args]
    with pytest.raises(SystemExit) as exc:
        cli.main(args=args, prog_name="gfadm")
    assert exc.value.code == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err.splitlines()[-1].startswith("error: ")
    else:
        assert out.startswith("wrote ") and err == ""


def test_import_loads_no_scipy():
    # neither importing the CLI nor running compare (the oracle and its
    # interpolation) loads scipy
    modules = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    code = "\n".join([
        "import sys, gfadm.cli", modules,
        "try:",
        f"    gfadm.cli.main(['compare', {_problem('example1_catalytic.ini')!r}])",
        "except SystemExit as exc:",
        "    assert not exc.code, exc.code",
        modules])
    src = str(Path(gfadm.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.strip().splitlines()
    assert out[0] == out[-1] == "[]"
    assert out[1].startswith("max deviation")
