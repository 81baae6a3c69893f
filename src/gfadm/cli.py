"""Command-line front end.

Subcommands: ``solve`` (series solution tables), ``residual`` (pointwise
and maximum residual reports), ``bound`` (contraction factor and
truncation bounds), ``compare`` (cross-check against the finite-difference
oracle).  Problems are described by INI-style files; see the bundled files
under ``gfadm/problems`` for the format.

Exit codes: 0 success, 1 input error, 2 numeric error, 3 oracle error.
Output files default to the directory named by ``GFADM_OUT_DIR`` (or the
working directory).  Solution values print with 7 decimals and residuals
in scientific notation with 6 significant digits, so files are bit-stable
across runs.
"""

from __future__ import annotations

import configparser
import json
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import analysis, oracle
from .errors import (
    EvaluationError,
    ExpressionError,
    GfadmError,
    NoConvergenceError,
    NumericError,
    ProblemFileError,
    UnsupportedBackendError,
    UsageError,
)
from .solver import (
    DIRICHLET,
    EXACT,
    GRID,
    NEUMANN_ZERO,
    ComponentSpec,
    ProblemSpec,
    evaluate_partial_sum,
    gfadm_solve,
)

_BACKENDS = {"grid": GRID, "poly": EXACT}
DEFAULT_ABSCISSAE = [round(0.1 * i, 1) for i in range(1, 10)]


def _parse_kv(text: str, keys, context: str) -> dict:
    out = {}
    for part in text.split():
        if "=" not in part:
            raise ProblemFileError(f"expected key=value in {context}: {part!r}")
        key, _, val = part.partition("=")
        if key not in keys:
            raise ProblemFileError(f"unknown key {key!r} in {context}")
        try:
            out[key] = float(val)
        except ValueError:
            raise ProblemFileError(f"bad number {val!r} in {context}") from None
    return out


def _parse_component(section) -> ComponentSpec:
    allowed = {"operator", "left", "right", "rhs"}
    unknown = set(section) - allowed
    if unknown:
        raise ProblemFileError(f"unknown keys {sorted(unknown)} in [{section.name}]")
    for key in allowed:
        if key not in section:
            raise ProblemFileError(f"missing key {key!r} in [{section.name}]")

    op_parts = section["operator"].split(None, 1)
    if op_parts[0] == "flat":
        operator, alpha = "flat", 0.0
        if len(op_parts) > 1:
            raise ProblemFileError("flat operator takes no parameters")
    elif op_parts[0] == "lane_emden":
        operator = "lane_emden"
        if len(op_parts) != 2:
            raise ProblemFileError("lane_emden operator needs alpha=<value>")
        alpha = _parse_kv(op_parts[1], {"alpha"}, "operator").get("alpha")
        if alpha is None:
            raise ProblemFileError("lane_emden operator needs alpha=<value>")
    else:
        raise ProblemFileError(f"unknown operator {op_parts[0]!r}")

    left_parts = section["left"].split(None, 1)
    if left_parts[0] == "neumann0":
        left, left_value = NEUMANN_ZERO, 0.0
        if len(left_parts) > 1:
            raise ProblemFileError("neumann0 takes no parameters")
    elif left_parts[0] == "dirichlet":
        left = DIRICHLET
        if len(left_parts) != 2:
            raise ProblemFileError("dirichlet left condition needs value=<value>")
        left_value = _parse_kv(left_parts[1], {"value"}, "left").get("value")
        if left_value is None:
            raise ProblemFileError("dirichlet left condition needs value=<value>")
    else:
        raise ProblemFileError(f"unknown left condition {left_parts[0]!r}")

    right = _parse_kv(section["right"], {"a", "b", "c"}, "right")
    if set(right) != {"a", "b", "c"}:
        raise ProblemFileError("right condition needs a=, b= and c=")

    try:
        return ComponentSpec.make(
            operator, alpha=alpha, left=left, left_value=left_value,
            a=right["a"], b=right["b"], c=right["c"], rhs=section["rhs"],
        )
    except (ExpressionError, UsageError) as exc:
        raise ProblemFileError(f"[{section.name}]: {exc}") from exc


def parse_problem_file(path) -> tuple[ProblemSpec, dict]:
    """Read a problem file; returns the spec and the [run] defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ProblemFileError(f"bad problem file {path}: {exc}") from exc

    known = {"component.1", "component.2", "run"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ProblemFileError(f"unknown sections {sorted(unknown)}")
    for name in ("component.1", "component.2"):
        if name not in parser:
            raise ProblemFileError(f"missing section [{name}]")

    c1 = _parse_component(parser["component.1"])
    c2 = _parse_component(parser["component.2"])

    run = {"n_terms": 5, "backend": GRID, "grid_size": 64}
    if "run" in parser:
        section = parser["run"]
        unknown = set(section) - {"n_terms", "backend", "grid_size"}
        if unknown:
            raise ProblemFileError(f"unknown keys {sorted(unknown)} in [run]")
        try:
            if "n_terms" in section:
                run["n_terms"] = int(section["n_terms"])
            if "grid_size" in section:
                run["grid_size"] = int(section["grid_size"])
        except ValueError as exc:
            raise ProblemFileError(f"bad [run] value: {exc}") from exc
        if "backend" in section:
            if section["backend"] not in _BACKENDS:
                raise ProblemFileError(f"unknown backend {section['backend']!r}")
            run["backend"] = _BACKENDS[section["backend"]]

    name = Path(path).stem
    return ProblemSpec(c1, c2, name=name), run


def _out_dir() -> Path:
    return Path(os.environ.get("GFADM_OUT_DIR", "."))


def _resolve_out(out, default_name: str) -> Path:
    path = Path(out) if out else _out_dir() / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _parse_abscissae(text) -> list[float]:
    if not text:
        return list(DEFAULT_ABSCISSAE)
    try:
        xs = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"bad abscissae list: {exc}") from None
    if not xs or any(not 0.0 <= x <= 1.0 for x in xs):
        raise UsageError("abscissae must lie in [0, 1]")
    return xs


def _parse_n_list(text, default) -> list[int]:
    if not text:
        return list(default)
    try:
        ns = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"bad n list: {exc}") from None
    if not ns or any(n < 1 for n in ns):
        raise UsageError("n values must be >= 1")
    return ns


def _fmt_sol(v: float) -> str:
    return f"{v:.7f}"


def _fmt_res(v: float) -> str:
    return f"{v:.5E}"


def _fail(exc: GfadmError) -> int:
    click.echo(f"error: {exc}", err=True)
    if isinstance(exc, NoConvergenceError):
        return 3
    if isinstance(exc, (ProblemFileError, ExpressionError, UsageError,
                        UnsupportedBackendError)):
        return 1
    return 2


@click.group()
def main():
    """Series solver for coupled singular boundary value problems."""


@main.command("solve")
@click.argument("file", type=click.Path())
@click.option("--n", "n_terms", type=int, default=None, help="number of series terms")
@click.option("--backend", type=click.Choice(["grid", "poly"]), default=None)
@click.option("--grid-size", type=int, default=None)
@click.option("--out", type=click.Path(), default=None, help="output CSV path")
@click.option("--abscissae", default=None, help="comma-separated x values")
def cmd_solve(file, n_terms, backend, grid_size, out, abscissae):
    """Write a CSV of (x, psi1, psi2) at the requested abscissae."""
    try:
        problem, run = parse_problem_file(file)
        n = n_terms if n_terms is not None else run["n_terms"]
        bk = _BACKENDS[backend] if backend else run["backend"]
        gs = grid_size if grid_size is not None else run["grid_size"]
        xs = _parse_abscissae(abscissae)
        sol = gfadm_solve(problem, n, backend=bk, grid_size=gs)
        path = _resolve_out(out, f"{problem.name}_solution.csv")
        lines = ["x,psi1,psi2"]
        for x in xs:
            p1, p2 = evaluate_partial_sum(sol, n, x)
            lines.append(f"{_fmt_sol(x)},{_fmt_sol(p1)},{_fmt_sol(p2)}")
        path.write_text("\n".join(lines) + "\n")
        click.echo(f"wrote {path}")
        if bk == EXACT:
            payload = {
                "n": n,
                "psi1": sol.psi(1, n).coeffs.tolist(),
                "psi2": sol.psi(2, n).coeffs.tolist(),
                "terms1": [t.coeffs.tolist() for t in sol.terms1],
                "terms2": [t.coeffs.tolist() for t in sol.terms2],
            }
            jpath = path.with_suffix(".coeffs.json")
            jpath.write_text(json.dumps(payload, indent=2) + "\n")
            click.echo(f"wrote {jpath}")
    except GfadmError as exc:
        sys.exit(_fail(exc))


@main.command("residual")
@click.argument("file", type=click.Path())
@click.option("--n-list", default=None, help="comma-separated truncation orders")
@click.option("--backend", type=click.Choice(["grid", "poly"]), default=None)
@click.option("--grid-size", type=int, default=None)
@click.option("--method", type=click.Choice([analysis.ADOMIAN_IDENTITY,
                                             analysis.SPECTRAL]),
              default=analysis.ADOMIAN_IDENTITY)
@click.option("--weighted", is_flag=True,
              help="report the self-adjoint-form maxima (x^alpha weighting)")
@click.option("--out", type=click.Path(), default=None, help="output base path")
@click.option("--abscissae", default=None)
def cmd_residual(file, n_list, backend, grid_size, method, weighted, out, abscissae):
    """Write per-point and per-order maximum residual CSV reports."""
    try:
        problem, run = parse_problem_file(file)
        ns = sorted(_parse_n_list(n_list, [run["n_terms"]]))
        bk = _BACKENDS[backend] if backend else run["backend"]
        gs = grid_size if grid_size is not None else run["grid_size"]
        xs = _parse_abscissae(abscissae)
        sol = gfadm_solve(problem, max(ns), backend=bk, grid_size=gs)

        base = _resolve_out(out, f"{problem.name}_residual")
        point_lines = ["n,x,r1,r2"]
        summary_lines = ["n,maxr1,maxr2"]
        for n in ns:
            rep = analysis.residual(problem, sol, n, xs, method=method)
            for (x, r1), (_, r2) in zip(rep.points1, rep.points2):
                point_lines.append(
                    f"{n},{_fmt_sol(x)},{_fmt_res(r1)},{_fmt_res(r2)}"
                )
            m1, m2 = analysis.max_residual(problem, sol, n, method=method,
                                           weighted=weighted)
            summary_lines.append(f"{n},{_fmt_res(m1)},{_fmt_res(m2)}")
        points_path = base.parent / (base.name + "_points.csv")
        summary_path = base.parent / (base.name + "_summary.csv")
        points_path.write_text("\n".join(point_lines) + "\n")
        summary_path.write_text("\n".join(summary_lines) + "\n")
        click.echo(f"wrote {points_path}")
        click.echo(f"wrote {summary_path}")
    except GfadmError as exc:
        sys.exit(_fail(exc))


@main.command("bound")
@click.argument("file", type=click.Path())
@click.option("--n-list", default=None, help="comma-separated truncation orders")
@click.option("--backend", type=click.Choice(["grid", "poly"]), default=None)
@click.option("--grid-size", type=int, default=None)
def cmd_bound(file, n_list, backend, grid_size):
    """Print the kernel bound, Lipschitz constants and truncation bounds."""
    try:
        problem, run = parse_problem_file(file)
        ns = sorted(_parse_n_list(n_list, [run["n_terms"]]))
        bk = _BACKENDS[backend] if backend else run["backend"]
        gs = grid_size if grid_size is not None else run["grid_size"]
        sol = gfadm_solve(problem, max(ns), backend=bk, grid_size=gs)
        est = analysis.convergence_estimate(problem, sol, ns)
        click.echo(f"m      = {est.m:.6f}")
        click.echo(f"l1     = {est.l1:.6f}")
        click.echo(f"l2     = {est.l2:.6f}")
        click.echo(f"gamma  = {est.gamma:.6f}")
        if est.gamma >= 1.0:
            click.echo("warning: gamma >= 1, the truncation bound does not apply",
                       err=True)
        else:
            for n in ns:
                click.echo(f"bound[n={n}] = {_fmt_res(est.bounds[n])}")
    except GfadmError as exc:
        sys.exit(_fail(exc))


@main.command("compare")
@click.argument("file", type=click.Path())
@click.option("--n", "n_terms", type=int, default=None)
@click.option("--backend", type=click.Choice(["grid", "poly"]), default=None)
@click.option("--grid-size", type=int, default=None)
@click.option("--fd-points", "M", type=int, default=512,
              help="oracle grid intervals")
@click.option("--abscissae", default=None)
def cmd_compare(file, n_terms, backend, grid_size, M, abscissae):
    """Print the deviation between the series solution and the oracle."""
    try:
        problem, run = parse_problem_file(file)
        n = n_terms if n_terms is not None else run["n_terms"]
        bk = _BACKENDS[backend] if backend else run["backend"]
        gs = grid_size if grid_size is not None else run["grid_size"]
        xs = _parse_abscissae(abscissae)

        t0 = time.perf_counter()
        sol = gfadm_solve(problem, n, backend=bk, grid_size=gs)
        t_series = time.perf_counter() - t0
        t0 = time.perf_counter()
        ora = oracle.fd_solve(problem, M=M)
        t_oracle = time.perf_counter() - t0

        from scipy.interpolate import interp1d

        dev = 0.0
        for i in (1, 2):
            interp = interp1d(ora.nodes, ora.values(i), kind="cubic")
            for x in xs:
                dev = max(dev, abs(sol.partial_sum(i, n, x) - float(interp(x))))
        click.echo(f"max deviation = {_fmt_res(dev)}")
        click.echo(f"series solve  = {t_series:.3f} s")
        click.echo(f"oracle solve  = {t_oracle:.3f} s ({ora.iterations} Newton steps)")
    except GfadmError as exc:
        sys.exit(_fail(exc))


if __name__ == "__main__":
    main()
