"""Command-line front end.

Subcommands: ``solve`` (series solution tables), ``residual`` (pointwise
and maximum residual reports), ``bound`` (contraction factor and
truncation bounds), ``compare`` (cross-check against the finite-difference
oracle).  Each reads an INI-style problem file (see ``gfadm/problems``);
the order (``--n`` or ``--n-list``), ``--backend`` and ``--grid-size``
come from the flag, else the file's ``[run]`` section, else the defaults
n_terms 5, backend grid, grid_size 64.

Exit codes: 0 success, 1 input error (click's usage errors included),
2 numeric error, 3 oracle error.  Without ``--out``, output files go to
``GFADM_OUT_DIR`` (or the working directory).  Values print with fixed
digits (7 decimals, residuals to 6 significant), so files are bit-stable.
"""

from __future__ import annotations

import configparser
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

import click

from . import analysis, oracle
from .errors import ExpressionError, GfadmError, NoConvergenceError, ProblemFileError, \
    UnsupportedBackendError, UsageError
from .solver import DIRICHLET, EXACT, GRID, NEUMANN_ZERO, ComponentSpec, ProblemSpec, \
    SolutionSeries, evaluate_partial_sum, gfadm_solve

_BACKENDS = {"grid": GRID, "poly": EXACT}
DEFAULT_ABSCISSAE = [round(0.1 * i, 1) for i in range(1, 10)]
_fmt_sol, _fmt_res = "{:.7f}".format, "{:.5E}".format  # solutions, residuals
# operator and left lines: line -> (its name in messages, {word: the key
# its parameters must give, or None when it takes none})
_WORDS = {
    "operator": ("operator", {"flat": None, "lane_emden": "alpha"}),
    "left": ("left condition", {NEUMANN_ZERO: None, DIRICHLET: "value"}),
}
# list options: name -> (converter, test of one value, message when one fails)
_LISTS = {
    "n": (int, lambda n: n >= 1, "n values must be >= 1"),
    "abscissae": (float, lambda x: 0.0 <= x <= 1.0, "abscissae must lie in [0, 1]"),
}


def _backend(word: str) -> str:
    if word not in _BACKENDS:
        raise ProblemFileError(f"unknown backend {word!r}")
    return _BACKENDS[word]


# [run] key -> converter; int raises ValueError on a bad value
_RUN = {"n_terms": int, "backend": _backend, "grid_size": int}


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


def _parse_word(section, line: str) -> tuple[str, float]:
    """The word of an operator or left line and its parameter (0 if none)."""
    label, table = _WORDS[line]
    word, *rest = section[line].split(None, 1) or [""]  # an empty line: word ''
    if word not in table:
        raise ProblemFileError(f"unknown {label} {word!r}")
    key = table[word]
    if key is None:
        if rest:
            raise ProblemFileError(f"{word} {label} takes no parameters")
        return word, 0.0
    value = _parse_kv(rest[0], {key}, line).get(key) if rest else None
    if value is None:
        raise ProblemFileError(f"{word} {label} needs {key}=<value>")
    return word, value


def _parse_component(section) -> ComponentSpec:
    allowed = {"operator", "left", "right", "rhs"}
    unknown = set(section) - allowed
    if unknown:
        raise ProblemFileError(f"unknown keys {sorted(unknown)} in [{section.name}]")
    for key in allowed:
        if key not in section:
            raise ProblemFileError(f"missing key {key!r} in [{section.name}]")

    operator, alpha = _parse_word(section, "operator")
    left, left_value = _parse_word(section, "left")
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

    unknown = set(parser.sections()) - {"component.1", "component.2", "run"}
    if unknown:
        raise ProblemFileError(f"unknown sections {sorted(unknown)}")
    for name in ("component.1", "component.2"):
        if name not in parser:
            raise ProblemFileError(f"missing section [{name}]")

    c1 = _parse_component(parser["component.1"])
    c2 = _parse_component(parser["component.2"])

    run = {"n_terms": 5, "backend": GRID, "grid_size": 64}
    section = parser["run"] if "run" in parser else {}
    unknown = set(section) - set(_RUN)
    if unknown:
        raise ProblemFileError(f"unknown keys {sorted(unknown)} in [run]")
    try:
        run.update((key, _RUN[key](text)) for key, text in section.items())
    except ValueError as exc:
        raise ProblemFileError(f"bad [run] value: {exc}") from exc

    return ProblemSpec(c1, c2, name=Path(path).stem), run


def _parse_list(text: str, name: str) -> list:
    convert, valid, rule = _LISTS[name]
    try:
        values = [convert(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"bad {name} list: {exc}") from None
    if not values or not all(map(valid, values)):
        raise UsageError(rule)
    return values


def _resolve_out(out, default_name: str) -> Path:
    path = Path(out) if out else Path(os.environ.get("GFADM_OUT_DIR", ".")) / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


class _Group(click.Group):
    def parse_args(self, ctx, args):
        """Parse the group's own arguments; their usage errors exit 1 too."""
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise

    def invoke(self, ctx):
        """Run a subcommand; every failure exits 1 (input), 2 or 3 (oracle)."""
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = 1  # click's own 2 is the code of numeric errors
            raise
        except GfadmError as exc:
            click.echo(f"error: {exc}", err=True)
            inputs = (UsageError, ExpressionError, UnsupportedBackendError)
            sys.exit(3 if isinstance(exc, NoConvergenceError)
                     else 1 if isinstance(exc, inputs) else 2)


@click.group(cls=_Group)
def main():
    """Series solver for coupled singular boundary value problems."""


class _Solved(NamedTuple):
    """A problem file solved at the orders its subcommand asked for."""

    problem: ProblemSpec
    sol: SolutionSeries
    backend: str
    ns: list  # truncation orders, ascending; the series has the last
    xs: list  # abscissae
    seconds: float  # wall time of the series solve


def _command(name: str, n_list: bool = False, n_help: str | None = None):
    """Register subcommand ``name``; it is called with a :class:`_Solved`.

    Adds FILE, ``--n`` (``--n-list`` when ``n_list``), ``--backend`` and
    ``--grid-size`` ahead of its own options; validates ``--abscissae``.
    """
    order = (click.option("--n-list", default=None,
                          help="comma-separated truncation orders") if n_list
             else click.option("--n", "n_terms", type=int, default=None, help=n_help))

    def decorate(fn):
        @functools.wraps(fn)  # keeps fn's docstring (the help) and its options
        def solved(file, backend, grid_size, n_terms=None, n_list=None,
                   abscissae=None, **opts):
            problem, run = parse_problem_file(file)
            flags = {"n_terms": n_terms, "backend": _BACKENDS.get(backend),
                     "grid_size": grid_size}
            run.update((key, v) for key, v in flags.items() if v is not None)
            ns = sorted(set(_parse_list(n_list, "n"))) if n_list else [run["n_terms"]]
            xs = _parse_list(abscissae, "abscissae") if abscissae else DEFAULT_ABSCISSAE
            t0 = time.perf_counter()
            sol = gfadm_solve(problem, ns[-1], backend=run["backend"],
                              grid_size=run["grid_size"])
            fn(_Solved(problem, sol, run["backend"], ns, xs,
                       time.perf_counter() - t0), **opts)

        for option in (click.option("--grid-size", type=int, default=None),
                       click.option("--backend", type=click.Choice(list(_BACKENDS)),
                                    default=None),
                       order, click.argument("file", type=click.Path())):
            solved = option(solved)
        return main.command(name)(solved)

    return decorate


@_command("solve", n_help="number of series terms")
@click.option("--out", type=click.Path(), default=None, help="output CSV path")
@click.option("--abscissae", default=None, help="comma-separated x values")
def cmd_solve(s: _Solved, out):
    """Write a CSV of (x, psi1, psi2) at the requested abscissae."""
    n = s.ns[-1]
    path = _resolve_out(out, f"{s.problem.name}_solution.csv")
    lines = ["x,psi1,psi2"]
    for x in s.xs:
        p1, p2 = evaluate_partial_sum(s.sol, n, x)
        lines.append(f"{_fmt_sol(x)},{_fmt_sol(p1)},{_fmt_sol(p2)}")
    path.write_text("\n".join(lines) + "\n")
    click.echo(f"wrote {path}")
    if s.backend == EXACT:
        payload = {
            "n": n,
            "psi1": s.sol.psi(1, n).coeffs.tolist(),
            "psi2": s.sol.psi(2, n).coeffs.tolist(),
            "terms1": [t.coeffs.tolist() for t in s.sol.terms1],
            "terms2": [t.coeffs.tolist() for t in s.sol.terms2],
        }
        jpath = path.with_suffix(".coeffs.json")
        jpath.write_text(json.dumps(payload, indent=2) + "\n")
        click.echo(f"wrote {jpath}")


@_command("residual", n_list=True)
@click.option("--method", type=click.Choice([analysis.ADOMIAN_IDENTITY,
                                             analysis.SPECTRAL]),
              default=analysis.ADOMIAN_IDENTITY)
@click.option("--weighted", is_flag=True,
              help="report the self-adjoint-form maxima (x^alpha weighting)")
@click.option("--out", type=click.Path(), default=None, help="output base path")
@click.option("--abscissae", default=None)
def cmd_residual(s: _Solved, method, weighted, out):
    """Write per-point and per-order maximum residual CSV reports."""
    base = _resolve_out(out, f"{s.problem.name}_residual")
    point_lines = ["n,x,r1,r2"]
    summary_lines = ["n,maxr1,maxr2"]
    for n in s.ns:
        rep = analysis.residual(s.problem, s.sol, n, s.xs, method=method)
        for (x, r1), (_, r2) in zip(rep.points1, rep.points2):
            point_lines.append(f"{n},{_fmt_sol(x)},{_fmt_res(r1)},{_fmt_res(r2)}")
        m1, m2 = analysis.max_residual(s.problem, s.sol, n, method=method,
                                       weighted=weighted)
        summary_lines.append(f"{n},{_fmt_res(m1)},{_fmt_res(m2)}")
    for kind, lines in (("points", point_lines), ("summary", summary_lines)):
        path = base.parent / f"{base.name}_{kind}.csv"
        path.write_text("\n".join(lines) + "\n")
        click.echo(f"wrote {path}")


@_command("bound", n_list=True)
def cmd_bound(s: _Solved):
    """Print the kernel bound, Lipschitz constants and truncation bounds."""
    est = analysis.convergence_estimate(s.problem, s.sol, s.ns)
    for key in ("m", "l1", "l2", "gamma"):
        click.echo(f"{key:6} = {getattr(est, key):.6f}")
    if est.gamma >= 1.0:
        click.echo("warning: gamma >= 1, the truncation bound does not apply",
                   err=True)
    else:
        for n in s.ns:
            click.echo(f"bound[n={n}] = {_fmt_res(est.bounds[n])}")


@_command("compare")
@click.option("--fd-points", "M", type=int, default=512,
              help="oracle grid intervals")
@click.option("--abscissae", default=None)
def cmd_compare(s: _Solved, M):
    """Print the deviation between the series solution and the oracle."""
    t0 = time.perf_counter()
    ora = oracle.fd_solve(s.problem, M=M)
    t_oracle = time.perf_counter() - t0

    dev = max(abs(s.sol.partial_sum(i, s.ns[-1], x) - v)
              for i in (1, 2) for x, v in zip(s.xs, ora.interpolate(i, s.xs)))
    click.echo(f"max deviation = {_fmt_res(dev)}")
    click.echo(f"series solve  = {s.seconds:.3f} s")
    click.echo(f"oracle solve  = {t_oracle:.3f} s ({ora.iterations} Newton steps)")


if __name__ == "__main__":
    main()
