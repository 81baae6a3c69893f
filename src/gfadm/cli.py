"""Command-line front end.

Subcommands: ``solve`` (series solution tables), ``residual`` (pointwise
and maximum residual reports), ``bound`` (contraction factor and
truncation bounds), ``compare`` (cross-check against the finite-difference
oracle).  One ``argparse`` parser reads the command line, with a subparser
per command built from the table :data:`_COMMANDS`.  Each command reads an
INI-style problem file (see ``gfadm/problems``) with
:func:`parse_problem_file`, in one pass and without configparser: the
grammar is configparser's with ``#`` inline comments, less ``%``
interpolation and the DEFAULT section (see :func:`_read_sections`).  The
order (``--n`` or ``--n-list``), ``--backend`` and ``--grid-size`` come
from the flag, else the file's ``[run]`` section, else the defaults
n_terms 5, backend grid, grid_size 64.

Warnings raised during the solve (a series that may diverge) print as
one ``warning: <message>`` line each on stderr.

Every error prints one ``error: <message>`` line on stderr; a usage error
(a bad or unknown option, no FILE, no command) prints the usage line
before it.  An error in a component's operator, left or right line names
the file and the line.  Exit codes: 0 success, 1 input error (usage
errors, an empty ``--n-list`` or ``--abscissae``, output paths that cannot
be written, a grid size above its limit and an ``--fd-points`` outside the
oracle's range included, the last checked before the series is solved), 2
numeric error, 3 a series that diverges or an oracle that does not
converge.  Without ``--out``, output files go to ``GFADM_OUT_DIR`` (or the
working directory).  Values print with fixed digits (7 decimals,
residuals to 6 significant), so files are bit-stable.

Each command imports only the modules it runs, so a fresh process loads
and compiles no more: ``analysis`` in ``residual`` and ``bound``,
``oracle`` in ``compare``, ``json`` in ``solve`` on the exact backend.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
import warnings
from pathlib import Path

from .errors import ExpressionError, GfadmError, NoConvergenceError, ProblemFileError, \
    UnsupportedBackendError, UsageError
from .record import Record
from .solver import ADOMIAN_IDENTITY, DIRICHLET, EXACT, GRID, NEUMANN_ZERO, SPECTRAL, \
    ComponentSpec, ProblemSpec, SolutionSeries, evaluate_partial_sum, gfadm_solve

_BACKENDS = {"grid": GRID, "poly": EXACT}
DEFAULT_ABSCISSAE = [round(0.1 * i, 1) for i in range(1, 10)]
_fmt_sol, _fmt_res = "{:.7f}".format, "{:.5E}".format  # solutions, residuals
# a component's operator, left and right lines: line -> (its name in
# messages, {its first word: the keys its parameters must give}); a right
# line has no word, only parameters
_LINES = {
    "operator": ("operator", {"flat": (), "lane_emden": ("alpha",)}),
    "left": ("left condition", {NEUMANN_ZERO: (), DIRICHLET: ("value",)}),
    "right": ("right condition", {"": ("a", "b", "c")}),
}
# list options: name -> (converter, test of one value, message when one fails)
_LISTS = {
    "n": (int, lambda n: n >= 1, "n values must be >= 1"),
    # x + 0.0 reads -0.0 as 0.0, which prints without its sign
    "abscissae": (lambda text: float(text) + 0.0, lambda x: 0.0 <= x <= 1.0,
                  "abscissae must lie in [0, 1]"),
}


def _backend(word: str) -> str:
    if word not in _BACKENDS:
        raise ProblemFileError(f"unknown backend {word!r}")
    return _BACKENDS[word]


# [run] key -> converter; int raises ValueError on a bad value
_RUN = {"n_terms": int, "backend": _backend, "grid_size": int}
_KEYS = ("operator", "left", "right", "rhs")  # a component's keys, all required


def _parse_line(line: str, text: str) -> tuple[str, dict]:
    """The word of an operator, left or right line and its ``key=number`` parameters."""
    label, words = _LINES[line]
    parts = text.split()
    word = "" if "" in words or not parts else parts.pop(0)
    if word not in words:
        raise ProblemFileError(f"unknown {label} {word!r}")
    keys, name = words[word], f"{word} {label}".lstrip()
    if parts and not keys:
        raise ProblemFileError(f"{name} takes no parameters")
    params = {}
    for part in parts:
        key, sep, value = part.partition("=")
        if not sep:
            raise ProblemFileError(f"expected key=value in {line}: {part!r}")
        if key not in keys:
            raise ProblemFileError(f"unknown key {key!r} in {line}")
        if key in params:
            raise ProblemFileError(f"repeated key {key!r} in {line}")
        try:
            params[key] = float(value)
        except ValueError:
            raise ProblemFileError(f"bad number {value!r} in {line}") from None
    for key in keys:
        if key not in params:
            raise ProblemFileError(f"{name} needs {key}=<value>")
    return word, params


def _parse_component(name: str, section: dict, path, numbers: dict) -> ComponentSpec:
    """The component of section ``[name]`` of ``path``, whose key lines have
    the numbers ``numbers[name, key]``."""
    unknown = set(section) - set(_KEYS)
    if unknown:
        raise ProblemFileError(f"unknown keys {sorted(unknown)} in [{name}]")
    for key in _KEYS:
        if key not in section:
            raise ProblemFileError(f"missing key {key!r} in [{name}]")
    parsed = []
    for line in _LINES:
        try:
            parsed.append(_parse_line(line, section[line]))
        except ProblemFileError as exc:
            raise _line_error(path, numbers[name, line], str(exc)) from None
    (operator, shape), (left, value), (_, right) = parsed
    try:
        return ComponentSpec.make(
            operator, left=left, left_value=value.get("value", 0.0), **shape, **right,
            rhs=section["rhs"],
        )
    except (ExpressionError, UsageError) as exc:
        raise ProblemFileError(f"[{name}]: {exc}") from exc


def _read_sections(path, numbers=None) -> dict:
    """The file's sections as ``{name: {key: value}}``, read in one pass.

    The grammar is that of ``configparser.ConfigParser(
    inline_comment_prefixes=("#",))`` without interpolation or a DEFAULT
    section; a line before the first section, a header with no name or no
    ']', a line with no key or delimiter and a repeated section or key are
    errors that name their line.  ``numbers``, when given, gets the number
    of each key's first line by ``(section, key)``.
    """
    numbers = {} if numbers is None else numbers
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    sections, section, key, indent = {}, None, None, 0
    for number, line in enumerate(text.split("\n"), 1):
        cut = line.find("#")  # an inline comment: a '#' after whitespace
        while cut > 0 and not line[cut - 1].isspace():
            cut = line.find("#", cut + 1)
        value = line[:cut].strip() if cut >= 0 else line.strip()
        if not value or value[0] == ";":  # blank, or a whole-line comment
            if key and not value and cut < 0:
                section[key].append("")  # a blank line inside a value
            continue
        level = len(line) - len(line.lstrip())
        if key and level > indent:  # a continuation line
            section[key].append(value)
            continue
        indent = level
        if value[0] == "[":
            close = value.rfind("]")  # the header ends at the last ']'
            if close < 2:
                raise _line_error(path, number, f"expected [section], got {value!r}")
            name, key = value[1:close], None
            if name in sections:
                raise _line_error(path, number, f"repeated section [{name}]")
            section = sections[name] = {}
            continue
        if section is None:
            raise _line_error(path, number, f"{value!r} comes before the first section")
        key, sep, rest = value.partition("=")
        if not sep or ":" in key:
            key, sep, rest = value.partition(":")
        key = key.rstrip().lower()
        if not (sep and key):
            raise _line_error(path, number, f"expected key = value, got {value!r}")
        if key in section:
            raise _line_error(path, number, f"repeated key {key!r} in [{name}]")
        section[key] = [rest.strip()]
        numbers[name, key] = number
    return {name: {key: "\n".join(lines).rstrip() for key, lines in section.items()}
            for name, section in sections.items()}


def _line_error(path, number: int, message: str) -> ProblemFileError:
    return ProblemFileError(f"bad problem file {path}, line {number}: {message}")


def parse_problem_file(path) -> tuple[ProblemSpec, dict]:
    """Read a problem file; returns the spec and the [run] defaults."""
    numbers = {}
    sections = _read_sections(path, numbers)
    unknown = set(sections) - {"component.1", "component.2", "run"}
    if unknown:
        raise ProblemFileError(f"unknown sections {sorted(unknown)}")
    for name in ("component.1", "component.2"):
        if name not in sections:
            raise ProblemFileError(f"missing section [{name}]")

    c1 = _parse_component("component.1", sections["component.1"], path, numbers)
    c2 = _parse_component("component.2", sections["component.2"], path, numbers)

    run = {"n_terms": 5, "backend": GRID, "grid_size": 64}
    section = sections.get("run", {})
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
    if not values:
        raise UsageError(f"the {name} list is empty")
    if not all(map(valid, values)):
        raise UsageError(rule)
    return values


def _resolve_out(out, default_name: str) -> Path:
    path = Path(out) if out else Path(os.environ.get("GFADM_OUT_DIR", ".")) / default_name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None
    return path


def _solution_paths(name: str, out, backend: str) -> list:
    """``solve``'s CSV and, on the exact backend, its ``.coeffs.json``."""
    path = _resolve_out(out, f"{name}_solution.csv")
    return [path, path.with_suffix(".coeffs.json")] if backend == EXACT else [path]


def _residual_paths(name: str, out, backend: str) -> list:
    """``residual``'s pointwise and summary CSVs."""
    base = _resolve_out(out, f"{name}_residual")
    return [base.parent / f"{base.name}_{kind}.csv" for kind in ("points", "summary")]


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None
    print(f"wrote {path}", flush=True)


class _Solved(Record):
    """A problem file solved at the orders its command asked for.

    ``ns`` are the truncation orders, ascending, the series having the
    last; ``xs`` the abscissae; ``seconds`` the series solve's wall time;
    ``paths`` the files the command writes, checked before the solve.
    """

    def __init__(self, problem: ProblemSpec, sol: SolutionSeries, backend: str,
                 ns: list, xs: list, seconds: float, paths: list):
        self._set(problem, sol, backend, ns, xs, seconds, paths)


def _execute(command, file, backend, grid_size, n=None, n_list=None, abscissae=None, **opts):
    """Run ``command`` on FILE solved at the orders it asked for.

    The order, backend and grid size come from the flags, else from FILE's
    [run] section.  The files the command writes (its ``outputs`` in
    :data:`_COMMANDS`) have their directories made, and a directory where a
    file goes is an error, before the solve; so is a bad ``--fd-points``.
    """
    fn, outputs, _ = _COMMANDS[command]
    problem, run = parse_problem_file(file)
    flags = {"n_terms": n, "backend": _BACKENDS.get(backend), "grid_size": grid_size}
    run.update((key, v) for key, v in flags.items() if v is not None)
    ns = sorted(set(_parse_list(n_list, "n"))) if n_list is not None else [run["n_terms"]]
    xs = _parse_list(abscissae, "abscissae") if abscissae is not None else DEFAULT_ABSCISSAE
    paths = outputs(problem.name, opts.pop("out"), run["backend"]) if outputs else []
    for path in paths:
        if path.is_dir():  # the message that writing to it gives
            exc = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            raise UsageError(f"cannot write {path}: {exc}")
    if "fd_points" in opts:  # compare's oracle grid, before the series is solved
        from .oracle import _check_points

        _check_points(opts["fd_points"])
    with warnings.catch_warnings(record=True) as caught:
        t0 = time.perf_counter()
        sol = gfadm_solve(problem, ns[-1], backend=run["backend"],
                          grid_size=run["grid_size"])
        seconds = time.perf_counter() - t0
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    fn(_Solved(problem, sol, run["backend"], ns, xs, seconds, paths), **opts)


def cmd_solve(s: _Solved):
    """Write a CSV of (x, psi1, psi2) at the requested abscissae."""
    n = s.ns[-1]
    lines = ["x,psi1,psi2"]
    for x in s.xs:
        p1, p2 = evaluate_partial_sum(s.sol, n, x)
        lines.append(f"{_fmt_sol(x)},{_fmt_sol(p1)},{_fmt_sol(p2)}")
    texts = ["\n".join(lines) + "\n"]
    if s.backend == EXACT:
        import json

        payload = {
            "n": n,
            "psi1": s.sol.psi(1, n).coeffs.tolist(),
            "psi2": s.sol.psi(2, n).coeffs.tolist(),
            "terms1": [t.coeffs.tolist() for t in s.sol.terms1],
            "terms2": [t.coeffs.tolist() for t in s.sol.terms2],
        }
        texts.append(json.dumps(payload, indent=2) + "\n")
    for path, text in zip(s.paths, texts):
        _write(path, text)


def cmd_residual(s: _Solved, method, weighted):
    """Write per-point and per-order maximum residual CSV reports."""
    from . import analysis

    point_lines = ["n,x,r1,r2"]
    summary_lines = ["n,maxr1,maxr2"]
    for n in s.ns:
        rep = analysis.residual(s.problem, s.sol, n, s.xs, method=method)
        for (x, r1), (_, r2) in zip(rep.points1, rep.points2):
            point_lines.append(f"{n},{_fmt_sol(x)},{_fmt_res(r1)},{_fmt_res(r2)}")
        m1, m2 = analysis.max_residual(s.problem, s.sol, n, method=method,
                                       weighted=weighted)
        summary_lines.append(f"{n},{_fmt_res(m1)},{_fmt_res(m2)}")
    for path, lines in zip(s.paths, (point_lines, summary_lines)):
        _write(path, "\n".join(lines) + "\n")


def cmd_bound(s: _Solved):
    """Print the kernel bound, Lipschitz constants and truncation bounds."""
    from . import analysis

    est = analysis.convergence_estimate(s.problem, s.sol, s.ns)
    for key in ("m", "l1", "l2", "gamma"):
        print(f"{key:6} = {getattr(est, key):.6f}", flush=True)
    if est.gamma >= 1.0:
        print("warning: gamma >= 1, the truncation bound does not apply", file=sys.stderr)
    else:
        for n in s.ns:
            print(f"bound[n={n}] = {_fmt_res(est.bounds[n])}", flush=True)


def cmd_compare(s: _Solved, fd_points):
    """Print the deviation between the series solution and the oracle."""
    from . import oracle

    t0 = time.perf_counter()
    ora = oracle.fd_solve(s.problem, M=fd_points)
    t_oracle = time.perf_counter() - t0

    dev = max(abs(s.sol.partial_sum(i, s.ns[-1], x) - v)
              for i in (1, 2) for x, v in zip(s.xs, ora.interpolate(i, s.xs)))
    print(f"max deviation = {_fmt_res(dev)}", flush=True)
    print(f"series solve  = {s.seconds:.3f} s", flush=True)
    print(f"oracle solve  = {t_oracle:.3f} s ({ora.iterations} Newton steps)", flush=True)


_ABSCISSAE = ("--abscissae", {})
_N_LIST = ("--n-list", {"help": "comma-separated truncation orders"})
# command -> (its function, the files it writes, its options besides FILE,
# --help and _SHARED)
_COMMANDS = {
    "solve": (cmd_solve, _solution_paths, [
        ("--n", {"type": int, "help": "number of series terms"}),
        ("--out", {"help": "output CSV path"}),
        ("--abscissae", {"help": "comma-separated x values"})]),
    "residual": (cmd_residual, _residual_paths, [
        _N_LIST,
        ("--method", {"choices": [ADOMIAN_IDENTITY, SPECTRAL], "default": ADOMIAN_IDENTITY}),
        ("--weighted", {"action": "store_true",
                        "help": "report the self-adjoint-form maxima (x^alpha weighting)"}),
        ("--out", {"help": "output base path"}), _ABSCISSAE]),
    "bound": (cmd_bound, None, [_N_LIST]),
    "compare": (cmd_compare, None, [
        ("--n", {"type": int}),
        ("--fd-points", {"type": int, "default": 512, "help": "oracle grid intervals"}),
        _ABSCISSAE]),
}
_SHARED = [("--backend", {"choices": list(_BACKENDS)}), ("--grid-size", {"type": int})]
_HELP = {"action": "help", "help": "Show this message and exit."}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error: the usage line, then one ``error:`` line; exit 1."""
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _parse(args, prog: str) -> dict:
    """The command and its options, from one parser with a subparser per command."""
    parser = _Parser(prog=prog, description=main.__doc__.split("\n")[0], add_help=False,
                     allow_abbrev=False)
    parser.add_argument("--help", **_HELP)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (fn, _, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__,
                                  add_help=False, allow_abbrev=False)
        sub.add_argument("file", metavar="FILE")
        sub.add_argument("--help", **_HELP)
        for flag, kwargs in options + _SHARED:
            sub.add_argument(flag, **kwargs)
    opts, extra = parser.parse_known_args(args)
    if extra:  # reported by the command's parser, with its usage
        commands.choices[opts.command].error(f"unrecognized arguments: {' '.join(extra)}")
    return vars(opts)


def main(args=None, prog_name=None):
    """Series solver for coupled singular boundary value problems.

    Runs the command in ``args`` (``sys.argv[1:]`` when None) and raises
    SystemExit with its exit code: 0, or 1 (input), 2 (numeric) or 3
    (divergence, oracle) after an ``error:`` line.
    """
    try:
        _execute(**_parse(args, prog_name or "gfadm"))
    except GfadmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        inputs = (UsageError, ExpressionError, UnsupportedBackendError)
        raise SystemExit(3 if isinstance(exc, NoConvergenceError)
                         else 1 if isinstance(exc, inputs) else 2) from None
    raise SystemExit(0)


if __name__ == "__main__":
    main()
