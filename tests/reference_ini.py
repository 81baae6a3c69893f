"""Problem files read as ``configparser`` reads them.

``gfadm.cli`` reads a problem file in one pass (``_read_sections``) and
checks its sections as plain dicts.  This module keeps the reading it
replaced, ``configparser.ConfigParser(inline_comment_prefixes=("#",))``
with the checks made through its section proxies: the slow path the tests
require the reader to match on every file both accept.
"""

import configparser
from pathlib import Path

from gfadm.cli import _RUN, _parse_kv, _parse_word
from gfadm.errors import ExpressionError, ProblemFileError, UsageError
from gfadm.solver import GRID, ComponentSpec, ProblemSpec


def _parser(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        parser.read_file(fh)
    return parser


def read_sections(path) -> dict:
    """``{section: {key: value}}``, each value read through its proxy."""
    parser = _parser(path)
    return {name: dict(parser[name]) for name in parser.sections()}


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
    """The spec and the [run] defaults, as ``cli.parse_problem_file`` returns them."""
    try:
        parser = _parser(path)
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
