"""The one-pass problem-file reader against the configparser reading it replaced.

Every file both accept reads to the same sections, keys and values
(``reference_ini.read_sections``) and parses to an equal spec and [run]
dict (``reference_ini.parse_problem_file``): the bundled problems, the
test data, the benchmark's generated problems and drawn files of the
accepted grammar.  The forms the reader rejects are input errors that name
their line.
"""

import importlib.resources
import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ini
from cli_runner import CliRunner
from gfadm import cli
from gfadm.errors import ProblemFileError

PROBLEMS = importlib.resources.files("gfadm") / "problems"
FILES = sorted([Path(str(p)) for p in PROBLEMS.iterdir() if p.name.endswith(".ini")]
               + list((Path(__file__).parent / "data").glob("*.ini")))


def _load_inputs():
    """The benchmark's ``inputs`` module, which imports nothing of gfadm."""
    path = Path(__file__).parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look their module up
    return module


INPUTS = _load_inputs()


def _assert_reads_as_configparser(path):
    assert cli._read_sections(path) == reference_ini.read_sections(path)
    assert cli.parse_problem_file(path) == reference_ini.parse_problem_file(path)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_file_reads_as_configparser_reads_it(path):
    _assert_reads_as_configparser(path)


@pytest.mark.parametrize("name", sorted(INPUTS.CATALOGUE))
def test_generated_problem_reads_as_configparser_reads_it(name, tmp_path):
    problem = INPUTS.make_problem(name, random.Random(7))
    path = tmp_path / f"{name}.ini"
    path.write_text(problem.ini())
    _assert_reads_as_configparser(path)


# the drawn files: sections in any order, keys in any order and case, either
# delimiter with any padding, values split over continuation lines, and
# comment, inline-comment and blank lines wherever the grammar allows them
SPACE = st.sampled_from(["", " ", "  ", "\t"])
INDENT = st.sampled_from([" ", "  ", "\t"])
COMMENT_TEXT = st.text(alphabet="ab #;=:%[]", max_size=6)
INLINE = st.one_of(st.just(""), st.builds("{}#{}".format, INDENT, COMMENT_TEXT))
EXTRA = st.lists(st.one_of(  # comment and blank lines
    st.builds("{}{}{}".format, SPACE, st.sampled_from("#;"), COMMENT_TEXT), SPACE), max_size=2)


@st.composite
def _ini_text(draw, sections):
    """A file of ``sections``, ``[(name, [(key, [value lines])])]``, in a drawn style."""
    pad = draw(st.sampled_from(["", " ", "\t"]))  # every header's and key's indent
    lines = draw(EXTRA)
    for name, keys in sections:
        lines += [f"{pad}[{name}]{draw(INLINE)}", *draw(EXTRA)]
        for key, values in keys:
            key = "".join(c.upper() if draw(st.booleans()) else c.lower() for c in key)
            delimiter = draw(st.sampled_from("=:"))
            lines.append(f"{pad}{key}{draw(SPACE)}{delimiter}{draw(SPACE)}{values[0]}"
                         f"{draw(INLINE)}")
            for value in values[1:]:
                lines += [*draw(EXTRA), f"{pad}{draw(INDENT)}{value}{draw(INLINE)}"]
            lines += draw(EXTRA)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@st.composite
def _split(draw, value):
    """The words of ``value`` as one to four lines."""
    words = value.split()
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(words) - 1)), max_size=3)))
    cuts = [0, *[c for c in cuts if c < len(words)], len(words)]
    return [" ".join(words[a:b]) for a, b in zip(cuts, cuts[1:])]


BUNDLED_SECTIONS = [reference_ini.read_sections(path) for path in FILES]


@st.composite
def _problem_texts(draw):
    sections = draw(st.sampled_from(BUNDLED_SECTIONS))
    chosen = [(name, [(key, draw(_split(sections[name][key])))
                      for key in draw(st.permutations(list(sections[name])))])
              for name in draw(st.permutations(list(sections)))]
    return draw(_ini_text(chosen))


def _write(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "drawn.ini"  # one file, rewritten
    path.write_text(text)
    return path


@settings(max_examples=150, deadline=None)
@given(text=_problem_texts())
def test_drawn_problem_reads_as_configparser_reads_it(text, tmp_path_factory):
    _assert_reads_as_configparser(_write(tmp_path_factory, text))


# any sections and keys: a word never starts a line's value with a comment prefix
WORD = st.builds("{}{}".format, st.sampled_from("abXY1(."),
                 st.text(alphabet="abXY1.=:[];#*()", max_size=5))
VALUE = st.lists(WORD, max_size=3).map(" ".join)
SECTION_NAME = st.text(alphabet="abXY.1_-[] ", min_size=1, max_size=8)
KEY = st.text(alphabet="abXY._1- ", min_size=1, max_size=6).filter(
    lambda key: key.strip() == key)
KEYS = st.lists(KEY, max_size=4, unique_by=str.lower)
VALUES = st.builds(lambda first, rest: [first, *rest], VALUE,
                   st.lists(VALUE.filter(bool), max_size=2))  # a key's value lines


@st.composite
def _any_texts(draw):
    names = draw(st.lists(SECTION_NAME, min_size=1, max_size=3, unique=True))
    sections = [(name, [(key, draw(VALUES)) for key in draw(KEYS)]) for name in names]
    return draw(_ini_text(sections))


@settings(max_examples=300, deadline=None)
@given(text=_any_texts())
def test_drawn_sections_read_as_configparser_reads_them(text, tmp_path_factory):
    path = _write(tmp_path_factory, text)
    assert cli._read_sections(path) == reference_ini.read_sections(path)


ZERO_RHS = """[component.1]
operator = lane_emden alpha=2
left = neumann0
right = a=1 b=0 c=1
rhs = 0
[component.2]
operator = lane_emden alpha=2
left = neumann0
right = a=1 b=0 c=2
rhs = 0
"""


@pytest.mark.parametrize("text, line, message", [
    ("rhs = 0\n" + ZERO_RHS, 1, "'rhs = 0' comes before the first section"),
    ("# a comment\n\nrhs = 0\n" + ZERO_RHS, 3, "'rhs = 0' comes before the first section"),
    (ZERO_RHS + "[run\n", 11, "expected [section], got '[run'"),
    (ZERO_RHS + "[]  # no name\n", 11, "expected [section], got '[]'"),
    (ZERO_RHS + "[run]\nn_terms 4\n", 12, "expected key = value, got 'n_terms 4'"),
    (ZERO_RHS + "[run]\n= 4\n", 12, "expected key = value, got '= 4'"),
    (ZERO_RHS + "[component.1]\n", 11, "repeated section [component.1]"),
    (ZERO_RHS + "RHS: 1\n", 11, "repeated key 'rhs' in [component.2]"),
    (ZERO_RHS.replace("lane_emden alpha=2", "lane_emden alpha=2 alpha=3", 1), 2,
     "repeated key 'alpha' in operator"),
    (ZERO_RHS.replace("c=1", "c=1 c=5", 1), 4, "repeated key 'c' in right"),
    # a repeat on a continuation line names the key's first line
    (ZERO_RHS.replace("a=1 b=0 c=2", "a=1 b=0\n  c=2 c=5", 1), 9,
     "repeated key 'c' in right"),
] + [
    # every other error in an operator, left or right line names it too
    (ZERO_RHS.replace(old, new, 1), line, message)
    for old, new, line, message in [
        ("lane_emden alpha=2", "foo", 2, "unknown operator 'foo'"),
        ("lane_emden alpha=2", "", 2, "unknown operator ''"),
        ("lane_emden alpha=2", "flat alpha=2", 2, "flat operator takes no parameters"),
        ("lane_emden alpha=2", "lane_emden", 2, "lane_emden operator needs alpha=<value>"),
        ("lane_emden alpha=2", "lane_emden alpha", 2,
         "expected key=value in operator: 'alpha'"),
        ("lane_emden alpha=2", "lane_emden beta=2", 2, "unknown key 'beta' in operator"),
        ("lane_emden alpha=2", "lane_emden alpha=two", 2, "bad number 'two' in operator"),
        ("neumann0", "robin", 3, "unknown left condition 'robin'"),
        ("neumann0", "neumann0 value=1", 3,
         "neumann0 left condition takes no parameters"),
        ("neumann0", "dirichlet", 3, "dirichlet left condition needs value=<value>"),
        ("neumann0", "dirichlet value=1 value=2", 3, "repeated key 'value' in left"),
        ("a=1 b=0 c=1", "", 4, "right condition needs a=<value>"),
        ("a=1 b=0 c=1", "a=1 b=0", 4, "right condition needs c=<value>"),
        ("a=1 b=0 c=1", "b=0 c=1", 4, "right condition needs a=<value>"),
        ("a=1 b=0 c=1", "a=1 b=0 c=1 d=2", 4, "unknown key 'd' in right"),
        ("a=1 b=0 c=1", "a=1 b=0 c=x", 4, "bad number 'x' in right"),
        ("a=1 b=0 c=1", "a=1 b=0 c", 4, "expected key=value in right: 'c'"),
    ]
])
def test_rejected_forms_name_their_line(text, line, message, tmp_path):
    path = tmp_path / "problem.ini"
    path.write_text(text)
    with pytest.raises(ProblemFileError) as exc:
        cli.parse_problem_file(path)
    error = f"bad problem file {path}, line {line}: {message}"
    assert str(exc.value) == error
    res = CliRunner().invoke(cli.main, ["solve", str(path), "--out", str(tmp_path / "s.csv")])
    assert res.exit_code == 1
    assert res.output == f"error: {error}\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("text, error", [
    # configparser merged DEFAULT into every section; it is a section like any other
    ("[DEFAULT]\n" + ZERO_RHS, "unknown sections ['DEFAULT']"),
    # a '%' is an ordinary character, read by the expression parser
    (ZERO_RHS.replace("rhs = 0", "rhs = 5%%2", 1),
     "[component.1]: unexpected character '%' (at position 1)"),
])
def test_deliberate_changes(text, error, tmp_path):
    path = tmp_path / "problem.ini"
    path.write_text(text)
    with pytest.raises(ProblemFileError) as exc:
        cli.parse_problem_file(path)
    assert str(exc.value) == error


def test_undecodable_file_is_an_input_error(tmp_path):
    path = tmp_path / "problem.ini"
    path.write_bytes(ZERO_RHS.encode().replace(b"rhs = 0", b"rhs = \xff", 1))
    res = CliRunner().invoke(cli.main, ["solve", str(path)])
    assert res.exit_code == 1
    assert res.output.startswith("error: ") and res.output.count("\n") == 1
