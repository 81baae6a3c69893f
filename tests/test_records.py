"""The record classes are plain classes on ``gfadm.record.Record``.

Each keeps what its dataclass gave: the constructor's signature and
defaults, its validation and messages, equality by value, a hash for the
frozen specs (a ``KernelSpec`` is a cache key), assignment that raises, a
repr of the fields, and ``ProblemSpec.rhs`` computed once.
"""

import inspect

import numpy as np
import pytest

from gfadm import (
    DIRICHLET,
    DIRICHLET_DIRICHLET,
    LANE_EMDEN,
    NEUMANN_ZERO,
    ComponentSpec,
    ConvergenceEstimate,
    KernelSpec,
    OracleSolution,
    ProblemSpec,
    ResidualReport,
    SolutionSeries,
    UsageError,
    catalytic_problem,
    parse_expression,
)
from gfadm.cli import _Solved
from gfadm.expr import Expression, Joint, join
from gfadm.kernels import _node_image
from gfadm.record import Record

F = parse_expression("y1^2 + 0.4*y1*y2")


def _component(**changes):
    args = dict(operator="lane_emden", alpha=2.0, left_kind=NEUMANN_ZERO,
                left_value=0.0, a=1.0, b=0.0, c=1.0, rhs=F)
    return ComponentSpec(**{**args, **changes})


def _series(problem):
    return SolutionSeries(problem, [1.0, 2.0], [3.0, 4.0], [5.0], [6.0], (0.5,))


# record class -> its fields, in order
FIELDS = {
    Expression: ("steps",),
    Joint: ("steps", "roots"),
    KernelSpec: ("family", "alpha", "robin_shift"),
    ComponentSpec: ("operator", "alpha", "left_kind", "left_value", "a", "b", "c", "rhs"),
    ProblemSpec: ("component1", "component2", "name"),
    SolutionSeries: ("problem", "terms1", "terms2", "rows1", "rows2", "increments"),
    ResidualReport: ("n", "method", "points1", "points2"),
    ConvergenceEstimate: ("m", "l1", "l2", "gamma", "max_f0", "bounds"),
    OracleSolution: ("nodes", "y1", "y2", "iterations", "residual_norm"),
    _Solved: ("problem", "sol", "backend", "ns", "xs", "seconds", "paths"),
}
# record class -> a value of its last field other than the one in ARGS
LAST = {
    Expression: F.steps[:1], Joint: (0, 1), KernelSpec: 0.0,
    ComponentSpec: parse_expression("y1"), ProblemSpec: "q", SolutionSeries: (0.25,),
    ResidualReport: [(0.5, 3e-3)], ConvergenceEstimate: {}, OracleSolution: 1e-11,
    _Solved: ["x.csv"],
}
# record class -> arguments for every field, positional and distinct
ARGS = {
    Expression: (F.steps,), Joint: (F.steps, (0, 3)), KernelSpec: (LANE_EMDEN, 2.0, 0.5),
    ComponentSpec: ("lane_emden", 2.0, NEUMANN_ZERO, 0.25, 1.0, 0.5, 3.0, F),
    ProblemSpec: (_component(), _component(c=2.0), "p"),
    SolutionSeries: (None, [1.0, 2.0], [3.0, 4.0], [5.0], [6.0], (0.5,)),
    ResidualReport: (3, "spectral", [(0.5, 1e-3)], [(0.5, 2e-3)]),
    ConvergenceEstimate: (0.1, 0.2, 0.3, 0.12, 1.5, {2: 1e-3}),
    OracleSolution: ("nodes", "y1", "y2", 4, 1e-12),
    _Solved: ("problem", "sol", "grid", [4], [0.5], 0.01, []),
}


def _make(cls):
    return cls(*ARGS[cls])


FROZEN_SPECS = [Expression, Joint, KernelSpec, ComponentSpec, ProblemSpec]


def test_every_record_class_is_listed():
    assert set(FIELDS) == set(LAST) == set(ARGS)
    assert all(issubclass(cls, Record) for cls in FIELDS)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
class TestRecord:
    def test_fields_are_the_init_parameters(self, cls):
        assert cls._fields == FIELDS[cls]
        assert tuple(inspect.signature(cls).parameters) == FIELDS[cls]

    def test_each_field_holds_its_argument(self, cls):
        one = _make(cls)
        assert all(getattr(one, f) is a for f, a in zip(cls._fields, ARGS[cls]))
        keywords = cls(**dict(zip(cls._fields, ARGS[cls])))
        assert keywords == one

    def test_equal_by_value(self, cls):
        one, two = _make(cls), _make(cls)
        assert one is not two and one == two and not one != two
        assert one != object() and one != tuple(getattr(one, f) for f in cls._fields)

    def test_one_field_changed_makes_it_unequal(self, cls):
        one = _make(cls)
        other = cls(*[getattr(one, f) for f in cls._fields[:-1]], LAST[cls])
        assert one != other and not one == other

    def test_assignment_and_deletion_raise(self, cls):
        one = _make(cls)
        for name in cls._fields + ("new_attribute",):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(one, name, 1)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(one, cls._fields[0])
        assert _make(cls) == one

    def test_repr_shows_the_fields(self, cls):
        one = _make(cls)
        shown = ", ".join(f"{f}={getattr(one, f)!r}" for f in cls._fields)
        assert repr(one) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", FROZEN_SPECS, ids=lambda c: c.__name__)
def test_frozen_specs_hash_by_value(cls):
    one, two = _make(cls), _make(cls)
    assert hash(one) == hash(two)
    assert {one: 1}[two] == 1


def test_records_of_lists_are_unhashable():
    for cls in (SolutionSeries, ResidualReport, _Solved):
        with pytest.raises(TypeError, match="unhashable"):
            hash(_make(cls))


def test_kernel_spec_is_a_cache_key():
    _node_image.cache_clear()
    first = _node_image(KernelSpec(LANE_EMDEN, alpha=2.0), 8)
    assert _node_image(KernelSpec(LANE_EMDEN, 2.0, 0.0), 8) is first
    assert _node_image(KernelSpec(LANE_EMDEN, 2.0, 0.5), 8) is not first
    assert _node_image.cache_info().hits == 1


def test_constructor_defaults():
    assert KernelSpec(DIRICHLET_DIRICHLET) == KernelSpec(DIRICHLET_DIRICHLET, 0.0, 0.0)
    assert ProblemSpec(_component(), _component()).name == ""
    assert _series(ProblemSpec(_component(), _component())).increments == (0.5,)
    assert SolutionSeries(None, [1.0], [2.0], [], []).increments == ()
    one, two = ResidualReport(1, "spectral"), ResidualReport(1, "spectral")
    assert one.points1 == one.points2 == [] and one.points1 is not two.points1
    assert one.points1 is not one.points2


def test_problem_rhs_is_joined_once_and_not_a_field():
    p = catalytic_problem()
    assert p.rhs is p.rhs and p.rhs == join([p.component1.rhs, p.component2.rhs])
    fresh = catalytic_problem()
    assert fresh == p and hash(fresh) == hash(p)  # p's cached rhs takes no part
    assert "rhs=Joint" not in repr(p)


def test_component_makes_its_kernel_once():
    robin = _component(b=0.5, a=2.0)
    assert robin.kernel() is robin.kernel()
    assert robin.kernel() == KernelSpec(LANE_EMDEN, alpha=2.0, robin_shift=0.25)
    flat = _component(operator="flat", alpha=0.0, left_kind=DIRICHLET, left_value=1.0)
    assert flat.kernel() == KernelSpec(DIRICHLET_DIRICHLET)


def test_solution_series_keeps_its_sums():
    sol = _series(ProblemSpec(_component(), _component()))
    assert sol.n_terms == 1
    assert sol.psi(1, 1) == 3.0 and sol.row_sum(2, 1) == 6.0


def test_oracle_solution_methods():
    nodes = np.linspace(0.0, 1.0, 5)
    ora = OracleSolution(nodes, np.arange(5.0), -np.arange(5.0), 3, 0.0)
    assert ora.values(2) is ora.y2
    np.testing.assert_allclose(ora.interpolate(1, [0.3, 0.6]), [1.2, 2.4])


# the validation messages, unchanged from the dataclasses' __post_init__
INVALID = [
    (lambda: KernelSpec("bessel"), "unknown kernel family 'bessel'"),
    (lambda: KernelSpec(LANE_EMDEN, alpha=-1.0), "lane_emden kernel requires alpha >= 0"),
    (lambda: KernelSpec(LANE_EMDEN, robin_shift=-0.5), "robin_shift must be >= 0"),
    (lambda: _component(operator="wave"), "unknown operator 'wave'"),
    (lambda: _component(operator="flat"), "flat operator has no shape factor"),
    (lambda: _component(alpha=-1.0), "shape factor must be >= 0"),
    (lambda: _component(left_kind="robin"), "unknown left boundary condition 'robin'"),
    (lambda: _component(left_kind=DIRICHLET),
     "the singular operator requires y'(0) = 0 (regularity)"),
    (lambda: _component(a=0.0), "right boundary condition needs a != 0"),
    (lambda: _component(c=np.inf),
     "alpha, the left value, a, b, c and b/a must be finite"),
    (lambda: _component(operator="flat", alpha=0.0, left_kind=DIRICHLET, b=1.0),
     "two-sided Dirichlet components support only b = 0 on the right"),
    (lambda: _component(b=-1.0),
     "right boundary condition needs b/a >= 0: a and b of one sign, or b = 0"),
    (lambda: SolutionSeries(None, [1.0, 2.0], [3.0, 4.0], [5.0], []),
     "a solution of order 1 needs 1 Adomian rows per component"),
]


@pytest.mark.parametrize("make, message", INVALID, ids=[m for _, m in INVALID])
def test_validation_messages(make, message):
    with pytest.raises(UsageError) as info:
        make()
    assert str(info.value) == message
