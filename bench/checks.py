"""Correctness checks on the program's outputs, and their self-test.

Every operation the benchmark runs leaves a record (a dict).  The warm
workloads produce them in the worker; for the CLI the records are parsed
from the files and the text each command wrote.  ``check`` compares them
with the references of ``reference.py``; ``self_test`` feeds ``check``
deliberately wrong copies and demands that each one is rejected.
"""

from __future__ import annotations

import copy
import math
import re

import numpy as np

import reference

# Largest |psi_n - psi_bvp| accepted at the abscissae, per (problem, n).
# Each is about four times the largest gap measured on the nominal rates and
# on seeds 1-3 (the series truncation error; solve_bvp itself is good to
# about 1e-12), so it holds over the whole rate-factor range.
BVP_GAP = {
    ("catalytic", 5): 3e-2,
    ("catalytic", 11): 1.5e-3,
    ("catalytic_symmetric", 5): 6e-3,
    ("catalytic_symmetric", 11): 6e-5,
    ("oxygen_alpha1", 11): 1.6e-4,
    ("oxygen_alpha2", 4): 2e-5,
    ("oxygen_alpha2", 11): 8e-7,
    ("oxygen_alpha3", 11): 2.5e-8,
    ("co2_pge", 4): 1.2e-5,
    ("co2_pge", 11): 1e-11,
}
# The truncated series itself (quadratic f), grid against exact backend:
# only rounding and quadrature error separate them (measured <= 7e-16).
SERIES_TOL = 1e-10
# Adomian-identity against spectral residual: spectral differentiation on
# 65 Chebyshev nodes amplifies rounding by about N^4 (measured <= 1e-11).
RESIDUAL_AGREE = 1e-8
# fd_solve(M=512) is second order, error ~ C h^2 (measured <= 1e-6).
FD_TOL = 5e-6
# kernel_apply against the closed-form images (measured <= 6e-17) and
# convergence_estimate's m against its closed form (measured 3e-17).
KERNEL_TOL = 1e-14
NORM_TOL = 1e-12

# a number standing on its own (not the digit of a name such as psi1)
_NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])", re.I)


class Context:
    """References for the problems of one run, evaluated at its abscissae."""

    def __init__(self, problems: dict, xs: list):
        self.problems = problems
        self.xs = np.asarray(xs)
        self.bvp = {name: np.asarray(reference.bvp_reference(p)(self.xs))
                    for name, p in problems.items()}
        self._series = {}

    def series(self, name: str, n: int):
        key = (name, n)
        if key not in self._series:
            psi = reference.series_reference(self.problems[name], n)
            self._series[key] = (None if psi is None else
                                 np.array([psi[0](self.xs), psi[1](self.xs)]))
        return self._series[key]


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _check_solve(rec, ctx):
    psi = np.array([rec["psi1"], rec["psi2"]], dtype=float)
    if not _finite(psi):
        return ["non-finite psi"]
    slack = rec.get("print_tol", 0.0)
    errors = []
    gap = float(np.max(np.abs(psi - ctx.bvp[rec["problem"]])))
    tol = BVP_GAP[(rec["problem"], rec["n"])] + slack
    if not gap <= tol:
        errors.append(f"psi differs from solve_bvp by {gap:.3e} > {tol:.1e}")
    series = ctx.series(rec["problem"], rec["n"])
    if series is not None:
        gap = float(np.max(np.abs(psi - series)))
        if not gap <= SERIES_TOL + slack:
            errors.append(f"psi differs from the reference series by {gap:.3e}")
    return errors


def _check_residual(rec, ctx):
    ra = np.array(rec["r_adomian"], dtype=float)
    maxr = np.array(rec["maxr"], dtype=float)
    if not (_finite(ra) and _finite(maxr)) or np.any(ra < 0):
        return ["non-finite or negative residual"]
    errors = []
    if "r_spectral" in rec:
        rs = np.array(rec["r_spectral"], dtype=float)
        gap = float(np.max(np.abs(ra - rs))) if _finite(rs) else math.inf
        if not gap <= RESIDUAL_AGREE:
            errors.append(f"adomian and spectral residuals differ by {gap:.3e}")
    # the maximum over (0, 1] bounds the residual at every abscissa
    weights = np.ones_like(ra)
    if rec["weighted"]:
        alphas = [c.alpha for c in ctx.problems[rec["problem"]].components]
        weights = np.array([ctx.xs**a for a in alphas])
    floor = np.max(weights * ra, axis=1) * (1.0 - rec.get("print_rel", 1e-9))
    if np.any(maxr < floor):
        errors.append(f"max residual {maxr.tolist()} below a pointwise value")
    return errors


def _check_bound(rec, ctx):
    values = [rec["m"], rec["l1"], rec["l2"], rec["gamma"], *rec["bounds"].values()]
    if not _finite(values):
        return ["non-finite bound output"]
    errors = []
    slack = rec.get("print_tol", 0.0)
    m = max(reference.kernel_norm(c) for c in ctx.problems[rec["problem"]].components)
    if not abs(rec["m"] - m) <= NORM_TOL + slack:
        errors.append(f"m = {rec['m']!r}, closed form {m!r}")
    gamma = 2.0 * rec["m"] * max(rec["l1"], rec["l2"])
    if not abs(rec["gamma"] - gamma) <= 1e-9 * gamma + 10 * slack:
        errors.append(f"gamma = {rec['gamma']!r} is not 2 m max(l1, l2)")
    return errors


def _check_compare(rec, ctx):
    if not _finite([rec["deviation"]]):
        return ["non-finite deviation"]
    errors = []
    name = rec["problem"]
    if "fd1" in rec:
        fd = np.array([rec["fd1"], rec["fd2"]], dtype=float)
        gap = float(np.max(np.abs(fd - ctx.bvp[name]))) if _finite(fd) else math.inf
        if not gap <= FD_TOL:
            errors.append(f"fd_solve differs from solve_bvp by {gap:.3e}")
    tol = BVP_GAP[(name, rec["n"])] + FD_TOL + rec.get("print_tol", 0.0)
    if not rec["deviation"] <= tol:
        errors.append(f"series-oracle deviation {rec['deviation']:.3e} > {tol:.1e}")
    return errors


def _check_probe_kernel(rec, ctx):
    comp = ctx.problems[rec["problem"]].components[rec["component"]]
    want = reference.monomial_image(comp, rec["m"])(rec["x"])
    if not abs(rec["value"] - want) <= KERNEL_TOL:
        return [f"kernel_apply(s^{rec['m']}) at {rec['x']:.4f} = {rec['value']!r},"
                f" closed form {want!r}"]
    return []


def _check_cli(rec, ctx):
    if rec["exit"] != 0:
        return [f"exit code {rec['exit']}"]
    for name, text in rec["texts"].items():
        for token in _NUMBER.findall(text):
            if not math.isfinite(float(token)):
                return [f"non-finite value {token!r} in {name}"]
    return []


_CHECKS = {
    "solve": _check_solve,
    "residual": _check_residual,
    "bound": _check_bound,
    "compare": _check_compare,
    "probe_kernel": _check_probe_kernel,
    "probe_exact": _check_solve,
    "cli": _check_cli,
}


def _check_pairs(records):
    """Grid and exact backends agree; residual tables fall with n."""
    errors = []
    exact = {(r["problem"], r["n"]): r for r in records if r["op"] == "probe_exact"}
    for rec in records:
        other = exact.get((rec["problem"], rec.get("n")))
        if rec["op"] == "solve" and rec.get("backend") == "grid" and other:
            a = np.array([rec["psi1"], rec["psi2"]], dtype=float)
            b = np.array([other["psi1"], other["psi2"]], dtype=float)
            gap = float(np.max(np.abs(a - b)))
            if not gap <= SERIES_TOL:
                errors.append(f"{rec['problem']}: grid and exact differ by {gap:.3e}")
    table = {}
    for rec in records:
        if rec["op"] == "residual" and "error" not in rec:
            table.setdefault(rec["problem"], {}).setdefault(rec["n"], []).append(
                max(rec["maxr"]))
    for name, by_n in table.items():
        lo, hi = min(by_n), max(by_n)
        if hi > lo and not max(by_n[hi]) < min(by_n[lo]):
            errors.append(f"{name}: max residual does not fall from n={lo} to n={hi}")
    return errors


def check(records, ctx) -> list[str]:
    """Every error found in the records of operations that did not fail."""
    errors = []
    for rec in records:
        if "error" in rec:
            continue
        for msg in _CHECKS[rec["op"]](rec, ctx):
            errors.append(f"{rec['op']} {rec.get('problem', '')}: {msg}")
    return errors + _check_pairs(records)


def _first(records, pred):
    return next((i for i, r in enumerate(records)
                 if "error" not in r and pred(r)), None)


def _tightest_solve(records):
    solves = [(BVP_GAP[(r["problem"], r["n"])], i) for i, r in enumerate(records)
              if r["op"] == "solve" and "error" not in r]
    return min(solves)[1] if solves else None


def _set(key, fn):
    def mutate(rec):
        rec[key] = fn(rec[key])
    return mutate


def _first_entry(key, fn):
    """Replace the first number of a (nested) list ``rec[key]`` by fn(it)."""
    def spoil(values):
        a = np.array(values, dtype=float)
        a.flat[0] = fn(a.flat[0])
        return a.tolist()
    return _set(key, spoil)


def _nan_in_text(rec):
    name, text = next((n, t) for n, t in rec["texts"].items() if _NUMBER.search(t))
    last = list(_NUMBER.finditer(text))[-1]
    rec["texts"][name] = text[:last.start()] + "nan" + text[last.end():]


def _table_rises(records):
    rows = [i for i, r in enumerate(records)
            if r["op"] == "residual" and "error" not in r]
    if len({records[i]["n"] for i in rows}) < 2:
        return None
    return max(rows, key=lambda i: records[i]["n"])


# (what is wrong, the error it must raise, which record, how to spoil it)
MUTATIONS = [
    ("psi shifted by 1e-3", "from solve_bvp", _tightest_solve,
     _first_entry("psi1", lambda v: v + 1e-3)),
    ("NaN in psi", "non-finite psi",
     lambda rs: _first(rs, lambda r: r["op"] == "solve"),
     _first_entry("psi2", lambda v: math.nan)),
    ("psi of a quadratic problem shifted by 1e-6", "reference series",
     lambda rs: _first(rs, lambda r: r["op"] == "solve"
                       and r["problem"].startswith("catalytic")),
     _first_entry("psi1", lambda v: v + 1e-6)),
    ("exact psi shifted by 1e-9 against the grid", "grid and exact differ",
     lambda rs: _first(rs, lambda r: r["op"] == "probe_exact"),
     _first_entry("psi1", lambda v: v + 1e-9)),
    ("NaN in a residual", "non-finite or negative residual",
     lambda rs: _first(rs, lambda r: r["op"] == "residual"),
     _first_entry("r_adomian", lambda v: math.nan)),
    ("spectral residual off by 1e-6", "spectral residuals differ",
     lambda rs: _first(rs, lambda r: r["op"] == "residual" and "r_spectral" in r),
     _first_entry("r_spectral", lambda v: v + 1e-6)),
    ("max residual below the pointwise residuals", "below a pointwise",
     lambda rs: _first(rs, lambda r: r["op"] == "residual"
                       and max(r["r_adomian"][0]) > 0),
     _set("maxr", lambda m: [0.0, m[1]])),
    ("max residual table rising with n", "does not fall", _table_rises,
     _set("maxr", lambda m: [1e3, 1e3])),
    ("m off by 1e-3", "closed form",
     lambda rs: _first(rs, lambda r: r["op"] == "bound"),
     _set("m", lambda m: m + 1e-3)),
    ("NaN Lipschitz constant", "non-finite bound output",
     lambda rs: _first(rs, lambda r: r["op"] == "bound"),
     _set("l1", lambda v: math.nan)),
    ("gamma inconsistent with m and l", "is not 2 m max",
     lambda rs: _first(rs, lambda r: r["op"] == "bound"),
     _set("gamma", lambda g: g * 1.01 + 1e-3)),
    ("fd solution shifted by 1e-4", "fd_solve differs",
     lambda rs: _first(rs, lambda r: r["op"] == "compare" and "fd1" in r),
     _first_entry("fd1", lambda v: v + 1e-4)),
    ("NaN deviation", "non-finite deviation",
     lambda rs: _first(rs, lambda r: r["op"] == "compare"),
     _set("deviation", lambda d: math.nan)),
    ("deviation of 0.1", "series-oracle deviation",
     lambda rs: _first(rs, lambda r: r["op"] == "compare"),
     _set("deviation", lambda d: 0.1)),
    ("kernel image off by 1e-10", "kernel_apply(s^",
     lambda rs: _first(rs, lambda r: r["op"] == "probe_kernel"),
     _set("value", lambda v: v + 1e-10)),
    ("CLI exit code 1", "exit code",
     lambda rs: _first(rs, lambda r: r["op"] == "cli"),
     _set("exit", lambda e: 1)),
    ("NaN in a CLI output", "non-finite value",
     lambda rs: _first(rs, lambda r: r["op"] == "cli"
                       and any(_NUMBER.search(t) for t in r["texts"].values())),
     _nan_in_text),
]


def self_test(records, ctx) -> tuple[int, list[str]]:
    """(mutations applied, those the check they target wrongly accepted)."""
    applied, missed = 0, []
    for what, error, pick, mutate in MUTATIONS:
        i = pick(records)
        if i is None:
            continue
        spoiled = copy.deepcopy(records)
        mutate(spoiled[i])
        applied += 1
        if not any(error in msg for msg in check(spoiled, ctx)):
            missed.append(what)
    return applied, missed
