"""Run-time spans around the public functions at each gfadm module boundary.

``Tracer.install`` replaces a function by a recording wrapper in the
namespace of each module that calls it (the name that module imported), so
the program's files stay untouched.  Spans (name, start, end, parent,
operation id, amount) are kept in flat arrays in memory and written out
once at the end.  ``layer_metrics`` turns spans into per-layer counts and
self times: a span's self time is its duration minus that of its child
spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# span name -> (call sites as (module, attribute path), amount(result, args)).
# A function is wrapped only where the calling module imported it, so that,
# e.g., the quadratures inside kernel_bound_m stay part of kernels.bound_m.
TARGETS = {
    "kernels.apply": ([("gfadm.solver", "kernel_apply")], None),
    "kernels.monomial_image": ([("gfadm.solver", "kernel_monomial_image")], None),
    "kernels.bound_m": ([("gfadm.analysis", "kernel_bound_m")], None),
    "grids.interp": ([("gfadm.grids", "GridFunction.__call__")],
                     lambda res, args: np.size(args[1])),
    "grids.derivative": ([("gfadm.grids", "GridFunction.derivative")], None),
    "adomian.coefficients": ([("gfadm.solver", "adomian_coefficients"),
                              ("gfadm.analysis", "adomian_coefficients")], None),
    "adomian.poly_rows": ([("gfadm.solver", "adomian_polynomial_rows")], None),
    "expr.eval_series": ([("gfadm.adomian", "eval_series")], None),
    "expr.eval_scalar": ([("gfadm.analysis", "eval_scalar"),
                          ("gfadm.oracle", "eval_scalar")], None),
    "expr.parse": ([("gfadm.solver", "parse_expression")], None),
    "solver.solve": ([("gfadm", "gfadm_solve"), ("gfadm.solver", "gfadm_solve"),
                      ("gfadm.cli", "gfadm_solve")],
                     lambda res, args: res.n_terms),
    "analysis.residual": ([("gfadm", "residual"), ("gfadm.analysis", "residual")],
                          lambda res, args: len(res.points1)),
    "analysis.max_residual": ([("gfadm", "max_residual"),
                               ("gfadm.analysis", "max_residual")], None),
    "analysis.convergence_estimate": ([("gfadm", "convergence_estimate"),
                                       ("gfadm.analysis", "convergence_estimate")],
                                      None),
    "analysis.lipschitz": ([("gfadm.analysis", "lipschitz_estimate")], None),
    "oracle.fd_solve": ([("gfadm", "fd_solve"), ("gfadm.oracle", "fd_solve")],
                        lambda res, args: res.iterations),
    "cli.parse_problem": ([("gfadm.cli", "parse_problem_file")], None),
}

# per-layer metric -> (span name, what): "calls", "self_s" or "amount"
LAYER_METRICS = {
    "kernels.apply_calls": ("kernels.apply", "calls"),
    "kernels.apply_s": ("kernels.apply", "self_s"),
    "kernels.monomial_image_calls": ("kernels.monomial_image", "calls"),
    "kernels.bound_m_calls": ("kernels.bound_m", "calls"),
    "kernels.bound_m_s": ("kernels.bound_m", "self_s"),
    "grids.interp_calls": ("grids.interp", "calls"),
    "grids.interp_points": ("grids.interp", "amount"),
    "grids.interp_s": ("grids.interp", "self_s"),
    "grids.derivative_calls": ("grids.derivative", "calls"),
    "adomian.coefficients_calls": ("adomian.coefficients", "calls"),
    "adomian.coefficients_s": ("adomian.coefficients", "self_s"),
    "adomian.poly_rows_calls": ("adomian.poly_rows", "calls"),
    "adomian.poly_rows_s": ("adomian.poly_rows", "self_s"),
    "expr.eval_series_calls": ("expr.eval_series", "calls"),
    "expr.eval_series_s": ("expr.eval_series", "self_s"),
    "expr.eval_scalar_calls": ("expr.eval_scalar", "calls"),
    "expr.eval_scalar_s": ("expr.eval_scalar", "self_s"),
    "expr.parse_calls": ("expr.parse", "calls"),
    "solver.solve_s": ("solver.solve", "self_s"),
    "solver.terms": ("solver.solve", "amount"),
    "analysis.max_residual_calls": ("analysis.max_residual", "calls"),
    "analysis.max_residual_s": ("analysis.max_residual", "self_s"),
    "analysis.residual_points": ("analysis.residual", "amount"),
    "analysis.residual_s": ("analysis.residual", "self_s"),
    "analysis.convergence_estimate_s": ("analysis.convergence_estimate", "self_s"),
    "analysis.lipschitz_s": ("analysis.lipschitz", "self_s"),
    "oracle.fd_solve_s": ("oracle.fd_solve", "self_s"),
    "oracle.newton_iters": ("oracle.fd_solve", "amount"),
    "cli.parse_problem_s": ("cli.parse_problem", "self_s"),
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = list(TARGETS)
        self.name_ix = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self.op_id = -1  # set by the caller before each operation
        self._stack = []
        self._undo = []

    def _wrap(self, name: str, fn, amount):
        nid = self.names.index(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_ix.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.amount.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if amount is not None:
                self.amount[idx] = amount(result, args)
            return result

        return wrapper

    def install(self) -> None:
        # import every calling module first, so none imports a wrapper
        for sites, _ in TARGETS.values():
            for module, _ in sites:
                importlib.import_module(module)
        for name, (sites, amount) in TARGETS.items():
            owner, attr = _resolve(*sites[0])
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, amount)
            for site in sites:
                owner, attr = _resolve(*site)
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{site} is not the function traced as {name}")
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_ix=np.frombuffer(self.name_ix, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 amount=np.frombuffer(self.amount))


def span_totals(path) -> dict:
    """name -> {"calls", "self_s", "amount"} summed over one saved trace."""
    t = np.load(path)
    names = [str(n) for n in t["names"]]
    dur = t["end"] - t["start"]
    child = t["parent"] >= 0
    covered = np.bincount(t["parent"][child], weights=dur[child],
                          minlength=dur.size)
    self_s = dur - covered
    k = len(names)
    calls = np.bincount(t["name_ix"], minlength=k)
    selfs = np.bincount(t["name_ix"], weights=self_s, minlength=k)
    amounts = np.bincount(t["name_ix"], weights=t["amount"], minlength=k)
    return {n: {"calls": int(calls[i]), "self_s": float(selfs[i]),
                "amount": float(amounts[i])} for i, n in enumerate(names)}


def layer_metrics(trace_paths, passes: int) -> dict:
    """Per-layer metrics per pass, summed over the traces of the passes."""
    totals = {n: {"calls": 0, "self_s": 0.0, "amount": 0.0} for n in TARGETS}
    for path in trace_paths:
        for name, row in span_totals(path).items():
            for key, value in row.items():
                totals[name][key] += value
    return {metric: totals[span][what] / passes
            for metric, (span, what) in LAYER_METRICS.items()}
