"""Runs a warm workload in one process through gfadm's public API.

Usage: python3 bench/worker.py PLAN.json RESULT.json

The plan (written by run.py) names the generated problem files, the
abscissae and the operation list of one pass.  The worker repeats whole
passes until the plan's seconds are used (at least one), timing every
operation and pass in wall seconds and on a ``SpeedClock`` (CPU seconds at
the reference speed, see speed.py), then probes kernel_apply and the exact
backend for the checks, and writes every record and the calibration times
to RESULT.json.  With tracing on, it runs one
untraced pass first, then traced passes, and saves the spans.
"""

from __future__ import annotations

import json
import sys
import time

from scipy.interpolate import interp1d

import gfadm
import gfadm.cli as cli
from speed import SpeedClock
from tracing import Tracer


def _psi(sol, n, xs):
    pairs = [gfadm.evaluate_partial_sum(sol, n, x) for x in xs]
    return {"psi1": [float(p[0]) for p in pairs],
            "psi2": [float(p[1]) for p in pairs]}


def _solve(op, state, plan):
    spec, _ = cli.parse_problem_file(plan["problems"][op["problem"]])
    sol = gfadm.gfadm_solve(spec, op["n"], backend=op["backend"],
                            grid_size=op["grid_size"])
    state[op["problem"]] = (spec, sol)
    return _psi(sol, op["n"], plan["abscissae"])


def _residual(op, state, plan):
    spec, sol = state[op["problem"]]
    xs, n = plan["abscissae"], op["n"]
    out = {}
    for key, method in (("r_adomian", gfadm.ADOMIAN_IDENTITY),
                        ("r_spectral", gfadm.SPECTRAL)):
        rep = gfadm.residual(spec, sol, n, xs, method=method)
        out[key] = [[r for _, r in rep.points1], [r for _, r in rep.points2]]
    out["maxr"] = list(gfadm.max_residual(spec, sol, n, weighted=op["weighted"]))
    return out


def _bound(op, state, plan):
    spec, sol = state[op["problem"]]
    est = gfadm.convergence_estimate(spec, sol, op["ns"])
    return {"m": est.m, "l1": est.l1, "l2": est.l2, "gamma": est.gamma,
            "bounds": {str(k): v for k, v in est.bounds.items()}}


def _compare(op, state, plan):
    spec, sol = state[op["problem"]]
    xs, n = plan["abscissae"], op["n"]
    ora = gfadm.fd_solve(spec, M=op["M"])
    out = {"iterations": ora.iterations, "deviation": 0.0}
    for i in (1, 2):
        fd = interp1d(ora.nodes, ora.values(i), kind="cubic")(xs)
        out[f"fd{i}"] = fd.tolist()
        for x, v in zip(xs, fd):
            out["deviation"] = max(out["deviation"],
                                   abs(sol.partial_sum(i, n, x) - float(v)))
    return out


OPS = {"solve": _solve, "residual": _residual, "bound": _bound,
       "compare": _compare}


def run_pass(plan, records, clock, tracer=None) -> dict:
    """One pass over the operation list: its wall and reference seconds."""
    state = {}
    t_pass, c_pass = time.perf_counter(), clock.now()
    for op in plan["ops"]:
        if tracer is not None:
            tracer.op_id = len(records)
        t0, c0 = time.perf_counter(), clock.now()
        try:
            out = OPS[op["op"]](op, state, plan)
        except Exception as exc:  # one failed operation must not end the run
            out = {"error": f"{type(exc).__name__}: {exc}"}
        out["seconds"] = time.perf_counter() - t0
        out["ref_s"] = clock.now() - c0
        out["traced"] = tracer is not None
        records.append({**op, **out})
    return {"seconds": time.perf_counter() - t_pass,
            "ref_s": clock.now() - c_pass}


def probes(plan) -> list:
    """Untimed outputs for the checks: kernel images and exact solves."""
    out = []
    for name in plan["probe_exact"]:
        spec, _ = cli.parse_problem_file(plan["problems"][name])
        n = plan["probe_exact_n"]
        sol = gfadm.gfadm_solve(spec, n, backend=gfadm.EXACT)
        out.append({"op": "probe_exact", "problem": name, "n": n,
                    **_psi(sol, n, plan["abscissae"])})
    for name, path in plan["problems"].items():
        spec, _ = cli.parse_problem_file(path)
        for c, comp in enumerate(spec.components):
            kern = comp.kernel()
            for m in plan["probe_exponents"]:
                for x in plan["probe_points"]:
                    value = gfadm.kernel_apply(kern, lambda s, m=m: s**m, x)
                    out.append({"op": "probe_kernel", "problem": name,
                                "component": c, "m": m, "x": x, "value": value})
    return out


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    # a small solve, residual and FD solve, so imports and caches are in place
    spec, _ = cli.parse_problem_file(next(iter(plan["problems"].values())))
    sol = gfadm.gfadm_solve(spec, 1, backend=gfadm.GRID, grid_size=8)
    gfadm.residual(spec, sol, 1, [0.5], method=gfadm.SPECTRAL)
    gfadm.fd_solve(spec, M=64)

    records, passes = [], []
    clock = SpeedClock()
    clock.start()
    start = time.perf_counter()
    tracer = None
    if plan["trace"]:
        passes.append({"traced": False, **run_pass(plan, records, clock)})
        tracer = Tracer(clock.now)
        tracer.install()
    while True:
        passes.append({"traced": tracer is not None,
                       **run_pass(plan, records, clock, tracer)})
        if time.perf_counter() - start >= plan["seconds"]:
            break
    clock.stop()
    if tracer is not None:
        tracer.uninstall()
        tracer.save(plan["trace_path"])
    records += probes(plan)
    with open(result_path, "w") as fh:
        json.dump({"records": records, "passes": passes,
                   "calibrations": clock.calibrations.tolist()}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
