"""Benchmark of gfadm on the paper's three examples.

Usage:
    python3 bench/run.py --workload grid-solve|exact-residual|cli-cold
                         [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository; gfadm is imported
from ``src`` (it need not be installed).  The seed perturbs the problems'
rate constants and draws the abscissae; the program only sees the problem
files generated from them.  The run repeats whole passes over the
workload's operation list for about ``--seconds``, checks every output
against references computed apart from gfadm (``reference.py``), feeds the
checks deliberately wrong outputs (``checks.self_test``) and prints, as its
last line, one JSON object with the operations attempted and failed and
the end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
run (``--trace 1``).  Times are CPU seconds at a reference speed, which
the host's changing speed does not move (``speed.py``); every process
that does gfadm's work runs a ``SpeedClock``.  Outputs, traces and CLI
files go to
``bench/out/<workload>/``.  See bench/README.md.
"""

from __future__ import annotations

import os

# one process, one thread: pin BLAS before numpy loads, here and in children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 5
CHILD_TIMEOUT = 170.0

GRID_PROBLEMS = ["catalytic", "oxygen_alpha1", "oxygen_alpha2", "oxygen_alpha3",
                 "co2_pge"]
EXACT_PROBLEMS = ["catalytic", "catalytic_symmetric"]
CLI_PROBLEMS = ["catalytic", "catalytic_symmetric", "oxygen_alpha2", "co2_pge"]
N_TERMS = 11
GRID_SIZE = 64
FD_POINTS = 512
CLI_N_LIST = "2,4,8"
# a compare takes about 20 ms and an exact solve about 60 ms, a few slices
# of the speed clock: repeat them so that each one's median is taken over
# several
COMPARE_REPEATS = 5
EXACT_SOLVE_REPEATS = 5


def _solve(problem, backend):
    return {"op": "solve", "problem": problem, "backend": backend, "n": N_TERMS,
            "grid_size": GRID_SIZE}


def _residual(problem, n):
    return {"op": "residual", "problem": problem, "n": n, "weighted": True}


def _bound(problem, ns):
    return {"op": "bound", "problem": problem, "ns": list(ns)}


def _compare(problem):
    return [{"op": "compare", "problem": problem, "n": N_TERMS, "M": FD_POINTS}
            ] * COMPARE_REPEATS


def grid_solve_ops():
    """Per problem: grid solve, then one residual (n = 11), one bound and the
    compares."""
    ops = []
    for p in GRID_PROBLEMS:
        ops += [_solve(p, "grid"), _residual(p, N_TERMS), _bound(p, [2, 4, 8, 11]),
                *_compare(p)]
    return ops


def exact_residual_ops():
    """Per problem: the exact solves, the residual table n = 2..11, one bound
    and the compares."""
    ops = []
    for p in EXACT_PROBLEMS:
        ops += ([_solve(p, "exact_polynomial")] * EXACT_SOLVE_REPEATS
                + [_residual(p, n) for n in range(2, N_TERMS + 1)]
                + [_bound(p, range(2, N_TERMS + 1))] + _compare(p))
    return ops


WORKLOADS = {
    "grid-solve": (GRID_PROBLEMS, grid_solve_ops, ["catalytic"]),
    "exact-residual": (EXACT_PROBLEMS, exact_residual_ops, []),
    "cli-cold": (CLI_PROBLEMS, None, []),
}


def child_env(**extra) -> dict:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    env.update(extra)
    return env


def run_child(argv, env, log_stem: Path):
    """Run a process to its end: (wall seconds, exit code, peak RSS in KiB)."""
    with open(f"{log_stem}.out", "w") as out, open(f"{log_stem}.err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def cli_child(stem: Path, trace: str, args: list, env):
    """Run bench/cli_child.py: (its result or None, exit code, peak RSS)."""
    result = Path(f"{stem}.json")
    _, code, rss = run_child([sys.executable, str(BENCH / "cli_child.py"),
                              str(result), trace, *args], env, stem)
    return (json.loads(result.read_text()) if result.is_file() else None), code, rss


def measure_setup(out: Path):
    """Medians over SETUP_RUNS fresh interpreters that import gfadm.cli: the
    interpreter's CPU seconds at the reference speed, and the import's wall
    seconds."""
    runs = []
    for k in range(SETUP_RUNS):
        stem = out / f"setup{k}"
        result, code, _ = cli_child(stem, "-", ["import"], child_env())
        if code != 0 or result is None:
            sys.exit(f"error: importing gfadm.cli failed, see {stem}.err")
        runs.append(result)
    return (statistics.median(r["seconds"] for r in runs),
            statistics.median(r["import_s"] for r in runs))


def run_worker(args, problems_dir: Path, xs, probe_points, out: Path):
    names, make_ops, probe_exact = WORKLOADS[args.workload]
    plan = {
        "seconds": args.seconds, "trace": bool(args.trace),
        "trace_path": str(out / "trace.npz"), "abscissae": xs,
        "problems": {n: str(problems_dir / f"{n}.ini") for n in names},
        "ops": make_ops(), "probe_exact": probe_exact, "probe_exact_n": N_TERMS,
        "probe_exponents": list(inputs.PROBE_EXPONENTS),
        "probe_points": probe_points,
    }
    (out / "plan.json").write_text(json.dumps(plan, indent=1))
    _, code, rss = run_child(
        [sys.executable, str(BENCH / "worker.py"), str(out / "plan.json"),
         str(out / "worker.json")], child_env(), out / "worker")
    if code != 0:
        sys.exit(f"error: worker exited with {code}, see {out / 'worker.err'}")
    result = json.loads((out / "worker.json").read_text())
    traces = [plan["trace_path"]] if args.trace else []
    return result["records"], result["passes"], rss, traces


def _cli_records(name, cmd, stdout: str, files: dict, run) -> list:
    """Check records parsed from what one CLI command wrote."""
    n_run, backend, _ = run
    base = {"problem": name}
    if cmd == "solve":
        rows = [line.split(",") for line in
                files[f"{name}_solution.csv"].splitlines()[1:]]
        return [{**base, "op": "solve", "backend": backend, "n": n_run,
                 "psi1": [float(r[1]) for r in rows],
                 "psi2": [float(r[2]) for r in rows], "print_tol": 1e-7}]
    if cmd == "residual":
        points, maxr = {}, {}
        for line in files[f"{name}_residual_points.csv"].splitlines()[1:]:
            n, _, r1, r2 = line.split(",")
            points.setdefault(int(n), ([], []))
            points[int(n)][0].append(float(r1))
            points[int(n)][1].append(float(r2))
        for line in files[f"{name}_residual_summary.csv"].splitlines()[1:]:
            n, m1, m2 = line.split(",")
            maxr[int(n)] = [float(m1), float(m2)]
        return [{**base, "op": "residual", "n": n, "r_adomian": list(points[n]),
                 "maxr": maxr[n], "weighted": False, "print_rel": 1e-5}
                for n in sorted(points)]
    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.rpartition("=")
        if sep:
            values[key.strip()] = float(value.split()[0])
    if cmd == "bound":
        bounds = {k[len("bound[n="):-1]: v for k, v in values.items()
                  if k.startswith("bound[")}
        return [{**base, "op": "bound", "m": values["m"], "l1": values["l1"],
                 "l2": values["l2"], "gamma": values["gamma"], "bounds": bounds,
                 "print_tol": 5e-7}]
    return [{**base, "op": "compare", "n": n_run, "deviation": values["max deviation"],
             "print_tol": 1e-7}]


def run_cli(args, problems_dir: Path, problems, xs, out: Path):
    xs_text = ",".join(repr(x) for x in xs)
    commands = [("solve", ["--abscissae", xs_text]),
                ("residual", ["--n-list", CLI_N_LIST, "--abscissae", xs_text]),
                ("bound", ["--n-list", CLI_N_LIST]),
                ("compare", ["--abscissae", xs_text])]
    records, passes, traces, rss = [], [], [], 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and bool(passes)  # first pass untraced
        k = len(passes)
        pass_dir = out / "cli" / f"pass{k}"
        pass_dir.mkdir(parents=True)
        env = child_env(GFADM_OUT_DIR=str(pass_dir))
        t_pass, ref_pass = time.perf_counter(), 0.0
        for name in CLI_PROBLEMS:
            ini = problems_dir / f"{name}.ini"
            for cmd, extra in commands:
                stem = pass_dir / f"{name}-{cmd}"
                trace = "-"
                if traced:
                    trace = f"{stem}.npz"
                    traces.append(trace)
                t0 = time.perf_counter()
                child, code, peak = cli_child(stem, trace, [cmd, str(ini), *extra], env)
                wall = time.perf_counter() - t0
                ref_s = child["seconds"] if child else wall
                rss, ref_pass = max(rss, peak), ref_pass + ref_s
                stdout = Path(f"{stem}.out").read_text()
                wrote = [line[len("wrote "):] for line in stdout.splitlines()
                         if line.startswith("wrote ")]
                files = {Path(p).name: Path(p).read_text() for p in wrote
                         if Path(p).is_file()}
                shown = "\n".join(line for line in stdout.splitlines()
                                  if not line.startswith("wrote "))
                rec = {"op": "cli", "cmd": cmd, "problem": name, "exit": code,
                       "texts": {"stdout": shown, **files}, "seconds": wall,
                       "ref_s": ref_s, "traced": traced}
                if child is None:
                    rec["error"] = f"no result from cli_child.py (exit code {code})"
                elif code != 0:
                    rec["error"] = f"exit code {code}"
                records.append(rec)
                if "error" not in rec:
                    try:
                        records += _cli_records(name, cmd, stdout, files,
                                                problems[name].run)
                    except (KeyError, IndexError, ValueError) as exc:
                        rec["error"] = f"unreadable output: {exc!r}"
        passes.append({"traced": traced, "seconds": time.perf_counter() - t_pass,
                       "ref_s": ref_pass})
        if time.perf_counter() - start >= args.seconds and passes[-1]["traced"] == \
                bool(args.trace):
            break
    return records, passes, rss, traces


def op_seconds(of_kind: list) -> float:
    """The time of one operation of a kind: the mean, over the distinct
    operations of a pass, of each one's median reference seconds (see
    speed.py) over the passes.

    A pass mixes operations of very different cost (a bound on co2_pge and
    on catalytic differ by 2x); a median over the mixture would jump between
    them as the number of passes changes, while this stays put.  Failed
    operations count (as time to failure) only when every one failed.
    """
    ok = [r for r in of_kind if "error" not in r] or of_kind
    by_op = {}
    for r in ok:
        key = (r["problem"], r.get("n"), r.get("backend"))
        by_op.setdefault(key, []).append(r["ref_s"])
    return statistics.fmean(statistics.median(v) for v in by_op.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gfadm" / "cli.py").is_file():
        print(f"error: no gfadm sources under {SRC}", file=sys.stderr)
        return 2

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    problems_dir = out / "problems"
    problems_dir.mkdir(parents=True)
    rng = random.Random(args.seed)
    problems = {name: inputs.make_problem(name, rng) for name in inputs.CATALOGUE}
    xs = inputs.draw_abscissae(rng)
    probe_points = inputs.draw_probe_points(rng)
    names = WORKLOADS[args.workload][0]
    for name in names:
        (problems_dir / f"{name}.ini").write_text(problems[name].ini())

    setup_s, import_s = measure_setup(out)
    if args.workload == "cli-cold":
        records, passes, rss, traces = run_cli(args, problems_dir, problems, xs, out)
    else:
        records, passes, rss, traces = run_worker(args, problems_dir, xs,
                                                  probe_points, out)

    ctx = checks.Context({n: problems[n] for n in names}, xs)
    errors = checks.check(records, ctx)
    applied, missed = checks.self_test(records, ctx)
    ops = [r for r in records if "seconds" in r]
    failed = [r for r in ops if "error" in r]
    untraced = [p["ref_s"] for p in passes if not p["traced"]]

    if args.trace:
        traced = [p["ref_s"] for p in passes if p["traced"]]
        values = tracing.layer_metrics(traces, len(traced))
        values["cli.import_s"] = import_s
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        values["trace.overhead_pct"] = 100.0 * overhead
        print(f"trace overhead: {100 * overhead:+.1f}% (median traced pass "
              f"{statistics.median(traced):.3f} s, untraced "
              f"{statistics.median(untraced):.3f} s)")
    else:
        values = {"setup_s": setup_s, "pass_s": statistics.median(untraced),
                  "peak_rss_mb": rss / 1024.0}
        for kind in ("solve", "residual", "bound", "compare"):
            values[f"{kind}_s"] = op_seconds(
                [r for r in ops if r.get("cmd", r["op"]) == kind])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    for err in errors:
        print(f"check failed: {err}")
    for what in missed:
        print(f"self-test: a wrong result passed the checks: {what}")
    for rec in failed:
        print(f"operation failed: {rec.get('cmd', rec['op'])} {rec['problem']}: "
              f"{rec['error']}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {len(ops)} "
          f"operations, {len(failed)} failed; {len(errors)} check errors; "
          f"self-test rejected {applied - len(missed)} of {applied} wrong results")
    result = {"correct": not errors and not missed, "attempted": len(ops),
              "failed": len(failed), "metrics": metrics}
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
