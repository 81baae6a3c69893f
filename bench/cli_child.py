"""Runs one gfadm CLI command, or only imports gfadm.cli, in this interpreter.

Usage: python3 bench/cli_child.py RESULT.json TRACE.npz|- import
       python3 bench/cli_child.py RESULT.json TRACE.npz|- COMMAND ARGS...

The command runs as ``python -m gfadm.cli COMMAND ARGS...`` would.  A
``SpeedClock`` (speed.py) runs from the start; RESULT.json gets the
interpreter's CPU seconds at the reference speed up to the end of the
command, start-up included, its exit code and, for ``import``, the wall
time of ``import gfadm.cli``.  With a TRACE path other than ``-``, spans
are recorded around the layers and saved there.  The command's exit code
is passed on.
"""

from __future__ import annotations

import json
import sys
import time

from speed import SpeedClock


def main(result_path: str, trace_path: str, argv: list) -> int:
    clock = SpeedClock()
    clock.start()
    result = {}
    tracer = None
    try:
        t0 = time.perf_counter()
        import gfadm.cli as cli
        result["import_s"] = time.perf_counter() - t0
        if trace_path != "-":
            from tracing import Tracer

            tracer = Tracer(clock.now)
            tracer.install()
            tracer.op_id = 0
        code = 0
        if argv != ["import"]:
            try:
                cli.main(args=argv, prog_name="gfadm")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        result["seconds"] = clock.now()
        clock.stop()
        if tracer is not None:
            tracer.uninstall()
            tracer.save(trace_path)
    result["exit"] = code
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
