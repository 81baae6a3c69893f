"""Runs ``gfadm.cli.main`` in this process and keeps what it printed.

``CliRunner().invoke(main, args)`` returns the exit code, standard output,
standard error and ``output``, both streams interleaved as written, with
the ``SystemExit`` that ended a failed command.  Any other exception
propagates with its traceback.
"""

import contextlib
import io
import sys
from typing import NamedTuple


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved
    stdout: str
    stderr: str
    exception: BaseException | None  # the SystemExit of a non-zero exit
    exc_info: tuple | None


class _Tee(io.StringIO):
    """A stream that also writes to a shared one."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


class CliRunner:
    def invoke(self, main, args) -> Result:
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args=list(args), prog_name="gfadm")
            except SystemExit as exc:
                code, exc_info = exc.code, sys.exc_info()
            else:
                raise AssertionError("main returned without SystemExit")
        return Result(code, both.getvalue(), out.getvalue(), err.getvalue(),
                      exc_info[1] if code else None, exc_info if code else None)
