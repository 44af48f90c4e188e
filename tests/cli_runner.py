"""Runs the lntm command line in-process and captures what it prints."""

from __future__ import annotations

import contextlib
import io
from typing import Callable, NamedTuple, Optional


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved as written
    stdout: str
    stderr: str
    exception: Optional[BaseException]  # what ended the call; None on success


class _Tee(io.StringIO):
    """A captured stream that also copies every write into a shared one."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self._shared = shared

    def write(self, text: str) -> int:
        self._shared.write(text)
        return super().write(text)


class CliRunner:
    def invoke(self, main: Callable[[list[str]], object], argv: list[str]) -> Result:
        """Call ``main(argv)``. A ``SystemExit`` gives the exit code, and is
        the exception when that code is not 0; any other exception exits 1."""
        output = io.StringIO()
        stdout, stderr = _Tee(output), _Tee(output)
        exit_code, exception = 0, None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                main(argv)
            except SystemExit as exc:
                exit_code = 0 if exc.code is None else exc.code
                exception = exc if exit_code != 0 else None
            except Exception as exc:
                exit_code, exception = 1, exc
        return Result(exit_code, output.getvalue(), stdout.getvalue(), stderr.getvalue(), exception)
