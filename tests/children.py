"""The test process's own children: a check that none is left behind."""

import os


def assert_no_child_left():
    """No child of this process is running or waiting to be reaped.

    ``os.waitpid(-1, os.WNOHANG)`` raises ChildProcessError only when the
    process has no child at all; it returns (0, 0) while a child runs and
    reaps a zombie, returning its pid.
    """
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "running" if pid == 0 else f"unreaped (pid {pid}, status {status})"
    raise AssertionError(f"a child of the test process is left {state}")
