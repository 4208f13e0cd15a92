"""One benchmark pass, or one set-up run, in a fresh interpreter.

``python3 perfbench/worker.py setup``
    Times ``import qlat`` plus backend selection and prints one JSON line:
    the time, the probe time around it, the active backend and whether
    ``qlat._speedups`` imports.

``python3 perfbench/worker.py pass <workload> <seed> <trace>``
    Runs the workload's commands through ``qlat.cli.main``.  Their stdout
    goes to this process's stdout unchanged, which should be a regular file
    (see ``run.run_pass``).  The pass report (per-command exit codes and
    stdout byte counts, wall and CPU time, the median probe time, peak RSS,
    and with ``trace`` = 1 the per-layer spans) goes to stderr as the last
    line, after the marker ``REPORT_MARKER``.

Both expect the checkout's ``src`` directory on ``PYTHONPATH``.

The probe is a fixed pure-Python loop timed on the measured thread, before
and after the set-up and every ``PROBE_PERIOD_S`` during a pass.  On a
shared machine the speed a process gets drifts by tens of percent over
minutes; the probe time follows it (correlation 0.98 with the pass time
over back-to-back passes on a 2-core 2.1 GHz Xeon virtual machine), so
``run.py`` divides it out.
"""

from __future__ import annotations

import contextlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

REPORT_MARKER = "perfbench-report "

PROBE_LOOPS = 10_000
PROBE_PERIOD_S = 0.05  # the probe takes about 1.5% of a pass
SETUP_PROBES = 11  # before the import, and as many after


def probe() -> float:
    """Seconds taken by a fixed loop of ``PROBE_LOOPS`` iterations."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs :func:`probe` from a ``SIGALRM`` timer while the block runs.

    ``samples`` holds every probe time, one taken on entry and one on exit
    included; ``busy`` is the time the timer-driven probes took, which the
    pass subtracts from its wall and CPU time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy = 0.0

    def _tick(self, signum, frame) -> None:
        dt = probe()
        self.samples.append(dt)
        self.busy += dt

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())


def _setup() -> None:
    before = [probe() for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    import qlat

    backend = qlat.kernels.backend_name()
    seconds = time.perf_counter() - t0
    after = [probe() for _ in range(SETUP_PROBES)]
    try:
        import qlat._speedups  # noqa: F401
        speedups = True
    except ImportError:
        speedups = False
    print(json.dumps({"setup_s": seconds, "probe_s": statistics.median(before + after),
                      "backend": backend, "speedups": speedups,
                      "qlat_file": qlat.__file__}))


class _CountingStdout:
    """Pass-through stdout that counts the bytes written to it."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode(self._stream.encoding))
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_ops(ops, main, out: _CountingStdout) -> list[dict]:
    results = []
    for op in ops:
        start, error, rc = out.bytes, None, None
        try:
            rc = main(list(op.argv))
        except SystemExit as exc:  # argparse rejecting the command line
            rc = exc.code
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        out.flush()
        results.append({"rc": rc, "error": error, "bytes": out.bytes - start})
    return results


def _pass(workload: str, seed: int, trace: bool) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import qlat
    import qlat.cli
    from workloads import operations

    ops = operations(workload, seed)
    out = sys.stdout = _CountingStdout(sys.stdout)
    report: dict = {"backend": qlat.kernels.backend_name()}
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    with tracer or contextlib.nullcontext(), SpeedProbe() as speed:
        main = qlat.cli.main  # the wrapped binding when tracing
        cpu0, t0 = _cpu_s(), time.perf_counter()
        report["ops"] = _run_ops(ops, main, out)
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["edges"] = tracer.edge_list()
    report["wall_s"] = wall - speed.busy
    report["cpu_s"] = cpu - speed.busy
    report["probe_s"] = statistics.median(speed.samples)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stderr.write(REPORT_MARKER + json.dumps(report) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        _setup()
    elif sys.argv[1:2] == ["pass"] and len(sys.argv) == 5:
        _pass(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")
    else:
        sys.exit("usage: worker.py setup | worker.py pass <workload> <seed> <0|1>")
