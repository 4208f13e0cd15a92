"""The benchmark's own tests.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import io
import signal
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import qlat  # noqa: E402
import qlat.cli  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, span_names  # noqa: E402

COMMANDS = [
    ["lattice", "info", "H⊥E8"],
    ["k3-isogeny", "--d", "2", "--p", "3"],
    ["neighbors", "H⊥H", "--p", "3"],
    ["verify", "k3-degree"],
]


def _run_commands() -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        for argv in COMMANDS:
            assert qlat.cli.main(argv) == 0
    return buf.getvalue()


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "qlat" or name.startswith("qlat.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracing_keeps_stdout_and_restores_every_binding():
    before = _bindings()
    init = qlat.exact_linalg.IntMatrix.__init__
    plain = _run_commands()
    tracer = Tracer()
    with tracer:
        assert qlat.verify.run_suite is not before[("qlat.verify", "run_suite")]
        assert qlat.cli.run_suite is qlat.verify.run_suite  # imported by name
        traced = _run_commands()
    assert traced == plain
    assert _bindings() == before
    assert qlat.exact_linalg.IntMatrix.__init__ is init

    m = tracer.metrics()
    assert m["cli.main.calls"] == len(COMMANDS)
    assert m["verify.run_suite.calls"] == 1
    assert m["hecke_k3.k3_isogeny.calls"] > 1  # the CLI once, the suite more
    assert m["exact_linalg.IntMatrix.created"] > 0
    # one neighbor per isotropic line: (p + 1)(p^2 - 1)/(p - 1) = 16 for H⊥H at p = 3
    assert m["padic_lattice.lattice_from_line.calls"] == 16
    assert 0 < m["kernels.isotropic_lines.headroom"] < 1
    assert all(m[f"{name}.self_s"] >= 0 for name in span_names())
    # self times partition the outermost spans' time
    roots = sum(s for (parent, _), (_, s) in tracer.edges.items() if parent is None)
    total = sum(m[f"{mod}.self_s"] for mod in TARGETS)
    assert abs(total - roots) < 1e-6 * max(1.0, roots)


def test_check_accepts_frozen_output_and_rejects_changes():
    op = workloads.Op(("lattice", "info", "K3"))
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert qlat.cli.main(list(op.argv)) == 0
    out = buf.getvalue().encode()
    assert workloads.check(op, 0, None, out) is None
    assert "sha256" in workloads.check(op, 0, None, out.replace(b"22", b"23"))
    assert "exit code" in workloads.check(op, 1, None, out)
    assert "raised" in workloads.check(op, None, "ValueError: x", b"")


def test_seed_reaches_only_cokernel_m():
    a, b = workloads.operations("cli-mix", 1), workloads.operations("cli-mix", 2)
    differing = [x.label for x, y in zip(a, b) if x != y]
    assert differing == ["verify cokernel-m --seed 1"]
    assert workloads.operations("witt", 1) == workloads.operations("witt", 2)


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail_percentile([1.0] * 10) is None
    samples = [float(i) for i in range(100)]
    assert run.tail_percentile(samples[:11]) == (9, 0.0)
    assert run.tail_percentile(samples[:20]) == (50, 9.0)
    assert run.tail_percentile(samples) == (90, 89.0)


def test_speed_probe_samples_while_active_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with worker.SpeedProbe() as speed:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 4  # entry, exit and the timer's ticks
    assert 0 < speed.busy < sum(speed.samples)
    assert run.at_reference(2.0, 2 * run.REFERENCE_PROBE_S) == 1.0
