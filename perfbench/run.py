"""qlat end-to-end benchmark with an optional traced per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py [--workload cochar|witt|cli-mix|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each pass runs one workload's ``qlat`` commands in a fresh interpreter, so
module-level caches never carry over from one pass to the next.  Passes
repeat until the pass boundary nearest to ``--seconds`` (at least one pass
runs).  Every command of every pass, traced or not, must reproduce its
frozen stdout byte for byte and obey its law (see ``workloads.py``); each
process gets its own ``PYTHONHASHSEED``, derived from ``--seed``, so this
also shows that outputs do not depend on hash seeds.  A command that exits
nonzero, raises or mismatches is one failed operation; the summary prints
``failed_share``, failed over attempted operations.  The set-up time is
measured in separate fresh interpreters, half of them before the passes and
half after, so that its median spans the run.

Times are reported at the reference CPU speed: each measured time is scaled
by ``REFERENCE_PROBE_S`` over the median time of the probe loop taken in
the same process while it was measured (see ``worker.py``).  This removes
the drift of a shared machine's speed, which otherwise moves pass times by
tens of percent between runs of the same code.  The summary lines also give
the raw times and the machine's speed relative to the reference.

With ``--trace 0`` the run reports the end-to-end metrics: the median pass
wall time ``wall_s``, the median peak RSS of a pass process ``peak_rss_mb``
and the median set-up time ``setup_s``.  With ``--trace 1`` untraced and
traced passes alternate and the run reports the per-layer metrics of
``tracer.py`` (medians over traced passes), the raw median wall time
``process.wall_s`` and CPU time ``process.cpu_s`` of the untraced passes,
and the tracing overhead ``trace.overhead_s`` (traced minus untraced median
wall time, at reference speed).

Human-readable lines come first; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when the run completed, with ``correct`` saying whether
every check held, and 2 when the checkout holds no ``src/qlat``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import RATIOS, TARGETS  # noqa: E402
from worker import REPORT_MARKER  # noqa: E402

SETUP_RUNS = 16
# Median probe time, in seconds, on the machine the benchmark was written
# on: a 2-core 2.1 GHz Xeon virtual machine running CPython 3.11, at its
# faster times.
REFERENCE_PROBE_S = 0.00075
PASS_TIMEOUT_S = 170


def _env(root: Path, hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def _hash_seed(seed: int, index: int) -> int:
    """Each process gets its own hash seed, derived from the workload seed."""
    return (seed * 1009 + index) % 4294967296


def _setup_run(root: Path, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "setup"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def warm_up(root: Path, seed: int) -> dict:
    """One untimed set-up run: fills bytecode caches, checks which qlat imports."""
    first = _setup_run(root, _env(root, _hash_seed(seed, 0)))
    expected = root / "src" / "qlat" / "__init__.py"
    if Path(first["qlat_file"]).resolve() != expected.resolve():
        raise RuntimeError(f"imported qlat from {first['qlat_file']}, not {expected}")
    return first


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def setup_times(root: Path, seed: int, first: int, count: int) -> list[tuple[float, float]]:
    """(set-up time, probe time) of ``count`` fresh interpreters."""
    runs = [_setup_run(root, _env(root, _hash_seed(seed, i)))
            for i in range(first, first + count)]
    return [(r["setup_s"], r["probe_s"]) for r in runs]


def run_pass(root: Path, workload: str, seed: int, trace: bool, index: int) -> dict:
    """One pass in a fresh interpreter; returns its report and stdout."""
    # The pass's stdout is a regular file, not a pipe: when a signal (here
    # the probe's timer) interrupts a write blocked on a full pipe, CPython
    # can drop the rest of that write.
    with tempfile.TemporaryFile(dir=root) as out:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "pass", workload, str(seed),
             "1" if trace else "0"],
            cwd=root, env=_env(root, _hash_seed(seed, 100 + index)),
            stdout=out, stderr=subprocess.PIPE, timeout=PASS_TIMEOUT_S,
        )
        out.seek(0)
        stdout = out.read()
    err = proc.stderr.decode(errors="replace")
    _, _, tail = err.rpartition(REPORT_MARKER)
    if proc.returncode != 0 or not tail:
        sys.stderr.write(err[-4000:])
        raise RuntimeError(f"{workload} pass exited {proc.returncode} without a report")
    report = json.loads(tail)
    report["stdout"] = stdout
    return report


def check_pass(workload: str, seed: int, report: dict) -> list[str]:
    """One message per failed operation of the pass."""
    failures, pos, out = [], 0, report["stdout"]
    ops = workloads.operations(workload, seed)
    for i, (op, res) in enumerate(zip(ops, report["ops"])):
        chunk = out[pos:pos + res["bytes"]]
        pos += res["bytes"]
        why = workloads.check(op, res["rc"], res["error"], chunk)
        if why is None and i == len(ops) - 1 and pos != len(out):
            why = f"{len(out) - pos:+d} bytes on stdout that no command wrote"
        if why is not None:
            failures.append(f"{op.label}: {why}")
    return failures


def tail_percentile(samples: list[float]):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    pct = (100 * (n - 10)) // n
    ordered = sorted(samples)
    return pct, ordered[max(0, (pct * n + 99) // 100 - 1)]


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    first = warm_up(root, seed)
    half = SETUP_RUNS // 2
    setup = setup_times(root, seed, 1, half)
    kinds = (False, True) if trace else (False,)
    passes: dict[bool, list[dict]] = {k: [] for k in kinds}
    failures: list[str] = []
    attempted, index = 0, 0
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        for traced in kinds:
            report = run_pass(root, workload, seed, traced, index)
            index += 1
            attempted += len(report["ops"])
            failures += check_pass(workload, seed, report)
            del report["stdout"]
            passes[traced].append(report)
        now = time.perf_counter()
        if now + (now - round_start) / 2 >= deadline:
            break  # the next round would end further past the mark than this one
    setup += setup_times(root, seed, 1 + half, SETUP_RUNS - half)
    plain = passes[False]
    wall = [at_reference(p["wall_s"], p["probe_s"]) for p in plain]
    result = {
        "workload": workload,
        "setup_record": first,
        "attempted": attempted,
        "failures": failures,
        "wall_samples": wall,
        "raw": {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(s for s, _ in setup),
            "speed": REFERENCE_PROBE_S / statistics.median(
                [p["probe_s"] for p in plain] + [q for _, q in setup]),
        },
        "metrics": {
            "wall_s": (statistics.median(wall), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
            "setup_s": (statistics.median(at_reference(*st) for st in setup), "s"),
        },
    }
    if trace:
        result["layers"] = layer_metrics(passes[True], plain)
        result["edges"] = passes[True][-1]["edges"]
    return result


def layer_metrics(traced: list[dict], plain: list[dict]) -> dict:
    """Medians of the traced passes' layer metrics, plus CPU and overhead."""
    out = {}
    for name in traced[0]["layers"]:
        unit = "s" if name.endswith("_s") else "ratio" if name in RATIOS else "count"
        out[name] = (statistics.median(t["layers"][name] for t in traced), unit)
    out["process.wall_s"] = (statistics.median(p["wall_s"] for p in plain), "s")
    out["process.cpu_s"] = (statistics.median(p["cpu_s"] for p in plain), "s")
    overhead = (statistics.median(at_reference(t["wall_s"], t["probe_s"]) for t in traced)
                - statistics.median(at_reference(p["wall_s"], p["probe_s"]) for p in plain))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def source_digest(root: Path) -> str:
    """SHA-256 over the paths and bytes of ``src/qlat``'s sources.

    It names the code under test where no commit id is available."""
    h = hashlib.sha256()
    src = root / "src" / "qlat"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            h.update(path.relative_to(src).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run_record(root: Path, seed: int, setup_record: dict) -> dict:
    commit = "unknown"  # an exported checkout has no .git
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except OSError:
            pass
    return {
        "commit": commit,
        "src_sha256": source_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": setup_record["backend"],
        "speedups_importable": setup_record["speedups"],
        "QLAT_PURE": os.environ.get("QLAT_PURE"),
        "QLAT_PRECISION": os.environ.get("QLAT_PRECISION"),
        "seed": seed,
        "seed_reaches": "verify cokernel-m --seed (cli-mix) and each process's "
        "PYTHONHASHSEED; the exhaustive suites ignore it",
    }


def _summary(res: dict) -> list[str]:
    m, wall = res["metrics"], res["wall_samples"]
    tail = tail_percentile(wall)
    tail_txt = (f"p{tail[0]} {tail[1]:.3f} s" if tail
                else "no tail percentile (needs more than 10 samples)")
    failed = len(res["failures"])
    raw = res["raw"]
    lines = [
        f"{res['workload']}: wall_s {m['wall_s'][0]:.4f} s at reference speed, median "
        f"over {len(wall)} passes (min {min(wall):.4f}, max {max(wall):.4f}; {tail_txt})",
        f"{res['workload']}: raw wall_s {raw['wall_s']:.4f} s, raw setup_s "
        f"{raw['setup_s']:.4f} s, machine speed {raw['speed']:.3f} x reference",
        f"{res['workload']}: peak_rss_mb {m['peak_rss_mb'][0]:.1f} MB, setup_s "
        f"{m['setup_s'][0]:.4f} s, failed_share {failed}/{res['attempted']} = "
        f"{failed / res['attempted']:.4f}",
    ]
    lines += [f"{res['workload']}: FAILED {f}" for f in res["failures"]]
    if "layers" in res:
        layers = res["layers"]
        total = sum(layers[f"{mod}.self_s"][0] for mod in TARGETS) or 1.0
        shares = sorted(((layers[f"{mod}.self_s"][0] / total, mod) for mod in TARGETS),
                        reverse=True)
        lines.append(f"{res['workload']}: self-time share "
                     + ", ".join(f"{mod} {s:.1%}" for s, mod in shares))
        for e in res["edges"][:12]:
            lines.append(f"{res['workload']}:   {e['parent']} -> {e['child']}: "
                         f"{e['calls']} calls, {e['seconds']:.3f} s")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qlat" / "__init__.py").is_file():
        print(f"error: no src/qlat under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(root, w, args.seed, args.seconds, bool(args.trace))
               for w in names]
    print("run record: " + json.dumps(run_record(root, args.seed, results[0]["setup_record"]),
                                      sort_keys=True))
    metrics = {}
    for res in results:
        for line in _summary(res):
            print(line)
        chosen = res["layers"] if args.trace else res["metrics"]
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        for name, (value, unit) in chosen.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failures"]) for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
