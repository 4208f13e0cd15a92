"""Record paired end-to-end benchmark runs in a ``BENCH_<pr>.json`` file.

The current directory is the checkout of the change; ``--parent DIR`` is a
checkout of its parent commit.  Every workload runs ``PAIRS`` alternating
parent/change pairs of ``perfbench/run.py --workload W --trace 0`` at
perfbench's default run length, the parent first in even pairs and the
change first in odd ones; the file keeps each run's last stdout line (the
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``),
and under ``raw`` the raw median pass wall time, raw set-up time and
machine speed relative to the reference that its summary line prints.
For every metric it then gives each side's median and quartiles and the
number of pairs the change won (lower is better for every end-to-end
metric); ``raw.wall_s`` and ``raw.speed`` give each side's median and
quartiles of the raw numbers, so that a gain can be told apart from a
difference in machine speed between the sides.

Each side is named by the SHA-256 of its ``src/qlat`` sources, beside its
``HEAD`` commit and whether ``src/`` held uncommitted changes: the commit of
a dirty side names only the base its sources were edited on.

Usage, from the root of the change's checkout::

    python3 benchmarks/record_bench.py --pr N --parent DIR [--seed S]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cochar", "witt", "cli-mix")
PAIRS = 10
RECORD_PREFIX = "run record: "
RUN_TIMEOUT_S = 1800
RAW_LINE = re.compile(r": raw wall_s (?P<wall_s>[\d.]+) s, raw setup_s (?P<setup_s>[\d.]+) s, "
                      r"machine speed (?P<speed>[\d.]+) x reference$")


def run_once(root: Path, workload: str, seed: int) -> tuple[dict, dict, dict]:
    """(run record, last-line result, raw numbers) of one ``perfbench/run.py`` run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"perfbench/run.py exited {proc.returncode} in {root}")
    record = next(json.loads(line[len(RECORD_PREFIX):]) for line in lines
                  if line.startswith(RECORD_PREFIX))
    raw = next(m.groupdict() for m in map(RAW_LINE.search, lines) if m)
    return record, json.loads(lines[-1]), {k: float(v) for k, v in raw.items()}


def src_dirty(root: Path) -> bool | None:
    """Whether ``git status`` shows changes under ``root/src``; None without git."""
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                          capture_output=True, text=True, timeout=60)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    """Per workload and metric: each side's spread and the change's wins."""
    out: dict = {}
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        out[workload] = {}
        for name in mine[0]["result"]["metrics"]:
            by_side: dict[str, dict[int, float]] = {"parent": {}, "change": {}}
            for r in mine:
                by_side[r["side"]][r["pair"]] = r["result"]["metrics"][name]["value"]
            entry = {side: _spread(list(vals.values())) for side, vals in by_side.items()}
            entry["change_wins"] = sum(
                by_side["change"][i] < by_side["parent"][i] for i in range(PAIRS))
            out[workload][name] = entry
        for name in ("wall_s", "speed"):
            out[workload][f"raw.{name}"] = {
                side: _spread([r["raw"][name] for r in mine if r["side"] == side])
                for side in ("parent", "change")
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit to pair each run with")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sides = {"change": Path.cwd(), "parent": args.parent.resolve()}
    records: dict[str, dict] = {}
    runs = []
    for workload in WORKLOADS:
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                record, result, raw = run_once(sides[side], workload, args.seed)
                records.setdefault(side, record)
                runs.append({"workload": workload, "pair": pair, "side": side,
                             "result": result, "raw": raw})
                print(f"{workload} pair {pair} {side}: "
                      f"{json.dumps(result['metrics'], sort_keys=True)} raw "
                      f"{json.dumps(raw, sort_keys=True)}", flush=True)
    doc = {
        "pr": args.pr,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "pairs": PAIRS,
        "sides": {side: {"src_sha256": rec["src_sha256"], "commit": rec["commit"],
                         "src_dirty": src_dirty(sides[side])}
                  for side, rec in records.items()},
        "runs": runs,
        "summary": summarize(runs),
    }
    path = sides["change"] / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
