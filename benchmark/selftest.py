"""Self-test of the benchmark itself. Run from the checkout root:

    python3 benchmark/selftest.py

It runs every workload's end-to-end and traced paths at a tiny size and
expects no failure and exactly the metrics ``BENCHMARK.json`` lists. It then checks that the correctness gate counts bad
runs: a corrupted expected output, a witness whose ratio is not the reported
maximum and a study that exits non-zero must each raise ``error_rate``.
Last, a copy of the benchmark without the package sources must exit
non-zero and print no result. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import run
from workloads import BENCHMARK, WORKLOADS, Workload

SEED = 7


def _raises_error_rate(tally: run.Tally, what: str, problems: list[str]) -> bool:
    before = tally.error_rate
    tally.record(what, problems)
    return tally.error_rate > before


def fault_checks(wl: Workload) -> list[str]:
    """Each injected fault must raise the error rate; returns what did not."""
    tally = run.Tally()
    deadline = time.monotonic() + 60
    good = run.run_study(wl, SEED, tally, deadline, f"{wl.name}-selftest", None)
    if not good.ok:
        return [f"{wl.name}: clean study failed: {tally.problems}"]
    missed = []
    corrupted = good.stdout.replace(b",", b";", 1)
    problems = run.gate.check_study(wl, good.stdout, good.hist, (corrupted, good.hist))
    if not _raises_error_rate(tally, "corrupted expected output", problems):
        missed.append(f"{wl.name}: corrupted expected output passed the gate")

    lines = good.stdout.split(b"\n")
    summary = json.loads(lines[2])
    if summary["max"]["num"] == summary["max"]["den"]:
        missed.append(f"{wl.name}: reported max is 1, a unanimous witness proves nothing")
    # a unanimous profile has ratio exactly 1 under both modes
    summary["max_witness"] = [summary["max_witness"][0]] * wl.n
    lines[2] = json.dumps(summary, sort_keys=True).encode()
    problems = run.gate.check_study(wl, b"\n".join(lines), good.hist, None)
    if not any("witness ratio" in p for p in problems) or not _raises_error_rate(
            tally, "wrong witness ratio", problems):
        missed.append(f"{wl.name}: a wrong witness ratio passed the gate")

    before = tally.error_rate
    bad = run.run_study(replace(wl, sequence="1"), SEED, tally, deadline,
                        f"{wl.name}-selftest-bad", None)
    if bad.ok or tally.error_rate <= before:
        missed.append(f"{wl.name}: a non-zero exit did not raise the error rate")
    return missed


def bare_copy_check() -> list[str]:
    """Without ``src/``, the benchmark must fail fast and print no result."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "exh-cb-3x7",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["a checkout without src/ still produced a result"]
    return []


def main() -> int:
    if run.gate is None:
        print("error: run from a checkout that holds src/elimgame", file=sys.stderr)
        return 2
    run.OUT.mkdir(exist_ok=True)
    failures = []
    for base in WORKLOADS.values():
        wl = base.tiny()
        for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
            metrics, tally = run.run_workload(wl, SEED, 0.5, trace)
            if metrics is None or tally.failed:
                failures.append(f"{wl.name} trace {trace}: {tally.problems}")
            elif set(metrics) != {m["name"] for m in BENCHMARK[listed]}:
                failures.append(f"{wl.name} trace {trace}: metrics differ from "
                                f"the {listed} list of BENCHMARK.json")
        failures += fault_checks(wl)
    failures += bare_copy_check()
    for failure in failures:
        print(f"SELFTEST FAILED {failure}", file=sys.stderr)
    print(f"selftest: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
