"""elimgame study benchmark: end-to-end CLI timings and a per-layer trace.

Run from the checkout root (no build step; the package runs from ``src``):

    python3 benchmark/run.py --workload exh-cb-3x7 --seed 0 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 0 --seconds 20 --trace 0
    python3 benchmark/selftest.py

``--trace 0`` times the user path. A study is one ``python -m elimgame``
process with ``src`` on ``PYTHONPATH`` and ``--workers 2``; studies of the
workload repeat one at a time until the next would end after ``--seconds``.
Each metric is the median over the run's studies:

- ``wall_s``: launch to exit of the study process (time to solution);
- ``profiles_per_s``: the study's profile count over its ``wall_s``;
- ``cpu_s``: user plus system CPU time of the process tree, read with
  ``os.wait4`` on the study's own process (pool workers are reaped by it);
- ``peak_rss_mb``: the largest resident set of any process in that tree,
  from the same ``os.wait4`` call;
- ``setup_s``: wall time of ``python -m elimgame bounds`` with the workload's
  ``--n/--m/--sequence`` (start-up, imports and argument validation, which
  every study pays first), median of ten runs: one untimed warm-up run and
  five timed runs before the studies, five timed runs after them.

``error_rate`` is failed CLI runs over attempted ones; a run fails when it
exits non-zero or fails the correctness gate in ``gate.py``. It is printed
with the metrics and sent as ``attempted``/``failed`` in the result line.

``--trace 1`` measures the layers. It times one study as above, then runs
the same study through the library with ``workers=1`` twice, each in a fresh
process (``inproc.py``): untraced, then traced. Both reports must be
byte-identical to the timed ``--workers 2`` stdout and histogram (worker-count
invariance). Self times (a span minus its children) come from the traced run;
``sweep.pool.speedup`` divides the untraced serial time by the timed study's
``wall_s - setup_s``, so tracing overhead does not inflate it.

Every run prints a metric table, writes its samples, provenance and spans to
``benchmark/out/<workload>-s<seed>-t<trace>.json``, and prints the result as
one JSON object on its last stdout line. Pinned bytes under
``benchmark/expected/`` are the CLI's stdout and ``--out`` histogram of each
workload at ``--seed 0``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, WORKERS, WORKLOADS, Workload, lookup

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: wall-clock budget of one run, inside the 180 s a run may take
RUN_BUDGET_S = 170.0
#: timed ``bounds`` runs per run, half before the studies and half after,
#: so that the median spans the run's window rather than one moment of it
SETUP_REPS = 10
SAMPLE, TABLE, PLAY = (
    "cultures.sample_rankings_batch",
    "cultures.permutation_table",
    "play.play_batch_winners",
)
#: layers whose self times share out the sweep span
SHARE_OF = {"cultures": "cultures.self_s", "play": f"{PLAY}.self_s",
            "sweep": "sweep.self_s"}

sys.path.insert(0, str(ROOT / "src"))
try:
    import gate
except ImportError:  # the package sources are not in this checkout
    gate = None


@dataclass
class Proc:
    """One finished child process and what ``os.wait4`` said about it."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    hist: bytes = b""
    #: exited 0 and passed the correctness gate
    ok: bool = False


@dataclass
class Tally:
    """Attempted and failed runs, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("ELIMGAME_BUDGET", None)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(args: list[str], stem: str, deadline: float) -> Proc:
    """Run ``python <args>`` in its own session, killed at ``deadline``."""
    out, err = OUT / f"{stem}.out", OUT / f"{stem}.err"
    wr = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), wr, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), wr, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], _child_env(),
                         file_actions=actions, setsid=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill_group, (pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        _kill_group(pid)  # pool workers a crashed study may have left
    return Proc(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                out.read_bytes(), err.read_bytes())


def _exit_problems(p: Proc) -> list[str]:
    if p.code == 0:
        return []
    tail = p.stderr.decode(errors="replace").strip().splitlines()[-1:]
    return [f"exit code {p.code} {tail}"]


def _gated(check, *args) -> list[str]:
    try:
        return check(*args)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def run_setup(wl: Workload, tally: Tally, deadline: float, reps: int,
              warm_up: bool) -> list[float]:
    """Wall times of ``reps`` gated ``bounds`` runs, optionally after one
    untimed run that warms the page and bytecode caches."""
    times = []
    for rep in range(-1 if warm_up else 0, reps):
        if time.monotonic() >= deadline:
            break
        p = spawn(["-m", "elimgame", *wl.bounds_args()], f"{wl.name}-bounds", deadline)
        problems = _exit_problems(p) or _gated(gate.check_bounds, wl, p.stdout)
        if tally.record(f"bounds run {rep}", problems) and rep >= 0:
            times.append(p.wall_s)
    return times


def run_study(wl: Workload, seed: int, tally: Tally, deadline: float,
              stem: str, expected, first: Proc | None = None) -> Proc:
    """One timed CLI study, gated; ``first`` is an earlier study it must equal."""
    hist = OUT / f"{stem}.hist.csv"
    hist.unlink(missing_ok=True)
    p = spawn(["-m", "elimgame", *wl.study_args(seed, WORKERS, str(hist))], stem, deadline)
    problems = _exit_problems(p)
    if not problems:
        p.hist = hist.read_bytes() if hist.exists() else b""
        problems = _gated(gate.check_study, wl, p.stdout, p.hist, expected)
        if first is not None and (p.stdout, p.hist) != (first.stdout, first.hist):
            problems.append("output differs from the run's first study")
    p.ok = tally.record(f"study {stem}", problems)
    return p


def _expected(wl: Workload, seed: int):
    return gate.expected_bytes(wl) if wl.pinned_for(seed) else None


def end_to_end(wl: Workload, seed: int, seconds: float, tally: Tally,
               deadline: float, samples: dict) -> dict | None:
    setup = run_setup(wl, tally, deadline, SETUP_REPS // 2, warm_up=True)
    expected = _expected(wl, seed)
    studies: list[Proc] = []
    t0 = time.monotonic()
    while time.monotonic() < deadline:
        p = run_study(wl, seed, tally, deadline, f"{wl.name}-s{seed}-study",
                      expected, studies[0] if studies else None)
        if p.ok:
            studies.append(p)
        now = time.monotonic()
        if now - t0 + p.wall_s > seconds or now + 1.5 * p.wall_s > deadline:
            break
    setup += run_setup(wl, tally, deadline, SETUP_REPS - len(setup), warm_up=False)
    samples.update(
        setup_s=setup,
        wall_s=[p.wall_s for p in studies],
        cpu_s=[p.cpu_s for p in studies],
        peak_rss_mb=[p.peak_rss_mb for p in studies],
    )
    if not studies or not setup:
        return None
    med = statistics.median
    return {
        "wall_s": (med(samples["wall_s"]), "s"),
        "profiles_per_s": (med(wl.count / p.wall_s for p in studies), "1/s"),
        "cpu_s": (med(samples["cpu_s"]), "s"),
        "peak_rss_mb": (med(samples["peak_rss_mb"]), "MiB"),
        "setup_s": (med(setup), "s"),
    }


def _self_times(spans: list[dict]) -> None:
    """Set each span's ``self``: its duration minus its children's."""
    for s in spans:
        s["self"] = s["end"] - s["start"]
    for s in spans:
        if s["parent"] is not None:
            spans[s["parent"]]["self"] -= s["end"] - s["start"]


def check_spans(spans: list[dict]) -> list[str]:
    """The trace has one root and one sweep, and the sweep's self time plus
    the self times of the spans under it add up to the sweep span."""
    sweeps = [i for i, s in enumerate(spans) if s["name"] == "sweep"]
    if len(sweeps) != 1 or [s["name"] for s in spans].count("experiments") != 1:
        return ["trace lacks exactly one experiments and one sweep span"]

    def under_sweep(s):
        while s["parent"] is not None:
            if s["parent"] == sweeps[0]:
                return True
            s = spans[s["parent"]]
        return False

    sweep = spans[sweeps[0]]
    total = sweep["end"] - sweep["start"]
    inside = sum(s["self"] for s in spans if under_sweep(s))
    if abs(inside + sweep["self"] - total) > 1e-9 * max(total, 1.0):
        return ["layer self times do not add up to the sweep span"]
    return []


def layer_metrics(wl: Workload, spans: list[dict], untraced_s: float,
                  traced_s: float, timed: Proc, setup_s: float) -> dict:
    """Per-layer metrics from the traced run's checked spans."""
    by = {name: [s for s in spans if s["name"] == name]
          for name in (SAMPLE, TABLE, PLAY, "sweep", "experiments", "experiments.witness",
                       "experiments.report")}
    self_s = {name: sum((s["self"] for s in group), 0.0) for name, group in by.items()}
    sweep = by["sweep"][0]
    sweep_s = sweep["end"] - sweep["start"]

    def peak_mb(group):
        return max((s["peak"] - s["base"] for s in group), default=0.0) / 2**20

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    votes = sum(s["work"] for s in by[SAMPLE])
    rows = sum(s["work"] for s in by[PLAY])
    # One self time for both cultures functions: each workload runs only one
    # of them, and the calls counts say which, so no time reads a fixed 0.
    return {
        "cultures.self_s": (self_s[SAMPLE] + self_s[TABLE], "s"),
        f"{SAMPLE}.calls": (len(by[SAMPLE]), "count"),
        f"{SAMPLE}.votes_per_s": (rate(votes, self_s[SAMPLE]), "1/s"),
        f"{SAMPLE}.peak_mb": (peak_mb(by[SAMPLE]), "MiB"),
        f"{TABLE}.calls": (len(by[TABLE]), "count"),
        f"{PLAY}.self_s": (self_s[PLAY], "s"),
        f"{PLAY}.calls": (len(by[PLAY]), "count"),
        f"{PLAY}.rows": (rows, "count"),
        f"{PLAY}.elims_per_s": (rate(rows * (wl.m - 1), self_s[PLAY]), "1/s"),
        "sweep.self_s": (sweep["self"], "s"),
        "sweep.span_s": (sweep_s, "s"),
        "sweep.peak_mb": (peak_mb([sweep]), "MiB"),
        "sweep.pool.speedup": (untraced_s / (timed.wall_s - setup_s), "ratio"),
        "sweep.pool.cpu_util": (timed.cpu_s / (WORKERS * timed.wall_s), "ratio"),
        "experiments.witness.self_s": (self_s["experiments.witness"], "s"),
        "experiments.report.self_s": (self_s["experiments.report"], "s"),
        "experiments.self_s": (self_s["experiments"], "s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1, "ratio"),
    }


def per_layer(wl: Workload, seed: int, tally: Tally, deadline: float,
              samples: dict) -> dict | None:
    setup = run_setup(wl, tally, deadline, SETUP_REPS, warm_up=True)
    timed = run_study(wl, seed, tally, deadline, f"{wl.name}-s{seed}-study",
                      _expected(wl, seed))
    root_s, spans = {}, []
    for traced in (0, 1):
        stem = f"{wl.name}-s{seed}-inproc{traced}"
        p = spawn([str(BENCH / "inproc.py"), "--workload", wl.name, "--seed", str(seed),
                   "--trace", str(traced), "--out", str(OUT / stem)], stem, deadline)
        problems = _exit_problems(p)
        if not problems:
            report = (OUT / f"{stem}.stdout").read_bytes()
            hist = (OUT / f"{stem}.hist.csv").read_bytes()
            if timed.ok and (report, hist) != (timed.stdout, timed.hist):
                problems.append("workers=1 report differs from the --workers 2 study")
            data = json.loads((OUT / f"{stem}.json").read_text())
            if traced:
                spans = data["spans"]
                _self_times(spans)
                problems += check_spans(spans)
        if tally.record(f"in-process run {stem}", problems):
            root_s[traced] = data["root_s"]
    samples["spans"] = spans
    if not timed.ok or len(root_s) < 2 or not setup:
        return None
    return layer_metrics(wl, spans, root_s[0], root_s[1], timed, statistics.median(setup))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, env=env)
    return r.stdout.strip() or None


def provenance(wl: Workload, seed: int, trace: int) -> dict:
    import elimgame
    import elimgame.sweep as sweep
    import numpy

    return {
        "workload": wl.name, "why": wl.why, "seed": seed, "trace": trace,
        "workers": WORKERS, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "elimgame": elimgame.__version__,
        "git_commit": _git_commit(), "MC_CHUNK": sweep.MC_CHUNK,
        "EXHAUSTIVE_OUTER_CHUNK": sweep.EXHAUSTIVE_OUTER_CHUNK,
        "study_args": wl.study_args(seed, WORKERS, "<hist.csv>"),
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: int) -> tuple[dict | None, Tally]:
    """Measure one workload; prints its table and writes its result file."""
    OUT.mkdir(exist_ok=True)
    tally, samples = Tally(), {}
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        metrics = per_layer(wl, seed, tally, deadline, samples)
    else:
        metrics = end_to_end(wl, seed, seconds, tally, deadline, samples)
    info = provenance(wl, seed, trace)
    print(f"workload {wl.name}: seed {seed}, --workers {WORKERS}, "
          f"{'per-layer trace' if trace else 'end to end'}")
    print(f"  why: {wl.why}")
    for name, (value, unit) in (metrics or {}).items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    if not trace and metrics:
        print(f"  {'(medians over)':<44} {len(samples['wall_s']):>16} studies, "
              f"{len(samples['setup_s'])} setup runs")
    if trace and metrics:
        sweep_s = metrics["sweep.span_s"][0]
        shares = {n: metrics[m][0] / sweep_s for n, m in SHARE_OF.items()}
        top = max(shares, key=shares.get)
        print("  shares of the traced sweep span: "
              + ", ".join(f"{n} {v:.1%}" for n, v in shares.items()))
        if wl.dominant:
            verdict = "confirmed" if top == wl.dominant else "NOT confirmed"
            print(f"  predicted dominant layer {wl.dominant}: {verdict}")
    print(f"  {'error_rate':<44} {tally.error_rate:>16.6g} ratio "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    for problem in tally.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    record = {"provenance": info, "metrics": metrics, "samples": samples,
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems}
    (OUT / f"{wl.name}-s{seed}-t{trace}.json").write_text(json.dumps(record))
    return metrics, tally


def result_line(metrics: dict, tally: Tally) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)} (or <name>-tiny), or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if gate is None or not (ROOT / "src" / "elimgame" / "__init__.py").is_file():
        print(f"error: no elimgame package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        chosen = list(WORKLOADS.values()) if args.workload == "all" else [lookup(args.workload)]
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    merged, total = {}, Tally()
    for wl in chosen:
        metrics, tally = run_workload(wl, args.seed, args.seconds, args.trace)
        if metrics is None:
            print(f"error: {wl.name} produced no measurement", file=sys.stderr)
            return 1
        prefix = f"{wl.name}:" if len(chosen) > 1 else ""
        merged.update({prefix + k: v for k, v in metrics.items()})
        total.attempted += tally.attempted
        total.failed += tally.failed
    print(result_line(merged, total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
