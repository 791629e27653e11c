"""One serial (workers=1) study through the library, optionally traced.

Run from the checkout root with ``src`` on ``PYTHONPATH``:

    python3 benchmark/inproc.py --workload mc-ic-cb-5x10 --seed 0 \
        --trace 1 --out benchmark/out/mc-ic-cb-5x10-traced

It calls ``experiments.run_experiment`` and ``render_report`` as the CLI
does, and writes ``<out>.stdout`` (the report), ``<out>.hist.csv`` and
``<out>.json`` (the root span's wall time and, when traced, every span).

Tracing wraps the layers' public functions at the names their callers look
up, so no file of the package changes. A span records its name, start, end,
parent, a work count and its tracemalloc peak above the traced memory at
its start. Spans stay in memory until the study ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc

import elimgame.experiments as experiments
import elimgame.sweep as sweep
from elimgame.core import EliminationSequence
from elimgame.cultures import CultureSpec, resolve_budget

from workloads import HIST_BINS, Workload, lookup


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _mark(self) -> int:
        """Fold the peak since the last mark into every open span."""
        current, peak = tracemalloc.get_traced_memory()
        for i in self._open:
            self.spans[i]["peak"] = max(self.spans[i]["peak"], peak)
        tracemalloc.reset_peak()
        return current

    def begin(self, name: str, work: int = 0) -> int:
        base = self._mark()
        self.spans.append({
            "name": name, "parent": self._open[-1] if self._open else None,
            "work": work, "base": base, "peak": base, "start": time.perf_counter(),
        })
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._mark()
        self._open.pop()

    def wrap(self, module, attr: str, name: str, work=None) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = self.begin(name, work(*args) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        setattr(module, attr, traced)

    def install(self) -> None:
        self.wrap(sweep, "sample_rankings_batch", "cultures.sample_rankings_batch",
                  work=lambda n, m, spec, seed, start, count: n * count)
        self.wrap(sweep, "permutation_table", "cultures.permutation_table")
        self.wrap(sweep, "play_batch_winners", "play.play_batch_winners",
                  work=lambda positions, turns: max(p.shape[0] for p in positions))
        for attr in ("run_exhaustive", "run_montecarlo"):
            self.wrap(experiments, attr, "sweep")
        for attr in ("exhaustive_witness", "montecarlo_witness"):
            self.wrap(experiments, attr, "experiments.witness")
        self.wrap(experiments, "render_report", "experiments.report")


def build_config(wl: Workload, seed: int) -> experiments.ExperimentConfig:
    """The configuration the CLI builds for the same workload and seed."""
    common = dict(
        n=wl.n, m=wl.m, sequence=EliminationSequence.parse(wl.sequence),
        mode=sweep.RatioMode.parse(wl.mode), workers=1, histogram_bins=HIST_BINS,
    )
    if wl.exhaustive:
        return experiments.ExperimentConfig(**common, budget=resolve_budget(None))
    return experiments.ExperimentConfig(
        **common, culture=CultureSpec.parse(wl.culture),
        samples=wl.samples, seed=seed,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--out", required=True, help="output path prefix")
    args = parser.parse_args(argv)
    wl = lookup(args.workload)
    config = build_config(wl, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracemalloc.start()
    t0 = time.perf_counter()
    root = tracer.begin("experiments") if tracer else None
    result = experiments.run_experiment(config)
    report = experiments.render_report(result)
    root_s = time.perf_counter() - t0
    if tracer:
        tracer.end(root)
        tracemalloc.stop()
    experiments.write_histogram_csv(args.out + ".hist.csv", result)
    with open(args.out + ".stdout", "w", newline="") as fh:
        fh.write(report)
    with open(args.out + ".json", "w") as fh:
        json.dump({"root_s": root_s, "spans": tracer.spans if tracer else []}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
