"""Experiment drivers: exhaustive and Monte-Carlo ratio studies.

Wraps the sweep engine with the bookkeeping the command line and the test
suite share: closed-form bounds, witness profiles, histogram rows and the
delimited output formats. Everything here is deterministic given the
configuration; in particular CSV and histogram bytes do not depend on the
worker count.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import EliminationSequence, PreferenceProfile, format_profile
from .cultures import CultureSpec
from .sweep import (
    RatioMode,
    SweepResult,
    exhaustive_witness,
    montecarlo_witness,
    run_exhaustive,
    run_montecarlo,
)
from .welfare import poa_for_sequence, ratio_json, sr_bound_for_sequence

CSV_HEADER = "sequence,n,m,mode,culture,phi,count,mean,std,max_num,max_den"
HIST_HEADER = "bin_left,bin_right,count"


@dataclass(frozen=True)
class ExperimentConfig:
    """One ratio study: a sequence, a ratio mode and a profile source.

    ``culture`` None means exhaustive enumeration; otherwise ``samples``
    profiles are drawn. ``histogram_bins`` counts the equal-width bins laid
    over the provable ratio range; the exact-1.0 spike is kept separately.
    """

    n: int
    m: int
    sequence: EliminationSequence
    mode: RatioMode
    culture: CultureSpec | None = None
    samples: int = 0
    seed: int = 0
    workers: int = 1
    histogram_bins: int = 60
    fix_first: bool = True
    budget: int | None = None

    def __post_init__(self):
        self.sequence.validate(self.n, self.m)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.histogram_bins < 1:
            raise ValueError("need at least one histogram bin")
        if self.culture is not None and self.samples < 1:
            raise ValueError("Monte-Carlo runs need at least one sample")


def ratio_range(config: ExperimentConfig) -> tuple[Fraction, Fraction]:
    """Provable [low, high] range of the configured ratio.

    Both ratios are bounded above by their closed form and below by its
    reciprocal (trivially loose for AB, tight for CB under reversal), so
    histogram edges derived from the range are data-independent.
    """
    if config.mode is RatioMode.AB:
        high = poa_for_sequence(config.sequence, config.n, config.m)
    else:
        high = sr_bound_for_sequence(config.sequence, config.n, config.m)
    return 1 / high, high


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    sweep: SweepResult
    bound: Fraction
    witness: PreferenceProfile

    @property
    def mean(self) -> float:
        return float(self.sweep.mean)

    @property
    def std(self) -> float:
        return self.sweep.std


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    if config.culture is None:
        res = run_exhaustive(
            config.sequence, config.n, config.m, config.mode,
            fix_first=config.fix_first, budget=config.budget, workers=config.workers,
        )
        witness = exhaustive_witness(config.n, config.m, res.max_index, config.fix_first)
    else:
        res = run_montecarlo(
            config.sequence, config.n, config.m, config.mode, config.culture,
            config.samples, config.seed, workers=config.workers,
        )
        witness = montecarlo_witness(
            config.n, config.m, config.culture, config.seed, res.max_index
        )
    return ExperimentResult(config, res, ratio_range(config)[1], witness)


def csv_row(result: ExperimentResult) -> str:
    """One summary row under CSV_HEADER, reduced max as num/den fields."""
    cfg = result.config
    culture = "exhaustive" if cfg.culture is None else cfg.culture.describe()
    phi = "" if cfg.culture is None or cfg.culture.kind.value == "ic" else str(cfg.culture.phi)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="")
    writer.writerow([
        cfg.sequence.compact(), cfg.n, cfg.m, cfg.mode.value, culture, phi,
        result.sweep.count, repr(result.mean), repr(result.std),
        result.sweep.max_ratio.numerator, result.sweep.max_ratio.denominator,
    ])
    return buf.getvalue()


def histogram_rows(result: ExperimentResult) -> list[tuple[float, float, int]]:
    """(left, right, count) rows, left-ascending, zero-width spike at 1.0.

    The sweep's exact pair table is binned here and only here: the configured
    number of equal-width float bins over :func:`ratio_range`, each pair's
    float ratio going to the bin whose left edge it reaches (values past
    either end go to the end bins). Regular bins hold only ratios different
    from 1; every exact 1 lands in the spike row. Counts sum to the
    population size.
    """
    low, high = ratio_range(result.config)
    edges = np.linspace(float(low), float(high), result.config.histogram_bins + 1)
    num, den, counts = result.sweep.pairs.T
    off = num != den
    idx = np.searchsorted(edges, num[off] / den[off], side="right") - 1
    hist = np.zeros(edges.shape[0] - 1, dtype=np.int64)
    np.add.at(hist, np.clip(idx, 0, hist.shape[0] - 1), counts[off])
    rows = [(float(edges[i]), float(edges[i + 1]), int(c)) for i, c in enumerate(hist)]
    # the spike goes before the first bin whose left edge is at least 1.0
    rows.insert(int(np.searchsorted(edges[:-1], 1.0)), (1.0, 1.0, result.sweep.spike_count))
    return rows


def write_histogram_csv(path, result: ExperimentResult) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(HIST_HEADER + "\n")
        for left, right, count in histogram_rows(result):
            fh.write(f"{left!r},{right!r},{count}\n")


def json_summary(result: ExperimentResult) -> dict:
    cfg = result.config
    sweep = result.sweep
    out = {
        "sequence": cfg.sequence.to_text(),
        "n": cfg.n,
        "m": cfg.m,
        "mode": cfg.mode.value,
        "culture": "exhaustive" if cfg.culture is None else cfg.culture.describe(),
        "count": sweep.count,
        "mean": float(sweep.mean),
        "std": sweep.std,
        "mean_exact": {"num": sweep.mean.numerator, "den": sweep.mean.denominator},
        "max": ratio_json(sweep.max_ratio),
        "min": ratio_json(sweep.min_ratio),
        "spike_count": sweep.spike_count,
        "bound": ratio_json(result.bound),
        "max_witness": format_profile(result.witness).splitlines(),
    }
    if cfg.culture is not None:
        out["phi"] = None if cfg.culture.kind.value == "ic" else cfg.culture.phi
        out["samples"] = cfg.samples
        out["seed"] = cfg.seed
    return out


def render_report(result: ExperimentResult) -> str:
    """Summary CSV (header + row) followed by a single JSON line."""
    return "\n".join([
        CSV_HEADER,
        csv_row(result),
        json.dumps(json_summary(result), sort_keys=True),
    ]) + "\n"
