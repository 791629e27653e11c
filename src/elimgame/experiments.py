"""Ratio studies: exhaustive and Monte-Carlo sweeps and their reports.

This is the study layer the command line and the test suite share: the
sweeps' exact statistics, closed-form bounds, witness profiles, histogram
rows and the delimited output formats. Everything here is deterministic
given the configuration; in particular CSV and histogram bytes do not depend
on the worker count.

A sweep's whole result is one exact table of ascending ``(key, count, tag)``
rows of Python ints, a key per distinct Borda-score pair ``den * base + num``
with ``base = n(m-1) + 1``, and :func:`_finish` reads every statistic off it
in Python ints and Fractions. A CB exhaustive study takes its counts and the
maximum's first index, every row's tag, from one
:func:`~elimgame.trajectories.cb_study` call, so it never runs a chunk.
The numpy chunk engine in :mod:`elimgame.sweep` is imported only by the
studies that run chunks: AB exhaustive and Monte-Carlo ones.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import groupby
from math import factorial, sqrt

from .core import (
    CultureKind,
    CultureSpec,
    EliminationSequence,
    PreferenceProfile,
    Record,
    enumeration_size,
    format_profile,
    resolve_budget,
)
# imported under the name benchmark/inproc.py wraps for its witness span
from .core import profile_at_index as exhaustive_witness
from .errors import BudgetExceeded, ZeroWelfare
from .welfare import RatioMode, poa_for_sequence, ratio_json, sr_bound_for_sequence


class SweepResult(Record):
    """Exact reduction of a ratio population.

    ``max_index`` identifies the first profile attaining the maximum, the
    report's witness: an enumeration rank for exhaustive sweeps, a sample
    index for Monte-Carlo ones. ``pairs`` is the whole population as a
    tuple of ``(num, den, count)`` int rows, one per distinct Borda-score
    pair, in ``(den, num)`` order; every field but the index is read off it.
    """

    count: int
    mean: Fraction
    variance: Fraction
    max_ratio: Fraction
    max_index: int
    min_ratio: Fraction
    spike_count: int
    pairs: tuple[tuple[int, int, int], ...]

    _hidden = ("pairs",)

    @property
    def std(self) -> float:
        return sqrt(float(self.variance))


def _finish(rows, base: int) -> SweepResult:
    """The statistics of a table of ``(key, count, tag)`` rows, keys
    ``den * base + num`` ascending; the maximum's index is the lowest tag
    among the keys of the maximum ratio."""
    # keys ascend, so the first holds the lowest denominator
    if rows[0][0] < base:
        raise ZeroWelfare("strategic winner has zero Borda score")
    pairs = []
    mean = second = Fraction(0)
    tops, lows = [], []
    # Keys ascend by (den, num), so each denominator's rows form one run
    # that starts at its smallest ratio and ends at its largest. Each run
    # sums num and num**2 in Python ints, exact for any n(m-1) and any
    # population size, and adds one Fraction to each moment.
    for den, run in groupby(rows, key=lambda row: row[0] // base):
        run = [(key - den * base, count, tag) for key, count, tag in run]
        pairs += [(num, den, count) for num, count, _ in run]
        mean += Fraction(sum(count * num for num, count, _ in run), den)
        second += Fraction(sum(count * num * num for num, count, _ in run), den * den)
        lows.append(Fraction(run[0][0], den))
        num, _, tag = run[-1]
        tops.append((Fraction(num, den), tag))
    n_total = sum(count for _, _, count in pairs)
    mean /= n_total
    second /= n_total
    # Equal ratios under different keys (2/4, 3/6) compare equal as
    # Fractions, so the maximum goes to the lowest tag among them.
    max_ratio, max_index = min(tops, key=lambda p: (-p[0], p[1]))
    return SweepResult(
        count=n_total,
        mean=mean,
        variance=second - mean * mean,
        max_ratio=max_ratio,
        max_index=max_index,
        min_ratio=min(lows),
        spike_count=sum(count for num, den, count in pairs if num == den),
        pairs=tuple(pairs),
    )


def run_exhaustive(
    seq: EliminationSequence,
    n: int,
    m: int,
    mode: RatioMode,
    fix_first: bool = True,
    budget: int | None = None,
    workers: int = 1,
) -> SweepResult:
    """Evaluate the ratio on every profile of the enumeration.

    With ``fix_first`` the population is the pinned space, where voter 1
    ranks in identity order; without it, the full space. The sweep plays
    only the pinned space and scales the full space's counts by m!. That
    is exact: no Borda score depends on what the candidates are called, so
    each relabelling orbit holds m! profiles with one (num, den) pair and
    exactly one of them pinned, and the pinned profiles are the full
    order's first ``(m!)**(n-1)``, in the same order, so every first index
    and the witness stay the same. In CB mode the counts and the maximum's
    first index come from the trajectory study, and no chunk runs. The
    refusals read the population's size in
    CB mode too: neither the table nor the search has a bound of its own
    yet, and those refusals keep both within reach.
    """
    seq.validate(n, m)
    # Refused whatever the budget, before any chunk or table is built: from
    # m = 12 the m!*m-byte position table passes 1 GiB (5.4 GiB at m = 12),
    # and from 2**63 profiles the chunks' int64 grids and first indices would
    # wrap (the folded counts are Python ints). m >= 12, and n >= 64
    # with m > 1 (2**(n-1) pinned profiles or more), go before the exact
    # count, which takes 0.1 s at (65,536, 11). For m <= 11, n(m-1) > 63
    # means 2**63 pinned profiles or more, so the grid keeps at most 4,096 cells.
    scale = 1 if fix_first else factorial(m)
    if m >= 12 or (m > 1 and n >= 64) or (total := enumeration_size(n, m)) * scale >= 1 << 63:
        raise BudgetExceeded(
            f"exhaustive sweeps need m <= 11 and under 2**63 profiles, got n = {n} "
            f"and m = {m}; sample the space with montecarlo instead"
        )
    limit = resolve_budget(budget)
    if total * scale > limit:
        raise BudgetExceeded(
            f"exhaustive sweep needs {total * scale} profiles, over the budget of {limit}; "
            "raise ELIMGAME_BUDGET or pass --force"
        )
    if mode is RatioMode.AB:
        from . import sweep
        rows = sweep.exhaustive_table(seq, n, m, workers)
    else:
        # CB: the trajectory study gives the counts and the maximum's first
        # index, every row's tag, since _finish reads only the maximum's
        from .trajectories import cb_study  # no other study compiles the walk
        table, index = cb_study(seq.turns, n, m)
        rows = [(key, count, index) for key, count in sorted(table.items())]
    return _finish([(key, count * scale, tag) for key, count, tag in rows], n * (m - 1) + 1)


def run_montecarlo(
    seq: EliminationSequence,
    n: int,
    m: int,
    mode: RatioMode,
    culture: CultureSpec,
    samples: int,
    seed: int,
    workers: int = 1,
) -> SweepResult:
    """Evaluate the ratio on ``samples`` profiles drawn from ``culture``.

    Sample ``i`` is a pure function of ``(seed, i)``; chunking and worker
    count never change any output bit.
    """
    seq.validate(n, m)
    if samples < 1:
        raise ValueError("need at least one sample")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in 0..2**64-1, got {seed}")
    from . import sweep
    rows = sweep.montecarlo_table(seq, n, m, mode, culture, samples, seed, workers)
    return _finish(rows, n * (m - 1) + 1)


def montecarlo_witness(
    n: int, m: int, culture: CultureSpec, seed: int, index: int
) -> PreferenceProfile:
    """Profile behind a Monte-Carlo sweep's ``max_index``."""
    from . import sweep
    rows = sweep.sample_rankings_batch(n, m, culture, seed, index, 1)[0]
    return PreferenceProfile.from_rankings(rows.tolist())


CSV_HEADER = "sequence,n,m,mode,culture,phi,count,mean,std,max_num,max_den"
HIST_HEADER = "bin_left,bin_right,count"


class ExperimentConfig(Record):
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


class ExperimentResult(Record):
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
    # the bound first: a configuration outside the closed forms' domain is
    # refused before any profile is swept
    bound = ratio_range(config)[1]
    if config.culture is None:
        res = run_exhaustive(
            config.sequence, config.n, config.m, config.mode,
            fix_first=config.fix_first, budget=config.budget, workers=config.workers,
        )
        witness = exhaustive_witness(config.n, config.m, res.max_index)
    else:
        res = run_montecarlo(
            config.sequence, config.n, config.m, config.mode, config.culture,
            config.samples, config.seed, workers=config.workers,
        )
        witness = montecarlo_witness(
            config.n, config.m, config.culture, config.seed, res.max_index
        )
    return ExperimentResult(config, res, bound, witness)


def _culture_fields(culture: CultureSpec | None) -> tuple[str, float | None]:
    """A report's culture name and Mallows phi, or None (an empty CSV field)."""
    if culture is None:
        return "exhaustive", None
    return ("ic", None) if culture.kind is CultureKind.IMPARTIAL else ("mallows", culture.phi)


def csv_row(result: ExperimentResult) -> str:
    """One summary row under CSV_HEADER, reduced max as num/den fields."""
    cfg = result.config
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="")
    writer.writerow([
        cfg.sequence.compact(), cfg.n, cfg.m, cfg.mode.value, *_culture_fields(cfg.culture),
        result.sweep.count, repr(result.mean), repr(result.std),
        result.sweep.max_ratio.numerator, result.sweep.max_ratio.denominator,
    ])
    return buf.getvalue()


def histogram_rows(result: ExperimentResult) -> list[tuple[float, float, int]]:
    """(left, right, count) rows, left-ascending, zero-width spike at 1.0.

    The sweep's exact pair table is binned here and only here, by
    :func:`bin_pairs`: the configured number of equal-width float bins over
    :func:`ratio_range`.
    """
    low, high = ratio_range(result.config)
    return bin_pairs(result.sweep.pairs, float(low), float(high), result.config.histogram_bins)


def bin_pairs(pairs, low: float, high: float, bins: int) -> list[tuple[float, float, int]]:
    """(left, right, count) rows of ``(num, den, count)`` pairs in ``bins``
    equal-width bins over ``[low, high]``, left-ascending, with a
    zero-width spike row at 1.0.

    The edges are ``np.linspace``'s, bit for bit: edge ``i`` is
    ``i * step + low`` and the last is ``high``. Each pair's float ratio
    goes to the bin whose left edge it reaches, ``searchsorted``'s right
    side (values past either end go to the end bins). Regular bins hold only
    ratios different from 1; every exact 1 lands in the spike row, before
    the first bin whose left edge is at least 1.0. Counts sum to the
    population size.
    """
    step = (high - low) / bins
    edges = [i * step + low for i in range(bins)] + [high]
    hist = [0] * bins
    spike = 0
    for num, den, count in pairs:
        if num == den:
            spike += count
        else:
            hist[min(max(bisect_right(edges, num / den) - 1, 0), bins - 1)] += count
    rows = [(edges[i], edges[i + 1], c) for i, c in enumerate(hist)]
    rows.insert(bisect_left(edges, 1.0, 0, bins), (1.0, 1.0, spike))
    return rows


def write_histogram_csv(path, result: ExperimentResult) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(HIST_HEADER + "\n")
        for left, right, count in histogram_rows(result):
            fh.write(f"{left!r},{right!r},{count}\n")


def json_summary(result: ExperimentResult) -> dict:
    cfg = result.config
    sweep = result.sweep
    culture, phi = _culture_fields(cfg.culture)
    out = {
        "sequence": cfg.sequence.to_text(),
        "n": cfg.n,
        "m": cfg.m,
        "mode": cfg.mode.value,
        "culture": culture,
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
        out.update(phi=phi, samples=cfg.samples, seed=cfg.seed)
    return out


def render_report(result: ExperimentResult) -> str:
    """Summary CSV (header + row) followed by a single JSON line."""
    return "\n".join([
        CSV_HEADER,
        csv_row(result),
        json.dumps(json_summary(result), sort_keys=True),
    ]) + "\n"
