"""Chunked ratio sweeps over profile spaces, exhaustive and Monte-Carlo.

Both drivers reduce fixed-size chunks of work to one integer summary and
merge summaries in chunk order, so results are bit-identical for every
worker count. The trick making that cheap: each welfare ratio is a quotient
of two Borda scores, and the score of the strategic winner (the shared
denominator) is at most ``n * (m - 1)``. Chunks therefore accumulate exact
int64 sums of numerators, and of squared numerators, bucketed by
denominator; means and variances come out as exact fractions afterwards.
Extremes are tracked as integer pairs and compared by cross-multiplication,
ties resolved toward the lowest enumeration or sample index.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from math import sqrt

import numpy as np

from .core import EliminationSequence, PreferenceProfile
from .cultures import (
    CultureSpec,
    enumeration_size,
    index_digits,
    permutation_table,
    profile_at_index,
    resolve_budget,
    sample_positions_batch,
    sample_rankings_batch,
)
from .errors import BudgetExceeded, ZeroWelfare
from .play import play_batch_winners, table_batch_winners, worst_alive_table

#: outer-voter assignments per exhaustive chunk (each costs m! evaluations)
EXHAUSTIVE_OUTER_CHUNK = 64
#: largest m whose exhaustive sweeps play through a worst-alive table
#: (m! * 2**m int8 per process: 0.62 MiB at m=7, 9.8 MiB at m=8)
WORST_TABLE_MAX_M = 7
#: most samples per Monte-Carlo chunk
MC_CHUNK = 1 << 16
#: bytes of sampling words a Monte-Carlo chunk draws, (n+1)(m-1) 8-byte words
#: per sample; a chunk's arrays are no larger per sample, so wide profiles get
#: fewer samples per chunk
MC_WORD_BYTES = 128 << 20


class RatioMode(Enum):
    """Which welfare ratio a sweep evaluates.

    AB: Borda-best score over the strategic winner's score (anarchy).
    CB: sincere winner's score over the strategic winner's score (sincerity);
    the only mode that can dip below 1.
    """

    AB = "ab"
    CB = "cb"

    @classmethod
    def parse(cls, text: str) -> "RatioMode":
        return cls(text.lower())


class _Summary:
    """Mutable per-chunk reduction state; merged across chunks in order."""

    __slots__ = (
        "count", "num_sums", "sq_sums", "spike",
        "max_num", "max_den", "max_tag",
        "min_num", "min_den", "min_tag",
        "hist",
    )

    def __init__(self, den_limit: int, bins: int | None):
        self.count = 0
        self.num_sums = np.zeros(den_limit + 1, dtype=np.int64)
        self.sq_sums = np.zeros(den_limit + 1, dtype=np.int64)
        self.spike = 0
        self.max_num = self.max_den = 0
        self.max_tag = -1
        self.min_num = self.min_den = 0
        self.min_tag = -1
        self.hist = None if bins is None else np.zeros(bins, dtype=np.int64)

    def absorb_batch(self, num, den, tag_offset, edges):
        """Fold one evaluated batch in; tags are tag_offset + row index."""
        if den.min(initial=1) <= 0:
            raise ZeroWelfare("strategic winner has zero Borda score")
        b = num.shape[0]
        self.count += b
        self.num_sums += np.bincount(
            den, weights=num, minlength=self.num_sums.shape[0]
        ).astype(np.int64)
        self.sq_sums += np.bincount(
            den, weights=num * num, minlength=self.sq_sums.shape[0]
        ).astype(np.int64)
        self.spike += int((num == den).sum())
        ratios = num / den
        # float argmax/argmin are exact here: distinct ratios with these
        # denominators differ by >= 1/den_limit**2, far above float error,
        # and argmax returns the first (lowest-tag) of equal entries.
        i = int(np.argmax(ratios))
        self._offer_max(int(num[i]), int(den[i]), tag_offset + i)
        j = int(np.argmin(ratios))
        self._offer_min(int(num[j]), int(den[j]), tag_offset + j)
        if self.hist is not None:
            off = num != den
            r = ratios[off]
            idx = np.searchsorted(edges, r, side="right") - 1
            idx = np.clip(idx, 0, self.hist.shape[0] - 1)
            self.hist += np.bincount(idx, minlength=self.hist.shape[0]).astype(np.int64)

    def _offer_max(self, num, den, tag):
        if self.max_tag < 0:
            better = True
        else:
            cross = num * self.max_den - self.max_num * den
            better = cross > 0 or (cross == 0 and tag < self.max_tag)
        if better:
            self.max_num, self.max_den, self.max_tag = num, den, tag

    def _offer_min(self, num, den, tag):
        if self.min_tag < 0:
            better = True
        else:
            cross = num * self.min_den - self.min_num * den
            better = cross < 0 or (cross == 0 and tag < self.min_tag)
        if better:
            self.min_num, self.min_den, self.min_tag = num, den, tag

    def merge(self, other: "_Summary"):
        """Fold a later chunk's summary into this one (call in chunk order)."""
        self.count += other.count
        self.num_sums += other.num_sums
        self.sq_sums += other.sq_sums
        self.spike += other.spike
        if other.max_tag >= 0:
            self._offer_max(other.max_num, other.max_den, other.max_tag)
        if other.min_tag >= 0:
            self._offer_min(other.min_num, other.min_den, other.min_tag)
        if self.hist is not None:
            self.hist += other.hist


@dataclass(frozen=True)
class SweepResult:
    """Exact reduction of a ratio population.

    ``max_index``/``min_index`` identify the first profile attaining each
    extreme: an enumeration rank for exhaustive sweeps, a sample index for
    Monte-Carlo ones.
    """

    mode: RatioMode
    count: int
    mean: Fraction
    variance: Fraction
    max_ratio: Fraction
    max_index: int
    min_ratio: Fraction
    min_index: int
    spike_count: int
    hist_edges: np.ndarray | None = None
    hist_counts: np.ndarray | None = None

    @property
    def std(self) -> float:
        return sqrt(float(self.variance))


def _finish(summary: _Summary, mode: RatioMode, edges) -> SweepResult:
    n_total = summary.count
    mean = Fraction(0)
    second = Fraction(0)
    for d in range(1, summary.num_sums.shape[0]):
        s = int(summary.num_sums[d])
        q = int(summary.sq_sums[d])
        if s:
            mean += Fraction(s, d)
        if q:
            second += Fraction(q, d * d)
    mean /= n_total
    second /= n_total
    return SweepResult(
        mode=mode,
        count=n_total,
        mean=mean,
        variance=second - mean * mean,
        max_ratio=Fraction(summary.max_num, summary.max_den),
        max_index=summary.max_tag,
        min_ratio=Fraction(summary.min_num, summary.min_den),
        min_index=summary.min_tag,
        spike_count=summary.spike,
        hist_edges=edges,
        hist_counts=None if summary.hist is None else summary.hist,
    )


def _evaluate(winners, scores, turns, rev_turns, mode):
    """(numerator, denominator) arrays for one batch.

    ``winners(turns)`` plays the batch sincerely on ``turns``; the strategic
    winner is sincere play on the reversed sequence.
    """
    spne = winners(rev_turns)
    rows = np.arange(spne.shape[0])
    den = scores[rows, spne].astype(np.int64)
    if mode is RatioMode.CB:
        num = scores[rows, winners(turns)].astype(np.int64)
    else:
        num = scores.max(axis=1).astype(np.int64)
    return num, den


@lru_cache(maxsize=2)
def _worst_table(m: int) -> np.ndarray:
    return worst_alive_table(permutation_table(m)[1])


def _exhaustive_chunk(args) -> _Summary:
    (turns, rev_turns, n, m, mode, fix_first, outer_start, outer_len,
     bins, edges) = args
    perms, pos = permutation_table(m)
    fact = perms.shape[0]
    contrib = (m - 1 - pos).astype(np.int32)
    free = n - (1 if fix_first else 0)
    summary = _Summary(n * (m - 1), bins)
    # Voters are ranking ids into the permutation table: the pinned voter 0
    # and the middle voters hold one id per outer index, the last voter runs
    # over every ranking. A single pinned voter (no free voter) is that last
    # voter with the identity as its only ranking.
    pinned = [0] if fix_first and free else []
    middle = n - 1 - len(pinned)
    last = np.arange(fact if free else 1)
    table = _worst_table(m) if m <= WORST_TABLE_MAX_M else None
    for outer in range(outer_start, outer_start + outer_len):
        ids = pinned + index_digits(outer, fact, middle)
        scores = contrib[ids].sum(axis=0, dtype=np.int32) + contrib[:last.shape[0]]
        ids.append(last)
        if table is None:
            winners = partial(play_batch_winners, [pos[np.atleast_1d(i)] for i in ids])
        else:
            winners = partial(table_batch_winners, table, ids)
        num, den = _evaluate(winners, scores, turns, rev_turns, mode)
        summary.absorb_batch(num, den, outer * fact, edges)
    return summary


def _montecarlo_chunk(args) -> _Summary:
    (turns, rev_turns, n, m, mode, culture, seed, start, count,
     bins, edges) = args
    pos = sample_positions_batch(n, m, culture, seed, start, count)
    pos_list = [pos[:, v, :] for v in range(n)]
    scores = (m - 1 - pos).sum(axis=1, dtype=np.int32)
    summary = _Summary(n * (m - 1), bins)
    num, den = _evaluate(
        partial(play_batch_winners, pos_list), scores, turns, rev_turns, mode
    )
    summary.absorb_batch(num, den, start, edges)
    return summary


def _run_chunks(fn, args_list, workers: int) -> _Summary:
    pool = None
    if workers > 1 and len(args_list) > 1:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(args_list)))
    with pool or nullcontext():
        summaries = pool.map(fn, args_list, chunksize=1) if pool else map(fn, args_list)
        total = next(summaries)
        for s in summaries:
            total.merge(s)
    return total


def histogram_edges(low: Fraction, high: Fraction, bins: int) -> np.ndarray:
    """Equal-width bin edges over [low, high]."""
    if bins < 1:
        raise ValueError("need at least one bin")
    return np.linspace(float(low), float(high), bins + 1)


def run_exhaustive(
    seq: EliminationSequence,
    n: int,
    m: int,
    mode: RatioMode,
    fix_first: bool = True,
    budget: int | None = None,
    workers: int = 1,
    bins: int | None = None,
    edges: np.ndarray | None = None,
) -> SweepResult:
    """Evaluate the ratio on every profile of the enumeration.

    With ``fix_first`` (the default) voter 1 is pinned to the identity
    ranking; ratios are relabelling-invariant, so the reduced space carries
    the same distribution at 1/m! the cost.
    """
    seq.validate(n, m)
    total = enumeration_size(n, m, fix_first)
    limit = resolve_budget(budget)
    if total > limit:
        raise BudgetExceeded(
            f"exhaustive sweep needs {total} profiles, over the budget of {limit}; "
            "raise ELIMGAME_BUDGET or pass --force"
        )
    if bins is not None and edges is None:
        raise ValueError("bins without edges; compute edges first")
    perms, _ = permutation_table(m)
    fact = perms.shape[0]
    free = n - (1 if fix_first else 0)
    outer_total = fact ** max(free - 1, 0) if free > 0 else 1
    turns = seq.turns
    rev_turns = seq.reverse().turns
    args_list = [
        (turns, rev_turns, n, m, mode, fix_first, start,
         min(EXHAUSTIVE_OUTER_CHUNK, outer_total - start), bins, edges)
        for start in range(0, outer_total, EXHAUSTIVE_OUTER_CHUNK)
    ]
    summary = _run_chunks(_exhaustive_chunk, args_list, workers)
    return _finish(summary, mode, edges)


def run_montecarlo(
    seq: EliminationSequence,
    n: int,
    m: int,
    mode: RatioMode,
    culture: CultureSpec,
    samples: int,
    seed: int,
    workers: int = 1,
    bins: int | None = None,
    edges: np.ndarray | None = None,
) -> SweepResult:
    """Evaluate the ratio on ``samples`` profiles drawn from ``culture``.

    Sample ``i`` is a pure function of ``(seed, i)``; chunking and worker
    count never change any output bit.
    """
    seq.validate(n, m)
    if samples < 1:
        raise ValueError("need at least one sample")
    turns = seq.turns
    rev_turns = seq.reverse().turns
    chunk = min(MC_CHUNK, max(1, MC_WORD_BYTES // max(1, (n + 1) * (m - 1) * 8)))
    args_list = [
        (turns, rev_turns, n, m, mode, culture, seed, start,
         min(chunk, samples - start), bins, edges)
        for start in range(0, samples, chunk)
    ]
    summary = _run_chunks(_montecarlo_chunk, args_list, workers)
    return _finish(summary, mode, edges)


def exhaustive_witness(n: int, m: int, index: int, fix_first: bool = True) -> PreferenceProfile:
    """Profile behind an exhaustive sweep's ``max_index``/``min_index``."""
    return profile_at_index(n, m, index, fix_first)


def montecarlo_witness(
    n: int, m: int, culture: CultureSpec, seed: int, index: int
) -> PreferenceProfile:
    """Profile behind a Monte-Carlo sweep's ``max_index``/``min_index``."""
    rows = sample_rankings_batch(n, m, culture, seed, index, 1)[0]
    return PreferenceProfile.from_rankings([tuple(int(c) for c in r) for r in rows])
