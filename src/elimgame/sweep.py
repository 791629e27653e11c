"""Chunked ratio sweeps over profile spaces, exhaustive and Monte-Carlo.

Each welfare ratio is a quotient of two integer Borda scores in
``0..n(m-1)``, so a sweep's whole result is one exact table: every distinct
(numerator, denominator) pair, how often it occurs and the lowest
enumeration or sample index that produced it. Chunks build such tables,
which merge exactly in any order, so results are bit-identical for every
worker count and chunk size. The count, the exact mean and variance, the
spike at exactly 1 and the extremes with their indices (equal ratios such
as 2/4 and 3/6 going to the lowest index) are read off the final table,
which the result also carries for reports to bin.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, sqrt

import numpy as np

from .core import EliminationSequence, PreferenceProfile
from .cultures import (
    CultureSpec,
    enumeration_size,
    permutation_table,
    profile_at_index,
    ranking_ids,
    resolve_budget,
    sample_positions_batch,
    sample_rankings_batch,
)
from .errors import BudgetExceeded, ZeroWelfare
from .play import play_batch_winners, table_batch_winners, worst_alive_table

#: batches per exhaustive chunk. A batch fixes every voter but the last and
#: runs the last voter over up to min(m!, max(1, MC_CHUNK // n)) consecutive
#: ranking ids, so a chunk is a range of at most EXHAUSTIVE_OUTER_CHUNK
#: batches' worth of consecutive profile indices
EXHAUSTIVE_OUTER_CHUNK = 64
#: largest m whose exhaustive sweeps play through a worst-alive table
#: (m! * 2**m int8 per process: 0.62 MiB at m=7, 9.8 MiB at m=8)
WORST_TABLE_MAX_M = 7
#: voter rows per Monte-Carlo chunk: a chunk holds max(1, MC_CHUNK // n)
#: samples, so one 8-byte sampling-word row is 512 KiB and every array the
#: chunk builds stays about a core's L2 in size
MC_CHUNK = 1 << 16


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
    """Exact table of a ratio population: one row per distinct pair.

    A pair ``(num, den)`` is keyed ``den * base + num`` with
    ``base = den_limit + 1``; a row holds a key, its count and the lowest
    tag (enumeration or sample index) that produced it. Each batch adds its
    own table, and :meth:`table` folds them into one, the same in any order.
    """

    __slots__ = ("base", "parts")

    def __init__(self, den_limit: int):
        self.base = den_limit + 1
        empty = np.zeros(0, dtype=np.int64)
        self.parts = [(empty, empty, empty)]

    def absorb_batch(self, num, den, tag_offset):
        """Add one evaluated batch; tags are tag_offset + row index."""
        if den.min(initial=1) <= 0:
            raise ZeroWelfare("strategic winner has zero Borda score")
        # Keys go to the narrowest unsigned type that holds them because
        # np.unique sorts stably when asked for first indices, and numpy's
        # stable sort is a radix sort for 8- and 16-bit integers, faster than
        # the timsort wider keys get; keys fit 16 bits while n(m-1) <= 255.
        keys = (den * self.base + num).astype(np.min_scalar_type(self.base * self.base - 1))
        keys, first, counts = np.unique(keys, return_index=True, return_counts=True)
        self.parts.append((keys.astype(np.int64), counts, first + tag_offset))

    def merge(self, other: "_Summary"):
        """Fold another chunk's summary into this one."""
        self.parts += other.parts
        self.parts = [self.table()]

    def table(self):
        """(keys, counts, tags), one row per distinct key, keys ascending."""
        keys, counts, tags = (np.concatenate(col) for col in zip(*self.parts))
        order = np.lexsort((tags, keys))
        keys = keys[order]
        heads = np.flatnonzero(np.diff(keys, prepend=-1))
        return keys[heads], np.add.reduceat(counts[order], heads), tags[order][heads]


@dataclass(frozen=True)
class SweepResult:
    """Exact reduction of a ratio population.

    ``max_index``/``min_index`` identify the first profile attaining each
    extreme: an enumeration rank for exhaustive sweeps, a sample index for
    Monte-Carlo ones. ``pairs`` is the whole population as a ``(k, 3)``
    int64 array of ``(num, den, count)`` rows, one per distinct Borda-score
    pair, in ``(den, num)`` order; every field but the two indices is read
    off it.
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
    pairs: np.ndarray = field(compare=False, repr=False)

    @property
    def std(self) -> float:
        return sqrt(float(self.variance))


def _finish(summary: _Summary, mode: RatioMode) -> SweepResult:
    keys, counts, tags = summary.table()
    den, num = np.divmod(keys, summary.base)
    # Keys ascend by (den, num), so each denominator's rows form one run
    # that starts at its smallest ratio and ends at its largest.
    heads = np.flatnonzero(np.diff(den, prepend=-1))
    tails = np.append(heads[1:], den.shape[0]) - 1
    # Sums of num and num**2 per denominator in Python ints (object arrays):
    # exact for any n(m-1) and any population size.
    big_num = num.astype(object)
    weighted = counts.astype(object) * big_num
    firsts = np.add.reduceat(weighted, heads)
    seconds = np.add.reduceat(weighted * big_num, heads)
    dens = den[heads].tolist()
    n_total = int(counts.sum())
    mean = sum(map(Fraction, firsts, dens), Fraction(0)) / n_total
    second = sum(map(Fraction, seconds, [d * d for d in dens]), Fraction(0)) / n_total
    # Equal ratios under different keys (2/4, 3/6) compare equal as
    # Fractions, so each extreme goes to the lowest tag among them.
    def candidates(rows):
        return [(Fraction(int(num[i]), int(den[i])), int(tags[i])) for i in rows]
    max_ratio, max_index = min(candidates(tails), key=lambda p: (-p[0], p[1]))
    min_ratio, min_index = min(candidates(heads))
    return SweepResult(
        mode=mode,
        count=n_total,
        mean=mean,
        variance=second - mean * mean,
        max_ratio=max_ratio,
        max_index=max_index,
        min_ratio=min_ratio,
        min_index=min_index,
        spike_count=int(counts[num == den].sum()),
        pairs=np.column_stack((num, den, counts)),
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
    return worst_alive_table(permutation_table(m))


def _exhaustive_chunk(args) -> _Summary:
    turns, rev_turns, n, m, mode, fix_first, batch, start, count = args
    pos = permutation_table(m)
    fact = pos.shape[0]
    table = _worst_table(m) if m <= WORST_TABLE_MAX_M else None
    summary = _Summary(n * (m - 1))
    index, end = start, start + count
    while index < end:
        # Every voter but the last keeps one ranking id; the last voter's ids
        # low..high-1 are the profiles index..index+high-low-1.
        ids = ranking_ids(n, m, index, fix_first)
        low = ids.pop()
        high = min(fact, low + batch, low + end - index)
        # Borda scores n(m-1) - slot sums
        fixed = n * (m - 1) - pos[ids].sum(axis=0, dtype=np.int32)
        scores = np.subtract(fixed, pos[low:high], dtype=np.int32)
        if table is None:
            winners = partial(play_batch_winners, [pos[i:i + 1] for i in ids] + [pos[low:high]])
        else:
            winners = partial(table_batch_winners, table, ids + [np.arange(low, high)])
        num, den = _evaluate(winners, scores, turns, rev_turns, mode)
        summary.absorb_batch(num, den, index)
        index += high - low
    return summary


def _montecarlo_chunk(args) -> _Summary:
    turns, rev_turns, n, m, mode, culture, seed, start, count = args
    pos = sample_positions_batch(n, m, culture, seed, start, count)
    # Borda scores n(m-1) - slot sums, in place: a copy cost ~1 MiB RSS at (5, 10)
    scores = pos.sum(axis=1, dtype=np.int32)
    np.subtract(n * (m - 1), scores, out=scores)
    summary = _Summary(n * (m - 1))
    num, den = _evaluate(
        partial(play_batch_winners, pos.swapaxes(0, 1)), scores, turns, rev_turns, mode
    )
    summary.absorb_batch(num, den, start)
    return summary


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_order(pool, fn, args, depth: int):
    """Yield ``fn(a)`` for each of ``args`` in order, run on ``pool`` with at
    most ``depth`` tasks submitted and not yet yielded."""
    pending = deque()
    for a in args:
        pending.append(pool.submit(fn, a))
        if len(pending) == depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _run_chunks(fn, static, total: int, chunk: int, workers: int) -> _Summary:
    """Merge ``fn`` over the chunks of ``range(total)`` in chunk order.

    This is the one place chunk ranges are built: chunk ``k`` is called with
    ``(*static, start, count)`` for ``start = k * chunk`` and ``count`` up to
    ``chunk``. The arguments are built lazily; the pool has at most one
    process per usable CPU and keeps at most two chunks per process in
    flight, so memory does not grow with the chunk count.
    """
    args = ((*static, start, min(chunk, total - start)) for start in range(0, total, chunk))
    workers = min(workers, -(-total // chunk), _usable_cpus())
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or nullcontext():
        summaries = _in_order(pool, fn, args, 2 * workers) if pool else map(fn, args)
        merged = next(summaries)
        for s in summaries:
            merged.merge(s)
    return merged


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
    batch = min(factorial(m), max(1, MC_CHUNK // n))
    static = (seq.turns, seq.reverse().turns, n, m, mode, fix_first, batch)
    summary = _run_chunks(
        _exhaustive_chunk, static, total, EXHAUSTIVE_OUTER_CHUNK * batch, workers
    )
    return _finish(summary, mode)


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
    static = (seq.turns, seq.reverse().turns, n, m, mode, culture, seed)
    summary = _run_chunks(_montecarlo_chunk, static, samples, max(1, MC_CHUNK // n), workers)
    return _finish(summary, mode)


def exhaustive_witness(n: int, m: int, index: int, fix_first: bool = True) -> PreferenceProfile:
    """Profile behind an exhaustive sweep's ``max_index``/``min_index``."""
    return profile_at_index(n, m, index, fix_first)


def montecarlo_witness(
    n: int, m: int, culture: CultureSpec, seed: int, index: int
) -> PreferenceProfile:
    """Profile behind a Monte-Carlo sweep's ``max_index``/``min_index``."""
    rows = sample_rankings_batch(n, m, culture, seed, index, 1)[0]
    return PreferenceProfile.from_rankings([tuple(int(c) for c in r) for r in rows])
