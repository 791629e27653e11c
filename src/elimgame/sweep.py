"""Chunked ratio sweeps over profile spaces, exhaustive and Monte-Carlo.

Each welfare ratio is a quotient of two integer Borda scores in
``0..n(m-1)``, so a sweep's whole result is one exact table: every distinct
(numerator, denominator) pair, how often it occurs and the lowest
enumeration or sample index that produced it. Every chunk returns such a
table: a Monte-Carlo chunk sorts its one batch, and an exhaustive chunk
counts its batches into a grid of every possible pair. The tables are folded
in chunk order, and a fold is exact in any order, so results are
bit-identical for every worker count and chunk size. The count, the exact
mean and variance, the spike at exactly 1 and the extremes with their
indices (equal ratios such as 2/4 and 3/6 going to the lowest index) are
read off the final table, which the result also carries for reports to bin.

A CB exhaustive sweep takes its counts from
:func:`~elimgame.trajectories.cb_pair_table`, which counts trajectory pairs
instead of profiles, and scans chunks in order only until the folded prefix
holds both extreme ratios, whose first indices it then knows.

The batch play kernels live here, beside the chunks that call them; the
scalar engine in :mod:`elimgame.play` is their test oracle. Monte-Carlo
chunks and exhaustive sweeps with m > 7 play rank positions through
:func:`play_batch_winners`; smaller exhaustive sweeps play each batch's range
of last-voter ranking ids through a :func:`next_mask_table` with
:func:`range_batch_play`.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, sqrt

import numpy as np

from .core import EliminationSequence, PreferenceProfile
from .cultures import (
    CultureSpec,
    enumeration_size,
    fill_positions,
    permutation_table,
    ranking_ids,
    resolve_budget,
    sample_rankings_batch,
)
from .errors import BudgetExceeded, ZeroWelfare
from .trajectories import cb_pair_table
from .welfare import RatioMode

#: batches per exhaustive chunk. A batch fixes every voter but the last and
#: runs the last voter over up to min(m!, max(1, MC_CHUNK // n)) consecutive
#: ranking ids, so a chunk is a range of at most EXHAUSTIVE_OUTER_CHUNK
#: batches' worth of consecutive profile indices
EXHAUSTIVE_OUTER_CHUNK = 64
#: largest m whose exhaustive sweeps play ranking ids through a next-mask
#: table (2**m * m! uint8 per process: 0.62 MiB at m=7, 9.8 MiB at m=8; a
#: uint8 mask holds at most 8 candidates)
WORST_TABLE_MAX_M = 7
#: voter rows per Monte-Carlo chunk: a chunk holds max(1, MC_CHUNK // n)
#: samples, so one 8-byte sampling-word row is 512 KiB and every array the
#: chunk builds stays about a core's L2 in size
MC_CHUNK = 1 << 16


def play_batch_winners(positions, turns) -> np.ndarray:
    """Vectorised sincere play over a batch of profiles.

    ``positions`` is indexed by voter id; entry ``v`` is an ``(B, m)`` or
    ``(1, m)`` int array of 0-based rank slots (broadcast across the batch).
    Returns the ``(B,)`` winners as unsigned integers of the narrowest type
    that holds ``m - 1`` (uint8 up to 256 candidates), valid ``take``
    indices, in a fresh array the caller owns. This is the hot kernel
    behind the Monte-Carlo sweeps and the exhaustive sweeps too large for
    :func:`range_batch_play`, which plays ranking ids through a table of
    next alive masks instead; the scalar functions in :mod:`elimgame.play`
    stay the readable reference.

    Each turn works slot-major on the voters' ``(m, B)`` transposes: it
    multiplies the acting voter's slots by an ``(m, B)`` alive mask, reduces
    the m rows to each profile's worst alive slot and clears the entry equal
    to it. That is exact: the two or more alive slots are distinct, so the
    worst is at least 1, above every zeroed dead entry, and no other entry
    equals it. At the end exactly one entry per column is alive, so the
    winner is the column's largest ``alive * candidate`` product: a
    reduction over rows, where ``argmax(axis=0)`` would walk the mask
    strided (on 2 CPUs, 11 µs against 313 µs at m = 10, B = 13,107). The
    mask is multiplied as int8 and every op writes to one of this process's
    :func:`_play_buffers`, so no turn converts, allocates or faults in
    fresh pages. A Monte-Carlo chunk passes the voters of its ``(m, n, B)``
    :func:`~elimgame.cultures.fill_positions` block, whose ``(m, B)``
    transposes have contiguous rows, the fast path.
    """
    cols = [p.T for p in positions]
    shape = np.broadcast_shapes(*(c.shape for c in cols))
    alive, masked, worst, kept, product, ids = _play_buffers(
        shape, np.result_type(np.int8, *cols))
    alive[:] = True
    mask = alive.view(np.int8)
    for voter in turns:
        np.multiply(cols[voter], mask, out=masked)
        np.maximum.reduce(masked, axis=0, out=worst)
        np.not_equal(masked, worst, out=kept)
        alive &= kept
    np.multiply(alive.view(np.uint8), ids, out=product)
    return np.maximum.reduce(product, axis=0)


@lru_cache(maxsize=2)
def _play_buffers(shape: tuple[int, int], dtype: np.dtype):
    """The ``(m, B)`` buffers of :func:`play_batch_winners` for one shape
    and slot dtype, kept per process: the alive mask, the masked slots, the
    worst slots, the kept entries and the winner products, then the
    ``(m, 1)`` candidate ids. Every call overwrites them before it reads
    them, and its winners go to a fresh array, so nothing carries over."""
    m = shape[0]
    ids = np.arange(m, dtype=np.min_scalar_type(m - 1))[:, None]
    return (np.empty(shape, dtype=bool), np.empty(shape, dtype=dtype),
            np.empty(shape[1:], dtype=dtype), np.empty(shape, dtype=bool),
            np.empty(shape, dtype=ids.dtype), ids)


def next_mask_table(pos: np.ndarray) -> np.ndarray:
    """``N[mask, r]``: ``mask`` without the candidate ranking ``r`` puts lowest.

    ``pos`` is an ``(R, m)`` position table (``pos[r, c]`` is the slot of
    candidate ``c`` in ranking ``r``) with ``m <= 8``; the result is
    ``(2**m, R)`` uint8, mask-major so that one alive mask's entries for a
    range of consecutive ranking ids are one contiguous slice, with row
    ``N[0]`` unused. Masks are filled in increasing order from the mask
    without their lowest candidate ``c``: when ``c`` sits below the rest's
    lowest slot ``c`` leaves, else the rest's lowest leaves and ``c`` stays.
    Every array is one byte per entry, so building the table peaks at about
    twice its size.
    """
    rows, m = pos.shape
    cols = np.ascontiguousarray(pos.T)
    table = np.zeros((1 << m, rows), dtype=np.uint8)
    # slot[mask]: the lowest slot among mask's candidates; -1 for mask 0
    slot = np.full((1 << m, rows), -1, dtype=np.int8)
    for mask in range(1, 1 << m):
        c = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << c)
        table[mask] = np.where(cols[c] > slot[rest], rest, table[rest] | (1 << c))
        np.maximum(slot[rest], cols[c], out=slot[mask])
    return table


def range_batch_play(table: np.ndarray, ids, rows: np.ndarray, turns):
    """Vectorised sincere play over a batch of profiles given as ranking ids.

    ``table`` is a :func:`next_mask_table`. Voters ``0..len(ids)-1`` keep
    the ranking ids ``ids`` (rows of the position table the table was built
    from) for the whole batch, and the last voter, ``len(ids)``, runs over
    ``rows``, the consecutive intp ranking ids ``low..high-1``, one a row.
    Returns ``(alive, lone)``: the rows' final alive masks, a ``(B,)`` uint8
    array or one int when the last voter never acts, and an intp map from
    those masks to the winner, so ``lone.take(alive)`` equals
    :func:`play_batch_winners` on the matching position rows.

    The alive mask is one Python int until the last voter's first turn, and
    that turn is the slice ``table[alive, low:high]``. After it, each run of
    the other voters' turns composes into one ``2**m``-entry map of masks,
    and each later turn of the last voter is one gather from the flat table
    at that map times ``R``, taken at the alive masks, plus the ids. The
    trailing run is composed into ``lone``.
    """
    size, fact = table.shape
    last = len(ids)
    alive, run = size - 1, None
    for voter in turns:
        if voter < last:
            if isinstance(alive, int):
                alive = int(table[alive, ids[voter]])
            else:
                column = table[:, ids[voter]]
                run = column if run is None else column.take(run)
        elif isinstance(alive, int):
            alive = table[alive, rows[0]:rows[-1] + 1]
        else:
            scaled = (np.arange(size) if run is None else run.astype(np.intp)) * fact
            alive, run = table.reshape(-1).take(scaled.take(alive) + rows), None
    lone = _lone_candidate(size.bit_length() - 1)
    return alive, (lone if run is None else lone.take(run))


@lru_cache(maxsize=8)
def _lone_candidate(m: int) -> np.ndarray:
    """The candidate of each one-bit mask of ``m`` candidates (0 elsewhere)."""
    lone = np.zeros(1 << m, dtype=np.intp)
    lone[1 << np.arange(m)] = np.arange(m)
    return lone


def _narrow(keys, base: int):
    # Keys go to the narrowest unsigned type that holds them because
    # np.unique sorts stably when asked for first indices, and numpy's
    # stable sort is a radix sort for 8- and 16-bit integers, faster than
    # the timsort wider keys get; keys fit 16 bits while n(m-1) <= 255.
    return keys.astype(np.min_scalar_type(base * base - 1))


def _batch_table(num, den, base: int, tag_offset: int):
    """Exact table of one batch of pairs: (keys, counts, tags), one row per
    distinct key ``den * base + num``, keys ascending, each tag the lowest
    ``tag_offset + row index`` holding its key."""
    keys, first, counts = np.unique(
        _narrow(den * base + num, base), return_index=True, return_counts=True
    )
    return keys.astype(np.int64), counts, first + tag_offset


def _fold(tables):
    """One table from several: counts add and tags take the lowest, so the
    result is the same in any order."""
    keys, counts, tags = (np.concatenate(col) for col in zip(*tables))
    order = np.argsort(keys)
    keys = keys[order]
    heads = np.flatnonzero(np.diff(keys, prepend=-1))
    return (
        keys[heads],
        np.add.reduceat(counts[order], heads),
        np.minimum.reduceat(tags[order], heads),
    )


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


def _finish(table, base: int) -> SweepResult:
    keys, counts, tags = table
    # keys ascend, so the lowest holds the lowest denominator
    if keys[0] < base:
        raise ZeroWelfare("strategic winner has zero Borda score")
    den, num = np.divmod(keys, base)
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


def _evaluate(winners, score, best, turns, rev_turns, mode):
    """(numerator, denominator) int64 arrays for one batch.

    ``winners(turns)`` plays the batch sincerely on ``turns``; the strategic
    winner is sincere play on the reversed sequence. ``score(w)`` is each
    row's Borda score of its candidate in ``w`` and ``best()`` each row's
    highest Borda score.
    """
    den = score(winners(rev_turns))
    num = score(winners(turns)) if mode is RatioMode.CB else best()
    return num, den


@lru_cache(maxsize=2)
def _next_mask_table(m: int) -> np.ndarray:
    return next_mask_table(permutation_table(m))


def _exhaustive_chunk(args):
    turns, rev_turns, n, m, mode, batch, start, count = args
    pos = permutation_table(m)
    fact = pos.shape[0]
    table = _next_mask_table(m) if m <= WORST_TABLE_MAX_M else None
    base = n * (m - 1) + 1
    # every pair's count and lowest index; run_exhaustive's refusals leave
    # n(m-1) <= 63, so the grid holds at most 4,096 keys
    counts = np.zeros(base * base, dtype=np.int64)
    tags = np.zeros(base * base, dtype=np.int64)
    span = None
    index, end = start, start + count
    while index < end:
        # Every voter but the last keeps one ranking id; the last voter's ids
        # low..high-1 are the profiles index..index+high-low-1.
        ids = ranking_ids(n, m, index)
        low = ids.pop()
        high = min(fact, low + batch, low + end - index)
        if span != (low, high):
            # most batches of a chunk share one range: E1's are all 0..5039
            span, last = (low, high), np.arange(low, high)
            cells = last * m
            # AB's row max reduces over a slot-major copy: numpy's max over a
            # short inner axis costs about 5x more
            cols = pos[low:high].T.copy() if mode is RatioMode.AB else None
        # Borda scores n(m-1) - slot sums: a row's score of candidate w is
        # fixed[w] - pos[last, w], two flat gathers
        fixed = n * (m - 1) - pos[ids].sum(axis=0, dtype=np.int64)
        if table is None:
            winners = partial(play_batch_winners, [pos[i:i + 1] for i in ids] + [pos[low:high]])
        else:
            def winners(t):
                alive, lone = range_batch_play(table, ids, last, t)
                return lone.take(alive)
        num, den = _evaluate(
            winners,
            lambda w: fixed.take(w) - pos.take(cells + w),
            lambda: (fixed[:, None] - cols).max(axis=0),
            turns, rev_turns, mode,
        )
        keys = den * base + num
        # Batches run in index order, so a key is new to the chunk exactly
        # when its count is still 0; only the rows holding such keys are
        # sorted for their first index.
        rows = (counts == 0).take(keys).nonzero()[0]
        if rows.size:
            new, first = np.unique(_narrow(keys[rows], base), return_index=True)
            tags[new] = rows[first] + index
        counts += np.bincount(keys, minlength=counts.shape[0])
        index += high - low
    keys = np.flatnonzero(counts)
    return keys, counts[keys], tags[keys]


@lru_cache(maxsize=1)
def _chunk_buffers(n: int, m: int, count: int):
    """This process's buffers for Monte-Carlo chunks of one shape: the
    ``(m, n, count)`` position block and ``(2, n, count)`` word scratch of
    :func:`~elimgame.cultures.fill_positions`, whose Mallows path also
    indexes its insertion tables through the scratch, and the ``(m, count)``
    int32 Borda-score block. Nothing a chunk builds in them leaves the
    chunk, and each is overwritten before it is read, so each process's
    chunks fill the same memory instead of faulting in about 2.2 MB of
    fresh pages each at (5, 10)."""
    return (np.empty((m, n, count), dtype=np.int8), np.empty((2, n, count), dtype=np.uint64),
            np.empty((m, count), dtype=np.int32))


def _montecarlo_chunk(args):
    turns, rev_turns, n, m, mode, culture, seed, start, count = args
    block, scratch, scores = _chunk_buffers(n, m, count)
    fill_positions(block, scratch, culture, seed, start)
    # Borda scores n(m-1) - slot sums, (m, count); a row's score of w is the
    # flat cell w*count + row
    np.sum(block, axis=1, dtype=np.int32, out=scores)
    np.subtract(n * (m - 1), scores, out=scores)
    rows = np.arange(count)
    num, den = _evaluate(
        partial(play_batch_winners, block.transpose(1, 2, 0)),
        lambda w: scores.take(rows + w.astype(np.intp) * count).astype(np.int64),
        lambda: scores.max(axis=0).astype(np.int64),
        turns, rev_turns, mode,
    )
    return _batch_table(num, den, n * (m - 1) + 1, start)


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


def _run_chunks(fn, static, total: int, chunk: int, workers: int, until=None):
    """Fold the tables ``fn`` returns for the chunks of ``range(total)`` in
    chunk order, stopping after the first fold that ``until`` accepts.

    This is the one place chunk ranges are built: chunk ``k`` is called with
    ``(*static, start, count)`` for ``start = k * chunk`` and ``count`` up to
    ``chunk``. The arguments are built lazily; the pool has at most one
    process per usable CPU and keeps at most two chunks per process in
    flight, so memory does not grow with the chunk count. A fold that stops
    early leaves the pool's ``with`` block to wait out the chunks in flight.
    """
    args = ((*static, start, min(chunk, total - start)) for start in range(0, total, chunk))
    workers = min(workers, -(-total // chunk), _usable_cpus())

    def fold(tables):
        folded = None
        for table in tables:
            folded = table if folded is None else _fold((folded, table))
            if until is not None and until(folded):
                break
        return folded

    if workers < 2:  # a serial study never imports the process pool
        return fold(map(fn, args))
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return fold(_in_order(pool, fn, args, 2 * workers))


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
    and the witness stay the same. The refusals read the population's size,
    in CB mode too: there the counts come from the trajectory table and the
    chunks only find the extremes' first indices, but a late witness costs
    up to one full sweep.
    """
    seq.validate(n, m)
    # Refused whatever the budget, before any chunk or table is built: from
    # m = 12 the m!*m-byte position table passes 1 GiB (5.4 GiB at m = 12),
    # and from 2**63 profiles the int64 counts would wrap; m >= 12 goes first,
    # as its count can take seconds. For m <= 11, n(m-1) > 63 means 2**63
    # pinned profiles or more, so the exact grid keeps at most 4,096 cells.
    scale = 1 if fix_first else factorial(m)
    if m >= 12 or (total := enumeration_size(n, m)) * scale >= 1 << 63:
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
    base = n * (m - 1) + 1
    batch = min(factorial(m), max(1, MC_CHUNK // n))
    static = (seq.turns, seq.reverse().turns, n, m, mode, batch)
    chunk = EXHAUSTIVE_OUTER_CHUNK * batch
    if mode is RatioMode.AB:
        keys, counts, tags = _run_chunks(_exhaustive_chunk, static, total, chunk, workers)
        return _finish((keys, counts * scale, tags), base)
    # CB: the counts come from the trajectory table. The scan only finds
    # the first indices of the two extreme ratios, so it stops at the first
    # prefix of chunks that holds a key of each: chunks cover increasing
    # index ranges, so an extreme key first seen later has a higher index
    # than every profile already scanned. A key the prefix misses gets the
    # tag ``total``, above every index, and the extremes' tags come out of
    # _finish as from a full scan.
    keys, counts = (np.array(col, dtype=np.int64)
                    for col in zip(*sorted(cb_pair_table(seq.turns, n, m).items())))
    counts *= scale
    # the two extreme ratios, read off with placeholder tags
    extremes = _finish((keys, counts, keys), base)
    den, num = np.divmod(keys, base)
    top, bottom = (keys[num * r.denominator == den * r.numerator]
                   for r in (extremes.max_ratio, extremes.min_ratio))

    def until(folded):
        return np.isin(top, folded[0]).any() and np.isin(bottom, folded[0]).any()

    seen, _, first = _run_chunks(_exhaustive_chunk, static, total, chunk, workers, until)
    tags = np.full_like(keys, total)
    tags[np.searchsorted(keys, seen)] = first
    return _finish((keys, counts, tags), base)


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
    table = _run_chunks(_montecarlo_chunk, static, samples, max(1, MC_CHUNK // n), workers)
    return _finish(table, n * (m - 1) + 1)


def montecarlo_witness(
    n: int, m: int, culture: CultureSpec, seed: int, index: int
) -> PreferenceProfile:
    """Profile behind a Monte-Carlo sweep's ``max_index``/``min_index``."""
    rows = sample_rankings_batch(n, m, culture, seed, index, 1)[0]
    return PreferenceProfile.from_rankings([tuple(int(c) for c in r) for r in rows])
