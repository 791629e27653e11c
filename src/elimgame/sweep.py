"""The numpy chunk engine behind exhaustive and Monte-Carlo ratio sweeps.

Each welfare ratio is a quotient of two integer Borda scores in
``0..n(m-1)``, so a sweep's whole result is one exact table: every distinct
(numerator, denominator) pair, keyed ``den * base + num`` with
``base = n(m-1) + 1``, how often it occurs and the lowest enumeration or
sample index that produced it. Every chunk returns such a table as numpy
``(keys, counts, tags)`` columns: a Monte-Carlo chunk sorts its one batch,
and an exhaustive chunk counts its batches into a grid of every possible
pair. :func:`_fold` adds the chunks' tables, in chunk order, into one dict
of Python ints, where no count can wrap. Counts add and tags take the
lowest, so the fold is exact in any order and results are bit-identical for
every worker count and chunk size.

This module only builds those tables. :func:`exhaustive_table` and
:func:`montecarlo_table` return the fold's ascending ``(key, count, tag)``
rows, and :mod:`elimgame.experiments` reads the statistics and the witness
off them. An exhaustive table covers the pinned space; only AB studies ask
for one, because a CB study reads its counts and witness off trajectory
pairs.

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
from functools import lru_cache
from math import factorial

import numpy as np

from .core import MAX_VOTERS, EliminationSequence, enumeration_size, ranking_ids
from .cultures import (
    CultureSpec,
    fill_positions,
    permutation_table,
    # looked up here by experiments.montecarlo_witness and wrapped here by
    # benchmark/inproc.py
    sample_rankings_batch,
)
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
MC_CHUNK = MAX_VOTERS


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
    return keys, counts, first + tag_offset


def _fold(tables) -> list[tuple[int, int, int]]:
    """One table from several ``(keys, counts, tags)`` tables, as ascending
    ``(key, count, tag)`` rows of Python ints: counts add exactly and tags
    take the lowest, so the result is the same in any order."""
    folded: dict[int, list[int]] = {}
    for keys, counts, tags in tables:
        for key, count, tag in zip(keys.tolist(), counts.tolist(), tags.tolist()):
            row = folded.get(key)
            if row is None:
                folded[key] = [count, tag]
            else:
                row[0] += count
                if tag < row[1]:
                    row[1] = tag
    return [(key, count, tag) for key, (count, tag) in sorted(folded.items())]


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

        def score(t):  # each row's Borda score of its sincere winner on turns t
            if table is None:
                w = play_batch_winners([pos[i:i + 1] for i in ids] + [pos[low:high]], t)
            else:
                alive, lone = range_batch_play(table, ids, last, t)
                w = lone.take(alive)
            return fixed.take(w) - pos.take(cells + w)

        # the strategic winner is sincere play on the reversed sequence
        den = score(rev_turns)
        num = score(turns) if mode is RatioMode.CB else (fixed[:, None] - cols).max(axis=0)
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

    def score(t):  # each row's Borda score of its sincere winner on turns t
        w = play_batch_winners(block.transpose(1, 2, 0), t)
        return scores.take(rows + w.astype(np.intp) * count).astype(np.int64)

    # the strategic winner is sincere play on the reversed sequence
    den = score(rev_turns)
    num = score(turns) if mode is RatioMode.CB else scores.max(axis=0).astype(np.int64)
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


def _run_chunks(fn, static, total: int, chunk: int, workers: int):
    """Fold the tables ``fn`` returns for the chunks of ``range(total)``,
    in chunk order, into :func:`_fold`'s ascending ``(key, count, tag)``
    rows of Python ints.

    This is the one place chunk ranges are built: chunk ``k`` is called with
    ``(*static, start, count)`` for ``start = k * chunk`` and ``count`` up to
    ``chunk``. The arguments are built lazily; the pool has at most one
    process per usable CPU and keeps at most two chunks per process in
    flight, so memory does not grow with the chunk count.
    """
    args = ((*static, start, min(chunk, total - start)) for start in range(0, total, chunk))
    workers = min(workers, -(-total // chunk), _usable_cpus())
    if workers < 2:  # a serial study never imports the process pool
        return _fold(map(fn, args))
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _fold(_in_order(pool, fn, args, 2 * workers))


def exhaustive_table(seq: EliminationSequence, n: int, m: int, mode: RatioMode,
                     workers: int = 1) -> list[tuple[int, int, int]]:
    """The pinned space's table, as ascending ``(key, count, tag)`` rows,
    each tag a profile's pinned enumeration index. The caller refuses the
    spaces too large to sweep.
    """
    batch = min(factorial(m), max(1, MC_CHUNK // n))
    static = (seq.turns, seq.reverse().turns, n, m, mode, batch)
    return _run_chunks(_exhaustive_chunk, static, enumeration_size(n, m),
                       EXHAUSTIVE_OUTER_CHUNK * batch, workers)


def montecarlo_table(seq: EliminationSequence, n: int, m: int, mode: RatioMode,
                     culture: CultureSpec, samples: int, seed: int,
                     workers: int = 1) -> list[tuple[int, int, int]]:
    """The table of samples ``0..samples-1`` drawn from ``culture``, as
    ascending ``(key, count, tag)`` rows, each tag a sample index. Sample
    ``i`` is a pure function of ``(seed, i)``."""
    static = (seq.turns, seq.reverse().turns, n, m, mode, culture, seed)
    return _run_chunks(_montecarlo_chunk, static, samples, max(1, MC_CHUNK // n), workers)
