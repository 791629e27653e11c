"""The numpy chunk engine behind exhaustive and Monte-Carlo ratio sweeps.

Each welfare ratio is a quotient of two integer Borda scores in
``0..n(m-1)``, so a sweep's whole result is one exact table: every distinct
(numerator, denominator) pair, keyed ``den * base + num`` with
``base = n(m-1) + 1``, how often it occurs and the lowest enumeration or
sample index that produced it. Every chunk returns such a table as numpy
``(keys, counts, tags)`` columns: a Monte-Carlo chunk sorts its one batch,
and an exhaustive chunk counts its batches into a grid of every possible
pair. :func:`_fold` adds tables into one dict of Python ints, where no
count can wrap: each worker folds its fixed share of the chunks, and a
parallel sweep's parent folds the workers' tables. Counts add and tags take
the lowest, so the fold is exact in any order and results are bit-identical
for every worker count and chunk size.

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
import pickle
from functools import lru_cache
from math import factorial

import numpy as np

from .core import MAX_VOTERS, CultureSpec, EliminationSequence, enumeration_size, ranking_ids
from .cultures import (
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


@lru_cache(maxsize=2)
def next_mask_table(m: int) -> np.ndarray:
    """``N[mask, r]``: ``mask`` without the candidate ranking ``r`` puts lowest.

    ``r`` is a row of ``pos = permutation_table(m)``, where ``pos[r, c]``
    is the slot of candidate ``c`` in ranking ``r``, and ``m <= 8``. The
    result is ``(2**m, m!)`` uint8, built once per process for each of the
    last two ``m`` asked for, mask-major so that one alive mask's entries for
    a range of consecutive ranking ids are one contiguous slice, with row
    ``N[0]`` unused. Masks are filled in increasing order from the mask
    without their lowest candidate ``c``: when ``c`` sits below the rest's
    lowest slot ``c`` leaves, else the rest's lowest leaves and ``c`` stays.
    Every array is one byte per entry, so building the table peaks at about
    twice its size.
    """
    cols = np.ascontiguousarray(permutation_table(m).T)
    table = np.zeros((1 << m, cols.shape[1]), dtype=np.uint8)
    # slot[mask]: the lowest slot among mask's candidates; -1 for mask 0
    slot = np.full(table.shape, -1, dtype=np.int8)
    for mask in range(1, 1 << m):
        c = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << c)
        table[mask] = np.where(cols[c] > slot[rest], rest, table[rest] | (1 << c))
        np.maximum(slot[rest], cols[c], out=slot[mask])
    return table


def range_batch_play(table: np.ndarray, ids, rows: np.ndarray, turns):
    """Vectorised sincere play over a batch of profiles given as ranking ids.

    ``table`` is :func:`next_mask_table` ``(m)``. Voters ``0..len(ids)-1``
    keep the ranking ids ``ids``, rows of ``permutation_table(m)``, for the
    whole batch, and the last voter, ``len(ids)``, runs over ``rows``, the
    consecutive intp ranking ids ``low..high-1``, one a row.
    Returns the rows' winners, equal to :func:`play_batch_winners` on the
    matching position rows: a ``(B,)`` intp array, or one int when the last
    voter never acts.

    The alive mask is one Python int until the last voter's first turn, and
    that turn is the slice ``table[alive, low:high]``. After it, each run of
    the other voters' turns composes into one ``2**m``-entry map of masks,
    and each later turn of the last voter is one gather from the flat table
    at that map times ``R``, taken at the alive masks, plus the ids. The
    trailing run is composed into the map from one-bit masks to candidates.
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
    if isinstance(alive, int):
        return alive.bit_length() - 1
    lone = _lone_candidate(size.bit_length() - 1)
    return (lone if run is None else lone.take(run)).take(alive)


@lru_cache(maxsize=8)
def _lone_candidate(m: int) -> np.ndarray:
    """The candidate of each one-bit mask of ``m`` candidates (0 elsewhere)."""
    lone = np.zeros(1 << m, dtype=np.intp)
    lone[1 << np.arange(m)] = np.arange(m)
    return lone


def _batch_table(num, den, base: int, tag_offset: int):
    """Exact table of one batch of pairs: (keys, counts, tags), one row per
    distinct key ``den * base + num``, keys ascending, each tag the lowest
    ``tag_offset + row index`` holding its key."""
    # Keys go to the narrowest unsigned type that holds them because
    # np.unique sorts stably when asked for first indices, and numpy's
    # stable sort is a radix sort for 8- and 16-bit integers, faster than
    # the timsort wider keys get; keys fit 16 bits while n(m-1) <= 255.
    keys = (den * base + num).astype(np.min_scalar_type(base * base - 1))
    keys, first, counts = np.unique(keys, return_index=True, return_counts=True)
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


def _exhaustive_chunk(args):
    turns, n, m, mode, batch, start, count = args
    pos = permutation_table(m)
    fact = pos.shape[0]
    table = next_mask_table(m) if m <= WORST_TABLE_MAX_M else None
    base = n * (m - 1) + 1
    # every pair's count and lowest index; run_exhaustive's refusals leave
    # n(m-1) <= 63, so the grid holds at most 4,096 keys
    counts = np.zeros(base * base, dtype=np.int64)
    tags = np.full(base * base, np.iinfo(np.int64).max)
    span = None
    index, end = start, start + count
    while index < end:
        # Every voter but the last keeps one ranking id; the last voter's ids
        # low..high-1 are the profiles index..index+high-low-1.
        ids = ranking_ids(n, m, index)
        low = ids.pop()
        high = min(fact, low + batch, low + end - index)
        if span != (low, high):
            # most batches of a chunk share one range
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
                w = range_batch_play(table, ids, last, t)
            return fixed.take(w) - pos.take(cells + w)

        # the strategic winner is sincere play on the reversed sequence
        den = score(turns[::-1])
        num = score(turns) if mode is RatioMode.CB else (fixed[:, None] - cols).max(axis=0)
        keys = den * base + num
        # Batches run in index order, so a key is new to the chunk exactly
        # when its count is still 0 and its tag still the sentinel; the rows
        # holding such keys lower each one's tag to its first index.
        rows = (counts == 0).take(keys).nonzero()[0]
        if rows.size:
            np.minimum.at(tags, keys[rows], rows + index)
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
    turns, n, m, mode, culture, seed, start, count = args
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
    den = score(turns[::-1])
    num = score(turns) if mode is RatioMode.CB else scores.max(axis=0).astype(np.int64)
    return _batch_table(num, den, n * (m - 1) + 1, start)


def _run_chunks(fn, static, total: int, chunk: int, workers: int):
    """Fold the tables ``fn`` returns for the chunks of ``range(total)``
    into :func:`_fold`'s ascending ``(key, count, tag)`` rows of Python ints.

    This is the one place chunk ranges are built: chunk ``k`` is called with
    ``(*static, start, count)`` for ``start = k * chunk`` and ``count`` up to
    ``chunk``. With W workers, at most one per chunk and per usable CPU (one
    where :func:`os.fork` does not exist), W forked children fold the static
    shares ``w, w + W, ...`` of the chunks and each pipes back its pickled
    table, or its exception, which is re-raised here. The parent runs no
    chunk; it folds the shares and reaps every child, killing them on error.
    """
    starts = range(0, total, chunk)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, len(starts), cpus or 1) if hasattr(os, "fork") else 1

    def share(w):
        return _fold(fn((*static, start, min(chunk, total - start))) for start in starts[w::workers])

    if workers < 2:
        return share(0)
    children, tables = [], []
    try:
        for w in range(workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: pipe back its table as columns, or its error
                try:
                    try:
                        result = np.array(share(w)).T
                    except BaseException as exc:
                        result = exc
                    with open(write, "wb") as out:
                        out.write(pickle.dumps(result))
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, open(read, "rb")))
        for w, (_, pipe) in enumerate(children):
            data = pipe.read()
            if not data:
                raise ChildProcessError(f"sweep worker {w} exited without sending its table")
            tables.append(pickle.loads(data))
            if isinstance(tables[-1], BaseException):
                raise tables[-1]
        return _fold(tables)
    except BaseException:
        from signal import SIGKILL
        for pid, _ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def exhaustive_table(seq: EliminationSequence, n: int, m: int,
                     workers: int = 1) -> list[tuple[int, int, int]]:
    """The pinned space's AB table, as ascending ``(key, count, tag)`` rows,
    each tag a profile's pinned enumeration index. The caller refuses the
    spaces too large to sweep. A chunk's CB mode is the enumeration that
    the trajectory study is tested against.
    """
    batch = min(factorial(m), max(1, MC_CHUNK // n))
    static = (seq.turns, n, m, RatioMode.AB, batch)
    return _run_chunks(_exhaustive_chunk, static, enumeration_size(n, m),
                       EXHAUSTIVE_OUTER_CHUNK * batch, workers)


def montecarlo_table(seq: EliminationSequence, n: int, m: int, mode: RatioMode,
                     culture: CultureSpec, samples: int, seed: int,
                     workers: int = 1) -> list[tuple[int, int, int]]:
    """The table of samples ``0..samples-1`` drawn from ``culture``, as
    ascending ``(key, count, tag)`` rows, each tag a sample index. Sample
    ``i`` is a pure function of ``(seed, i)``."""
    static = (seq.turns, n, m, mode, culture, seed)
    return _run_chunks(_montecarlo_chunk, static, samples, max(1, MC_CHUNK // n), workers)
