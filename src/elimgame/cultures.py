"""Profile generation: Impartial Culture, Mallows and the ranking table.

Samples come from :func:`fill_positions`, the one sampler body;
:func:`sample_rankings_batch` is its one fresh-array entry.
:func:`permutation_table` holds the rank positions of every ranking in the
lexicographic order that :func:`~elimgame.core.ranking_ids` numbers, for
the exhaustive chunks to play; the pinned enumeration itself is decoded in
:mod:`elimgame.core`, without numpy.

Randomness comes from a counter-based construction so that sample ``i`` is a
pure function of ``(master_seed, i)``: workers can draw disjoint sample
ranges in any order and always reproduce the single-threaded stream. The
word generator is the SplitMix64 finalizer used in counter mode:

    stream_key(i) = mix64(seed + (i+1) * GOLDEN)
    word(i, k)    = mix64(stream_key(i) + (k+1) * GOLDEN)

Mallows sampling uses repeated insertion: candidate ``j`` (1-based) inserts
at position ``i`` from the top with probability proportional to
``phi ** (j - i)``, which draws exactly ``P(v) ∝ phi ** d(v, ref)`` for
the Kendall tau distance ``d`` (candidate pairs ordered oppositely).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

# resolve_budget is looked up here by benchmark/inproc.py
from .core import resolve_budget
from .errors import OutOfDomain, ParseError, PhiOutOfRange

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray, tmp: np.ndarray | None = None, finish: bool = True) -> np.ndarray:
    """SplitMix64 finalizer, elementwise and in place on a uint64 array
    (wrapping arithmetic); returns ``x``. Each shift goes to ``tmp``, a
    scratch array of ``x``'s shape, so no op allocates a temporary. Without
    ``finish`` the last step, ``x ^= x >> 31``, is left to the caller
    (:func:`_finish64`); it changes no bit above bit 32."""
    if tmp is None:
        tmp = np.empty_like(x)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(x, np.uint64(shift), out=tmp)
        x ^= tmp
        x *= np.uint64(mult)
    if finish:
        np.right_shift(x, np.uint64(31), out=tmp)
        x ^= tmp
    return x


def _finish64(x: np.ndarray) -> np.ndarray:
    """The finalizer's last step, in place on words mixed without it."""
    x ^= x >> np.uint64(31)
    return x


def _stream_keys(master_seed: int, start: int, count: int) -> np.ndarray:
    idx = np.arange(start, start + count, dtype=np.uint64)
    return _mix64(np.uint64(master_seed) + (idx + np.uint64(1)) * _GOLDEN)


def _word_rows(keys: np.ndarray, first: int, voters: int, width: int,
               reverse: bool = False, scratch: np.ndarray | None = None,
               finish: bool = True):
    """Yield words ``first + v * width + k`` of every stream, ``k = 0..width-1``
    (``k = width-1..0`` with ``reverse``).

    Each yield is one ``(R,)`` row, voter major and sample minor
    (``R = voters * len(keys)``): word ``k`` of every voter's block. Every
    row is mixed in place in one buffer, which the generator yields and
    overwrites for the next row: a row is valid until the next one is asked
    for, and a consumer may change it in place. So no block of words is
    resident and no row allocates. The buffer and the mixer's scratch are
    ``scratch[0]`` and ``scratch[1]`` of a caller's ``(2, voters, len(keys))``
    uint64 array, or fresh when ``scratch`` is None. The mixer writes its
    scratch before it reads it, so between rows a consumer may use
    ``scratch[1]`` too. Without ``finish`` the rows skip the finalizer's
    last step (see :func:`_mix64`).
    """
    offsets = np.uint64(width) * np.arange(voters, dtype=np.uint64)
    if scratch is None:
        scratch = np.empty((2, voters, keys.shape[0]), dtype=np.uint64)
    x, tmp = scratch
    for k in range(width - 1, -1, -1) if reverse else range(width):
        ks = (offsets + np.uint64(first + k + 1)) * _GOLDEN
        np.add(ks[:, None], keys, out=x)
        yield _mix64(x, tmp, finish).reshape(-1)


class CultureKind(Enum):
    IMPARTIAL = "ic"
    MALLOWS = "mallows"


@dataclass(frozen=True)
class CultureSpec:
    """A vote distribution: impartial culture or a Mallows model.

    ``phi`` is the Mallows dispersion in (0, 1]; 1 coincides with impartial
    culture. The Mallows reference ranking is the identity, or with
    ``random_reference`` a fresh uniform one per profile (per sample, not
    per vote), which relabels the candidates and so moves no ratio: sweeps
    sample identity-reference profiles, and only returned rankings change.
    """

    kind: CultureKind
    phi: float = 1.0
    random_reference: bool = False

    def __post_init__(self):
        if self.kind is CultureKind.MALLOWS and not 0.0 < self.phi <= 1.0:
            raise PhiOutOfRange(f"phi must lie in (0, 1], got {self.phi}")

    @classmethod
    def impartial(cls) -> "CultureSpec":
        return cls(CultureKind.IMPARTIAL)

    @classmethod
    def mallows(cls, phi: float, random_reference: bool = False) -> "CultureSpec":
        return cls(CultureKind.MALLOWS, phi, random_reference)

    @classmethod
    def parse(cls, text: str, phi: float | None = None) -> "CultureSpec":
        """Parse command-line culture strings: ``ic`` or ``mallows:phi=0.6``.

        A bare ``mallows`` takes its dispersion from the ``phi`` argument,
        which no other culture string accepts.
        """
        text = text.strip()
        if phi is not None and text != "mallows":
            raise ParseError(f"phi applies only to a bare mallows culture, not {text!r}")
        if text == "ic":
            return cls.impartial()
        if text == "mallows" or text.startswith("mallows:"):
            if ":" in text:
                _, _, tail = text.partition(":")
                key, _, value = tail.partition("=")
                if key != "phi" or not value:
                    raise ParseError(f"bad culture spec {text!r}")
                try:
                    phi = float(value)
                except ValueError:
                    raise ParseError(f"bad phi value {value!r} in {text!r}")
            if phi is None:
                raise ParseError("mallows culture needs phi (use mallows:phi=X or --phi)")
            return cls.mallows(phi)
        raise ParseError(f"unknown culture {text!r} (expected ic or mallows:phi=X)")


#: Fisher-Yates steps ``j`` below this run as compare-select, the rest as a
#: gather and a scatter; see :func:`_fisher_yates`
SELECT_STEPS = 16


def _fisher_yates(words, pos: np.ndarray) -> np.ndarray:
    """Fill ``pos`` with the inverses of uniform permutations of its columns,
    from ``m-1`` word rows read last first; returns ``pos``.

    ``pos`` is a caller's ``(m, R)`` int8 array: afterwards ``pos[c, r]`` is
    the slot of candidate ``c`` in row ``r``. The ranking the same words
    draw runs step ``j`` from ``m-1`` down to 1, swapping slot ``j`` with a
    slot drawn from word row ``m-1-j``; it is the product of those swaps.
    Each swap is its own inverse, so the positions are the same swaps applied
    in the opposite order: steps ``j = 1 .. m-1`` on the identity, reading
    the word rows from the last (``_word_rows(..., reverse=True)``). Each
    word row is bounded to a draw ``k`` in ``[0, j]`` in place by a
    fixed-point multiply on its top 32 bits (bias < 2**-32, far below every
    tolerance used here).

    Steps touch only rows up to ``j``, so row ``j`` still holds ``j`` when
    step ``j`` begins, and the step is ``pos[j] = pos[k]; pos[k] = j``. Below
    ``SELECT_STEPS`` it runs without an index, as compare-select over the
    rows ``c < j`` that ``k`` can name: ``d = (pos[c] - j) * (k == c)``
    moves into row ``j`` and out of row ``c``, five int8 ops per row ``c``.
    Later steps gather row ``j`` through the flat index ``k * R + r`` and
    scatter the scalar ``j`` back, at a cost that barely grows with ``j``.
    On 2 CPUs (numpy 2.4.6, R = 65,535 and 65,529) a compare-select step
    timed 15 + 24j µs against 360-600 µs for a gathered one, so the two
    meet near j = 18. Over 90 runs per switch value, one chunk's whole
    Fisher-Yates at (9, 24) took 8.6 ms (10th percentile) with every step
    gathered, 6.8-7.2 ms with the switch at 12-18 and 7.5 ms with no step
    gathered; at (3, 20) the best switch was 16-20 (5.5-6.1 ms against
    7.8 ms). At (5, 10) every step is compare-select: 1.6 ms against
    2.5 ms gathered.
    """
    m, rows_n = pos.shape
    pos[:] = np.arange(m, dtype=np.int8)[:, None]
    flat = pos.reshape(-1)
    hit = np.empty(rows_n, dtype=bool)
    d = np.empty(rows_n, dtype=np.int8)
    rows = None
    shift = np.uint64(32)
    for j, word in zip(range(1, m), words):
        word >>= shift
        word *= np.uint64(j + 1)
        word >>= shift
        if j < SELECT_STEPS:
            k = word.astype(np.int8)
            for c in range(j):
                np.equal(k, c, out=hit)
                np.subtract(pos[c], j, out=d)
                d *= hit.view(np.int8)
                pos[j] += d
                pos[c] -= d
        else:
            if rows is None:
                rows = np.arange(rows_n, dtype=np.int64)
            # the draw is below 2**32, so the row read as int64 is exact
            idx = word.view(np.int64)
            idx *= rows_n
            idx += rows
            pos[j] = flat[idx]
            flat[idx] = j
    return pos


#: top word bits that index a Mallows insertion table: 4,096 int8 entries
#: per (phi, step); 16 bits raised a (5, 10) study's peak RSS by about 2 MiB
INSERT_BITS = 12


@lru_cache(maxsize=256)
def _insertion_table(phi: float, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Step ``j`` of repeated insertion as a lookup: ``(table, thresholds)``.

    The step draws slot ``p``, the number of cumulative weights ``edge`` of
    ``phi**(j-1), ..., phi**0`` with ``u >= edge``, where
    ``u = (x * 2**-53) * total`` in float64 for the word's top 53 bits ``x``
    and the weights' sum ``total``. ``u`` never falls as ``x`` grows, so each
    edge has a least ``x`` that reaches it, its threshold (``2**53`` when no
    ``x`` does), and ``p`` is the number of thresholds at or below ``x``. A
    bisection over every edge at once finds the thresholds by evaluating the
    same float64 expression, so the integer count equals the float one for
    every word. ``table[b]`` is that count for every word whose top
    ``INSERT_BITS`` bits are ``b``, or -1 when the bucket holds a threshold;
    only words in those buckets, at most ``j`` of 4,096, are compared with
    the thresholds.
    """
    edges = np.cumsum(phi ** np.arange(j - 1, -1, -1, dtype=np.float64))
    total = edges[-1]
    # Bisection one bit at a time, from 2**53 down: a threshold is at least
    # t + 2**k exactly when x = t + 2**k - 1 still falls short of its edge.
    # Every x from 2**53 up reaches every edge, so no threshold passes 2**53.
    found = np.zeros(j, dtype=np.int64)
    for k in range(53, -1, -1):
        step = found + (1 << k)
        short = ((step - 1).astype(np.float64) * 2.0**-53) * total < edges
        found = np.where(short, step, found)
    thresholds = found.astype(np.uint64)
    shift = np.uint64(53 - INSERT_BITS)
    first = np.arange(1 << INSERT_BITS, dtype=np.uint64) << shift
    table = np.searchsorted(thresholds, first, side="right").astype(np.int8)
    table[thresholds[thresholds < np.uint64(1 << 53)] >> shift] = -1
    return table, thresholds


def _insertion_slots(word: np.ndarray, j: int, phi: float, out: np.ndarray,
                     index: np.ndarray) -> np.ndarray:
    """Write each word's step-``j`` insertion slot to the int8 row ``out``;
    returns ``out``. See :func:`_insertion_table`.

    ``word`` holds words mixed without the finalizer's last step, which
    leaves their top bits as they are, so only copies of the few words in
    marked buckets are finished; ``word`` is left as it was. ``index`` is a
    uint64 scratch row of ``word``'s length for the table lookup.
    """
    table, thresholds = _insertion_table(phi, j)
    np.right_shift(word, np.uint64(64 - INSERT_BITS), out=index)
    # mode="clip" writes straight to out (every index is in range), where
    # the default would buffer the whole row
    np.take(table, index.view(np.int64), out=out, mode="clip")
    marked = np.flatnonzero(out < 0)
    if marked.size:
        x = _finish64(word[marked]) >> np.uint64(11)
        out[marked] = np.searchsorted(thresholds, x, side="right")
    return out


def _mallows_slots(words, pos: np.ndarray, phi: float, index: np.ndarray) -> np.ndarray:
    """Fill ``pos`` by repeated insertion against the identity reference, in
    slot space; returns ``pos``.

    ``pos`` is a caller's ``(m, R)`` int8 array: afterwards ``pos[c, r]`` is
    the slot of candidate ``c`` in row ``r``. Step ``j`` reads the next word
    row, mixed without the finalizer's last step (``_word_rows(...,
    finish=False)``), and inserts candidate ``j-1`` (0-based) at slot ``p``
    among the ``j`` slots of candidates ``0..j-1``; every earlier candidate
    at slot ``p`` or below moves one slot down. Slots counted from the top
    carry weights ``phi**(j-p)``, so the bottom slot has weight 1, and
    :func:`_insertion_slots` draws ``p`` by table lookup. ``index`` is a
    uint64 scratch row of length R. No step allocates anything wider than
    an ``(R,)`` bool row, so none faults in fresh pages.
    """
    pos[0] = 0
    hit = np.empty(pos.shape[1], dtype=bool)
    for j, word in zip(range(2, pos.shape[0] + 1), words):
        p = _insertion_slots(word, j, phi, pos[j - 1], index)
        for c in range(j - 1):
            np.greater_equal(pos[c], p, out=hit)
            pos[c] += hit.view(np.int8)
    return pos


def fill_positions(
    block: np.ndarray,
    scratch: np.ndarray,
    spec: CultureSpec,
    master_seed: int,
    start_index: int,
) -> np.ndarray:
    """Fill ``block`` with the rank positions of identity-reference profile
    samples ``start_index .. start_index+count-1``; returns ``block``.

    This is the one sampler body. ``block`` is a caller's C-contiguous
    ``(m, n, count)`` int8 array: ``[c, v, s]`` becomes the slot of
    candidate ``c`` in voter ``v``'s ranking of sample ``s``, 0 for the
    best, so each voter's ``(m, count)`` ``[:, v, :]`` has contiguous rows.
    ``scratch`` is a ``(2, n, count)`` uint64 array the stream words are
    mixed in; between word rows, Mallows insertion also indexes its tables
    through the mixer's half, ``scratch[1]``. The caller owns both, so a
    caller that drops what it builds from them before the next fill can
    reuse them instead of faulting in fresh memory for every batch; every
    byte written depends only on the arguments, never on what the arrays
    held before. A random reference is left to :func:`sample_rankings_batch`.
    """
    m, n, count = block.shape
    if m < 1 or n < 1:
        raise ValueError("need n >= 1 voters and m >= 1 candidates")
    if m > 127:
        # positions and rankings hold slots and candidate ids as int8
        raise OutOfDomain(f"sampling supports at most 127 candidates, got {m}")
    keys = _stream_keys(master_seed, start_index, count)
    slots = block.reshape(m, n * count)
    if spec.kind is CultureKind.IMPARTIAL or spec.phi == 1.0:
        _fisher_yates(_word_rows(keys, 0, n, m - 1, reverse=True, scratch=scratch), slots)
    else:
        words = _word_rows(keys, 0, n, m - 1, scratch=scratch, finish=False)
        _mallows_slots(words, slots, spec.phi, scratch[1].reshape(-1))
    return block


def sample_rankings_batch(
    n: int,
    m: int,
    spec: CultureSpec,
    master_seed: int,
    start_index: int,
    count: int,
) -> np.ndarray:
    """Rankings for profile samples ``start_index .. start_index+count-1``.

    Returns a fresh ``(count, n, m)`` int8 array; ``[s, v]`` is voter v's
    ranking, best first, the inverse of the positions :func:`fill_positions`
    draws. Pure function of its arguments, so any chunking of the index
    range yields identical rows. A random Mallows reference is drawn here,
    from the ``m-1`` words after each sample's ``n(m-1)`` voter words, a
    layout every culture shares.
    """
    scratch = np.empty((2, n, count), dtype=np.uint64)
    block = np.empty((m, n, count), dtype=np.int8)
    fill_positions(block, scratch, spec, master_seed, start_index)
    # the identity reference's candidate k is the reference's slot-k
    # candidate, so candidate c takes the slots drawn for its reference slot
    if spec.kind is CultureKind.MALLOWS and spec.random_reference:
        keys = _stream_keys(master_seed, start_index, count)
        words = _word_rows(keys, n * (m - 1), 1, m - 1, reverse=True, scratch=scratch[:, :1])
        ref_pos = _fisher_yates(words, np.empty((m, count), dtype=np.int8))
        block[:] = np.take_along_axis(block, ref_pos[:, None, :], axis=0)
    return block.transpose(2, 1, 0).argsort(axis=2).astype(np.int8)


@lru_cache(maxsize=8)
def permutation_table(m: int) -> np.ndarray:
    """Rank positions of all m! rankings, in lexicographic order of the rankings.

    Returns ``(m!, m)`` int8: ``pos[r, c]`` is the slot of candidate ``c`` in
    ranking ``r``, and ``pos[r].argsort()`` is ranking ``r``, best first.
    Ranking 0 is the identity. Positions are the only ranking table:
    exhaustive chunks sum and play them.
    """
    # Rankings of k candidates, built in place from those of k - 1: block c
    # leads with candidate c, then the k - 1 others in the smaller table's
    # order. So in block c candidate c sits in slot 0 and every other
    # candidate one slot below its smaller-table slot. No temporary is larger
    # than the smaller table.
    pos = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, m + 1):
        rows = pos.shape[0]
        next_pos = np.empty((k * rows, k), dtype=np.int8)
        for c in range(k):
            block = slice(c * rows, (c + 1) * rows)
            next_pos[block, c] = 0
            np.add(pos[:, :c], 1, out=next_pos[block, :c])
            np.add(pos[:, c:], 1, out=next_pos[block, c + 1:])
        pos = next_pos
    return pos
