"""Game execution: sincere play, strategic outcomes, oracle, mixed behaviour.

The game: candidates are eliminated one per turn by the voter whose turn it
is, and the last remaining candidate wins. A sincere voter removes her least
preferred remaining candidate. The unique subgame-perfect outcome equals
sincere play on the reversed turn sequence, which is what
:func:`spne_outcome` computes; :func:`backward_induction` solves the full
game tree instead and exists to validate that shortcut, not to be fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import EliminationSequence, PreferenceProfile
from .errors import InvalidVoter, TreeTooLarge

#: largest candidate count backward_induction accepts without an override;
#: the memo has 2**m states, so this is a foot-gun guard, not a hard limit.
ORACLE_CANDIDATE_GUARD = 10


@dataclass(frozen=True)
class GameTrace:
    """Record of one play-through.

    ``steps`` holds ``(voter, eliminated_candidate)`` pairs in execution
    order and ``semantics`` says what that order means: traces produced by
    :func:`spne_outcome` and :func:`mixed_play` replay transformed turn
    sequences, so their steps are not a path of the original game even
    though the winner is the game's outcome.
    """

    mode: str
    steps: tuple[tuple[int, int], ...]
    winner: int
    semantics: str = "elimination-path"


@dataclass(frozen=True)
class BehaviorAssignment:
    """Which voters play sincerely; everyone else plays strategically."""

    sincere: frozenset[int] = field(default_factory=frozenset)

    @classmethod
    def of(cls, *voters: int) -> "BehaviorAssignment":
        return cls(frozenset(voters))


def _reduced_play(profile, seq, mode, sincere, semantics) -> GameTrace:
    """Sincere play of the reduced form that covers every behaviour.

    The ``sincere`` voters' turns run in their original order, then the
    other voters' turns reversed, every move sincere. With every voter
    sincere this is the game itself; with none, the strategic outcome
    (sincere play on the reversed sequence); otherwise mixed behaviour.
    """
    seq.validate(profile.n, profile.m)
    strategic = [t for t in seq.turns if t not in sincere]
    alive = set(range(profile.m))
    steps = []
    for voter in [t for t in seq.turns if t in sincere] + strategic[::-1]:
        worst = profile.votes[voter].worst_among(alive)
        alive.remove(worst)
        steps.append((voter, worst))
    (winner,) = alive
    return GameTrace(mode, tuple(steps), winner, semantics)


def sincere_play(profile: PreferenceProfile, seq: EliminationSequence) -> GameTrace:
    """Every voter eliminates her least preferred remaining candidate."""
    return _reduced_play(profile, seq, "sincere", range(profile.n), "elimination-path")


def spne_outcome(profile: PreferenceProfile, seq: EliminationSequence) -> GameTrace:
    """Winner under optimal play: sincere execution of the reversed sequence."""
    return _reduced_play(profile, seq, "strategic", (), "sincere-on-reversed-sequence")


def mixed_play(
    profile: PreferenceProfile,
    seq: EliminationSequence,
    behavior: BehaviorAssignment,
) -> GameTrace:
    """Outcome when only some voters play strategically.

    Equivalent reduced form: execute the sincere voters' subsequence in its
    original order, then the strategic voters' subsequence reversed, all
    moves sincere. The outcome does not depend on how the two subsequences
    interleave in ``seq``, only on their contents.
    """
    for v in behavior.sincere:
        if not 0 <= v < profile.n:
            raise InvalidVoter(f"voter {v + 1} outside 1..{profile.n}")
    return _reduced_play(
        profile, seq, "mixed", behavior.sincere,
        "sincere-subsequence-then-reversed-strategic",
    )


def backward_induction(
    profile: PreferenceProfile,
    seq: EliminationSequence,
    tie_break=None,
    max_candidates: int = ORACLE_CANDIDATE_GUARD,
) -> GameTrace:
    """Solve the full game tree by backward induction.

    At each node the acting voter eliminates the candidate whose subgame she
    likes the winner of best; among payoff-equivalent actions she eliminates
    the one appearing first in ``tie_break`` (candidate-id order when not
    given). The winner is invariant to ``tie_break``; the step path is one
    equilibrium path and is not.
    """
    seq.validate(profile.n, profile.m)
    m = profile.m
    if m > max_candidates:
        raise TreeTooLarge(
            f"{m} candidates means 2**{m} subgames; pass max_candidates={m} "
            "to solve anyway"
        )
    if tie_break is None:
        tb_pos = list(range(m))
    else:
        tb = list(tie_break)
        if sorted(tb) != list(range(m)):
            raise ValueError("tie_break must order every candidate exactly once")
        tb_pos = [0] * m
        for i, c in enumerate(tb):
            tb_pos[c] = i
    pos = [v.positions for v in profile.votes]
    turns = seq.turns
    # memo: alive-candidate bitmask -> (subgame winner, chosen elimination);
    # the turn index is implied by the popcount, so the mask alone keys it.
    memo: dict[int, tuple[int, int]] = {}

    def solve(mask: int) -> tuple[int, int]:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        k = mask.bit_count()
        if k == 1:
            result = (mask.bit_length() - 1, -1)
        else:
            actor = pos[turns[m - k]]
            best_key = None
            result = (-1, -1)
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                c = low.bit_length() - 1
                w, _ = solve(mask ^ low)
                key = (actor[w], tb_pos[c])
                if best_key is None or key < best_key:
                    best_key = key
                    result = (w, c)
        memo[mask] = result
        return result

    full = (1 << m) - 1
    winner, _ = solve(full)
    steps = []
    mask = full
    for voter in turns:
        _, action = memo[mask]
        steps.append((voter, action))
        mask ^= 1 << action
    return GameTrace("oracle", tuple(steps), winner)


def trace_report(trace: GameTrace, profile: PreferenceProfile) -> dict:
    """JSON-ready view of a trace: 1-based voters, labelled candidates."""
    return {
        "mode": trace.mode,
        "semantics": trace.semantics,
        "steps": [
            {"voter": voter + 1, "eliminated": profile.label(c)}
            for voter, c in trace.steps
        ],
        "winner": profile.label(trace.winner),
    }


def play_batch_winners(positions, turns) -> np.ndarray:
    """Vectorised sincere play over a batch of profiles.

    ``positions`` is indexed by voter id; entry ``v`` is an ``(B, m)`` or
    ``(1, m)`` int array of 0-based rank slots (broadcast across the batch).
    Returns the ``(B,)`` winners as unsigned integers of the narrowest type
    that holds ``m - 1`` (uint8 up to 256 candidates), valid ``take``
    indices. This is the hot kernel behind the Monte-Carlo sweeps and the
    exhaustive sweeps too large for :func:`table_batch_winners`, which plays
    ranking ids through a table of next alive masks instead; the scalar
    functions above stay the readable reference implementation.

    Each turn works slot-major on the voters' ``(m, B)`` transposes: it
    multiplies the acting voter's slots by an ``(m, B)`` alive mask, reduces
    the m rows to each profile's worst alive slot and clears the entry equal
    to it. That is exact: the two or more alive slots are distinct, so the
    worst is at least 1, above every zeroed dead entry, and no other entry
    equals it. At the end exactly one entry per column is alive, so the
    winner is the column's largest ``alive * candidate`` product: a
    reduction over rows, where ``argmax(axis=0)`` would walk the mask
    strided (on 2 CPUs, 11 µs against 313 µs at m = 10, B = 13,107). The
    mask is multiplied as int8 and every turn's compare lands in one
    preallocated buffer, so no turn converts or allocates. Transposed
    :func:`~elimgame.cultures.sample_positions_batch` voter slices have
    contiguous rows, the fast path.
    """
    cols = [p.T for p in positions]
    alive = np.ones(np.broadcast_shapes(*(c.shape for c in cols)), dtype=bool)
    mask = alive.view(np.int8)
    masked = np.empty(alive.shape, dtype=np.result_type(np.int8, *cols))
    worst = np.empty(alive.shape[1], dtype=masked.dtype)
    kept = np.empty(alive.shape, dtype=bool)
    for voter in turns:
        np.multiply(cols[voter], mask, out=masked)
        np.maximum.reduce(masked, axis=0, out=worst)
        np.not_equal(masked, worst, out=kept)
        alive &= kept
    m = alive.shape[0]
    ids = np.arange(m, dtype=np.min_scalar_type(m - 1))[:, None]
    return np.maximum.reduce(alive.view(np.uint8) * ids, axis=0)


def next_mask_table(pos: np.ndarray) -> np.ndarray:
    """``N[r, mask]``: ``mask`` without the candidate ranking ``r`` puts lowest.

    ``pos`` is an ``(R, m)`` position table (``pos[r, c]`` is the slot of
    candidate ``c`` in ranking ``r``) with ``m <= 8``; the result is
    ``(R, 2**m)`` uint8, with ``N[r, 0]`` unused. Masks are filled in
    increasing order from the mask without their lowest candidate ``c``:
    when ``c`` sits below the rest's lowest slot ``c`` leaves, else the
    rest's lowest leaves and ``c`` stays. Every array is one byte per entry,
    so building the table peaks at about twice its size.
    """
    rows, m = pos.shape
    cols = np.ascontiguousarray(pos.T)
    table = np.zeros((rows, 1 << m), dtype=np.uint8)
    # slot[mask]: the lowest slot among mask's candidates; -1 for mask 0
    slot = np.full((1 << m, rows), -1, dtype=np.int8)
    for mask in range(1, 1 << m):
        c = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << c)
        table[:, mask] = np.where(cols[c] > slot[rest], rest, table[:, rest] | (1 << c))
        np.maximum(slot[rest], cols[c], out=slot[mask])
    return table


def table_batch_winners(table: np.ndarray, ids, turns) -> np.ndarray:
    """Vectorised sincere play over a batch of profiles given as ranking ids.

    ``table`` is a :func:`next_mask_table`; ``ids`` is indexed by voter id
    and entry ``v`` is one ranking id (a row of the position table the
    table was built from) for the whole batch, or a ``(B,)`` int array of
    them. Returns the ``(B,)`` winners, equal to :func:`play_batch_winners`
    on the matching position rows.

    Only the array voters' turns touch rows. Until the first of them the
    alive mask is one Python int. After it, each run of scalar turns
    composes into one ``2**m``-entry map of masks, and each array turn is
    one gather from the flat table at ``(id << m) + mask``, with each array
    voter's ids shifted once per call. The winner is read through a
    mask-to-candidate map composed after the trailing run; a batch whose
    array voters never act gets one winner for every row.
    """
    size = table.shape[1]
    m = size.bit_length() - 1
    flat = table.reshape(-1)
    # an array voter's row offsets in the flat table; scalar voters stay ids
    rows = [i << m if isinstance(i, np.ndarray) else i for i in ids]
    alive, run = size - 1, None
    for voter in turns:
        i = rows[voter]
        if isinstance(i, np.ndarray):
            if run is not None:
                alive, run = run.take(alive), None
            alive = flat.take(i + alive)
        elif isinstance(alive, int):
            alive = int(table[i, alive])
        else:
            run = table[i] if run is None else table[i].take(run)
    lone = _lone_candidate(m)
    if isinstance(alive, int):
        return np.full(max(np.size(i) for i in ids), lone[alive])
    return (lone if run is None else lone.take(run)).take(alive)


@lru_cache(maxsize=8)
def _lone_candidate(m: int) -> np.ndarray:
    """The candidate of each one-bit mask of ``m`` candidates (0 elsewhere)."""
    lone = np.zeros(1 << m, dtype=np.intp)
    lone[1 << np.arange(m)] = np.arange(m)
    return lone
