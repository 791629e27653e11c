"""Game execution: sincere play, strategic outcomes, oracle, mixed behaviour.

The game: candidates are eliminated one per turn by the voter whose turn it
is, and the last remaining candidate wins. A sincere voter removes her least
preferred remaining candidate. The unique subgame-perfect outcome equals
sincere play on the reversed turn sequence, which is what
:func:`spne_outcome` computes; :func:`backward_induction` solves the full
game tree instead and exists to validate that shortcut, not to be fast.

This is the pure-Python reference engine. The numpy batch kernels live in
:mod:`elimgame.sweep`, their only caller, and are tested against it.
"""

from __future__ import annotations

from .core import EliminationSequence, PreferenceProfile, Record
from .errors import InvalidVoter, TreeTooLarge

#: largest candidate count backward_induction accepts without an override;
#: the memo has 2**m states, so this is a foot-gun guard, not a hard limit.
ORACLE_CANDIDATE_GUARD = 10


class GameTrace(Record):
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


class BehaviorAssignment(Record):
    """Which voters play sincerely; everyone else plays strategically."""

    sincere: frozenset[int] = frozenset()

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
            f"{m} candidates means 2**{m} subgames; the game-tree oracle stops "
            f"at {max_candidates} candidates"
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
