"""Welfare ratios and their closed-form worst-case bounds.

Two ratios, both against the strategic (subgame-perfect) winner's Borda
score: AB divides the best attainable score by it, CB divides the sincere
winner's score by it. AB is at least 1 by construction; CB can fall below 1
when strategy helps welfare. All values are exact fractions.

Closed forms, for n >= 2 voters, m >= 2 candidates and a maximum turn count
O_max over voters:

    worst-case AB = (O_max - 1 + (n - 1)(m - 1)) / (m - 1)   [attained]
    CB upper bound = (O_max + (n - 1)(m - 1)) / m            [not always]

The AB bound is attainable for every sequence; the CB bound only for
sequences admitting the right turn-order structure (see the extremal
module). CB is also bounded below by the reciprocal of its upper bound:
reversing the sequence swaps sincere and strategic winners, inverting the
ratio.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .core import EliminationSequence, PreferenceProfile
from .errors import OutOfDomain, ZeroWelfare
from .play import sincere_play, spne_outcome


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


def ratio_json(r: Fraction) -> dict:
    return {"num": r.numerator, "den": r.denominator, "float": float(r)}


def _score_ratio(scores: tuple[int, ...], top: int, bottom: int) -> Fraction:
    if scores[bottom] == 0:
        # unreachable for n >= 2: the max-occurrence voter keeps the
        # strategic winner above her last place, forcing a positive score
        raise ZeroWelfare("strategic winner has zero Borda score")
    return Fraction(scores[top], scores[bottom])


def ratio_ab(profile: PreferenceProfile, seq: EliminationSequence) -> Fraction:
    """Best Borda score over the strategic winner's score (>= 1)."""
    scores = profile.borda_scores()
    best = scores.index(max(scores))
    return _score_ratio(scores, best, spne_outcome(profile, seq).winner)


def ratio_cb(profile: PreferenceProfile, seq: EliminationSequence) -> Fraction:
    """Sincere winner's Borda score over the strategic winner's."""
    return _score_ratio(
        profile.borda_scores(),
        sincere_play(profile, seq).winner,
        spne_outcome(profile, seq).winner,
    )


def _check_domain(n: int, m: int, o_max: int) -> None:
    if n < 2:
        raise OutOfDomain("closed-form bounds assume at least two voters")
    if m < 2:
        raise OutOfDomain("closed-form bounds assume at least two candidates")
    if not 1 <= o_max <= m - 1:
        raise OutOfDomain(f"O_max must lie in 1..{m - 1}, got {o_max}")


def poa_formula(n: int, m: int, o_max: int) -> Fraction:
    """Exact worst-case AB ratio over all profiles (price of anarchy)."""
    _check_domain(n, m, o_max)
    return Fraction(o_max - 1 + (n - 1) * (m - 1), m - 1)


def sr_upper_bound(n: int, m: int, o_max: int) -> Fraction:
    """Upper bound on the CB ratio; attainable only for some sequences."""
    _check_domain(n, m, o_max)
    return Fraction(o_max + (n - 1) * (m - 1), m)


def poa_for_sequence(seq: EliminationSequence, n: int, m: int) -> Fraction:
    seq.validate(n, m)
    return poa_formula(n, m, seq.occurrences(n).o_max)


def sr_bound_for_sequence(seq: EliminationSequence, n: int, m: int) -> Fraction:
    seq.validate(n, m)
    return sr_upper_bound(n, m, seq.occurrences(n).o_max)

