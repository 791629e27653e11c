"""Constructions of profiles attaining the worst-case welfare bounds.

Both generators follow the same skeleton. Pick a voter x with the most
turns (O_max of them): the anarchy construction takes the lowest id, the
sincerity construction the lowest id that admits its structure. Give every
other voter i a private block of o_i throwaway candidates at the bottom of
her ranking, just below the designated strategic winner b; sincere play then
makes each voter spend her turns eliminating exactly her own block, and the
placement of b and the top candidates does the rest. Each generator only
pins those few cells; one routine lays out every block. The throwaway blocks
are pairwise disjoint, except for the candidate the sincerity construction
shares, which is possible because turn counts sum to m - 1.

For the anarchy bound the profile makes a near-unanimous favourite a lose
to b, whose score is pinned at m - 1 + O_max over m - 1 normalised; the
bound is attainable for every sequence. For the sincerity bound, b must
survive sincere play but win strategic play, which needs a helper voter y
and a shared candidate e that x eliminates under sincere order and y under
reversed order; whether turns can be ordered that way depends on the
sequence, and sequences admitting no such (y, r, k) structure raise
StructureUnsatisfiable. Palindromic sequences never admit one: the two
orderings required are mirror images, so they cannot both hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import EliminationSequence, PreferenceProfile
from .errors import StructureUnsatisfiable, Unsatisfiable
from .play import backward_induction, spne_outcome
from .welfare import poa_for_sequence, ratio_ab, ratio_cb, sr_bound_for_sequence


class ExtremalMode(Enum):
    POA = "poa"
    SR = "sr"

    @classmethod
    def parse(cls, text: str) -> "ExtremalMode":
        return cls(text.lower())


@dataclass(frozen=True)
class ExtremalSpec:
    """Structure behind a generated worst-case profile.

    Candidate ids: ``b`` wins strategic play in both modes. POA mode also
    names ``a``, the candidate everyone but x loves; SR mode names the
    sincere winner ``c``, the shared throwaway ``e`` (x's r-th worst, y's
    k-th worst) and the helper voter ``y``.
    """

    mode: ExtremalMode
    n: int
    m: int
    sequence: EliminationSequence
    x: int
    b: int
    a: int | None = None
    c: int | None = None
    e: int | None = None
    y: int | None = None
    r: int | None = None
    k: int | None = None


def _common_checks(seq: EliminationSequence, n: int, m: int) -> list[int]:
    if n < 2:
        raise Unsatisfiable("worst-case constructions need at least two voters")
    if m < 2:
        raise Unsatisfiable("worst-case constructions need at least two candidates")
    seq.validate(n, m)
    return list(seq.occurrences(n).counts)


def _helper_pins(counts: list[int], m: int, top: int, b: int) -> list[dict[int, int]]:
    """Pins ``{0: top, m - c_i - 1: b}`` of every voter i, b right above her
    block; the caller replaces x's. A voter other than x has at most
    (m - 1) / 2 turns, so her b slot always lies below her top slot."""
    return [{0: top, m - c - 1: b} for c in counts]


def _fill_rows(pins: list[dict[int, int]], counts: list[int], m: int,
               reserved: int) -> PreferenceProfile:
    """Complete partially pinned rankings into a full profile.

    ``pins[i]`` maps slot -> candidate for voter i's pinned cells. Her
    throwaway block is her ``counts[i]`` bottom slots: free candidates
    (ids >= reserved) go one each into the block slots she has not pinned,
    voters in descending turn count, then id. Whatever each row still lacks
    pads it top down in id order.
    """
    free = list(range(reserved, m))
    for i in sorted(range(len(pins)), key=lambda i: (-counts[i], i)):
        for slot in range(m - counts[i], m):
            if slot not in pins[i]:
                assert free, "ran out of throwaway candidates"
                pins[i][slot] = free.pop(0)
    assert not free, "unplaced throwaway candidates remain"
    rows = []
    for row in pins:
        used = set(row.values())
        rest = iter([c for c in range(m) if c not in used])
        rows.append([row[s] if s in row else next(rest) for s in range(m)])
    return PreferenceProfile.from_rankings(rows)


def gen_poa_tight(
    seq: EliminationSequence, n: int, m: int
) -> tuple[PreferenceProfile, ExtremalSpec]:
    """Profile whose AB ratio equals the anarchy bound for this sequence.

    Candidate 0 is the Borda favourite a (top for everyone but x), candidate
    1 the strategic and sincere winner b. Both behaviours elect b: every
    voter sincerely burns her own throwaway block, and x, acting last among
    live options, removes a just before the end.
    """
    counts = _common_checks(seq, n, m)
    o_max = max(counts)
    x = counts.index(o_max)
    a, b = 0, 1
    pins = _helper_pins(counts, m, top=a, b=b)
    pins[x] = {m - o_max - 1: b, m - o_max: a}
    profile = _fill_rows(pins, counts, m, reserved=2)
    spec = ExtremalSpec(ExtremalMode.POA, n, m, seq, x=x, b=b, a=a)
    return profile, spec


def _structure_search(turns_of: list[list[int]], length: int):
    """Find (x, y, r, k): x takes e before y sincerely, y before x reversed.

    x is a voter with the most turns, tried in id order; e will be x's r-th
    worst and y's k-th worst candidate. Sincere play reaches it at x's r-th
    turn, reversed play at y's k-th reversed turn, so feasibility is a pure
    turn-ordering question. Candidates for y are scanned by latest final
    turn first, which reproduces the block layout (heaviest voters first,
    helper last) whenever that layout works.
    """
    o_max = max(map(len, turns_of))
    for x in (i for i, turns in enumerate(turns_of) if len(turns) == o_max):
        ys = [i for i in range(len(turns_of)) if i != x and turns_of[i]]
        ys.sort(key=lambda i: (-turns_of[i][-1], i))
        for y in ys:
            o_y = len(turns_of[y])
            for r in range(1, o_max + 1):
                for k in range(1, o_y + 1):
                    sincere_ok = turns_of[x][r - 1] < turns_of[y][k - 1]
                    ry = length - 1 - turns_of[y][o_y - k]
                    rx = length - 1 - turns_of[x][o_max - r]
                    if sincere_ok and ry < rx:
                        return x, y, r, k
    return None


def gen_sr_tight(
    seq: EliminationSequence, n: int, m: int
) -> tuple[PreferenceProfile, ExtremalSpec]:
    """Profile whose CB ratio equals the sincerity upper bound, if possible.

    Candidate 0 is the sincere winner c, candidate 1 the strategic winner b,
    candidate 2 the shared throwaway e. Under sincere play x removes e, so
    the helper y runs out of throwaways and spends her last turn on b;
    under reversed play y removes e first, so x's final turn lands on c
    instead. Raises StructureUnsatisfiable when no voter pair can be
    ordered that way, whichever busiest voter plays x (palindromic
    sequences in particular).
    """
    counts = _common_checks(seq, n, m)
    o_max = max(counts)
    if o_max > m - 2:
        raise StructureUnsatisfiable(
            "the busiest voter's block leaves no room above b and c"
        )
    turns_of = [[t for t, v in enumerate(seq.turns) if v == i] for i in range(n)]
    found = _structure_search(turns_of, len(seq.turns))
    if found is None:
        raise StructureUnsatisfiable(
            f"sequence {seq.compact()} admits no bound-attaining profile: "
            "no helper voter can trade the shared candidate across orderings"
        )
    x, y, r, k = found
    c, b, e = 0, 1, 2
    pins = _helper_pins(counts, m, top=c, b=b)
    pins[x] = {m - o_max - 2: b, m - o_max - 1: c, m - r: e}
    pins[y][m - k] = e
    profile = _fill_rows(pins, counts, m, reserved=3)
    spec = ExtremalSpec(
        ExtremalMode.SR, n, m, seq, x=x, b=b, c=c, e=e, y=y, r=r, k=k
    )
    return profile, spec


def generate(
    mode: ExtremalMode, seq: EliminationSequence, n: int, m: int
) -> tuple[PreferenceProfile, ExtremalSpec]:
    if mode is ExtremalMode.POA:
        return gen_poa_tight(seq, n, m)
    return gen_sr_tight(seq, n, m)


@dataclass(frozen=True)
class TightnessReport:
    """Outcome of re-deriving a bound from an actual profile."""

    mode: ExtremalMode
    achieved: Fraction
    bound: Fraction
    attained: bool
    oracle_agrees: bool | None = None


def verify_tight(
    profile: PreferenceProfile,
    seq: EliminationSequence,
    mode: ExtremalMode,
    oracle: bool = False,
) -> TightnessReport:
    """Recompute the ratio through the play engine and compare to the bound.

    With ``oracle`` the strategic winner is additionally recomputed by full
    backward induction (small m only) and checked against the reversed-
    sequence shortcut.
    """
    if mode is ExtremalMode.POA:
        achieved = ratio_ab(profile, seq)
        bound = poa_for_sequence(seq, profile.n, profile.m)
    else:
        achieved = ratio_cb(profile, seq)
        bound = sr_bound_for_sequence(seq, profile.n, profile.m)
    agrees = None
    if oracle:
        agrees = (
            backward_induction(profile, seq).winner
            == spne_outcome(profile, seq).winner
        )
    return TightnessReport(mode, achieved, bound, achieved == bound, agrees)
