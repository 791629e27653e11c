"""Votes, preference profiles, elimination sequences and Borda scoring,
and the pinned enumeration that exhaustive studies index.

Candidates and voters are 0-based integers everywhere inside the package.
1-based numbering appears only at the text boundary: profile files,
sequence strings like ``"1,2,3,1"``, and JSON reports.

The pinned enumeration (voter 1 in identity order, the others' rankings in
lexicographic order) is decoded here, in plain integers: its size, each
voter's ranking id at an index, the profile at an index, and the profile
budget an exhaustive study may spend.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from math import factorial

from .errors import (
    CandidateUnknown,
    InvalidVoter,
    OutOfDomain,
    ParseError,
    SequenceLengthMismatch,
)

#: most voters a game or study takes, and a Monte-Carlo chunk's row budget
#: (``sweep.MC_CHUNK``): a one-sample chunk stays within it, and int32 sums
#: of up to 127 candidates' slots stay exact
MAX_VOTERS = 1 << 16

#: profiles an exhaustive enumeration may touch unless overridden; the
#: ELIMGAME_BUDGET environment variable or an explicit argument wins.
DEFAULT_BUDGET = 10**8

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def default_labels(m: int) -> tuple[str, ...]:
    """Candidate names used when a profile has no explicit labels."""
    if m <= len(_ALPHABET):
        return tuple(_ALPHABET[:m])
    return tuple(f"c{i + 1}" for i in range(m))


@dataclass(frozen=True)
class Vote:
    """A strict linear order over candidates ``0..m-1``, best first."""

    ranking: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.ranking) != list(range(len(self.ranking))):
            raise ValueError(
                f"ranking must be a permutation of 0..{len(self.ranking) - 1}: "
                f"{self.ranking!r}"
            )

    @property
    def m(self) -> int:
        return len(self.ranking)

    @cached_property
    def positions(self) -> tuple[int, ...]:
        """``positions[c]`` is the 0-based slot of candidate ``c`` (0 = best)."""
        pos = [0] * self.m
        for slot, c in enumerate(self.ranking):
            pos[c] = slot
        return tuple(pos)

    def rank(self, c: int) -> int:
        """1-based rank of ``c``: 1 for the favourite, m for the least liked."""
        if not 0 <= c < self.m:
            raise CandidateUnknown(f"candidate {c} not in a vote over {self.m} candidates")
        return self.positions[c] + 1

    def prefers(self, c: int, d: int) -> bool:
        return self.rank(c) < self.rank(d)

    def worst_among(self, alive) -> int:
        """Least preferred candidate in the non-empty collection ``alive``."""
        return max(alive, key=self.positions.__getitem__)


@dataclass(frozen=True)
class PreferenceProfile:
    """One vote per voter over a common candidate set.

    ``labels`` keeps the display names from a parsed file; profiles built in
    code usually leave it ``None`` and fall back to ``a, b, c, ...``.
    """

    votes: tuple[Vote, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.votes:
            raise ValueError("a profile needs at least one voter")
        m = self.votes[0].m
        if any(v.m != m for v in self.votes):
            raise ValueError("all votes must rank the same candidate set")
        if self.labels is not None:
            if len(self.labels) != m or len(set(self.labels)) != m:
                raise ValueError("labels must name every candidate exactly once")

    @classmethod
    def from_rankings(cls, rankings, labels=None) -> "PreferenceProfile":
        votes = tuple(Vote(tuple(r)) for r in rankings)
        return cls(votes, None if labels is None else tuple(labels))

    @property
    def n(self) -> int:
        return len(self.votes)

    @property
    def m(self) -> int:
        return self.votes[0].m

    def label(self, c: int) -> str:
        if not 0 <= c < self.m:
            raise CandidateUnknown(f"candidate {c} not in profile with m={self.m}")
        if self.labels is not None:
            return self.labels[c]
        return default_labels(self.m)[c]

    def rank(self, c: int, voter: int) -> int:
        if not 0 <= voter < self.n:
            raise InvalidVoter(f"voter {voter + 1} outside 1..{self.n}")
        return self.votes[voter].rank(c)

    def borda_score(self, c: int) -> int:
        """Sum over voters of ``m - rank(c)``."""
        if not 0 <= c < self.m:
            raise CandidateUnknown(f"candidate {c} not in profile with m={self.m}")
        m = self.m
        return sum(m - 1 - v.positions[c] for v in self.votes)

    def borda_scores(self) -> tuple[int, ...]:
        m = self.m
        scores = [0] * m
        for v in self.votes:
            for c in range(m):
                scores[c] += m - 1 - v.positions[c]
        return tuple(scores)

    def relabel(self, perm) -> "PreferenceProfile":
        """Rename candidate ``c`` to ``perm[c]`` in every vote. Labels drop."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.m)):
            raise ValueError("perm must be a candidate permutation")
        return PreferenceProfile.from_rankings(
            tuple(tuple(perm[c] for c in v.ranking) for v in self.votes)
        )


@dataclass(frozen=True)
class OccurrenceTable:
    """Per-voter turn counts of an elimination sequence."""

    counts: tuple[int, ...]

    @property
    def o_max(self) -> int:
        return max(self.counts) if self.counts else 0

    def argmax(self) -> int:
        """Lowest-index voter with the most turns."""
        return self.counts.index(self.o_max)


@dataclass(frozen=True)
class EliminationSequence:
    """Order in which voters take elimination turns; 0-based voter ids."""

    turns: tuple[int, ...]

    def __post_init__(self):
        if any(t < 0 for t in self.turns):
            raise InvalidVoter("voter indices must be non-negative")

    def __len__(self) -> int:
        return len(self.turns)

    def validate(self, n: int, m: int | None = None) -> None:
        """Check entries fit ``n`` voters and, when given, length ``m - 1``.

        ``n`` above :data:`MAX_VOTERS` is refused here, before any caller
        builds a per-voter list or array.
        """
        if n > MAX_VOTERS:
            raise OutOfDomain(f"at most {MAX_VOTERS} voters are supported, got {n}")
        if m is not None and len(self.turns) != m - 1:
            raise SequenceLengthMismatch(
                f"sequence has {len(self.turns)} turns but m-1={m - 1} are needed"
            )
        for t in self.turns:
            if t >= n:
                raise InvalidVoter(f"voter {t + 1} outside 1..{n}")

    def occurrences(self, n: int) -> OccurrenceTable:
        self.validate(n)
        counts = [0] * n
        for t in self.turns:
            counts[t] += 1
        return OccurrenceTable(tuple(counts))

    def is_palindromic(self) -> bool:
        return self.turns == self.turns[::-1]

    def reverse(self) -> "EliminationSequence":
        return EliminationSequence(self.turns[::-1])

    @classmethod
    def parse(cls, text: str) -> "EliminationSequence":
        """Parse comma-separated 1-based voter indices, e.g. ``"1,2,3,1"``."""
        parts = [p.strip() for p in text.split(",")]
        turns = []
        for p in parts:
            if not p.isdigit() or int(p) < 1:
                raise ParseError(f"bad voter index {p!r} in sequence {text!r}")
            turns.append(int(p) - 1)
        if not turns:
            raise ParseError("empty elimination sequence")
        return cls(tuple(turns))

    def to_text(self) -> str:
        return ",".join(str(t + 1) for t in self.turns)

    def compact(self) -> str:
        """Digit string like ``1112221`` when every index fits one digit."""
        if all(t < 9 for t in self.turns):
            return "".join(str(t + 1) for t in self.turns)
        return self.to_text()


def parse_profile(text: str) -> PreferenceProfile:
    """Parse the profile text format.

    One voter per line, candidate labels separated by whitespace, most
    preferred first; ``#`` starts a comment; blank lines are skipped.
    Candidate ids follow the label order of the first voter line.
    """
    index: dict[str, int] = {}
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not rows:
            # a label listed twice fails the row check below, on this line
            for tok in tokens:
                index.setdefault(tok, len(index))
        row = []
        seen = set()
        for tok in tokens:
            if tok not in index:
                raise ParseError(
                    f"line {lineno}: unknown candidate {tok!r}", line=lineno
                )
            if tok in seen:
                raise ParseError(
                    f"line {lineno}: candidate {tok!r} listed twice", line=lineno
                )
            seen.add(tok)
            row.append(index[tok])
        if len(row) != len(index):
            raise ParseError(
                f"line {lineno}: expected {len(index)} candidates, got {len(row)}",
                line=lineno,
            )
        rows.append(row)
    if not rows:
        raise ParseError("no voter lines found")
    return PreferenceProfile.from_rankings(rows, labels=list(index))


def format_profile(profile: PreferenceProfile) -> str:
    """Inverse of :func:`parse_profile` up to comments and spacing."""
    lines = [
        " ".join(profile.label(c) for c in v.ranking) for v in profile.votes
    ]
    return "\n".join(lines) + "\n"


def resolve_budget(budget: int | None = None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get("ELIMGAME_BUDGET")
    if env is not None:
        try:
            limit = int(env)
        except ValueError:
            limit = None
        if limit is None or limit < 0:
            raise ParseError(f"ELIMGAME_BUDGET must be a non-negative integer, got {env!r}")
        return limit
    return DEFAULT_BUDGET


def enumeration_size(n: int, m: int) -> int:
    """Profiles in the pinned space, where voter 1 ranks in identity order."""
    return factorial(m) ** (n - 1)


def ranking_ids(n: int, m: int, index: int) -> list[int]:
    """Each voter's ranking id in the profile at rank ``index`` of the
    pinned enumeration order.

    This is the one place that order is decoded: voter 1 is pinned to the
    identity (id 0), and the others' ranking ids run lexicographically, the
    second voter most significant and the last voter least, so consecutive
    indices run the last voter over consecutive ranking ids. Ranking id
    ``r`` is the ``r``-th ranking in lexicographic order, a row of
    ``cultures.permutation_table``.
    """
    total = enumeration_size(n, m)
    if not 0 <= index < total:
        raise ValueError(f"index {index} outside 0..{total - 1}")
    ids = [0] * n
    for v in range(n - 1, 0, -1):
        index, ids[v] = divmod(index, factorial(m))
    return ids


def profile_at_index(n: int, m: int, index: int) -> PreferenceProfile:
    """Profile at a given rank of the pinned order; see :func:`ranking_ids`.

    Each ranking id is decoded by its factorial digits: the digit of
    ``(k-1)!`` picks the next candidate, best first, among the ``k`` not
    yet ranked, in increasing order.
    """
    rankings = []
    for r in ranking_ids(n, m, index):
        rest, ranking = list(range(m)), []
        for k in range(m - 1, -1, -1):
            digit, r = divmod(r, factorial(k))
            ranking.append(rest.pop(digit))
        rankings.append(ranking)
    return PreferenceProfile.from_rankings(rankings)
