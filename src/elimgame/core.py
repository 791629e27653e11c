"""Votes, preference profiles, elimination sequences and Borda scoring,
the culture specs that name a vote distribution (:mod:`elimgame.cultures`
samples them), and the pinned enumeration that exhaustive studies index.

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
from enum import Enum
from functools import cached_property
from math import factorial

from .errors import (
    CandidateUnknown,
    InvalidVoter,
    OutOfDomain,
    ParseError,
    PhiOutOfRange,
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


class Record:
    """Base of the package's immutable value records.

    A subclass's fields are its annotated names, in order, with class-level
    values as defaults. Records take fields by position or keyword, run
    ``__post_init__`` once they are set, compare and hash by type and field
    values, and refuse assignment and deletion (``cached_property`` writes
    the instance dict directly). The repr leaves out the fields in ``_hidden``.
    Unlike the standard library's records, it loads no :mod:`inspect` at start.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or len(values) != len(names)
                or kwargs and not kwargs.keys() <= set(names[len(args):])):
            raise TypeError(
                f"{type(self).__name__} takes the fields ({', '.join(names)}), "
                f"got {len(args)} by position and {sorted(kwargs)} by keyword"
            )
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = (f"{f}={self.__dict__[f]!r}" for f in self._fields if f not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")


class Vote(Record):
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

    def worst_among(self, alive) -> int:
        """Least preferred candidate in the non-empty collection ``alive``."""
        return max(alive, key=self.positions.__getitem__)


class PreferenceProfile(Record):
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

    def borda_scores(self) -> tuple[int, ...]:
        m = self.m
        scores = [0] * m
        for v in self.votes:
            for c in range(m):
                scores[c] += m - 1 - v.positions[c]
        return tuple(scores)


class OccurrenceTable(Record):
    """Per-voter turn counts of an elimination sequence."""

    counts: tuple[int, ...]

    @property
    def o_max(self) -> int:
        return max(self.counts) if self.counts else 0


class EliminationSequence(Record):
    """Order in which voters take elimination turns; 0-based voter ids."""

    turns: tuple[int, ...]

    def __post_init__(self):
        if any(t < 0 for t in self.turns):
            raise InvalidVoter("voter indices must be non-negative")

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
        return cls(parse_voters(text, "sequence"))

    def to_text(self) -> str:
        return ",".join(str(t + 1) for t in self.turns)

    def compact(self) -> str:
        """Digit string like ``1112221`` when every index fits one digit."""
        if all(t < 9 for t in self.turns):
            return "".join(str(t + 1) for t in self.turns)
        return self.to_text()


def parse_voters(text: str, what: str) -> tuple[int, ...]:
    """0-based voter ids from comma-separated 1-based indices; any other
    text, empty text included, is a :class:`ParseError` naming ``what``."""
    voters = []
    for p in map(str.strip, text.split(",")):
        try:  # isdecimal, not isdigit: int() refuses "²", and too many digits
            index = int(p) if p.isdecimal() else 0
        except ValueError:
            index = 0
        if index < 1:
            raise ParseError(f"bad voter index {p!r} in {what} {text!r}")
        voters.append(index - 1)
    return tuple(voters)


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


class CultureKind(Enum):
    IMPARTIAL = "ic"
    MALLOWS = "mallows"


class CultureSpec(Record):
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
