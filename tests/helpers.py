"""Shared test helpers: compact builders for profiles and sequences, the
plain-python oracles for the enumeration order and the Mallows model, and
the numpy oracle for histogram binning."""

from __future__ import annotations

import itertools
import random

import numpy as np

from elimgame import CandidateUnknown, EliminationSequence, InvalidVoter, PreferenceProfile, Vote


def profile(*rankings: str) -> PreferenceProfile:
    """Profiles from letter strings: 'abcd' means a > b > c > d, a is id 0."""
    return PreferenceProfile.from_rankings(
        [tuple(ord(c) - 97 for c in r) for r in rankings]
    )


def relabel(p: PreferenceProfile, perm) -> PreferenceProfile:
    """``p`` with candidate ``c`` renamed ``perm[c]`` in every vote; labels drop."""
    perm = tuple(perm)
    if sorted(perm) != list(range(p.m)):
        raise ValueError("perm must be a candidate permutation")
    return PreferenceProfile.from_rankings([[perm[c] for c in v.ranking] for v in p.votes])


def seq(*turns: int) -> EliminationSequence:
    """Sequence from 1-based voter numbers."""
    return EliminationSequence(tuple(t - 1 for t in turns))


def seq_from(compact: str) -> EliminationSequence:
    return EliminationSequence(tuple(int(c) - 1 for c in compact))


def vote_rank(v: Vote, c: int) -> int:
    """1-based rank of ``c`` in ``v``: 1 for the favourite, m for the least liked."""
    if not 0 <= c < v.m:
        raise CandidateUnknown(f"candidate {c} not in a vote over {v.m} candidates")
    return v.positions[c] + 1


def rank(p: PreferenceProfile, c: int, voter: int) -> int:
    """1-based rank of ``c`` in the vote of the 0-based ``voter``."""
    if not 0 <= voter < p.n:
        raise InvalidVoter(f"voter {voter + 1} outside 1..{p.n}")
    return vote_rank(p.votes[voter], c)


def random_vote(rng: random.Random, m: int) -> Vote:
    ranking = list(range(m))
    rng.shuffle(ranking)
    return Vote(tuple(ranking))


def random_profile(rng: random.Random, n: int, m: int) -> PreferenceProfile:
    return PreferenceProfile(tuple(random_vote(rng, m) for _ in range(n)))


def random_sequence(rng: random.Random, n: int, m: int) -> EliminationSequence:
    return EliminationSequence(tuple(rng.randrange(n) for _ in range(m - 1)))


def random_instance(rng: random.Random, n_choices=(2, 3), m_choices=(3, 4, 5, 6)):
    n = rng.choice(n_choices)
    m = rng.choice(m_choices)
    return random_profile(rng, n, m), random_sequence(rng, n, m)


def enumerate_profiles(n: int, m: int, fix_first: bool = True):
    """Yield every profile in the engine's enumeration order: rankings in
    lexicographic order (ranking 0 is the identity), the first listed voter
    most significant. With ``fix_first`` voter 1 is pinned to the identity,
    the pinned space that ``core.profile_at_index`` decodes."""
    pinned = [tuple(range(m))] if fix_first else []
    for rows in itertools.product(itertools.permutations(range(m)), repeat=n - len(pinned)):
        yield PreferenceProfile.from_rankings(pinned + list(rows))


def kendall_tau(v1: Vote, v2: Vote) -> int:
    """Number of candidate pairs the two votes order oppositely."""
    if v1.m != v2.m:
        raise ValueError(f"votes rank {v1.m} and {v2.m} candidates")
    seq = [v2.positions[c] for c in v1.ranking]
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return inv


def mallows_pmf(m: int, phi: float, reference: Vote) -> dict[tuple[int, ...], float]:
    """Exact Mallows pmf over all m! rankings (tiny m only; test oracle)."""
    z = 1.0
    for j in range(2, m + 1):
        z *= sum(phi**k for k in range(j))
    out = {}
    for perm in itertools.permutations(range(m)):
        out[perm] = phi ** kendall_tau(Vote(perm), reference) / z
    return out


def numpy_bin_pairs(pairs, low: float, high: float, bins: int) -> list[tuple[float, float, int]]:
    """``experiments.bin_pairs`` as numpy computes it: ``np.linspace``
    edges, ``searchsorted`` bins clipped to the ends, and the spike before
    the first left edge at least 1.0 (test oracle)."""
    edges = np.linspace(low, high, bins + 1)
    num, den, counts = np.array(pairs, dtype=np.int64).reshape(-1, 3).T
    off = num != den
    idx = np.searchsorted(edges, num[off] / den[off], side="right") - 1
    hist = np.zeros(bins, dtype=np.int64)
    np.add.at(hist, np.clip(idx, 0, bins - 1), counts[off])
    rows = [(float(edges[i]), float(edges[i + 1]), int(c)) for i, c in enumerate(hist)]
    rows.insert(int(np.searchsorted(edges[:-1], 1.0)), (1.0, 1.0, int(counts[~off].sum())))
    return rows
