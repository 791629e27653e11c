"""The CB study counted from trajectory pairs, against enumeration."""

import functools
import itertools
from fractions import Fraction
from math import factorial, sqrt

import pytest

from elimgame import CultureSpec, EliminationSequence, RatioMode, sweep, trajectories
from elimgame.experiments import run_exhaustive, run_montecarlo
from elimgame.trajectories import cb_study
from helpers import seq_from

#: every sequence at the small sizes, then both E1-size (3, 7) sequences,
#: a two-voter m = 8 one and lone voters, whose space is one profile
CASES = [
    (n, m, turns)
    for n, ms in [(1, range(2, 7)), (2, range(3, 7)), (3, range(3, 6)), (4, [4])]
    for m in ms
    for turns in itertools.product(range(n), repeat=m - 1)
] + [(3, 7, seq_from(c).turns) for c in ("123123", "123321")] + [
    (2, 8, seq_from("1212121").turns),
]


@functools.cache
def enumerated_table(turns, n, m):
    """``{den * base + num: count}`` and ``{den * base + num: first index}``
    from one in-order exhaustive chunk over the whole pinned space, no scan
    stopped early; enumerated once per case for all the tests here."""
    batch = factorial(m)
    args = (turns, turns[::-1], n, m, RatioMode.CB, batch, 0, batch ** (n - 1))
    keys, counts, tags = sweep._exhaustive_chunk(args)
    return dict(zip(keys.tolist(), counts.tolist())), dict(zip(keys.tolist(), tags.tolist()))


def maximum_keys(table, base):
    """The keys of the maximum ratio: equal ratios under different keys
    (2/4, 3/6) all count as the maximum."""
    ratios = {key: Fraction(key % base, key // base) for key in table}
    best = max(ratios.values())
    return [key for key in table if ratios[key] == best]


CASE_IDS = ["{}x{}-{}".format(n, m, "".join(str(t + 1) for t in turns)) for n, m, turns in CASES]

#: one study per case, whose table and index the two tests below check
studied = functools.cache(cb_study)


@pytest.mark.parametrize("n,m,turns", CASES, ids=CASE_IDS)
def test_table_equals_enumeration(n, m, turns):
    assert studied(turns, n, m)[0] == enumerated_table(turns, n, m)[0]


@pytest.mark.parametrize("n,m,turns", CASES, ids=CASE_IDS)
def test_witness_is_the_lowest_tag_of_the_maximum(n, m, turns):
    table, tags = enumerated_table(turns, n, m)
    top = maximum_keys(table, n * (m - 1) + 1)
    assert studied(turns, n, m)[1] == min(tags[key] for key in top)


def test_one_fill_per_relation_serves_table_and_witness(monkeypatch):
    # E1: the table walks every leaf, and the witness walks them all again
    # before it settles at index 6,622,774; both must read the fills the
    # table's walk made, each distinct (relation, w_r) filled once, and a
    # second study of the same game fills every relation again
    turns, n, m = seq_from("123123").turns, 3, 7
    made = []

    def counted(below, m, w_r, base):
        fill = fill_once(below, m, w_r, base)
        made.append(((*below, w_r), fill))
        return fill

    walks = []

    def recorded(turns, n, m, known):
        read = set()
        walks.append(read)
        for fills, w_r in leaves(turns, n, m, known):
            read.update(map(id, fills))
            yield fills, w_r

    fill_once, leaves = trajectories._voter_fill, trajectories._leaves
    monkeypatch.setattr(trajectories, "_voter_fill", counted)
    monkeypatch.setattr(trajectories, "_leaves", recorded)
    res = run_exhaustive(EliminationSequence(turns), n, m, RatioMode.CB)
    assert res.max_index == 6_622_774
    relations = [relation for relation, _ in made]
    assert len(relations) == len(set(relations))
    assert walks == [{id(fill) for _, fill in made}] * 2
    first = len(made)
    assert cb_study(turns, n, m)[1] == 6_622_774
    assert sorted(relation for relation, _ in made[first:]) == sorted(relations)


@pytest.mark.parametrize("n,m,turns", [(5, 7, (0, 1, 2, 3, 4, 0)), (20, 4, (0, 10, 19))])
def test_counts_cover_the_pinned_space(n, m, turns):
    # spaces far past any enumeration: (5, 7) holds 6.5e14 pinned profiles,
    # (20, 4) 24**19; the counts are Python ints and sum to (m!)**(n-1)
    table = cb_study(turns, n, m)[0]
    assert sum(table.values()) == factorial(m) ** (n - 1)
    base = n * (m - 1) + 1
    assert all(base <= key < base * base and count > 0 for key, count in table.items())



def test_impartial_culture_sample_mean_meets_the_exact_mean():
    # Impartial culture draws every profile of the full space alike, and a
    # relabelling moves no ratio, so the pinned table is IC's exact CB
    # distribution. 10**5 samples at seed 0 must land within 5 standard
    # errors of its mean, the error taken from its exact variance.
    s, n, m, samples = seq_from("123451"), 5, 7, 10**5
    base = n * (m - 1) + 1
    table = cb_study(s.turns, n, m)[0]
    total = sum(table.values())
    ratios = {key: Fraction(key % base, key // base) for key in table}
    mean = sum(count * ratios[key] for key, count in table.items()) / total
    variance = sum(count * ratios[key] ** 2 for key, count in table.items()) / total - mean**2
    se = sqrt(variance / samples)
    res = run_montecarlo(s, n, m, RatioMode.CB, CultureSpec.impartial(), samples, 0)
    assert res.count == samples and se > 0
    assert abs(float(res.mean - mean)) <= 5 * se, (float(res.mean), float(mean), se)
