"""The CB pair table counted from trajectory pairs, against enumeration."""

import functools
import itertools
from fractions import Fraction
from math import factorial, sqrt

import pytest

from elimgame import CultureSpec, EliminationSequence, RatioMode, sweep, trajectories
from elimgame.experiments import run_exhaustive, run_montecarlo
from elimgame.trajectories import cb_pair_table, cb_witness
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


@pytest.mark.parametrize("n,m,turns", CASES, ids=CASE_IDS)
def test_table_equals_enumeration(n, m, turns):
    assert cb_pair_table(turns, n, m) == enumerated_table(turns, n, m)[0]


@pytest.mark.parametrize("n,m,turns", CASES, ids=CASE_IDS)
def test_witness_is_the_lowest_tag_of_the_maximum(n, m, turns):
    table, tags = enumerated_table(turns, n, m)
    top = maximum_keys(table, n * (m - 1) + 1)
    assert cb_witness(turns, n, m, top) == min(tags[key] for key in top)


def test_one_fill_per_relation_serves_table_and_witness(monkeypatch):
    # E1: the table walks every leaf, and the witness walks them all again
    # before it settles at index 6,622,774; both must read the fills the
    # table's walk made, each distinct (relation, w_r) filled once
    turns, n, m = seq_from("123123").turns, 3, 7
    made = []

    def counted(below, m, w_r, base):
        fill = fill_once(below, m, w_r, base)
        made.append(((*below, w_r), fill))
        return fill

    walks = []

    def recorded(turns, n, m):
        read = set()
        walks.append(read)
        for fills, w_r in leaves(turns, n, m):
            read.update(map(id, fills))
            yield fills, w_r

    fill_once, leaves = trajectories._voter_fill, trajectories._leaves
    monkeypatch.setattr(trajectories, "_voter_fill", counted)
    monkeypatch.setattr(trajectories, "_leaves", recorded)
    trajectories._game_fills.cache_clear()
    res = run_exhaustive(EliminationSequence(turns), n, m, RatioMode.CB)
    assert res.max_index == 6_622_774
    relations = [relation for relation, _ in made]
    assert len(relations) == len(set(relations))
    assert walks == [{id(fill) for _, fill in made}] * 2


def test_interleaved_games_keep_their_own_fills():
    # (2, 5) and (3, 5) share their turns but not base = n(m-1) + 1, so a
    # fill kept for one must not serve the other
    a, b = ((0, 1, 0, 1), 2, 5), ((0, 1, 0, 1), 3, 5)
    trajectories._game_fills.cache_clear()
    assert cb_pair_table(*a) == enumerated_table(*a)[0]
    for turns, n, m in (b, a):
        table, tags = enumerated_table(turns, n, m)
        top = maximum_keys(table, n * (m - 1) + 1)
        assert cb_witness(turns, n, m, top) == min(tags[key] for key in top)


def test_e1_witness_index():
    # E1, (3, 7) 1,2,3,1,2,3: the maximum 2 = 14/7 first shows at index
    # 6,622,774, 26% of the way into the pinned space
    turns, base = seq_from("123123").turns, 19
    top = [key for key in cb_pair_table(turns, 3, 7) if key % base == 2 * (key // base)]
    assert top == [7 * base + 14]
    assert cb_witness(turns, 3, 7, top) == 6_622_774


@pytest.mark.parametrize("n,m,turns", [(5, 7, (0, 1, 2, 3, 4, 0)), (20, 4, (0, 10, 19))])
def test_counts_cover_the_pinned_space(n, m, turns):
    # spaces far past any enumeration: (5, 7) holds 6.5e14 pinned profiles,
    # (20, 4) 24**19; the counts are Python ints and sum to (m!)**(n-1)
    table = cb_pair_table(turns, n, m)
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
    table = cb_pair_table(s.turns, n, m)
    total = sum(table.values())
    ratios = {key: Fraction(key % base, key // base) for key in table}
    mean = sum(count * ratios[key] for key, count in table.items()) / total
    variance = sum(count * ratios[key] ** 2 for key, count in table.items()) / total - mean**2
    se = sqrt(variance / samples)
    res = run_montecarlo(s, n, m, RatioMode.CB, CultureSpec.impartial(), samples, 0)
    assert res.count == samples and se > 0
    assert abs(float(res.mean - mean)) <= 5 * se, (float(res.mean), float(mean), se)
