"""The CB pair table counted from trajectory pairs, against enumeration."""

import itertools
from fractions import Fraction
from math import factorial, sqrt

import pytest

from elimgame import CultureSpec, RatioMode, sweep
from elimgame.experiments import run_montecarlo
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


def enumerated_table(turns, n, m):
    """``{den * base + num: count}`` and ``{den * base + num: first index}``
    from one in-order exhaustive chunk over the whole pinned space, no scan
    stopped early."""
    batch = factorial(m)
    args = (turns, turns[::-1], n, m, RatioMode.CB, batch, 0, batch ** (n - 1))
    keys, counts, tags = sweep._exhaustive_chunk(args)
    return dict(zip(keys.tolist(), counts.tolist())), dict(zip(keys.tolist(), tags.tolist()))


CASE_IDS = ["{}x{}-{}".format(n, m, "".join(str(t + 1) for t in turns)) for n, m, turns in CASES]


@pytest.mark.parametrize("n,m,turns", CASES, ids=CASE_IDS)
def test_table_equals_enumeration(n, m, turns):
    assert cb_pair_table(turns, n, m) == enumerated_table(turns, n, m)[0]


@pytest.mark.parametrize("n,m,turns", CASES, ids=CASE_IDS)
def test_witness_is_the_lowest_tag_of_the_maximum(n, m, turns):
    # equal ratios under different keys (2/4, 3/6) all count as the maximum
    table, tags = enumerated_table(turns, n, m)
    base = n * (m - 1) + 1
    ratios = {key: Fraction(key % base, key // base) for key in table}
    best = max(ratios.values())
    top = [key for key in table if ratios[key] == best]
    assert cb_witness(turns, n, m, top) == min(tags[key] for key in top)


def test_e1_witness_within_one_step_per_batch():
    # E1, (3, 7) 1,2,3,1,2,3: the maximum 2 = 14/7 first shows at index
    # 6,622,774, in the 21st of 79 scan chunks; the search settles it
    # within one step per batch of 5,040 profiles
    turns, base = seq_from("123123").turns, 19
    top = [key for key in cb_pair_table(turns, 3, 7) if key % base == 2 * (key // base)]
    assert top == [7 * base + 14]
    assert cb_witness(turns, 3, 7, top) == cb_witness(turns, 3, 7, top, 5040) == 6_622_774
    assert cb_witness(turns, 3, 7, top, 0) is None


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
