"""The CB pair table counted from trajectory pairs, against enumeration."""

import itertools
from math import factorial

import pytest

from elimgame import RatioMode, sweep
from elimgame.trajectories import cb_pair_table
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
    """``{den * base + num: count}`` from one in-order exhaustive chunk over
    the whole pinned space, no scan stopped early."""
    batch = factorial(m)
    args = (turns, turns[::-1], n, m, RatioMode.CB, batch, 0, batch ** (n - 1))
    keys, counts, _ = sweep._exhaustive_chunk(args)
    return dict(zip(keys.tolist(), counts.tolist()))


@pytest.mark.parametrize("n,m,turns", CASES,
                         ids=["{}x{}-{}".format(n, m, "".join(str(t + 1) for t in turns))
                              for n, m, turns in CASES])
def test_table_equals_enumeration(n, m, turns):
    assert cb_pair_table(turns, n, m) == enumerated_table(turns, n, m)


@pytest.mark.parametrize("n,m,turns", [(5, 7, (0, 1, 2, 3, 4, 0)), (20, 4, (0, 10, 19))])
def test_counts_cover_the_pinned_space(n, m, turns):
    # spaces far past any enumeration: (5, 7) holds 6.5e14 pinned profiles,
    # (20, 4) 24**19; the counts are Python ints and sum to (m!)**(n-1)
    table = cb_pair_table(turns, n, m)
    assert sum(table.values()) == factorial(m) ** (n - 1)
    base = n * (m - 1) + 1
    assert all(base <= key < base * base and count > 0 for key, count in table.items())

