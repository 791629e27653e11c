"""The CB study counted from trajectory pairs, against enumeration."""

import functools
import itertools
from fractions import Fraction
from math import factorial, sqrt

import pytest

from elimgame import (
    CultureSpec,
    EliminationSequence,
    RatioMode,
    sincere_play,
    spne_outcome,
    sweep,
    trajectories,
)
from elimgame.experiments import run_exhaustive, run_montecarlo
from elimgame.trajectories import cb_study
from helpers import enumerate_profiles, relabel, seq_from

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
    args = (turns, n, m, RatioMode.CB, batch, 0, batch ** (n - 1))
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
    # E1: the table walks all 61 leaves, and the witness walks them all
    # again before it settles at index 6,622,774; both must read the fills
    # of the study's one memo, each distinct (relation, w_r) at a leaf
    # filled once, 103 of them, and a second study of the same game fills
    # every relation again
    turns, n, m = seq_from("123123").turns, 3, 7
    made = {}  # id of each fill -> (relation, fill), the fill kept alive

    def counted(relation, m, base):
        fill = fill_once(relation, m, base)
        made[id(fill)] = relation, fill
        return fill

    walks = []

    def recorded(turns, n, m):
        seen = []
        walks.append(seen)
        for relations, w_r in leaves(turns, n, m):
            seen.extend(relations)
            yield relations, w_r

    # the made polynomials the table's products read; a made fill is alive,
    # so no other object at the call shares its id
    multiplied = set()

    def product(a, b):
        polys = {id(fill[0]): key for key, (_, fill) in made.items()}
        multiplied.update(polys[id(p)] for p in (a, b) if id(p) in polys)
        return multiply(a, b)

    searched = set()

    def witnessed(turns, n, m, top, fill):
        def read(relation):
            out = fill(relation)
            searched.add(id(out))
            return out
        return witness(turns, n, m, top, read)

    fill_once, leaves = trajectories._voter_fill, trajectories._leaves
    multiply, witness = trajectories._multiply, trajectories._witness
    monkeypatch.setattr(trajectories, "_voter_fill", counted)
    monkeypatch.setattr(trajectories, "_leaves", recorded)
    monkeypatch.setattr(trajectories, "_multiply", product)
    monkeypatch.setattr(trajectories, "_witness", witnessed)
    res = run_exhaustive(EliminationSequence(turns), n, m, RatioMode.CB)
    assert res.max_index == 6_622_774
    relations = [relation for relation, _ in made.values()]
    assert len(relations) == len(set(relations)) == 103
    assert [len(seen) for seen in walks] == [61 * n] * 2
    assert [set(seen) for seen in walks] == [set(relations)] * 2
    assert multiplied == searched == set(made)
    made.clear()
    assert cb_study(turns, n, m)[1] == 6_622_774
    assert sorted(relation for relation, _ in made.values()) == sorted(relations)


@pytest.mark.parametrize("n,m", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4)])
def test_leaves_split_the_profiles_of_the_pinned_forward_order(n, m):
    # the walk's own contract, apart from any fill: every profile whose
    # sincere order on turns is 0, 1, ..., m-2 extends the relations of
    # exactly one leaf, whose w_r is the profile's strategic winner. Renaming
    # each pinned profile's candidates by its sincere elimination order
    # builds those profiles, and there are (m!)**(n-1) of them.
    pinned = list(enumerate_profiles(n, m))
    rankings = list(itertools.permutations(range(m)))
    # under[r][c]: the candidates ranking r places below c
    under = {r: [sum(1 << d for d in r[r.index(c) + 1:]) for c in range(m)] for r in rankings}
    for turns in itertools.product(range(n), repeat=m - 1):
        s = EliminationSequence(turns)
        leaves = list(trajectories._leaves(turns, n, m))
        # fits[v][r]: the leaves whose voter-v relation ranking r extends
        fits = [{r: {i for i, (relations, _) in enumerate(leaves)
                     if all(relations[v][c] & ~under[r][c] == 0 for c in range(m))}
                 for r in rankings} for v in range(n)]
        renamed = set()
        for p in pinned:
            trace = sincere_play(p, s)
            order = [c for _, c in trace.steps] + [trace.winner]
            q = relabel(p, (order.index(c) for c in range(m)))
            assert [c for _, c in sincere_play(q, s).steps] == list(range(m - 1))
            rows = tuple(vote.ranking for vote in q.votes)
            (leaf,) = set.intersection(*(fits[v][rows[v]] for v in range(n)))
            assert leaves[leaf][1] == spne_outcome(q, s).winner
            renamed.add(rows)
        assert len(renamed) == factorial(m) ** (n - 1)


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
