"""Exact CB pair tables by counting trajectory pairs instead of profiles.

A profile fixes two elimination orders: the sincere order on the sequence
``s`` and the sincere order on ``rev s``, whose winner is the strategic
outcome. Conversely, the profiles that realise a given pair of orders are
exactly those in which every voter's ranking meets that voter's own
constraints: at each of its turns in either game, the eliminee lies below
every other candidate still alive. The constraints of different voters are
independent, so the profiles behind one pair of orders factor voter by
voter, and so do the two winners' Borda scores, which are sums of per-voter
points. The CB ratio's whole (numerator, denominator) table is therefore a
sum, over the feasible reverse orders, of products of per-voter
polynomials in (points of the sincere winner, points of the strategic
winner). Nothing here enumerates profiles, imports numpy or needs a bound on
the counts, which are Python ints.

The forward order is pinned to ``0, 1, ..., m-2``, so the sincere winner is
``m - 1``. Renaming the candidates changes no Borda score and maps the
profiles with one forward order one to one onto those with another, so
each forward order holds the same table: (m!)**(n-1) profiles, the same
population as the enumeration's pinned space (voter 1 in identity order).
Renaming each candidate to its slot in voter 1's ranking maps the one
population onto the other, which lets a search over the same leaves find
the first pinned index of a pair. :func:`cb_study` runs both walks on one
fill per voter relation, made within the call: its polynomial is the
table's factor, and its key sets steer the search.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import factorial


def cb_study(turns: tuple[int, ...], n: int, m: int) -> tuple[dict[int, int], int]:
    """``(table, index)``: ``{den * base + num: count}`` over the profiles
    whose sincere order on ``turns`` is ``0, 1, ..., m-2``, with ``base =
    n(m-1) + 1``, ``num`` the Borda score of the sincere winner and ``den``
    that of the sincere winner on the reversed turns, the sum over
    :func:`_leaves` of the product of the voters' polynomials; and the
    lowest pinned index of the maximum ratio, from :func:`_witness`. Pinned
    profile 0, every voter in identity order, eliminates from the bottom in
    both games and crowns candidate 0 twice, so when no ratio exceeds 1 the
    index is 0 and no search runs.
    """
    known: dict[tuple, tuple] = {}
    table: dict[int, int] = defaultdict(int)
    for fills, _ in _leaves(turns, n, m, known):
        product = {0: 1}
        for poly, _ in fills:
            product = _multiply(product, poly)
        for key, count in product.items():
            table[key] += count
    base = n * (m - 1) + 1
    # the ratios above 1: den >= 1 there, as the last voter of the reversed
    # turns ranks its winner above a candidate
    above = {key: Fraction(key % base, key // base) for key in table if key % base > key // base}
    if not above:
        return dict(table), 0
    best = max(above.values())
    top = [key for key, ratio in above.items() if ratio == best]
    return dict(table), _witness(turns, n, m, top, known)


def _witness(turns: tuple[int, ...], n: int, m: int, top: list[int],
             known: dict[tuple, tuple]) -> int:
    """The lowest pinned enumeration index of a profile whose key
    ``den * base + num`` (as in :func:`cb_study`) is one of ``top``, each
    of which some profile holds.

    The profiles with one forward order map one to one onto the pinned
    space by renaming each candidate to its slot in voter 1's ranking, and
    a pinned index orders voters 2..n's renamed rankings lexicographically.
    So the search walks the :func:`_leaves` whose voters' polynomials can
    sum to a key of ``top``; at each it tries voter 1's rankings top-down,
    first the candidates voter 2 could copy, and fills voters 2..n top-down
    with candidates in voter 1's slot order, so their ranking ids rise and
    the first complete ranking found under one voter-1 ranking is its
    lowest index. Every placement must keep a key of ``top`` reachable:
    the rest of the voter's ranking can add the keys of its polynomial on
    the unplaced candidates, and the later voters the sums of their whole
    polynomials' keys. The lowest index found so far, at first the size of
    the pinned space, cuts any branch that cannot go under it, voter 1's as
    soon as voter 2's top candidate can no longer take a low enough slot.
    """
    base = n * (m - 1) + 1
    full = (1 << m) - 1
    fact = [factorial(k) for k in range(m + 1)]
    # the weight of voter v's ranking id in the pinned index
    scale = [fact[m] ** (n - 1 - v) for v in range(n)]
    targets = sorted(set(top))
    best = fact[m] ** (n - 1)

    def search(fills, w_r) -> None:
        # keys[v][rest]: the keys voter v's unplaced candidates ``rest`` can
        # add, as a bitset, for every set they can be
        keys = [sets for _, sets in fills]
        # after[v]: the keys voters v+1..n-1 can add
        after = [1] * n
        for v in range(n - 1, 0, -1):
            after[v - 1] = _sumset(keys[v][full], after[v])
        weights = _weights(m, w_r, base)
        reach: dict[tuple[int, int], int] = {}

        def reachable(v: int, rest: int, key: int) -> bool:
            bits = reach.get((v, rest))
            if bits is None:
                bits = reach[v, rest] = _sumset(keys[v][rest], after[v])
            return any(t >= key and bits >> (t - key) & 1 for t in targets)

        if not reachable(0, full, 0):
            return
        order: list[int] = []  # voter 1's ranking, best first
        heads = [c for c in range(m) if full ^ 1 << c in keys[1]]

        def lead(rest: int, key: int) -> None:
            # voter 1's ranking, top-down
            placed = len(order)
            if min(order.index(c) if c in order else placed
                   for c in heads) * fact[m - 1] * scale[1] >= best:
                return
            if not rest:
                follow(1, full, key, 0)
                return
            moves = [c for c in range(m) if rest >> c & 1 and rest ^ 1 << c in keys[0]]
            if rest in keys[1]:
                moves.sort(key=lambda c: rest ^ 1 << c not in keys[1])
            points = m - 1 - placed
            for c in moves:
                if reachable(0, rest ^ 1 << c, key + points * weights[c]):
                    order.append(c)
                    lead(rest ^ 1 << c, key + points * weights[c])
                    order.pop()

        def follow(v: int, rest: int, key: int, index: int) -> bool:
            # voter v's ranking, top-down in voter 1's slot order; True once
            # a complete profile has set best
            nonlocal best
            if v == n:
                best = index
                return True
            if not rest:
                return follow(v + 1, full, key, index)
            size = rest.bit_count()
            unit = fact[size - 1] * scale[v]
            digit = 0
            for c in order:
                if not rest >> c & 1:
                    continue
                low = index + digit * unit
                digit += 1
                if low >= best:
                    return False
                step = key + (size - 1) * weights[c]
                if (rest ^ 1 << c in keys[v] and reachable(v, rest ^ 1 << c, step)
                        and follow(v, rest ^ 1 << c, step, low)):
                    return True
            return False

        lead(full, 0)

    for fills, w_r in _leaves(turns, n, m, known):
        search(fills, w_r)
    return best


def _leaves(turns: tuple[int, ...], n: int, m: int, known: dict[tuple, tuple]):
    """Yield ``(fills, w_r)`` at each leaf of the search over the reverse
    orders whose forward order is ``0, 1, ..., m-2``: every voter's
    :func:`_voter_fill` of its relation, and the strategic winner. ``known``
    holds the fills keyed ``(*below, w_r)``; a relation missing from it is
    filled and added, so walks that share ``known`` fill each distinct
    (relation, ``w_r``) once.

    Each voter keeps one relation: ``below[c]`` is the mask of the
    candidates it must rank directly below ``c``. The forward turns seed the
    relations; a depth-first search then runs over the reverse eliminations,
    each adding the acting voter's constraint and pruning an eliminee that
    some alive candidate already lies below, which would close a cycle.
    Direct constraints suffice for that test, so no closure is kept. Take a
    chain ``y < ... < x`` from an alive ``y``, its last alive candidate
    before ``x`` as ``a`` and the next one as ``b``. If ``b`` were already
    eliminated in the reverse game, the constraint ``a < b`` would be a
    forward one, since the alive ``a`` was never a reverse eliminee, so it
    was there when ``b`` was eliminated with ``a`` alive, and the test would
    have refused that. So ``b`` is ``x`` itself, and ``a`` lies directly
    below it. Every other choice keeps the relations acyclic, so every
    branch reaches a leaf, and at a leaf the profiles behind the pair of
    orders are those where each voter's ranking extends its relation.
    """
    full, base = (1 << m) - 1, n * (m - 1) + 1
    relations = [[0] * m for _ in range(n)]
    for t, voter in enumerate(turns):
        _place_below(relations[voter], t, full >> (t + 1) << (t + 1))
    rev = turns[::-1]

    def search(depth: int, alive: int):
        if depth == m - 1:
            w_r = alive.bit_length() - 1
            fills = []
            for below in relations:
                relation = (*below, w_r)
                if relation not in known:
                    known[relation] = _voter_fill(below, m, w_r, base)
                fills.append(known[relation])
            yield fills, w_r
            return
        voter = rev[depth]
        below = relations[voter]
        for x in range(m):
            if alive >> x & 1 and not below[x] & alive:
                relations[voter] = _place_below(below.copy(), x, alive ^ 1 << x)
                yield from search(depth + 1, alive ^ 1 << x)
        relations[voter] = below

    return search(0, full)


def _place_below(below: list[int], x: int, others: int) -> list[int]:
    """Add "``x`` lies below each of ``others``" to ``below`` in place and
    return it."""
    for c in range(len(below)):
        if others >> c & 1:
            below[c] |= 1 << x
    return below


def _weights(m: int, w_r: int, base: int) -> list[int]:
    """Each candidate's key per point: ``base`` for the strategic winner
    ``w_r``, 1 for the sincere winner ``m - 1`` (both if they coincide)."""
    weights = [0] * m
    weights[m - 1] += 1
    weights[w_r] += base
    return weights


def _voter_fill(below: list[int], m: int, w_r: int,
                base: int) -> tuple[dict[int, int], dict[int, int]]:
    """``({points(w_r) * base + points(m-1): rankings}, {placed: keys})``
    over one voter's rankings that extend ``below``: the polynomial of its
    whole ranking, and for every set its ranking's bottom can hold, the keys
    of that set's polynomial as a bitset.

    The ranking is filled from the bottom, so a candidate placed onto ``k``
    others scores ``k`` points, and a candidate may be placed once all it
    must lie above is placed. The state is the placed set with the points
    scored so far by the two winners, one polynomial per set; one shift
    places a candidate under every key of a set's bitset at once.
    """
    weights = _weights(m, w_r, base)
    keys, layer = {0: 1}, {0: {0: 1}}
    for size in range(m):
        nxt: dict[int, dict[int, int]] = {}
        for placed, poly in layer.items():
            for c in range(m):
                if placed >> c & 1 or below[c] & ~placed:
                    continue
                grown, step = placed | 1 << c, size * weights[c]
                keys[grown] = keys.get(grown, 0) | keys[placed] << step
                into = nxt.setdefault(grown, {})
                for key, count in poly.items():
                    into[key + step] = into.get(key + step, 0) + count
        layer = nxt
    return layer[(1 << m) - 1], keys


def _sumset(a: int, b: int) -> int:
    """The sums of a key of ``a`` and a key of ``b``, key sets as bitsets."""
    out = 0
    while a:
        low = a & -a
        out |= b << low.bit_length() - 1
        a ^= low
    return out


def _multiply(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two polynomials keyed ``den * base + num``: the keys add
    because no coordinate's sum over the voters reaches ``base``."""
    out: dict[int, int] = defaultdict(int)
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] += ca * cb
    return out
