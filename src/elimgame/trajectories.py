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
"""

from __future__ import annotations

from collections import defaultdict


def cb_pair_table(turns: tuple[int, ...], n: int, m: int) -> dict[int, int]:
    """``{den * base + num: count}`` over the profiles whose sincere order
    on ``turns`` is ``0, 1, ..., m-2``, with ``base = n(m-1) + 1``, ``num``
    the Borda score of the sincere winner and ``den`` that of the sincere
    winner on the reversed turns.

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
    branch reaches a leaf, and at a leaf each voter's polynomial counts the
    linear extensions of its relation, which are those of its closure.
    """
    base = n * (m - 1) + 1
    full = (1 << m) - 1
    relations = [[0] * m for _ in range(n)]
    for t, voter in enumerate(turns):
        _place_below(relations[voter], t, full >> (t + 1) << (t + 1))
    rev = turns[::-1]
    table: dict[int, int] = defaultdict(int)
    polys: dict[tuple, dict[int, int]] = {}

    def search(depth: int, alive: int) -> None:
        if depth == m - 1:
            w_r = alive.bit_length() - 1
            product = {0: 1}
            for below in relations:
                key = (*below, w_r)
                if key not in polys:
                    polys[key] = _voter_poly(below, m, w_r, base)
                product = _multiply(product, polys[key])
            for key, count in product.items():
                table[key] += count
            return
        voter = rev[depth]
        below = relations[voter]
        for x in range(m):
            if alive >> x & 1 and not below[x] & alive:
                relations[voter] = _place_below(below.copy(), x, alive ^ 1 << x)
                search(depth + 1, alive ^ 1 << x)
        relations[voter] = below

    search(0, full)
    return dict(table)


def _place_below(below: list[int], x: int, others: int) -> list[int]:
    """Add "``x`` lies below each of ``others``" to ``below`` in place and
    return it."""
    for c in range(len(below)):
        if others >> c & 1:
            below[c] |= 1 << x
    return below


def _voter_poly(below: list[int], m: int, w_r: int, base: int) -> dict[int, int]:
    """``{points(w_r) * base + points(m-1): rankings}`` over one voter's
    rankings that extend ``below``.

    The ranking is filled from the bottom, so a candidate placed onto ``k``
    others scores ``k`` points, and a candidate may be placed once all it
    must lie above is placed. The state is the placed set with the points
    scored so far by the two winners, one polynomial per set.
    """
    weights = [0] * m
    weights[m - 1] += 1
    weights[w_r] += base
    layer = {0: {0: 1}}
    for size in range(m):
        nxt: dict[int, dict[int, int]] = {}
        for placed, poly in layer.items():
            for c in range(m):
                if placed >> c & 1 or below[c] & ~placed:
                    continue
                step = size * weights[c]
                into = nxt.setdefault(placed | 1 << c, {})
                for key, count in poly.items():
                    into[key + step] = into.get(key + step, 0) + count
        layer = nxt
    return layer[(1 << m) - 1]


def _multiply(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two polynomials keyed ``den * base + num``: the keys add
    because no coordinate's sum over the voters reaches ``base``."""
    out: dict[int, int] = defaultdict(int)
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] += ca * cb
    return out
