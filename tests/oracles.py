"""Independent brute-force oracles the tests check library results against.

Everything here is written directly from definitions, deliberately ignoring
the library's own enumeration, statistics and determinant code paths.
"""

from __future__ import annotations

from itertools import combinations, product

from gridknot.grid import GridDiagram


def naive_census(n: int) -> list[GridDiagram]:
    """Generate-and-validate enumeration: every assignment of a span to each
    column, kept when every row is used exactly twice."""
    spans = list(combinations(range(1, n + 1), 2))
    out = []
    for cols in product(spans, repeat=n):
        counts = [0] * (n + 1)
        for lo, hi in cols:
            counts[lo] += 1
            counts[hi] += 1
        if all(c == 2 for c in counts[1:]):
            out.append(GridDiagram(n, tuple(cols)))
    return out


def brute_crossings(d: GridDiagram) -> int:
    rows = d.row_spans()
    count = 0
    for i, (lo, hi) in enumerate(d.columns, start=1):
        for j, (a, b) in enumerate(rows, start=1):
            if lo < j < hi and a < i < b:
                count += 1
    return count


def brute_total_length(d: GridDiagram) -> int:
    rows = d.row_spans()
    return sum(hi - lo for lo, hi in d.columns) + sum(b - a for a, b in rows)


def brute_max_stats(n: int) -> tuple[int, int]:
    best_c = best_l = 0
    for d in naive_census(n):
        best_c = max(best_c, brute_crossings(d))
        best_l = max(best_l, brute_total_length(d))
    return best_c, best_l


def _trace_passages(d: GridDiagram):
    """Crossing passages in knot order, written straight from the geometry."""
    rows = dict(enumerate(d.row_spans(), start=1))
    passages = []
    col = 1
    row = d.columns[0][0]
    for _ in range(d.n):
        lo, hi = d.columns[col - 1]
        dest = hi if row == lo else lo
        step = 1 if dest > row else -1
        for j in range(row + step, dest, step):
            a, b = rows[j]
            if a < col < b:
                passages.append(((col, j), True))
        row = dest
        a, b = rows[row]
        dest_col = b if col == a else a
        step = 1 if dest_col > col else -1
        for i in range(col + step, dest_col, step):
            lo2, hi2 = d.columns[i - 1]
            if lo2 < row < hi2:
                passages.append(((i, row), False))
        col = dest_col
    return passages


def fox_colorings(d: GridDiagram, p: int) -> int:
    """Count Fox p-colorings of the diagram by brute-force enumeration.

    Arcs are the overpasses between consecutive undercrossings; at every
    crossing twice the over-arc color must equal the sum of the two
    under-arc colors mod p.
    """
    passages = _trace_passages(d)
    k = len(passages) // 2
    if k == 0:
        return p
    unders = [t for t, (_, over) in enumerate(passages) if not over]
    arc_of = {}
    for t in range(len(passages)):
        nxt = 0
        while nxt < k and unders[nxt] < t:
            nxt += 1
        arc_of[t] = nxt % k
    relations = []
    over_arc = {}
    under_in = {}
    under_out = {}
    for t, (cid, over) in enumerate(passages):
        if over:
            over_arc[cid] = arc_of[t]
        else:
            under_in[cid] = arc_of[t]
            under_out[cid] = (arc_of[t] + 1) % k
    for cid in over_arc:
        relations.append((over_arc[cid], under_in[cid], under_out[cid]))
    count = 0
    for coloring in product(range(p), repeat=k):
        if all((2 * coloring[o] - coloring[i] - coloring[j]) % p == 0 for o, i, j in relations):
            count += 1
    return count
