"""Independent brute-force oracles the tests check library results against.

Everything here is written directly from definitions, deliberately ignoring
the library's own enumeration, statistics and determinant code paths, or is
a plain reference version of a library routine that the library has since
replaced with a pruned or cached one.
"""

from __future__ import annotations

import heapq
import time
from itertools import combinations, product
from typing import Callable

from gridknot import moves as mv
from gridknot.grid import (
    GridDiagram,
    canonical_key,
    from_canonical_key,
    torus_key,
    trivial_diagram,
)
from gridknot.planar import PlanarDiagram
from gridknot.realize import SweepObstructionError
from gridknot.simplify import SearchLimits, Verdict


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


def raw_subtree(n: int, stuck: bool, first_span: tuple[int, int], visit: Callable) -> int:
    """Reference raw enumerator: call `visit` on every diagram whose first
    column is first_span, with no symmetry cut, and return how many there
    were.  Columns are placed left to right; under `stuck`, a span of length
    1 or n-1 and two adjacent columns or rows that are not strictly
    interleaved are refused, and a row closing with span (a, i) is refused
    at once when a neighbour row is unused or open since before column a."""
    forbid = (1, n - 1) if stuck else ()
    spans = [(lo, hi) for lo in range(1, n) for hi in range(lo + 1, n + 1) if hi - lo not in forbid]
    crossed = {
        (a, b): frozenset((c, d) for c, d in spans if a < c < b < d or c < a < d < b)
        for a, b in spans
    }
    succ = {s: [t for t in spans if t in crossed[s]] if stuck else spans for s in spans}
    first = [0] * (n + 2)  # column of each row's first use, 0 while unused
    first[0] = first[n + 1] = n + 1  # sentinels: never below a row's first use
    closed: list = [None] * (n + 2)  # row span once used twice
    chosen: list = []
    count = 0

    def close(r: int, i: int) -> bool:
        a = first[r]
        if stuck:
            if i - a == 1 or i - a == n - 1:
                return False
            for s in (r - 1, r + 1):
                span = closed[s]
                if span is None:
                    if first[s] < a:
                        return False
                elif span not in crossed[(a, i)]:
                    return False
        closed[r] = (a, i)
        return True

    def place(i: int, candidates: list) -> None:
        nonlocal count
        if i > n:
            count += 1
            visit(GridDiagram(n, tuple(chosen)))
            return
        for span in candidates:
            lo, hi = span
            if closed[lo] or closed[hi]:
                continue
            open_lo = not first[lo]
            if open_lo:
                first[lo] = i
            elif not close(lo, i):
                continue
            open_hi = not first[hi]
            if open_hi:
                first[hi] = i
            if open_hi or close(hi, i):
                chosen.append(span)
                place(i + 1, succ[span])
                chosen.pop()
                if open_hi:
                    first[hi] = 0
                else:
                    closed[hi] = None
            if open_lo:
                first[lo] = 0
            else:
                closed[lo] = None

    place(1, [first_span])
    return count


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


def extract_cycles(cycles, moving_labels: dict, static_labels: dict) -> PlanarDiagram:
    """All-pairs reference extraction of a planar diagram from rectilinear
    cycles, each a list of (is_moving, polyline) chains.

    Every vertical segment is tested against every horizontal one.  Static
    crossings are vertical-over; the moving strand passes over whatever it
    crosses.  The result is not validated.
    """
    segs = []
    for ci, chain in enumerate(cycles):
        for si, (is_m, pts) in enumerate(chain):
            for k in range(len(pts) - 1):
                if pts[k] != pts[k + 1]:
                    segs.append(((ci, si, k), pts[k], pts[k + 1], is_m))
    verticals = [s for s in segs if s[1][0] == s[2][0]]
    horizontals = [s for s in segs if s[1][1] == s[2][1]]
    hits: dict = {}
    signs: dict = {}

    def direction(p1, p2):
        return ((p2[0] > p1[0]) - (p2[0] < p1[0]), (p2[1] > p1[1]) - (p2[1] < p1[1]))

    for vs in verticals:
        vx = vs[1][0]
        vy1, vy2 = sorted((vs[1][1], vs[2][1]))
        for hs in horizontals:
            hy = hs[1][1]
            hx1, hx2 = sorted((hs[1][0], hs[2][0]))
            if not (hx1 < vx < hx2 and vy1 < hy < vy2):
                continue
            pos = (vx, hy)
            if vs[3] and hs[3]:
                raise SweepObstructionError(f"moving strand self-crossing at {pos}")
            over_is_vertical = vs[3] or not hs[3]
            label = (moving_labels if vs[3] or hs[3] else static_labels).get(pos)
            if label is None:
                raise SweepObstructionError(f"unlabeled crossing at {pos}")
            over, under = (vs, hs) if over_is_vertical else (hs, vs)
            over_dir, under_dir = direction(over[1], over[2]), direction(under[1], under[2])
            signs[label] = 1 if (-over_dir[1], over_dir[0]) == under_dir else -1
            hits.setdefault(vs[0], []).append(
                (hy if vs[1][1] < vs[2][1] else -hy, label, over_is_vertical)
            )
            hits.setdefault(hs[0], []).append(
                (vx if hs[1][0] < hs[2][0] else -vx, label, not over_is_vertical)
            )
    components = []
    crossing_free = 0
    for ci in range(len(cycles)):
        passages = [
            (label, over)
            for key, *_ in segs
            if key[0] == ci
            for _, label, over in sorted(hits.get(key, []))
        ]
        if passages:
            components.append(min(tuple(passages[r:] + passages[:r]) for r in range(len(passages))))
        else:
            crossing_free += 1
    return PlanarDiagram(tuple(components), signs, crossing_free)


def eager_all_divides(n: int) -> list[mv.CromwellMove]:
    """Every divide move on an n-grid, built by nested loops in the order
    `moves.all_divides` lists them."""
    out = []
    for axis in (mv.Axis.HORIZONTAL, mv.Axis.VERTICAL):
        for edge in range(1, n + 1):
            for pos in range(1, n + 2):
                for first_low in (True, False):
                    out.append(mv.divide(axis, edge, pos, first_low, exterior=False))
        for edge in (1, n):
            for pos in range(1, n + 2):
                for first_low in (True, False):
                    out.append(mv.divide(axis, edge, pos, first_low, exterior=True))
    return out


_MERGES = (mv.MoveKind.INTERIOR_MERGE, mv.MoveKind.EXTERIOR_MERGE)


def eager_search(
    start: GridDiagram,
    limits: SearchLimits,
    include_exterior_exchange: bool,
    want_witness: bool,
) -> tuple[Verdict, int, tuple[mv.CromwellMove, ...] | None]:
    """Reference monotone search that pushes one heap entry per arc.

    Each expanded state lists all of `available_moves` and pushes every
    merge and exchange as an arc (child size, counter, parent key, parent,
    move); a child is built and keyed when its arc is popped.  Returns the
    verdict, the keys stored, and the witness moves when one is wanted and
    found.
    """
    target = canonical_key(trivial_diagram())
    torus = include_exterior_exchange and not want_witness
    skip = (mv.MoveKind.ROTATION,)
    if not include_exterior_exchange:
        skip += (mv.MoveKind.EXTERIOR_EXCHANGE,)
    deadline = None if limits.max_seconds is None else time.monotonic() + limits.max_seconds
    stored: dict = {}
    orbits: set[bytes] = set()
    visited = 0
    heap: list[tuple] = [(start.n, 0, None, start, None)]
    counter = 0
    while heap:
        if deadline is not None and time.monotonic() > deadline:
            return Verdict.LIMIT_EXCEEDED, visited, None
        _, _, parent_key, d, m = heapq.heappop(heap)
        if m is not None:
            d = mv.apply(d, m)
        key = canonical_key(d)
        if key in stored:
            continue
        stored[key] = (parent_key, m)
        visited += 1
        if key == target:
            if not want_witness:
                return Verdict.TRIVIAL, visited, None
            chain = []
            parent_key, move = stored[key]
            while parent_key is not None:
                chain.append(move)
                parent_key, move = stored[parent_key]
            return Verdict.TRIVIAL, visited, tuple(reversed(chain))
        if visited >= limits.max_states:
            return Verdict.LIMIT_EXCEEDED, visited, None
        if torus:
            orbit = torus_key(d)
            if orbit in orbits:
                continue
            orbits.add(orbit)
            visited += 1
            if visited >= limits.max_states:
                return Verdict.LIMIT_EXCEEDED, visited, None
            d = from_canonical_key(orbit)
        for arc in mv.available_moves(d):
            if arc.kind not in skip:
                counter += 1
                size = d.n - 1 if arc.kind in _MERGES else d.n
                heapq.heappush(heap, (size, counter, key, d, arc))
    return Verdict.NOT_TRIVIAL, visited, None
