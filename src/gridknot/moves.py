"""Cromwell moves on grid diagrams: merges, divides, exchanges, rotations.

Move conventions:

* ``axis`` names the axis of the edges a move acts on.  A horizontal merge
  amalgamates two horizontal edges joined by a vertical connector, so its
  site is a column index; a vertical merge's site is a row index.
* Exchanges act on two parallel edges at adjacent levels (interior) or at the
  two extreme levels (exterior).  Two edges sharing an endpoint are never
  exchangeable here; such a pair always comes with a unit connector, so merge
  availability covers it.
* Rotations carry one extreme edge around to the opposite extreme and are
  always available.  ``high_to_low`` moves the top edge to the bottom
  (horizontal axis) or the rightmost column to the left (vertical axis).
* Divide moves are the inverses of merges.  They are parameterized and are
  listed by :func:`available_moves` only on request.  :func:`all_divides`
  is an indexed view of them in one fixed order: it decodes a divide from
  its index without building the others, so a random draw costs O(1).

One kernel serves both axes.  A move acts on its axis's pair (edges, links):
for a horizontal move the edges are the row spans and the links are the
column spans; for a vertical move it is the other way round.  Each exchange,
rotation, merge and divide is one table that relabels the levels of the
links.  A merge also drops its connector, and a divide inserts one and splits
the edge's two endpoints.  The new links of a vertical move are row spans, so
one transpose turns them back into columns.  A vertical exchange or rotation
only reorders the stored columns, so it permutes them directly instead.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cache

from .grid import GridDiagram, Span


class MoveError(ValueError):
    """Base class for move failures."""


class InapplicableMoveError(MoveError):
    """The move's precondition fails on this diagram."""


class Interleaving(Enum):
    INTERLEAVED = "interleaved"
    NESTED = "nested"
    DISJOINT = "disjoint"
    SHARED_ENDPOINT = "shared_endpoint"


class MoveKind(Enum):
    INTERIOR_MERGE = "interior_merge"
    EXTERIOR_MERGE = "exterior_merge"
    DIVIDE = "divide"
    INTERIOR_EXCHANGE = "interior_exchange"
    EXTERIOR_EXCHANGE = "exterior_exchange"
    ROTATION = "rotation"


class Axis(Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


LOW = "low"    # bottom (horizontal axis) / left (vertical axis)
HIGH = "high"  # top (horizontal axis) / right (vertical axis)

TO_LOW = "high_to_low"
TO_HIGH = "low_to_high"


@dataclass(frozen=True, slots=True)
class CromwellMove:
    """One move with its site data.

    site per kind:
      interior_merge:     (connector_index,)
      exterior_merge:     (connector_index, placement)   placement in {low, high}
      interior_exchange:  (lower_level,)
      exterior_exchange:  ()
      rotation:           (direction,)                   direction in {high_to_low, low_to_high}
      divide:             (edge_index, insert_position, first_low, exterior)
    """

    kind: MoveKind
    axis: Axis
    site: tuple = ()

    def to_json_obj(self) -> dict:
        return {"kind": self.kind.value, "axis": self.axis.value, "site": list(self.site)}


def flip_axis(m: CromwellMove) -> CromwellMove:
    """The same move on the other axis: its image under transposition."""
    axis = Axis.HORIZONTAL if m.axis is Axis.VERTICAL else Axis.VERTICAL
    return CromwellMove(m.kind, axis, m.site)


def move_from_json_obj(obj: dict) -> CromwellMove:
    """Parse a move.  The site must hold the kind's number of entries, of
    its types (levels are integers, a divide's flags booleans), and the
    kind's constructor checks their values; anything else is a MoveError."""
    try:
        kind = MoveKind(obj["kind"])
        axis = Axis(obj["axis"])
        site = obj.get("site", ())
        constructor, types = _SITES[kind]
        if not isinstance(site, (list, tuple)) or len(site) != len(types):
            raise MoveError(f"{kind.value} site must be a list of {len(types)} entries")
        if any(type(v) is not t for v, t in zip(site, types)):
            names = ", ".join(t.__name__ for t in types)
            raise MoveError(f"{kind.value} site entries must be of types ({names})")
        return constructor(axis, *site)
    except (KeyError, TypeError, ValueError) as exc:
        raise MoveError(f"bad move JSON {obj!r}: {exc!r}") from exc


# Moves are immutable, so the constructors that `available_moves` lists with
# share one instance per move: a search frontier then holds many references
# to a few moves instead of a new move object per arc.


@cache
def interior_merge(axis: Axis, connector: int) -> CromwellMove:
    return CromwellMove(MoveKind.INTERIOR_MERGE, axis, (connector,))


@cache
def exterior_merge(axis: Axis, connector: int, placement: str) -> CromwellMove:
    if placement not in (LOW, HIGH):
        raise MoveError(f"placement must be {LOW!r} or {HIGH!r}")
    return CromwellMove(MoveKind.EXTERIOR_MERGE, axis, (connector, placement))


@cache
def interior_exchange(axis: Axis, lower_level: int) -> CromwellMove:
    return CromwellMove(MoveKind.INTERIOR_EXCHANGE, axis, (lower_level,))


@cache
def exterior_exchange(axis: Axis) -> CromwellMove:
    return CromwellMove(MoveKind.EXTERIOR_EXCHANGE, axis)


def rotation(axis: Axis, direction: str) -> CromwellMove:
    if direction not in (TO_LOW, TO_HIGH):
        raise MoveError(f"direction must be {TO_LOW!r} or {TO_HIGH!r}")
    return CromwellMove(MoveKind.ROTATION, axis, (direction,))


def divide(axis: Axis, edge: int, position: int, first_low: bool, exterior: bool = False) -> CromwellMove:
    return CromwellMove(MoveKind.DIVIDE, axis, (edge, position, first_low, exterior))


# per kind, the constructor taking (axis, *site) and the site's entry types
_SITES = {
    MoveKind.INTERIOR_MERGE: (interior_merge, (int,)),
    MoveKind.EXTERIOR_MERGE: (exterior_merge, (int, str)),
    MoveKind.DIVIDE: (divide, (int, int, bool, bool)),
    MoveKind.INTERIOR_EXCHANGE: (interior_exchange, (int,)),
    MoveKind.EXTERIOR_EXCHANGE: (exterior_exchange, ()),
    MoveKind.ROTATION: (rotation, (str,)),
}


ROTATIONS: tuple[CromwellMove, ...] = (
    rotation(Axis.HORIZONTAL, TO_LOW),
    rotation(Axis.HORIZONTAL, TO_HIGH),
    rotation(Axis.VERTICAL, TO_LOW),
    rotation(Axis.VERTICAL, TO_HIGH),
)


def interleaved(span_a: Span, span_b: Span) -> Interleaving:
    """Classify two parallel spans at distinct levels."""
    a1, b1 = span_a
    a2, b2 = span_b
    if a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
        return Interleaving.SHARED_ENDPOINT
    if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
        return Interleaving.INTERLEAVED
    if (a1 < a2 and b2 < b1) or (a2 < a1 and b1 < b2):
        return Interleaving.NESTED
    return Interleaving.DISJOINT


def _exchangeable(span_a: Span, span_b: Span) -> bool:
    return interleaved(span_a, span_b) in (Interleaving.NESTED, Interleaving.DISJOINT)


def _axis_pair(d: GridDiagram, axis: Axis) -> tuple:
    """(edges, links) of a move on `axis`."""
    rows = d.row_spans()
    return (rows, d.columns) if axis is Axis.HORIZONTAL else (d.columns, rows)


def _partners(edges: tuple[Span, ...], links: tuple[Span, ...], connector: int) -> tuple[int, int]:
    """The other links (a, b) used by the edges at the two levels of link
    `connector`, a on its low edge; a == b when merging them would collapse
    a closed square component to a point."""
    lo, hi = links[connector - 1]
    ea, eb = edges[lo - 1], edges[hi - 1]
    a = ea[0] if ea[1] == connector else ea[1]
    b = eb[0] if eb[1] == connector else eb[1]
    return a, b


def _merge_endpoints(d: GridDiagram, axis: Axis, connector: int) -> tuple[int, int]:
    """Partners (a, b) of the two merged edges: a on the connector's low edge.

    The connector is the link `connector` of the axis pair; the merged edges
    are the edges at its two levels, and (a, b) are the other links they
    use.  Raises on structural degeneracy (a == b would leave a zero-length
    edge, the closed small-square case).
    """
    a, b = _partners(*_axis_pair(d, axis), connector)
    if a == b:
        raise InapplicableMoveError(
            "merge would collapse a closed square component to a point"
        )
    return a, b


def iter_merges(d: GridDiagram) -> Iterator[CromwellMove]:
    """The merges of d in `available_moves` order, each found only when it
    is asked for.

    A length-1 connector gives an interior merge, a spanning connector of
    length n-1 an exterior merge with both placements.  Structurally
    degenerate merges (closed square sub-component) are not listed; at n=2
    that is every merge, as the 2x2 diagram is terminal.
    """
    n, rows = d.n, d.row_spans()
    pairs = ((Axis.HORIZONTAL, rows, d.columns), (Axis.VERTICAL, d.columns, rows))
    for axis, edges, links in pairs:
        for i, (lo, hi) in enumerate(links, start=1):
            if hi - lo == 1:
                a, b = _partners(edges, links, i)
                if a != b:
                    yield interior_merge(axis, i)
    for axis, edges, links in pairs:
        for i, span in enumerate(links, start=1):
            if span == (1, n):
                a, b = _partners(edges, links, i)
                if a != b:
                    yield exterior_merge(axis, i, LOW)
                    yield exterior_merge(axis, i, HIGH)


def iter_exchanges(d: GridDiagram, exterior: bool = True) -> Iterator[CromwellMove]:
    """The exchanges of d in `available_moves` order, each found only when
    it is asked for, without the exterior ones unless `exterior`."""
    n = d.n
    pairs = ((Axis.HORIZONTAL, d.row_spans()), (Axis.VERTICAL, d.columns))
    for axis, edges in pairs:
        for j in range(1, n):
            if _exchangeable(edges[j - 1], edges[j]):
                yield interior_exchange(axis, j)
    if exterior:
        for axis, edges in pairs:
            if _exchangeable(edges[0], edges[n - 1]):
                yield exterior_exchange(axis)


def available_moves(d: GridDiagram, include_divides: bool = False) -> list[CromwellMove]:
    """Every applicable move, in a fixed deterministic order: the merges
    (`iter_merges`), the exchanges (`iter_exchanges`), the four rotations,
    and on request every divide."""
    out = [*iter_merges(d), *iter_exchanges(d), *ROTATIONS]
    if include_divides:
        out.extend(all_divides(d))
    return out


def all_divides(d: GridDiagram) -> Sequence[CromwellMove]:
    """Every divide move on d, as an indexed view built in constant time.

    The view holds 4(n+1)(n+2) moves, listed by axis (horizontal first),
    then edge (the n interior edges 1..n, then the exterior edges 1 and n),
    then insert position 1..n+1, then ``first_low`` True before False.
    Indexing decodes one move without building the others, so a random
    draw such as ``rng.choice(all_divides(d))`` costs O(1).
    """
    return _Divides(d.n)


class _Divides(Sequence):
    """The divides of an n-grid in `all_divides` order, decoded on demand
    from an integer index (no slices)."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def __len__(self) -> int:
        return 4 * (self.n + 1) * (self.n + 2)

    def __getitem__(self, index: int) -> CromwellMove:
        i = operator.index(index)
        size = len(self)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("divide index out of range")
        n = self.n
        axis, i = divmod(i, size // 2)
        i, flag = divmod(i, 2)
        slot, pos = divmod(i, n + 1)
        # slots 0..n-1 are the interior edges, n and n+1 the exterior edges 1 and n
        exterior = slot >= n
        edge = (1 if slot == n else n) if exterior else slot + 1
        return divide(Axis.VERTICAL if axis else Axis.HORIZONTAL, edge, pos + 1, flag == 0, exterior)


def _relabel(links: list[Span] | tuple[Span, ...], table: list[int]) -> list[Span]:
    """The links with every level r replaced by table[r]."""
    out = []
    for lo, hi in links:
        a, b = table[lo], table[hi]
        out.append((a, b) if a < b else (b, a))
    return out


def _relink(d: GridDiagram, m: CromwellMove) -> tuple[int, list[Span]]:
    """The size and links after m, on the (edges, links) pair of m.axis.

    A horizontal rotation only relabels the columns, so it derives no row
    spans (a vertical one never comes here, see `apply`).
    """
    n = d.n
    kind = m.kind
    if kind is MoveKind.ROTATION:
        (direction,) = m.site
        table = [0, *range(2, n + 1), 1] if direction == TO_LOW else [0, n, *range(1, n)]
        return n, _relabel(d.columns, table)

    edges, links = _axis_pair(d, m.axis)
    edge_name, link_name = ("row", "column") if m.axis is Axis.HORIZONTAL else ("column", "row")
    if kind in (MoveKind.INTERIOR_EXCHANGE, MoveKind.EXTERIOR_EXCHANGE):
        if kind is MoveKind.INTERIOR_EXCHANGE:
            (j,) = m.site
            if not 1 <= j <= n - 1:
                raise InapplicableMoveError(f"exchange level {j} out of range")
            lo, hi = j, j + 1
        else:
            lo, hi = 1, n
        if not _exchangeable(edges[lo - 1], edges[hi - 1]):
            raise InapplicableMoveError(
                f"{edge_name}s {lo} and {hi} are {interleaved(edges[lo - 1], edges[hi - 1]).value}"
            )
        table = list(range(n + 1))
        table[lo], table[hi] = hi, lo
        return n, _relabel(links, table)

    if kind in (MoveKind.INTERIOR_MERGE, MoveKind.EXTERIOR_MERGE):
        i = m.site[0]
        if n == 2:
            raise InapplicableMoveError("merging the 2x2 diagram would leave a single edge")
        if not 1 <= i <= n:
            raise InapplicableMoveError(f"connector {i} out of range")
        lo, hi = links[i - 1]
        if kind is MoveKind.INTERIOR_MERGE:
            if hi - lo != 1:
                raise InapplicableMoveError(f"{link_name} {i} has length {hi - lo}, not 1")
            # the merged edge keeps the connector's low level
            table = [*range(hi), *range(lo, n)]
        else:
            if (lo, hi) != (1, n):
                raise InapplicableMoveError(f"{link_name} {i} does not span {edge_name}s 1..{n}")
            # the merged edge goes to the placement's extreme level
            if m.site[1] == LOW:
                table = [0, 1, *range(2, n), 1]
            else:
                table = [0, n - 1, *range(1, n - 1), n - 1]
        _merge_endpoints(d, m.axis, i)
        return n - 1, _relabel(links[: i - 1] + links[i:], table)

    if kind is MoveKind.DIVIDE:
        edge, pos, first_low, exterior = m.site
        if not 1 <= edge <= n:
            raise InapplicableMoveError(f"{edge_name} {edge} out of range")
        if not 1 <= pos <= n + 1:
            raise InapplicableMoveError(f"insert position {pos} out of range")
        a, b = edges[edge - 1]
        high = b if first_low else a
        # table[edge] is the low piece's new level and table[0] the high
        # piece's: the high link's endpoint at `edge` is renamed 0 first
        if not exterior:
            table = [edge + 1, *range(1, edge + 1), *range(edge + 2, n + 2)]
        elif edge == 1:
            table = [n + 1, *range(1, n + 1)]
        elif edge == n:
            table = [n + 1, *range(2, n + 1), 1]
        else:
            raise InapplicableMoveError("exterior divide must split an extreme edge")
        split = list(links)
        lo, hi = split[high - 1]
        split[high - 1] = (0, hi) if lo == edge else (lo, 0)
        out = _relabel(split, table)
        out.insert(pos - 1, (1, n + 1) if exterior else (edge, edge + 1))
        return n + 1, out

    raise MoveError(f"unhandled move kind {kind}")


_COLUMN_PERMUTATIONS = (MoveKind.INTERIOR_EXCHANGE, MoveKind.EXTERIOR_EXCHANGE, MoveKind.ROTATION)


def _permute_columns(d: GridDiagram, m: CromwellMove) -> GridDiagram:
    """A vertical exchange or rotation: it only reorders the column spans."""
    n = d.n
    cols = d.columns
    if m.kind is MoveKind.ROTATION:
        (direction,) = m.site
        shifted = cols[-1:] + cols[:-1] if direction == TO_LOW else cols[1:] + cols[:1]
        return GridDiagram(n, shifted)
    if m.kind is MoveKind.INTERIOR_EXCHANGE:
        (i,) = m.site
        if not 1 <= i <= n - 1:
            raise InapplicableMoveError(f"exchange level {i} out of range")
        a, b = i - 1, i
    else:
        a, b = 0, n - 1
    if not _exchangeable(cols[a], cols[b]):
        raise InapplicableMoveError(
            f"columns {a + 1} and {b + 1} are {interleaved(cols[a], cols[b]).value}"
        )
    out = list(cols)
    out[a], out[b] = cols[b], cols[a]
    return GridDiagram(n, tuple(out))


def apply(d: GridDiagram, m: CromwellMove) -> GridDiagram:
    """Apply one move, returning the new diagram or raising.

    The move relabels the links of its axis pair (module docstring): the
    column spans for a horizontal move, the row spans for a vertical one,
    whose result is transposed once back into columns.  A vertical exchange
    or rotation only reorders the columns, so it permutes them directly.
    """
    if m.axis is Axis.VERTICAL and m.kind in _COLUMN_PERMUTATIONS:
        return _permute_columns(d, m)
    n, links = _relink(d, m)
    out = GridDiagram(n, tuple(links))
    # the links of a vertical move are the child's row spans, whose own row
    # spans are the child's columns
    return out if m.axis is Axis.HORIZONTAL else GridDiagram(n, out.row_spans())


def inverse(m: CromwellMove, before: GridDiagram) -> CromwellMove:
    """The move undoing m, given the diagram m applies to."""
    kind = m.kind
    if kind in (MoveKind.INTERIOR_EXCHANGE, MoveKind.EXTERIOR_EXCHANGE):
        return m
    if kind is MoveKind.ROTATION:
        (direction,) = m.site
        return rotation(m.axis, TO_HIGH if direction == TO_LOW else TO_LOW)
    if kind is MoveKind.DIVIDE:
        edge, pos, first_low, exterior = m.site
        if exterior:
            return exterior_merge(m.axis, pos, LOW if edge == 1 else HIGH)
        return interior_merge(m.axis, pos)
    if kind in (MoveKind.INTERIOR_MERGE, MoveKind.EXTERIOR_MERGE):
        # The divide puts the connector back at link i.  Dropping link i
        # keeps the order of the partners a and b, neither of which is i.
        i = m.site[0]
        _, links = _axis_pair(before, m.axis)
        a, b = _merge_endpoints(before, m.axis, i)
        if kind is MoveKind.INTERIOR_MERGE:
            return divide(m.axis, links[i - 1][0], i, first_low=a < b, exterior=False)
        edge = 1 if m.site[1] == LOW else before.n - 1
        return divide(m.axis, edge, i, first_low=a < b, exterior=True)
    raise MoveError(f"unhandled move kind {kind}")


def move_kinds_multiset(moves: Iterable[CromwellMove]) -> dict[str, int]:
    """Kind histogram with axes forgotten (a dihedral orbit invariant)."""
    out: dict[str, int] = {}
    for mv in moves:
        out[mv.kind.value] = out.get(mv.kind.value, 0) + 1
    return out
