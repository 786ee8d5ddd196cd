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
  listed by :func:`available_moves` only on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Iterable

from .grid import GridDiagram, Span, apply_symmetry


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
    try:
        kind = MoveKind(obj["kind"])
        axis = Axis(obj["axis"])
        site = tuple(obj.get("site", ()))
        if kind is MoveKind.DIVIDE:
            edge, pos, first_low, exterior = site
            site = (int(edge), int(pos), bool(first_low), bool(exterior))
    except (KeyError, TypeError, ValueError) as exc:
        raise MoveError(f"bad move JSON {obj!r}: {exc!r}") from exc
    return CromwellMove(kind, axis, site)


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


def _merge_endpoints(
    d: GridDiagram,
    axis: Axis,
    connector: int,
    rows: tuple[Span, ...] | None = None,
) -> tuple[int, int]:
    """Partners (a, b) of the two merged edges: a on the connector's low edge.

    For a horizontal merge the connector is the column `connector`; the merged
    horizontal edges are its two rows and (a, b) are the other columns using
    them.  Symmetric for vertical merges.  `rows` is d.row_spans(), computed
    here when not given.  Raises on structural degeneracy (a == b would leave
    a zero-length edge, the closed small-square case).
    """
    if rows is None:
        rows = d.row_spans()
    if axis is Axis.HORIZONTAL:
        lo, hi = d.columns[connector - 1]
        ra, rb = rows[lo - 1], rows[hi - 1]
        a = ra[0] if ra[1] == connector else ra[1]
        b = rb[0] if rb[1] == connector else rb[1]
    else:
        lo, hi = rows[connector - 1]
        ca = d.columns[lo - 1]
        cb = d.columns[hi - 1]
        a = ca[0] if ca[1] == connector else ca[1]
        b = cb[0] if cb[1] == connector else cb[1]
    if a == b:
        raise InapplicableMoveError(
            "merge would collapse a closed square component to a point"
        )
    return a, b


def available_moves(d: GridDiagram, include_divides: bool = False) -> list[CromwellMove]:
    """Every applicable move, in a fixed deterministic order.

    Merge listing follows the edge-length criterion: a length-1 connector
    gives an interior merge, a spanning connector of length n-1 an exterior
    merge (with both placements).  Structurally degenerate merges (closed
    square sub-component) are not listed; at n=2 that is every merge, as the
    2x2 diagram is terminal.
    """
    n = d.n
    out: list[CromwellMove] = []
    rows = d.row_spans()

    def merge_ok(axis: Axis, idx: int) -> bool:
        try:
            _merge_endpoints(d, axis, idx, rows)
        except InapplicableMoveError:
            return False
        return True

    for i, (lo, hi) in enumerate(d.columns, start=1):
        if hi - lo == 1 and merge_ok(Axis.HORIZONTAL, i):
            out.append(interior_merge(Axis.HORIZONTAL, i))
    for j, (a, b) in enumerate(rows, start=1):
        if b - a == 1 and merge_ok(Axis.VERTICAL, j):
            out.append(interior_merge(Axis.VERTICAL, j))
    for i, (lo, hi) in enumerate(d.columns, start=1):
        if (lo, hi) == (1, n) and merge_ok(Axis.HORIZONTAL, i):
            out.append(exterior_merge(Axis.HORIZONTAL, i, LOW))
            out.append(exterior_merge(Axis.HORIZONTAL, i, HIGH))
    for j, (a, b) in enumerate(rows, start=1):
        if (a, b) == (1, n) and merge_ok(Axis.VERTICAL, j):
            out.append(exterior_merge(Axis.VERTICAL, j, LOW))
            out.append(exterior_merge(Axis.VERTICAL, j, HIGH))

    for j in range(1, n):
        if _exchangeable(rows[j - 1], rows[j]):
            out.append(interior_exchange(Axis.HORIZONTAL, j))
    for i in range(1, n):
        if _exchangeable(d.columns[i - 1], d.columns[i]):
            out.append(interior_exchange(Axis.VERTICAL, i))
    if _exchangeable(rows[0], rows[n - 1]):
        out.append(exterior_exchange(Axis.HORIZONTAL))
    if _exchangeable(d.columns[0], d.columns[n - 1]):
        out.append(exterior_exchange(Axis.VERTICAL))

    out.extend(ROTATIONS)

    if include_divides:
        out.extend(all_divides(d))
    return out


def all_divides(d: GridDiagram) -> list[CromwellMove]:
    """Every divide move on d (interior on any edge, exterior on extremes)."""
    n = d.n
    out: list[CromwellMove] = []
    for axis in (Axis.HORIZONTAL, Axis.VERTICAL):
        for edge in range(1, n + 1):
            for pos in range(1, n + 2):
                for first_low in (True, False):
                    out.append(divide(axis, edge, pos, first_low, exterior=False))
        for edge in (1, n):
            for pos in range(1, n + 2):
                for first_low in (True, False):
                    out.append(divide(axis, edge, pos, first_low, exterior=True))
    return out


def _relabel_rows(d: GridDiagram, table: dict[int, int]) -> GridDiagram:
    cols = []
    for lo, hi in d.columns:
        a, b = table.get(lo, lo), table.get(hi, hi)
        cols.append((a, b) if a < b else (b, a))
    return GridDiagram(d.n, tuple(cols))


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

    A vertical exchange or rotation permutes the column spans directly.  The
    other vertical-axis moves are carried out on the transposed diagram with
    the horizontal implementation, then transposed back.
    """
    if m.axis is Axis.VERTICAL:
        if m.kind in _COLUMN_PERMUTATIONS:
            return _permute_columns(d, m)
        return apply_symmetry(apply(apply_symmetry(d, "transpose"), flip_axis(m)), "transpose")

    n = d.n
    kind = m.kind
    if kind is MoveKind.INTERIOR_EXCHANGE:
        (j,) = m.site
        if not 1 <= j <= n - 1:
            raise InapplicableMoveError(f"exchange level {j} out of range")
        rows = d.row_spans()
        if not _exchangeable(rows[j - 1], rows[j]):
            raise InapplicableMoveError(
                f"rows {j} and {j + 1} are {interleaved(rows[j - 1], rows[j]).value}"
            )
        return _relabel_rows(d, {j: j + 1, j + 1: j})

    if kind is MoveKind.EXTERIOR_EXCHANGE:
        rows = d.row_spans()
        if not _exchangeable(rows[0], rows[n - 1]):
            raise InapplicableMoveError(
                f"rows 1 and {n} are {interleaved(rows[0], rows[n - 1]).value}"
            )
        return _relabel_rows(d, {1: n, n: 1})

    if kind is MoveKind.ROTATION:
        (direction,) = m.site
        if direction == TO_LOW:
            table = {n: 1, **{j: j + 1 for j in range(1, n)}}
        else:
            table = {1: n, **{j: j - 1 for j in range(2, n + 1)}}
        return _relabel_rows(d, table)

    if kind is MoveKind.INTERIOR_MERGE:
        (i,) = m.site
        if n == 2:
            raise InapplicableMoveError("merging the 2x2 diagram would leave a single edge")
        lo, hi = d.columns[i - 1]
        if hi - lo != 1:
            raise InapplicableMoveError(f"column {i} has length {hi - lo}, not 1")
        a, b = _merge_endpoints(d, Axis.HORIZONTAL, i)
        j = lo  # merged edges at rows j, j+1; merged row keeps label j
        cols = []
        for c, (clo, chi) in enumerate(d.columns, start=1):
            if c == i:
                continue
            mapped = []
            for r in (clo, chi):
                if r > j + 1:
                    mapped.append(r - 1)
                elif r == j + 1:
                    mapped.append(j)
                else:
                    mapped.append(r)
            x, y = mapped
            cols.append((x, y) if x < y else (y, x))
        return GridDiagram(n - 1, tuple(cols))

    if kind is MoveKind.EXTERIOR_MERGE:
        i, placement = m.site
        if n == 2:
            raise InapplicableMoveError("merging the 2x2 diagram would leave a single edge")
        if d.columns[i - 1] != (1, n):
            raise InapplicableMoveError(f"column {i} does not span rows 1..{n}")
        _merge_endpoints(d, Axis.HORIZONTAL, i)
        cols = []
        for c, (clo, chi) in enumerate(d.columns, start=1):
            if c == i:
                continue
            mapped = []
            for r in (clo, chi):
                if placement == LOW:
                    mapped.append(1 if r in (1, n) else r)
                else:
                    mapped.append(n - 1 if r in (1, n) else r - 1)
            x, y = mapped
            cols.append((x, y) if x < y else (y, x))
        return GridDiagram(n - 1, tuple(cols))

    if kind is MoveKind.DIVIDE:
        edge, pos, first_low, exterior = m.site
        if not 1 <= edge <= n:
            raise InapplicableMoveError(f"row {edge} out of range")
        if not 1 <= pos <= n + 1:
            raise InapplicableMoveError(f"insert position {pos} out of range")
        rows = d.row_spans()
        a, b = rows[edge - 1]
        low_col, high_col = (a, b) if first_low else (b, a)
        if exterior:
            if edge not in (1, n):
                raise InapplicableMoveError("exterior divide must split an extreme edge")
            # Pieces go to new rows 1 and n+1, joined by a spanning column.
            if edge == 1:
                table = {}  # rows 2..n keep their labels
            else:
                table = {j: j + 1 for j in range(1, n)}
            row_of = {low_col: 1, high_col: n + 1}
        else:
            table = {j: j + 1 for j in range(edge + 1, n + 1)}
            row_of = {low_col: edge, high_col: edge + 1}
        cols: list[Span] = []
        for c, (clo, chi) in enumerate(d.columns, start=1):
            mapped = []
            for r in (clo, chi):
                if r == edge and c in row_of:
                    mapped.append(row_of[c])
                    del row_of[c]
                else:
                    mapped.append(table.get(r, r))
            x, y = mapped
            cols.append((x, y) if x < y else (y, x))
        connector: Span = (1, n + 1) if exterior else (edge, edge + 1)
        cols.insert(pos - 1, connector)
        return GridDiagram(n + 1, tuple(cols))

    raise MoveError(f"unhandled move kind {kind}")


def inverse(m: CromwellMove, before: GridDiagram) -> CromwellMove:
    """The move undoing m, given the diagram m applies to."""
    if m.axis is Axis.VERTICAL:
        return flip_axis(inverse(flip_axis(m), apply_symmetry(before, "transpose")))

    n = before.n
    kind = m.kind
    if kind in (MoveKind.INTERIOR_EXCHANGE, MoveKind.EXTERIOR_EXCHANGE):
        return m
    if kind is MoveKind.ROTATION:
        (direction,) = m.site
        return rotation(m.axis, TO_HIGH if direction == TO_LOW else TO_LOW)
    if kind is MoveKind.INTERIOR_MERGE:
        (i,) = m.site
        j = before.columns[i - 1][0]
        a, b = _merge_endpoints(before, Axis.HORIZONTAL, i)
        map_col = lambda c: c - 1 if c > i else c
        return divide(Axis.HORIZONTAL, j, i, first_low=map_col(a) < map_col(b), exterior=False)
    if kind is MoveKind.EXTERIOR_MERGE:
        i, placement = m.site
        a, b = _merge_endpoints(before, Axis.HORIZONTAL, i)
        map_col = lambda c: c - 1 if c > i else c
        edge = 1 if placement == LOW else n - 1
        return divide(Axis.HORIZONTAL, edge, i, first_low=map_col(a) < map_col(b), exterior=True)
    if kind is MoveKind.DIVIDE:
        edge, pos, first_low, exterior = m.site
        if exterior:
            placement = LOW if edge == 1 else HIGH
            return exterior_merge(Axis.HORIZONTAL, pos, placement)
        return interior_merge(Axis.HORIZONTAL, pos)
    raise MoveError(f"unhandled move kind {kind}")


def move_kinds_multiset(moves: Iterable[CromwellMove]) -> dict[str, int]:
    """Kind histogram with axes forgotten (a dihedral orbit invariant)."""
    out: dict[str, int] = {}
    for mv in moves:
        out[mv.kind.value] = out.get(mv.kind.value, 0) + 1
    return out
