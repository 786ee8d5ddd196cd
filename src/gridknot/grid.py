"""Rectangular (grid) diagram core: data model, statistics, symmetry, rendering.

A grid diagram of size n places one vertical edge per column x=1..n and one
horizontal edge per row y=1..n, with every crossing drawn vertical-over.  The
diagram is stored as the n column spans; row spans are derived on demand.
Row j spans the two columns that use j, so the row spans read as columns are
the transpose of the diagram.  All coordinates are integers in 1..n; there is
no floating geometry anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

Span = tuple[int, int]


class GridError(ValueError):
    """Base class for invalid grid data or requests."""


class SizeError(GridError):
    """Grid size out of range (n must be at least 2)."""


class RowCountError(GridError):
    """Some row index is not used exactly twice across the columns."""


class DegenerateColumnError(GridError):
    """A column span has zero length (lo == hi)."""


class SelfRowError(GridError):
    """A row's two uses fall in the same column."""


class UnknownFormatError(GridError):
    """Unsupported render format."""


@dataclass(frozen=True, slots=True)
class GridDiagram:
    """Immutable rectangular diagram: n and the ordered column spans.

    Construct through :func:`validate` (or the parsers) so the invariants
    hold; internal move code builds instances directly from known-good data.
    """

    n: int
    columns: tuple[Span, ...]

    def row_spans(self) -> tuple[Span, ...]:
        """Derived horizontal edges: row j spans the two columns using j."""
        uses: list[list[int]] = [[] for _ in range(self.n + 1)]
        for i, (lo, hi) in enumerate(self.columns, start=1):
            uses[lo].append(i)
            uses[hi].append(i)
        return tuple((u[0], u[1]) for u in uses[1:])

    def __str__(self) -> str:
        return to_text(self)


class Crossing(NamedTuple):
    """A crossing point (column, row); the vertical strand is over."""

    column: int
    row: int


@dataclass(frozen=True, slots=True)
class LengthStats:
    horizontal_lengths: tuple[int, ...]
    vertical_lengths: tuple[int, ...]
    total_horizontal: int
    total_all: int
    crossing_count: int


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def validate(n: int, columns: Sequence[Sequence[int]]) -> GridDiagram:
    """Check raw input and return a GridDiagram, or raise a GridError.

    The size and every row value must be integers (not bools or floats).
    Column pairs may come in either order; they are normalized to (lo, hi).
    """
    if not _is_int(n) or n < 2:
        raise SizeError(f"grid size must be an integer >= 2, got {n!r}")
    if len(columns) != n:
        raise RowCountError(f"expected {n} columns, got {len(columns)}")
    norm: list[Span] = []
    for i, pair in enumerate(columns, start=1):
        if len(pair) != 2:
            raise GridError(f"column {i} is not a pair: {pair!r}")
        a, b = pair
        if not (_is_int(a) and _is_int(b)):
            raise GridError(f"column {i} has a row that is not an integer: {pair!r}")
        if a == b:
            raise DegenerateColumnError(f"column {i} has zero length (lo == hi == {a})")
        lo, hi = (a, b) if a < b else (b, a)
        if lo < 1 or hi > n:
            raise RowCountError(f"column {i} uses row outside 1..{n}: {pair!r}")
        norm.append((lo, hi))
    counts = [0] * (n + 1)
    where: list[list[int]] = [[] for _ in range(n + 1)]
    for i, (lo, hi) in enumerate(norm, start=1):
        counts[lo] += 1
        counts[hi] += 1
        where[lo].append(i)
        where[hi].append(i)
    for j in range(1, n + 1):
        if counts[j] != 2:
            raise RowCountError(f"row {j} used {counts[j]} times, expected 2")
        if where[j][0] == where[j][1]:
            raise SelfRowError(f"row {j} used twice by column {where[j][0]}")
    return GridDiagram(n, tuple(norm))


def trivial_diagram() -> GridDiagram:
    """The 2x2 diagram, the terminal object of monotone simplification."""
    return GridDiagram(2, ((1, 2), (1, 2)))


def _walk_cycles(d: GridDiagram, rows: tuple[Span, ...], cycles: list | None) -> int:
    """Walk every component once and return how many there are.  When
    `cycles` is a list, append each component's edges to it as grid_cycles
    lists them; `rows` is d.row_spans()."""
    seen = [False] * (d.n + 1)
    count = 0
    for start in range(1, d.n + 1):
        if seen[start]:
            continue
        count += 1
        cyc = []
        col = start
        row = d.columns[col - 1][0]
        while not seen[col]:
            seen[col] = True
            lo, hi = d.columns[col - 1]
            dest = hi if row == lo else lo
            a, b = rows[dest - 1]
            dest_col = b if col == a else a
            if cycles is not None:
                cyc.append(("v", col, row, dest))
                cyc.append(("h", dest, col, dest_col))
            row, col = dest, dest_col
        if cycles is not None:
            cycles.append(cyc)
    return count


def grid_cycles(d: GridDiagram, rows: tuple[Span, ...] | None = None) -> list[list[tuple[str, int, int, int]]]:
    """Each component as a cyclic list of directed edges:
    ('v', column, row_from, row_to) and ('h', row, col_from, col_to).

    Components are listed by their least column, and each walk starts up
    that column from its low end.  `rows` is d.row_spans(), computed here
    when not given.
    """
    cycles: list = []
    _walk_cycles(d, d.row_spans() if rows is None else rows, cycles)
    return cycles


def component_count(d: GridDiagram) -> int:
    """Number of link components."""
    return _walk_cycles(d, d.row_spans(), None)


def crossings(d: GridDiagram, rows: tuple[Span, ...] | None = None) -> list[Crossing]:
    """All strict interior intersections; each is vertical-over by convention.
    `rows` is d.row_spans(), computed here when not given."""
    if rows is None:
        rows = d.row_spans()
    out: list[Crossing] = []
    for i, (lo, hi) in enumerate(d.columns, start=1):
        for j in range(lo + 1, hi):
            a, b = rows[j - 1]
            if a < i < b:
                out.append(Crossing(i, j))
    return out


def length_stats(d: GridDiagram) -> LengthStats:
    rows = d.row_spans()
    h = tuple(b - a for a, b in rows)
    v = tuple(hi - lo for lo, hi in d.columns)
    return LengthStats(
        horizontal_lengths=h,
        vertical_lengths=v,
        total_horizontal=sum(h),
        total_all=sum(h) + sum(v),
        crossing_count=len(crossings(d)),
    )


def max_crossings_bound(n: int) -> int:
    """Largest possible crossing count of any size-n diagram."""
    if n < 2:
        raise SizeError(f"n must be >= 2, got {n}")
    return (n * n - 2 * n - 1) // 2 if n % 2 else (n * n - 2 * n) // 2


def max_length_bound(n: int) -> int:
    """Largest possible total edge length of any size-n diagram."""
    if n < 2:
        raise SizeError(f"n must be >= 2, got {n}")
    return n * n - 1 if n % 2 else n * n


def extremal_diagram(n: int) -> GridDiagram:
    """A size-n diagram attaining both the crossing and the length bound.

    Even n: column i spans (n/2 - d + 1, n/2 + d) with d = min(i, n+1-i),
    an interleaved bullseye.  Odd n: the same idea with the long edge through
    the middle and the two halves offset by one row.  Correctness is checked
    against the closed-form bounds, not against any particular picture.
    """
    if n < 2:
        raise SizeError(f"n must be >= 2, got {n}")
    cols: list[Span] = []
    if n % 2 == 0:
        m = n // 2
        for i in range(1, n + 1):
            dist = min(i, n + 1 - i)
            cols.append((m - dist + 1, m + dist))
    else:
        m = (n + 1) // 2
        for i in range(1, n + 1):
            if i < m:
                cols.append((m - i + 1, m + i))
            elif i == m:
                cols.append((1, n))
            else:
                k = n + 1 - i
                cols.append((m - k, m + k - 1))
    return GridDiagram(n, tuple(cols))


# --- dihedral symmetry -------------------------------------------------------

# name -> (swap axes, reverse x, reverse y), applied in that order to a
# point (x, y); rot90 is counterclockwise.
_SYMMETRY_TABLE: dict[str, tuple[bool, bool, bool]] = {
    "identity": (False, False, False),
    "rot90": (True, True, False),
    "rot180": (False, True, True),
    "rot270": (True, False, True),
    "flip_x": (False, True, False),
    "flip_y": (False, False, True),
    "transpose": (True, False, False),
    "anti_transpose": (True, True, True),
}

SYMMETRIES: tuple[str, ...] = tuple(_SYMMETRY_TABLE)


def _image(d: GridDiagram, transposed: tuple[Span, ...], sym: str) -> tuple[Span, ...]:
    """Column spans of the image of d under sym; `transposed` is d.row_spans()."""
    swap, reverse_x, reverse_y = _SYMMETRY_TABLE[sym]
    cols = transposed if swap else d.columns
    if reverse_x:
        cols = cols[::-1]
    if reverse_y:
        m = d.n + 1
        cols = tuple((m - hi, m - lo) for lo, hi in cols)
    return cols


def apply_symmetry(d: GridDiagram, sym: str) -> GridDiagram:
    """Image of the diagram under one of the eight square symmetries."""
    if sym not in _SYMMETRY_TABLE:
        raise GridError(f"unknown symmetry {sym!r}")
    return GridDiagram(d.n, _image(d, d.row_spans(), sym))


@dataclass(frozen=True, slots=True)
class CanonicalForm:
    diagram: GridDiagram
    transform: str
    orbit_size: int


def canonical_form(d: GridDiagram) -> CanonicalForm:
    """Lexicographically least dihedral image, with the symmetry applied.

    The eight square symmetries preserve validity, crossing count, component
    count and move availability (up to swapping the two axes), so they are
    safe to quotient by.  Cyclic shifts (rotation moves) are not quotiented
    here; `torus_key` quotients by them as well.  Ties go to the first
    symmetry in SYMMETRIES order.
    """
    rows = d.row_spans()
    images = {sym: _image(d, rows, sym) for sym in SYMMETRIES}
    best = min(SYMMETRIES, key=images.__getitem__)
    return CanonicalForm(GridDiagram(d.n, images[best]), best, len(set(images.values())))


def canonical_key(d: GridDiagram, rows: tuple[Span, ...] | None = None) -> bytes:
    """Compact canonical identifier used for search/census dedup: n, then the
    least image's spans flattened (the same order as comparing span tuples).

    The least image starts with the least first span, so only the images
    whose first span is least are built.  `rows` is d.row_spans(), computed
    here when not given.
    """
    if rows is None:
        rows = d.row_spans()
    m = d.n + 1
    firsts = []
    for sym, (swap, reverse_x, reverse_y) in _SYMMETRY_TABLE.items():
        lo, hi = (rows if swap else d.columns)[-1 if reverse_x else 0]
        firsts.append(((m - hi, m - lo) if reverse_y else (lo, hi), sym))
    least = min(firsts)[0]
    best = min(_image(d, rows, sym) for first, sym in firsts if first == least)
    return bytes([d.n, *(r for span in best for r in span)])


def torus_key(d: GridDiagram, rows: tuple[Span, ...] | None = None) -> bytes:
    """Key of d's torus orbit: the least image over the eight square
    symmetries and the n x n cyclic shifts of the columns and rows, in
    canonical_key's format.

    The least image starts with the span (1, 1 + L), where L is the least
    torus length min(hi - lo, n - (hi - lo)) over all columns and rows, so
    only the images that start there are candidates: for each symmetry
    (swap axes reads the row spans, reverse x walks the columns backwards,
    reverse y reflects the rows) and each column of torus length L, the
    shift that puts that column first and one of its ends on row 1.  The
    candidates are compared span by span and the larger ones dropped, so
    no image is built whole.  `rows` is d.row_spans(), computed here when
    not given.
    """
    n = d.n
    if rows is None:
        rows = d.row_spans()
    least = min(min(hi - lo, n - hi + lo) for lo, hi in d.columns + rows)
    # a candidate walks `base` from column `first` by `step` and maps row r
    # to (sign * (r - origin)) mod n + 1
    cands: list[tuple[tuple[Span, ...], int, int, int, int]] = []
    for swap, reverse_x, reverse_y in _SYMMETRY_TABLE.values():
        base = rows if swap else d.columns
        step = -1 if reverse_x else 1
        sign = -1 if reverse_y else 1
        for first, (lo, hi) in enumerate(base):
            # the end sent to row 1 leaves the other end at 1 + L
            if hi - lo == least:
                cands.append((base, first, step, lo if sign == 1 else hi, sign))
            if n - hi + lo == least:
                cands.append((base, first, step, hi if sign == 1 else lo, sign))
    out = [1, 1 + least]
    for k in range(1, n):
        best: Span | None = None
        keep = []
        for cand in cands:
            base, first, step, origin, sign = cand
            lo, hi = base[(first + step * k) % n]
            a = (sign * (lo - origin)) % n + 1
            b = (sign * (hi - origin)) % n + 1
            span = (a, b) if a < b else (b, a)
            if best is None or span < best:
                best = span
                keep = [cand]
            elif span == best:
                keep.append(cand)
        cands = keep
        out.extend(best)
    return bytes([n, *out])


def from_canonical_key(key: bytes) -> GridDiagram:
    n = key[0]
    cols = tuple((key[1 + 2 * i], key[2 + 2 * i]) for i in range(n))
    return GridDiagram(n, cols)


# --- text / JSON formats -----------------------------------------------------


def to_text(d: GridDiagram) -> str:
    """Bit-exact grid text format: first line n, second line the spans."""
    pairs = " ".join(f"{lo}-{hi}" for lo, hi in d.columns)
    return f"{d.n}\n{pairs}\n"


def from_text(text: str) -> GridDiagram:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 2:
        raise GridError("grid text must have exactly two non-empty lines")
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise GridError(f"bad size line: {lines[0]!r}") from exc
    cols = []
    for token in lines[1].split():
        a, sep, b = token.partition("-")
        if not sep:
            raise GridError(f"bad span token {token!r}")
        try:
            cols.append((int(a), int(b)))
        except ValueError as exc:
            raise GridError(f"bad span token {token!r}") from exc
    return validate(n, cols)


def to_json_obj(d: GridDiagram) -> dict:
    return {"n": d.n, "columns": [[lo, hi] for lo, hi in d.columns]}


def from_json_obj(obj: dict) -> GridDiagram:
    try:
        return validate(obj["n"], obj["columns"])
    except (KeyError, TypeError) as exc:
        raise GridError(f"bad grid JSON: {exc}") from exc


def parse_grid(text: str) -> GridDiagram:
    """Accept either the text format or its JSON mirror."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json_obj(json.loads(text))
    return from_text(text)


# --- rendering ---------------------------------------------------------------

_SCALE = 3


def render(d: GridDiagram, fmt: str = "ascii") -> str:
    if fmt == "ascii":
        return render_ascii(d)
    if fmt == "svg":
        return render_svg(d)
    raise UnknownFormatError(f"unknown render format {fmt!r}")


def render_ascii(d: GridDiagram) -> str:
    """Deterministic character drawing; horizontals break at crossings."""
    n = d.n
    size = _SCALE * (n - 1) + 1
    canvas = [[" "] * size for _ in range(size)]

    def px(i: int) -> int:
        return _SCALE * (i - 1)

    def py(j: int) -> int:
        return _SCALE * (n - j)

    rows = d.row_spans()
    for j, (a, b) in enumerate(rows, start=1):
        y = py(j)
        for x in range(px(a), px(b) + 1):
            canvas[y][x] = "-"
    for cr in crossings(d):
        y, x = py(cr.row), px(cr.column)
        canvas[y][x - 1] = " "
        canvas[y][x + 1] = " "
    for i, (lo, hi) in enumerate(d.columns, start=1):
        x = px(i)
        for y in range(py(hi), py(lo) + 1):
            canvas[y][x] = "|"
    for i, (lo, hi) in enumerate(d.columns, start=1):
        for j in (lo, hi):
            canvas[py(j)][px(i)] = "+"
    return "\n".join("".join(line).rstrip() for line in canvas) + "\n"


_SVG_UNIT = 24
_SVG_PAD = 12
_SVG_GAP = 6


def render_svg(d: GridDiagram) -> str:
    """SVG with n vertical segments and gap-broken horizontal segments."""
    n = d.n
    side = 2 * _SVG_PAD + _SVG_UNIT * (n - 1)

    def sx(i: int) -> int:
        return _SVG_PAD + _SVG_UNIT * (i - 1)

    def sy(j: int) -> int:
        return _SVG_PAD + _SVG_UNIT * (n - j)

    cross_by_row: dict[int, list[int]] = {}
    for cr in crossings(d):
        cross_by_row.setdefault(cr.row, []).append(cr.column)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" '
        f'viewBox="0 0 {side} {side}">',
        f'<rect width="{side}" height="{side}" fill="white"/>',
    ]
    rows = d.row_spans()
    for j, (a, b) in enumerate(rows, start=1):
        y = sy(j)
        xs = sorted(cross_by_row.get(j, []))
        start = sx(a)
        for c in xs:
            parts.append(
                f'<line x1="{start}" y1="{y}" x2="{sx(c) - _SVG_GAP}" y2="{y}" '
                f'stroke="black" stroke-width="2"/>'
            )
            start = sx(c) + _SVG_GAP
        parts.append(
            f'<line x1="{start}" y1="{y}" x2="{sx(b)}" y2="{y}" '
            f'stroke="black" stroke-width="2"/>'
        )
    for i, (lo, hi) in enumerate(d.columns, start=1):
        x = sx(i)
        parts.append(
            f'<line x1="{x}" y1="{sy(hi)}" x2="{x}" y2="{sy(lo)}" '
            f'stroke="black" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
