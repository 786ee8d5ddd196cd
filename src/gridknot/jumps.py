"""Reidemeister move-count bounds for exterior moves, via jump decompositions.

An exterior exchange is realized by two jumps, an exterior merge or a
rotation by one.  Each jump carries an extreme horizontal edge (together
with its two attached vertical edges, which form an over- or understrand)
around to the opposite side of the grid; the carried strand s and its
target arc u bound a rectangular disk Q, and the Reidemeister cost of the
jump is controlled by counts of the diagram graph restricted to Q.

All geometry lives on a four-times-scaled integer grid: grid lines sit at
multiples of 4 and the wrap target at offset 2, so every auxiliary curve
meets the diagram transversally with no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import moves as mv
from .grid import GridDiagram, SizeError, Span, apply_symmetry, crossings, grid_cycles

BOUND_KINDS = ("exterior_exchange", "exterior_merge", "rotation")

Point = tuple[int, int]
Edge = tuple[str, int, int, int]


class JumpError(ValueError):
    """Invalid jump request."""


class DegenerateGeometryError(JumpError):
    """The jumped strand and target arc do not bound an embedded disk."""


def move_count_bound(n: int, kind: str) -> int:
    """Worst-case Reidemeister move count for realizing one exterior move on
    a size-n diagram (or reaching a crossing-free or disconnected state)."""
    if not isinstance(n, int) or n < 2:
        raise SizeError(f"n must be an integer >= 2, got {n!r}")
    eps = n % 2
    if kind == "exterior_exchange":
        return 3 * n * n - 4 * n - 4 - 3 * eps
    if kind == "exterior_merge":
        return (3 * n * n - 4 * n - 4 - 3 * eps) // 2
    if kind == "rotation":
        return (3 * n * n - 4 * n - 2 - 3 * eps) // 2
    raise JumpError(f"unknown bound kind {kind!r}; expected one of {BOUND_KINDS}")


def bound_kind_of(m: mv.CromwellMove) -> str:
    if m.kind is mv.MoveKind.EXTERIOR_EXCHANGE:
        return "exterior_exchange"
    if m.kind is mv.MoveKind.EXTERIOR_MERGE:
        return "exterior_merge"
    if m.kind is mv.MoveKind.ROTATION:
        return "rotation"
    raise JumpError(f"{m.kind.value} has no move-count bound")


def _derived():
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class JumpSpec:
    """One jump: carry the horizontal edge at `row` of `host` (plus its two
    attached verticals) beyond the bottom (direction=-1) or top (+1).

    transposed marks jumps that came from a vertical-axis move: the host is
    the transpose of the caller's diagram and the carried strand is an
    understrand there (strand_role == "under").

    The strand's geometry is derived once, at construction, from one
    derivation of the host's row spans:
      row_spans         host.row_spans(),
      c_left, c_right   columns of the two attached verticals,
      e_left, e_right   heights of their free endpoints,
      crossings_by_row  swept row -> sorted columns of the region's interior
                        crossings on that row,
      enters_left       whether the walk of the carrying component reaches
                        the strand up column c_left,
      chain             that component's other edges, in walk order from
                        where the walk leaves the strand to where it
                        comes back,
      others            the remaining components, as grid_cycles lists them.
    """

    host: GridDiagram
    row: int
    direction: int  # -1 down, +1 up
    transposed: bool
    row_spans: tuple[Span, ...] = _derived()
    c_left: int = _derived()
    c_right: int = _derived()
    e_left: int = _derived()
    e_right: int = _derived()
    crossings_by_row: dict[int, tuple[int, ...]] = _derived()
    enters_left: bool = _derived()
    chain: tuple[Edge, ...] = _derived()
    others: tuple[list[Edge], ...] = _derived()

    def __post_init__(self) -> None:
        host, j0 = self.host, self.row
        row_spans = host.row_spans()
        c_left, c_right = row_spans[j0 - 1]
        lo, hi = host.columns[c_left - 1]
        e_left = lo if hi == j0 else hi
        lo, hi = host.columns[c_right - 1]
        e_right = lo if hi == j0 else hi
        swept = set(self.swept_rows())
        by_row: dict[int, list[int]] = {}
        for cr in crossings(host, row_spans):
            if c_left < cr.column < c_right and cr.row in swept:
                by_row.setdefault(cr.row, []).append(cr.column)
        others = []
        for cyc in grid_cycles(host, row_spans):
            top = next((t for t, e in enumerate(cyc) if e[0] == "h" and e[1] == j0), None)
            if top is None:
                others.append(cyc)
                continue
            # the top edge sits between the strand's two verticals
            m = len(cyc)
            enters_left = cyc[top - 1][1] == c_left
            chain = tuple(cyc[(top + 2 + k) % m] for k in range(m - 3))
        for name, value in (
            ("row_spans", row_spans),
            ("c_left", c_left),
            ("c_right", c_right),
            ("e_left", e_left),
            ("e_right", e_right),
            ("crossings_by_row", {y: tuple(sorted(xs)) for y, xs in by_row.items()}),
            ("enters_left", enters_left),
            ("chain", chain),
            ("others", tuple(others)),
        ):
            object.__setattr__(self, name, value)

    @property
    def strand_role(self) -> str:
        return "under" if self.transposed else "over"

    def check(self) -> None:
        for c, e in ((self.c_left, self.e_left), (self.c_right, self.e_right)):
            span = self.host.columns[c - 1]
            want = (e, self.row) if self.direction < 0 else (self.row, e)
            if span != want:
                raise DegenerateGeometryError(
                    f"column {c} does not attach to row {self.row} from the swept side"
                )
        for v in range(self.c_left + 1, self.c_right):
            lo, hi = self.host.columns[v - 1]
            if lo < self.row < hi:
                raise DegenerateGeometryError(
                    f"carried edge has a crossing at column {v}; not a clean strand"
                )

    # -- geometry (four-times-scaled coordinates) -------------------------------

    def target_level(self) -> int:
        return 2 if self.direction < 0 else 4 * self.host.n + 2

    def s_path(self) -> list[Point]:
        return [
            (4 * self.c_left, 4 * self.e_left),
            (4 * self.c_left, 4 * self.row),
            (4 * self.c_right, 4 * self.row),
            (4 * self.c_right, 4 * self.e_right),
        ]

    def s_position(self, pt: Point) -> int:
        """Arclength along the carried strand, from its west end, of a point
        on it."""
        x, y = pt
        left_len = 4 * abs(self.row - self.e_left)
        if x == 4 * self.c_left:
            return abs(y - 4 * self.e_left)
        if x == 4 * self.c_right:
            return left_len + 4 * (self.c_right - self.c_left) + abs(4 * self.row - y)
        return left_len + (x - 4 * self.c_left)

    def s_point(self, pos: int) -> Point:
        """The point of the carried strand at arclength pos; inverse of
        s_position."""
        left_len = 4 * abs(self.row - self.e_left)
        top_len = 4 * (self.c_right - self.c_left)
        if pos <= left_len:
            sign = 1 if self.row > self.e_left else -1
            return (4 * self.c_left, 4 * self.e_left + sign * pos)
        if pos <= left_len + top_len:
            return (4 * self.c_left + pos - left_len, 4 * self.row)
        sign = 1 if self.e_right > self.row else -1
        return (4 * self.c_right, 4 * self.row + sign * (pos - left_len - top_len))

    def swept_rows(self) -> range:
        """Rows crossed by the sweep, in processing order."""
        if self.direction < 0:
            return range(self.row - 1, 0, -1)
        return range(self.row + 1, self.host.n + 1)


def jump_decomposition(d: GridDiagram, m: mv.CromwellMove) -> list[JumpSpec]:
    """The one- or two-jump realization of an exterior move or rotation.

    For an exchange the longer extreme edge jumps first (ties go to the top),
    and the second jump is computed on the genuinely materialized
    intermediate diagram.  Vertical-axis moves are handled on the transposed
    diagram, where the carried strand is an understrand.
    """
    transposed = m.axis is mv.Axis.VERTICAL
    if transposed:
        d, m = apply_symmetry(d, "transpose"), mv.flip_axis(m)

    n = d.n
    kind = m.kind
    if kind is mv.MoveKind.ROTATION:
        (direction,) = m.site
        spec = (
            JumpSpec(d, n, -1, transposed) if direction == mv.TO_LOW else JumpSpec(d, 1, +1, transposed)
        )
        spec.check()
        return [spec]

    if kind is mv.MoveKind.EXTERIOR_MERGE:
        connector, placement = m.site
        if d.columns[connector - 1] != (1, n):
            raise mv.InapplicableMoveError(f"column {connector} does not span rows 1..{n}")
        spec = (
            JumpSpec(d, n, -1, transposed) if placement == mv.LOW else JumpSpec(d, 1, +1, transposed)
        )
        spec.check()
        return [spec]

    if kind is mv.MoveKind.EXTERIOR_EXCHANGE:
        rows = d.row_spans()
        if not mv._exchangeable(rows[0], rows[n - 1]):
            raise mv.InapplicableMoveError("extreme rows are not exchangeable")
        top_len = rows[n - 1][1] - rows[n - 1][0]
        bottom_len = rows[0][1] - rows[0][0]
        if top_len >= bottom_len:
            first = JumpSpec(d, n, -1, transposed)
            mid = mv.apply(d, mv.rotation(mv.Axis.HORIZONTAL, mv.TO_LOW))
            second = JumpSpec(mid, 2, +1, transposed)
        else:
            first = JumpSpec(d, 1, +1, transposed)
            mid = mv.apply(d, mv.rotation(mv.Axis.HORIZONTAL, mv.TO_HIGH))
            second = JumpSpec(mid, n - 1, -1, transposed)
        first.check()
        second.check()
        return [first, second]

    raise mv.InapplicableMoveError(f"{kind.value} is not realized by jumps")


# --- the region graph and its counts -----------------------------------------


@dataclass(frozen=True, slots=True)
class RegionEdge:
    """One edge of the region graph: a diagram arc inside Q.

    Endpoint kinds:
      ("X", column, row)  interior crossing of the host diagram,
      ("S", pos)          interior of the carried strand (arclength pos),
      ("DS", pos)         one of the carried strand's two endpoints,
      ("U",)              interior of the target arc,
      ("LOOP",)           closed vertex-free loop (both ends; link hosts only).
    """

    ends: tuple[tuple, tuple]
    path: tuple[Point, ...]


@dataclass(frozen=True, slots=True)
class SigmaBreakdown:
    v: int
    e: int
    e_i: int
    e_ss: int
    e_boundary: int
    e_s: int
    e_svs: int
    boundary_points: int

    @property
    def sigma_simple(self) -> int:
        return self.v + self.e

    @property
    def sigma_strong(self) -> int:
        return self.v + self.e_i + self.e_ss + self.e_boundary + self.e_s + self.e_svs

    @property
    def sigma_no_r1(self) -> int | None:
        """Sharper kink-free budget; meaningful only when no region edge
        ends at a strand endpoint."""
        if self.e_boundary:
            return None
        return 2 * self.v + self.e_i + self.e_ss + self.e_boundary + self.e_s + self.e_svs

    def to_json_obj(self) -> dict:
        return {
            "v": self.v,
            "e": self.e,
            "e_i": self.e_i,
            "e_ss": self.e_ss,
            "e_boundary": self.e_boundary,
            "e_s": self.e_s,
            "e_svs": self.e_svs,
            "sigma_simple": self.sigma_simple,
            "sigma_strong": self.sigma_strong,
            "sigma_no_r1": self.sigma_no_r1,
        }


class _ArcWalker:
    """Accumulates maximal in-region arcs while walking diagram edges.

    The walker starts unarmed: nothing is recorded until the first cut
    event, which lets a cyclic component be walked twice from an arbitrary
    starting edge and still yield each arc exactly once (the walk stops when
    it returns to the arming cut).  Chain walks (for the component carrying
    the strand) arm the walker explicitly at the chain start.
    """

    def __init__(self, armed: bool = True) -> None:
        self.edges: list[RegionEdge] = []
        self.start: tuple | None = None
        self.points: list[Point] | None = None
        self.armed = armed
        self.arm_mark: tuple[tuple, Point] | None = None
        self.done = False

    def open(self, end: tuple, pt: Point) -> None:
        if not self.armed or self.done:
            return
        self.start = end
        self.points = [pt]

    def extend(self, pt: Point) -> None:
        if self.points is not None and self.points[-1] != pt:
            self.points.append(pt)

    def cut(self, end: tuple, pt: Point, axis: str = "") -> None:
        """Close the open arc at a cut point (arming on first contact).

        The axis tag distinguishes the two passes of a component through one
        of its own crossings, so a cyclic walk stops only after a full lap.
        """
        if self.done:
            return
        if not self.armed:
            self.armed = True
            self.arm_mark = (end, pt, axis)
            return
        if self.points is not None:
            self.extend(pt)
            self.edges.append(RegionEdge((self.start, end), tuple(self.points)))
            self.start = None
            self.points = None
        if self.arm_mark == (end, pt, axis):
            self.done = True

    @property
    def is_open(self) -> bool:
        return self.points is not None


def region_graph(spec: JumpSpec) -> tuple[list[RegionEdge], list[tuple[int, int]]]:
    """Edges of the diagram graph inside Q and the interior crossings.

    Interior crossings cut arcs; so do the two vertical boundary lines of Q.
    Bends of the diagram are interior points of arcs.
    """
    spec.check()
    j0 = spec.row
    c_left, c_right = spec.c_left, spec.c_right
    e_left, e_right = spec.e_left, spec.e_right
    s_position = spec.s_position
    down = spec.direction < 0
    swept = set(spec.swept_rows())
    cross_by_row = spec.crossings_by_row
    interior = {(x, y) for y, xs in cross_by_row.items() for x in xs}

    def side_end(col_line: int, j: int) -> tuple:
        far = e_left if col_line == c_left else e_right
        pt = (4 * col_line, 4 * j)
        if j == far:
            return ("DS", s_position(pt))
        on_strand = (far < j < j0) if down else (j0 < j < far)
        return ("S", s_position(pt)) if on_strand else ("U",)

    def walk_horizontal(walker: _ArcWalker, row: int, a: int, b: int) -> None:
        if walker.done:
            return
        if row not in swept:
            if walker.is_open:
                raise DegenerateGeometryError("open arc at a row outside the region")
            return
        step = 1 if b > a else -1
        marks = [
            (x, ("X", x, row))
            for x in cross_by_row.get(row, ())
            if min(a, b) < x < max(a, b)
        ] + [
            (c, side_end(c, row))
            for c in (c_left, c_right)
            if min(a, b) < c < max(a, b)
        ]
        marks.sort(key=lambda t: t[0], reverse=step < 0)
        stations: list[tuple[int, tuple | None]] = [(a, None)] + marks + [(b, None)]
        for i in range(len(stations) - 1):
            x_here, mark = stations[i]
            x_next = stations[i + 1][0]
            pt = (4 * x_here, 4 * row)
            next_inside = 2 * c_left < x_here + x_next < 2 * c_right
            if mark is None:
                # the station at x=a: either a bend (arc continues) or the
                # chain start at a strand endpoint
                if walker.is_open:
                    walker.extend(pt)
                elif next_inside and walker.armed:
                    if x_here not in (c_left, c_right):
                        raise DegenerateGeometryError("arc starts mid-region without a cut")
                    walker.open(("DS", s_position(pt)), pt)
            else:
                if walker.is_open or not walker.armed:
                    walker.cut(mark, pt, "h")
                if walker.done:
                    return
                if next_inside and not walker.is_open:
                    walker.open(mark, pt)
            if not next_inside and walker.is_open:
                raise DegenerateGeometryError("open arc on a segment outside the region")
        pt_end = (4 * b, 4 * row)
        if walker.is_open:
            walker.extend(pt_end)
            if b in (c_left, c_right):
                # chain end back at the strand's other endpoint
                walker.cut(("DS", s_position(pt_end)), pt_end, "h")

    def walk_vertical(walker: _ArcWalker, col: int, a: int, b: int) -> None:
        if walker.done:
            return
        if not (c_left < col < c_right) or a not in swept or b not in swept:
            if walker.is_open:
                raise DegenerateGeometryError("open arc leaving the region on a vertical")
            return
        step = 1 if b > a else -1
        if not walker.is_open and walker.armed:
            raise DegenerateGeometryError("interior vertical reached without an open arc")
        for j in range(a, b + step, step):
            pt = (4 * col, 4 * j)
            if (col, j) in interior and j not in (a, b):
                walker.cut(("X", col, j), pt, "v")
                if walker.done:
                    return
                if not walker.is_open:
                    walker.open(("X", col, j), pt)
            else:
                walker.extend(pt)

    def walk(walker: _ArcWalker, e: Edge) -> None:
        if e[0] == "v":
            walk_vertical(walker, e[1], e[2], e[3])
        else:
            walk_horizontal(walker, e[1], e[2], e[3])

    walker = _ArcWalker(armed=True)
    for e in spec.chain:
        walk(walker, e)
    if walker.is_open:
        raise DegenerateGeometryError("chain ended without closing its arc")
    edges = walker.edges
    for cyc in spec.others:
        walker = _ArcWalker(armed=False)
        for e in cyc * 2:
            walk(walker, e)
            if walker.done:
                break
        if walker.armed:
            edges.extend(walker.edges)
            continue
        # no cuts at all: the component is entirely inside or outside
        e0 = cyc[0]
        inside = (
            e0[0] == "v"
            and c_left < e0[1] < c_right
            and e0[2] in swept
            and e0[3] in swept
        )
        if inside:
            pts = [
                (4 * e[1], 4 * e[2]) if e[0] == "v" else (4 * e[2], 4 * e[1])
                for e in cyc
            ]
            edges.append(RegionEdge((("LOOP",), ("LOOP",)), tuple(pts + pts[:1])))
    return edges, sorted(interior)


def _point_in_polygon(pt: Point, polygon: list[Point]) -> bool:
    """Even-odd test for rectilinear polygons; pt must avoid the boundary."""
    gx, gy = pt
    inside = False
    m = len(polygon)
    for i in range(m):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % m]
        if x1 == x2 and x1 > gx and min(y1, y2) <= gy < max(y1, y2):
            inside = not inside
    return inside


def sigma(spec: JumpSpec) -> SigmaBreakdown:
    """Exact counts of the region graph for one jump.  The edge count is
    cross-checked against the endpoint handshake, and every interior
    crossing must come out with degree four."""
    edges, interior = region_graph(spec)
    v = len(interior)
    e = len(edges)

    degree: dict[tuple[int, int], int] = {c: 0 for c in interior}
    boundary_points = 0
    closed_loops = 0
    e_i = e_ss = e_boundary = 0
    sv_edges: dict[tuple[int, int], list[RegionEdge]] = {c: [] for c in interior}
    for edge in edges:
        kinds = [end[0] for end in edge.ends]
        if kinds == ["LOOP", "LOOP"]:
            closed_loops += 1
            e_i += 1
            continue
        for end in edge.ends:
            if end[0] == "X":
                degree[(end[1], end[2])] += 1
            else:
                boundary_points += 1
        if all(k in ("X", "U") for k in kinds):
            e_i += 1
        elif kinds.count("S") == 2:
            e_ss += 1
        elif kinds.count("DS") == 1:
            e_boundary += 1
        for a, b in ((0, 1), (1, 0)):
            if edge.ends[a][0] == "X" and edge.ends[b][0] == "S":
                sv_edges[(edge.ends[a][1], edge.ends[a][2])].append(edge)

    for c, deg in degree.items():
        if deg != 4:
            raise DegenerateGeometryError(f"interior crossing {c} has degree {deg}")
    if 2 * (e - closed_loops) != 4 * v + boundary_points:
        raise DegenerateGeometryError(
            f"edge handshake failed: E={e} V={v} B={boundary_points}"
        )

    e_s = sum(max(0, len(sv) - 2) for sv in sv_edges.values())
    e_svs = _count_svs_components(spec, edges, interior, sv_edges)

    return SigmaBreakdown(
        v=v,
        e=e,
        e_i=e_i,
        e_ss=e_ss,
        e_boundary=e_boundary,
        e_s=e_s,
        e_svs=e_svs,
        boundary_points=boundary_points,
    )


def _s_subpath(spec: JumpSpec, pos_a: int, pos_b: int) -> list[Point]:
    """Polyline along the carried strand between two arclength positions."""
    lo, hi = sorted((pos_a, pos_b))
    corners = spec.s_path()[1:3]
    waypoints = [spec.s_point(lo)]
    waypoints += [c for c in corners if lo < spec.s_position(c) < hi]
    waypoints.append(spec.s_point(hi))
    if pos_a > pos_b:
        waypoints.reverse()
    return waypoints


def _count_svs_components(spec, edges, interior, sv_edges) -> int:
    """Components containing the two-fingers-onto-the-strand pattern: an
    interior vertex with exactly two edges e, f reaching the strand
    interior, all other edges at that vertex inside the disk cut off by
    e, f and the strand subarc t between them, and no other vertex of the
    component on the interior of t."""
    if not edges:
        return 0
    parent = list(range(len(edges)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    at_vertex: dict[tuple[int, int], list[int]] = {c: [] for c in interior}
    for idx, edge in enumerate(edges):
        for end in edge.ends:
            if end[0] == "X":
                at_vertex[(end[1], end[2])].append(idx)
    for members in at_vertex.values():
        for other in members[1:]:
            parent[find(members[0])] = find(other)

    comp_of_edge = [find(i) for i in range(len(edges))]
    counted: set[int] = set()
    for vertex, fingers in sv_edges.items():
        if len(fingers) != 2:
            continue
        e_edge, f_edge = fingers
        comp = comp_of_edge[edges.index(e_edge)]
        if comp in counted:
            continue
        pos_e = _finger_pos(e_edge)
        pos_f = _finger_pos(f_edge)
        if pos_e == pos_f:
            continue
        e_path = _oriented_from(e_edge, vertex)
        f_path = _oriented_from(f_edge, vertex)
        t_path = _s_subpath(spec, pos_e, pos_f)
        polygon = e_path[:-1] + t_path[:-1] + list(reversed(f_path))[:-1]
        ok = True
        for other_idx in at_vertex[vertex]:
            edge2 = edges[other_idx]
            if edge2 is e_edge or edge2 is f_edge:
                continue
            for germ in _germs_at(edge2, vertex):
                if not _point_in_polygon(germ, polygon):
                    ok = False
        if not ok:
            continue
        lo, hi = sorted((pos_e, pos_f))
        for idx2, edge2 in enumerate(edges):
            if comp_of_edge[idx2] != comp:
                continue
            for end in edge2.ends:
                if end[0] in ("S", "DS") and lo < end[1] < hi:
                    ok = False
        if ok:
            counted.add(comp)
    return len(counted)


def _finger_pos(edge: RegionEdge) -> int:
    for end in edge.ends:
        if end[0] == "S":
            return end[1]
    raise DegenerateGeometryError("finger edge has no strand endpoint")


def _oriented_from(edge: RegionEdge, vertex: tuple[int, int]) -> list[Point]:
    pt = (4 * vertex[0], 4 * vertex[1])
    path = list(edge.path)
    if path[0] != pt:
        path.reverse()
    if path[0] != pt:
        raise DegenerateGeometryError("edge does not start at the requested vertex")
    return path


def _germs_at(edge: RegionEdge, vertex: tuple[int, int]) -> list[Point]:
    """Points one unit along the edge away from the vertex, one per end of
    the edge incident to the vertex (two for a loop)."""
    pt = (4 * vertex[0], 4 * vertex[1])
    out = []
    for path in (list(edge.path), list(reversed(edge.path))):
        if path[0] == pt:
            nxt = path[1]
            dx = 0 if nxt[0] == pt[0] else (1 if nxt[0] > pt[0] else -1)
            dy = 0 if nxt[1] == pt[1] else (1 if nxt[1] > pt[1] else -1)
            out.append((pt[0] + dx, pt[1] + dy))
    return out


@dataclass(frozen=True, slots=True)
class BoundReport:
    kind: str
    n: int
    bound: int
    per_jump: tuple[SigmaBreakdown, ...]

    @property
    def total_simple(self) -> int:
        return sum(b.sigma_simple for b in self.per_jump)

    @property
    def slack(self) -> int:
        return self.bound - self.total_simple

    @property
    def holds(self) -> bool:
        return self.total_simple <= self.bound

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "bound": self.bound,
            "total_sigma_simple": self.total_simple,
            "slack": self.slack,
            "holds": self.holds,
            "jumps": [b.to_json_obj() for b in self.per_jump],
        }


def verify_move_count_bound(d: GridDiagram, m: mv.CromwellMove) -> BoundReport:
    """Compare the jump decomposition's total budget to the closed formula."""
    kind = bound_kind_of(m)
    specs = jump_decomposition(d, m)
    sigmas = tuple(sigma(s) for s in specs)
    return BoundReport(kind=kind, n=d.n, bound=move_count_bound(d.n, kind), per_jump=sigmas)
