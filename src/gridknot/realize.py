"""Realizing exterior moves and rotations as explicit Reidemeister sequences.

The carried strand (an extreme horizontal edge plus its two attached
verticals) sweeps monotonically across the jump region, one swept row at a
time.  At each row that overlaps the strip, one batch carries the row's
crossings with the strand from a source end to a sink end: it opens with an
R2 pair where the row's crossings with the strand are born at both ends, an
R1 where the row hangs off one of the strand's own endpoints, or a slide of
a dying crossing; it emits one R3 per interior crossing on the row; and it
closes by handing the crossing over to the sink, or cancelling it there by
R2 or R1.  Every intermediate state is an explicit rectilinear polyline on
the scaled integer grid; each emitted move is cross-checked by replaying it
combinatorially and comparing against a fresh geometric extraction of the
post-state, so the recorded trace is guaranteed replayable.

A jump's static edges never move, so their crossings, signs and sorted
passages are built once per jump and a state adds only the moving strand's.
Only an extraction used as it stands is validated: to_planar's, and a jump's
first when no diagram is carried in.  Every other one is compared, up to
rotation and reversal, with a validated diagram: the sweep's own for a slide
or a handoff, the replayed record for a move.  Validity depends only on the
labels, over/under pairs, signs and face count, which rotation and reversal
keep, so an extraction equal to a valid diagram is valid.

Isotopy is decided before any sweep: when the first jump's validated start
already has the strict Gauss code of the move's result, the trace is empty.
Each planar diagram traces its faces once (planar.PlanarDiagram.faces), so
the Euler check of a replayed record and the site checks of the next one
share one tracing.  The trace's final diagram is the last one its records
were applied to, by the sweep or by the peephole pass's verifying replay;
the same records are never replayed a second time.

Vertical-axis moves run on the transposed grid (where the carried strand is
an understrand) and the finished trace is transposed back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import moves as mv
from . import planar
from .grid import (
    GridDiagram,
    apply_symmetry,
    component_count,
    crossings,
    grid_cycles,
    to_json_obj,
)
from .jumps import JumpSpec, jump_decomposition, sigma
from .planar import PlanarDiagram, ReidemeisterMove
from .simplify import NotAKnotError

Point = tuple[int, int]


class SweepObstructionError(RuntimeError):
    """The sweep produced an event with no legal move; indicates a bug for
    grid-derived jumps and is never expected in normal operation."""


@dataclass(frozen=True, slots=True)
class RealizationTrace:
    initial: PlanarDiagram
    moves: tuple[ReidemeisterMove, ...]
    final: PlanarDiagram
    jump_move_counts: tuple[int, ...]
    jump_r3_counts: tuple[int, ...]
    isotopy_shortcut: bool = False

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for m in self.moves:
            out[m.kind] = out.get(m.kind, 0) + 1
        return out


# --- geometric extraction -----------------------------------------------------


def _meets(verticals, horizontals):
    """Pairs of a vertical and a horizontal segment that cross strictly
    inside both.  Segments are (slot, fixed, lo, hi, step): the coordinate
    they sit at, their span and their direction of travel (+1 or -1)."""
    for v in verticals:
        for h in horizontals:
            if h[2] < v[1] < h[3] and v[2] < h[1] < v[3]:
                yield v, h


def _segments(pts: list[Point], slot: int):
    """A polyline's vertical and horizontal segments, numbered from slot."""
    verticals, horizontals = [], []
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        if x1 == x2 and y1 != y2:
            verticals.append((slot, x1, min(y1, y2), max(y1, y2), 1 if y2 > y1 else -1))
        elif y1 == y2 and x1 != x2:
            horizontals.append((slot, y1, min(x1, x2), max(x1, x2), 1 if x2 > x1 else -1))
        slot += 1
    return verticals, horizontals


def _least_rotation(passages: list) -> tuple:
    """The least cyclic rotation; it starts at the least passage, since the
    passages of a valid diagram are distinct."""
    r = passages.index(min(passages))
    return tuple(passages[r:] + passages[:r])


class _Geometry:
    """Extraction of the combinatorial diagram from rectilinear geometry.

    The static part is built once per jump (or per grid): the grid edges of
    each cycle in walk order, their crossings among themselves, which are
    vertical-over and labeled by position, the signs of those, and each
    edge's passages sorted along it as (signed coordinate, label, over).  A
    state adds only the moving polyline, walked just before cycle 0's edges,
    which passes over every crossing it makes.  Extractions are not
    validated here; see the module docstring.
    """

    __slots__ = ("cycles", "verticals", "horizontals", "hits", "signs")

    def __init__(self, cycles, labels: dict[Point, str]) -> None:
        self.cycles, self.verticals, self.horizontals = [], [], []
        slot = 0
        for cyc in cycles:
            for e in cyc:
                vs, hs = _segments(_grid_edge_polyline(e), slot)
                self.verticals += vs
                self.horizontals += hs
                slot += 1
            self.cycles.append(range(slot - len(cyc), slot))
        self.hits: list[list] = [[] for _ in range(slot)]
        self.signs: dict[str, int] = {}
        for v, h in _meets(self.verticals, self.horizontals):
            label = labels.get((v[1], h[1]))
            if label is None:
                raise SweepObstructionError(f"unlabeled static crossing at {(v[1], h[1])}")
            self.signs[label] = -v[4] * h[4]
            self.hits[v[0]].append((v[4] * h[1], label, True))
            self.hits[h[0]].append((h[4] * v[1], label, False))
        for seg_hits in self.hits:
            seg_hits.sort()

    def extract(self, moving: list[Point] | None = None, labels: dict[Point, str] | None = None) -> PlanarDiagram:
        """The diagram with the moving polyline, if any, labeled by position."""
        hits, signs = self.hits, self.signs
        first = len(hits)
        if moving is not None:
            hits, signs = hits + [()] * (len(moving) - 1), dict(signs)
            mv_v, mv_h = _segments(moving, first)
            for v, h in _meets(mv_v, mv_h):
                raise SweepObstructionError(f"moving strand self-crossing at {(v[1], h[1])}")
            extra: dict[int, list] = {}
            for pairs, over_v in ((_meets(mv_v, self.horizontals), True), (_meets(self.verticals, mv_h), False)):
                for v, h in pairs:
                    label = labels.get((v[1], h[1]))
                    if label is None:
                        raise SweepObstructionError(f"unlabeled moving crossing at {(v[1], h[1])}")
                    signs[label] = -v[4] * h[4] if over_v else v[4] * h[4]
                    extra.setdefault(v[0], []).append((v[4] * h[1], label, over_v))
                    extra.setdefault(h[0], []).append((h[4] * v[1], label, not over_v))
            for i, keys in extra.items():
                hits[i] = sorted([*hits[i], *keys])
        components = []
        crossing_free = 0
        for ci, span in enumerate(self.cycles):
            slots = [*range(first, len(hits)), *span] if ci == 0 else span
            passages = [(label, over) for i in slots for _, label, over in hits[i]]
            if passages:
                components.append(_least_rotation(passages))
            else:
                crossing_free += 1
        return PlanarDiagram(tuple(components), signs, crossing_free)


def _grid_edge_polyline(e: tuple[str, int, int, int]) -> list[Point]:
    if e[0] == "v":
        return [(4 * e[1], 4 * e[2]), (4 * e[1], 4 * e[3])]
    return [(4 * e[2], 4 * e[1]), (4 * e[3], 4 * e[1])]


def to_planar(d: GridDiagram) -> PlanarDiagram:
    """Faithful planar diagram of a grid: every crossing vertical-over."""
    rows = d.row_spans()
    pd = _Geometry(grid_cycles(d, rows), _static_labels_for(d, rows)).extract()
    pd.validate()
    return pd


# --- the sweep ---------------------------------------------------------------


@dataclass(slots=True)
class _MState:
    """Moving-strand shape: a run at flat_y with an optional rectangular dip
    of [lo_x, hi_x] at dip_y; lo_x == 4*c_left means the dip is open at the
    west corner of the strand (and mirrored for hi_x)."""

    flat_y: int
    dip: tuple[int, int, int] | None = None  # (lo_x, hi_x, dip_y)


def _rows_crossing(spec: JumpSpec, x: int, y1: int, y2: int) -> list[int]:
    """Rows of the host whose span crosses the vertical line x strictly
    between heights y1 and y2, in either order (scaled coordinates)."""
    y1, y2 = sorted((y1, y2))
    spans = enumerate(spec.row_spans, start=1)
    return [r for r, (a, b) in spans if 4 * a < x < 4 * b and y1 < 4 * r < y2]


def _m_polyline(spec: JumpSpec, st: _MState) -> list[Point]:
    xl, xr = 4 * spec.c_left, 4 * spec.c_right
    pts: list[Point] = [(xl, 4 * spec.e_left)]
    if st.dip is None:
        pts += [(xl, st.flat_y), (xr, st.flat_y)]
    else:
        lo, hi, dy = st.dip
        if lo == xl:
            pts += [(xl, dy)]
        else:
            pts += [(xl, st.flat_y), (lo, st.flat_y), (lo, dy)]
        if hi == xr:
            pts += [(xr, dy)]
        else:
            pts += [(hi, dy), (hi, st.flat_y), (xr, st.flat_y)]
    pts.append((xr, 4 * spec.e_right))
    return pts


@dataclass(slots=True)
class _SweepContext:
    spec: JumpSpec
    static_label: dict[Point, str]
    registry: dict[tuple, str]
    mint: list[int]
    geometry: _Geometry
    state: _MState = field(init=False)
    diagram: PlanarDiagram = field(init=False)
    records: list[ReidemeisterMove] = field(default_factory=list)
    r3_count: int = 0
    frames: list | None = None

    def new_label(self) -> str:
        self.mint[0] += 1
        return f"m{self.mint[0]}"

    # -- geometry ---------------------------------------------------------------

    def moving_positions(self, st: _MState) -> dict[Point, str]:
        spec = self.spec
        host = spec.host
        c_left, c_right = spec.c_left, spec.c_right
        xl, xr = 4 * c_left, 4 * c_right
        out: dict[Point, str] = {}
        lo, hi, dy = st.dip if st.dip else (None, None, None)
        for v in range(c_left + 1, c_right):
            h_at = dy if st.dip and lo <= 4 * v <= hi else st.flat_y
            a, b = host.columns[v - 1]
            if 4 * a < h_at < 4 * b:
                out[(4 * v, h_at)] = self.registry[("v", v)]
        west_y = dy if (st.dip and lo == xl) else st.flat_y
        east_y = dy if (st.dip and hi == xr) else st.flat_y
        for side, x_line, far, y_end in (
            ("postL", xl, spec.e_left, west_y),
            ("postR", xr, spec.e_right, east_y),
        ):
            for r in _rows_crossing(spec, x_line, 4 * far, y_end):
                out[(x_line, 4 * r)] = self.registry[(side, r)]
        if st.dip:
            for wall_x, key in ((lo, ("wall_lo",)), (hi, ("wall_hi",))):
                if wall_x in (xl, xr):
                    continue
                key_label = self.registry.get(key)
                if key_label is not None:
                    for r in _rows_crossing(spec, wall_x, dy, st.flat_y):
                        out[(wall_x, 4 * r)] = key_label
        return out

    def extract(self, st: _MState) -> PlanarDiagram:
        m_pts = _m_polyline(self.spec, st)
        # orient the moving polyline to match the traversal direction
        moving = m_pts if self.spec.enters_left else m_pts[::-1]
        return self.geometry.extract(moving, self.moving_positions(st))

    # -- move emission ----------------------------------------------------------

    def emit(self, kind: str, payload: dict, new_state: _MState) -> None:
        """Record one move.  The maintained diagram evolves by the recorded
        rewrite itself, so its traversal direction is stable across the whole
        trace; the fresh geometric extraction is aligned to it (extraction
        direction is an artifact of the grid walk and may flip)."""
        post = self.extract(new_state)
        last_error: Exception | None = None
        for candidate in (post, _reverse_diagram(post)):
            if kind == "r3":
                # a crossing triple can bound more than one triangle; pin the
                # face whose flip matches the geometry and record its sides
                faces = planar.triangle_faces_for(self.diagram, payload["labels"])
                comp = self.diagram.components[0]
                variants = [
                    {**payload, "sides": planar.gap_sides(comp, gaps)} for gaps in faces
                ]
            else:
                variants = [payload]
            for pl in variants:
                record = _build_record(kind, self.diagram, candidate, pl)
                try:
                    replayed = planar.apply_move(self.diagram, record)
                except planar.IllegalMoveAtSiteError as exc:
                    last_error = exc
                    continue
                if _same_diagram(replayed, candidate):
                    self.records.append(record)
                    self.diagram = replayed
                    self.state = new_state
                    if kind == "r3":
                        self.r3_count += 1
                    if self.frames is not None:
                        self.frames.append((self.spec, new_state, record.kind))
                    return
        raise SweepObstructionError(
            f"{kind} record does not reproduce the geometric state: {last_error}"
        )

    def slide(self, new_state: _MState) -> None:
        if not _same_either_way(self.diagram, self.extract(new_state)):
            raise SweepObstructionError("slide changed the diagram structurally")
        self.state = new_state


def _reverse_diagram(p: PlanarDiagram) -> PlanarDiagram:
    comps = tuple(tuple(reversed(comp)) for comp in p.components)
    return PlanarDiagram(comps, p.signs, p.crossing_free_components)


def _same_diagram(p1: PlanarDiagram, p2: PlanarDiagram) -> bool:
    """Equal up to rotation; p1 is valid, so a rotation of p2 equals it
    exactly when their least rotations are equal."""
    if p1.signs != p2.signs or p1.crossing_free_components != p2.crossing_free_components:
        return False
    return len(p1.components) == len(p2.components) and all(
        _least_rotation(c1) == _least_rotation(c2) for c1, c2 in zip(p1.components, p2.components)
    )


def _same_either_way(p1: PlanarDiagram, p2: PlanarDiagram) -> bool:
    """p1 and p2 are the same diagram, p2 possibly traversed backwards."""
    return _same_diagram(p1, p2) or _same_diagram(p1, _reverse_diagram(p2))


def _build_record(kind: str, pre: PlanarDiagram, post: PlanarDiagram, payload: dict) -> ReidemeisterMove:
    """Fill in anchors and insertion blocks by diffing the passage cycles."""
    if kind in ("r3", "r2_delete", "r1_delete"):
        return ReidemeisterMove(kind, payload)
    pre_seq = list(pre.components[0]) if pre.components else []
    post_seq = list(post.components[0])
    new_labels = set(post.signs) - set(pre.signs)
    if pre_seq:
        # rotate so position zero holds an old passage; blocks then never
        # wrap around the seam and every anchor is an old passage
        for r in range(len(post_seq)):
            if post_seq[r][0] not in new_labels:
                post_seq = post_seq[r:] + post_seq[:r]
                break
    inserts: list[list] = []
    i = 0
    L = len(post_seq)
    while i < L:
        if post_seq[i][0] in new_labels:
            block = []
            j = i
            while j < L and post_seq[j][0] in new_labels:
                block.append([post_seq[j][0], post_seq[j][1]])
                j += 1
            anchor = None
            if pre_seq:
                prev = post_seq[i - 1]
                anchor = [prev[0], prev[1]]
            inserts.append([anchor, block])
            i = j
        else:
            i += 1
    if kind == "r1_create":
        (label,) = payload["labels"]
        block = inserts[0][1] if inserts else []
        return ReidemeisterMove(
            "r1_create",
            {
                "label": label,
                "sign": post.signs[label],
                "over_first": bool(block[0][1]) if block else True,
                "after": inserts[0][0] if inserts else None,
            },
        )
    la, lb = payload["labels"]
    return ReidemeisterMove(
        "r2_create",
        {
            "labels": [la, lb],
            "signs": [post.signs[la], post.signs[lb]],
            "inserts": inserts,
        },
    )


@dataclass(frozen=True, slots=True)
class _EndEvent:
    side: str  # "west" | "east"
    kind: str  # "corner" | "post" | "attach"
    value: int  # +1 born, -1 died, 0 at an attach end
    x: int  # scaled x position of the event


def _classify_end(spec: JumpSpec, j: int, end_col: int, side: str) -> _EndEvent:
    """What happens where row j, which overlaps the strip, ends on `side`:
    a crossing with a post (a vertical of the strand) is born or dies, the
    row attaches to the strand's own endpoint, or a vertical inside the
    strip begins or ends there (a corner)."""
    down = spec.direction < 0
    post_col, far = (spec.c_left, spec.e_left) if side == "west" else (spec.c_right, spec.e_right)
    beyond = (end_col < post_col) if side == "west" else (end_col > post_col)
    if beyond:
        born = (j < far) if down else (j > far)
        return _EndEvent(side, "post", 1 if born else -1, 4 * post_col)
    if end_col == post_col:
        if j != far:
            raise SweepObstructionError(f"row {j} attaches at an impossible height")
        return _EndEvent(side, "attach", 0, 4 * post_col)
    a, b = spec.host.columns[end_col - 1]
    # born where the vertical hangs below the row (down) or rises above it (up)
    born = (b == j) if down else (a == j)
    return _EndEvent(side, "corner", 1 if born else -1, 4 * end_col)


def _sweep_jump(ctx: _SweepContext) -> None:
    spec = ctx.spec
    down = spec.direction < 0
    rows = spec.row_spans
    for j in spec.swept_rows():
        before_y = 4 * j + (1 if down else -1)
        after_y = 4 * j - (1 if down else -1)
        ctx.slide(_MState(flat_y=before_y))
        lj, rj = rows[j - 1]
        if rj <= spec.c_left or lj >= spec.c_right:
            continue
        west = _classify_end(spec, j, lj, "west")
        east = _classify_end(spec, j, rj, "east")
        statics = spec.crossings_by_row.get(j, ())
        if west.value == 0 and east.value == 0:
            if statics:
                raise SweepObstructionError(f"row {j} is a closed pocket with crossings")
            ctx.slide(_MState(flat_y=after_y))
            continue
        _run_batch(ctx, j, before_y, after_y, west, east, statics)
    ctx.slide(_MState(flat_y=spec.target_level()))


def _host_key(ev: _EndEvent, j: int) -> tuple:
    if ev.kind == "corner":
        return ("v", ev.x // 4)
    if ev.kind == "post":
        return ("postL" if ev.side == "west" else "postR", j)
    raise SweepObstructionError("no resting place at an attach end")


def _run_batch(ctx, j, before_y, after_y, west, east, statics) -> None:
    """Execute all moves for the passage of one row.

    The row's crossings with the strand run from the source end, the one
    with the smaller event value (west on a tie), to the sink end.  The
    source opens a dip of the strand below (or above) the row: an R2 pair
    when both ends are born, a kink at an attach end, or a slide of the dying
    crossing into the dip.  The dip's sink-side wall then passes every static
    crossing of the row by R3, and the sink closes: a born end takes the
    wall's crossing, a dying end cancels it by R2, an attach end by R1.
    """
    reg = ctx.registry
    eastward = west.value <= east.value
    if eastward:
        source, sink, step, xs = west, east, 1, statics
        wall, back_wall = ("wall_hi",), ("wall_lo",)
    else:
        source, sink, step, xs = east, west, -1, statics[::-1]
        wall, back_wall = ("wall_lo",), ("wall_hi",)

    def dip(near: int, far: int) -> _MState:
        lo, hi = (near, far) if eastward else (far, near)
        return _MState(flat_y=before_y, dip=(lo, hi, after_y))

    # near: the dip's wall on the source side, which stays put while the
    # sink-side wall carries the crossing across the row
    if source.value < 0:
        near = source.x - step if source.kind == "corner" else source.x
        reg[wall] = reg.pop(_host_key(source, j))
        ctx.slide(dip(near, source.x + step))
    else:
        near = source.x if source.kind == "attach" else source.x + step
        far = 4 * xs[0] - step if xs else sink.x - step
        if source.value > 0:
            reg[("wall_lo",)], reg[("wall_hi",)] = ctx.new_label(), ctx.new_label()
            labels = [reg[("wall_lo",)], reg[("wall_hi",)]]
            ctx.emit("r2_create", {"labels": labels}, dip(near, far))
        else:
            reg[wall] = ctx.new_label()
            ctx.emit("r1_create", {"labels": [reg[wall]]}, dip(near, far))
    for x in xs:
        labels = [ctx.static_label[(4 * x, 4 * j)], reg[("v", x)], reg[wall]]
        ctx.emit("r3", {"labels": labels}, dip(near, 4 * x + step))
    flat = _MState(flat_y=after_y)
    if sink.value > 0:
        if source.value > 0:
            reg[_host_key(source, j)] = reg.pop(back_wall)
        reg[_host_key(sink, j)] = reg.pop(wall)
        ctx.slide(flat)
    elif sink.value < 0:
        k = reg.pop(wall)
        ctx.emit("r2_delete", {"labels": [k, reg.pop(_host_key(sink, j))]}, flat)
    else:
        ctx.emit("r1_delete", {"label": reg.pop(wall)}, flat)


def _initial_registry(spec: JumpSpec, static_label: dict[Point, str]) -> dict[tuple, str]:
    reg: dict[tuple, str] = {}
    for side, col, far in (("postL", spec.c_left, spec.e_left), ("postR", spec.c_right, spec.e_right)):
        for r in _rows_crossing(spec, 4 * col, 4 * far, 4 * spec.row):
            reg[(side, r)] = static_label[(4 * col, 4 * r)]
    return reg


def _start_jump(
    spec: JumpSpec,
    static_label: dict[Point, str],
    mint: list[int],
    start_diagram: PlanarDiagram | None = None,
    frames: list | None = None,
) -> _SweepContext:
    """The sweep context of one jump, at its start: ctx.diagram is the jump's
    initial diagram.

    start_diagram carries the traversal direction across the jumps of an
    exchange; it must be the same labeled diagram as the jump's own initial
    extraction (possibly reversed).  Without it the extraction is validated
    and used as it stands."""
    ctx = _SweepContext(
        spec=spec,
        static_label=static_label,
        registry=_initial_registry(spec, static_label),
        mint=mint,
        geometry=_Geometry([spec.chain, *spec.others], static_label),
    )
    ctx.frames = frames
    ctx.state = _MState(flat_y=4 * spec.row)
    extracted = ctx.extract(ctx.state)
    if start_diagram is None:
        extracted.validate()
        ctx.diagram = extracted
    else:
        if not _same_either_way(start_diagram, extracted):
            raise SweepObstructionError("jump handoff does not match the next grid")
        ctx.diagram = start_diagram
    return ctx


def _static_labels_for(host: GridDiagram, rows: tuple | None = None) -> dict[Point, str]:
    """Labels of the host's crossings by position; `rows` is
    host.row_spans(), computed here when not given."""
    return {(4 * c.column, 4 * c.row): f"x{c.column}-{c.row}" for c in crossings(host, rows)}


def _relabel_after_rotation(first: JumpSpec, second: JumpSpec, final_positions: dict[Point, str]) -> dict[Point, str]:
    """Static labels for the intermediate diagram of an exchange, the second
    jump's host, inherited from the first jump's final state."""
    out: dict[Point, str] = {}
    down_first = first.direction < 0
    for c in crossings(second.host, second.row_spans):
        old_row = c.row - 1 if down_first else c.row + 1
        pos = (4 * c.column, 4 * old_row)
        out[(4 * c.column, 4 * c.row)] = final_positions[pos]
    return out


def _transpose_label(label: str) -> str:
    if label.startswith("x"):
        a, b = label[1:].split("-")
        return f"x{b}-{a}"
    return label


def _transpose_diagram(p: PlanarDiagram) -> PlanarDiagram:
    comps = tuple(
        _least_rotation([(_transpose_label(l), not o) for l, o in comp]) for comp in p.components
    )
    signs = {_transpose_label(l): s for l, s in p.signs.items()}
    return PlanarDiagram(comps, signs, p.crossing_free_components)


def _transpose_record(rec: ReidemeisterMove) -> ReidemeisterMove:
    pl = json.loads(json.dumps(rec.payload))
    if "label" in pl:
        pl["label"] = _transpose_label(pl["label"])
    if "labels" in pl:
        pl["labels"] = [_transpose_label(l) for l in pl["labels"]]
    if "after" in pl and pl["after"] is not None:
        pl["after"] = [_transpose_label(pl["after"][0]), not pl["after"][1]]
    if "over_first" in pl:
        pl["over_first"] = not pl["over_first"]
    if "inserts" in pl:
        for ins in pl["inserts"]:
            if ins[0] is not None:
                ins[0] = [_transpose_label(ins[0][0]), not ins[0][1]]
            ins[1] = [[_transpose_label(l), not o] for l, o in ins[1]]
    if "sides" in pl:
        pl["sides"] = [
            [[_transpose_label(a), not oa], [_transpose_label(b), not ob]]
            for (a, oa), (b, ob) in pl["sides"]
        ]
    return ReidemeisterMove(rec.kind, pl)


def realize(d: GridDiagram, m: mv.CromwellMove, frames: list | None = None) -> RealizationTrace:
    """Turn an exterior exchange, exterior merge or rotation into an explicit
    Reidemeister sequence from to_planar(d) to to_planar(apply(d, m)).

    Isotopy is decided before any sweep: when the first jump's validated
    start diagram already has the strict Gauss code of the move's result,
    the move is a planar isotopy of the drawing and the trace is empty."""
    if component_count(d) != 1:
        raise NotAKnotError("realization requires a knot diagram")
    after = mv.apply(d, m)  # validates applicability
    frame_after = apply_symmetry(after, "transpose") if m.axis is mv.Axis.VERTICAL else after
    specs = jump_decomposition(d, m)
    target_code = planar.gauss_code(to_planar(frame_after), strict=True)
    ctx = _start_jump(specs[0], _static_labels_for(specs[0].host, specs[0].row_spans), [0], None, frames)
    initial = ctx.diagram
    shortcut = planar.gauss_code(initial, strict=True) == target_code
    if shortcut:
        records: list[ReidemeisterMove] = []
        jump_of: list[int] = []
        r3_counts = [0] * len(specs)
        final = initial
    else:
        records, jump_of, r3_counts, final = _sweep_all(specs, ctx, target_code)
    jump_counts = [jump_of.count(i) for i in range(len(specs))]
    if m.axis is mv.Axis.VERTICAL:
        initial = _transpose_diagram(initial)
        final = _transpose_diagram(final)
        records = [_transpose_record(r) for r in records]
    return RealizationTrace(
        initial, tuple(records), final, tuple(jump_counts), tuple(r3_counts), shortcut
    )


def _sweep_all(specs: list[JumpSpec], ctx: _SweepContext, target_code: str):
    """Sweep every jump, ctx being the first one's start, and end the trace
    exactly at the move's result.  Returns (records, the jump of each
    record, r3 count per jump, final diagram)."""
    initial = ctx.diagram
    records: list[ReidemeisterMove] = []
    jump_of: list[int] = []
    r3_counts: list[int] = []
    for idx, spec in enumerate(specs):
        if idx:
            final_positions = dict(ctx.static_label)
            final_positions.update(ctx.moving_positions(ctx.state))
            static_label = _relabel_after_rotation(specs[0], spec, final_positions)
            ctx = _start_jump(spec, static_label, ctx.mint, ctx.diagram, ctx.frames)
        _sweep_jump(ctx)
        records.extend(ctx.records)
        jump_of.extend([idx] * len(ctx.records))
        r3_counts.append(ctx.r3_count)
    final = ctx.diagram
    # A merge jump can leave one removable kink where the partner row
    # straddles the other attached column; straighten it away so the trace
    # ends exactly at the grid move's result.
    if planar.gauss_code(final, strict=True) != target_code:
        for label in _monogon_labels(final):
            candidate_rec = ReidemeisterMove("r1_delete", {"label": label})
            try:
                candidate = planar.apply_move(final, candidate_rec)
            except planar.IllegalMoveAtSiteError:
                continue
            if planar.gauss_code(candidate, strict=True) == target_code:
                records.append(candidate_rec)
                jump_of.append(len(specs) - 1)
                final = candidate
                break
        else:
            raise SweepObstructionError("swept diagram does not straighten to the move result")
    records, jump_of, final = _cancel_idle_kinks(initial, records, jump_of, final, target_code)
    return records, jump_of, r3_counts, final


def _references(rec: ReidemeisterMove, label: str) -> bool:
    pl = rec.payload
    if pl.get("label") == label or label in pl.get("labels", ()):
        return True
    after = pl.get("after")
    if after is not None and after[0] == label:
        return True
    for ins in pl.get("inserts", ()):
        if ins[0] is not None and ins[0][0] == label:
            return True
        if any(l == label for l, _ in ins[1]):
            return True
    return False


def _cancel_idle_kinks(initial, records, jump_of, final, target_code):
    """Peephole pass: a kink the sweep creates and then merely destroys
    again (alone, or together with one other crossing) need never be made.
    Each shortened sequence is re-verified by a full replay from the initial
    diagram; this is what keeps every trace inside its region budget.  final
    is the replay of the given records, and the result's final diagram is
    that of the last sequence accepted, so nothing is replayed twice.

    With no intermediate move touching the created crossings, a creation at
    move i and a deletion at move j sharing the crossing k reduce to the net
    difference:
      r1_create(k) ... r1_delete(k)       ->  nothing
      r1_create(k) ... r2_delete(k, x)    ->  r1_delete(x)
      r2_create(k, b) ... r1_delete(k)    ->  r1_create(b)
      r2_create(k, b) ... r2_delete(k, b) ->  nothing
      r2_create(k, b) ... r2_delete(x, k) ->  nothing, renaming b to x later
    """

    def verified(cand, cand_jumps):
        p = initial
        try:
            for r in cand:
                p = planar.apply_move(p, r)
        except planar.IllegalMoveAtSiteError:
            return None
        if planar.gauss_code(p, strict=True) != target_code:
            return None
        return cand, cand_jumps, p

    def shrink_r2_create(rec: ReidemeisterMove, dropped: str) -> ReidemeisterMove | None:
        survivor = next(l for l in rec.payload["labels"] if l != dropped)
        sign = dict(zip(rec.payload["labels"], rec.payload["signs"]))[survivor]
        blocks = []
        for anchor, block in rec.payload["inserts"]:
            kept = [p for p in block if p[0] != dropped]
            if kept:
                blocks.append([anchor, kept])
        if len(blocks) != 1 or len(blocks[0][1]) != 2:
            return None
        return ReidemeisterMove(
            "r1_create",
            {
                "label": survivor,
                "sign": sign,
                "over_first": bool(blocks[0][1][0][1]),
                "after": blocks[0][0],
            },
        )

    def rename_label(rec: ReidemeisterMove, old: str, new: str) -> ReidemeisterMove:
        pl = json.loads(json.dumps(rec.payload).replace(f'"{old}"', f'"{new}"'))
        return ReidemeisterMove(rec.kind, pl)

    def try_pair(i: int, partner: int):
        rec, other = records[i], records[partner]
        created = (
            {rec.payload["label"]} if rec.kind == "r1_create" else set(rec.payload["labels"])
        )
        deleted = (
            {other.payload["label"]} if other.kind == "r1_delete" else set(other.payload["labels"])
        )
        shared = created & deleted
        if not shared:
            return None
        if any(
            _references(records[k], l) for k in range(i + 1, partner) for l in shared
        ):
            return None
        born = created - deleted
        gone = deleted - created
        rename: tuple[str, str] | None = None
        replacement: list[ReidemeisterMove] | None
        if not born and not gone:
            replacement = []
        elif not born and len(gone) == 1:
            replacement = [ReidemeisterMove("r1_delete", {"label": gone.pop()})]
        elif len(born) == 1 and not gone:
            shrunk = shrink_r2_create(rec, next(iter(shared)))
            replacement = [shrunk] if shrunk is not None else None
        else:
            replacement = []
            rename = (born.pop(), gone.pop())
        if replacement is None:
            return None
        tail = records[partner + 1 :]
        if rename is not None:
            tail = [rename_label(r, rename[0], rename[1]) for r in tail]
        cand = (
            records[:i]
            + ([replacement[0]] if replacement and replacement[0].kind == "r1_create" else [])
            + records[i + 1 : partner]
            + ([replacement[0]] if replacement and replacement[0].kind == "r1_delete" else [])
            + tail
        )
        cand_jumps = (
            jump_of[:i]
            + ([jump_of[i]] if replacement and replacement[0].kind == "r1_create" else [])
            + jump_of[i + 1 : partner]
            + ([jump_of[partner]] if replacement and replacement[0].kind == "r1_delete" else [])
            + jump_of[partner + 1 :]
        )
        return verified(cand, cand_jumps)

    changed = True
    while changed:
        changed = False
        for i, rec in enumerate(records):
            if rec.kind not in ("r1_create", "r2_create"):
                continue
            for partner in range(i + 1, len(records)):
                if records[partner].kind not in ("r1_delete", "r2_delete"):
                    continue
                got = try_pair(i, partner)
                if got is not None:
                    records, jump_of, final = got
                    changed = True
                    break
            if changed:
                break
    return records, jump_of, final


def _monogon_labels(p: PlanarDiagram) -> list[str]:
    if not p.components:
        return []
    comp = p.components[0]
    m = len(comp)
    return sorted(
        {comp[t][0] for t in range(m) if comp[t][0] == comp[(t + 1) % m][0]}
    )


def replay(trace: RealizationTrace) -> PlanarDiagram:
    """Re-apply the recorded moves by local combinatorial rewriting,
    verifying each site; returns the final diagram."""
    p = trace.initial
    for rec in trace.moves:
        p = planar.apply_move(p, rec)
    return p


# --- trace serialization and frames -------------------------------------------


def trace_to_json(trace: RealizationTrace, d: GridDiagram, m: mv.CromwellMove) -> dict:
    return {
        "grid": to_json_obj(d),
        "move": m.to_json_obj(),
        "initial_gauss": planar.gauss_code(trace.initial),
        "moves": [r.to_json_obj() for r in trace.moves],
        "final_gauss": planar.gauss_code(trace.final),
        "counts": trace.counts_by_kind(),
        "moves_per_jump": list(trace.jump_move_counts),
        "r3_per_jump": list(trace.jump_r3_counts),
    }


def sigma_budget(d: GridDiagram, m: mv.CromwellMove) -> int:
    return sum(sigma(s).sigma_simple for s in jump_decomposition(d, m))


def render_frame_svg(spec: JumpSpec, state: _MState) -> str:
    """One deterministic SVG of a mid-sweep state: the host grid's static
    edges plus the moving strand's polyline."""
    host = spec.host
    unit = 12
    pad = 18
    n4 = 4 * host.n

    def sx(x: int) -> float:
        return pad + unit * x / 4

    def sy(y: int) -> float:
        return pad + unit * (n4 + 2 - y) / 4

    parts = []
    side_w = 2 * pad + unit * host.n
    side_h = 2 * pad + unit * (host.n + 1)
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side_w}" height="{side_h}">'
    )
    parts.append(f'<rect width="{side_w}" height="{side_h}" fill="white"/>')
    for e in [*spec.chain, *(e for cyc in spec.others for e in cyc)]:
        p = _grid_edge_polyline(e)
        parts.append(
            f'<line x1="{sx(p[0][0])}" y1="{sy(p[0][1])}" x2="{sx(p[1][0])}" '
            f'y2="{sy(p[1][1])}" stroke="black" stroke-width="1.5"/>'
        )
    pts = _m_polyline(spec, state)
    path = " ".join(
        f"{'M' if i == 0 else 'L'} {sx(x)} {sy(y)}" for i, (x, y) in enumerate(pts)
    )
    parts.append(f'<path d="{path}" stroke="crimson" stroke-width="2" fill="none"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_frames(frames: list, directory: str) -> list[str]:
    import os

    os.makedirs(directory, exist_ok=True)
    names = []
    for i, (spec, state, kind) in enumerate(frames):
        name = f"frame{i:04d}_{kind}.svg"
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(render_frame_svg(spec, state))
        names.append(name)
    return names
