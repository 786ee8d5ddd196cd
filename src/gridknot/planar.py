"""Planar knot diagrams as signed passage sequences, with local rewrites.

A diagram is the cyclic sequence of crossing passages along each component,
plus a sign per crossing.  The planar embedding is implicit: each crossing's
counterclockwise slot order is determined by its sign, faces are traced from
the resulting rotation system, and the Euler relation is checked.  The
Reidemeister rewrites verify their sites against the traced faces before
touching the sequence, so a replayed trace is validated independently of
whatever produced it.

Sign convention: a crossing has sign +1 when rotating the over-strand
direction a quarter turn counterclockwise yields the under-strand direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

Passage = tuple[str, bool]  # (crossing label, is_over)


class PlanarError(ValueError):
    """Invalid planar diagram data."""


class NotAKnotDiagramError(PlanarError):
    """Operation requires a connected single-component diagram."""


class IllegalMoveAtSiteError(ValueError):
    """A rewrite's site does not exist or does not admit the move."""


# The four slots at a crossing; the counterclockwise order depends on the sign.
_O_IN, _O_OUT, _U_IN, _U_OUT = range(4)
_CCW_POS = {+1: (_U_IN, _O_OUT, _U_OUT, _O_IN), -1: (_U_OUT, _O_OUT, _U_IN, _O_IN)}
# per sign, the next slot clockwise from each slot
_CW = {s: tuple(ccw[ccw.index(k) - 1] for k in range(4)) for s, ccw in _CCW_POS.items()}


@dataclass(frozen=True, slots=True)
class PlanarDiagram:
    """components: per-component cyclic passage sequences; signs per label.

    crossing_free_components counts unknotted circles with no passages (they
    carry no combinatorial data beyond their existence).  A diagram is never
    changed after it is built, so its faces are traced once, on first use.
    """

    components: tuple[tuple[Passage, ...], ...]
    signs: dict
    crossing_free_components: int = 0
    _faces: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def crossing_count(self) -> int:
        return len(self.signs)

    def all_passages(self) -> Iterator[Passage]:
        for comp in self.components:
            yield from comp

    def validate(self) -> None:
        seen: dict[str, list[bool]] = {}
        for label, over in self.all_passages():
            seen.setdefault(label, []).append(over)
        if set(seen) != set(self.signs):
            raise PlanarError("crossing labels and signs disagree")
        for label, overs in seen.items():
            if sorted(overs) != [False, True]:
                raise PlanarError(f"crossing {label} lacks one over and one under passage")
        for label, s in self.signs.items():
            if s not in (1, -1):
                raise PlanarError(f"crossing {label} has sign {s!r}")
        if self.crossing_count and self._is_connected():
            v = self.crossing_count
            e = 2 * v
            f = len(self.faces())
            if v - e + f != 2:
                raise PlanarError(f"Euler check failed: V={v} E={e} F={f}")

    def _is_connected(self) -> bool:
        if len(self.components) + self.crossing_free_components <= 1:
            return True
        comp_of_label: dict[str, set[int]] = {}
        for idx, comp in enumerate(self.components):
            for label, _ in comp:
                comp_of_label.setdefault(label, set()).add(idx)
        if self.crossing_free_components:
            return False
        adj: dict[int, set[int]] = {i: set() for i in range(len(self.components))}
        for members in comp_of_label.values():
            for a in members:
                adj[a] |= members
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.components)

    # -- rotation system and faces -------------------------------------------

    def faces(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Faces as cycles of directed edges (edge index, direction).  Edges
        join consecutive passages, numbered along the components in order."""
        if self._faces is None:
            object.__setattr__(self, "_faces", self._trace_faces())
        return self._faces

    def _trace_faces(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        if not self.signs:
            return ()
        # slot k of the i-th crossing in `signs` has id 4 * i + k; turn maps a
        # slot id to the id of the next slot clockwise at the same crossing
        base: dict[str, int] = {}
        turn: list[int] = []
        for label, sign in self.signs.items():
            b = base[label] = len(turn)
            turn.extend(b + k for k in _CW[sign])
        departures = [(0, 0)] * len(turn)
        arrival: dict[tuple[int, int], int] = {}
        ei = 0
        for comp in self.components:
            for (la, oa), (lb, ob) in zip(comp, comp[1:] + comp[:1]):
                tail = base[la] + (_O_OUT if oa else _U_OUT)
                head = base[lb] + (_O_IN if ob else _U_IN)
                departures[tail] = (ei, +1)
                departures[head] = (ei, -1)
                arrival[(ei, +1)] = head
                arrival[(ei, -1)] = tail
                ei += 1
        # the faces come in this set's order, and realize tries the R3
        # variants of a crossing triple in face order
        faces = []
        unused = set(arrival)
        while unused:
            start = cur = next(iter(unused))
            cycle = []
            while True:
                cycle.append(cur)
                unused.discard(cur)
                cur = departures[turn[arrival[cur]]]
                if cur == start:
                    break
            faces.append(tuple(cycle))
        return tuple(faces)

    # -- equality oracle -------------------------------------------------------

    def knot_sequence(self) -> tuple[tuple[bool, int, str], ...]:
        if not self.components and self.crossing_free_components == 1:
            return ()
        if len(self.components) != 1 or self.crossing_free_components:
            raise NotAKnotDiagramError("need a single-component diagram")
        comp = self.components[0]
        return tuple((over, self.signs[label], label) for label, over in comp)


def _canonical_variant(seq: Sequence[tuple[bool, int, str]]) -> tuple:
    """Relabel crossings in first-appearance order; minimize over basepoints.
    Only a basepoint at a least (over, sign) passage can give the minimum,
    and a basepoint is dropped at its first passage above the least so far."""
    best = None
    m = len(seq)
    least = min(seq, default=())[:2]
    for start in range(m):
        if seq[start][:2] != least:
            continue
        labels: dict[str, int] = {}
        out = []
        # tied: every passage so far equals best's, so the rest decides
        tied = best is not None
        for over, sign, label in seq[start:] + seq[:start]:
            code = labels.get(label)
            if code is None:
                code = labels[label] = len(labels) + 1
            passage = (over, sign, code)
            if tied:
                other = best[len(out)]
                if passage > other:
                    break
                tied = passage == other
            out.append(passage)
        else:
            if not tied:
                best = tuple(out)
    return best if best is not None else ()


def gauss_code(p: PlanarDiagram, strict: bool = False) -> str:
    """Canonical signed Gauss code of a knot diagram.

    By default the code is taken up to traversal direction, basepoint, and
    the two global involutions (mirror and role swap), so all eight square
    symmetries of a grid produce equal codes.  strict=True quotients only by
    basepoint and direction, distinguishing a diagram from its reflections.
    """
    seq = p.knot_sequence()
    if not seq:
        return "unknot"
    variants = [seq, tuple(reversed(seq))]
    if not strict:
        more = []
        for v in variants:
            more.append(tuple((not o, -s, l) for o, s, l in v))   # mirror
            more.append(tuple((not o, s, l) for o, s, l in v))    # role swap
            more.append(tuple((o, -s, l) for o, s, l in v))       # sign flip
        variants.extend(more)
    best = min(_canonical_variant(v) for v in variants)
    return ",".join(("O" if o else "U") + str(lab) + ("+" if s > 0 else "-") for o, s, lab in best)


# --- Reidemeister rewrites ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class ReidemeisterMove:
    """One rewrite step.  kind in {r1_create, r1_delete, r2_create,
    r2_delete, r3}; payload is kind-specific site data (see the apply
    functions).  Anchors name the passage a new block is inserted after,
    as [label, is_over], or null for a crossing-free diagram."""

    kind: str
    payload: dict

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, **self.payload}


def _single_component(p: PlanarDiagram) -> list[Passage]:
    if not p.components and p.crossing_free_components == 1:
        return []
    if len(p.components) != 1 or p.crossing_free_components:
        raise NotAKnotDiagramError("rewrites operate on single-component diagrams")
    return list(p.components[0])


def _find_passage(comp: list[Passage], label: str, over: bool) -> int:
    for i, (l, o) in enumerate(comp):
        if l == label and o == over:
            return i
    raise IllegalMoveAtSiteError(f"passage ({label}, {'over' if over else 'under'}) not found")


def _rebuild(p: PlanarDiagram, comp: list[Passage], signs: dict) -> PlanarDiagram:
    """Crossing-free circles are always tallied, never stored as empty
    passage sequences, so geometric extraction and rewriting agree."""
    other_circles = p.crossing_free_components - (0 if p.components else 1)
    if comp:
        new = PlanarDiagram((tuple(comp),), dict(signs), other_circles)
    else:
        new = PlanarDiagram((), dict(signs), other_circles + 1)
    new.validate()
    return new


def _edges_share_face(p: PlanarDiagram, gap_a: int, gap_b: int) -> bool:
    """Do the edges following passages gap_a and gap_b co-bound a face?"""
    if not p.signs:
        return True
    faces = p.faces()
    for face in faces:
        ids = {ei for ei, _ in face}
        if gap_a in ids and gap_b in ids:
            if gap_a != gap_b:
                return True
            if sum(1 for ei, _ in face if ei == gap_a) == 2:
                return True
    return False


def _anchor_index(comp: list[Passage], anchor) -> int:
    if anchor is None:
        if comp:
            raise IllegalMoveAtSiteError("null anchor on a diagram with crossings")
        return -1
    label, over = anchor[0], bool(anchor[1])
    return _find_passage(comp, label, over)


def apply_r1_create(p: PlanarDiagram, payload: dict) -> PlanarDiagram:
    comp = _single_component(p)
    label = payload["label"]
    if label in p.signs:
        raise IllegalMoveAtSiteError(f"crossing {label} already present")
    over_first = bool(payload["over_first"])
    pair = [(label, over_first), (label, not over_first)]
    idx = _anchor_index(comp, payload.get("after"))
    comp[idx + 1 : idx + 1] = pair
    signs = dict(p.signs)
    signs[label] = int(payload["sign"])
    return _rebuild(p, comp, signs)


def apply_r1_delete(p: PlanarDiagram, payload: dict) -> PlanarDiagram:
    comp = _single_component(p)
    label = payload["label"]
    if label not in p.signs:
        raise IllegalMoveAtSiteError(f"crossing {label} not present")
    i = _find_passage(comp, label, True)
    j = _find_passage(comp, label, False)
    m = len(comp)
    if (i + 1) % m != j and (j + 1) % m != i:
        raise IllegalMoveAtSiteError(f"crossing {label} does not bound a monogon")
    comp = [pp for pp in comp if pp[0] != label]
    signs = dict(p.signs)
    del signs[label]
    return _rebuild(p, comp, signs)


def apply_r2_create(p: PlanarDiagram, payload: dict) -> PlanarDiagram:
    comp = _single_component(p)
    la, lb = payload["labels"]
    for label in (la, lb):
        if label in p.signs:
            raise IllegalMoveAtSiteError(f"crossing {label} already present")
    sa, sb = (int(s) for s in payload["signs"])
    if sa != -sb:
        raise IllegalMoveAtSiteError("R2 pair must have opposite signs")
    inserts = payload["inserts"]
    anchor_idxs = [_anchor_index(comp, ins[0]) for ins in inserts]
    if len(inserts) == 2:
        if not _edges_share_face(p, anchor_idxs[0] % max(1, len(comp)), anchor_idxs[1] % max(1, len(comp))):
            raise IllegalMoveAtSiteError("R2 site edges do not co-bound a face")
    # insert from the highest index down so earlier indices stay valid
    order = sorted(range(len(inserts)), key=lambda i: anchor_idxs[i], reverse=True)
    for i in order:
        block = [(l, bool(o)) for l, o in inserts[i][1]]
        comp[anchor_idxs[i] + 1 : anchor_idxs[i] + 1] = block
    signs = dict(p.signs)
    signs[la] = sa
    signs[lb] = sb
    new = _rebuild(p, comp, signs)
    # structural sanity: the two new crossings bound a bigon in the result
    if not _is_bigon_pair(new, la, lb):
        raise IllegalMoveAtSiteError("R2 insertion did not create a bigon")
    return new


def _adjacent_pairs(comp: Sequence[Passage], la: str, lb: str) -> list[tuple[int, int]]:
    m = len(comp)
    out = []
    for t in range(m):
        x, y = comp[t], comp[(t + 1) % m]
        if {x[0], y[0]} == {la, lb}:
            out.append((t, (t + 1) % m))
    return out


def _is_bigon_pair(p: PlanarDiagram, la: str, lb: str) -> bool:
    comp = list(p.components[0])
    pairs = _adjacent_pairs(comp, la, lb)
    if len(pairs) < 2:
        return False
    roles = []
    for t, u in pairs:
        roles.append((comp[t][1], comp[u][1]))
    has_over = any(a and b for a, b in roles)
    has_under = any((not a) and (not b) for a, b in roles)
    if not (has_over and has_under):
        return False
    over_gap = next(t for t, u in pairs if comp[t][1] and comp[u][1])
    under_gap = next(t for t, u in pairs if not comp[t][1] and not comp[u][1])
    return _edges_share_face(p, over_gap, under_gap)


def apply_r2_delete(p: PlanarDiagram, payload: dict) -> PlanarDiagram:
    comp = _single_component(p)
    la, lb = payload["labels"]
    for label in (la, lb):
        if label not in p.signs:
            raise IllegalMoveAtSiteError(f"crossing {label} not present")
    if p.signs[la] != -p.signs[lb]:
        raise IllegalMoveAtSiteError("R2 pair must have opposite signs")
    if not _is_bigon_pair(p, la, lb):
        raise IllegalMoveAtSiteError(f"crossings {la},{lb} do not bound a removable bigon")
    comp = [pp for pp in comp if pp[0] not in (la, lb)]
    signs = dict(p.signs)
    del signs[la]
    del signs[lb]
    return _rebuild(p, comp, signs)


def apply_r3(p: PlanarDiagram, payload: dict) -> PlanarDiagram:
    comp = _single_component(p)
    labels = list(payload["labels"])
    if len(set(labels)) != 3:
        raise IllegalMoveAtSiteError("R3 needs three distinct crossings")
    for label in labels:
        if label not in p.signs:
            raise IllegalMoveAtSiteError(f"crossing {label} not present")
    matches = triangle_faces_for(p, labels)
    if not matches:
        raise IllegalMoveAtSiteError(
            f"crossings {labels} do not bound a common triangular face"
        )
    want_sides = payload.get("sides")
    if want_sides is not None:
        want = _side_set(want_sides)
        matches = [gaps for gaps in matches if _gap_side_set(comp, gaps) == want]
        if not matches:
            raise IllegalMoveAtSiteError(f"no triangular face matches the given sides")
    if len(matches) > 1:
        raise IllegalMoveAtSiteError(
            f"crossings {labels} bound more than one triangle; sides required"
        )
    side_gaps = matches[0]
    m = len(comp)
    legal = False
    for t in side_gaps:
        over_pair = comp[t][1] and comp[(t + 1) % m][1]
        under_pair = (not comp[t][1]) and (not comp[(t + 1) % m][1])
        if over_pair or under_pair:
            legal = True
    if not legal:
        raise IllegalMoveAtSiteError("no strand passes the triangle over-over or under-under")
    for t in sorted(side_gaps):
        u = (t + 1) % m
        comp[t], comp[u] = comp[u], comp[t]
    return _rebuild(p, comp, p.signs)


def _side_set(sides) -> frozenset:
    return frozenset(
        frozenset(((a[0], bool(a[1])), (b[0], bool(b[1])))) for a, b in sides
    )


def _gap_side_set(comp: Sequence[Passage], gaps) -> frozenset:
    m = len(comp)
    return frozenset(
        frozenset((comp[t], comp[(t + 1) % m])) for t in gaps
    )


def gap_sides(comp: Sequence[Passage], gaps) -> list:
    m = len(comp)
    return [
        [[comp[t][0], comp[t][1]], [comp[(t + 1) % m][0], comp[(t + 1) % m][1]]]
        for t in gaps
    ]


def triangle_faces_for(p: PlanarDiagram, labels) -> list[list[int]]:
    """All triangular faces bounded by exactly these three crossings,
    as lists of the three gap indices."""
    comp = p.components[0] if p.components else ()
    m = len(comp)
    want_pairs = {
        frozenset(pair)
        for pair in ((labels[0], labels[1]), (labels[1], labels[2]), (labels[0], labels[2]))
    }
    out = []
    for face in p.faces():
        ids = [ei for ei, _ in face]
        if len(ids) != 3 or len(set(ids)) != 3:
            continue
        face_pairs = {frozenset((comp[t][0], comp[(t + 1) % m][0])) for t in ids}
        if face_pairs == want_pairs:
            out.append(ids)
    return out


_APPLIERS = {
    "r1_create": apply_r1_create,
    "r1_delete": apply_r1_delete,
    "r2_create": apply_r2_create,
    "r2_delete": apply_r2_delete,
    "r3": apply_r3,
}


def apply_move(p: PlanarDiagram, move: ReidemeisterMove) -> PlanarDiagram:
    try:
        fn = _APPLIERS[move.kind]
    except KeyError:
        raise IllegalMoveAtSiteError(f"unknown move kind {move.kind!r}") from None
    return fn(p, move.payload)
