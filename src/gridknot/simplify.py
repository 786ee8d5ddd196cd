"""Unknot recognition by exhaustive monotone search.

From any knot diagram, a search over merges, exchanges and rotations (never
divides, so grid size never increases) either reaches the 2x2 diagram,
proving the knot trivial, or exhausts the reachable state space.  States
are expanded smallest grid first, which reaches the 2x2 diagram far sooner
than move-count order.

Two searches share that contract.  A search that builds a replayable
witness, and the restricted search behind `exterior_required` (where a
rotation is not free), treat rotations as moves and deduplicate states by
their canonical key under the eight square symmetries; the witness is a
valid path, not necessarily a shortest one.  A verdict-only search with
rotations allowed works on the torus instead: a rotation is a cyclic shift,
which is free there, so it expands one diagram per torus orbit
(`grid.torus_key`) and takes no rotation arcs.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import time
from dataclasses import dataclass, field
from enum import Enum

from . import moves as mv
from .grid import (
    GridDiagram,
    canonical_key,
    component_count,
    from_canonical_key,
    torus_key,
    trivial_diagram,
)


class NotAKnotError(ValueError):
    """The operation requires a single-component diagram."""


class NotTrivialInputError(ValueError):
    """The operation requires a diagram of the trivial knot."""


class LimitExceededError(RuntimeError):
    """A search limit was hit where an exhaustive answer was required."""


class LimitSettingError(ValueError):
    """GRIDKNOT_LIMIT_MB is not a positive, finite number of megabytes."""


class Verdict(Enum):
    TRIVIAL = "trivial"
    NOT_TRIVIAL = "not_trivial"
    LIMIT_EXCEEDED = "limit_exceeded"


# Per-state footprint for the MB cap: the tracemalloc peak of a fresh
# process running is_trivial(want_witness=True) on the 8-grid trefoil
# 4-5 2-7 4-8 1-7 6-8 2-6 3-5 1-3 capped at 10,000 states, over those states
# (Python 3.11).  That search holds whole diagrams on its frontier, so it
# is the larger of the two paths: the verdict-only search over torus orbits
# peaks at 178 B per stored key when it exhausts the same knot (9,313 keys).
# Below about 1 MB a fresh process's fixed overhead (apparently mostly
# interpreter free lists) dominates, and the peak can approach twice the cap.
_STATE_BYTES_ESTIMATE = 472


def _default_state_limit() -> int:
    env = os.environ.get("GRIDKNOT_LIMIT_MB")
    if not env:
        return 5_000_000
    try:
        mb = float(env)
    except ValueError:
        mb = math.nan
    if not math.isfinite(mb) or mb <= 0:
        raise LimitSettingError(
            f"GRIDKNOT_LIMIT_MB must be a positive number of megabytes, got {env!r}"
        )
    return max(1, int(mb * 1_000_000 / _STATE_BYTES_ESTIMATE))


@dataclass(frozen=True, slots=True)
class SearchLimits:
    max_states: int = field(default_factory=_default_state_limit)
    max_seconds: float | None = None


@dataclass(frozen=True, slots=True)
class SimplificationWitness:
    """A replayable move sequence from `start` down to the 2x2 diagram."""

    start: GridDiagram
    moves: tuple[mv.CromwellMove, ...]
    uses_exterior: tuple[bool, ...]

    def to_json_obj(self) -> dict:
        from .grid import to_json_obj
        return {
            "start": to_json_obj(self.start),
            "moves": [m.to_json_obj() for m in self.moves],
        }


@dataclass(frozen=True, slots=True)
class SearchReport:
    verdict: Verdict
    states_visited: int
    witness: SimplificationWitness | None
    exterior_required: bool | None = None

    def to_json_obj(self) -> dict:
        obj: dict = {"verdict": self.verdict.value, "states_visited": self.states_visited}
        if self.witness is not None:
            obj["witness"] = self.witness.to_json_obj()
        if self.exterior_required is not None:
            obj["exterior_required"] = self.exterior_required
        return obj


def _search_arcs(d: GridDiagram, include_rotations: bool, include_exterior_exchange: bool):
    for m in mv.available_moves(d):
        kind = m.kind
        if kind is mv.MoveKind.ROTATION:
            if include_rotations:
                yield m
        elif kind is mv.MoveKind.EXTERIOR_EXCHANGE:
            if include_exterior_exchange:
                yield m
        else:
            yield m


def _search(
    start: GridDiagram,
    limits: SearchLimits,
    include_rotations: bool,
    include_exterior_exchange: bool,
    want_witness: bool,
) -> tuple[Verdict, int, SimplificationWitness | None]:
    """Exhaustive reachability search for the 2x2 diagram.

    States are expanded smallest grid first (first come first within a
    size), which reaches the target far sooner on trivial inputs than
    move-count order; when the target is absent every order visits the same
    reachable set, so the verdict does not depend on it.
    """
    target = canonical_key(trivial_diagram())
    start_key = canonical_key(start)
    deadline = None if limits.max_seconds is None else time.monotonic() + limits.max_seconds

    if start_key == target:
        witness = SimplificationWitness(start, (), ()) if want_witness else None
        return Verdict.TRIVIAL, 1, witness

    # parents: canonical key -> (parent key, move from parent); the exact
    # diagram of a state rides only on the heap until it is expanded
    parents: dict[bytes, tuple[bytes | None, mv.CromwellMove | None]] = {start_key: (None, None)}
    visited = 1
    heap: list[tuple[int, int, bytes, GridDiagram]] = [(start.n, 0, start_key, start)]
    counter = 0

    while heap:
        if deadline is not None and time.monotonic() > deadline:
            return Verdict.LIMIT_EXCEEDED, visited, None
        _, _, key, d = heapq.heappop(heap)
        for m in _search_arcs(d, include_rotations, include_exterior_exchange):
            child = mv.apply(d, m)
            child_key = canonical_key(child)
            if child_key in parents:
                continue
            parents[child_key] = (key, m)
            visited += 1
            if child_key == target:
                witness = _build_witness(parents, start, child_key) if want_witness else None
                return Verdict.TRIVIAL, visited, witness
            if visited >= limits.max_states:
                return Verdict.LIMIT_EXCEEDED, visited, None
            counter += 1
            heapq.heappush(heap, (child.n, counter, child_key, child))
    return Verdict.NOT_TRIVIAL, visited, None


def _torus_search(start: GridDiagram, limits: SearchLimits) -> tuple[Verdict, int]:
    """Verdict-only reachability search for the 2x2 diagram over torus orbits.

    A rotation is a cyclic shift, which is free on the torus, so rotations
    are not arcs here; instead the search expands one diagram per torus
    orbit (`torus_key`), the orbit's least image.  Every merge or exchange
    of a rotated diagram is an interior or exterior merge or exchange of
    the unrotated one with a torus-equivalent result, so the orbits reached
    are those the search with rotation arcs reaches, and the verdict is the
    same.  Children are deduplicated by their dihedral canonical key, which
    is cheaper; the torus key is computed once per popped diagram, and a
    diagram whose orbit was already expanded is dropped.

    The count returned, and charged against max_states, is the number of
    keys stored: the dihedral keys reached plus the orbits expanded.
    """
    target = canonical_key(trivial_diagram())
    start_key = canonical_key(start)
    if start_key == target:
        return Verdict.TRIVIAL, 1
    deadline = None if limits.max_seconds is None else time.monotonic() + limits.max_seconds

    # the heap holds dihedral keys only; a key stands for its diagram
    # because the verdict does not depend on which member is expanded
    seen = {start_key}
    expanded: set[bytes] = set()
    stored = 1
    heap: list[tuple[int, int, bytes]] = [(start.n, 0, start_key)]
    counter = 0
    while heap:
        if deadline is not None and time.monotonic() > deadline:
            return Verdict.LIMIT_EXCEEDED, stored
        _, _, key = heapq.heappop(heap)
        orbit = torus_key(from_canonical_key(key))
        if orbit in expanded:
            continue
        expanded.add(orbit)
        stored += 1
        if stored >= limits.max_states:
            return Verdict.LIMIT_EXCEEDED, stored
        d = from_canonical_key(orbit)
        for m in _search_arcs(d, include_rotations=False, include_exterior_exchange=True):
            child = mv.apply(d, m)
            child_key = canonical_key(child)
            if child_key in seen:
                continue
            seen.add(child_key)
            stored += 1
            if child_key == target:
                return Verdict.TRIVIAL, stored
            if stored >= limits.max_states:
                return Verdict.LIMIT_EXCEEDED, stored
            counter += 1
            heapq.heappush(heap, (child.n, counter, child_key))
    return Verdict.NOT_TRIVIAL, stored


def _build_witness(parents, start: GridDiagram, end_key: bytes) -> SimplificationWitness:
    chain: list[mv.CromwellMove] = []
    parent_key, move = parents[end_key]
    while parent_key is not None:
        chain.append(move)
        parent_key, move = parents[parent_key]
    chain.reverse()
    flags = tuple(m.kind is mv.MoveKind.EXTERIOR_EXCHANGE for m in chain)
    return SimplificationWitness(start, tuple(chain), flags)


def is_trivial(
    d: GridDiagram,
    limits: SearchLimits | None = None,
    include_rotations: bool = True,
    want_witness: bool = True,
    check_exterior_requirement: bool = False,
) -> SearchReport:
    """Decide whether a knot diagram represents the trivial knot.

    The search graph never increases grid size, and every trivial knot
    diagram admits a monotone path to the 2x2 diagram, so TRIVIAL and
    NOT_TRIVIAL are both exact answers; LIMIT_EXCEEDED is reported as a
    distinct third outcome and never silently collapsed into NOT_TRIVIAL.

    include_rotations=False replicates the strict merge/exchange-only move
    set; it never changes the verdict, only witness shapes and search size.
    check_exterior_requirement=True reruns a TRIVIAL search without exterior
    exchanges and rotations and reports in exterior_required whether it
    fails (None when it hits its limits); see needs_exterior.

    With want_witness=False and rotations allowed, the search runs over
    torus orbits (see the module docstring), and states_visited counts the
    keys it stored: the diagrams reached, one per dihedral class, plus the
    torus orbits expanded.  Otherwise it counts the dihedral classes
    reached.  Either way it is the count that max_states caps.
    """
    if component_count(d) != 1:
        raise NotAKnotError(f"diagram has {component_count(d)} components")
    limits = limits or SearchLimits()
    if include_rotations and not want_witness:
        verdict, visited = _torus_search(d, limits)
        witness = None
    else:
        verdict, visited, witness = _search(
            d, limits, include_rotations, include_exterior_exchange=True, want_witness=want_witness
        )
    exterior_required: bool | None = None
    if check_exterior_requirement and verdict is Verdict.TRIVIAL:
        sub, _, _ = _search(
            d, limits, include_rotations=False, include_exterior_exchange=False, want_witness=False
        )
        if sub is not Verdict.LIMIT_EXCEEDED:
            exterior_required = sub is Verdict.NOT_TRIVIAL
    return SearchReport(verdict, visited, witness, exterior_required)


def needs_exterior(d: GridDiagram, limits: SearchLimits | None = None) -> bool:
    """True iff every monotone simplification of d uses an exterior exchange.

    The answer is `is_trivial`'s exterior requirement: the search rerun
    without exterior exchanges and without rotations (a rotation followed
    by an interior exchange imitates an exterior exchange).  Raises
    NotTrivialInputError on nontrivial knots and LimitExceededError when
    either search hits its limits.
    """
    report = is_trivial(d, limits, want_witness=False, check_exterior_requirement=True)
    if report.verdict is Verdict.NOT_TRIVIAL:
        raise NotTrivialInputError("diagram is not a trivial knot")
    if report.verdict is Verdict.LIMIT_EXCEEDED or report.exterior_required is None:
        raise LimitExceededError("search hit its limits")
    return report.exterior_required


def replay_witness(w: SimplificationWitness) -> GridDiagram:
    """Re-apply the witness mechanically; checks monotonicity and the target."""
    d = w.start
    for m in w.moves:
        if m.kind is mv.MoveKind.DIVIDE:
            raise mv.InapplicableMoveError("witness contains a divide move")
        before_n = d.n
        d = mv.apply(d, m)
        if d.n > before_n:
            raise mv.InapplicableMoveError("witness move increased grid size")
    if d != trivial_diagram():
        raise mv.InapplicableMoveError("witness does not end at the 2x2 diagram")
    return d


_SCRAMBLE_GROW = 0.4
_SCRAMBLE_EXCHANGE = 0.8  # of the remaining mass; rest is rotations


def scramble(seed: int, steps: int) -> GridDiagram:
    """A pseudorandom trivial-knot diagram: `steps` random divides,
    exchanges and rotations applied to the 2x2 diagram.

    Divides are drawn with probability 0.4 per step so the expected grid
    size stays moderate; the output is reproducible for a fixed seed.
    """
    rng = random.Random(seed)
    d = trivial_diagram()
    for _ in range(steps):
        r = rng.random()
        if r < _SCRAMBLE_GROW:
            choice = rng.choice(mv.all_divides(d))
        else:
            exchanges = [
                m
                for m in mv.available_moves(d)
                if m.kind in (mv.MoveKind.INTERIOR_EXCHANGE, mv.MoveKind.EXTERIOR_EXCHANGE)
            ]
            if exchanges and (r - _SCRAMBLE_GROW) / (1 - _SCRAMBLE_GROW) < _SCRAMBLE_EXCHANGE:
                choice = rng.choice(exchanges)
            else:
                choice = rng.choice(mv.ROTATIONS)
        d = mv.apply(d, choice)
    return d
