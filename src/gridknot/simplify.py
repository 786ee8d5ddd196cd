"""Unknot recognition by exhaustive monotone search.

From any knot diagram, a search over merges and exchanges (never divides,
so grid size never increases) either reaches the 2x2 diagram, proving the
knot trivial, or exhausts the reachable state space.  States are expanded
smallest grid first (first generated first within a size), which reaches
the 2x2 diagram far sooner than move-count order.  States are deduplicated
by their canonical key under the eight square symmetries.

Rotations are not arcs: a rotation is a cyclic shift, and every merge or
exchange of a rotated diagram is an interior or exterior merge or exchange
of the unrotated one with a result equal up to cyclic shifts.  The 2x2
diagram is alone among its cyclic shifts, so a search with exterior
exchanges reaches it exactly when a search with rotation arcs does
(Dynnikov, arXiv:math/0208153, treats cyclic shifts as free as well).  The
restricted search behind `exterior_required` has no exterior exchanges and
no rotations, because a rotation and an interior exchange imitate an
exterior exchange.

There is one search.  Its heap holds arcs, not states: a child is built
and keyed only when its arc is popped, so the children of a state that is
never expanded cost nothing.  A search that builds a replayable witness
records each state's parent and move; the witness is a valid path, not
necessarily a shortest one.  A verdict-only search with exterior exchanges
works on the torus: it expands one diagram per torus orbit
(`grid.torus_key`), the orbit's least image, since the reachable orbits and
so the verdict do not depend on which member is expanded.
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


# Per-key footprint for the MB cap: the tracemalloc peak of a fresh process
# running is_trivial(want_witness=True) on the 8-grid trefoil
# 4-5 2-7 4-8 1-7 6-8 2-6 3-5 1-3 capped at 10,000 stored keys, over those
# keys (Python 3.11).  That search keeps a parent key and a move per key, so
# it is the larger of the two modes: the verdict-only search peaks at 173 B
# per stored key when it exhausts the same knot (9,313 keys).  A fresh
# process also leaves up to about 0.4 MB of canonical_key's span tuples on
# the interpreter's tuple free lists, which tracemalloc counts as allocated;
# that part is held once per process, not per search, so below about 0.5 MB
# it dominates the peak of a first search.
_STATE_BYTES_ESTIMATE = 319


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

    @property
    def uses_exterior(self) -> tuple[bool, ...]:
        """Per move, whether it is an exterior exchange."""
        return tuple(m.kind is mv.MoveKind.EXTERIOR_EXCHANGE for m in self.moves)

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


_MERGES = (mv.MoveKind.INTERIOR_MERGE, mv.MoveKind.EXTERIOR_MERGE)


def _search(
    start: GridDiagram,
    limits: SearchLimits,
    include_exterior_exchange: bool,
    want_witness: bool,
) -> tuple[Verdict, int, SimplificationWitness | None]:
    """Best-first reachability search for the 2x2 diagram (module docstring).

    A heap entry is an arc (child size, counter, parent key, parent diagram,
    move).  Counters follow the order in which arcs are generated, and all
    arcs to a state share its size, so the first arc popped to a state is
    the first one generated: states are stored in the order, and with the
    parent and move, that building each child when it is generated would
    give.  The 2x2 diagram is the only 2-grid, so an arc to it is popped
    right after it is pushed.  The count returned, and charged against
    max_states, is the number of keys stored: the states popped, plus the
    torus orbits expanded.
    """
    target = canonical_key(trivial_diagram())
    torus = include_exterior_exchange and not want_witness
    skip = (mv.MoveKind.ROTATION,)
    if not include_exterior_exchange:
        skip += (mv.MoveKind.EXTERIOR_EXCHANGE,)
    deadline = None if limits.max_seconds is None else time.monotonic() + limits.max_seconds

    # key -> (parent key, move from parent) when a witness is wanted, else None
    stored: dict[bytes, tuple[bytes | None, mv.CromwellMove | None] | None] = {}
    orbits: set[bytes] = set()
    visited = 0
    # the start is an arc from no parent
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
        stored[key] = (parent_key, m) if want_witness else None
        visited += 1
        if key == target:
            witness = _build_witness(stored, start, key) if want_witness else None
            return Verdict.TRIVIAL, visited, witness
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


def _build_witness(parents, start: GridDiagram, end_key: bytes) -> SimplificationWitness:
    chain: list[mv.CromwellMove] = []
    parent_key, move = parents[end_key]
    while parent_key is not None:
        chain.append(move)
        parent_key, move = parents[parent_key]
    chain.reverse()
    return SimplificationWitness(start, tuple(chain))


def is_trivial(
    d: GridDiagram,
    limits: SearchLimits | None = None,
    want_witness: bool = True,
    check_exterior_requirement: bool = False,
) -> SearchReport:
    """Decide whether a knot diagram represents the trivial knot.

    The search graph never increases grid size, and every trivial knot
    diagram admits a monotone path to the 2x2 diagram, so TRIVIAL and
    NOT_TRIVIAL are both exact answers; LIMIT_EXCEEDED is reported as a
    distinct third outcome and never silently collapsed into NOT_TRIVIAL.

    The search takes merges and exchanges, never rotation arcs (see the
    module docstring).  check_exterior_requirement=True reruns a TRIVIAL
    search without exterior exchanges and reports in exterior_required
    whether it fails (None when it hits its limits); see needs_exterior.

    states_visited counts the keys the search stored, which is the count
    that max_states caps: the states it reached, one per dihedral class,
    plus, with want_witness=False, the torus orbits it expanded.
    """
    if component_count(d) != 1:
        raise NotAKnotError(f"diagram has {component_count(d)} components")
    limits = limits or SearchLimits()
    verdict, visited, witness = _search(
        d, limits, include_exterior_exchange=True, want_witness=want_witness
    )
    exterior_required: bool | None = None
    if check_exterior_requirement and verdict is Verdict.TRIVIAL:
        sub, _, _ = _search(d, limits, include_exterior_exchange=False, want_witness=False)
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
