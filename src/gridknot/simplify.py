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

There is one search.  Its heap holds arc streams, not states: each
expanded state has a stream of its merges and a stream of its exchanges,
and a stream lists its next move only when it is at the top of the heap.
A child is built and keyed only when its move is taken, so a search that
merges its way down never lists an exchange, and the children of a state
that is never expanded cost nothing.  Each state's row spans are derived
once and serve its key, its torus key, its streams and the moves applied
to it.  A search that builds a replayable witness records each state's
parent and move; the witness is a valid path, not necessarily a shortest
one.  A verdict-only search with exterior exchanges works on the torus: it
expands one diagram per torus orbit (`grid.torus_key`), the orbit's least
image, since the reachable orbits and so the verdict do not depend on which
member is expanded.
"""

from __future__ import annotations

import functools
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
# keys, rounded up (3,252,188 B, Python 3.11).  That search keeps a parent
# key and a move per key, and the diagram, row spans and arc streams of
# each expanded state whose streams are not drained, so it is the larger
# of the two modes: the verdict-only search peaks at 170 B per stored key
# when it exhausts the same knot (9,313 keys).  A fresh process also
# leaves up to about 0.4 MB of canonical_key's span tuples on the
# interpreter's tuple free lists, which tracemalloc counts as allocated;
# that part is held once per process, not per search, so below about
# 0.5 MB it dominates the peak of a first search.
_STATE_BYTES_ESTIMATE = 326


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


_END = object()
_TARGET = canonical_key(trivial_diagram())


def _search(
    start: GridDiagram,
    limits: SearchLimits,
    include_exterior_exchange: bool,
    want_witness: bool,
) -> tuple[Verdict, int, SimplificationWitness | None]:
    """Best-first reachability search for the 2x2 diagram (module docstring).

    A heap entry is an arc stream (size, expansion, parent, moves), where
    parent = (key, diagram, row spans) is an expanded state.  Each expansion
    pushes two streams: its merges, whose children have size n - 1, and its
    exchanges, whose children have size n.  Until a stream first reaches
    the top of the heap, `moves` is the function that lists them; from then
    on it is the iterator that yields them one at a time.  Expansions are
    numbered in order, so (size, expansion) is unique, and a stream keeps it
    while it yields: it stays at the top until it is drained or the stream
    of a child sorts before it.  Moves therefore come off the heap in the
    order that one heap entry per move, ordered by child size and then by
    generation, would give, and states are stored in that order with the
    same parent and move.  The 2x2 diagram is the only 2-grid, so a stream
    of merges to it is at the top as soon as it is pushed.  The count
    returned, and charged against max_states, is the number of keys stored:
    the states reached, plus the torus orbits expanded.
    """
    torus = include_exterior_exchange and not want_witness
    exchanges = functools.partial(mv.iter_exchanges, exterior=include_exterior_exchange)
    deadline = None if limits.max_seconds is None else time.monotonic() + limits.max_seconds

    # key -> (parent key, move from parent) when a witness is wanted, else None
    stored: dict[bytes, tuple[bytes | None, mv.CromwellMove | None] | None] = {}
    orbits: set[bytes] = set()
    visited = 0
    expansions = 0
    # the start is the one move, None, of a stream from no parent
    heap: list[tuple] = [(start.n, 0, (None, start, None), iter((None,)))]
    while heap:
        if deadline is not None and time.monotonic() > deadline:
            return Verdict.LIMIT_EXCEEDED, visited, None
        size, expansion, parent, moves = heap[0]
        parent_key, d, rows = parent
        if callable(moves):
            moves = moves(d, rows)
            heap[0] = (size, expansion, parent, moves)
        m = next(moves, _END)
        if m is _END:
            heapq.heappop(heap)
            continue
        if m is not None:
            d = mv.apply(d, m, rows)
        rows = d.row_spans()
        key = canonical_key(d, rows)
        if key in stored:
            continue
        stored[key] = (parent_key, m) if want_witness else None
        visited += 1
        if key == _TARGET:
            witness = _build_witness(stored, start, key) if want_witness else None
            return Verdict.TRIVIAL, visited, witness
        if visited >= limits.max_states:
            return Verdict.LIMIT_EXCEEDED, visited, None
        if torus:
            orbit = torus_key(d, rows)
            if orbit in orbits:
                continue
            orbits.add(orbit)
            visited += 1
            if visited >= limits.max_states:
                return Verdict.LIMIT_EXCEEDED, visited, None
            d = from_canonical_key(orbit)
            rows = d.row_spans()
        expansions += 1
        parent = (key, d, rows)
        heapq.heappush(heap, (d.n - 1, expansions, parent, mv.iter_merges))
        heapq.heappush(heap, (d.n, expansions, parent, exchanges))
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
    components = component_count(d)
    if components != 1:
        raise NotAKnotError(f"diagram has {components} components")
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
