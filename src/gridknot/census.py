"""Exhaustive grid-diagram censuses with symmetry reduction and pruning.

The enumerator walks columns left to right, tracking row usage.  The
"stuck" filter (no merges and no interior exchanges available) is applied
during construction: any column creating an edge of length 1 or n-1, or a
non-interleaved adjacent pair, kills the whole subtree.  Diagrams are
counted raw; one canonical representative per dihedral orbit is emitted
(a diagram is emitted exactly when it equals its own canonical form), so
parallel workers need no shared state.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from . import moves as mv
from .grid import (
    GridDiagram,
    GridError,
    SizeError,
    canonical_form,
    canonical_key,
    component_count,
    crossings,
    grid_cycles,
    length_stats,
)
from .simplify import (
    LimitExceededError,
    NotAKnotError,
    SearchLimits,
    Verdict,
    is_trivial,
    needs_exterior,
)


class CheckpointMismatchError(GridError):
    """A census checkpoint was written for another size or filter."""


@dataclass(frozen=True, slots=True)
class CensusFilter:
    """Predicate bundle for the enumerator.

    stuck_only prunes to diagrams with no edge of length 1 or n-1 and every
    adjacent parallel pair interleaved (equivalently: no merge and no
    interior exchange is available).  extremes_interleaved_cols additionally
    requires columns 1 and n to be interleaved (blocks the exterior vertical
    exchange); extremes_unlocked_rows requires rows 1 and n to be nested or
    disjoint (admits the exterior horizontal exchange).
    """

    knots_only: bool = False
    stuck_only: bool = False
    trivial_only: bool = False
    extremes_interleaved_cols: bool = False
    extremes_unlocked_rows: bool = False


@dataclass(slots=True)
class CensusResult:
    n: int
    raw_count: int = 0
    orbit_count: int = 0
    knot_count: int = 0
    stuck_count: int = 0
    trivial_stuck_count: int = 0
    representatives: list[GridDiagram] = field(default_factory=list)
    elapsed_s: float = 0.0
    workers: int = 1

    def summary(self) -> dict:
        return {
            "n": self.n,
            "raw_count": self.raw_count,
            "orbit_count": self.orbit_count,
            "stuck_count": self.stuck_count,
            "trivial_stuck_count": self.trivial_stuck_count,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _all_spans(n: int, forbid_lengths: frozenset[int]) -> list[tuple[int, int]]:
    return [
        (lo, hi)
        for lo in range(1, n)
        for hi in range(lo + 1, n + 1)
        if hi - lo not in forbid_lengths
    ]


def _interleaved_strict(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return mv.interleaved(a, b) is mv.Interleaving.INTERLEAVED


def _dfs(
    n: int,
    filt: CensusFilter,
    first_span: tuple[int, int] | None,
    visit: Callable[[GridDiagram], None],
) -> int:
    """Enumerate all valid diagrams (restricted to a first-column subtree if
    given), calling `visit` on each.  Returns the number visited."""
    forbid = frozenset({1, n - 1}) if filt.stuck_only else frozenset()
    spans = _all_spans(n, forbid)
    if first_span is not None and first_span not in spans:
        return 0
    usage = [0] * (n + 1)
    row_cols: list[list[int]] = [[] for _ in range(n + 1)]
    chosen: list[tuple[int, int]] = []
    count = 0

    def row_ok(j: int) -> bool:
        a, b = row_cols[j]
        length = abs(b - a)
        if filt.stuck_only and (length == 1 or length == n - 1):
            return False
        span_j = (a, b) if a < b else (b, a)
        for k in (j - 1, j + 1):
            if filt.stuck_only and 1 <= k <= n and len(row_cols[k]) == 2:
                ka, kb = row_cols[k]
                span_k = (ka, kb) if ka < kb else (kb, ka)
                if not _interleaved_strict(span_j, span_k):
                    return False
        return True

    def rows_1n_ok() -> bool:
        if not filt.extremes_unlocked_rows:
            return True
        a, b = row_cols[1]
        c, d = row_cols[n]
        rel = mv.interleaved((min(a, b), max(a, b)), (min(c, d), max(c, d)))
        return rel in (mv.Interleaving.NESTED, mv.Interleaving.DISJOINT)

    def place(i: int) -> None:
        nonlocal count
        if i > n:
            if not rows_1n_ok():
                return
            count += 1
            visit(GridDiagram(n, tuple(chosen)))
            return
        candidates = spans if not (i == 1 and first_span) else [first_span]
        for lo, hi in candidates:
            if usage[lo] >= 2 or usage[hi] >= 2:
                continue
            if filt.stuck_only and i >= 2 and not _interleaved_strict(chosen[-1], (lo, hi)):
                continue
            if filt.extremes_interleaved_cols and i == n and not _interleaved_strict(
                chosen[0], (lo, hi)
            ):
                continue
            usage[lo] += 1
            usage[hi] += 1
            row_cols[lo].append(i)
            row_cols[hi].append(i)
            ok = True
            for j in (lo, hi):
                if usage[j] == 2 and not row_ok(j):
                    ok = False
                    break
            if ok:
                chosen.append((lo, hi))
                place(i + 1)
                chosen.pop()
            usage[lo] -= 1
            usage[hi] -= 1
            row_cols[lo].pop()
            row_cols[hi].pop()

    place(1)
    return count


def _is_minimal_rep(d: GridDiagram) -> bool:
    return canonical_key(d)[1:] == bytes(b for span in d.columns for b in span)


def _worker_task(args: tuple) -> dict:
    n, filt, first_span = args
    tallies = {"raw": 0, "reps": []}

    def visit(d: GridDiagram) -> None:
        tallies["raw"] += 1
        if _is_minimal_rep(d):
            tallies["reps"].append(d.columns)

    _dfs(n, filt, first_span, visit)
    return tallies


def enumerate_diagrams(
    n: int,
    filt: CensusFilter | None = None,
    jobs: int = 1,
    checkpoint: str | None = None,
    limits: SearchLimits | None = None,
    sink: Callable[[GridDiagram], None] | None = None,
) -> CensusResult:
    """Census at size n.  Exactly one canonical representative per orbit is
    kept (and handed to `sink`, when given, in sorted order); raw counts
    cover every diagram enumerated.

    Knot and triviality filters are decided once per orbit on the canonical
    representative (both are orbit invariants) and raw counts for them are
    reconstructed from recorded orbit sizes.
    """
    if not isinstance(n, int) or n < 2:
        raise SizeError(f"census size must be an integer >= 2, got {n!r}")
    filt = filt or CensusFilter()
    start_time = time.monotonic()
    forbid = frozenset({1, n - 1}) if filt.stuck_only else frozenset()
    tasks = [(n, filt, span) for span in _all_spans(n, forbid)]

    filt_obj = dataclasses.asdict(filt)
    done_spans: set[tuple[int, int]] = set()
    raw = 0
    rep_cols: list[tuple] = []
    if checkpoint and os.path.exists(checkpoint):
        with open(checkpoint) as fh:
            state = json.load(fh)
        if state.get("n") != n or state.get("filter") != filt_obj:
            raise CheckpointMismatchError(
                f"checkpoint {checkpoint} was written for n={state.get('n')!r}, "
                f"filter {state.get('filter')!r}; this run has n={n}, filter {filt_obj!r}"
            )
        done_spans = {tuple(s) for s in state["done"]}
        raw = state["raw"]
        rep_cols = [tuple(tuple(p) for p in cols) for cols in state["reps"]]
    pending = [t for t in tasks if t[2] not in done_spans]

    def save_checkpoint() -> None:
        if not checkpoint:
            return
        state = {
            "n": n,
            "filter": filt_obj,
            "done": sorted(done_spans),
            "raw": raw,
            "reps": [[list(p) for p in cols] for cols in rep_cols],
        }
        tmp = checkpoint + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(state, fh)
        os.replace(tmp, checkpoint)

    if jobs > 1 and len(pending) > 1:
        with multiprocessing.Pool(jobs) as pool:
            for task, tall in zip(pending, pool.imap(_worker_task, pending)):
                raw += tall["raw"]
                rep_cols.extend(tall["reps"])
                done_spans.add(task[2])
                save_checkpoint()
        workers = jobs
    else:
        for task in pending:
            tall = _worker_task(task)
            raw += tall["raw"]
            rep_cols.extend(tall["reps"])
            done_spans.add(task[2])
            save_checkpoint()
        workers = 1

    reps = [GridDiagram(n, cols) for cols in sorted(rep_cols)]
    result = CensusResult(n=n, raw_count=raw, workers=workers)

    kept: list[GridDiagram] = []
    for d in reps:
        orbit = canonical_form(d).orbit_size
        is_knot = component_count(d) == 1
        if is_knot:
            result.knot_count += orbit
        if filt.knots_only and not is_knot:
            continue
        if filt.stuck_only:
            result.stuck_count += orbit if is_knot else 0
        if filt.trivial_only:
            if not is_knot:
                continue
            if knot_determinant(d) != 1:
                continue
            rep_verdict = is_trivial(d, limits, want_witness=False).verdict
            if rep_verdict is Verdict.LIMIT_EXCEEDED:
                raise LimitExceededError(f"triviality search exceeded limits at {d}")
            if rep_verdict is not Verdict.TRIVIAL:
                continue
            if filt.stuck_only:
                result.trivial_stuck_count += orbit
        kept.append(d)
        if sink is not None:
            sink(d)
    result.representatives = kept
    result.orbit_count = len(kept)
    result.elapsed_s = time.monotonic() - start_time
    return result


# --- knot determinant --------------------------------------------------------


def _knot_passages(d: GridDiagram) -> list[tuple[tuple[int, int], bool]]:
    """Crossing passages ((column, row), is_over) in knot traversal order."""
    cycles = grid_cycles(d)
    if len(cycles) != 1:
        raise NotAKnotError("determinant requires a single-component diagram")
    cross_on_col: dict[int, list[int]] = {}
    cross_on_row: dict[int, list[int]] = {}
    for c in crossings(d):
        cross_on_col.setdefault(c.column, []).append(c.row)
        cross_on_row.setdefault(c.row, []).append(c.column)
    passages: list[tuple[tuple[int, int], bool]] = []
    # every crossing on an edge lies strictly between the edge's endpoints
    for kind, line, start, end in cycles[0]:
        if kind == "v":
            on = sorted(cross_on_col.get(line, []), reverse=end < start)
            passages.extend(((line, j), True) for j in on)
        else:
            on = sorted(cross_on_row.get(line, []), reverse=end < start)
            passages.extend(((i, line), False) for i in on)
    return passages


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant over the integers."""
    size = len(m)
    if size == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, size):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[size - 1][size - 1]


def knot_determinant(d: GridDiagram) -> int:
    """|Delta(-1)| via the arc coloring matrix; 1 is necessary (not
    sufficient) for the trivial knot."""
    passages = _knot_passages(d)
    k = len(passages) // 2
    if k == 0:
        return 1
    under_positions = [p for p, (_, over) in enumerate(passages) if not over]
    arc_of_position: dict[int, int] = {}
    for p in range(len(passages)):
        # the arc ends at the next under-passage at or after p (cyclically)
        lo_idx = 0
        while lo_idx < k and under_positions[lo_idx] < p:
            lo_idx += 1
        arc_of_position[p] = lo_idx % k
    over_arc: dict[tuple[int, int], int] = {}
    under_in: dict[tuple[int, int], int] = {}
    under_out: dict[tuple[int, int], int] = {}
    for p, (cid, over) in enumerate(passages):
        if over:
            over_arc[cid] = arc_of_position[p]
        else:
            t = arc_of_position[p]
            under_in[cid] = t
            under_out[cid] = (t + 1) % k
    matrix = [[0] * k for _ in range(k)]
    for r, cid in enumerate(sorted(over_arc)):
        matrix[r][over_arc[cid]] += 2
        matrix[r][under_in[cid]] -= 1
        matrix[r][under_out[cid]] -= 1
    minor = [row[: k - 1] for row in matrix[: k - 1]]
    return abs(_bareiss_det(minor))


# --- headline census checks --------------------------------------------------


def max_stats(n: int) -> tuple[int, int]:
    """Exact maxima of (crossing count, total length) by exhaustive scan."""
    if not isinstance(n, int) or not 2 <= n <= 6:
        raise SizeError(f"full-enumeration maxima supported for 2 <= n <= 6, got {n!r}")
    best = [0, 0]

    def visit(d: GridDiagram) -> None:
        st = length_stats(d)
        if st.crossing_count > best[0]:
            best[0] = st.crossing_count
        if st.total_all > best[1]:
            best[1] = st.total_all

    _dfs(n, CensusFilter(), None, visit)
    return best[0], best[1]


@dataclass(slots=True)
class StuckCensusReport:
    n: int
    stuck_knot_orbits: int
    trivial_orbits: list[GridDiagram]
    trivial_raw_count: int
    all_admit_both_exterior_exchanges: bool
    all_need_exterior: bool
    elapsed_s: float

    def summary(self) -> dict:
        return {
            "n": self.n,
            "stuck_knot_orbits": self.stuck_knot_orbits,
            "trivial_stuck_orbits": len(self.trivial_orbits),
            "trivial_stuck_raw": self.trivial_raw_count,
            "all_admit_both_exterior_exchanges": self.all_admit_both_exterior_exchanges,
            "all_need_exterior": self.all_need_exterior,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def verify_stuck_census(
    n: int, jobs: int = 1, limits: SearchLimits | None = None, checkpoint: str | None = None
) -> StuckCensusReport:
    """Census of stuck knot diagrams at size n with triviality analysis.

    For n <= 7 the expected outcome is an empty trivial set; at n = 8 the
    set is nonempty and every member admits both exterior exchanges and
    cannot be simplified without one.
    """
    start = time.monotonic()
    filt = CensusFilter(knots_only=True, stuck_only=True)
    res = enumerate_diagrams(n, filt, jobs=jobs, checkpoint=checkpoint, limits=limits)
    trivial: list[GridDiagram] = []
    trivial_raw = 0
    both_exchanges = True
    all_need = True
    for d in res.representatives:
        if knot_determinant(d) != 1:
            continue
        report = is_trivial(d, limits, want_witness=False)
        if report.verdict is Verdict.LIMIT_EXCEEDED:
            raise LimitExceededError(f"triviality search exceeded limits at {d}")
        if report.verdict is not Verdict.TRIVIAL:
            continue
        trivial.append(d)
        trivial_raw += canonical_form(d).orbit_size
        axes = {
            m.axis
            for m in mv.available_moves(d)
            if m.kind is mv.MoveKind.EXTERIOR_EXCHANGE
        }
        if axes != {mv.Axis.HORIZONTAL, mv.Axis.VERTICAL}:
            both_exchanges = False
        if not needs_exterior(d, limits):
            all_need = False
    return StuckCensusReport(
        n=n,
        stuck_knot_orbits=sum(1 for d in res.representatives),
        trivial_orbits=trivial,
        trivial_raw_count=trivial_raw,
        all_admit_both_exterior_exchanges=both_exchanges,
        all_need_exterior=all_need,
        elapsed_s=time.monotonic() - start,
    )


def find_only_exterior_horizontal(
    n: int = 9, jobs: int = 1, limits: SearchLimits | None = None, checkpoint: str | None = None
) -> GridDiagram | None:
    """Search for a trivial knot diagram admitting no merge, no vertical
    exchange at all, no interior horizontal exchange, and admitting the
    exterior horizontal exchange.  Stretch-scale; returns one if found."""
    filt = CensusFilter(
        knots_only=True,
        stuck_only=True,
        extremes_interleaved_cols=True,
        extremes_unlocked_rows=True,
    )
    res = enumerate_diagrams(n, filt, jobs=jobs, checkpoint=checkpoint, limits=limits)
    for d in res.representatives:
        if knot_determinant(d) != 1:
            continue
        report = is_trivial(d, limits, want_witness=False)
        if report.verdict is Verdict.LIMIT_EXCEEDED:
            raise LimitExceededError(f"triviality search exceeded limits at {d}")
        if report.verdict is Verdict.TRIVIAL:
            return d
    return None
