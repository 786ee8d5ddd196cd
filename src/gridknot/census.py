"""Exhaustive grid-diagram censuses with symmetry reduction and pruning.

The enumerator walks columns left to right from precomputed tables: the
allowed spans, and for each span the spans the next column may take.  Each
row keeps the column of its first use and, once used twice, its span.  The
"stuck" filter (no merges and no interior exchanges available) is applied
during construction: a column or row of length 1 or n-1, or two adjacent
columns or rows that are not strictly interleaved, kills the whole subtree.
When row r closes with span (a, i), each neighbour row r +- 1 is checked at
once: a closed one must interleave with (a, i); an unused one (its span
starts after i) or one open since before column a (its span contains
(a, i)) never can, so the subtree is cut before the neighbour is placed.
Sentinel rows 0 and n+1 pass the check.

Work is split by first-column span.  Every census filter is invariant under
flip_y, which maps the subtree of first span (lo, hi) one-to-one onto that
of (n+1-hi, n+1-lo).  So only first spans with lo + hi <= n + 1 are
enumerated, and a subtree with lo + hi < n + 1 is credited twice its raw
count for its mirror.  No canonical representative starts with
lo + hi > n + 1, since its flip_y image is smaller at column 1; one
representative per dihedral orbit is emitted, exactly when a diagram
equals its own canonical form, so parallel workers need no shared state and
any job count gives the same result.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from . import moves as mv
from .grid import (
    SYMMETRIES,
    GridDiagram,
    GridError,
    SizeError,
    Span,
    apply_symmetry,
    canonical_form,
    canonical_key,
    component_count,
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

CHECKPOINT_VERSION = 2


class CheckpointMismatchError(GridError):
    """A census checkpoint was written for another size, filter or format."""


@dataclass(frozen=True, slots=True)
class CensusFilter:
    """Predicate bundle for the enumerator.

    stuck_only prunes to diagrams with no edge of length 1 or n-1 and every
    adjacent parallel pair interleaved (equivalently: no merge and no
    interior exchange is available).  knots_only and trivial_only are
    decided once per orbit on its representative.
    """

    knots_only: bool = False
    stuck_only: bool = False
    trivial_only: bool = False


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


@functools.cache
def _tables(
    n: int, stuck: bool
) -> tuple[list[Span], dict[Span, list[Span]], dict[Span, frozenset[Span]]]:
    """The allowed spans, each span's successors (the spans the next column
    may take) and the set of spans strictly interleaved with each span."""
    forbid = (1, n - 1) if stuck else ()
    spans = [(lo, hi) for lo in range(1, n) for hi in range(lo + 1, n + 1) if hi - lo not in forbid]
    crossed = {
        (a, b): frozenset((c, d) for c, d in spans if a < c < b < d or c < a < d < b)
        for a, b in spans
    }
    succ = {s: [t for t in spans if t in crossed[s]] if stuck else spans for s in spans}
    return spans, succ, crossed


def _subtree(n: int, stuck: bool, first_span: Span, visit: Callable[[GridDiagram], None]) -> int:
    """Call `visit` on every diagram whose first column is first_span; return
    how many there were."""
    _, succ, crossed = _tables(n, stuck)
    first = [0] * (n + 2)  # column of each row's first use, 0 while unused
    first[0] = first[n + 1] = n + 1  # sentinels: never below a row's first use
    closed: list[Span | None] = [None] * (n + 2)  # row span once used twice
    chosen: list[Span] = []
    count = 0

    def close(r: int, i: int) -> bool:
        """Second use of row r, at column i; record its span if allowed."""
        a = first[r]
        if stuck:
            if i - a == 1 or i - a == n - 1:
                return False
            near = crossed[(a, i)]
            for s in (r - 1, r + 1):
                span = closed[s]
                if span is None:
                    # an unused row opens after column i, and a row open
                    # since before column a closes after i: neither span
                    # can interleave with (a, i)
                    if first[s] < a:
                        return False
                elif span not in near:
                    return False
        closed[r] = (a, i)
        return True

    def place(i: int, candidates: list[Span]) -> None:
        nonlocal count
        if i > n:
            count += 1
            visit(GridDiagram(n, tuple(chosen)))
            return
        for span in candidates:
            lo, hi = span
            if closed[lo] or closed[hi]:
                continue
            open_lo = not first[lo]
            if open_lo:
                first[lo] = i
            elif not close(lo, i):
                continue
            open_hi = not first[hi]
            if open_hi:
                first[hi] = i
            if open_hi or close(hi, i):
                chosen.append(span)
                place(i + 1, succ[span])
                chosen.pop()
                if open_hi:
                    first[hi] = 0
                else:
                    closed[hi] = None
            if open_lo:
                first[lo] = 0
            else:
                closed[lo] = None

    place(1, [first_span])
    return count


def _first_spans(n: int, stuck: bool) -> list[Span]:
    """First-column spans with lo + hi <= n + 1; the others are their mirrors."""
    return [(lo, hi) for lo, hi in _tables(n, stuck)[0] if lo + hi <= n + 1]


def _is_minimal_rep(d: GridDiagram) -> bool:
    return canonical_key(d)[1:] == bytes(b for span in d.columns for b in span)


def _worker_task(args: tuple) -> dict:
    n, filt, first_span = args
    tallies = {"raw": 0, "reps": []}

    def visit(d: GridDiagram) -> None:
        if _is_minimal_rep(d):
            tallies["reps"].append(d.columns)

    tallies["raw"] = _subtree(n, filt.stuck_only, first_span, visit)
    return tallies


def enumerate_diagrams(
    n: int,
    filt: CensusFilter | None = None,
    jobs: int = 1,
    checkpoint: str | None = None,
    limits: SearchLimits | None = None,
) -> CensusResult:
    """Census at size n.  Exactly one canonical representative per orbit is
    kept, in sorted order; raw counts cover every diagram enumerated.

    Knot and triviality filters are decided once per orbit on the canonical
    representative (both are orbit invariants) and raw counts for them are
    reconstructed from recorded orbit sizes.
    """
    if not isinstance(n, int) or n < 2:
        raise SizeError(f"census size must be an integer >= 2, got {n!r}")
    filt = filt or CensusFilter()
    start_time = time.monotonic()
    tasks = [(n, filt, span) for span in _first_spans(n, filt.stuck_only)]

    filt_obj = dataclasses.asdict(filt)
    done_spans: set[tuple[int, int]] = set()
    raw = 0
    rep_cols: list[tuple] = []
    if checkpoint and os.path.exists(checkpoint):
        with open(checkpoint) as fh:
            state = json.load(fh)
        written = (state.get("version"), state.get("n"), state.get("filter"))
        if written != (CHECKPOINT_VERSION, n, filt_obj):
            raise CheckpointMismatchError(
                f"checkpoint {checkpoint} was written as version {written[0]!r} for "
                f"n={written[1]!r}, filter {written[2]!r}; this run writes version "
                f"{CHECKPOINT_VERSION} for n={n}, filter {filt_obj!r}"
            )
        done_spans = {tuple(s) for s in state["done"]}
        raw = state["raw"]
        rep_cols = [tuple(tuple(p) for p in cols) for cols in state["reps"]]
    pending = [t for t in tasks if t[2] not in done_spans]

    def record(task: tuple, tall: dict) -> None:
        """Credit one finished subtree, and its mirror's raw count."""
        nonlocal raw
        lo, hi = task[2]
        raw += tall["raw"] if lo + hi == n + 1 else 2 * tall["raw"]
        rep_cols.extend(tall["reps"])
        done_spans.add(task[2])
        if not checkpoint:
            return
        state = {
            "version": CHECKPOINT_VERSION,
            "n": n,
            "filter": filt_obj,
            "done": sorted(done_spans),
            "raw": raw,
            "reps": [[list(p) for p in cols] for cols in rep_cols],
        }
        tmp = checkpoint + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(json.dumps(state))
        os.replace(tmp, checkpoint)

    if jobs > 1 and len(pending) > 1:
        with multiprocessing.Pool(jobs) as pool:
            for task, tall in zip(pending, pool.imap(_worker_task, pending)):
                record(task, tall)
        workers = jobs
    else:
        for task in pending:
            record(task, _worker_task(task))
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
            if not is_knot or not _proves_trivial(d, limits):
                continue
            if filt.stuck_only:
                result.trivial_stuck_count += orbit
        kept.append(d)
    result.representatives = kept
    result.orbit_count = len(kept)
    result.elapsed_s = time.monotonic() - start_time
    return result


# --- knot determinant --------------------------------------------------------


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
    """|Delta(-1)| of the knot d; 1 is necessary (not sufficient) for the
    trivial knot.

    Manolescu, Ozsvath and Sarkar (A combinatorial description of knot Floer
    homology, arXiv:math/0607691): over the n x n lattice points p of a grid,
    det(t^(-a(p))) = +-t^k (1-t)^(n-1) Delta(t), where a(p) is the winding
    number of the knot around p.  The lattice point (x + 1/2, y + 1/2), for
    x, y = 0..n-1, has a(p) odd exactly when an odd number of columns
    c >= x + 1 have lo_c <= y < hi_c.  At t = -1 the matrix is +-1, and
    |Delta(-1)| = |det| / 2^(n-1).
    """
    if component_count(d) != 1:
        raise NotAKnotError("determinant requires a single-component diagram")
    matrix = []
    for y in range(d.n):
        row, sign = [], 1
        for lo, hi in reversed(d.columns):
            if lo <= y < hi:
                sign = -sign
            row.append(sign)
        matrix.append(row[::-1])
    det, rest = divmod(abs(_bareiss_det(matrix)), 2 ** (d.n - 1))
    if rest:
        raise ArithmeticError(f"winding determinant of {d} is not divisible by 2^(n-1)")
    return det


def _proves_trivial(d: GridDiagram, limits: SearchLimits | None) -> bool:
    """Whether the knot d is trivial; a determinant other than 1 settles it
    without a search."""
    if knot_determinant(d) != 1:
        return False
    verdict = is_trivial(d, limits, want_witness=False).verdict
    if verdict is Verdict.LIMIT_EXCEEDED:
        raise LimitExceededError(f"triviality search exceeded limits at {d}")
    return verdict is Verdict.TRIVIAL


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

    # both statistics are flip_y invariant, so the mirror cut loses no maximum
    for span in _first_spans(n, False):
        _subtree(n, False, span, visit)
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
        if not _proves_trivial(d, limits):
            continue
        trivial.append(d)
        trivial_raw += canonical_form(d).orbit_size
        if _exterior_axes(d) != {mv.Axis.HORIZONTAL, mv.Axis.VERTICAL}:
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


def _exterior_axes(d: GridDiagram) -> set[mv.Axis]:
    return {m.axis for m in mv.available_moves(d) if m.kind is mv.MoveKind.EXTERIOR_EXCHANGE}


def _only_exterior_horizontal_image(d: GridDiagram) -> GridDiagram | None:
    """The first of d's eight images, in SYMMETRIES order, whose only exterior
    exchange is the horizontal one, or None."""
    images = (apply_symmetry(d, sym) for sym in SYMMETRIES)
    return next((im for im in images if _exterior_axes(im) == {mv.Axis.HORIZONTAL}), None)


def find_only_exterior_horizontal(
    n: int = 9, jobs: int = 1, limits: SearchLimits | None = None, checkpoint: str | None = None
) -> GridDiagram | None:
    """Search for a trivial knot diagram admitting no merge, no vertical
    exchange at all, no interior horizontal exchange, and admitting the
    exterior horizontal exchange.  Which exterior exchanges a diagram admits
    depends on its image, so every image of each stuck knot orbit is tried;
    returns the first that qualifies, or None."""
    filt = CensusFilter(knots_only=True, stuck_only=True)
    res = enumerate_diagrams(n, filt, jobs=jobs, checkpoint=checkpoint, limits=limits)
    for d in res.representatives:
        image = _only_exterior_horizontal_image(d)
        if image is not None and _proves_trivial(image, limits):
            return image
    return None
