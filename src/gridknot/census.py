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

Only canonical representatives, the least of their orbit's eight images,
are built.  The images start with the extreme edges (columns 1 and n, rows 1
and n) or their reflections (a, b) -> (n+1-b, n+1-a), so if column 1 is
(L, H), each extreme edge and its reflection are >= (L, H), and both ends
lie in the window [L, n+1-L].  Rows 1 and n are used only there, the last
column must be such an edge, and a leaf is compared with its seven other
images span by span with an early exit; its orbit size is 8 / (1 + tied
images).  Work is split by first span, lo + hi <= n + 1; subtrees share no
state, so any job count gives the same result.  Every census filter is
invariant under the eight symmetries, so raw counts are orbit-size sums.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from dataclasses import dataclass, field

from . import moves as mv
from .grid import (
    _SYMMETRY_TABLE,
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
    validate,
)
from .simplify import (
    LimitExceededError,
    NotAKnotError,
    SearchLimits,
    Verdict,
    is_trivial,
    needs_exterior,
)

CHECKPOINT_VERSION = 3


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


def _subtree(n: int, stuck: bool, first_span: Span) -> list[tuple[tuple[Span, ...], int]]:
    """(columns, orbit size) of every canonical representative whose first
    column is first_span, in the order of the column tables."""
    spans, succ, crossed = _tables(n, stuck)
    m = n + 1
    low, high = first_span[0], m - first_span[0]  # the extreme-edge window
    # extreme edges: spans that, like their reflections, are >= first_span
    edge = {(a, b) for a, b in spans if (a, b) >= first_span <= (m - b, m - a)}
    inner = {s: [t for t in succ[s] if 1 < t[0] and t[1] < n] for s in spans}
    last = {s: [t for t in succ[s] if t in edge] for s in spans}
    # candidate table for each column: rows 1 and n only inside the window
    table = [last if i == n else succ if low <= i <= high else inner for i in range(n + 2)]
    first = [0] * (n + 2)  # column of each row's first use, 0 while unused
    first[0] = first[n + 1] = n + 1  # sentinels: never below a row's first use
    closed: list[Span | None] = [None] * (n + 2)  # row span once used twice
    chosen: list[Span] = []
    out = []
    # the seven other images, read lazily; an axis swap reads the rows closed[1..n]
    images = [
        (closed if swap else chosen, (n - 1 if rx else 0) + swap, -1 if rx else 1, ry)
        for swap, rx, ry in _SYMMETRY_TABLE.values()
        if swap or rx or ry
    ]

    def orbit() -> int:
        """0 if an image is less than chosen, else 8 / (1 + tied images)."""
        ties = 1
        for seq, at, step, reflect in images:
            for col in chosen:
                lo, hi = seq[at]
                span = (m - hi, m - lo) if reflect else (lo, hi)
                if span != col:
                    if span < col:
                        return 0
                    break
                at += step
            else:
                ties += 1
        return 8 // ties

    def close(r: int, i: int) -> bool:
        """Second use of row r, at column i; record its span if allowed."""
        a = first[r]
        if (r == 1 or r == n) and (a, i) not in edge:
            return False
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
        if i > n:
            size = orbit()
            if size:
                out.append((tuple(chosen), size))
            return
        if i == high + 1 and not (closed[1] and closed[n]):  # rows 1 and n end in the window
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
                place(i + 1, table[i + 1][span])
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
    return out


def _first_spans(n: int, stuck: bool) -> list[Span]:
    """First-column spans with lo + hi <= n + 1, column 1's own window."""
    return [(lo, hi) for lo, hi in _tables(n, stuck)[0] if lo + hi <= n + 1]


def _is_minimal_rep(d: GridDiagram) -> bool:
    return canonical_key(d)[1:] == bytes(b for span in d.columns for b in span)


def _worker_task(args: tuple) -> dict:
    """One first-column subtree: the sum of its orbit sizes, and its
    representatives with their orbit sizes (knots only under knots_only)."""
    n, filt, first_span = args
    reps = _subtree(n, filt.stuck_only, first_span)
    raw = sum(orbit for _, orbit in reps)
    if filt.knots_only:
        reps = [rep for rep in reps if component_count(GridDiagram(n, rep[0])) == 1]
    return {"raw": raw, "reps": reps}


def _resume(checkpoint: str, n: int, filt: CensusFilter) -> tuple[set[Span], int, list[tuple]]:
    """A checkpoint's finished subtrees, raw count and representatives with
    their orbit sizes.  It is refused unless this version wrote it for this
    size and filter, and every stored representative is a canonical size-n
    diagram (a knot under knots_only) from a finished subtree, stored once."""
    with open(checkpoint) as fh:
        state = json.load(fh)
    filt_obj = dataclasses.asdict(filt)
    written = (state.get("version"), state.get("n"), state.get("filter"))
    if written != (CHECKPOINT_VERSION, n, filt_obj):
        raise CheckpointMismatchError(
            f"checkpoint {checkpoint} was written as version {written[0]!r} for "
            f"n={written[1]!r}, filter {written[2]!r}; this run writes version "
            f"{CHECKPOINT_VERSION} for n={n}, filter {filt_obj!r}"
        )
    done = {tuple(s) for s in state["done"]}
    reps = {}
    for d in (validate(n, cols) for cols in state["reps"]):
        knot = not filt.knots_only or component_count(d) == 1
        if d.columns in reps or d.columns[0] not in done or not (knot and _is_minimal_rep(d)):
            raise CheckpointMismatchError(f"{checkpoint} may not hold {d.columns}")
        reps[d.columns] = canonical_form(d).orbit_size
    sums = filt.knots_only or state["raw"] == sum(reps.values())
    if not sums or not done <= set(_first_spans(n, filt.stuck_only)):
        raise CheckpointMismatchError(f"{checkpoint}: the finished subtrees do not add up")
    return done, state["raw"], list(reps.items())


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
    the sums of the carried orbit sizes.
    """
    if not isinstance(n, int) or n < 2:
        raise SizeError(f"census size must be an integer >= 2, got {n!r}")
    filt = filt or CensusFilter()
    start_time = time.monotonic()
    done_spans, raw, rep_cols = set(), 0, []  # rep_cols holds (columns, orbit size)
    if checkpoint and os.path.exists(checkpoint):
        done_spans, raw, rep_cols = _resume(checkpoint, n, filt)
    pending = [(n, filt, s) for s in _first_spans(n, filt.stuck_only) if s not in done_spans]

    def record(task: tuple, tall: dict) -> None:
        """Credit one finished subtree."""
        nonlocal raw
        raw += tall["raw"]
        rep_cols.extend(tall["reps"])
        done_spans.add(task[2])
        if not checkpoint:
            return
        state = {
            "version": CHECKPOINT_VERSION,
            "n": n,
            "filter": dataclasses.asdict(filt),
            "done": sorted(done_spans),
            "raw": raw,
            "reps": [[list(p) for p in cols] for cols, _ in rep_cols],
        }
        tmp = checkpoint + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(json.dumps(state))
        os.replace(tmp, checkpoint)

    workers = jobs if jobs > 1 and len(pending) > 1 else 1
    if workers > 1:
        import multiprocessing  # about 1 MB of memory, paid only by a pool

        with multiprocessing.Pool(workers) as pool:
            for task, tall in zip(pending, pool.imap(_worker_task, pending)):
                record(task, tall)
    else:
        for task in pending:
            record(task, _worker_task(task))

    result = CensusResult(n=n, raw_count=raw)
    for cols, orbit in sorted(rep_cols):
        d = GridDiagram(n, cols)
        is_knot = filt.knots_only or component_count(d) == 1
        if is_knot:
            result.knot_count += orbit
            result.stuck_count += orbit if filt.stuck_only else 0
        if filt.trivial_only:
            if not is_knot or not _proves_trivial(d, limits):
                continue
            if filt.stuck_only:
                result.trivial_stuck_count += orbit
        result.representatives.append(d)
    result.orbit_count = len(result.representatives)
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


def knot_determinant(d: GridDiagram, known_knot: bool = False) -> int:
    """|Delta(-1)| of the knot d; 1 is necessary (not sufficient) for the
    trivial knot.

    Manolescu, Ozsvath and Sarkar (A combinatorial description of knot Floer
    homology, arXiv:math/0607691): over the n x n lattice points p of a grid,
    det(t^(-a(p))) = +-t^k (1-t)^(n-1) Delta(t), where a(p) is the winding
    number of the knot around p.  The lattice point (x + 1/2, y + 1/2), for
    x, y = 0..n-1, has a(p) odd exactly when an odd number of columns
    c >= x + 1 have lo_c <= y < hi_c.  At t = -1 the matrix is +-1, and
    |Delta(-1)| = |det| / 2^(n-1).

    known_knot=True says that the caller has already found d to be a knot,
    which skips the walk of its components.
    """
    if not known_knot and component_count(d) != 1:
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
    without a search.  Every caller passes a knot the census filter found."""
    if knot_determinant(d, known_knot=True) != 1:
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
    # both statistics are invariant under the eight symmetries, so one
    # diagram per orbit reaches every maximum
    stats = [
        length_stats(GridDiagram(n, columns))
        for span in _first_spans(n, False)
        for columns, _ in _subtree(n, False, span)
    ]
    return max(st.crossing_count for st in stats), max(st.total_all for st in stats)


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
    trivial = [d for d in res.representatives if _proves_trivial(d, limits)]
    both = {mv.Axis.HORIZONTAL, mv.Axis.VERTICAL}
    return StuckCensusReport(
        n=n,
        stuck_knot_orbits=len(res.representatives),
        trivial_orbits=trivial,
        trivial_raw_count=sum(canonical_form(d).orbit_size for d in trivial),
        all_admit_both_exterior_exchanges=all(_exterior_axes(d) == both for d in trivial),
        all_need_exterior=all([needs_exterior(d, limits) for d in trivial]),
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
