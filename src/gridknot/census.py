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
images).  Work is split by first span, lo + hi <= n + 1, and a checkpoint
logs each finished subtree.  Every census filter is invariant under the
eight symmetries, so raw counts are orbit-size sums.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import time
from dataclasses import dataclass, field
from itertools import chain

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

CHECKPOINT_VERSION = 4


class CheckpointMismatchError(GridError):
    """A census checkpoint is for another size, filter or format, or fails a check."""


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


def _resume(checkpoint: str, header: str, n: int, stuck: bool) -> dict[Span, list[tuple]]:
    """The finished subtrees of a checkpoint log, by first span, each with
    its orbits as (columns, orbit size).

    Every whole line is checked first.  The header must be this run's; each
    record's first span one of this census's, recorded once; each key the
    canonical key of a size-n diagram in the record's subtree, stored once;
    and its raw count the sum of the orbit sizes.  Otherwise the file is
    refused and left as it is.  A last line without its newline is an append
    that never finished: it is then cut off, and its subtree runs again.
    """
    with open(checkpoint, "rb") as fh:
        data = fh.read()
    if not data:  # stopped before the header was written
        return {}
    lines = data.split(b"\n")  # the last item is b"" unless an append was cut
    if lines[0] != header.encode():
        raise CheckpointMismatchError(
            f"checkpoint {checkpoint} starts with {lines[0][:100]!r}; this run writes {header}"
        )
    spans = set(_first_spans(n, stuck))
    done: dict[Span, list[tuple]] = {}
    for number, line in enumerate(lines[1:-1], start=2):
        where = f"{checkpoint} line {number}"
        try:
            record = json.loads(line)
            first, raw = tuple(record["first"]), record["raw"]
            keys = [bytes.fromhex(key) for key in record["orbits"]]
            # a cut or padded key fails the comparison with its canonical key
            diagrams = [validate(n, list(zip(key[1::2], key[2::2]))) for key in keys]
        except (ValueError, TypeError, KeyError) as exc:
            raise CheckpointMismatchError(f"{where} is not a subtree record: {exc}") from None
        if first not in spans or first in done:
            raise CheckpointMismatchError(f"{where}: {first} is not an unfinished first span")
        orbits = {}
        for key, d in zip(keys, diagrams):
            if canonical_key(d) != key or d.columns[0] != first or d.columns in orbits:
                raise CheckpointMismatchError(f"{where} may not hold {d.columns}")
            orbits[d.columns] = canonical_form(d).orbit_size
        if raw != sum(orbits.values()):
            raise CheckpointMismatchError(f"{where}: raw count {raw!r} does not add up")
        done[first] = list(orbits.items())
    if lines[-1]:
        with open(checkpoint, "r+b") as fh:
            fh.truncate(len(data) - len(lines[-1]))
    return done


def enumerate_diagrams(
    n: int,
    filt: CensusFilter | None = None,
    checkpoint: str | None = None,
    limits: SearchLimits | None = None,
) -> CensusResult:
    """Census at size n.  Exactly one canonical representative per orbit is
    kept, in sorted order; raw counts cover every diagram enumerated.

    With a checkpoint, each finished subtree appends one line: its first
    span, raw count and the canonical keys of all its orbits, links too.

    Knot and triviality filters are decided once per orbit on the canonical
    representative (both are orbit invariants) and raw counts for them are
    the sums of the carried orbit sizes.
    """
    if not isinstance(n, int) or n < 2:
        raise SizeError(f"census size must be an integer >= 2, got {n!r}")
    filt = filt or CensusFilter()
    stuck = filt.stuck_only
    start_time = time.monotonic()
    header = json.dumps({"version": CHECKPOINT_VERSION, "n": n, "filter": dataclasses.asdict(filt)})
    done = {}
    if checkpoint and os.path.exists(checkpoint):
        done = _resume(checkpoint, header, n, stuck)
    result = CensusResult(n=n)
    with open(checkpoint, "a") if checkpoint else contextlib.nullcontext() as log:
        if log and log.tell() == 0:
            log.write(header + "\n")
        for first_span in _first_spans(n, stuck):
            orbits = done.pop(first_span, None)
            if orbits is None:
                orbits = _subtree(n, stuck, first_span)
                if log:
                    raw = sum(orbit for _, orbit in orbits)
                    keys = [bytes([n, *chain(*cols)]).hex() for cols, _ in orbits]
                    log.write(json.dumps({"first": first_span, "raw": raw, "orbits": keys}) + "\n")
                    log.flush()
            # first spans come in sorted order, so sorting each subtree sorts all
            for cols, orbit in sorted(orbits):
                result.raw_count += orbit
                d = GridDiagram(n, cols)
                if component_count(d) == 1:
                    result.knot_count += orbit
                    result.stuck_count += orbit if stuck else 0
                elif filt.knots_only or filt.trivial_only:
                    continue
                if filt.trivial_only:
                    if not _proves_trivial(d, limits):
                        continue
                    if stuck:
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

    The census runs in one process.  `jobs` is kept only because callers
    written for the old process pool, such as `perfbench/workloads.py`, pass
    jobs=1; any other value raises ValueError.
    """
    if jobs != 1:
        raise ValueError(f"the census runs in one process; jobs must be 1, got {jobs!r}")
    start = time.monotonic()
    filt = CensusFilter(knots_only=True, stuck_only=True)
    res = enumerate_diagrams(n, filt, checkpoint=checkpoint, limits=limits)
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
    n: int = 9, limits: SearchLimits | None = None, checkpoint: str | None = None
) -> GridDiagram | None:
    """Search for a trivial knot diagram admitting no merge, no vertical
    exchange at all, no interior horizontal exchange, and admitting the
    exterior horizontal exchange.  Which exterior exchanges a diagram admits
    depends on its image, so every image of each stuck knot orbit is tried;
    returns the first that qualifies, or None."""
    filt = CensusFilter(knots_only=True, stuck_only=True)
    res = enumerate_diagrams(n, filt, checkpoint=checkpoint, limits=limits)
    for d in res.representatives:
        image = _only_exterior_horizontal_image(d)
        if image is not None and _proves_trivial(image, limits):
            return image
    return None
