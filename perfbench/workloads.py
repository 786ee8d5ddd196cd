"""The benchmark's four workloads.

Each workload builds a pool of inputs from the seed (`setup`), runs one
item (`run`, the timed part) and checks the item's output against an answer
known independently of the timed call (`check`).  `gk` is a namespace of the
gridknot modules the run imported; workloads reach the library only through
it, so the traced run sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

# The n=8 stuck census as pinned by the acceptance suite (test_04) and the
# paper: 291 stuck knot orbits, 2 trivial orbits of 16 raw diagrams, each
# admitting both exterior exchanges and needing one.
STUCK_8 = {
    "n": 8,
    "stuck_knot_orbits": 291,
    "trivial_stuck_orbits": 2,
    "trivial_stuck_raw": 16,
    "all_admit_both_exterior_exchanges": True,
    "all_need_exterior": True,
}

# Sources of the nontrivial knots: the 5-grid trefoil (determinant 3) and a
# 6-grid figure-eight (determinant 5), both grown to 7-grids.
KNOT_SOURCES = (
    (((1, 3), (2, 4), (3, 5), (1, 4), (2, 5)), 3),
    (((1, 3), (2, 4), (3, 6), (1, 5), (4, 6), (2, 5)), 5),
)
GROWN_N = 7
SHUFFLES = 6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: int
    setup: Callable[[Any, int, int], list]
    run: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], bool]


# --- scramble_unknots --------------------------------------------------------


# Grid sizes of the scramble pool per 840 items, n >= 12 pooled: the
# proportions scramble(s, s % 21) yields over consecutive s.  Search time
# grows steeply with n, so pinning the histogram keeps the median item, and
# the pass time, from moving with the seed.
SCRAMBLE_SIZES = {2: 105, 3: 103, 4: 91, 5: 97, 6: 100, 7: 88, 8: 92, 9: 58, 10: 42, 11: 32, 12: 32}
SCRAMBLE_BLOCK = 100_000  # scramble seeds reserved per benchmark seed


def _scramble_setup(gk, seed: int, size: int) -> list:
    quota = {n: round(k * size / 840) for n, k in SCRAMBLE_SIZES.items()}
    pool = []
    for s in range(seed * SCRAMBLE_BLOCK, (seed + 1) * SCRAMBLE_BLOCK):
        d = gk.simplify.scramble(s, s % 21)
        n = min(d.n, max(quota))
        if quota[n]:
            quota[n] -= 1
            pool.append(d)
            if not any(quota.values()):
                return pool
    raise RuntimeError(f"seed {seed}: scramble size quotas not filled")


def _scramble_run(gk, d):
    report = gk.simplify.is_trivial(d)
    end = gk.simplify.replay_witness(report.witness) if report.witness else None
    return report.verdict, end


def _scramble_check(gk, d, out) -> bool:
    verdict, end = out
    return verdict is gk.simplify.Verdict.TRIVIAL and end == gk.grid.trivial_diagram()


# --- nontrivial_exhaust --------------------------------------------------------


def _grow(gk, d, plan: random.Random, shuffle: random.Random):
    mv = gk.moves
    while d.n < GROWN_N:
        d = mv.apply(d, plan.choice(mv.all_divides(d)))
    exchanges = (mv.MoveKind.INTERIOR_EXCHANGE, mv.MoveKind.EXTERIOR_EXCHANGE)
    for _ in range(SHUFFLES):
        options = [m for m in mv.available_moves(d) if m.kind in exchanges]
        options.extend(mv.ROTATIONS)
        d = mv.apply(d, shuffle.choice(options))
    return d


def _exhaust_setup(gk, seed: int, size: int) -> list:
    # Slot i always takes the same divides (from Random(i)), which fixes the
    # reachable set it exhausts; the seed moves the start diagram inside
    # that set by exchanges and rotations.  So every seed does the same
    # amount of search and the spread between seeds stays small.  The two
    # slots exhaust sets of 1,652 (trefoil) and 766 (figure-eight) states.
    shuffle = random.Random(seed)
    items = []
    for i in range(size):
        columns, det = KNOT_SOURCES[i % len(KNOT_SOURCES)]
        d = _grow(gk, gk.grid.validate(len(columns), columns), random.Random(i), shuffle)
        items.append((d, det, gk.census.knot_determinant(d)))
    return items


def _exhaust_run(gk, item):
    return gk.simplify.is_trivial(item[0], want_witness=False).verdict


def _exhaust_check(gk, item, verdict) -> bool:
    _, det, measured = item
    return verdict is gk.simplify.Verdict.NOT_TRIVIAL and measured == det


# --- stuck_census --------------------------------------------------------------


def _census_setup(gk, seed: int, size: int) -> list:
    return [STUCK_8["n"]] * size


def _census_run(gk, n: int) -> dict:
    return gk.census.verify_stuck_census(n, jobs=1).summary()


def _census_check(gk, n: int, summary: dict) -> bool:
    return {k: summary[k] for k in STUCK_8} == STUCK_8


# --- exterior_realize ----------------------------------------------------------

# The pairs come from the n=5 knot census: 1,344 (knot, exterior move) pairs,
# the domain where the package claims realizer soundness (acceptance test_07).
# At n=6, 138 of the 35,258 pairs fail in realize (PlanarError, or a trace
# over its budget); see the README.
EXTERIOR_N = 5


def _exterior_pairs(gk, n: int) -> list:
    mv = gk.moves
    kinds = (mv.MoveKind.EXTERIOR_EXCHANGE, mv.MoveKind.EXTERIOR_MERGE, mv.MoveKind.ROTATION)
    census = gk.census.enumerate_diagrams(n, gk.census.CensusFilter(knots_only=True))
    return [
        (d, m)
        for d in census.representatives
        if gk.grid.component_count(d) == 1
        for m in mv.available_moves(d)
        if m.kind in kinds
    ]


def _exterior_setup(gk, seed: int, size: int) -> list:
    pairs = random.Random(seed).sample(_exterior_pairs(gk, EXTERIOR_N), size)
    rz, pl = gk.realize, gk.planar
    return [(d, m, pl.gauss_code(rz.to_planar(gk.moves.apply(d, m)))) for d, m in pairs]


def _exterior_run(gk, item):
    d, m, _ = item
    report = gk.jumps.verify_move_count_bound(d, m)
    trace = gk.realize.realize(d, m)
    code = gk.planar.gauss_code(gk.realize.replay(trace))
    return report.holds, len(trace.moves), report.total_simple, code


def _exterior_check(gk, item, out) -> bool:
    holds, moves, budget, code = out
    return holds and moves <= budget and code == item[2]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scramble_unknots",
            "is-this-the-unknot requests with an early exit; canonical_key and move "
            "application dominate",
            420,
            _scramble_setup,
            _scramble_run,
            _scramble_check,
        ),
        Workload(
            "nontrivial_exhaust",
            "nontrivial 7-grid knots searched to exhaustion: no early exit, the "
            "visited set grows to full size",
            2,
            _exhaust_setup,
            _exhaust_run,
            _exhaust_check,
        ),
        Workload(
            "stuck_census",
            "the paper's n=8 stuck census; enumeration dominates and canonical_key "
            "is a small share",
            1,
            _census_setup,
            _census_run,
            _census_check,
        ),
        Workload(
            "exterior_realize",
            "exterior moves of n=5 knots through jumps, realize and planar; hardly "
            "touches canonical_key",
            800,
            _exterior_setup,
            _exterior_run,
            _exterior_check,
        ),
    )
}
