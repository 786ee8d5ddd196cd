"""End-to-end acceptance checks, one per headline claim.

Each test prints a single PASS line with its measured numbers; a failure in
any of them means the package does not meet its contract.  The size-9
search and the size-9 and size-10 censuses are non-gating stretch targets
behind GRIDKNOT_STRETCH=1.
"""

import os
import time

import pytest

from gridknot import census as cs
from gridknot import jumps as jp
from gridknot import moves as mv
from gridknot import planar as pl
from gridknot import realize as rz
from gridknot import simplify as sp
from gridknot.grid import (
    canonical_form,
    component_count,
    extremal_diagram,
    length_stats,
    max_crossings_bound,
    max_length_bound,
)

from conftest import census_reps, knot_reps
from oracles import naive_census

pytestmark = pytest.mark.acceptance


def _line(name: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS {name}: {detail}")


def test_01_exact_maxima_by_exhaustion():
    t0 = time.monotonic()
    expected = {5: (7, 24), 6: (12, 36)}
    for n in range(2, 7):
        got = cs.max_stats(n)
        assert got == (max_crossings_bound(n), max_length_bound(n)), (n, got)
        if n in expected:
            assert got == expected[n]
    _line("1 exact maxima n=2..6", f"{time.monotonic() - t0:.1f}s")


def test_02_extremal_attainment():
    for n in range(2, 13):
        st = length_stats(extremal_diagram(n))
        assert st.crossing_count == max_crossings_bound(n)
        assert st.total_all == max_length_bound(n)
    st8 = length_stats(extremal_diagram(8))
    assert (st8.crossing_count, st8.total_all) == (24, 64)
    _line("2 extremal diagrams attain both maxima n=2..12", "exact")


def test_03_no_stuck_trivial_knots_below_eight():
    t0 = time.monotonic()
    counts = {}
    for n in range(2, 8):
        rep = cs.verify_stuck_census(n)
        assert rep.trivial_orbits == [], n
        counts[n] = rep.stuck_knot_orbits
    _line(
        "3 stuck trivial count is 0 for n=2..7",
        f"stuck knot orbits {counts}; {time.monotonic() - t0:.1f}s",
    )


def test_04_stuck_trivial_knots_at_eight_need_exterior_exchanges():
    t0 = time.monotonic()
    rep = cs.verify_stuck_census(8)
    assert rep.trivial_orbits, "expected a nonempty stuck trivial set at n=8"
    assert rep.all_admit_both_exterior_exchanges
    assert rep.all_need_exterior
    _line(
        "4 stuck trivial set at n=8",
        f"{len(rep.trivial_orbits)} orbits / {rep.trivial_raw_count} raw diagrams, "
        f"all admit both exterior exchanges and need one; {time.monotonic() - t0:.1f}s",
    )


def test_05_move_count_bound_formulas():
    assert jp.move_count_bound(8, "exterior_exchange") == 156
    assert jp.move_count_bound(8, "exterior_merge") == 78
    assert jp.move_count_bound(8, "rotation") == 79
    assert jp.move_count_bound(3, "exterior_exchange") == 8
    assert jp.move_count_bound(3, "exterior_merge") == 4
    assert jp.move_count_bound(3, "rotation") == 5
    _line("5 move-count formulas", "156/78/79 at n=8 and 8/4/5 at n=3")


def _exterior_moves(d):
    for m in mv.available_moves(d):
        if m.kind in (
            mv.MoveKind.EXTERIOR_EXCHANGE,
            mv.MoveKind.EXTERIOR_MERGE,
            mv.MoveKind.ROTATION,
        ):
            yield m


def test_06_region_counts_within_bounds_up_to_six():
    t0 = time.monotonic()
    checked = 0
    for n in range(2, 7):
        for d in knot_reps(n):
            for m in _exterior_moves(d):
                report = jp.verify_move_count_bound(d, m)
                assert report.holds, (d.columns, m)
                for s in report.per_jump:
                    assert s.sigma_strong <= s.sigma_simple, (d.columns, m)
                checked += 1
    _line(
        "6 region budgets vs closed formulas, n<=6",
        f"{checked} exterior moves, zero violations; {time.monotonic() - t0:.1f}s",
    )


def test_07_realizer_soundness_and_budget_up_to_five():
    t0 = time.monotonic()
    checked = shortcut = 0
    for n in range(2, 6):
        for d in knot_reps(n):
            for m in _exterior_moves(d):
                trace = rz.realize(d, m)
                replayed = rz.replay(trace)
                code = pl.gauss_code(replayed)
                assert code == pl.gauss_code(trace.final)
                assert code == pl.gauss_code(rz.to_planar(mv.apply(d, m)))
                sigmas = [jp.sigma(s) for s in jp.jump_decomposition(d, m)]
                assert len(trace.moves) <= sum(s.sigma_simple for s in sigmas)
                if trace.isotopy_shortcut:
                    shortcut += 1
                    assert trace.moves == ()
                else:
                    for r3c, s in zip(trace.jump_r3_counts, sigmas):
                        assert r3c == s.v
                counts = trace.counts_by_kind()
                if all(s.e_boundary == 0 for s in sigmas):
                    assert not counts.get("r1_create") and not counts.get("r1_delete")
                checked += 1
    _line(
        "7 realizer replay/budget/R3-accounting, n<=5",
        f"{checked} realizations ({shortcut} pure isotopies), zero violations; "
        f"{time.monotonic() - t0:.1f}s",
    )


def test_08_simplify_vouches_for_ten_thousand_scrambles():
    t0 = time.monotonic()
    max_n = 0
    for seed in range(10_000):
        d = sp.scramble(seed, seed % 21)
        max_n = max(max_n, d.n)
        report = sp.is_trivial(d)
        assert report.verdict is sp.Verdict.TRIVIAL, seed
        sp.replay_witness(report.witness)
    trefoil = next(d for d in knot_reps(5) if cs.knot_determinant(d) == 3)
    assert sp.is_trivial(trefoil, want_witness=False).verdict is sp.Verdict.NOT_TRIVIAL
    _line(
        "8 simplification soundness",
        f"10000 scrambles trivial with replayed witnesses (max n {max_n}); "
        f"determinant-3 five-grid exhausts as nontrivial; {time.monotonic() - t0:.1f}s",
    )


def test_09_property_suites():
    t0 = time.monotonic()
    # census oracle counts
    assert cs.enumerate_diagrams(2).raw_count == 1 == len(naive_census(2))
    res3 = cs.enumerate_diagrams(3, cs.CensusFilter(knots_only=True))
    assert res3.knot_count == 6
    # move invertibility over the full n<=5 census
    for n in range(2, 6):
        for d in census_reps(n):
            for m in mv.available_moves(d):
                try:
                    after = mv.apply(d, m)
                except mv.InapplicableMoveError:
                    assert n == 2 and m.kind is mv.MoveKind.INTERIOR_MERGE
                    continue
                assert mv.apply(after, mv.inverse(m, d)) == d
    # determinant move-invariance (n<=5 knots)
    for n in range(3, 6):
        for d in knot_reps(n):
            det = cs.knot_determinant(d)
            for m in mv.available_moves(d):
                after = mv.apply(d, m)
                if component_count(after) == 1:
                    assert cs.knot_determinant(after) == det
    # canonical form idempotence
    for n in range(2, 6):
        for d in census_reps(n):
            cf = canonical_form(d)
            assert canonical_form(cf.diagram).diagram == cf.diagram
    # pruning equals post-filtering for n<=6
    for n in range(3, 7):
        pruned = {
            d.columns
            for d in cs.enumerate_diagrams(n, cs.CensusFilter(stuck_only=True)).representatives
        }
        post = set()
        for d in cs.enumerate_diagrams(n).representatives:
            kinds = {m.kind for m in mv.available_moves(d)}
            if not kinds & {
                mv.MoveKind.INTERIOR_MERGE,
                mv.MoveKind.EXTERIOR_MERGE,
                mv.MoveKind.INTERIOR_EXCHANGE,
            }:
                post.add(d.columns)
        assert pruned == post, n
    _line("9 property suites", f"{time.monotonic() - t0:.1f}s")


@pytest.mark.stretch
@pytest.mark.skipif(
    not os.environ.get("GRIDKNOT_STRETCH"),
    reason="stretch search; set GRIDKNOT_STRETCH=1 to run",
)
def test_10_stretch_nine_grid_only_exterior_horizontal():
    t0 = time.monotonic()
    d = cs.find_only_exterior_horizontal(9)
    assert d is not None
    kinds = {(m.kind, m.axis) for m in mv.available_moves(d)}
    assert (mv.MoveKind.EXTERIOR_EXCHANGE, mv.Axis.HORIZONTAL) in kinds
    assert (mv.MoveKind.EXTERIOR_EXCHANGE, mv.Axis.VERTICAL) not in kinds
    assert not kinds & {
        (mv.MoveKind.INTERIOR_MERGE, mv.Axis.HORIZONTAL),
        (mv.MoveKind.INTERIOR_MERGE, mv.Axis.VERTICAL),
        (mv.MoveKind.EXTERIOR_MERGE, mv.Axis.HORIZONTAL),
        (mv.MoveKind.EXTERIOR_MERGE, mv.Axis.VERTICAL),
        (mv.MoveKind.INTERIOR_EXCHANGE, mv.Axis.HORIZONTAL),
        (mv.MoveKind.INTERIOR_EXCHANGE, mv.Axis.VERTICAL),
    }
    assert sp.is_trivial(d, want_witness=False).verdict is sp.Verdict.TRIVIAL
    _line(
        "10 stretch: nine-grid admitting only the exterior horizontal exchange",
        f"{d.columns}; {time.monotonic() - t0:.1f}s",
    )


@pytest.mark.stretch
@pytest.mark.skipif(
    not os.environ.get("GRIDKNOT_STRETCH"),
    reason="nine-grid census; set GRIDKNOT_STRETCH=1 to run",
)
def test_11_stretch_nine_grid_stuck_census():
    t0 = time.monotonic()
    # raw counts every stuck diagram, links included; orbits keep knots only
    res = cs.enumerate_diagrams(9, cs.CensusFilter(knots_only=True, stuck_only=True))
    assert (res.raw_count, res.orbit_count) == (35_790, 1_853)
    rep = cs.verify_stuck_census(9)
    assert rep.stuck_knot_orbits == 1_853
    assert (len(rep.trivial_orbits), rep.trivial_raw_count) == (18, 144)
    assert rep.all_need_exterior
    assert not rep.all_admit_both_exterior_exchanges
    _line(
        "11 stretch: stuck census at n=9",
        f"{res.raw_count} raw, {rep.stuck_knot_orbits} knot orbits, "
        f"{len(rep.trivial_orbits)} trivial orbits / {rep.trivial_raw_count} raw; "
        f"{time.monotonic() - t0:.1f}s",
    )


@pytest.mark.stretch
@pytest.mark.skipif(
    not os.environ.get("GRIDKNOT_STRETCH"),
    reason="ten-grid census; set GRIDKNOT_STRETCH=1 to run",
)
def test_12_stretch_ten_grid_stuck_census():
    t0 = time.monotonic()
    rep = cs.verify_stuck_census(10)
    assert rep.stuck_knot_orbits == 28_085
    assert (len(rep.trivial_orbits), rep.trivial_raw_count) == (147, 1_176)
    assert rep.all_need_exterior
    assert not rep.all_admit_both_exterior_exchanges
    census_s = time.monotonic() - t0
    # raw counts every stuck diagram, links included
    res = cs.enumerate_diagrams(10, cs.CensusFilter(stuck_only=True))
    assert res.raw_count == 494_176
    d = cs.find_only_exterior_horizontal(10)
    assert d is not None
    assert cs._exterior_axes(d) == {mv.Axis.HORIZONTAL}
    _line(
        "12 stretch: stuck census at n=10",
        f"{res.raw_count} raw, {rep.stuck_knot_orbits} knot orbits, "
        f"{len(rep.trivial_orbits)} trivial orbits / {rep.trivial_raw_count} raw; "
        f"census {census_s:.1f}s, total {time.monotonic() - t0:.1f}s",
    )
