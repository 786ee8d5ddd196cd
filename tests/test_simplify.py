import hashlib
import json
import os
import random
import tracemalloc

import pytest

from gridknot import moves as mv
from gridknot import simplify as sp
from gridknot.census import knot_determinant, verify_stuck_census
from gridknot.grid import apply_symmetry, canonical_form, from_text, to_text, trivial_diagram, validate

from conftest import knot_reps
from oracles import eager_search

# an 8-grid trefoil that a search with rotation arcs cannot exhaust in
# 100,000 states; the witness search exhausts it at 15,330 states, and over
# torus orbits the search exhausts 9,313 keys
TREFOIL8 = from_text("8\n4-5 2-7 4-8 1-7 6-8 2-6 3-5 1-3\n")


def test_trivial_diagram_is_trivial():
    report = sp.is_trivial(trivial_diagram())
    assert report.verdict is sp.Verdict.TRIVIAL
    assert report.witness is not None and report.witness.moves == ()


def test_trefoil_is_not_trivial(trefoil5):
    assert knot_determinant(trefoil5) == 3
    report = sp.is_trivial(trefoil5, want_witness=False)
    assert report.verdict is sp.Verdict.NOT_TRIVIAL


def test_not_a_knot_rejected():
    link = validate(4, [(1, 2), (1, 2), (3, 4), (3, 4)])
    with pytest.raises(sp.NotAKnotError):
        sp.is_trivial(link)


def test_scramble_deterministic_and_trivial():
    assert sp.scramble(7, 0) == trivial_diagram()
    assert sp.scramble(123, 12) == sp.scramble(123, 12)
    for seed in range(40):
        d = sp.scramble(seed, seed % 21)
        report = sp.is_trivial(d)
        assert report.verdict is sp.Verdict.TRIVIAL
        sp.replay_witness(report.witness)


# SHA-256 of to_text(scramble(s, s % 21)) over s < 2,000, pinned from the
# scramble that built every divide to draw one
SCRAMBLE_2000_TEXT_DIGEST = "680700348c88f88e7fd4a4d9d8c2131f8d539a4941c038c0d87e9b6f9698d678"


def test_scramble_golden_digest():
    h = hashlib.sha256()
    for seed in range(2_000):
        h.update(to_text(sp.scramble(seed, seed % 21)).encode())
    assert h.hexdigest() == SCRAMBLE_2000_TEXT_DIGEST


def test_scramble_rejects_negative_steps():
    with pytest.raises(ValueError, match="nonnegative"):
        sp.scramble(0, -3)


def test_witness_monotone_and_exterior_flags(stuck8):
    report = sp.is_trivial(stuck8)
    assert report.verdict is sp.Verdict.TRIVIAL
    w = report.witness
    sp.replay_witness(w)
    sizes = [w.start.n]
    d = w.start
    for m in w.moves:
        d = mv.apply(d, m)
        sizes.append(d.n)
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))
    assert len(w.uses_exterior) == len(w.moves)
    assert any(w.uses_exterior) == any(
        m.kind is mv.MoveKind.EXTERIOR_EXCHANGE for m in w.moves
    )


def test_verdict_invariant_under_canonical_form():
    for seed in (3, 11, 19):
        d = sp.scramble(seed, 9)
        rep = canonical_form(d).diagram
        assert sp.is_trivial(d, want_witness=False).verdict is sp.is_trivial(
            rep, want_witness=False
        ).verdict
        img = apply_symmetry(d, "rot90")
        assert sp.is_trivial(img, want_witness=False).verdict is sp.Verdict.TRIVIAL


def test_limit_exceeded_is_a_distinct_outcome(stuck8):
    report = sp.is_trivial(stuck8, limits=sp.SearchLimits(max_states=3), want_witness=False)
    assert report.verdict is sp.Verdict.LIMIT_EXCEEDED


def test_time_limit_is_limit_exceeded_never_a_verdict():
    report = sp.is_trivial(TREFOIL8, sp.SearchLimits(max_seconds=0.001), want_witness=False)
    assert report.verdict is sp.Verdict.LIMIT_EXCEEDED


def _capped_peak(monkeypatch, d, cap_mb, want_witness):
    monkeypatch.setenv("GRIDKNOT_LIMIT_MB", str(cap_mb))
    limits = sp.SearchLimits()
    tracemalloc.start()
    try:
        report = sp.is_trivial(d, limits, want_witness=want_witness)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return limits, report, peak


def test_memory_cap_bounds_the_search_peak(monkeypatch):
    cap_mb = 0.5
    limits, report, peak = _capped_peak(monkeypatch, TREFOIL8, cap_mb, want_witness=True)
    assert report.states_visited == limits.max_states
    assert report.verdict is sp.Verdict.LIMIT_EXCEEDED
    assert peak <= 2 * cap_mb * 1_000_000


def test_memory_cap_bounds_the_torus_search_peak(monkeypatch):
    cap_mb = 0.5
    _, report, peak = _capped_peak(monkeypatch, TREFOIL8, cap_mb, want_witness=False)
    assert report.verdict is sp.Verdict.LIMIT_EXCEEDED
    assert peak <= 2 * cap_mb * 1_000_000


@pytest.mark.parametrize("value", ("abc", "nan", "inf", "0", "-5"))
def test_bad_memory_cap_is_rejected(monkeypatch, value):
    monkeypatch.setenv("GRIDKNOT_LIMIT_MB", value)
    with pytest.raises(sp.LimitSettingError):
        sp.SearchLimits()


def test_small_memory_cap_gives_its_own_state_count(monkeypatch):
    monkeypatch.setenv("GRIDKNOT_LIMIT_MB", "0.1")
    assert sp.SearchLimits().max_states == int(100_000 / sp._STATE_BYTES_ESTIMATE)
    monkeypatch.setenv("GRIDKNOT_LIMIT_MB", "1e-300")
    assert sp.SearchLimits().max_states == 1


def test_torus_search_exhausts_the_8_grid_trefoil(monkeypatch):
    monkeypatch.delenv("GRIDKNOT_LIMIT_MB", raising=False)
    assert knot_determinant(TREFOIL8) == 3
    report = sp.is_trivial(TREFOIL8, want_witness=False)
    assert (report.verdict, report.states_visited) == (sp.Verdict.NOT_TRIVIAL, 9313)


def _verdicts_agree(reps):
    for d in reps:
        witness_path = sp.is_trivial(d).verdict
        assert sp.is_trivial(d, want_witness=False).verdict is witness_path, d


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_torus_search_agrees_with_witness_search(n):
    _verdicts_agree(knot_reps(n))


@pytest.mark.stretch
@pytest.mark.skipif(
    not os.environ.get("GRIDKNOT_STRETCH"),
    reason="5,382 searches; set GRIDKNOT_STRETCH=1 to run",
)
def test_torus_search_agrees_on_det_one_six_grids():
    _verdicts_agree([d for d in knot_reps(6) if knot_determinant(d) == 1])


def _grown_knot(columns, plan_seed: int, shuffle: random.Random):
    """A knot grown to a 7-grid by random divides, then moved by six random
    exchanges or rotations."""
    d = validate(len(columns), columns)
    plan = random.Random(plan_seed)
    while d.n < 7:
        d = mv.apply(d, plan.choice(mv.all_divides(d)))
    exchanges = (mv.MoveKind.INTERIOR_EXCHANGE, mv.MoveKind.EXTERIOR_EXCHANGE)
    for _ in range(6):
        options = [m for m in mv.available_moves(d) if m.kind in exchanges]
        d = mv.apply(d, shuffle.choice(options + list(mv.ROTATIONS)))
    return d


def _grown_knots():
    """The 5-grid trefoil and a 6-grid figure-eight grown to the 7-grids
    that the nontrivial_exhaust benchmark workload searches on seed 1."""
    shuffle = random.Random(1)
    trefoil = ((1, 3), (2, 4), (3, 5), (1, 4), (2, 5))
    figure_eight = ((1, 3), (2, 4), (3, 6), (1, 5), (4, 6), (2, 5))
    return [_grown_knot(cols, i, shuffle) for i, cols in enumerate((trefoil, figure_eight))]


CAPS = (1, 2, 5, 50, 5_000_000)


def _searches_agree(d) -> None:
    for exterior in (True, False):
        for want_witness in (True, False):
            for cap in CAPS:
                limits = sp.SearchLimits(max_states=cap)
                verdict, visited, witness = sp._search(d, limits, exterior, want_witness)
                moves = witness.moves if witness else None
                assert (verdict, visited, moves) == eager_search(d, limits, exterior, want_witness), (
                    d, exterior, want_witness, cap
                )


def test_arc_streams_match_the_eager_search_on_scrambles():
    for seed in range(300):
        _searches_agree(sp.scramble(seed, seed % 21))


def test_arc_streams_match_the_eager_search_on_exhausted_knots(stuck8):
    knots = _grown_knots()
    assert [knot_determinant(d) for d in knots] == [3, 5]
    for d in [*knots, stuck8]:
        _searches_agree(d)


def test_needs_exterior_examples(stuck8):
    assert sp.needs_exterior(trivial_diagram()) is False
    assert sp.needs_exterior(stuck8) is True
    report = sp.is_trivial(stuck8, check_exterior_requirement=True)
    assert report.exterior_required is True


def test_needs_exterior_reports_limits(stuck8):
    with pytest.raises(sp.LimitExceededError):
        sp.needs_exterior(stuck8, sp.SearchLimits(max_states=3))


def test_needs_exterior_rejects_nontrivial(trefoil5):
    with pytest.raises(sp.NotTrivialInputError):
        sp.needs_exterior(trefoil5)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_no_small_diagram_needs_exterior(n):
    for d in knot_reps(n):
        if knot_determinant(d) != 1:
            continue
        if sp.is_trivial(d, want_witness=False).verdict is not sp.Verdict.TRIVIAL:
            continue
        assert sp.needs_exterior(d) is False


def test_witness_json_round_trip(stuck8):
    report = sp.is_trivial(stuck8)
    obj = report.witness.to_json_obj()
    from gridknot.grid import from_json_obj

    start = from_json_obj(obj["start"])
    seq = tuple(mv.move_from_json_obj(o) for o in obj["moves"])
    sp.replay_witness(sp.SimplificationWitness(start, seq))


# SHA-256 of the witness JSON, one line per diagram, of test_08's scrambles
# and of the stuck trivial orbits.  Pinned from the search that took
# rotation arcs and built every child when it was generated, so witnesses
# stay byte-identical across changes to the search.
SCRAMBLES_2000_DIGEST = "40054ce655fb45f812c33d3885000f5dd93fb41a5d84d2802630c54caa4932f1"
SCRAMBLES_10000_DIGEST = "e7901a25ee6aa84b5bd75f877c6a6e0a9ede346127f7864055d2dbb74ce92e29"
STUCK_ORBITS_DIGEST = {
    8: "2e5033fd05e38542ba408922b1b3f3b6d726ee67f052789b03b88366935269ff",
    9: "8065baa06ccc22420a3cd30e3248cd7040340069ed798d3f5e2bd54ba0e719c4",
}


def _witness_digest(diagrams) -> str:
    h = hashlib.sha256()
    for d in diagrams:
        obj = sp.is_trivial(d).witness.to_json_obj()
        h.update(json.dumps(obj, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def _scrambles(count: int):
    return (sp.scramble(seed, seed % 21) for seed in range(count))


def test_witness_golden_digests():
    assert _witness_digest(_scrambles(2_000)) == SCRAMBLES_2000_DIGEST
    orbits = verify_stuck_census(8).trivial_orbits
    assert len(orbits) == 2
    assert _witness_digest(orbits) == STUCK_ORBITS_DIGEST[8]


@pytest.mark.stretch
@pytest.mark.skipif(
    not os.environ.get("GRIDKNOT_STRETCH"),
    reason="10,000 searches and the n = 9 stuck census; set GRIDKNOT_STRETCH=1 to run",
)
def test_witness_golden_digests_stretch():
    assert _witness_digest(_scrambles(10_000)) == SCRAMBLES_10000_DIGEST
    orbits = verify_stuck_census(9).trivial_orbits
    assert len(orbits) == 18
    assert _witness_digest(orbits) == STUCK_ORBITS_DIGEST[9]
