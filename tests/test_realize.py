import hashlib
import json
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridknot import jumps as jp
from gridknot import moves as mv
from gridknot import planar as pl
from gridknot import realize as rz
from gridknot.grid import grid_cycles, trivial_diagram, validate

import oracles
from conftest import census_reps, knot_reps


def _exterior_moves(d):
    for m in mv.available_moves(d):
        if m.kind in (
            mv.MoveKind.EXTERIOR_EXCHANGE,
            mv.MoveKind.EXTERIOR_MERGE,
            mv.MoveKind.ROTATION,
        ):
            yield m


# Digests over every (knot, exterior move) pair of the n = 2..5 knot
# censuses, in census and move-list order: one pins the sigma breakdowns,
# the other the realized traces.  Both are independent of PYTHONHASHSEED.
JUMP_PAIRS = 1454
SIGMA_DIGEST = "d0d3c66e1562e11b"
TRACE_DIGEST = "082dc9df9790a0fe"


def _digest(objs) -> str:
    text = "\n".join(json.dumps(obj, sort_keys=True) for obj in objs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_jump_layer_golden_digests():
    pairs = [
        (d, m)
        for n in range(2, 6)
        for d in census_reps(n, knots_only=True)
        for m in _exterior_moves(d)
    ]
    assert len(pairs) == JUMP_PAIRS
    assert _digest(jp.verify_move_count_bound(d, m).to_json_obj() for d, m in pairs) == SIGMA_DIGEST
    assert _digest(rz.trace_to_json(rz.realize(d, m), d, m) for d, m in pairs) == TRACE_DIGEST


def assert_trace_contract(d, m):
    trace = rz.realize(d, m)
    replayed = rz.replay(trace)
    assert pl.gauss_code(replayed) == pl.gauss_code(trace.final)
    assert pl.gauss_code(replayed) == pl.gauss_code(rz.to_planar(mv.apply(d, m)))
    sigmas = [jp.sigma(s) for s in jp.jump_decomposition(d, m)]
    assert len(trace.moves) <= rz.sigma_budget(d, m) == sum(s.sigma_simple for s in sigmas)
    if not trace.isotopy_shortcut:
        for r3c, s in zip(trace.jump_r3_counts, sigmas):
            assert r3c == s.v
    counts = trace.counts_by_kind()
    if all(s.e_boundary == 0 for s in sigmas):
        assert counts.get("r1_create", 0) + counts.get("r1_delete", 0) == 0
    return trace


def test_rotations_on_trivial_are_empty():
    for rot in mv.ROTATIONS:
        trace = assert_trace_contract(trivial_diagram(), rot)
        assert trace.moves == ()


def test_stuck_eight_exchanges(stuck8):
    for axis in (mv.Axis.HORIZONTAL, mv.Axis.VERTICAL):
        trace = assert_trace_contract(stuck8, mv.exterior_exchange(axis))
        assert 0 < len(trace.moves) <= 156


def test_trefoil_rotations(trefoil5):
    for rot in mv.ROTATIONS:
        assert_trace_contract(trefoil5, rot)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_exhaustive_small(n):
    for d in knot_reps(n):
        for m in _exterior_moves(d):
            assert_trace_contract(d, m)


def test_realize_rejects_links():
    link = validate(4, [(1, 2), (1, 2), (3, 4), (3, 4)])
    from gridknot.simplify import NotAKnotError

    with pytest.raises(NotAKnotError):
        rz.realize(link, mv.rotation(mv.Axis.HORIZONTAL, mv.TO_LOW))


def test_realize_rejects_inapplicable_move(trefoil5):
    # the spiral diagram's extreme rows are interleaved
    with pytest.raises(mv.InapplicableMoveError):
        rz.realize(trefoil5, mv.exterior_exchange(mv.Axis.HORIZONTAL))


def test_trace_json_and_tamper_detection(stuck8):
    m = mv.exterior_exchange(mv.Axis.HORIZONTAL)
    trace = rz.realize(stuck8, m)
    obj = rz.trace_to_json(trace, stuck8, m)
    assert obj["counts"]["r3"] == sum(trace.jump_r3_counts)
    assert json.loads(json.dumps(obj))["final_gauss"] == obj["final_gauss"]

    r3_at = next(i for i, r in enumerate(trace.moves) if r.kind == "r3")
    forged = list(trace.moves)
    labels = list(forged[r3_at].payload["labels"])
    labels[0], labels[1] = labels[1], labels[0]
    bad_payload = dict(forged[r3_at].payload)
    bad_payload["labels"] = labels
    bad_payload["sides"] = [[["missing", True], ["missing", False]]] * 3
    forged[r3_at] = pl.ReidemeisterMove("r3", bad_payload)
    tampered = rz.RealizationTrace(
        trace.initial,
        tuple(forged),
        trace.final,
        trace.jump_move_counts,
        trace.jump_r3_counts,
    )
    with pytest.raises(pl.IllegalMoveAtSiteError):
        rz.replay(tampered)


def test_frames_written(tmp_path, stuck8):
    frames: list = []
    trace = rz.realize(stuck8, mv.rotation(mv.Axis.HORIZONTAL, mv.TO_LOW), frames=frames)
    names = rz.write_frames(frames, str(tmp_path))
    assert len(names) == len(frames) >= len(trace.moves)
    for name in names:
        text = (tmp_path / name).read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    # deterministic rendering
    again = rz.render_frame_svg(frames[0][0], frames[0][1])
    assert again == (tmp_path / names[0]).read_text()


def test_replay_of_empty_trace_is_initial(trefoil5):
    # a rotation of the spiral diagram is a planar isotopy of the drawing
    trace = rz.realize(trefoil5, mv.rotation(mv.Axis.HORIZONTAL, mv.TO_LOW))
    if trace.isotopy_shortcut:
        assert trace.moves == ()
        assert rz.replay(trace) is trace.initial


@st.composite
def knots(draw, max_n: int = 7):
    """Column i spans rows sigma(i) and sigma(c(i)) for an n-cycle c, so the
    walk visits every column: the diagram is a knot."""
    n = draw(st.integers(2, max_n))
    sigma = draw(st.permutations(range(1, n + 1)))
    order = draw(st.permutations(range(n)))
    succ = {order[k]: order[(k + 1) % n] for k in range(n)}
    return validate(n, [(sigma[i], sigma[succ[i]]) for i in range(n)])


def _oracle_cycles(spec, state):
    m_pts = rz._m_polyline(spec, state)
    chain = [(True, m_pts if spec.enters_left else m_pts[::-1])]
    chain += [(False, rz._grid_edge_polyline(e)) for e in spec.chain]
    others = [[(False, rz._grid_edge_polyline(e)) for e in cyc] for cyc in spec.others]
    return [chain, *others]


def _outcome(extract, *args):
    try:
        return extract(*args)
    except rz.SweepObstructionError as exc:
        return type(exc)


@settings(deadline=None, max_examples=200)
@given(knots())
def test_extraction_matches_all_pairs_oracle(d):
    """Every sweep state's extraction equals the all-pairs reference, and the
    reference diagram is valid; to_planar agrees with it too."""
    grid_cycles_geometry = [[(False, rz._grid_edge_polyline(e)) for e in cyc] for cyc in grid_cycles(d)]
    want = oracles.extract_cycles(grid_cycles_geometry, {}, rz._static_labels_for(d))
    assert rz.to_planar(d) == want
    library_extract = rz._SweepContext.extract
    states = []

    def checked(ctx, state):
        got = _outcome(library_extract, ctx, state)
        want = _outcome(
            oracles.extract_cycles, _oracle_cycles(ctx.spec, state), ctx.moving_positions(state), ctx.static_label
        )
        assert got == want
        if want is rz.SweepObstructionError:
            raise want("the reference extraction fails too")
        want.validate()
        states.append(state)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rz._SweepContext, "extract", checked)
        for m in _exterior_moves(d):
            try:
                rz.realize(d, m)
            except (rz.SweepObstructionError, pl.PlanarError):
                pass  # known realizer faults from n = 6 on; the states before were checked
    assert states


# Known realizer faults at n = 6, from perfbench/README.md.  Strict, so a fix
# turns them into failures that ask for these marks to go.
@pytest.mark.xfail(raises=pl.PlanarError, strict=True, reason="Euler check fails in apply_r2_create")
def test_reproducer_horizontal_exchange_planar_error():
    d = validate(6, [(1, 4), (3, 5), (4, 6), (5, 6), (1, 2), (2, 3)])
    assert_trace_contract(d, mv.exterior_exchange(mv.Axis.HORIZONTAL))


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="3 moves against a budget of 2")
def test_reproducer_vertical_rotation_over_budget():
    d = validate(6, [(1, 2), (3, 6), (3, 5), (2, 5), (4, 6), (1, 4)])
    assert_trace_contract(d, mv.rotation(mv.Axis.VERTICAL, mv.TO_LOW))


# Outcomes of all n = 6 (knot, exterior move) pairs: a trace within its
# budget, a trace over it, or an exception.  The digest runs over each
# trace's JSON, or the exception's type and message, in census order.  A fix
# to the realizer changes this pin on purpose.
N6_PAIRS = 35_258
N6_OUTCOMES = {"pass": 35_120, "over_budget": 88, "PlanarError": 50}
N6_DIGEST = "9c99a90757e5b7ef"


@pytest.mark.stretch
@pytest.mark.skipif(
    not os.environ.get("GRIDKNOT_STRETCH"),
    reason="35,258 realizations; set GRIDKNOT_STRETCH=1 to run",
)
def test_six_grid_realizer_outcomes_stretch():
    outcomes: Counter = Counter()
    lines = []
    for d in knot_reps(6):
        for m in _exterior_moves(d):
            try:
                trace = rz.realize(d, m)
            except (rz.SweepObstructionError, pl.PlanarError) as exc:
                outcomes[type(exc).__name__] += 1
                lines.append(f"{type(exc).__name__}: {exc}")
                continue
            outcomes["pass" if len(trace.moves) <= rz.sigma_budget(d, m) else "over_budget"] += 1
            lines.append(json.dumps(rz.trace_to_json(trace, d, m), sort_keys=True))
    assert sum(outcomes.values()) == N6_PAIRS
    assert outcomes == N6_OUTCOMES
    assert hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()[:16] == N6_DIGEST
