import hashlib
import json
import random

import pytest

from gridknot import moves as mv
from gridknot.grid import component_count, extremal_diagram, to_text, trivial_diagram, validate
from gridknot.moves import Axis, Interleaving, InapplicableMoveError, MoveKind, interleaved
from gridknot.simplify import scramble

from conftest import census_reps
from oracles import eager_all_divides


def test_interleaved_classification():
    assert interleaved((1, 3), (2, 4)) is Interleaving.INTERLEAVED
    assert interleaved((1, 4), (2, 3)) is Interleaving.NESTED
    assert interleaved((1, 2), (2, 3)) is Interleaving.SHARED_ENDPOINT
    assert interleaved((1, 2), (3, 4)) is Interleaving.DISJOINT
    assert interleaved((2, 4), (1, 3)) is Interleaving.INTERLEAVED


def test_trivial_diagram_moves():
    kinds = mv.move_kinds_multiset(mv.available_moves(trivial_diagram()))
    assert kinds == {"rotation": 4}


def test_stuck_eight_moves(stuck8):
    listed = mv.available_moves(stuck8)
    kinds = mv.move_kinds_multiset(listed)
    assert kinds == {"exterior_exchange": 2, "rotation": 4}
    axes = {m.axis for m in listed if m.kind is MoveKind.EXTERIOR_EXCHANGE}
    assert axes == {Axis.HORIZONTAL, Axis.VERTICAL}


def test_extremal_three_has_a_merge():
    kinds = mv.move_kinds_multiset(mv.available_moves(extremal_diagram(3)))
    assert kinds.get("interior_merge") or kinds.get("exterior_merge")


def test_merge_rejected_at_terminal_size():
    t = trivial_diagram()
    merges = [mv.interior_merge(axis, i) for axis in Axis for i in (1, 2)]
    merges += [
        mv.exterior_merge(axis, i, place)
        for axis in Axis
        for i in (1, 2)
        for place in (mv.LOW, mv.HIGH)
    ]
    for m in merges:
        with pytest.raises(InapplicableMoveError):
            mv.apply(t, m)


def test_exchange_involution():
    d = validate(5, [(3, 5), (1, 4), (2, 4), (2, 3), (1, 5)])
    for m in mv.available_moves(d):
        if m.kind in (MoveKind.INTERIOR_EXCHANGE, MoveKind.EXTERIOR_EXCHANGE):
            assert mv.apply(mv.apply(d, m), m) == d


def test_rotation_has_order_n():
    d = validate(4, [(2, 3), (1, 4), (1, 4), (2, 3)])
    x = d
    for _ in range(4):
        x = mv.apply(x, mv.rotation(Axis.HORIZONTAL, mv.TO_LOW))
    assert x == d


def test_inapplicable_exchange_reports_reason():
    d = extremal_diagram(6)
    with pytest.raises(InapplicableMoveError):
        mv.apply(d, mv.exterior_exchange(Axis.HORIZONTAL))


@pytest.mark.parametrize("n", (3, 4, 5))
def test_every_listed_move_applies(n):
    for d in census_reps(n):
        for m in mv.available_moves(d):
            after = mv.apply(d, m)
            validate(after.n, after.columns)
            assert component_count(after) == component_count(d)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_inverse_round_trips(n):
    for d in census_reps(n):
        for m in mv.available_moves(d):
            after = mv.apply(d, m)
            assert mv.apply(after, mv.inverse(m, d)) == d


def test_divide_inverse_round_trips():
    d = validate(5, [(3, 5), (1, 4), (2, 4), (2, 3), (1, 5)])
    for dv in mv.all_divides(d):
        bigger = mv.apply(d, dv)
        validate(bigger.n, bigger.columns)
        assert bigger.n == d.n + 1
        assert mv.apply(bigger, mv.inverse(dv, d)) == d


@pytest.mark.parametrize("n", range(2, 15))
def test_divide_view_matches_the_eager_listing(n):
    view = mv.all_divides(extremal_diagram(n))
    eager = eager_all_divides(n)
    assert len(view) == len(eager) == 4 * (n + 1) * (n + 2)
    assert list(view) == eager
    assert view[-1] == eager[-1]
    with pytest.raises(IndexError):
        view[len(view)]
    # random.choice reads only len and one index, so a draw is unchanged
    for seed in range(500):
        assert random.Random(seed).choice(view) == random.Random(seed).choice(eager)


def test_divides_not_listed_by_default():
    d = extremal_diagram(4)
    assert all(m.kind is not MoveKind.DIVIDE for m in mv.available_moves(d))
    assert any(m.kind is MoveKind.DIVIDE for m in mv.available_moves(d, include_divides=True))


@pytest.mark.parametrize("n", (3, 4, 5))
def test_merge_availability_matches_length_criterion(n):
    for d in census_reps(n):
        listed = mv.available_moves(d)
        has_interior = any(m.kind is MoveKind.INTERIOR_MERGE for m in listed)
        has_exterior = any(m.kind is MoveKind.EXTERIOR_MERGE for m in listed)
        rows = d.row_spans()
        lengths = [hi - lo for lo, hi in d.columns] + [b - a for a, b in rows]
        if component_count(d) == 1:
            # for knots the edge-length criterion is exact
            assert has_interior == (1 in lengths)
            assert has_exterior == ((n - 1) in lengths)
        elif not has_interior and 1 in lengths:
            # split links may carry closed square components whose merges
            # would be degenerate; every unit connector must be of that kind
            for i, (lo, hi) in enumerate(d.columns, start=1):
                if hi - lo == 1:
                    with pytest.raises(InapplicableMoveError):
                        mv._merge_endpoints(d, Axis.HORIZONTAL, i)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_shared_endpoint_pairs_come_with_a_unit_connector(n):
    for d in census_reps(n):
        rows = d.row_spans()
        listed = mv.available_moves(d)
        merge_sites = {
            (m.axis, m.site[0]) for m in listed if m.kind is MoveKind.INTERIOR_MERGE
        }
        for j in range(1, n):
            a, b = rows[j - 1], rows[j]
            if interleaved(a, b) is Interleaving.SHARED_ENDPOINT:
                shared = set(a) & set(b)
                doubled = set(a) == set(b)
                if not doubled:
                    (c,) = shared
                    assert d.columns[c - 1] == (j, j + 1)
                    assert (Axis.HORIZONTAL, c) in merge_sites


def test_move_json_round_trip():
    moves = [
        mv.interior_merge(Axis.HORIZONTAL, 3),
        mv.exterior_merge(Axis.VERTICAL, 2, mv.HIGH),
        mv.interior_exchange(Axis.VERTICAL, 4),
        mv.exterior_exchange(Axis.HORIZONTAL),
        mv.rotation(Axis.VERTICAL, mv.TO_HIGH),
        mv.divide(Axis.HORIZONTAL, 2, 5, True, exterior=True),
    ]
    for m in moves:
        assert mv.move_from_json_obj(m.to_json_obj()) == m


def _move_layer_record(d, k: int) -> bytes:
    """Listing with divides, then the outcome and inverse of every listed
    move and of three unlisted ones picked by k."""
    n = d.n
    listed = mv.available_moves(d, include_divides=True)
    listed_set = set(listed)
    unlisted = [
        m
        for axis in Axis
        for m in (
            *(mv.interior_merge(axis, i) for i in range(1, n + 1)),
            *(mv.exterior_merge(axis, i, place) for i in range(1, n + 1) for place in (mv.LOW, mv.HIGH)),
            *(mv.interior_exchange(axis, j) for j in range(1, n + 1)),
            mv.exterior_exchange(axis),
            mv.divide(axis, n + 1, 1, True),
            mv.divide(axis, 1, n + 2, False),
            mv.divide(axis, 2, 1, True, exterior=True),
        )
        if m not in listed_set
    ]
    picked = [unlisted[(7 * k + j * len(unlisted) // 3) % len(unlisted)] for j in range(3)]
    parts = [to_text(d), json.dumps([m.to_json_obj() for m in listed])]
    for m in listed + picked:
        try:
            after = mv.apply(d, m)
        except mv.MoveError as exc:
            parts.append(f"{json.dumps(m.to_json_obj())} {type(exc).__name__}: {exc}")
            continue
        inv = mv.inverse(m, d).to_json_obj()
        parts.append(f"{json.dumps(m.to_json_obj())} {to_text(after)} {json.dumps(inv)}")
    return "\n".join(parts).encode()


# SHA-256 of the move layer's outputs (`_move_layer_record`) over every
# n <= 5 census representative, links included, and 300 scrambles.  Re-pinned
# when vertical merge and divide errors began to name rows as rows.
MOVE_LAYER_DIGEST = "aa7f74a90b992639825ef5ef19fe7ccaa3690380801d2209d05c24ca576352f2"


def test_move_layer_golden_digest():
    diagrams = [d for n in range(2, 6) for d in census_reps(n)]
    diagrams += [scramble(s, s % 21) for s in range(300)]
    h = hashlib.sha256()
    for k, d in enumerate(diagrams):
        h.update(_move_layer_record(d, k))
    assert h.hexdigest() == MOVE_LAYER_DIGEST


@pytest.mark.parametrize(
    "move, message",
    [
        (mv.interior_exchange(Axis.VERTICAL, 1), "columns 1 and 2 are interleaved"),
        (mv.exterior_exchange(Axis.VERTICAL), "columns 1 and 4 are shared_endpoint"),
        (mv.interior_merge(Axis.VERTICAL, 1), "row 1 has length 2, not 1"),
        (mv.exterior_merge(Axis.VERTICAL, 2, mv.HIGH), "row 2 does not span columns 1..4"),
        (mv.divide(Axis.VERTICAL, 5, 1, True), "column 5 out of range"),
        (mv.interior_merge(Axis.HORIZONTAL, 1), "column 1 has length 2, not 1"),
        (mv.divide(Axis.HORIZONTAL, 5, 1, True), "row 5 out of range"),
    ],
)
def test_inapplicable_move_errors_name_the_axis_edges(move, message):
    # a vertical move's edges are columns and its connectors rows
    d = validate(4, [(1, 3), (2, 4), (1, 4), (2, 3)])
    with pytest.raises(InapplicableMoveError) as exc:
        mv.apply(d, move)
    assert str(exc.value) == message
