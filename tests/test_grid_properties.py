"""Property tests of the grid core on random diagrams up to n = 12."""

import copy
import hashlib
import json
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from gridknot import moves as mv
from gridknot.census import enumerate_diagrams, knot_determinant
from gridknot.grid import (
    SYMMETRIES,
    GridDiagram,
    apply_symmetry,
    canonical_form,
    canonical_key,
    component_count,
    extremal_diagram,
    from_canonical_key,
    grid_cycles,
    parse_grid,
    to_json_obj,
    to_text,
    torus_key,
    validate,
)
from gridknot.simplify import scramble

PROPERTY = settings(deadline=None, max_examples=200)


@st.composite
def grids(draw, min_n: int = 2, max_n: int = 12) -> GridDiagram:
    """Column i spans {sigma(i), tau(i)} for permutations with sigma(i) != tau(i).

    A drawn tau that meets sigma at i swaps entries i and i+1 (cyclically),
    which moves both away from sigma without creating a new meeting.
    """
    n = draw(st.integers(min_n, max_n))
    sigma = draw(st.permutations(range(1, n + 1)))
    tau = list(draw(st.permutations(range(1, n + 1))))
    for i in range(n):
        if sigma[i] == tau[i]:
            j = (i + 1) % n
            tau[i], tau[j] = tau[j], tau[i]
    return validate(n, list(zip(sigma, tau)))


@PROPERTY
@given(grids())
def test_canonical_key_is_symmetry_invariant(d):
    key = canonical_key(d)
    for sym in SYMMETRIES:
        assert canonical_key(apply_symmetry(d, sym)) == key


@PROPERTY
@given(grids())
def test_symmetry_group_laws(d):
    img = d
    for _ in range(4):
        img = apply_symmetry(img, "rot90")
    assert img == d
    assert apply_symmetry(apply_symmetry(d, "transpose"), "transpose") == d
    assert apply_symmetry(d, "identity") == d


@PROPERTY
@given(grids())
def test_canonical_key_decodes_to_canonical_form(d):
    assert from_canonical_key(canonical_key(d)) == canonical_form(d).diagram


@st.composite
def tied_grids(draw) -> GridDiagram:
    """Grids whose first column is its own mirror image (a, n + 1 - a), so
    the identity and flip_y images start with the same span: a drawn grid
    with its rows relabelled, which keeps it valid."""
    d = draw(grids())
    n = d.n
    a = draw(st.integers(1, n // 2))
    lo, hi = d.columns[0]
    others = iter(draw(st.permutations([r for r in range(1, n + 1) if r not in (a, n + 1 - a)])))
    label = {r: next(others) for r in range(1, n + 1) if r not in (lo, hi)}
    label[lo], label[hi] = a, n + 1 - a
    return validate(n, [(label[x], label[y]) for x, y in d.columns])


@PROPERTY
@given(st.one_of(grids(), tied_grids(), st.builds(extremal_diagram, st.integers(2, 12))))
def test_canonical_key_is_the_least_symmetry_image(d):
    best = min(apply_symmetry(d, sym).columns for sym in SYMMETRIES)
    assert canonical_key(d) == bytes([d.n, *(r for span in best for r in span)])


def _torus_images(d: GridDiagram):
    """All 8n^2 images: each symmetry, then every column and row shift."""
    n = d.n
    for sym in SYMMETRIES:
        cols = apply_symmetry(d, sym).columns
        for s in range(n):
            for t in range(n):
                yield tuple(
                    tuple(sorted(((lo - 1 + t) % n + 1, (hi - 1 + t) % n + 1)))
                    for lo, hi in cols[s:] + cols[:s]
                )


@PROPERTY
@given(grids())
def test_torus_key_is_the_least_torus_image(d):
    best = min(_torus_images(d))
    assert torus_key(d) == bytes([d.n, *(r for span in best for r in span)])


@PROPERTY
@given(grids())
def test_torus_key_is_invariant_under_rotations_and_symmetries(d):
    key = torus_key(d)
    for m in mv.ROTATIONS:
        assert torus_key(mv.apply(d, m)) == key
    for sym in SYMMETRIES:
        assert torus_key(apply_symmetry(d, sym)) == key


@PROPERTY
@given(grids())
def test_torus_key_decodes_to_a_valid_diagram(d):
    key = torus_key(d)
    e = from_canonical_key(key)
    assert validate(e.n, e.columns) == e
    assert torus_key(e) == key
    assert canonical_key(e) == key


@PROPERTY
@given(grids())
def test_cycles_cover_each_edge_once(d):
    cycles = grid_cycles(d)
    assert component_count(d) == len(cycles)
    edges = [e for cyc in cycles for e in cyc]
    assert sorted(e[1] for e in edges if e[0] == "v") == list(range(1, d.n + 1))
    assert sorted(e[1] for e in edges if e[0] == "h") == list(range(1, d.n + 1))


@PROPERTY
@given(grids())
def test_text_round_trip(d):
    assert parse_grid(to_text(d)) == d
    assert parse_grid(json.dumps(to_json_obj(d))) == d


@PROPERTY
@given(grids(), st.data())
def test_every_listed_move_and_a_divide_are_undone_by_their_inverses(d, data):
    divide = data.draw(st.sampled_from(mv.all_divides(d)))
    for m in [*mv.available_moves(d), divide]:
        assert mv.apply(mv.apply(d, m), mv.inverse(m, d)) == d


def _fresh_rows(d: GridDiagram):
    return GridDiagram(d.n, d.columns).row_spans()


@PROPERTY
@given(grids(), st.data())
def test_kept_row_spans_match_a_fresh_derivation(d, data):
    """The row spans a diagram keeps equal those of a fresh copy, for the
    diagram, every listed move and 20 drawn divides applied to it, each of
    its eight images and its canonical key decoded."""
    divides = mv.all_divides(d)
    drawn = [divides[data.draw(st.integers(0, len(divides) - 1))] for _ in range(20)]
    assert d.row_spans() == _fresh_rows(d)
    for m in [*mv.available_moves(d), *drawn]:
        child = mv.apply(d, m)
        assert child.row_spans() == _fresh_rows(child)
    for sym in SYMMETRIES:
        image = apply_symmetry(d, sym)
        assert image.row_spans() == _fresh_rows(image)
    decoded = from_canonical_key(canonical_key(d))
    assert decoded.row_spans() == _fresh_rows(decoded)
    assert d.row_spans() == _fresh_rows(d)


@PROPERTY
@given(grids())
def test_kept_row_spans_leave_equality_hash_repr_and_copies_alone(d):
    bare, kept = GridDiagram(d.n, d.columns), GridDiagram(d.n, d.columns)
    kept.row_spans()
    assert bare == kept
    assert hash(bare) == hash(kept)
    assert repr(bare) == repr(kept)
    for x in (bare, kept):
        for twin in (copy.copy(x), pickle.loads(pickle.dumps(x))):
            assert twin == x == bare
            assert twin.row_spans() == _fresh_rows(d)


def _via_transpose(d: GridDiagram, m: mv.CromwellMove) -> GridDiagram:
    flipped = mv.apply(apply_symmetry(d, "transpose"), mv.flip_axis(m))
    return apply_symmetry(flipped, "transpose")


def _outcome(apply, d: GridDiagram, m: mv.CromwellMove) -> GridDiagram | None:
    try:
        return apply(d, m)
    except mv.InapplicableMoveError:
        return None


@PROPERTY
@given(grids(), st.data())
def test_vertical_exchanges_and_rotations_equal_the_transpose_path(d, data):
    """Every vertical exchange site, both vertical rotations, every listed
    vertical merge and one drawn vertical divide: each equals the horizontal
    move on the transpose, and so does its inverse.  An exchange or rotation
    applies exactly when it is listed."""
    v = mv.Axis.VERTICAL
    sites = [mv.interior_exchange(v, i) for i in range(1, d.n)]
    sites += [mv.exterior_exchange(v), mv.rotation(v, mv.TO_LOW), mv.rotation(v, mv.TO_HIGH)]
    listed = [m for m in mv.available_moves(d) if m.axis is v]
    merges = [m for m in listed if m.kind in (mv.MoveKind.INTERIOR_MERGE, mv.MoveKind.EXTERIOR_MERGE)]
    divide = data.draw(st.sampled_from([m for m in mv.all_divides(d) if m.axis is v]))
    transposed = apply_symmetry(d, "transpose")
    for m in [*sites, *merges, divide]:
        direct = _outcome(mv.apply, d, m)
        assert direct == _outcome(_via_transpose, d, m)
        if m in sites:
            assert (direct is not None) == (m in listed)
        if direct is not None:
            assert mv.inverse(m, d) == mv.flip_axis(mv.inverse(mv.flip_axis(m), transposed))


@st.composite
def knots(draw, min_n: int = 2, max_n: int = 12) -> GridDiagram:
    """Column i spans {sigma(i), sigma(c(i))} for a permutation sigma and an
    n-cycle c.  The walk leaves column i along row sigma(c(i)) and arrives
    at column c(i), so it visits every column: the diagram is a knot."""
    n = draw(st.integers(min_n, max_n))
    sigma = draw(st.permutations(range(1, n + 1)))
    order = draw(st.permutations(range(n)))
    cycle = {order[k]: order[(k + 1) % n] for k in range(n)}
    return validate(n, [(sigma[i], sigma[cycle[i]]) for i in range(n)])


@PROPERTY
@given(knots(), st.data())
def test_determinant_is_invariant_under_moves(d, data):
    assert component_count(d) == 1
    det = knot_determinant(d)
    divide = data.draw(st.sampled_from(mv.all_divides(d)))
    for m in [*mv.available_moves(d), divide]:
        after = mv.apply(d, m)
        if component_count(after) == 1:
            assert knot_determinant(after) == det


GOLDEN_DIGEST = "f28e796676eaf8a3edc208169428c3707b55f9420eb90e2678bba3e7a58af014"


def test_symmetry_golden_digest():
    """Images, keys and canonical forms of a fixed diagram set, byte for byte."""
    diagrams = [d for n in range(2, 6) for d in enumerate_diagrams(n).representatives]
    diagrams += [scramble(s, s % 21) for s in range(200)]
    h = hashlib.sha256()
    for d in diagrams:
        for sym in SYMMETRIES:
            e = apply_symmetry(d, sym)
            cf = canonical_form(e)
            h.update(
                to_text(e).encode()
                + canonical_key(e)
                + to_text(cf.diagram).encode()
                + cf.transform.encode()
                + bytes([cf.orbit_size])
            )
    assert h.hexdigest() == GOLDEN_DIGEST
