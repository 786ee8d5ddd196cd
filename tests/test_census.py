import hashlib
import json
import os

import pytest

from gridknot import census as cs
from gridknot import moves as mv
from gridknot.grid import (
    GridDiagram,
    GridError,
    canonical_form,
    canonical_key,
    component_count,
    to_text,
    trivial_diagram,
    validate,
)
from gridknot.simplify import NotAKnotError, scramble

from conftest import knot_reps
from oracles import fox_colorings, naive_census, raw_subtree

RAW_COUNTS = {2: 1, 3: 6, 4: 90, 5: 2040}


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_raw_counts_match_oracle(n):
    res = cs.enumerate_diagrams(n)
    assert res.raw_count == RAW_COUNTS[n]
    if n <= 4:
        assert res.raw_count == len(naive_census(n))


@pytest.mark.parametrize("n", (2, 3, 4))
def test_representatives_match_oracle_orbits(n):
    res = cs.enumerate_diagrams(n)
    oracle = {canonical_form(d).diagram.columns for d in naive_census(n)}
    assert {d.columns for d in res.representatives} == oracle


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_orbit_sizes_reconcile_to_raw(n):
    res = cs.enumerate_diagrams(n)
    assert sum(canonical_form(d).orbit_size for d in res.representatives) == res.raw_count


# pinned from the enumerator as it was before the first-column mirror cut;
# (9, True) before the neighbour-row look-ahead
GOLDEN = {
    (6, False): (67_950, 8_791, "9916c8f3c4e24700"),
    (7, True): (382, 68, "e9abeb2d9dbf8a8b"),
    (8, True): (3_276, 495, "db751271acf1cf4f"),
    (9, True): (35_790, 4_808, "2e2121d009faac58"),
}


@pytest.mark.parametrize("n, stuck", sorted(GOLDEN))
def test_golden_census(n, stuck):
    res = cs.enumerate_diagrams(n, cs.CensusFilter(stuck_only=stuck))
    text = "".join(to_text(d) for d in res.representatives)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (res.raw_count, res.orbit_count, digest) == GOLDEN[n, stuck]


STRETCH = (
    pytest.mark.stretch,
    pytest.mark.skipif(
        not os.environ.get("GRIDKNOT_STRETCH"),
        reason="3.1M raw diagrams; set GRIDKNOT_STRETCH=1 to run",
    ),
)
MIRROR_CASES = [(n, stuck) for n in range(2, 8) for stuck in (False, True)]
MIRROR_CASES += [(8, True), (9, True)]


@pytest.mark.parametrize(
    "n, stuck",
    [pytest.param(*c, marks=STRETCH) if c == (7, False) else c for c in MIRROR_CASES],
)
def test_first_span_subtree_counts_equal_their_mirrors(n, stuck):
    spans = cs._tables(n, stuck)[0]
    raw = {s: raw_subtree(n, stuck, s, lambda d: None) for s in spans}
    for lo, hi in spans:
        assert raw[lo, hi] == raw[n + 1 - hi, n + 1 - lo], (lo, hi)
    # the census's raw count, a sum of orbit sizes, is the reference count
    census = cs.enumerate_diagrams(n, cs.CensusFilter(stuck_only=stuck))
    assert census.raw_count == sum(raw.values())


ORBIT_CASES = [(n, False) for n in range(2, 7)] + [(n, True) for n in range(5, 10)]


@pytest.mark.parametrize("n, stuck", ORBIT_CASES)
def test_carried_orbit_sizes_match_canonical_form(n, stuck):
    carried = [rep for span in cs._first_spans(n, stuck) for rep in cs._subtree(n, stuck, span)]
    assert carried
    for cols, orbit in carried:
        cf = canonical_form(GridDiagram(n, cols))
        assert (cf.diagram.columns, cf.orbit_size) == (cols, orbit)


def test_knot_count_at_three():
    res = cs.enumerate_diagrams(3, cs.CensusFilter(knots_only=True))
    assert res.knot_count == 6


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_max_stats_match_formulas(n):
    from gridknot.grid import max_crossings_bound, max_length_bound

    assert cs.max_stats(n) == (max_crossings_bound(n), max_length_bound(n))


@pytest.mark.parametrize("n", (3, 4, 5, 6, pytest.param(7, marks=STRETCH)))
def test_stuck_pruning_equals_post_filtering(n):
    pruned = cs.enumerate_diagrams(n, cs.CensusFilter(stuck_only=True))

    def is_stuck(d):
        kinds = {m.kind for m in mv.available_moves(d)}
        return not kinds & {
            mv.MoveKind.INTERIOR_MERGE,
            mv.MoveKind.EXTERIOR_MERGE,
            mv.MoveKind.INTERIOR_EXCHANGE,
        }

    unpruned = cs.enumerate_diagrams(n)
    filtered = {d.columns for d in unpruned.representatives if is_stuck(d)}
    assert {d.columns for d in pruned.representatives} == filtered


def test_determinant_examples(trefoil5):
    assert cs.knot_determinant(trivial_diagram()) == 1
    assert cs.knot_determinant(validate(3, [(1, 2), (1, 3), (2, 3)])) == 1
    assert cs.knot_determinant(trefoil5) == 3
    for seed in range(12):
        assert cs.knot_determinant(scramble(seed, seed % 15)) == 1


def test_determinant_rejects_links():
    with pytest.raises(NotAKnotError):
        cs.knot_determinant(validate(4, [(1, 2), (1, 2), (3, 4), (3, 4)]))


def test_five_grid_determinant_histogram():
    dets = {}
    for d in knot_reps(5):
        dets[cs.knot_determinant(d)] = dets.get(cs.knot_determinant(d), 0) + 1
    assert set(dets) == {1, 3}
    assert dets[3] == 3  # the trefoil orbits


@pytest.mark.parametrize("n", (3, 4, 5))
def test_determinant_invariant_under_moves(n):
    for d in knot_reps(n):
        det = cs.knot_determinant(d)
        for m in mv.available_moves(d):
            after = mv.apply(d, m)
            if component_count(after) == 1:
                assert cs.knot_determinant(after) == det


def test_determinant_consistent_with_coloring_oracle(trefoil5):
    samples = knot_reps(4) + [trefoil5]
    for d in samples:
        det = cs.knot_determinant(d)
        for p in (2, 3, 5):
            colorings = fox_colorings(d, p)
            if det % p == 0:
                assert colorings > p
            else:
                assert colorings == p


def test_determinant_golden_digest():
    # knot_determinant over the n = 2..6 knot census representatives, in order
    lines = [
        json.dumps([n, [list(c) for c in d.columns], cs.knot_determinant(d)])
        for n in range(2, 7)
        for d in cs.enumerate_diagrams(n, cs.CensusFilter(knots_only=True)).representatives
    ]
    assert len(lines) == 5734
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "3aca2173f9249406"


def test_stuck_eight_determinant_histogram():
    filt = cs.CensusFilter(knots_only=True, stuck_only=True)
    dets = {}
    for d in cs.enumerate_diagrams(8, filt).representatives:
        det = cs.knot_determinant(d)
        dets[det] = dets.get(det, 0) + 1
    assert dets == {1: 6, 3: 1, 5: 5, 7: 39, 9: 62, 11: 59, 13: 57, 15: 62}


def test_stuck_census_at_five():
    rep = cs.verify_stuck_census(5)
    assert rep.stuck_knot_orbits == 3
    assert rep.trivial_orbits == []


def test_stuck_trivial_census_at_eight():
    filt = cs.CensusFilter(knots_only=True, stuck_only=True, trivial_only=True)
    res = cs.enumerate_diagrams(8, filt)
    assert (res.orbit_count, res.trivial_stuck_count) == (2, 16)
    report = cs.verify_stuck_census(8)
    assert res.representatives == report.trivial_orbits
    summary = report.summary()
    del summary["elapsed_s"]
    assert summary == {
        "n": 8,
        "stuck_knot_orbits": 291,
        "trivial_stuck_orbits": 2,
        "trivial_stuck_raw": 16,
        "all_admit_both_exterior_exchanges": True,
        "all_need_exterior": True,
    }


def test_census_checkpoint_resume(tmp_path):
    ckpt = str(tmp_path / "census.ckpt")
    full = cs.enumerate_diagrams(4, checkpoint=ckpt)
    resumed = cs.enumerate_diagrams(4, checkpoint=ckpt)
    assert resumed.raw_count == full.raw_count
    assert [d.columns for d in resumed.representatives] == [
        d.columns for d in full.representatives
    ]


def test_census_checkpoint_rejects_other_filter(tmp_path):
    ckpt = tmp_path / "census.ckpt"
    cs.enumerate_diagrams(5, cs.CensusFilter(stuck_only=True), checkpoint=str(ckpt))
    before = ckpt.read_bytes()
    with pytest.raises(cs.CheckpointMismatchError):
        cs.enumerate_diagrams(5, cs.CensusFilter(knots_only=True), checkpoint=str(ckpt))
    assert ckpt.read_bytes() == before


def test_census_checkpoint_rejects_other_size(tmp_path):
    ckpt = tmp_path / "census.ckpt"
    cs.enumerate_diagrams(5, checkpoint=str(ckpt))
    before = ckpt.read_bytes()
    with pytest.raises(cs.CheckpointMismatchError):
        cs.enumerate_diagrams(4, checkpoint=str(ckpt))
    assert ckpt.read_bytes() == before


def test_census_checkpoint_rejects_old_format(tmp_path):
    # a first-format checkpoint: no version, and done subtrees counted alone
    ckpt = tmp_path / "census.ckpt"
    filt = cs.CensusFilter(stuck_only=True)
    old = {
        "n": 6,
        "filter": {"knots_only": False, "stuck_only": True, "trivial_only": False},
        "done": [[1, 3]],
        "raw": 4,
        "reps": [],
    }
    ckpt.write_text(json.dumps(old))
    before = ckpt.read_bytes()
    with pytest.raises(cs.CheckpointMismatchError, match="version"):
        cs.enumerate_diagrams(6, filt, checkpoint=str(ckpt))
    assert ckpt.read_bytes() == before
    # version 2 credited a subtree twice its own raw count for its mirror
    for version in (1, 2):
        ckpt.write_text(json.dumps({**old, "version": version}))
        with pytest.raises(cs.CheckpointMismatchError, match="version"):
            cs.enumerate_diagrams(6, filt, checkpoint=str(ckpt))


def _tampered_states():
    # a partial n = 5 checkpoint: the subtree of first span (1, 2) alone
    reps = [[list(s) for s in d.columns] for d in cs.enumerate_diagrams(5).representatives]
    own = [cols for cols in reps if cols[0] == [1, 2]]
    other = next(cols for cols in reps if cols[0] != [1, 2])
    raw = []
    raw_subtree(5, False, (1, 2), raw.append)
    image = next(d for d in raw if canonical_form(d).diagram != d)
    return own, {
        "not canonical": own[:-1] + [[list(s) for s in image.columns]],
        "stored twice": own + own[:1],
        "subtree not done": own + [other],
        "not a diagram": own[:-1] + [[[1, 2]] * 5],
        "raw does not add up": own[1:],
    }


@pytest.mark.parametrize(
    "case, match",
    [
        ("not canonical", "may not hold"),
        ("stored twice", "may not hold"),
        ("subtree not done", "may not hold"),
        ("not a diagram", "used 5 times"),
        ("raw does not add up", "add up"),
    ],
)
def test_census_checkpoint_rejects_tampered_state(tmp_path, case, match):
    own, tampered = _tampered_states()
    ckpt = tmp_path / "census.ckpt"
    good = {
        "version": cs.CHECKPOINT_VERSION,
        "n": 5,
        "filter": {"knots_only": False, "stuck_only": False, "trivial_only": False},
        "done": [[1, 2]],
        "raw": sum(canonical_form(GridDiagram(5, tuple(map(tuple, c)))).orbit_size for c in own),
    }
    ckpt.write_text(json.dumps({**good, "reps": own}))
    assert cs.enumerate_diagrams(5, checkpoint=str(ckpt)).raw_count == RAW_COUNTS[5]
    ckpt.write_text(json.dumps({**good, "reps": tampered[case]}))
    before = ckpt.read_bytes()
    with pytest.raises(GridError, match=match):
        cs.enumerate_diagrams(5, checkpoint=str(ckpt))
    assert ckpt.read_bytes() == before


def test_knot_filter_checkpoint_holds_knots_only(tmp_path):
    ckpt = tmp_path / "census.ckpt"
    filt = cs.CensusFilter(knots_only=True)
    res = cs.enumerate_diagrams(5, filt, checkpoint=str(ckpt))
    state = json.loads(ckpt.read_text())
    stored = [validate(5, cols) for cols in state["reps"]]
    assert len(stored) == res.orbit_count and all(component_count(d) == 1 for d in stored)
    assert state["raw"] == res.raw_count == RAW_COUNTS[5]
    # a link smuggled into the same checkpoint is refused
    link = next(d for d in cs.enumerate_diagrams(5).representatives if component_count(d) > 1)
    ckpt.write_text(json.dumps({**state, "reps": state["reps"] + [list(map(list, link.columns))]}))
    with pytest.raises(cs.CheckpointMismatchError, match="may not hold"):
        cs.enumerate_diagrams(5, filt, checkpoint=str(ckpt))


def test_census_checkpoint_records_version(tmp_path):
    ckpt = tmp_path / "census.ckpt"
    cs.enumerate_diagrams(5, cs.CensusFilter(stuck_only=True), checkpoint=str(ckpt))
    assert json.loads(ckpt.read_text())["version"] == cs.CHECKPOINT_VERSION == 3


def test_census_checkpoint_bytes_pinned(tmp_path):
    # the whole state, written after the last subtree of the n = 6 stuck census
    ckpt = tmp_path / "census.ckpt"
    cs.enumerate_diagrams(6, cs.CensusFilter(stuck_only=True), checkpoint=str(ckpt))
    digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    assert digest == "5a584f60377cd9d978cae9689f284875516d2482bcc4328eb6d24f0cb8c5d959"


def test_census_jobs_deterministic():
    one = cs.enumerate_diagrams(5, jobs=1)
    many = cs.enumerate_diagrams(5, jobs=2)
    assert one.raw_count == many.raw_count
    assert [d.columns for d in one.representatives] == [
        d.columns for d in many.representatives
    ]


def _exterior_axes(d):
    return {m.axis for m in mv.available_moves(d) if m.kind is mv.MoveKind.EXTERIOR_EXCHANGE}


def test_only_exterior_horizontal_orbits_match_raw_scan():
    # every raw stuck diagram at n=8, each first span enumerated on its own
    raw_scan = set()

    def visit(d):
        if component_count(d) == 1 and _exterior_axes(d) == {mv.Axis.HORIZONTAL}:
            raw_scan.add(canonical_key(d))

    for span in cs._tables(8, True)[0]:
        raw_subtree(8, True, span, visit)
    reps = cs.enumerate_diagrams(8, cs.CensusFilter(knots_only=True, stuck_only=True))
    found = set()
    for d in reps.representatives:
        image = cs._only_exterior_horizontal_image(d)
        if image is not None:
            assert canonical_key(image) == canonical_key(d)
            assert _exterior_axes(image) == {mv.Axis.HORIZONTAL}
            found.add(canonical_key(d))
    assert found == raw_scan
    assert len(found) == 60


def test_no_trivial_eight_grid_admits_only_the_exterior_horizontal_exchange():
    # both stuck trivial orbits at n=8 admit both exterior exchanges in every image
    assert cs.find_only_exterior_horizontal(8) is None
