import dataclasses
import hashlib
import json
import os

import pytest

from gridknot import census as cs
from gridknot import moves as mv
from gridknot.grid import (
    GridDiagram,
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
    # versions 1 to 3 were one JSON object, rewritten whole after each
    # subtree; version 1 had no version field at all
    ckpt = tmp_path / "census.ckpt"
    filt = cs.CensusFilter(stuck_only=True)
    old = {
        "n": 6,
        "filter": {"knots_only": False, "stuck_only": True, "trivial_only": False},
        "done": [[1, 3]],
        "raw": 4,
        "reps": [],
    }
    for state in (old, *({**old, "version": v} for v in (1, 2, 3))):
        ckpt.write_text(json.dumps(state))
        before = ckpt.read_bytes()
        with pytest.raises(cs.CheckpointMismatchError, match="version"):
            cs.enumerate_diagrams(6, filt, checkpoint=str(ckpt))
        assert ckpt.read_bytes() == before


def _key(cols):
    return bytes([len(cols), *(r for span in cols for r in span)]).hex()


def _tampered_records():
    # a partial n = 5 checkpoint: the subtree of first span (1, 2) alone
    reps = cs.enumerate_diagrams(5).representatives
    own = [d.columns for d in reps if d.columns[0] == (1, 2)]
    other = next(d.columns for d in reps if d.columns[0] != (1, 2))
    raw = []
    raw_subtree(5, False, (1, 2), raw.append)
    image = next(d for d in raw if canonical_form(d).diagram != d)
    record = {
        "first": [1, 2],
        "raw": sum(canonical_form(GridDiagram(5, cols)).orbit_size for cols in own),
        "orbits": [_key(cols) for cols in own],
    }
    keys = record["orbits"]
    return record, {
        "not canonical": [{**record, "orbits": keys[:-1] + [_key(image.columns)]}],
        "stored twice": [{**record, "orbits": keys + keys[:1]}],
        "subtree not done": [{**record, "orbits": keys + [_key(other)]}],
        "not a diagram": [{**record, "orbits": keys[:-1] + [_key([(1, 2)] * 5)]}],
        "raw does not add up": [{**record, "orbits": keys[1:]}],
        "raw raised": [{**record, "raw": record["raw"] + 1000}],
        "not a first span": [{**record, "first": [2, 5]}],
        "recorded twice": [record, record],
        "key of another size": [{**record, "orbits": keys + [_key([(1, 2), (1, 2)])]}],
        "key not hex": [{**record, "orbits": keys + ["zz"]}],
        "no raw count": [{"first": [1, 2], "orbits": keys}],
    }


def _log(n, filt, records):
    header = {"version": cs.CHECKPOINT_VERSION, "n": n, "filter": dataclasses.asdict(filt)}
    return "".join(json.dumps(line) + "\n" for line in [header, *records])


@pytest.mark.parametrize(
    "case, match",
    [
        ("not canonical", "may not hold"),
        ("stored twice", "may not hold"),
        ("subtree not done", "may not hold"),
        ("not a diagram", "used 5 times"),
        ("raw does not add up", "add up"),
        ("raw raised", "add up"),
        ("not a first span", "not an unfinished first span"),
        ("recorded twice", "not an unfinished first span"),
        ("key of another size", "expected 5 columns"),
        ("key not hex", "not a subtree record"),
        ("no raw count", "not a subtree record"),
    ],
)
def test_census_checkpoint_rejects_tampered_state(tmp_path, case, match):
    record, tampered = _tampered_records()
    ckpt = tmp_path / "census.ckpt"
    filt = cs.CensusFilter()
    ckpt.write_text(_log(5, filt, [record]))
    assert cs.enumerate_diagrams(5, checkpoint=str(ckpt)).raw_count == RAW_COUNTS[5]
    ckpt.write_text(_log(5, filt, tampered[case]))
    before = ckpt.read_bytes()
    with pytest.raises(cs.CheckpointMismatchError, match=match):
        cs.enumerate_diagrams(5, checkpoint=str(ckpt))
    assert ckpt.read_bytes() == before


STUCK_KNOTS = cs.CensusFilter(knots_only=True, stuck_only=True)


@pytest.fixture(scope="module")
def stuck_eight_log(tmp_path_factory):
    """The n = 8 stuck knot census and the lines of its complete checkpoint."""
    ckpt = tmp_path_factory.mktemp("ckpt") / "census.ckpt"
    res = cs.enumerate_diagrams(8, STUCK_KNOTS, checkpoint=str(ckpt))
    return res, ckpt.read_bytes().splitlines(keepends=True)


def _same_census(a, b):
    return (a.summary() | {"elapsed_s": 0}, a.representatives) == (
        b.summary() | {"elapsed_s": 0},
        b.representatives,
    )


def test_knot_filter_checkpoint_refuses_a_raised_raw_count(tmp_path, stuck_eight_log):
    full, lines = stuck_eight_log
    # every orbit is recorded, links too, so every raw count can be checked
    records = [json.loads(line) for line in lines[1:]]
    assert sum(len(r["orbits"]) for r in records) == GOLDEN[8, True][1] > full.orbit_count
    assert sum(r["raw"] for r in records) == full.raw_count == 3_276
    ckpt = tmp_path / "census.ckpt"
    raised = {**records[0], "raw": records[0]["raw"] + 1000}
    ckpt.write_bytes(b"".join([lines[0], json.dumps(raised).encode() + b"\n", *lines[2:]]))
    before = ckpt.read_bytes()
    with pytest.raises(cs.CheckpointMismatchError, match="add up"):
        cs.enumerate_diagrams(8, STUCK_KNOTS, checkpoint=str(ckpt))
    assert ckpt.read_bytes() == before


@pytest.mark.parametrize("k", (0, 1, 5, 11))
def test_census_checkpoint_resumes_from_k_records(tmp_path, stuck_eight_log, k):
    full, lines = stuck_eight_log
    assert len(lines) == 12  # the header and 11 first spans
    ckpt = tmp_path / "census.ckpt"
    ckpt.write_bytes(b"".join(lines[: 1 + k]))
    assert _same_census(cs.enumerate_diagrams(8, STUCK_KNOTS, checkpoint=str(ckpt)), full)
    assert ckpt.read_bytes() == b"".join(lines)


@pytest.mark.parametrize("k", (0, 3))
def test_census_checkpoint_cuts_an_unfinished_last_line(tmp_path, stuck_eight_log, k):
    full, lines = stuck_eight_log
    ckpt = tmp_path / "census.ckpt"
    cut = lines[1 + k][: len(lines[1 + k]) // 2]
    # a tampered whole line is refused even when the last line is cut
    bad = json.dumps({**json.loads(lines[1]), "raw": 0}).encode() + b"\n"
    ckpt.write_bytes(b"".join([lines[0], bad, *lines[2 : 1 + k], cut]))
    before = ckpt.read_bytes()
    with pytest.raises(cs.CheckpointMismatchError):
        cs.enumerate_diagrams(8, STUCK_KNOTS, checkpoint=str(ckpt))
    assert ckpt.read_bytes() == before
    ckpt.write_bytes(b"".join([*lines[: 1 + k], cut]))
    assert _same_census(cs.enumerate_diagrams(8, STUCK_KNOTS, checkpoint=str(ckpt)), full)
    assert ckpt.read_bytes() == b"".join(lines)


def test_census_checkpoint_empty_file_starts_afresh(tmp_path, stuck_eight_log):
    # a run stopped before its header reached the file leaves it empty
    full, lines = stuck_eight_log
    ckpt = tmp_path / "census.ckpt"
    ckpt.write_bytes(b"")
    assert _same_census(cs.enumerate_diagrams(8, STUCK_KNOTS, checkpoint=str(ckpt)), full)
    assert ckpt.read_bytes() == b"".join(lines)


def test_census_checkpoint_records_version(tmp_path):
    ckpt = tmp_path / "census.ckpt"
    cs.enumerate_diagrams(5, cs.CensusFilter(stuck_only=True), checkpoint=str(ckpt))
    header = json.loads(ckpt.read_text().splitlines()[0])
    assert header["version"] == cs.CHECKPOINT_VERSION == 4


def test_census_checkpoint_bytes_pinned(tmp_path):
    # the header and one line per first-column subtree of the n = 6 stuck census
    ckpt = tmp_path / "census.ckpt"
    cs.enumerate_diagrams(6, cs.CensusFilter(stuck_only=True), checkpoint=str(ckpt))
    digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    assert digest == "85c4ba18b25b79d2881dda92ff98bc8e254c251326d8c1bbe9368c8925352746"


def test_verify_stuck_census_refuses_other_job_counts():
    with pytest.raises(ValueError, match="jobs must be 1"):
        cs.verify_stuck_census(5, jobs=2)


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
