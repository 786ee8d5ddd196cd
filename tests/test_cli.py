import json

import pytest

from gridknot import cli, simplify
from gridknot.census import verify_stuck_census
from gridknot.grid import from_json_obj, to_json_obj, to_text, trivial_diagram

from oracles import eager_all_divides


@pytest.fixture
def trivial_file(tmp_path):
    path = tmp_path / "trivial.grid"
    path.write_text(to_text(trivial_diagram()))
    return str(path)


@pytest.fixture
def stuck8_file(tmp_path, stuck8):
    path = tmp_path / "stuck8.grid"
    path.write_text(to_text(stuck8))
    return str(path)


def run(capsys, *argv) -> dict:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_info_example(capsys, trivial_file):
    obj = run(capsys, "info", "--grid", trivial_file)
    assert obj == {"n": 2, "crossings": 0, "components": 1, "total_length": 4}


def test_bounds_formula(capsys):
    assert run(capsys, "bounds", "--formula", "8", "exterior_exchange") == 156
    assert run(capsys, "bounds", "--formula", "3", "rotation") == 5


def test_validate_and_render_round_trip(capsys, stuck8_file, stuck8):
    obj = run(capsys, "render", "--grid", stuck8_file, "--format", "svg")
    assert from_json_obj(obj["grid"]) == stuck8
    assert obj["text"].startswith("<svg")


def test_moves_listing(capsys, stuck8_file):
    obj = run(capsys, "moves", "--grid", stuck8_file)
    kinds = {m["kind"] for m in obj["moves"]}
    assert kinds == {"exterior_exchange", "rotation"}


def test_moves_listing_with_divides(capsys, stuck8_file):
    listed = run(capsys, "moves", "--grid", stuck8_file, "--divides")["moves"]
    plain = run(capsys, "moves", "--grid", stuck8_file)["moves"]
    assert listed[: len(plain)] == plain
    assert listed[len(plain):] == [m.to_json_obj() for m in eager_all_divides(8)]
    assert len(listed) - len(plain) == 360


def test_simplify_and_witness_replay(capsys, tmp_path, stuck8_file):
    wfile = str(tmp_path / "w.json")
    obj = run(capsys, "simplify", "--grid", stuck8_file, "--witness-out", wfile)
    assert obj["verdict"] == "trivial"
    verdict = run(capsys, "replay", "--witness", wfile)
    assert verdict["ok"] is True


def test_simplify_scramble_mode(capsys):
    obj = run(capsys, "simplify", "--seed", "5", "--steps", "6")
    assert obj["verdict"] == "trivial"


def test_simplify_negative_steps_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simplify", "--steps", "-3"])
    assert exc.value.code == 2
    assert "--steps: must be nonnegative" in capsys.readouterr().err


def test_census_summary_and_out(capsys, tmp_path):
    out = str(tmp_path / "reps.grids")
    obj = run(capsys, "census", "--n", "4", "--stuck", "--trivial", "--out", out)
    assert obj["n"] == 4
    assert obj["trivial_stuck_count"] == 0
    assert open(out).read() == ""


def test_stuck_trivial_census_out_at_eight(capsys, tmp_path):
    out = tmp_path / "reps.grids"
    obj = run(capsys, "census", "--n", "8", "--stuck", "--trivial", "--out", str(out))
    assert (obj["orbit_count"], obj["trivial_stuck_count"]) == (2, 16)
    trivial = verify_stuck_census(8).trivial_orbits
    assert out.read_text() == "".join(to_text(d) for d in trivial)
    assert len(trivial) == 2


def test_census_has_no_jobs_flag(capsys):
    # the census runs in one process; --jobs is a usage error on every command
    for argv in (["census", "--n", "5", "--jobs", "2"], ["--jobs", "1", "census", "--n", "5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_realize_and_trace_replay(capsys, tmp_path, stuck8_file):
    tfile = str(tmp_path / "trace.json")
    move = json.dumps({"kind": "exterior_exchange", "axis": "horizontal", "site": []})
    obj = run(capsys, "realize", "--grid", stuck8_file, "--move", move, "--out", tfile)
    assert obj["ok"] is True
    verdict = run(capsys, "replay", "--trace", tfile)
    assert verdict["ok"] is True and verdict["moves"] == obj["moves"]


def _tampered_trace_is_rejected(capsys, tmp_path, stuck8_file, tamper) -> None:
    tfile = tmp_path / "trace.json"
    move = json.dumps({"kind": "exterior_exchange", "axis": "horizontal", "site": []})
    run(capsys, "realize", "--grid", stuck8_file, "--move", move, "--out", str(tfile))
    obj = json.loads(tfile.read_text())
    tamper(obj)
    tfile.write_text(json.dumps(obj))
    assert cli.main(["replay", "--trace", str(tfile)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_truncated_trace_replay_fails(capsys, tmp_path, stuck8_file):
    def truncate(obj):
        assert len(obj["moves"]) > 3
        del obj["moves"][3:]

    _tampered_trace_is_rejected(capsys, tmp_path, stuck8_file, truncate)


def test_forged_trace_replay_fails(capsys, tmp_path, stuck8_file):
    def forge(obj):
        first = obj["moves"][0]
        assert first["kind"] == "r1_create"
        first["sign"] = -first["sign"]

    _tampered_trace_is_rejected(capsys, tmp_path, stuck8_file, forge)


def _replay_is_rejected(capsys, tmp_path, flag, obj) -> None:
    path = tmp_path / "record.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["replay", flag, str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_witness_without_start_is_domain_error(capsys, tmp_path):
    _replay_is_rejected(capsys, tmp_path, "--witness", {"moves": []})


def test_witness_with_moves_not_a_list_is_domain_error(capsys, tmp_path):
    start = to_json_obj(trivial_diagram())
    _replay_is_rejected(capsys, tmp_path, "--witness", {"start": start, "moves": 5})


def test_witness_with_non_integer_size_is_domain_error(capsys, tmp_path):
    start = {"n": "x", "columns": [[1, 2], [1, 2]]}
    _replay_is_rejected(capsys, tmp_path, "--witness", {"start": start, "moves": []})


NON_INTEGER_GRIDS = (
    "2\n1-a 1-2\n",
    json.dumps({"n": "x", "columns": [[1, 2], [1, 2]]}),
    json.dumps({"n": 2.9, "columns": [[1.2, 2], [1, 2.7]]}),
)


@pytest.mark.parametrize("text", NON_INTEGER_GRIDS)
def test_non_integer_grid_is_domain_error(capsys, tmp_path, text):
    path = tmp_path / "bad.grid"
    path.write_text(text)
    assert cli.main(["info", "--grid", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("value", ("abc", "nan", "inf", "0", "-5"))
def test_bad_memory_cap_is_domain_error(capsys, monkeypatch, trivial_file, value):
    monkeypatch.setenv("GRIDKNOT_LIMIT_MB", value)
    assert cli.main(["simplify", "--grid", trivial_file]) == 1
    assert capsys.readouterr().err.startswith("error: GRIDKNOT_LIMIT_MB")


def test_small_memory_cap_caps_the_search(capsys, monkeypatch, tmp_path):
    # a 7-grid trefoil whose witness search (the CLI's) stores 511 keys and
    # the verdict-only search 191; a 0.1 MB cap allows 306
    path = tmp_path / "trefoil7.grid"
    path.write_text("7\n1-3 1-6 2-4 3-7 5-7 4-6 2-5\n")
    monkeypatch.setenv("GRIDKNOT_LIMIT_MB", "0.1")
    obj = run(capsys, "simplify", "--grid", str(path))
    assert obj == {
        "verdict": "limit_exceeded",
        "states_visited": int(100_000 / simplify._STATE_BYTES_ESTIMATE),
    }


@pytest.mark.parametrize("flag, value", (("--limit-states", "50"), ("--limit-seconds", "0.001")))
def test_search_limit_flags_give_limit_exceeded(capsys, tmp_path, flag, value):
    # the 8-grid trefoil, which no search settles in 50 states or 1 ms
    path = tmp_path / "trefoil8.grid"
    path.write_text("8\n4-5 2-7 4-8 1-7 6-8 2-6 3-5 1-3\n")
    obj = run(capsys, "simplify", "--grid", str(path), flag, value)
    assert obj["verdict"] == "limit_exceeded"
    if flag == "--limit-states":
        assert obj["states_visited"] == 50


def test_trace_without_grid_is_domain_error(capsys, tmp_path):
    move = {"kind": "exterior_exchange", "axis": "horizontal", "site": []}
    _replay_is_rejected(capsys, tmp_path, "--trace", {"move": move})


BAD_MOVES = (
    {"kind": "teleport", "axis": "horizontal", "site": []},
    {"kind": "rotation", "axis": "diagonal", "site": ["high_to_low"]},
    {"axis": "horizontal", "site": []},
    {"kind": "divide", "axis": "vertical", "site": [1]},
)


@pytest.mark.parametrize("move", BAD_MOVES)
def test_bad_move_in_trace_is_domain_error(capsys, tmp_path, move):
    grid = to_json_obj(trivial_diagram())
    _replay_is_rejected(capsys, tmp_path, "--trace", {"grid": grid, "move": move})


@pytest.mark.parametrize("move", BAD_MOVES)
def test_bad_move_in_witness_is_domain_error(capsys, tmp_path, move):
    start = to_json_obj(trivial_diagram())
    _replay_is_rejected(capsys, tmp_path, "--witness", {"start": start, "moves": [move]})


@pytest.mark.parametrize("kind, site", (("interior_merge", [0]), ("exterior_merge", [4, "low"])))
def test_witness_merge_site_out_of_range_is_domain_error(capsys, tmp_path, kind, site):
    start = {"n": 3, "columns": [[1, 2], [2, 3], [1, 3]]}
    move = {"kind": kind, "axis": "vertical", "site": site}
    _replay_is_rejected(capsys, tmp_path, "--witness", {"start": start, "moves": [move]})


# On the 3-grid 1-2 2-3 1-3: an exchange with no level, and a rotation
# whose direction is neither high_to_low nor low_to_high but whose witness
# ends at the 2x2 diagram if it is read as low_to_high.
MALFORMED_SITES = (
    [{"kind": "interior_exchange", "axis": "horizontal", "site": []}],
    [
        {"kind": "rotation", "axis": "horizontal", "site": ["sideways"]},
        {"kind": "interior_merge", "axis": "horizontal", "site": [2]},
    ],
)


@pytest.mark.parametrize("moves", MALFORMED_SITES)
def test_witness_malformed_site_is_domain_error(capsys, tmp_path, moves):
    start = {"n": 3, "columns": [[1, 2], [2, 3], [1, 3]]}
    _replay_is_rejected(capsys, tmp_path, "--witness", {"start": start, "moves": moves})


def test_census_checkpoint_mismatch_exit_code(capsys, tmp_path):
    ckpt = tmp_path / "census.ckpt"
    run(capsys, "census", "--n", "4", "--checkpoint", str(ckpt))
    before = ckpt.read_bytes()
    assert cli.main(["census", "--n", "4", "--knots", "--checkpoint", str(ckpt)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert ckpt.read_bytes() == before


def test_bounds_move_report(capsys, stuck8_file):
    move = json.dumps({"kind": "rotation", "axis": "horizontal", "site": ["high_to_low"]})
    obj = run(capsys, "bounds", "--grid", stuck8_file, "--move", move)
    assert obj["holds"] is True
    assert obj["bound"] == 79


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--formula", "x", "exterior_exchange"], "N is not an integer: 'x'"),
        ([], "give either --formula N KIND, or --grid and --move"),
        (["--grid", "g.grid"], "give either --formula N KIND, or --grid and --move"),
    ],
)
def test_bounds_argument_errors_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_missing_file_is_domain_error(capsys):
    assert cli.main(["info", "--grid", "/nonexistent/x.grid"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["census"])  # missing required --n
    assert exc.value.code == 2


def test_pretty_render(capsys, trivial_file):
    code = cli.main(["render", "--grid", trivial_file, "--pretty"])
    assert code == 0
    assert capsys.readouterr().out == "+--+\n|  |\n|  |\n+--+\n"
