"""Tests of the benchmark's own tracer and per-layer metrics.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, read_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

# Small pools: enough to reach every layer a workload uses.
SMALL = {"scramble_unknots": 42, "nontrivial_exhaust": 2, "stuck_census": 1, "exterior_realize": 30}

# Per workload: metrics that must be nonzero, and metrics that must be zero.
PREDICTED = {
    "scramble_unknots": (
        {"grid.canonical_key.calls", "grid.row_spans.calls", "moves.apply.calls",
         "moves.available_moves.calls", "moves.all_divides.calls", "simplify.scramble.calls",
         "simplify.is_trivial.calls", "simplify.replay_witness.calls", "simplify.states_visited",
         "simplify.bytes_per_state"},
        {"realize.realize.calls", "jumps.sigma.calls", "jumps.verify_move_count_bound.calls",
         "census.enumerate_diagrams.calls", "census.knot_determinant.calls",
         "planar.gauss_code.calls", "census.raw_diagrams", "realize.reidemeister_moves"},
    ),
    "nontrivial_exhaust": (
        {"grid.canonical_key.calls", "moves.apply.calls", "moves.available_moves.calls",
         "moves.all_divides.calls", "simplify.is_trivial.calls", "simplify.states_visited",
         "census.knot_determinant.calls", "simplify.bytes_per_state"},
        {"realize.realize.calls", "jumps.sigma.calls", "jumps.verify_move_count_bound.calls",
         "census.enumerate_diagrams.calls", "planar.gauss_code.calls", "simplify.scramble.calls",
         "simplify.replay_witness.calls", "census.raw_diagrams", "realize.reidemeister_moves"},
    ),
    "stuck_census": (
        {"census.enumerate_diagrams.calls", "census.raw_diagrams", "grid.canonical_key.calls",
         "grid.canonical_form.calls", "census.knot_determinant.calls", "census.triviality_ms",
         "simplify.is_trivial.calls", "simplify.states_visited"},
        {"realize.realize.calls", "jumps.sigma.calls", "jumps.verify_move_count_bound.calls",
         "planar.gauss_code.calls", "simplify.scramble.calls", "moves.all_divides.calls",
         "simplify.replay_witness.calls", "realize.reidemeister_moves"},
    ),
    "exterior_realize": (
        {"census.enumerate_diagrams.calls", "census.raw_diagrams",
         "jumps.verify_move_count_bound.calls", "jumps.sigma.calls", "realize.realize.calls",
         "realize.reidemeister_moves", "planar.gauss_code.calls", "grid.row_spans.calls",
         "moves.apply.calls"},
        {"simplify.is_trivial.calls", "simplify.states_visited", "simplify.scramble.calls",
         "moves.all_divides.calls", "simplify.replay_witness.calls",
         "census.knot_determinant.calls", "census.triviality_ms", "simplify.bytes_per_state"},
    ),
}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced runs of each workload on one seed."""
    out = {}
    for name, size in SMALL.items():
        wl = dataclasses.replace(WORKLOADS[name], size=size)
        runs = []
        for i in range(2):
            path = tmp_path_factory.mktemp(name) / f"run{i}.spans"
            _, metrics, _ = run.traced(wl, 3, path)
            runs.append((metrics, path))
        out[name] = runs
    return out


def _originals(gk):
    for mod, attr, _ in layers.WRAPPED:
        owner = getattr(gk, mod)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        yield f"{mod}.{attr}", vars(owner)[attr]


def _bound_objects():
    for m in run.package_modules():
        yield from vars(m).values()
    yield from vars(sys.modules["gridknot.grid"].GridDiagram).values()


def test_every_binding_site_is_wrapped_and_restored():
    gk = run.import_gridknot()
    originals = dict(_originals(gk))
    tracer = Tracer()
    layers.install(tracer, gk, run.package_modules())
    try:
        bound = list(_bound_objects())
        for name, fn in originals.items():
            assert not any(v is fn for v in bound), f"{name} left unwrapped somewhere"
        sites = {name: {getattr(s, "__name__", "") for s, _ in tracer.sites[name]} for name in originals}
        assert {"gridknot.simplify", "gridknot.census"} <= sites["grid.canonical_key"]
        assert "gridknot.census" in sites["simplify.is_trivial"]
        assert "gridknot.census" in sites["simplify.needs_exterior"]
        for fn in ("sigma", "jump_decomposition", "grid_cycles"):
            assert "gridknot.realize" in sites[f"jumps.{fn}"]
        assert {"gridknot.simplify", "gridknot.census", "gridknot.realize"} <= sites["grid.component_count"]
        assert gk.grid.GridDiagram.row_spans is not originals["grid.row_spans"]
        wrappers = [vars(s)[k] for sites in tracer.sites.values() for s, k in sites]
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        for site, key in tracer.sites[name]:
            assert vars(site)[key] is fn, f"{name} not restored at {site}.{key}"
    bound = list(_bound_objects())
    assert not any(v is w for v in bound for w in wrappers)


def test_self_time_subtracts_children(tmp_path):
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    summary = tracer.summarize()
    outer, inner = summary["outer"], summary["inner"]
    assert inner["calls"] == 2 and inner["self"] == pytest.approx(inner["total"])
    assert outer["self"] == pytest.approx(outer["total"] - inner["total"])
    path = tmp_path / "t.spans"
    tracer.write(str(path), {"test": 1})
    header, name_id, parent, start, end = read_spans(str(path))
    assert header["names"] == ["outer", "inner"] and list(parent) == [-1, 0, 0]
    assert list(start) == list(tracer.start) and list(end) == list(tracer.end)


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == layers.METRICS


@pytest.mark.parametrize("name", list(SMALL))
def test_calls_where_the_map_predicts_work(traced_runs, name):
    metrics, path = traced_runs[name][0]
    assert list(metrics) == list(layers.METRICS)
    nonzero, zero = PREDICTED[name]
    assert {k for k in nonzero if not metrics[k]} == set()
    assert {k for k in zero if metrics[k]} == set()
    header = read_spans(str(path))[0]
    assert header["spans"] > 0 and header["meta"]["workload"] == name


@pytest.mark.parametrize("name", list(SMALL))
def test_exact_counts_repeat(traced_runs, name):
    (first, _), (second, _) = traced_runs[name]
    for key in layers.EXACT:
        assert first[key] == second[key], key
    calls = [k for k in layers.METRICS if k.endswith(".calls")]
    assert {k: first[k] for k in calls} == {k: second[k] for k in calls}
