"""Which gridknot functions the traced run wraps, and the per-layer metrics
derived from its spans.

Only public functions are wrapped.  Hot private helpers such as
`moves.interleaved` (about a million calls in one n=8 census) are left
alone, so the tracer's own cost stays small next to what it measures.
"""

from __future__ import annotations

from types import SimpleNamespace

from tracer import Tracer


def _states(tracer: Tracer, report) -> None:
    tracer.add("simplify.states_visited", report.states_visited)


def _raw(tracer: Tracer, result) -> None:
    tracer.add("census.raw_diagrams", result.raw_count)


def _reidemeister(tracer: Tracer, trace) -> None:
    tracer.add("realize.reidemeister_moves", len(trace.moves))


# (module, attribute, result observer); a dotted attribute names a method.
WRAPPED = (
    ("grid", "canonical_key", None),
    ("grid", "canonical_form", None),
    ("grid", "component_count", None),
    ("grid", "GridDiagram.row_spans", None),
    ("moves", "apply", None),
    ("moves", "available_moves", None),
    ("moves", "all_divides", None),
    ("simplify", "is_trivial", _states),
    ("simplify", "needs_exterior", None),
    ("simplify", "replay_witness", None),
    ("simplify", "scramble", None),
    ("census", "enumerate_diagrams", _raw),
    ("census", "verify_stuck_census", None),
    ("census", "knot_determinant", None),
    ("jumps", "verify_move_count_bound", None),
    ("jumps", "jump_decomposition", None),
    ("jumps", "sigma", None),
    ("jumps", "grid_cycles", None),
    ("realize", "realize", _reidemeister),
    ("realize", "replay", None),
    ("realize", "to_planar", None),
    ("planar", "gauss_code", None),
)

SEARCH = ("simplify.is_trivial", "simplify.needs_exterior")
CENSUS = ("census.verify_stuck_census", "census.enumerate_diagrams")

# name -> (unit, better); the order is the order of the report.
METRICS = {
    "grid.canonical_key.calls": ("count", "lower"),
    "grid.canonical_key.us_per_call": ("us", "lower"),
    "grid.canonical_key.self_frac": ("frac", "lower"),
    "grid.row_spans.calls": ("count", "lower"),
    "grid.row_spans.us_per_call": ("us", "lower"),
    "grid.component_count.us_per_call": ("us", "lower"),
    "grid.canonical_form.calls": ("count", "lower"),
    "moves.apply.calls": ("count", "lower"),
    "moves.apply.us_per_call": ("us", "lower"),
    "moves.available_moves.calls": ("count", "lower"),
    "moves.available_moves.us_per_call": ("us", "lower"),
    "moves.all_divides.calls": ("count", "lower"),
    "moves.all_divides.us_per_call": ("us", "lower"),
    "simplify.scramble.calls": ("count", "lower"),
    "simplify.scramble.us_per_call": ("us", "lower"),
    "simplify.is_trivial.calls": ("count", "lower"),
    "simplify.is_trivial.ms_per_call": ("ms", "lower"),
    "simplify.replay_witness.calls": ("count", "lower"),
    "simplify.replay_witness.us_per_call": ("us", "lower"),
    "simplify.states_visited": ("count", "lower"),
    "simplify.states_per_s": ("1/s", "higher"),
    "simplify.new_state_ratio": ("frac", "higher"),
    "simplify.bytes_per_state": ("B", "lower"),
    "census.enumerate_diagrams.calls": ("count", "lower"),
    "census.enumerate_diagrams.ms": ("ms", "lower"),
    "census.raw_diagrams": ("count", "lower"),
    "census.raw_per_s": ("1/s", "higher"),
    "census.knot_determinant.calls": ("count", "lower"),
    "census.knot_determinant.us_per_call": ("us", "lower"),
    "census.triviality_ms": ("ms", "lower"),
    "jumps.verify_move_count_bound.calls": ("count", "lower"),
    "jumps.verify_move_count_bound.us_per_call": ("us", "lower"),
    "jumps.sigma.calls": ("count", "lower"),
    "jumps.sigma.us_per_call": ("us", "lower"),
    "realize.realize.calls": ("count", "lower"),
    "realize.realize.ms_per_call": ("ms", "lower"),
    "realize.replay.ms_per_call": ("ms", "lower"),
    "realize.to_planar.us_per_call": ("us", "lower"),
    "realize.reidemeister_moves": ("count", "lower"),
    "planar.gauss_code.calls": ("count", "lower"),
    "planar.gauss_code.us_per_call": ("us", "lower"),
    "trace_overhead_frac": ("frac", "lower"),
}

# Counts that depend only on the inputs, so two traced runs of one seed
# must report them identically.
EXACT = ("simplify.states_visited", "census.raw_diagrams", "realize.reidemeister_moves")


def install(tracer: Tracer, gk: SimpleNamespace, package_modules) -> None:
    targets = []
    for mod, attr, observe in WRAPPED:
        owner = getattr(gk, mod)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        targets.append((f"{mod}.{attr}", owner, attr, observe))
    tracer.install(package_modules, targets)


_PER_CALL = {"us_per_call": 1e6, "ms_per_call": 1e3}


def layer_metrics(tracer: Tracer, traced_s: float, bytes_per_state: float) -> dict:
    """Per-layer metrics from one traced run of traced_s seconds, all but
    trace_overhead_frac, which needs an untraced run.  A per-call time reads
    0 when the function was not called.
    """
    summary = tracer.summarize()
    empty = {"calls": 0, "total": 0.0, "self": 0.0}

    def rec(name: str) -> dict:
        return summary.get(name, empty)

    out: dict = {}
    for name in METRICS:  # "<span>.calls", "<span>.us_per_call", "<span>.ms_per_call"
        span, _, kind = name.rpartition(".")
        r = rec(span)
        if kind == "calls":
            out[name] = r["calls"]
        elif kind in _PER_CALL:
            out[name] = r["total"] / r["calls"] * _PER_CALL[kind] if r["calls"] else 0.0

    search = rec("simplify.is_trivial")
    search_applies, _ = tracer.select(["moves.apply"], tracer.under(["simplify.is_trivial"]))
    states = tracer.counts.get("simplify.states_visited", 0)
    # each search's start state is visited without an apply
    new_states = states - search["calls"]
    in_census = tracer.under(CENSUS)
    census_calls, _ = tracer.select(CENSUS, in_census, invert=True)
    outermost = bytearray(c and not s for c, s in zip(in_census, tracer.under(SEARCH)))
    _, triviality_s = tracer.select(SEARCH, outermost)
    enum = rec("census.enumerate_diagrams")
    raw = tracer.counts.get("census.raw_diagrams", 0)
    out.update({
        "grid.canonical_key.self_frac": rec("grid.canonical_key")["self"] / traced_s,
        "simplify.states_visited": states,
        "simplify.states_per_s": states / search["total"] if search["total"] else 0.0,
        "simplify.new_state_ratio": new_states / search_applies if search_applies else 0.0,
        "simplify.bytes_per_state": bytes_per_state,
        "census.enumerate_diagrams.ms": enum["total"] / enum["calls"] * 1e3 if enum["calls"] else 0.0,
        "census.raw_diagrams": raw,
        "census.raw_per_s": raw / enum["total"] if enum["total"] else 0.0,
        "census.triviality_ms": triviality_s / census_calls * 1e3 if census_calls else 0.0,
        "realize.reidemeister_moves": tracer.counts.get("realize.reidemeister_moves", 0),
    })
    return {name: out[name] for name in METRICS if name in out}
