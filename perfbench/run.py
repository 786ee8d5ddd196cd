"""gridknot benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one process each

With --trace 0 the run sets up its inputs several times (setup_s is the
median), then runs whole passes over the input pool until --seconds have
passed, checking every output, and reports the end-to-end metrics of the
slowest pass.  With
--trace 1 it wraps the library's public functions (see layers.py), runs
setup and one pass traced, repeats the pass untraced to price the tracing,
runs a separate tracemalloc pass for bytes per search state, and reports the
per-layer metrics.  The last line of standard output is the result as JSON;
the result with its provenance, and the spans of a traced run, are written
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from tracer import Tracer, rebind  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("grid", "moves", "simplify", "census", "jumps", "realize", "planar")
DEFAULT_SEED = 1
MIN_SETUPS = 3
SETUP_BUDGET_S = 1.0  # cheap set-ups repeat until this much time is spent
MAX_SETUPS = 20
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


class NoResult(RuntimeError):
    """The run cannot produce a result, e.g. the program is missing."""


# --- the program under test ---------------------------------------------------


def package_modules() -> list:
    return [m for k, m in sys.modules.items() if k == "gridknot" or k.startswith("gridknot.")]


def import_gridknot() -> SimpleNamespace:
    """Fresh import of the checkout's gridknot; a repeated call re-executes
    the package's modules, so each set-up round pays the import again."""
    for mod in package_modules():
        del sys.modules[mod.__name__]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        gk = SimpleNamespace(**{m: importlib.import_module(f"gridknot.{m}") for m in MODULES})
    except ImportError as exc:
        raise NoResult(f"cannot import gridknot from {src}: {exc}") from exc
    origin = Path(sys.modules["gridknot"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise NoResult(f"gridknot was imported from {origin}, not from {src}")
    return gk


# --- provenance -----------------------------------------------------------------


def _loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> dict:
    # git only inside a git checkout of its own, never a repository above it
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain") if sha else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "loadavg_start": _loadavg(),
        "seed": seed,
    }


# --- running items -------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.samples: list[float] = []
        self.passes: list[tuple[float, int]] = []  # (seconds, correct items)


def run_pass(wl, gk, items, tally: Tally, tracer: Tracer | None = None) -> float:
    """One pass over the pool; returns the summed item time.  An exception or
    a wrong output counts as a failed item and is reported, never dropped."""
    busy, ok = 0.0, 0
    for item in items:
        error = None
        with tracer.span("bench.item") if tracer else nullcontext():
            t0 = perf_counter()
            try:
                out = wl.run(gk, item)
            except Exception:
                error = traceback.format_exc()
            dt = perf_counter() - t0
        if error is None:
            try:
                if not wl.check(gk, item, out):
                    error = f"wrong output {out!r}"
            except Exception:
                error = traceback.format_exc()
        busy += dt
        tally.attempted += 1
        tally.samples.append(dt)
        if error is None:
            ok += 1
        else:
            tally.failed += 1
            print(f"FAILED {wl.name} item {item!r}: {error}", file=sys.stderr)
    tally.passes.append((busy, ok))
    return busy


def timed_setups(wl, seed: int):
    """Set up at least MIN_SETUPS times, and more while cheap; the inputs of
    the last round are used."""
    times: list[float] = []
    while len(times) < MIN_SETUPS or (sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS):
        t0 = perf_counter()
        gk = import_gridknot()
        items = wl.setup(gk, seed, wl.size)
        times.append(perf_counter() - t0)
        gc.collect()  # frees the previous round's modules, so peak memory does not grow with rounds
    return gk, items, times


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, samples beyond it) for the highest percentile
    in TAIL_PERCENTILES with at least 10 samples beyond it, or None."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-n * p // 100)  # nearest-rank percentile, 1-based
        if n - rank >= 10:
            return p, ordered[int(rank) - 1], n - int(rank)
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --- the two kinds of run ------------------------------------------------------


def end_to_end(wl, seed: int, seconds: float) -> tuple[Tally, dict, list[str]]:
    gk, items, setups = timed_setups(wl, seed)
    tally = Tally()
    t0 = perf_counter()
    while True:
        run_pass(wl, gk, items, tally)
        if perf_counter() - t0 >= seconds:
            break
    # The slowest pass: on a host whose processor speeds up in bursts from
    # outside the process, it is the pass that ran at base speed.
    slow = max(range(len(tally.passes)), key=lambda i: tally.passes[i][0])
    busy, ok = tally.passes[slow]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": busy,
        "items_per_s": ok / busy,
        "item_ms_p50": statistics.median(tally.samples[slow * len(items):(slow + 1) * len(items)]) * 1e3,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    n_items = len(tally.samples)
    slowest = f"slowest of {len(tally.passes)} passes of {len(items)} items"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": slowest,
        "items_per_s": slowest,
        "item_ms_p50": slowest,
        "ok_frac": f"{n_items} items",
        "peak_rss_mb": "whole process",
    }
    lines = [_line(k, v, UNITS[k], notes[k]) for k, v in metrics.items()]
    t = tail(tally.samples)
    if t is None:
        lines.append(f"  item_ms_tail  omitted: fewer than 10 of {n_items} items beyond p{TAIL_PERCENTILES[-1]:g}")
    else:
        p, value, beyond = t
        lines.append(_line(f"item_ms_p{p:g}", value * 1e3, "ms", f"{n_items} items, {beyond} beyond"))
    return tally, metrics, lines


def probe_bytes_per_state(wl, gk, items, tally: Tally) -> float:
    """tracemalloc peak of each is_trivial call over the states it visited,
    in a pass of its own so that tracemalloc slows no timed number.  The
    pass covers the first quarter of the pool, as tracemalloc slows the
    search several times over."""
    peak, states = 0, 0
    original = gk.simplify.is_trivial

    def probed(*args, **kwargs):
        nonlocal peak, states
        tracemalloc.start()
        try:
            report = original(*args, **kwargs)
            peak += tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states += report.states_visited
        return report

    sites = rebind(package_modules(), gk.simplify, "is_trivial", probed)
    try:
        run_pass(wl, gk, items[: max(1, len(items) // 4)], tally)
    finally:
        for site, key in sites:
            setattr(site, key, original)
    return peak / states if states else 0.0


def traced(wl, seed: int, spans_path: Path) -> tuple[Tally, dict, list[str]]:
    gk = import_gridknot()
    tracer = Tracer()
    tally = Tally()
    layers.install(tracer, gk, package_modules())
    try:
        t0 = perf_counter()
        with tracer.span("bench.setup"):
            items = wl.setup(gk, seed, wl.size)
        traced_batch = run_pass(wl, gk, items, tally, tracer)
        traced_s = perf_counter() - t0
    finally:
        tracer.uninstall()
    untraced_batch = run_pass(wl, gk, items, tally)
    searched = tracer.counts.get("simplify.states_visited", 0)
    bytes_per_state = probe_bytes_per_state(wl, gk, items, tally) if searched else 0.0
    metrics = layers.layer_metrics(tracer, traced_s, bytes_per_state)
    metrics["trace_overhead_frac"] = traced_batch / untraced_batch - 1.0
    tracer.write(str(spans_path), {"workload": wl.name, "seed": seed})
    lines = [_line(k, v, layers.METRICS[k][0], "") for k, v in metrics.items()]
    lines.append(f"  spans         {len(tracer.start)} written to {spans_path}")
    return tally, metrics, lines


UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def _line(name: str, value, unit: str, note: str) -> str:
    return f"  {name:<42} {value:>14.6g} {unit:<6} {note}".rstrip()


# --- entry point ---------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    wl = WORKLOADS[name]
    prov = provenance(seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    if trace:
        # one spans file per workload, overwritten by its next traced run
        tally, metrics, lines = traced(wl, seed, OUT / f"{name}.spans")
        units = {k: layers.METRICS[k][0] for k in metrics}
    else:
        tally, metrics, lines = end_to_end(wl, seed, seconds)
        units = UNITS
    prov["loadavg_end"] = _loadavg()
    print(
        f"workload {name}  seed {seed}  trace {trace}  python {prov['python']}  "
        f"nproc {prov['nproc']}  git {prov['git_sha'] or 'unknown'}"
        f"{' (dirty)' if prov['git_dirty'] else ''}  "
        f"loadavg {prov['loadavg_start']} -> {prov['loadavg_end']}"
    )
    for line in lines:
        print(line)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    raw = {"pass_s": [busy for busy, _ in tally.passes], "item_s": tally.samples}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"workload": name, "provenance": prov, **result, "raw": raw}, fh)
    return result


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        args = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(args, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise NoResult(f"workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
