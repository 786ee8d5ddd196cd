"""Compare two sets of benchmark results, such as a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files that run.py writes under
perfbench/out/ (copy them aside between the two sets of runs).  For every
workload and end-to-end metric the tool prints both medians, the quartile
spread of each set as a share of its median, and the change against the
bound in BENCHMARK.json.  It flags a comparison whose runs differ in Python
version or processor count, since their numbers are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def load(directory: str) -> dict:
    """workload -> {"runs": [...], "env": {(python, nproc), ...}} for untraced runs."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        res = json.loads(path.read_text())
        entry = out.setdefault(res["workload"], {"runs": [], "env": set()})
        entry["runs"].append(res)
        entry["env"].add((res["provenance"]["python"], res["provenance"]["nproc"]))
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(base_dir: str, new_dir: str) -> int:
    base, new = load(base_dir), load(new_dir)
    worse = 0
    for name in sorted(base.keys() & new.keys()):
        envs = base[name]["env"] | new[name]["env"]
        if len(envs) > 1:
            print(f"WARNING {name}: runs differ in (python, nproc): {sorted(envs)}; not comparable")
        print(f"{name}: {len(base[name]['runs'])} base runs, {len(new[name]['runs'])} new runs")
        for metric in BENCHMARK["end_to_end"]:
            key = metric["name"]
            b = [r["metrics"][key]["value"] for r in base[name]["runs"]]
            n = [r["metrics"][key]["value"] for r in new[name]["runs"]]
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else float("nan")
            loss = change if metric["better"] == "lower" else -change
            verdict = "WORSE" if loss > metric["bound"] else "ok"
            worse += verdict == "WORSE"
            print(
                f"  {key:<12} {mb:>12.5g} -> {mn:<12.5g} {change:+8.2%}  bound {metric['bound']:.0%}"
                f"  spread {spread(b):.1%} / {spread(n):.1%}  {verdict}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
