"""Compare two sets of benchmark results, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON files ``run.py`` writes to ``perfbench/results/``.
For every workload and end-to-end metric the script prints both medians, the
change, each side's quartile spread, and a verdict against the metric's bound
in ``BENCHMARK.json``:

* ``worse`` -- the new median is worse than the base median by more than the bound;
* ``unresolved`` -- either side's spread exceeds the bound, and not every new
  run beats every base run;
* ``ok`` otherwise.

Sample matrices whose hashes differ between the two sides at the same
workload and seed are listed.  Results whose environment headers differ
(anything but commit and seed) are flagged, because their timings are not
comparable.  The exit code is 1 when a metric is worse or a header differs,
else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: header fields that differ between runs by design
VARYING = ("commit", "seed")


def load(directory: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def header(record: dict) -> dict:
    return {k: v for k, v in record["environment"].items() if k not in VARYING}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [load(d) for d in argv]
    status = 0

    headers = {json.dumps(header(r), sort_keys=True) for side in sides for r in side}
    if len(headers) > 1:
        status = 1
        print("HEADERS DIFFER: these results come from different environments")
        for h in sorted(headers):
            print(f"  {h}")

    values = [defaultdict(list), defaultdict(list)]
    for side, vals in zip(sides, values):
        for r in side:
            if r["trace"] == 0:
                for name, m in r["result"]["metrics"].items():
                    vals[r["workload"], name].append(m["value"])

    print(f"{'workload':<17} {'metric':<20} {'base':>11} {'new':>11} {'change':>8} "
          f"{'spread':>13}  verdict")
    for w in bench["workloads"]:
        for d in bench["end_to_end"]:
            base, new = values[0][w["name"], d["name"]], values[1][w["name"], d["name"]]
            if not base or not new:
                continue
            mb, mn = statistics.median(base), statistics.median(new)
            change = (mn - mb) / mb
            worse = change if d["better"] == "lower" else -change
            beats_all = (max(new) < min(base)) if d["better"] == "lower" \
                else (min(new) > max(base))
            if worse > d["bound"]:
                verdict = "worse"
                status = 1
            elif max(spread(base), spread(new)) > d["bound"] and not beats_all:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{w['name']:<17} {d['name']:<20} {mb:>11.5g} {mn:>11.5g} {change:>+8.1%} "
                  f"{spread(base):>6.1%}/{spread(new):<6.1%}  {verdict} "
                  f"(n={len(base)}/{len(new)}, bound {d['bound']:.0%})")

    # bit changes are reported, not gated: an explained change may alter them
    hashes = [{(r["workload"], r["environment"]["seed"]): r["hashes"] for r in side}
              for side in sides]
    for key in sorted(hashes[0].keys() & hashes[1].keys()):
        base, new = hashes[0][key], hashes[1][key]
        changed = sorted(k for k in base.keys() | new.keys() if base.get(k) != new.get(k))
        if changed:
            print(f"samples differ: {key[0]} seed {key[1]}: {', '.join(changed)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
