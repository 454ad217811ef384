"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload heavy_tail --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout; it benchmarks the ``stablediff`` sources
under ``src/`` of that checkout and fails if they are missing.  A run repeats the
workload pipeline for about ``--seconds`` seconds and reports medians over
the repetitions.  Every time is scaled to a reference host speed by the
probes of ``hostclock.ScaledClock``, which take out the shared host's changes
of speed; the unscaled wall times are printed beside them and, traced, reported
as ``host.*`` metrics.  Repetition i draws its inputs from seed
``seed * 2**20 + i``, so a run's medians average over several input sets as
well as over machine noise.  Before each repetition the run times cold
set-ups of the workload's laws; ``setup_s`` is their median.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` follows each
untraced pipeline with a traced one on the same inputs, prints the per-module
metrics taken from the spans, and adds the thread-scaling rows.  Human-readable lines come first; the
last line of standard output is the JSON result.  The full result (with the
environment header, every verdict, the sample hashes and, when traced, the
spans) is also written to ``perfbench/results/``.

``--write-pins`` stores this run's sample hashes as the pins for its seed in
``perfbench/pins.json``, which also lists the known validation failures.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
RESULTS = HERE / "results"

#: cold set-ups timed before each pipeline (at least this many, and for at
#: least this long); setup_s is the median of all of them, so the samples are
#: spread over the whole run
SETUP_REPEATS = 2
SETUP_SECONDS = 0.25

#: validation checks that are deterministic: failing one makes the run
#: incorrect.  The statistical checks (the CF band, alpha_hat, KS at the 1%
#: level) can miss at an unlucky seed, so one miss does not; they are counted
#: in checks_passed_share, whose median over seeds is gated by its bound.
DETERMINISTIC_CHECKS = ("sigma_sq",)

#: the run is incorrect when more than this share of its statistical checks
#: fails, known failures aside.  A sound engine misses a few percent of them
#: (alpha_hat is the loosest, at about one seed in seven); a broken one misses
#: most.
MAX_MISSED_SHARE = 0.25


def use_checkout_sources() -> None:
    """Import ``stablediff`` from this checkout's ``src/``, nowhere else."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import stablediff

    origin = Path(stablediff.__file__).resolve().parent
    if origin != ROOT / "src" / "stablediff":
        raise ImportError(f"stablediff imported from {origin}, not from this checkout")


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import stablediff
    from workloads import nproc

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "stablediff": stablediff.__version__,
        "commit": _commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Sizes of the unified L2 and L3 caches of CPU 0, as the kernel reports them."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Unified" and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def _is_known(check: dict, known: list) -> bool:
    return any(k["column"] == check["column"] and k["check"] == check["check"]
               for k in known)


def rep_seed_of(seed: int, rep: int) -> int:
    """Input seed of repetition ``rep`` of a run with workload seed ``seed``."""
    return seed * 2 ** 20 + rep


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up timings, then pipelines until the time is used; see the module doc."""
    from tracing import Tracer
    from workloads import (layer_metrics, run_pipeline, set_up, setup_seconds,
                           thread_scaling)

    run_id = uuid.uuid4().hex
    deadline = time.perf_counter() + seconds
    set_up(workload)  # untimed warm-up: pays the process's first-call costs
    setup, plain, traced = [], [], []
    while True:
        t0 = time.perf_counter()
        setup += setup_seconds(workload, SETUP_REPEATS, SETUP_SECONDS)
        rep_seed = rep_seed_of(seed, len(plain))
        plain.append(run_pipeline(workload, rep_seed))
        if trace:
            tr = Tracer(run_id)
            traced.append((run_pipeline(workload, rep_seed, tr), tr))
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    out = {"run_id": run_id, "setup": setup, "plain": plain, "traced": traced}
    if trace:
        out["layers"] = [layer_metrics(workload, res, tr) for res, tr in traced]
        out["scaling"] = thread_scaling(workload, seed)
    return out


def evaluate(workload: str, seed: int, m: dict, pins: dict) -> dict:
    """Correctness of the outputs, and the report of every check."""
    import numpy as np

    plain = m["plain"]
    first = plain[0]
    problems = []
    if any(p.hashes != t.hashes for p, (t, _) in zip(plain, m["traced"])):
        problems.append("a traced pipeline gave other samples than the untraced one")
    for i, res in enumerate(plain):
        for key, values in res.samples.items():
            if not values.size or not np.isfinite(values).all():
                problems.append(f"repetition {i}: {key} is empty or not finite")
        if res.ops_failed:
            problems.append(f"repetition {i}: {res.ops_failed} library calls raised")
        for c in res.checks:
            if c["check"] in DETERMINISTIC_CHECKS and not c["passed"]:
                problems.append(f"repetition {i}: {c['column']} {c['check']} failed")
    known = pins.get("known_failures", {}).get(workload, [])
    unexpected = [c for c in first.checks if not c["passed"] and not _is_known(c, known)]
    statistical = [c for res in plain for c in res.checks
                   if c["check"] not in DETERMINISTIC_CHECKS + ("raised",)
                   and not _is_known(c, known)]
    missed = sum(not c["passed"] for c in statistical)
    if missed > MAX_MISSED_SHARE * len(statistical):
        problems.append(f"{missed} of {len(statistical)} statistical checks failed "
                        "outside the known failures")
    for eng, row in m.get("scaling", {}).items():
        if not row["identical"]:
            problems.append(f"{eng}: threads=1 and threads=nproc outputs differ")
    pinned = pins.get("hashes", {}).get(workload, {}).get(str(seed))
    hash_report = {k: ("no pin" if pinned is None else
                       "match" if pinned.get(k) == h else "DIFFERS")
                   for k, h in first.hashes.items()}
    return {"correct": not problems, "problems": problems, "hash_report": hash_report,
            "unexpected": unexpected}


def end_to_end(m: dict) -> dict:
    plain = m["plain"]
    return {
        "verdict_s": statistics.median(r.verdict_s for r in plain),
        "paths_per_s": statistics.median(r.n_rows / r.sample_s for r in plain),
        "setup_s": statistics.median(m["setup"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks_passed_share": statistics.mean(
            1.0 - r.checks_failed / len(r.checks) for r in plain),
    }


def per_layer(m: dict) -> dict:
    layers = m["layers"]
    out = {k: statistics.median(x[k] for x in layers) for k in layers[0]}
    # each traced pipeline runs right after its untraced twin on the same
    # inputs, so paired differences cancel most of the host's slow drift.
    # Span times are wall times, so these use the unscaled pipeline times.
    pairs = [(p.verdict_wall_s, t.verdict_wall_s, x["trace.module_self_s"])
             for p, (t, _), x in zip(m["plain"], m["traced"], layers)]
    out["trace.overhead_s"] = statistics.median(t - p for p, t, _ in pairs)
    out["trace.unaccounted_s"] = statistics.median(p - s for p, _, s in pairs)
    out["host.verdict_wall_s"] = statistics.median(p for p, _, _ in pairs)
    out["host.probe_ms"] = 1e3 * statistics.median(
        x for r in m["plain"] for x in r.probes)
    for eng, mod in (("direct", "pathsim"), ("timechange", "pathsim"),
                     ("excursion", "stable")):
        row = m["scaling"].get(eng)
        out[f"{mod}.{eng}_thread_speedup"] = row["speedup"] if row else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args(argv)

    bench = load_benchmark()
    try:
        use_checkout_sources()
    except ImportError as err:
        print(f"cannot import the library from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    pins = load_pins()
    ev = evaluate(args.workload, args.seed, m, pins)
    first = m["plain"][0]

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"run {m['run_id']}")
    for k, v in env.items():
        print(f"#   {k}: {v}")
    print(f"# {len(m['plain'])} untraced and {len(m['traced'])} traced pipelines, "
          f"{len(m['setup'])} set-ups")
    print("# untraced verdict_s of each pipeline: "
          + " ".join(f"{r.verdict_s:.3f}" for r in m["plain"]))
    print("#   unscaled wall seconds:             "
          + " ".join(f"{r.verdict_wall_s:.3f}" for r in m["plain"]))
    print("#   median probe ms:                   "
          + " ".join(f"{1e3 * statistics.median(r.probes):.3f}" for r in m["plain"]))
    shown = set()
    for c in first.checks:
        status = "pass" if c["passed"] else ("KNOWN FAIL" if c not in ev["unexpected"]
                                             else "FAIL")
        detail = {k: v for k, v in c.items() if k not in ("column", "check", "passed")}
        # the evidence of one validate_against_law call is shared by its checks
        text = json.dumps(detail)
        text = "" if (c["column"], text) in shown else text
        shown.add((c["column"], json.dumps(detail)))
        print(f"check {c['column']:<20} {c['check']:<9} {status:<10} {text}")
    print(f"checks_failed {first.checks_failed} of checks_attempted {len(first.checks)} "
          "(repetition 0); failed in each repetition: "
          + " ".join(str(r.checks_failed) for r in m["plain"]))
    for k, h in first.hashes.items():
        print(f"sha256 {k:<20} {h}  pin: {ev['hash_report'][k]}")
    for eng, row in m.get("scaling", {}).items():
        print(f"threads {eng:<11} 1: {row['t1_s']:.3f} s  nproc: {row['tn_s']:.3f} s  "
              f"identical: {row['identical']}")
    for p in ev["problems"]:
        print(f"PROBLEM {p}")

    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = per_layer(m) if args.trace else end_to_end(m)
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in defs}
    for name, mv in metrics.items():
        print(f"metric {name:<44} {mv['value']:.6g} {mv['unit']}")

    result = {
        "correct": ev["correct"],
        "attempted": sum(r.ops_attempted for r in m["plain"]),
        "failed": sum(r.ops_failed for r in m["plain"]),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "trace": args.trace, "environment": env,
        "result": result, "problems": ev["problems"], "checks": first.checks,
        "hashes": first.hashes, "scaling": m.get("scaling", {}),
        "verdict_s_each": [r.verdict_s for r in m["plain"]],
        "verdict_wall_s_each": [r.verdict_wall_s for r in m["plain"]],
        "setups": len(m["setup"]),
        "spans": [tr.spans for _, tr in m["traced"]],
    }
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=float) + "\n")
    if args.write_pins:
        pins.setdefault("hashes", {}).setdefault(args.workload, {})[str(args.seed)] = \
            first.hashes
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
