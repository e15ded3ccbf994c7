#!/usr/bin/env python3
"""Repository benchmark: four LSDS studies timed end to end, or traced.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first call builds perfbench/ (and, through
it, the simulator) into .bench_build/. Each run of the workload is its own
process (lsds_perfbench); runs repeat until --seconds have passed. Every run's
result fingerprint is checked against references.json, and the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the runs); --trace 1
reports the per-layer metrics of a separate traced run and writes its spans
to .bench_build/spans/. WORKLOADS.md says why each workload exists and which
metric each layer should move.

    --record    store this seed's fingerprint as its reference
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BUILD = REPO / ".bench_build"
BINARY = BUILD / "lsds_perfbench"
REFERENCES = HERE / "references.json"

# Default seeds: the studies' historical seeds (WORKLOADS.md).
WORKLOADS = {
    "lhc_2g5": 2005,
    "lhc_30g_observed": 2005,
    "tier_parallel": 2005,
    "p2p_chord_churn": 42,
}
RUN_TIMEOUT_S = 100  # a run that takes longer counts as failed

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# End-to-end times are rescaled to a host on which the calibration kernel
# (calibration_seconds in src/tracing.hpp) takes this long. The studies are
# deterministic, so their run-to-run variation comes only from how fast the
# shared host runs at the moment, which the kernel measures around each run
# (WORKLOADS.md, "Statistics").
CALIBRATION_REF_S = 0.035
PER_LAYER = {
    "core.events_executed": "count",
    "core.events_scheduled": "count",
    "core.events_cancelled": "count",
    "core.cancel_per_executed": "ratio",
    "core.pending_peak": "count",
    "core.queue_s": "s",
    "core.queue_share": "ratio",
    "core.ns_per_event": "ns",
    "net.flow.completed": "count",
    "net.flow.aborted": "count",
    "net.flow.events_per_flow": "ratio",
    "hosts.cpu.jobs_done": "count",
    "sim.monarc.events_per_job": "ratio",
    "core.parallel.windows": "count",
    "core.parallel.events_per_window": "ratio",
    "core.parallel.cross_messages": "count",
    "core.parallel.lp_imbalance": "ratio",
    "core.parallel.us_per_window": "us",
    "core.parallel.cpu_s": "s",
    "core.parallel.speedup_vs_serial": "ratio",
    "p2p.build_s": "s",
    "p2p.protocol_setup_s": "s",
    "p2p.messages": "count",
    "p2p.stabilize_rounds": "count",
    "p2p.lookups_issued": "count",
    "p2p.lookup_fail_ratio": "ratio",
    "obs.overhead_ratio": "ratio",
    "obs.finalize_s": "s",
    "obs.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- derivations (tested in test_run.py) -------------------------------------


def ratio(num, den):
    """num / den, or 0 when the base is empty (the layer did no such work)."""
    return num / den if den else 0.0


def derive_layers(rec):
    """Per-layer metrics of one traced run record. A metric whose layer the
    workload does not exercise reads 0."""
    c = rec.get("counts", {})
    t = rec.get("times", {})
    wall, traced_wall = rec["wall_s"], rec["traced_wall_s"]
    executed = c.get("events_executed", 0)
    lp_events = rec.get("lp_events", [])
    lp_mean = statistics.fmean(lp_events) if lp_events else 0
    looked_up = c.get("lookups_succeeded", 0) + c.get("lookups_failed", 0)
    return {
        "core.events_executed": executed,
        "core.events_scheduled": c.get("events_scheduled", 0),
        "core.events_cancelled": c.get("events_cancelled", 0),
        "core.cancel_per_executed": ratio(c.get("events_cancelled", 0), executed),
        "core.pending_peak": c.get("pending_peak", 0),
        "core.queue_s": t.get("queue_s", 0.0),
        "core.queue_share": ratio(t.get("queue_s", 0.0), traced_wall),
        "core.ns_per_event": ratio(wall * 1e9, executed),
        "net.flow.completed": c.get("flows_done", 0),
        "net.flow.aborted": c.get("flows_not_done", 0),
        "net.flow.events_per_flow": ratio(c.get("events_scheduled", 0), c.get("flows_done", 0)),
        "hosts.cpu.jobs_done": c.get("jobs_done", 0),
        "sim.monarc.events_per_job": ratio(executed, c.get("analysis_jobs", 0)),
        "core.parallel.windows": c.get("windows", 0),
        "core.parallel.events_per_window": ratio(executed, c.get("windows", 0)),
        "core.parallel.cross_messages": c.get("cross_messages", 0),
        "core.parallel.lp_imbalance": ratio(max(lp_events, default=0), lp_mean),
        "core.parallel.us_per_window": ratio(wall * 1e6, c.get("windows", 0)),
        "core.parallel.cpu_s": t.get("parallel_cpu_s", 0.0),
        "core.parallel.speedup_vs_serial": ratio(t.get("serial_wall_s", 0.0), wall)
        if "serial_wall_s" in t else 0.0,
        "p2p.build_s": t.get("build_s", 0.0),
        "p2p.protocol_setup_s": t.get("protocol_setup_s", 0.0),
        "p2p.messages": c.get("p2p_messages", 0),
        "p2p.stabilize_rounds": c.get("stabilize_rounds", 0),
        "p2p.lookups_issued": c.get("lookups_issued", 0),
        "p2p.lookup_fail_ratio": ratio(c.get("lookups_failed", 0), looked_up),
        "obs.overhead_ratio": ratio(wall, t["unobserved_wall_s"])
        if "unobserved_wall_s" in t else 0.0,
        "obs.finalize_s": t.get("finalize_s", 0.0),
        "obs.report_bytes": c.get("report_bytes", 0),
        "trace.overhead_ratio": ratio(traced_wall, wall),
    }


def host_speed_factor(rec):
    """CALIBRATION_REF_S over the kernel's mean wall around this run: above 1
    when the host ran faster than the reference, below 1 when slower."""
    return CALIBRATION_REF_S / statistics.fmean(rec["calib_s"])


def derive_end_to_end(rec):
    factor = host_speed_factor(rec)
    return {
        "wall_s": rec["wall_s"] * factor,
        "setup_s": statistics.median(rec["setup_s"]) * factor,
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def fingerprint_hash(fields):
    text = "".join(f"{name}={value}\n" for name, value in fields)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def first_difference(got, want):
    """None when the fingerprints agree, else a message naming the first
    field that differs."""
    want_map = dict(want)
    for name, value in got:
        if name not in want_map:
            return f"field {name} is not in the reference"
        if want_map[name] != value:
            return f"field {name}: got {value}, reference {want_map[name]}"
    missing = [name for name, _ in want if name not in dict(got)]
    if missing:
        return f"field {missing[0]} is missing"
    return None


def judge(rec, reference):
    """Why this run failed, or None. `reference` is the recorded fingerprint
    for the run's seed, or None when the seed has none."""
    for check in rec.get("checks", []):
        if not check["ok"]:
            return f"check failed: {check['name']} ({check['detail']})"
    if reference is not None:
        diff = first_difference(rec["fingerprint"], reference)
        if diff:
            return f"fingerprint mismatch: {diff}"
    return None


def median_metrics(per_run, units):
    """Median of each metric over the successful runs."""
    return {name: {"value": statistics.median(run[name] for run in per_run), "unit": unit}
            for name, unit in units.items()}


def summarize(outcomes, traced):
    """The result object from a list of (record or None, failure or None)."""
    good = [rec for rec, why in outcomes if why is None]
    derive, units = (derive_layers, PER_LAYER) if traced else (derive_end_to_end, END_TO_END)
    failed = len(outcomes) - len(good)
    return {
        "correct": failed == 0 and bool(good),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": median_metrics([derive(r) for r in good], units) if good else {},
    }


# --- build and run ------------------------------------------------------------


def build():
    if not (REPO / "src" / "CMakeLists.txt").exists():
        log(f"perfbench: no simulator sources under {REPO / 'src'}")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "lsds_perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def run_once(workload, seed, traced):
    """One run in its own process: (record or None, failure reason or None)."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--tmp", str(tmp)]
    cmd += ["--traced"] if traced else []
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {RUN_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError) as e:
        return None, f"unreadable output ({e})"


def load_references():
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def record_reference(workload, seed, fields):
    refs = load_references()
    refs.setdefault(workload, {})[str(seed)] = fields
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def write_spans(workload, seed, records):
    out = BUILD / "spans" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps([r.get("spans", []) for r in records], indent=1) + "\n")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    seed = WORKLOADS[args.workload] if args.seed is None else args.seed
    if seed < 0:
        ap.error("--seed must be >= 0")
    traced = args.trace == 1

    if not build():
        return 2
    reference = load_references().get(args.workload, {}).get(str(seed))
    outcomes = []
    start = time.monotonic()
    # Start runs until --seconds have passed (at least one), so one
    # invocation lasts at most --seconds + RUN_TIMEOUT_S.
    while not outcomes or time.monotonic() - start < args.seconds:
        rec, why = run_once(args.workload, seed, traced)
        if rec is not None and why is None:
            why = judge(rec, reference)
        if why:
            log(f"{args.workload} run {len(outcomes) + 1}: FAILED: {why}")
        outcomes.append((rec, why))

    first = next((rec for rec, _ in outcomes if rec is not None), None)
    if first is not None:
        fields = first["fingerprint"]
        print(f"{args.workload} seed {seed}: fingerprint {fingerprint_hash(fields)}")
        if reference is None:
            print("  no recorded reference for this seed; fields:")
            for name, value in fields:
                print(f"    {name} = {value}")
        if args.record:
            record_reference(args.workload, seed, fields)
            print(f"  recorded as the reference in {REFERENCES.name}")
    if traced:
        recs = [rec for rec, _ in outcomes if rec is not None]
        print(f"  spans: {write_spans(args.workload, seed, recs)}")

    result = summarize(outcomes, traced)
    print(f"  failed_runs = {result['failed']}/{result['attempted']}"
          f" = {result['failed'] / result['attempted']:.3f}")
    good = [rec for rec, why in outcomes if why is None]
    if good:
        walls = sorted(rec["wall_s"] for rec in good)
        print(f"  measured wall over {len(walls)} runs: fastest {walls[0]:.4f} s,"
              f" median {statistics.median(walls):.4f} s, slowest {walls[-1]:.4f} s;"
              f" median host speed factor"
              f" {statistics.median(host_speed_factor(r) for r in good):.3f}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
