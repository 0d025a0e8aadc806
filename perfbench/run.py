#!/usr/bin/env python3
"""Repository benchmark: builds the driver, runs one workload, prints metrics.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds T] [--trace 0|1]
    python3 perfbench/run.py --workload all        # every workload, one after another
    python3 perfbench/run.py --selftest            # anchor rows + tiny pass of all workloads
    python3 perfbench/run.py --layers              # regenerate perfbench/LAYERS.md

The first call configures and builds perfbench/CMakeLists.txt (Release) into
.bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench when that is set.
Each run prints a table of its metrics and, as the last line of stdout, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  The full result (meta block plus {key, deterministic, timing}
rows) is written to <build dir>/results/.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["scale_generic", "scale_churn_recovery", "traffic_saturation", "paper_fig15"]
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def effective_cpus():
    """CPUs this process may use: its affinity mask capped by the cgroup quota."""
    cpus = len(os.sched_getaffinity(0))
    quota = None
    try:
        fields = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if fields and fields[0] != "max":
            quota = int(fields[0]) / int(fields[1])
    except (OSError, ValueError, IndexError):
        try:
            q = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text())
            p = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text())
            if q > 0 and p > 0:
                quota = q / p
        except (OSError, ValueError):
            pass
    if quota is not None:
        cpus = min(cpus, max(1, math.ceil(quota)))
    return cpus


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build(cpus):
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        shutil.rmtree(out)  # configured from another checkout
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                  "-j", str(max(1, min(cpus, 4)))])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return None
        if p.returncode != 0:
            log(f"perfbench: build step failed ({p.returncode}): {' '.join(cmd)}")
            return None
    return out / "perfbench_driver"


def run_driver(binary, args):
    """Runs the driver; returns its JSON document or None."""
    try:
        p = subprocess.run([str(binary)] + args, capture_output=True, text=True,
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver timed out after {DRIVER_TIMEOUT_S} s: {args}")
        return None
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        log(f"perfbench: driver exited {p.returncode}: {args}")
        return None
    try:
        return json.loads(p.stdout)
    except json.JSONDecodeError:
        log("perfbench: driver printed no JSON document")
        return None


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def contract_problems(spec, metrics, trace):
    """Names/units the result line has that BENCHMARK.json does not, and vice versa."""
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    for name, unit in want.items():
        if name not in metrics:
            problems.append(f"missing metric {name}")
        elif metrics[name]["unit"] != unit:
            problems.append(f"metric {name} has unit {metrics[name]['unit']}, want {unit}")
    for name in metrics:
        if name not in want:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"metric {name} is not a finite number")
    return problems


def meta_block(doc, cpus, jobs):
    meta = dict(doc["meta"])
    meta["effective_cpus"] = cpus
    meta["git_sha"] = git_sha()
    flags = []
    if meta["build_type"] != "Release":
        flags.append(f"non-Release build ({meta['build_type']}): timings are not comparable")
    if jobs > cpus:
        flags.append(f"jobs {jobs} exceeds {cpus} effective CPUs: parallel timings are not meaningful")
    meta["flags"] = flags
    for f in flags:
        log(f"perfbench: WARNING: {f}")
    return meta


def run_one(binary, spec, workload, args, cpus):
    """Runs one workload; returns (result line dict, printable table) or None."""
    cmd = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--jobs", str(args.jobs)] + (["--tiny"] if args.tiny else [])
    doc = run_driver(binary, cmd)
    if doc is None:
        return None
    result = doc["result"]
    problems = contract_problems(spec, result["metrics"], args.trace) + doc["errors"]
    for p in problems:
        log(f"perfbench: {workload}: {p}")
    if problems:
        result["correct"] = False
    meta = meta_block(doc, cpus, args.jobs)
    out = build_dir() / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (out / name).write_text(json.dumps({"meta": meta, "rows": doc["rows"], "result": result},
                                       indent=1) + "\n")
    lines = [f"{workload} (seed {args.seed}, {'traced' if args.trace else 'untraced'}, "
             f"{result['attempted']} ops, {result['failed']} failed)"]
    for label, block in (("", result["metrics"]), (" (printed only)", doc["extra"])):
        for k, v in block.items():
            lines.append(f"  {k:<36} {v['value']:>16.6g} {v['unit']}{label}")
    return result, "\n".join(lines)


def selftest(binary, spec):
    failures = []
    doc = run_driver(binary, ["--anchor"])
    if doc is None:
        return 1
    scale = doc["scale_generic_fr"]
    pinned = {"forward_count": 4779, "received_count": 9860, "order_digest": "49964472b0f8c0ed"}
    baseline = ROOT / "bench" / "BENCH_scale.baseline.json"
    if baseline.exists():
        rows = json.loads(baseline.read_text())["rows"]
        row = next(r for r in rows if r["nodes"] == 10000 and r["policy"] == "generic_fr")
        for k in ("edges", "delivered_events", "forward_count", "received_count", "windows",
                  "peak_queue_events", "completion_time", "order_digest"):
            pinned[k] = row[k]
    for k, want in pinned.items():
        if scale[k] != want:
            failures.append(f"anchor scale {k}: got {scale[k]}, want {want}")
    sat = doc["saturation_generic_fr"]
    baseline = ROOT / "bench" / "BENCH_saturation.baseline.json"
    if baseline.exists():
        base = json.loads(baseline.read_text())
        if base["node_count"] == sat["node_count"] and base["runs_per_cell"] == sat["runs_per_cell"]:
            cell = next(c for p in base["panels"] for c in p["cells"] if c["load"] == sat["load"])
            row = next(a for a in cell["algorithms"] if a["name"] == "generic-fr")
            for k in ("delivered", "degraded", "partitioned", "throughput", "latency_p95",
                      "data_tx", "bytes_per_node", "duplicates", "sv_beacons", "pulls", "repairs",
                      "cache_peak_bytes"):
                if sat[k] != row[k]:
                    failures.append(f"anchor saturation {k}: got {sat[k]}, want {row[k]}")
    print(f"anchor: bench_scale n=10^4 generic_fr forward={scale['forward_count']} "
          f"received={scale['received_count']} digest={scale['order_digest']}")
    print(f"anchor: bench_saturation smoke generic-fr load {sat['load']} "
          f"delivered={sat['delivered']} data_tx={sat['data_tx']}")
    for w in WORKLOADS:
        for trace in (0, 1):
            d = run_driver(binary, ["--workload", w, "--seed", "42", "--seconds", "1",
                                    "--trace", str(trace), "--tiny"])
            if d is None:
                failures.append(f"tiny {w} trace {trace}: driver failed")
                continue
            r = d["result"]
            for p in contract_problems(spec, r["metrics"], trace) + d["errors"]:
                failures.append(f"tiny {w} trace {trace}: {p}")
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                failures.append(f"tiny {w} trace {trace}: correct={r['correct']} "
                                f"attempted={r['attempted']} failed={r['failed']}")
            print(f"tiny {w} trace {trace}: {r['attempted']} ops, {len(r['metrics'])} metrics")
    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


def fmt(x):
    return f"{x:.4g}"


def layers(binary, args, cpus):
    """Traced run of every workload; writes the per-layer budget table."""
    docs = {}
    for w in WORKLOADS:
        d = run_driver(binary, ["--workload", w, "--seed", str(args.seed), "--seconds",
                                str(args.seconds), "--trace", "1", "--jobs", str(args.jobs)])
        if d is None or not d["result"]["correct"]:
            log(f"perfbench: traced run of {w} failed")
            return 1
        docs[w] = d
    m = {k: v["value"] for k, v in docs[WORKLOADS[-1]]["result"]["metrics"].items()}
    meta = meta_block(docs[WORKLOADS[-1]], cpus, args.jobs)
    rows = []

    def row(workload, layer, metric, seconds_per_op, op_s, decisions=None):
        per_dec = fmt(seconds_per_op * 1e9 / decisions) if decisions else "-"
        share = seconds_per_op / op_s
        share = f"{100 * share:.1f}%" if share < 10 else f"{share:.4g}x"
        rows.append(f"| {workload} | {layer} | `{metric}` | {fmt(seconds_per_op * 1e3)} | "
                    f"{per_dec} | {share} |")

    op = m["sim.scale_run_s"]
    dec = m["sim.scale_decisions"]
    row("scale_generic", "engine run (whole op)", "sim.scale_run_s", op, op, dec)
    row("scale_generic", "core view compile, replayed", "core.view_compile_ns",
        m["core.view_compile_ns"] * 1e-9 * dec, op, dec)
    row("scale_generic", "core coverage kernel, replayed", "core.coverage_ns",
        m["core.coverage_ns"] * 1e-9 * dec, op, dec)
    op = m["sim.scale_ctor_s"] + m["faults.attach_s"] + m["sim.scale_cold_run_s"] + m["faults.classify_s"]
    row("scale_churn_recovery", "engine build", "sim.scale_ctor_s", m["sim.scale_ctor_s"], op)
    row("scale_churn_recovery", "attach_faults + set_recovery", "faults.attach_s", m["faults.attach_s"], op)
    row("scale_churn_recovery", "cold faulted run", "sim.scale_cold_run_s", m["sim.scale_cold_run_s"], op)
    row("scale_churn_recovery", "classify_outcome", "faults.classify_s", m["faults.classify_s"], op)
    op = m["traffic.run_s"]
    traffic_runs = next(r["key"]["runs"] for r in docs[WORKLOADS[-1]]["rows"]
                        if r["key"]["workload"] == "traffic_saturation" and "runs" in r["key"])
    receipts = m["traffic.fresh_deliveries"] / traffic_runs
    row("traffic_saturation", "engine run (whole op)", "traffic.run_s", op, op, receipts)
    row("traffic_saturation", "policy decisions, replayed", "core.policy_decision_ns",
        m["core.policy_decision_ns"] * 1e-9 * receipts, op, receipts)
    op = m["runner.campaign_s"]
    calls = m["runner.runs"]
    for name in ("dp", "pdp", "lenwb", "generic_fr"):
        key = f"algorithms.{name}_broadcast_us"
        row("paper_fig15", f"{name} broadcasts (n=100 cost, upper bound)", key, m[key] * 1e-6 * calls, op)
    row("paper_fig15", "GenericAgent builds (n=100 cost, upper bound)", "sim.generic_agent_ctor_us",
        m["sim.generic_agent_ctor_us"] * 1e-6 * calls, op)

    overhead = [f"| {w} | {fmt(docs[w]['result']['metrics']['trace.overhead']['value'])} |"
                for w in WORKLOADS]
    text = f"""# Per-layer budget

Generated by `python3 perfbench/run.py --layers --seed {args.seed} --seconds {args.seconds}`
from the traced runs; do not edit by hand.  Build {meta['build_type']}, {meta['compiler']},
{meta['effective_cpus']} effective CPUs, jobs {args.jobs}, git {meta['git_sha'][:12]}.

"ns/decision" divides by the op's coverage decisions (scale: receipts other than
the source; traffic: fresh receipts per run).

Rows marked *replayed* time the core layer's public functions on a seeded sample
of the op's own inputs.  They price what the core layer costs for the same
views, not the engine's private path, so they may exceed the op itself (shown
as a multiple).

The paper_fig15 rows multiply the n = 100, d = 18 cost of one call by the op's
broadcast count, an upper bound for a sweep over n = 20..100.

| workload | layer | metric | ms per op | ns/decision | % of op_s |
|---|---|---|---|---|---|
""" + "\n".join(rows) + """

Set-up layers (not in op_s): `graph.unit_disk_s` = {ud} s, `sim.scale_ctor_s` = {ctor} s,
`faults.make_plan_s` = {plan} s, `traffic.policy_build_s` = {pb} s, `traffic.workload_s` = {wl} s.

Super-linear guards: `sim.scale_n_doubling` = {nd} (op_s at n over n/2),
`sim.scale_cold_over_warm` = {cw} (cold over warm faulted run).
Fault-session queries: `faults.link_up_ns` = {lu} ns, `faults.drop_directed_ns` = {dd} ns
at a mean of {dl} links down.

Tracing overhead (traced op_s / untraced op_s, same process):

| workload | trace.overhead |
|---|---|
""".format(ud=fmt(m["graph.unit_disk_s"]), ctor=fmt(m["sim.scale_ctor_s"]),
           plan=fmt(m["faults.make_plan_s"]), pb=fmt(m["traffic.policy_build_s"]),
           wl=fmt(m["traffic.workload_s"]), nd=fmt(m["sim.scale_n_doubling"]),
           cw=fmt(m["sim.scale_cold_over_warm"]), lu=fmt(m["faults.link_up_ns"]),
           dd=fmt(m["faults.drop_directed_ns"]), dl=fmt(m["faults.down_links_mean"])) \
        + "\n".join(overhead) + "\n"
    (BENCH_DIR / "LAYERS.md").write_text(text)
    print(text)
    return 0


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--layers", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.selftest or args.layers):
        ap.error("one of --workload, --selftest, --layers is required")
    if args.seconds < 1 or args.jobs < 1 or args.seed < 0:
        ap.error("--seconds and --jobs must be positive, --seed non-negative")

    cpus = effective_cpus()
    started = time.monotonic()
    binary = build(cpus)
    if binary is None:
        return 1
    log(f"perfbench: driver ready after {time.monotonic() - started:.1f} s")
    if args.selftest:
        return selftest(binary, spec)
    if args.layers:
        return layers(binary, args, cpus)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in names:
        got = run_one(binary, spec, w, args, cpus)
        if got is None:
            return 1
        result, table = got
        print(table, flush=True)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = f"{w}." if len(names) > 1 else ""
        for k, v in result["metrics"].items():
            total["metrics"][prefix + k] = v
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
