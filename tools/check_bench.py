#!/usr/bin/env python3
"""Bench regression gate.

Dispatches on the JSON schema of the two input files:

adhoc-micro-v1 (bench_micro)
    Fails when any kernel's *speedup ratio* regressed by more than the
    allowed fraction.  Ratios — optimized time relative to the reference
    implementation measured in the same process — are stable across
    machines and CI runners, unlike absolute nanoseconds, so the gate
    catches "someone slowed the optimized path back down" without flaking
    on runner speed.

adhoc-saturation-v1 (bench_saturation)
    Fails when, for any (panel, load, algorithm) cell, the delivered-
    session ratio dropped by more than --max-delivery-drop (absolute) or
    the simulated-time throughput regressed by more than --max-regression
    (fractional).  Both metrics are simulation outputs — deterministic for
    a given seed — so any drift is a code change, not runner noise.

adhoc-resilience-v1 (bench_resilience)
    Every (panel, crash_rate, loss, beta, algorithm) cell's outputs —
    delivery ratio, forward mean, outcome split, retransmits and the SINR
    rejection/capture counters — are deterministic simulation results for
    a given seed and must match the baseline exactly.

adhoc-scale-v1 (bench_scale)
    Per (nodes, policy) row the deterministic simulation outputs —
    delivered_events, forward_count, received_count, full_delivery,
    windows, completion_time and the transmission order_digest — must
    match the baseline *exactly*: they are pure functions of the seed, so
    any drift is a semantic change in the engine, not noise.  All policies
    at one size must agree on received_count (forwarding policies change
    who transmits, never who is reached).  Engine state bytes per node may
    grow by at most --max-regression.  Timing fields are compared only
    when both files carry them (a --no-timing run zeroes them):
    events_per_sec gets the usual per-policy fractional floor.

adhoc-scale-resilience-v1 (bench_scale --resilience)
    Per (nodes, policy, crash_rate, churn) row the mean delivery ratio may
    drop by at most --max-delivery-drop (absolute) below the baseline; every
    other simulation output — outcome split, forward/received sums, the
    retransmit/control/fault_suppressed counters, windows, completion and
    the folded order_digest — is a pure function of the seed and must match
    the baseline exactly.

All checkers warn about rows present in CURRENT but absent from BASELINE
(a grown sweep whose new cells are silently ungated); --strict-extra turns
those warnings into failures.

Usage:
    check_bench.py BASELINE.json CURRENT.json [--max-regression 0.25]
                   [--strict-extra]

Exit status: 0 = within bounds, 1 = regression / mismatch / missing entry.
"""

import argparse
import json
import sys


def load_doc(path, schemas):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") not in schemas:
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def check_extras(baseline, current, args):
    """Rows only CURRENT has are invisible to the baseline-driven loops
    above: a sweep that grew a panel would pass the gate with its new
    cells unchecked.  Surface them; --strict-extra makes them failures so
    CI forces a baseline refresh."""
    failures = []
    for key in sorted(set(current) - set(baseline)):
        msg = f"{key!r}: present in current run but missing from baseline"
        if args.strict_extra:
            failures.append(msg)
        else:
            print(f"WARNING: {msg} (ungated; refresh the baseline "
                  "or pass --strict-extra to fail on this)")
    return failures


def micro_kernels(doc):
    return {(k["name"], k["n"]): k for k in doc["kernels"]}


def check_micro(baseline, current, args):
    baseline = micro_kernels(baseline)
    current = micro_kernels(current)

    failures = []
    for key, base in sorted(baseline.items()):
        name, n = key
        cur = current.get(key)
        if cur is None:
            failures.append(f"{name} n={n}: missing from current run")
            continue
        if not cur.get("match", False):
            failures.append(f"{name} n={n}: optimized output diverged from reference")
            continue
        floor = min(base["speedup"] * (1.0 - args.max_regression), args.healthy)
        status = "ok" if cur["speedup"] >= floor else "REGRESSED"
        print(f"{name:>16} n={n:<5} baseline {base['speedup']:7.2f}x "
              f"current {cur['speedup']:7.2f}x (floor {floor:.2f}x) {status}")
        if cur["speedup"] < floor:
            failures.append(
                f"{name} n={n}: speedup {cur['speedup']:.2f}x below floor "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x)")

    failures += check_extras(baseline, current, args)
    if not failures:
        print("\nbench regression gate passed "
              f"({len(baseline)} kernels, max regression {args.max_regression:.0%}).")
    return failures


def saturation_cells(doc):
    sessions = doc["runs_per_cell"] * doc["sessions_per_run"]
    cells = {}
    for panel in doc["panels"]:
        for cell in panel["cells"]:
            for algo in cell["algorithms"]:
                key = (panel["title"], cell["load"], algo["name"])
                cells[key] = dict(algo, sessions=sessions)
    return cells


def check_saturation(baseline, current, args):
    baseline = saturation_cells(baseline)
    current = saturation_cells(current)

    failures = []
    for key, base in sorted(baseline.items()):
        title, load, name = key
        label = f"{name} load={load:g}"
        cur = current.get(key)
        if cur is None:
            failures.append(f"{label}: missing from current run")
            continue
        base_ratio = base["delivered"] / base["sessions"]
        cur_ratio = cur["delivered"] / cur["sessions"]
        ratio_floor = base_ratio - args.max_delivery_drop
        thr_floor = base["throughput"] * (1.0 - args.max_regression)
        ok = cur_ratio >= ratio_floor and cur["throughput"] >= thr_floor
        print(f"{label:>28} delivered {base_ratio:6.3f} -> {cur_ratio:6.3f} "
              f"(floor {ratio_floor:.3f})  throughput {base['throughput']:8.2f} -> "
              f"{cur['throughput']:8.2f} (floor {thr_floor:.2f}) "
              f"{'ok' if ok else 'REGRESSED'}")
        if cur_ratio < ratio_floor:
            failures.append(
                f"{label}: delivered ratio {cur_ratio:.3f} below floor "
                f"{ratio_floor:.3f} (baseline {base_ratio:.3f})")
        if cur["throughput"] < thr_floor:
            failures.append(
                f"{label}: throughput {cur['throughput']:.2f} below floor "
                f"{thr_floor:.2f} (baseline {base['throughput']:.2f})")

    failures += check_extras(baseline, current, args)
    if not failures:
        print("\nbench regression gate passed "
              f"({len(baseline)} saturation cells, max delivery drop "
              f"{args.max_delivery_drop:.2f}, max throughput regression "
              f"{args.max_regression:.0%}).")
    return failures


def scale_rows(doc):
    return {(r["nodes"], r["policy"]): r for r in doc["rows"]}


def check_scale(baseline, current, args):
    exact_fields = ("edges", "delivered_events", "forward_count",
                    "received_count", "full_delivery", "windows",
                    "peak_queue_events", "completion_time", "order_digest")
    baseline = scale_rows(baseline)
    current = scale_rows(current)

    failures = []
    # Per-policy delivery consistency: every policy at a given size runs on
    # the same placement, so all of them must reach the same node set
    # (pruning and coverage decisions change who *forwards*, never who
    # eventually receives).
    reached = {}
    for (nodes, policy), row in sorted(current.items()):
        reached.setdefault(nodes, {})[policy] = row["received_count"]
    for nodes, per_policy in sorted(reached.items()):
        counts = set(per_policy.values())
        if len(counts) > 1:
            detail = ", ".join(f"{p}={c}" for p, c in sorted(per_policy.items()))
            failures.append(
                f"n={nodes}: policies disagree on received_count ({detail})")
    for key, base in sorted(baseline.items()):
        nodes, policy = key
        label = f"{policy} n={nodes}"
        cur = current.get(key)
        if cur is None:
            failures.append(f"{label}: missing from current run")
            continue
        drifted = [f for f in exact_fields if cur.get(f) != base.get(f)]
        for field in drifted:
            failures.append(
                f"{label}: {field} drifted {base.get(field)!r} -> "
                f"{cur.get(field)!r} (deterministic field, must match exactly)")
        bytes_ceiling = base["engine_bytes_per_node"] * (1.0 + args.max_regression)
        if cur["engine_bytes_per_node"] > bytes_ceiling:
            failures.append(
                f"{label}: engine_bytes_per_node {cur['engine_bytes_per_node']:.2f} "
                f"above ceiling {bytes_ceiling:.2f} "
                f"(baseline {base['engine_bytes_per_node']:.2f})")
        timed = base.get("events_per_sec", 0) > 0 and cur.get("events_per_sec", 0) > 0
        eps_note = ""
        if timed:
            eps_floor = base["events_per_sec"] * (1.0 - args.max_regression)
            eps_note = (f"  ev/s {base['events_per_sec']:.3g} -> "
                        f"{cur['events_per_sec']:.3g} (floor {eps_floor:.3g})")
            if cur["events_per_sec"] < eps_floor:
                failures.append(
                    f"{label}: events_per_sec {cur['events_per_sec']:.3g} below "
                    f"floor {eps_floor:.3g} (baseline {base['events_per_sec']:.3g})")
        status = "ok" if not any(f.startswith(label + ":") for f in failures) \
            else "REGRESSED"
        print(f"{label:>24} digest {cur.get('order_digest', '?')} "
              f"bytes/node {cur['engine_bytes_per_node']:6.2f}{eps_note} {status}")

    failures += check_extras(baseline, current, args)
    if not failures:
        print("\nbench regression gate passed "
              f"({len(baseline)} scale rows, deterministic fields exact, "
              f"max bytes/timing regression {args.max_regression:.0%}).")
    return failures


def resilience_cells(doc):
    cells = {}
    for panel in doc["panels"]:
        for cell in panel["cells"]:
            for algo in cell["algorithms"]:
                key = (panel["title"], cell["crash_rate"], cell["loss"],
                       cell.get("beta", -1), algo["name"])
                cells[key] = algo
    return cells


def check_resilience(baseline, current, args):
    exact_fields = ("delivery_ratio", "forward_mean", "delivered", "degraded",
                    "partitioned", "retransmits", "sinr_rejections", "captures")
    baseline = resilience_cells(baseline)
    current = resilience_cells(current)

    failures = []
    for key, base in sorted(baseline.items()):
        _, crash, loss, beta, name = key
        label = f"{name} crash={crash:g} loss={loss:g} beta={beta:g}"
        cur = current.get(key)
        if cur is None:
            failures.append(f"{label}: missing from current run")
            continue
        drifted = [f for f in exact_fields if cur.get(f) != base.get(f)]
        for field in drifted:
            failures.append(
                f"{label}: {field} drifted {base.get(field)!r} -> "
                f"{cur.get(field)!r} (deterministic field, must match exactly)")
        status = "ok" if not drifted else "REGRESSED"
        print(f"{label:>44} delivery {cur.get('delivery_ratio', 0):6.4f} "
              f"rejections {cur.get('sinr_rejections', 0):6d} "
              f"captures {cur.get('captures', 0):6d} {status}")

    failures += check_extras(baseline, current, args)
    if not failures:
        print("\nbench regression gate passed "
              f"({len(baseline)} resilience cells, all fields exact).")
    return failures


def scale_resilience_rows(doc):
    return {(r["nodes"], r["policy"], r["crash_rate"], r["churn"]): r
            for r in doc["rows"]}


def check_scale_resilience(baseline, current, args):
    exact_fields = ("runs", "delivered", "degraded", "partitioned",
                    "received_sum", "forward_sum", "retransmits",
                    "control_count", "fault_suppressed", "delivered_events",
                    "windows", "completion_sum", "order_digest")
    baseline = scale_resilience_rows(baseline)
    current = scale_resilience_rows(current)

    failures = []
    for key, base in sorted(baseline.items()):
        nodes, policy, crash, churn = key
        label = (f"{policy} n={nodes} crash={crash:g} "
                 f"churn={'on' if churn else 'off'}")
        cur = current.get(key)
        if cur is None:
            failures.append(f"{label}: missing from current run")
            continue
        # Delivery gets an absolute floor rather than exactness so a future
        # intentional recovery tuning only needs a baseline refresh when it
        # actually loses nodes, not when counters shift.
        ratio_floor = base["delivery_ratio"] - args.max_delivery_drop
        if cur["delivery_ratio"] < ratio_floor:
            failures.append(
                f"{label}: delivery_ratio {cur['delivery_ratio']:.4f} below "
                f"floor {ratio_floor:.4f} (baseline {base['delivery_ratio']:.4f})")
        drifted = [f for f in exact_fields if cur.get(f) != base.get(f)]
        for field in drifted:
            failures.append(
                f"{label}: {field} drifted {base.get(field)!r} -> "
                f"{cur.get(field)!r} (deterministic field, must match exactly)")
        status = "ok" if not any(f.startswith(label + ":") for f in failures) \
            else "REGRESSED"
        print(f"{label:>44} delivery {cur.get('delivery_ratio', 0):6.4f} "
              f"(floor {ratio_floor:.4f}) retx {cur.get('retransmits', 0):6d} "
              f"digest {cur.get('order_digest', '?')} {status}")

    failures += check_extras(baseline, current, args)
    if not failures:
        print("\nbench regression gate passed "
              f"({len(baseline)} scale-resilience rows, deterministic fields "
              f"exact, max delivery drop {args.max_delivery_drop:.2f}).")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional drop in speedup/throughput "
                             "(default 0.25)")
    parser.add_argument("--healthy", type=float, default=20.0,
                        help="micro only: speedups at or above this always pass "
                             "(default 20); two-orders-of-magnitude ratios are "
                             "noise-dominated, and an actual revert of the "
                             "optimization lands far below it")
    parser.add_argument("--max-delivery-drop", type=float, default=0.05,
                        help="saturation only: allowed absolute drop in the "
                             "delivered-session ratio (default 0.05)")
    parser.add_argument("--strict-extra", action="store_true",
                        help="fail (instead of warn) when the current run has "
                             "rows the baseline does not pin")
    args = parser.parse_args()

    schemas = ("adhoc-micro-v1", "adhoc-saturation-v1", "adhoc-scale-v1",
               "adhoc-resilience-v1", "adhoc-scale-resilience-v1")
    baseline = load_doc(args.baseline, schemas)
    current = load_doc(args.current, (baseline["schema"],))

    if baseline["schema"] == "adhoc-micro-v1":
        failures = check_micro(baseline, current, args)
    elif baseline["schema"] == "adhoc-saturation-v1":
        failures = check_saturation(baseline, current, args)
    elif baseline["schema"] == "adhoc-resilience-v1":
        failures = check_resilience(baseline, current, args)
    elif baseline["schema"] == "adhoc-scale-resilience-v1":
        failures = check_scale_resilience(baseline, current, args)
    else:
        failures = check_scale(baseline, current, args)

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
