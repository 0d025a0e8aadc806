#!/usr/bin/env python3
"""Bench regression gate for adhoc-rows-v1 documents (docs/PERF.md).

Both files must carry schema adhoc-rows-v1 and the same `bench` and
`meta`.  Rows are matched by `key`, and a row missing from either side
fails.  Per row:

- every `deterministic` value must be equal (a bool equals only a bool);
- every `ratios` value (a same-process speedup) must be at least
  min(baseline x (1 - --max-regression), --healthy);
- `timing` is printed and never gated.

Usage:
    check_bench.py BASELINE.json CURRENT.json [--max-regression 0.25]
                   [--healthy 20]

Exit status: 0 = pass, 1 = a mismatch, regression or missing row,
2 = unusable input (wrong schema, different bench or meta).
"""

import argparse
import json
import sys

SCHEMA = "adhoc-rows-v1"


def unusable(message):
    print(f"check_bench.py: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        unusable(f"{path}: schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    rows = {}
    for row in doc["rows"]:
        key = json.dumps(row["key"], sort_keys=True)
        if key in rows:
            unusable(f"{path}: duplicate row key {key}")
        rows[key] = row
    return doc, rows


def label(row):
    return " ".join(f"{k}={v}" for k, v in row["key"].items())


def same(a, b):
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def check_row(base, cur, args):
    """Failure messages for one matched row."""
    failures = []
    fields = set(base["deterministic"]) | set(cur["deterministic"])
    for field in sorted(fields):
        want = base["deterministic"].get(field)
        got = cur["deterministic"].get(field)
        if not same(want, got):
            failures.append(f"{field} drifted {want!r} -> {got!r} (must match exactly)")
    ratios = set(base.get("ratios", {})) | set(cur.get("ratios", {}))
    for name in sorted(ratios):
        want = base.get("ratios", {}).get(name)
        got = cur.get("ratios", {}).get(name)
        if want is None or got is None:
            failures.append(f"ratio {name} missing from "
                            f"{'baseline' if want is None else 'current run'}")
            continue
        floor = min(want * (1.0 - args.max_regression), args.healthy)
        if got < floor:
            failures.append(f"{name} {got:.2f}x below floor {floor:.2f}x "
                            f"(baseline {want:.2f}x)")
    return failures


def summary(row):
    parts = [f"{k} {v:.3g}x" for k, v in row.get("ratios", {}).items()]
    parts += [f"{k} min {t['min']:.4g} median {t['median']:.4g}"
              for k, t in row.get("timing", {}).items()]
    return "  ".join(parts)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional drop of a ratio (default 0.25)")
    parser.add_argument("--healthy", type=float, default=20.0,
                        help="ratios at or above this always pass (default 20): "
                             "two-orders-of-magnitude speedups are noise-dominated, "
                             "and a revert of the optimization lands far below it")
    args = parser.parse_args()

    base_doc, baseline = load(args.baseline)
    cur_doc, current = load(args.current)
    for field in ("bench", "meta"):
        if base_doc[field] != cur_doc[field]:
            unusable(f"{field} differs: baseline {base_doc[field]!r}, "
                     f"current {cur_doc[field]!r}")

    failures = []
    for key in list(current) + [k for k in baseline if k not in current]:
        base, cur = baseline.get(key), current.get(key)
        if base is None or cur is None:
            side = "baseline" if base is None else "current run"
            failures.append(f"{label(base or cur)}: missing from {side}")
            continue
        problems = check_row(base, cur, args)
        failures += [f"{label(cur)}: {p}" for p in problems]
        print(f"{label(cur):>56}  {'REGRESSED' if problems else 'ok'}  {summary(cur)}")

    if failures:
        print(f"\nbench regression gate FAILED ({base_doc['bench']}):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nbench regression gate passed ({base_doc['bench']}: {len(baseline)} rows, "
          f"deterministic fields exact, ratio floor min(-{args.max_regression:.0%}, "
          f"{args.healthy:g}x)).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
