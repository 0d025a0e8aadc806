#!/usr/bin/env python3
"""Self-test for check_bench.py.

Builds small adhoc-rows-v1 documents and asserts the gate's exit codes:
identical documents pass, any drifted deterministic value fails, a row
missing on either side fails, a ratio below its floor fails while one at
or above --healthy passes, timing is never gated, and a schema, bench or
meta mismatch is rejected.  Run by ctest (check_bench_selftest); needs
only the stdlib and check_bench.py next to this file.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_bench.py")


def run_checker(baseline, current, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("baseline.json", baseline), ("current.json", current)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return subprocess.run([sys.executable, CHECKER, *paths, *flags],
                              capture_output=True, text=True, check=False)


def doc():
    """Two rows: a scale-style deterministic row and a micro-style ratio row."""
    return {
        "schema": "adhoc-rows-v1",
        "bench": "bench_test",
        "meta": {"seed": 42},
        "rows": [
            {"key": {"nodes": 1000, "policy": "flood"},
             "deterministic": {"forward_count": 982, "full_delivery": False,
                               "delivery_ratio": 0.96875,
                               "order_digest": "44a3016048cc5a0f"},
             "timing": {"run_s": {"reps": [0.5, 0.4], "min": 0.4, "median": 0.45}}},
            {"key": {"kernel": "coverage_full", "n": 100},
             "deterministic": {"match": True},
             "ratios": {"speedup": 5.0},
             "timing": {}},
        ],
    }


def drifted(row, section, field, value):
    cur = doc()
    cur["rows"][row][section][field] = value
    return cur


CHECKS = []


def check(name):
    def wrap(fn):
        CHECKS.append((name, fn))
        return fn
    return wrap


def fails(baseline, current, needle, *flags):
    proc = run_checker(baseline, current, *flags)
    assert proc.returncode == 1, proc
    assert needle in proc.stderr, proc.stderr


@check("identical documents pass")
def _():
    assert run_checker(doc(), doc()).returncode == 0


@check("drifted digest fails")
def _():
    fails(doc(), drifted(0, "deterministic", "order_digest", "deadbeefdeadbeef"),
          "order_digest")


@check("drifted bool fails, and a bool never equals a number")
def _():
    fails(doc(), drifted(1, "deterministic", "match", False), "match")
    fails(doc(), drifted(0, "deterministic", "full_delivery", 0), "full_delivery")


@check("drifted integer fails")
def _():
    fails(doc(), drifted(0, "deterministic", "forward_count", 983), "forward_count")


@check("drifted double fails, however small the drift")
def _():
    fails(doc(), drifted(0, "deterministic", "delivery_ratio", 0.96874), "delivery_ratio")


@check("deterministic field missing on either side fails")
def _():
    cur = doc()
    del cur["rows"][0]["deterministic"]["forward_count"]
    fails(doc(), cur, "forward_count")
    fails(cur, doc(), "forward_count")


@check("row missing from the current run fails")
def _():
    cur = doc()
    del cur["rows"][1]
    fails(doc(), cur, "missing from current run")


@check("row missing from the baseline fails")
def _():
    base = doc()
    del base["rows"][0]
    fails(base, doc(), "missing from baseline")


@check("ratio below its floor fails")
def _():
    fails(doc(), drifted(1, "ratios", "speedup", 3.7), "below floor")


@check("ratio within --max-regression passes")
def _():
    assert run_checker(doc(), drifted(1, "ratios", "speedup", 3.8)).returncode == 0
    fails(doc(), drifted(1, "ratios", "speedup", 3.8), "below floor",
          "--max-regression", "0.1")


@check("ratio at or above --healthy passes")
def _():
    base = drifted(1, "ratios", "speedup", 100.0)
    assert run_checker(base, drifted(1, "ratios", "speedup", 20.0)).returncode == 0
    fails(base, drifted(1, "ratios", "speedup", 19.9), "below floor")


@check("timing is printed, never gated")
def _():
    cur = drifted(0, "timing", "run_s", {"reps": [9.0], "min": 9.0, "median": 9.0})
    proc = run_checker(doc(), cur)
    assert proc.returncode == 0
    assert "run_s min 9" in proc.stdout


@check("schema, bench or meta mismatch exits nonzero")
def _():
    for field, value in (("schema", "adhoc-scale-v1"), ("bench", "bench_other"),
                         ("meta", {"seed": 7})):
        cur = doc()
        cur[field] = value
        assert run_checker(doc(), cur).returncode == 2, field


def main():
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError:
            failures += 1
            print(f"FAIL {name}")
    print(f"check_bench_test: {len(CHECKS) - failures}/{len(CHECKS)} passed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
