#!/usr/bin/env python3
"""Perf-regression gate for the benchmark JSON artifacts.

Walks the freshly generated benchmark JSON (``current``), collects every
``simplex_iterations``, ``milp_nodes`` and ``lu_factorizations`` counter (at
any nesting depth), and compares each against the same dotted path in the
committed ``baseline``. The gate fails (exit 1) when any counter regressed by
more than the allowed fraction. These counts are deterministic — unlike wall
time — so this is safe to run on noisy CI machines. Gating ``milp_nodes``
alongside the pivot counts means a branching or cutting-plane change that
blows up the branch-and-bound tree fails CI even if each node got cheaper;
gating ``lu_factorizations`` means a change that silently defeats the tree's
factorization memo (every warm start factorizing its basis again, about twice
the count) fails CI even though nodes and pivots stay put.

Keys present in ``current`` but absent from the baseline are treated as
"no baseline, pass": a PR that *adds* a benchmark scenario must not fail the
gate for the old baseline's ignorance (the new file becomes the baseline once
merged). Keys present only in the baseline are ignored likewise (quick-mode
runs sweep a subset of the committed full sweep). Informational leaves the
benches record next to the counters (``presolve_rows_removed``,
``devex_resets``, ``candidate_list_size``, ``cache_hits``/``cache_misses``,
the static-analyzer leaves ``analyze_fast_fails`` and ``analyze_micros`` —
the latter a wall-clock number that would flap on noisy runners — and
booleans such as ``byte_match``) are never gated — only the keys in
``COUNTER_KEYS`` are — and must never crash the walk.

Counters that *improved* by more than the allowance are called out in the
report (marked ``improved``), so a perf PR's pivot-count drop is visible in
the CI log next to the pass/fail verdicts.

The fault-matrix bench (``BENCH_faults.json``) adds a second gate family:
safety counters (``ZERO_KEYS``) that must be **exactly zero** in the current
run, regardless of the baseline — a single safety violation under a safe
beacon-loss policy is a correctness bug, not a 20%-allowance perf question.
Its latency/ratio leaves (``avg_rejoin_latency_rounds``, the
``delivery_ratio_*`` family, radio duty cycles) are informational and never
gated. Unlike counters, a zero-key violation fails even with no baseline:
the invariant is absolute, not relative.

The scheduler-service load bench (``BENCH_service.json``) contributes to
both families: its ``milp_nodes`` total rides the ratio gate like any other
solver counter, while ``duplicate_solves`` (solves beyond one per unique
request fingerprint — the coalescing invariant) and ``warm_milp_nodes``
(solver nodes spent on cache-warm requests — the cache invariant) are
zero keys. Its throughput/latency leaves (``throughput_rps``, the
``p50/p95/p99_micros`` family) and the ``service_counters`` block
(``solved``/``coalesced``/``cache_hits``/…) are informational.

The incremental-admission bench (``BENCH_incremental.json``) gates its
acceptance bars as derived zero keys: ``warm_node_budget_excess`` is
``max(0, 2*incremental_milp_nodes - scratch_milp_nodes)`` (the one-app edit
must cost at most half the from-scratch node count) and
``delta_byte_excess`` is ``max(0, 2*delta_bytes - full_bytes)`` (the
per-node delta must ship less than half the full redeployment). Encoding
the ratio bars as exact-zero counters keeps the gate deterministic and
baseline-free, like the other invariants. Its raw ``milp_nodes`` /
``simplex_iterations`` leaves ride the ordinary ratio gate.

Usage: check_bench_regression.py <baseline.json> <current.json> [max-regression]

``max-regression`` is a fraction, default 0.20 (= fail above +20%).
"""

import json
import sys

#: Leaf keys treated as smaller-is-better deterministic work counters.
COUNTER_KEYS = ("simplex_iterations", "milp_nodes", "lu_factorizations")

#: Leaf keys that must be exactly zero in the current run (safety counters
#: of the fault-matrix bench, the service bench's coalescing/cache
#: invariants, and the incremental-admission bench's derived budget
#: excesses; a non-zero value is a correctness failure).
ZERO_KEYS = (
    "safety_violations_skip",
    "safety_violations_resync",
    "duplicate_solves",
    "warm_milp_nodes",
    "warm_node_budget_excess",
    "delta_byte_excess",
)


def collect_keys(data, keys, prefix=""):
    """Returns ``{dotted.path: value}`` for every leaf in ``data`` whose key
    is in ``keys`` and whose value is a (non-bool) number."""
    found = {}
    if isinstance(data, dict):
        for key, value in data.items():
            path = f"{prefix}.{key}" if prefix else key
            # bool is an int subclass in Python; a flag named like a counter
            # must not be compared arithmetically.
            if (
                key in keys
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
            ):
                found[path] = float(value)
            else:
                found.update(collect_keys(value, keys, path))
    elif isinstance(data, list):
        for index, value in enumerate(data):
            found.update(collect_keys(value, keys, f"{prefix}[{index}]"))
    return found


def collect_counters(data, prefix=""):
    """Returns ``{dotted.path: value}`` for every counter leaf in ``data``."""
    return collect_keys(data, COUNTER_KEYS, prefix)


def load_keys(path, keys):
    with open(path, encoding="utf-8") as handle:
        return collect_keys(json.load(handle), keys)


def load_counters(path):
    return load_keys(path, COUNTER_KEYS)


def check(baseline, current, max_regression):
    """Compares counter maps; returns the list of failure messages."""
    failures = []
    for path, value in sorted(current.items()):
        base = baseline.get(path)
        if base is None:
            print(f"{path}: current {value:.0f}, no baseline — pass")
            continue
        limit = base * (1.0 + max_regression)
        if value > limit:
            verdict = "FAIL"
        elif value < base * (1.0 - max_regression):
            verdict = "improved"
        else:
            verdict = "ok"
        print(
            f"{path}: baseline {base:.0f}, current {value:.0f}, "
            f"limit {limit:.0f} (+{max_regression:.0%}) — {verdict}"
        )
        if value > limit:
            failures.append(
                f"{path} regressed: {base:.0f} -> {value:.0f} (limit {limit:.0f})"
            )
    return failures


def check_zero(current_zeros):
    """Gates the safety counters at exactly zero; returns failure messages."""
    failures = []
    for path, value in sorted(current_zeros.items()):
        verdict = "ok" if value == 0 else "FAIL"
        print(f"{path}: current {value:.0f}, must be exactly 0 — {verdict}")
        if value != 0:
            failures.append(f"{path} must be 0 but is {value:.0f}")
    return failures


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    baseline_path, current_path = argv[1], argv[2]
    max_regression = float(argv[3]) if len(argv) > 3 else 0.20

    baseline = load_counters(baseline_path)
    current = load_counters(current_path)
    current_zeros = load_keys(current_path, ZERO_KEYS)
    if not current and not current_zeros:
        print(
            f"FAIL: no {COUNTER_KEYS} or {ZERO_KEYS} counters found in "
            f"{current_path}"
        )
        return 1

    failures = check(baseline, current, max_regression)
    failures += check_zero(current_zeros)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: all counters within the regression allowance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
