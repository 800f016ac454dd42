"""Unit tests for check_bench_regression.py (run via `python3 -m unittest`)."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bench_regression as cbr


def write_json(directory, name, payload):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


class CollectCountersTest(unittest.TestCase):
    def test_collects_nested_counters_with_dotted_paths(self):
        data = {
            "strategies": {
                "inherited_incremental": {"simplex_iterations": 1054, "median_seconds": 0.03},
                "independent_from_scratch": {"simplex_iterations": 39140},
            },
            "diamond": {"simplex_iterations": 2000},
        }
        counters = cbr.collect_counters(data)
        self.assertEqual(
            counters,
            {
                "strategies.inherited_incremental.simplex_iterations": 1054.0,
                "strategies.independent_from_scratch.simplex_iterations": 39140.0,
                "diamond.simplex_iterations": 2000.0,
            },
        )

    def test_ignores_non_counter_leaves(self):
        self.assertEqual(cbr.collect_counters({"speedup": 11.0, "name": "x"}), {})

    def test_walks_lists(self):
        data = {"runs": [{"simplex_iterations": 5}, {"simplex_iterations": 7}]}
        counters = cbr.collect_counters(data)
        self.assertEqual(
            counters,
            {"runs[0].simplex_iterations": 5.0, "runs[1].simplex_iterations": 7.0},
        )

    def test_new_solver_and_cache_keys_are_not_gated(self):
        # The presolve/pricing/cache counters ride along in the bench JSONs
        # but only `simplex_iterations` is a gated counter; the rest must be
        # walked over without crashing and without being collected.
        data = {
            "strategies": {
                "inherited_incremental": {
                    "simplex_iterations": 617,
                    "presolve_rows_removed": 40,
                    "presolve_cols_removed": 25,
                    "devex_resets": 0,
                    "candidate_list_size": 64,
                }
            },
            "schedule_cache": {
                "cache_hits": 1,
                "cache_misses": 1,
                "byte_match": True,
                "cold_seconds": 0.03,
                "warm_seconds": 0.001,
            },
        }
        counters = cbr.collect_counters(data)
        self.assertEqual(
            counters,
            {"strategies.inherited_incremental.simplex_iterations": 617.0},
        )

    def test_analyzer_keys_are_not_gated(self):
        # The static-analyzer PR added `analyze_fast_fails` (deterministic but
        # a property of the workload, not solver efficiency) and
        # `analyze_micros` (wall clock — would flap on noisy runners) next to
        # the gated counters; both ride along ungated, at every nesting depth.
        # `milp_nodes` became a gated counter with the tree-shrinking PR, so
        # it *is* collected wherever it appears.
        data = {
            "scenarios": {
                "chain_n8": {
                    "simplex_iterations": 3350,
                    "analyze_fast_fails": 0,
                    "analyze_micros": 57.3,
                }
            },
            "infeasible": {
                "over_utilized": {
                    "modes": 8,
                    "analyze_fast_fails": 8,
                    "milp_nodes": 0,
                    "gate_rejection_rate": 1.0,
                    "analyze_micros": 40.1,
                }
            },
        }
        counters = cbr.collect_counters(data)
        self.assertEqual(
            counters,
            {
                "scenarios.chain_n8.simplex_iterations": 3350.0,
                "infeasible.over_utilized.milp_nodes": 0.0,
            },
        )

    def test_milp_nodes_collected_next_to_simplex_iterations(self):
        # Node counts are the second gated counter family: a strategy entry
        # carrying both must contribute two dotted paths.
        data = {
            "strategies": {
                "inherited_incremental": {
                    "simplex_iterations": 617,
                    "milp_nodes": 42,
                    "cuts_added": 9,
                    "pump_incumbents": 1,
                }
            }
        }
        counters = cbr.collect_counters(data)
        self.assertEqual(
            counters,
            {
                "strategies.inherited_incremental.simplex_iterations": 617.0,
                "strategies.inherited_incremental.milp_nodes": 42.0,
            },
        )

    def test_lu_factorizations_is_a_gated_counter(self):
        # The third gated family: with the factorization memo defeated every
        # warm start factorizes again and the count about doubles, while
        # nodes and pivots do not move at all.
        data = {
            "scenarios": {
                "chain_n8": {
                    "simplex_iterations": 3350,
                    "milp_nodes": 120,
                    "lu_factorizations": 260,
                    "strong_branch_probes": 64,
                }
            }
        }
        self.assertEqual(
            cbr.collect_counters(data),
            {
                "scenarios.chain_n8.simplex_iterations": 3350.0,
                "scenarios.chain_n8.milp_nodes": 120.0,
                "scenarios.chain_n8.lu_factorizations": 260.0,
            },
        )
        baseline = {"scenarios.chain_n8.lu_factorizations": 260.0}
        failures = cbr.check(baseline, {"scenarios.chain_n8.lu_factorizations": 510.0}, 0.20)
        self.assertEqual(len(failures), 1)
        self.assertIn("lu_factorizations", failures[0])
        # A baseline from before the counter existed gates nothing.
        self.assertEqual(cbr.check({}, {"scenarios.chain_n8.lu_factorizations": 510.0}, 0.20), [])

    def test_cut_and_pump_counters_are_informational(self):
        # The tree-shrinking counters (`cuts_added`, `cut_rounds`,
        # `pseudocost_branchings`, `strong_branch_probes`, `pump_incumbents`)
        # ride along for visibility but are workload descriptors, not
        # smaller-is-better work totals — they must never be gated.
        data = {
            "cuts_added": 12,
            "cut_rounds": 3,
            "pseudocost_branchings": 40,
            "strong_branch_probes": 64,
            "pump_incumbents": 1,
        }
        self.assertEqual(cbr.collect_counters(data), {})

    def test_boolean_leaves_are_never_counters(self):
        # bool subclasses int in Python; a flag that happened to be named
        # like a counter must not be gated arithmetically.
        self.assertEqual(cbr.collect_counters({"simplex_iterations": True}), {})


class CheckTest(unittest.TestCase):
    def test_within_allowance_passes(self):
        baseline = {"a.simplex_iterations": 100.0}
        current = {"a.simplex_iterations": 110.0}
        self.assertEqual(cbr.check(baseline, current, 0.20), [])

    def test_regression_fails(self):
        baseline = {"a.simplex_iterations": 100.0}
        current = {"a.simplex_iterations": 121.0}
        failures = cbr.check(baseline, current, 0.20)
        self.assertEqual(len(failures), 1)
        self.assertIn("a.simplex_iterations", failures[0])

    def test_missing_baseline_key_passes(self):
        # A new benchmark scenario has no committed baseline yet: "no
        # baseline, pass" (the old script crashed with a KeyError here).
        baseline = {}
        current = {"new_bench.simplex_iterations": 1234.0}
        self.assertEqual(cbr.check(baseline, current, 0.20), [])

    def test_baseline_only_keys_are_ignored(self):
        # Quick-mode runs sweep a subset of the committed full sweep.
        baseline = {"full_only.simplex_iterations": 50.0}
        current = {}
        self.assertEqual(cbr.check(baseline, current, 0.20), [])

    def test_improvement_passes_and_is_reported(self):
        # A perf PR dropping a counter far below the baseline passes, and the
        # report calls the improvement out.
        import contextlib
        import io

        baseline = {"a.simplex_iterations": 1054.0}
        current = {"a.simplex_iterations": 617.0}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            failures = cbr.check(baseline, current, 0.20)
        self.assertEqual(failures, [])
        self.assertIn("improved", out.getvalue())

    def test_milp_nodes_regression_fails_and_improvement_is_reported(self):
        import contextlib
        import io

        baseline = {"s.milp_nodes": 300.0}
        # A 3x node-count drop (the cutting-plane PR's target) is reported as
        # an improvement; a blow-up past the allowance fails.
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(cbr.check(baseline, {"s.milp_nodes": 100.0}, 0.20), [])
        self.assertIn("improved", out.getvalue())
        failures = cbr.check(baseline, {"s.milp_nodes": 400.0}, 0.20)
        self.assertEqual(len(failures), 1)
        self.assertIn("s.milp_nodes", failures[0])


class ZeroKeyTest(unittest.TestCase):
    def test_collects_zero_keys_at_any_depth(self):
        data = {
            "kinds": {
                "partition": {
                    "safety_violations_skip": 0,
                    "safety_violations_resync": 0,
                    "legacy_violations": 6,
                    "avg_rejoin_latency_rounds": 3.6,
                }
            }
        }
        zeros = cbr.collect_keys(data, cbr.ZERO_KEYS)
        self.assertEqual(
            zeros,
            {
                "kinds.partition.safety_violations_skip": 0.0,
                "kinds.partition.safety_violations_resync": 0.0,
            },
        )

    def test_zero_passes_and_nonzero_fails(self):
        self.assertEqual(cbr.check_zero({"k.safety_violations_skip": 0.0}), [])
        failures = cbr.check_zero({"k.safety_violations_resync": 2.0})
        self.assertEqual(len(failures), 1)
        self.assertIn("k.safety_violations_resync", failures[0])

    def test_zero_gate_ignores_baseline(self):
        # Unlike the ratio gate, a zero key fails even when the committed
        # baseline was itself non-zero: the invariant is absolute.
        with tempfile.TemporaryDirectory() as tmp:
            baseline = write_json(
                tmp, "baseline.json", {"k": {"safety_violations_skip": 5}}
            )
            bad = write_json(tmp, "bad.json", {"k": {"safety_violations_skip": 5}})
            ok = write_json(tmp, "ok.json", {"k": {"safety_violations_skip": 0}})
            self.assertEqual(cbr.main(["prog", baseline, bad]), 1)
            self.assertEqual(cbr.main(["prog", baseline, ok]), 0)

    def test_latency_and_ratio_leaves_are_informational(self):
        # The fault bench's latency/ratio leaves ride along ungated.
        data = {
            "delivery_ratio_skip": 0.94,
            "delivery_ratio_legacy": 0.93,
            "avg_rejoin_latency_rounds": 3.6,
            "rejoin_listen_rounds": 48,
            "avg_radio_duty_resync": 0.02,
            "legacy_violations": 6,
            "legacy_collisions": 6,
        }
        self.assertEqual(cbr.collect_counters(data), {})
        self.assertEqual(cbr.collect_keys(data, cbr.ZERO_KEYS), {})

    def test_service_invariant_keys_are_zero_gated(self):
        # The service bench's coalescing and warm-cache invariants are zero
        # keys: one duplicate solve or one solver node on a warm request is a
        # correctness failure, not a 20%-allowance question.
        data = {
            "duplicate_solves": 0,
            "warm_milp_nodes": 0,
            "phases": [{"name": "warm", "warm_milp_nodes": 0}],
        }
        zeros = cbr.collect_keys(data, cbr.ZERO_KEYS)
        self.assertEqual(
            zeros,
            {
                "duplicate_solves": 0.0,
                "warm_milp_nodes": 0.0,
                "phases[0].warm_milp_nodes": 0.0,
            },
        )
        self.assertEqual(cbr.check_zero(zeros), [])
        failures = cbr.check_zero({"duplicate_solves": 1.0, "warm_milp_nodes": 117.0})
        self.assertEqual(len(failures), 2)
        self.assertIn("duplicate_solves", failures[0])
        self.assertIn("warm_milp_nodes", failures[1])

    def test_service_throughput_and_latency_leaves_are_informational(self):
        # BENCH_service.json's throughput, percentile, and service-counter
        # leaves ride along ungated; only `milp_nodes` is a ratio-gated
        # counter and only the invariant keys are zero-gated.
        data = {
            "phases": [
                {
                    "name": "warm",
                    "throughput_rps": 2271.3,
                    "p50_micros": 1487,
                    "p95_micros": 2100,
                    "p99_micros": 2400,
                    "requests": 16,
                }
            ],
            "service_counters": {
                "requests": 36,
                "solved": 5,
                "coalesced": 15,
                "cache_hits": 16,
                "cache_hits_memory": 16,
                "cache_misses": 25,
            },
            "milp_nodes": 740,
        }
        self.assertEqual(cbr.collect_counters(data), {"milp_nodes": 740.0})
        self.assertEqual(cbr.collect_keys(data, cbr.ZERO_KEYS), {})

    def test_service_json_end_to_end_through_main(self):
        # A service bench run with a clean invariant passes; a duplicate
        # solve fails even though the baseline never carried the key.
        with tempfile.TemporaryDirectory() as tmp:
            baseline = write_json(tmp, "baseline.json", {"milp_nodes": 740})
            ok = write_json(
                tmp,
                "ok.json",
                {"milp_nodes": 750, "duplicate_solves": 0, "warm_milp_nodes": 0},
            )
            bad = write_json(
                tmp,
                "bad.json",
                {"milp_nodes": 750, "duplicate_solves": 1, "warm_milp_nodes": 0},
            )
            self.assertEqual(cbr.main(["prog", baseline, ok]), 0)
            self.assertEqual(cbr.main(["prog", baseline, bad]), 1)

    def test_incremental_budget_excess_keys_are_zero_gated(self):
        # The incremental-admission bench encodes its acceptance bars as
        # derived zero keys: `warm_node_budget_excess` (one-app edit must
        # cost at most half the from-scratch node count) and
        # `delta_byte_excess` (the per-node delta must ship under half the
        # full redeployment bytes). Zero passes; any excess fails.
        data = {
            "cases": {
                "modes4": {
                    "warm_node_budget_excess": 0,
                    "delta_byte_excess": 0,
                    "incremental_milp_nodes": 9,
                    "delta_bytes": 171,
                    "full_bytes": 3812,
                    "content_match": True,
                }
            }
        }
        zeros = cbr.collect_keys(data, cbr.ZERO_KEYS)
        self.assertEqual(
            zeros,
            {
                "cases.modes4.warm_node_budget_excess": 0.0,
                "cases.modes4.delta_byte_excess": 0.0,
            },
        )
        self.assertEqual(cbr.check_zero(zeros), [])
        failures = cbr.check_zero(
            {
                "cases.modes4.delta_byte_excess": 40.0,
                "cases.modes4.warm_node_budget_excess": 3.0,
            }
        )
        self.assertEqual(len(failures), 2)
        self.assertIn("delta_byte_excess", failures[0])
        self.assertIn("warm_node_budget_excess", failures[1])

    def test_incremental_informational_leaves_are_not_gated(self):
        # The incremental counterparts and byte counts ride along for
        # visibility; only the scratch `milp_nodes`/`simplex_iterations`
        # leaves are ratio-gated and only the excess keys are zero-gated.
        data = {
            "incremental_milp_nodes": 9,
            "incremental_simplex_iterations": 91,
            "modes_reused": 3,
            "modes_resolved": 1,
            "warm_started_modes": 1,
            "delta_bytes": 171,
            "full_bytes": 3812,
            "delta_ops": 2,
            "content_match": True,
        }
        self.assertEqual(cbr.collect_counters(data), {})
        self.assertEqual(cbr.collect_keys(data, cbr.ZERO_KEYS), {})

    def test_incremental_json_end_to_end_through_main(self):
        # A fresh BENCH_incremental.json passes with no baseline (the ratio
        # gate prints "no baseline — pass"; the zero keys hold on their own),
        # and a delta-budget blow-out fails even against that empty baseline.
        with tempfile.TemporaryDirectory() as tmp:
            baseline = write_json(tmp, "baseline.json", {})
            ok = write_json(
                tmp,
                "ok.json",
                {
                    "cases": {
                        "modes4": {
                            "milp_nodes": 530,
                            "simplex_iterations": 5732,
                            "warm_node_budget_excess": 0,
                            "delta_byte_excess": 0,
                        }
                    }
                },
            )
            bad = write_json(
                tmp,
                "bad.json",
                {
                    "cases": {
                        "modes4": {
                            "milp_nodes": 530,
                            "simplex_iterations": 5732,
                            "warm_node_budget_excess": 12,
                            "delta_byte_excess": 0,
                        }
                    }
                },
            )
            self.assertEqual(cbr.main(["prog", baseline, ok]), 0)
            self.assertEqual(cbr.main(["prog", baseline, bad]), 1)

    def test_fault_json_without_counter_keys_is_accepted_by_main(self):
        # BENCH_faults.json carries only zero keys — main must not trip the
        # "no counters found" guard on it.
        with tempfile.TemporaryDirectory() as tmp:
            baseline = write_json(tmp, "baseline.json", {})
            current = write_json(
                tmp,
                "current.json",
                {"kinds": {"compound": {"safety_violations_skip": 0}}},
            )
            self.assertEqual(cbr.main(["prog", baseline, current]), 0)


class MainTest(unittest.TestCase):
    def test_end_to_end_pass_and_fail(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = write_json(
                tmp, "baseline.json", {"s": {"simplex_iterations": 100}}
            )
            ok = write_json(tmp, "ok.json", {"s": {"simplex_iterations": 105}})
            bad = write_json(tmp, "bad.json", {"s": {"simplex_iterations": 200}})
            self.assertEqual(cbr.main(["prog", baseline, ok]), 0)
            self.assertEqual(cbr.main(["prog", baseline, bad]), 1)

    def test_new_key_against_stale_baseline_passes(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = write_json(tmp, "baseline.json", {"old": {"simplex_iterations": 9}})
            current = write_json(
                tmp,
                "current.json",
                {"old": {"simplex_iterations": 9}, "new": {"simplex_iterations": 1}},
            )
            self.assertEqual(cbr.main(["prog", baseline, current]), 0)

    def test_current_without_counters_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = write_json(tmp, "baseline.json", {})
            current = write_json(tmp, "current.json", {"only": "strings"})
            self.assertEqual(cbr.main(["prog", baseline, current]), 1)

    def test_missing_arguments_usage_error(self):
        self.assertEqual(cbr.main(["prog"]), 2)


if __name__ == "__main__":
    unittest.main()
