//! Service-level counters and their wire snapshot.
//!
//! The live [`ServiceStats`] block is a set of relaxed atomics bumped on the
//! request path; [`StatsSnapshot`] is the plain-data copy that crosses the
//! wire in a `stats` response and lands in `BENCH_service.json`. The cache
//! counters are folded in at snapshot time from
//! [`ttw_core::cache::ScheduleCache`], so one snapshot reconciles the whole
//! pipeline: `requests == solved + incremental + coalesced + cache_hits +
//! rejected + solve_errors`, `repeat_hits <= cache_mem_hits`, and the
//! bounded memory tier's `insertions == resident + evictions`.

use std::sync::atomic::{AtomicUsize, Ordering};
use ttw_core::cache::ScheduleCache;

/// Declares the service's counters from one table: the `live` ones are
/// atomics of [`ServiceStats`] bumped on the request path, the `cache` ones
/// are read off the [`ScheduleCache`] getter named after `=` at snapshot
/// time. The table yields both structs, [`ServiceStats::snapshot`],
/// [`StatsSnapshot::fields`] and the snapshot's wire form (one member per
/// counter, named like the field, every one required), so a counter is added
/// or removed in one line.
macro_rules! service_counters {
    (
        live { $( $(#[$live_doc:meta])* $live:ident, )* }
        cache { $( $(#[$cache_doc:meta])* $cached:ident = $getter:ident, )* }
    ) => {
        /// Live request-path counters. All loads/stores are relaxed: the
        /// counters are monotonic telemetry, never control flow.
        #[derive(Debug, Default)]
        pub struct ServiceStats {
            $( $(#[$live_doc])* pub $live: AtomicUsize, )*
        }

        impl ServiceStats {
            /// Copies the live counters, folding in the cache-tier counters.
            pub fn snapshot(&self, cache: &ScheduleCache) -> StatsSnapshot {
                StatsSnapshot {
                    $( $live: self.$live.load(Ordering::Relaxed), )*
                    $( $cached: cache.$getter(), )*
                }
            }
        }

        /// A point-in-time copy of every service and cache counter.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $( $(#[$live_doc])* pub $live: usize, )*
            $( $(#[$cache_doc])* pub $cached: usize, )*
        }

        impl StatsSnapshot {
            /// Field names and values in a stable order, for serialization.
            pub fn fields(
                &self,
            ) -> [(&'static str, usize); [$(stringify!($live),)* $(stringify!($cached),)*].len()] {
                [
                    $( (stringify!($live), self.$live), )*
                    $( (stringify!($cached), self.$cached), )*
                ]
            }
        }

        ttw_core::json_object!(StatsSnapshot as "stats" { $($live,)* $($cached,)* });
    };
}

service_counters! {
    live {
        /// Synthesis requests accepted off the wire.
        requests,
        /// Requests that ran a solver to completion.
        solved,
        /// Resynthesis requests served by the incremental path (schedule
        /// reuse plus warm-started re-solves of the dirty modes).
        incremental,
        /// Requests that piggybacked on an identical in-flight solve.
        coalesced,
        /// Requests bounced by the admission queue.
        rejected,
        /// Requests whose solve (own or coalesced) failed.
        solve_errors,
        /// Response-payload bytes handed to the wire (all response types),
        /// booked before the write so a reply a client holds is in every
        /// snapshot taken after it.
        reply_bytes,
    }
    cache {
        /// Cache probes served from either tier.
        cache_hits = hits,
        /// Cache hits served by the in-process memory tier.
        cache_mem_hits = mem_hits,
        /// Cache hits served by the disk tier.
        cache_disk_hits = disk_hits,
        /// Cache probes that found nothing.
        cache_misses = misses,
        /// Cache probes that found an unparsable disk entry.
        cache_corrupt = corrupt,
        /// Distinct keys ever inserted into the memory tier.
        cache_insertions = insertions,
        /// Memory-tier entries evicted (capacity or explicit).
        cache_evictions = evictions,
        /// Entries resident in the memory tier right now.
        cache_resident = resident,
        /// Memory hits served from a recorded request payload, without
        /// decoding the request (each is also one of `cache_mem_hits`).
        repeat_hits = repeat_hits,
    }
}

impl ServiceStats {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicUsize) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicUsize, n: usize) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Checks the pipeline-wide accounting identities: every accepted
    /// request is explained by exactly one outcome, every cache hit by
    /// exactly one tier, every repeat hit is a memory hit, and every
    /// memory-tier insertion is either still resident or was evicted.
    pub fn reconciles(&self) -> bool {
        self.requests
            == self.solved
                + self.incremental
                + self.coalesced
                + self.cache_hits
                + self.rejected
                + self.solve_errors
            && self.cache_hits == self.cache_mem_hits + self.cache_disk_hits
            && self.repeat_hits <= self.cache_mem_hits
            && self.cache_insertions == self.cache_resident + self.cache_evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_its_wire_form() {
        use ttw_core::json::Json;
        let snapshot = StatsSnapshot {
            requests: 11,
            solved: 2,
            incremental: 1,
            coalesced: 3,
            rejected: 1,
            solve_errors: 0,
            reply_bytes: 4096,
            cache_hits: 4,
            cache_mem_hits: 3,
            cache_disk_hits: 1,
            cache_misses: 5,
            cache_corrupt: 1,
            cache_insertions: 6,
            cache_evictions: 2,
            cache_resident: 4,
            repeat_hits: 2,
        };
        let value = snapshot.to_value();
        // One member per counter, under the name `fields` gives it.
        let members = value.as_object().expect("an object");
        assert_eq!(members.len(), 16);
        for (name, count) in snapshot.fields() {
            assert_eq!(members[name].as_u64(), Some(count as u64), "{name}");
        }
        assert_eq!(StatsSnapshot::from_value(&value), Ok(snapshot));
        assert!(snapshot.reconciles());

        // Every counter is required: a snapshot without one is malformed.
        let mut partial = value.as_object().expect("an object").clone();
        partial.remove("repeat_hits");
        let partial = StatsSnapshot::from_value(&ttw_core::json::Value::Object(partial));
        assert!(partial.is_err(), "{partial:?}");
    }

    #[test]
    fn reconciliation_catches_repeats_beyond_the_memory_hits() {
        let snapshot = StatsSnapshot {
            requests: 2,
            cache_hits: 2,
            cache_mem_hits: 1,
            cache_disk_hits: 1,
            repeat_hits: 2,
            ..StatsSnapshot::default()
        };
        assert!(!snapshot.reconciles());
        assert!(StatsSnapshot {
            repeat_hits: 1,
            ..snapshot
        }
        .reconciles());
    }

    #[test]
    fn reconciliation_catches_lost_requests() {
        let snapshot = StatsSnapshot {
            requests: 5,
            solved: 1,
            ..StatsSnapshot::default()
        };
        assert!(!snapshot.reconciles());
    }

    #[test]
    fn reconciliation_catches_leaked_memory_entries() {
        let snapshot = StatsSnapshot {
            cache_insertions: 5,
            cache_evictions: 1,
            cache_resident: 3, // one entry unaccounted for
            ..StatsSnapshot::default()
        };
        assert!(!snapshot.reconciles());
    }
}
