//! Admission stores only what changed.
//!
//! A re-synthesis keeps every mode its edit did not touch, and the cache
//! entry it stores shares those modes — schedule and root basis — with the
//! predecessor's entry instead of holding copies. These tests chain
//! tightening edits (+1 µs on the first task of the application only the
//! last mode runs) of `bench(N, Chain)` systems, the online-admission
//! pattern, and check:
//!
//! * every kept mode of a successor entry is the predecessor's allocation,
//!   and so is its warm basis, while a re-solved mode is a new one;
//! * the resident entries of `k` edits of an `N`-mode system hold exactly
//!   `N + k` distinct mode schedules;
//! * the reports and bytes are those of re-synthesizing from deep copies;
//! * evicting predecessors, by the entry cap or by `evict`, leaves each
//!   successor encoding to the same bytes as a deep copy of it, with the
//!   `insertions - evictions == resident` identity intact.

use std::collections::HashSet;
use std::sync::Arc;
use ttw::core::cache::{
    artifacts_to_json, synthesis_key, synthesize_system_cached, ScheduleCache, SynthesisArtifacts,
};
use ttw::core::export::system_schedule_to_json;
use ttw::core::json::Json;
use ttw::core::resynth::{resynthesize_system, ResynthesisReport};
use ttw::core::synthesis::{IlpSynthesizer, ModeWarmStart};
use ttw::core::{ModeSchedule, System, SystemSchedule};
use ttw::testkit::{generate, GeneratorConfig, GraphShape};

/// The generator seed of every chain (the cheapest feasible `bench`
/// predecessors).
const SEED: u64 = 6;
/// Tightening edits per chain.
const EDITS: usize = 3;
/// Chain depths.
const MODE_COUNTS: [usize; 3] = [4, 8, 16];

/// One system's edit chain: the cache keys of the predecessor and of each
/// successor, in order, and each re-synthesis's report.
struct EditChain {
    keys: Vec<String>,
    reports: Vec<ResynthesisReport>,
}

/// `system` with 1 µs more WCET on the first task of the application only
/// its last mode runs: exactly one mode's ILP tightens.
fn bump_private_wcet(system: &System) -> System {
    let mut edited = system.clone();
    let (last_mode, mode) = system.modes().last().expect("modes exist");
    let app = mode
        .applications
        .iter()
        .copied()
        .find(|&app| system.modes_of_application(app).len() == 1)
        .unwrap_or_else(|| panic!("mode {last_mode} has no application of its own"));
    let task = system.application(app).tasks[0];
    edited
        .set_task_wcet(task, system.task(task).wcet + 1)
        .expect("a larger WCET is valid");
    edited
}

/// Stores a cold solve of the `modes`-mode chain in `cache`, then `EDITS`
/// successive edits, each re-synthesized from the entry before it. `before`
/// runs ahead of every re-synthesis with the predecessor's key.
fn edit_chain(cache: &ScheduleCache, modes: usize, mut before: impl FnMut(&str)) -> EditChain {
    let scenario = generate(&GeneratorConfig::bench(modes, GraphShape::Chain), SEED);
    let (config, backend) = (scenario.scheduler_config(), IlpSynthesizer);
    let (mut system, graph) = (scenario.system, scenario.graph);
    synthesize_system_cached(&system, &graph, &config, cache).expect("feasible");
    let mut chain = EditChain {
        keys: vec![synthesis_key(&system, &graph, &config)],
        reports: Vec::new(),
    };
    for _ in 0..EDITS {
        system = bump_private_wcet(&system);
        let predecessor = chain.keys.last().expect("the cold solve's key");
        before(predecessor);
        let (_, report) =
            resynthesize_system(&system, &graph, &config, &backend, cache, predecessor)
                .expect("a one-microsecond edit stays feasible");
        chain.keys.push(synthesis_key(&system, &graph, &config));
        chain.reports.push(report);
    }
    chain
}

/// `schedule` with every mode in an allocation of its own.
fn deep_schedule(schedule: &SystemSchedule) -> SystemSchedule {
    SystemSchedule {
        schedules: schedule
            .schedules
            .iter()
            .map(|(&mode, s)| (mode, Arc::new(ModeSchedule::clone(s))))
            .collect(),
        ..schedule.clone()
    }
}

/// `artifacts` with every basis in an allocation of its own.
fn deep_artifacts(artifacts: &SynthesisArtifacts) -> SynthesisArtifacts {
    SynthesisArtifacts {
        warm: artifacts
            .warm
            .iter()
            .map(|(&mode, warm)| {
                let basis = Arc::new(ttw::milp::Basis::clone(&warm.basis));
                let rounds = warm.rounds;
                (mode, ModeWarmStart { rounds, basis })
            })
            .collect(),
        ..artifacts.clone()
    }
}

fn entry(cache: &ScheduleCache, key: &str) -> (Arc<SystemSchedule>, Arc<SynthesisArtifacts>) {
    let schedule = cache.peek(key).expect("resident");
    let artifacts = cache.artifacts(key).expect("stored with artifacts");
    (schedule, artifacts)
}

#[test]
fn successor_entries_share_every_kept_mode_and_basis_with_their_predecessor() {
    for modes in MODE_COUNTS {
        let cache = ScheduleCache::in_memory();
        let chain = edit_chain(&cache, modes, |_| {});
        for (i, report) in chain.reports.iter().enumerate() {
            let (old, old_artifacts) = entry(&cache, &chain.keys[i]);
            let (new, new_artifacts) = entry(&cache, &chain.keys[i + 1]);
            let context = format!("{modes} modes, edit {}", i + 1);
            let mut shared = 0;
            for (mode, schedule) in &new.schedules {
                if Arc::ptr_eq(schedule, &old.schedules[mode]) {
                    shared += 1;
                    let basis = |a: &SynthesisArtifacts| Arc::clone(&a.warm[mode].basis);
                    assert!(
                        Arc::ptr_eq(&basis(&new_artifacts), &basis(&old_artifacts)),
                        "{context}: kept mode {mode} copied its basis"
                    );
                }
            }
            assert_eq!(
                shared, report.modes_reused,
                "{context}: kept modes are shared"
            );
            assert_eq!(
                (
                    report.predecessor_found,
                    report.modes_reused,
                    report.modes_resolved
                ),
                (true, modes - 1, 1),
                "{context}: one mode re-solved, every other kept"
            );
        }
        let distinct: HashSet<*const ModeSchedule> = chain
            .keys
            .iter()
            .flat_map(|key| {
                let schedule = cache.peek(key).expect("resident");
                schedule
                    .schedules
                    .values()
                    .map(Arc::as_ptr)
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(
            distinct.len(),
            modes + EDITS,
            "{modes} modes: the cold entry's modes plus one per edit"
        );

        // Re-synthesizing each edit from a deep copy of its predecessor
        // reports the same work and stores the same bytes.
        let copies = ScheduleCache::in_memory();
        let copied = edit_chain(&copies, modes, |key| {
            let (schedule, artifacts) = entry(&copies, key);
            copies.store_with_artifacts(
                key,
                &deep_schedule(&schedule),
                Some(&deep_artifacts(&artifacts)),
            );
        });
        assert_eq!(copied.keys, chain.keys);
        assert_eq!(copied.reports, chain.reports, "{modes} modes");
        for key in &chain.keys {
            assert_eq!(
                entry_bytes(&cache, key),
                entry_bytes(&copies, key),
                "{modes} modes, entry {key}"
            );
        }
    }
}

/// The bytes every resident form of a successor entry encodes to: the disk
/// entry, the wire body and the warm sidecar.
fn entry_bytes(cache: &ScheduleCache, key: &str) -> (String, String, String) {
    let (schedule, artifacts) = entry(cache, key);
    (
        system_schedule_to_json(&schedule).expect("serialize"),
        cache.wire_body(key, &schedule).to_string(),
        artifacts_to_json(&artifacts),
    )
}

/// The same bytes of a deep copy of `key`'s entry.
fn deep_bytes(cache: &ScheduleCache, key: &str) -> (String, String, String) {
    let (schedule, artifacts) = entry(cache, key);
    let schedule = deep_schedule(&schedule);
    (
        system_schedule_to_json(&schedule).expect("serialize"),
        schedule.to_json(),
        artifacts_to_json(&deep_artifacts(&artifacts)),
    )
}

/// Once its predecessors are gone, `key`'s entry alone holds its modes and
/// bases: eviction freed whatever only the predecessors held.
fn assert_sole_owner(cache: &ScheduleCache, key: &str, context: &str) {
    let (schedule, artifacts) = entry(cache, key);
    for (mode, shared) in &schedule.schedules {
        assert_eq!(Arc::strong_count(shared), 1, "{context}: mode {mode}");
        let basis = &artifacts.warm[mode].basis;
        assert_eq!(Arc::strong_count(basis), 1, "{context}: basis {mode}");
    }
}

fn assert_identity(cache: &ScheduleCache, context: &str) {
    assert_eq!(
        cache.insertions() - cache.evictions(),
        cache.resident(),
        "{context}: every insertion is resident or evicted"
    );
}

#[test]
fn evicting_a_predecessor_leaves_its_successor_whole() {
    for modes in MODE_COUNTS {
        // The reference: every entry resident, its bytes from deep copies.
        let reference = ScheduleCache::in_memory();
        let chain = edit_chain(&reference, modes, |_| {});
        let expected: Vec<_> = chain
            .keys
            .iter()
            .map(|key| deep_bytes(&reference, key))
            .collect();
        let last = chain.keys.last().expect("a chain has keys");

        // A cap of one entry evicts each predecessor when its successor is
        // stored, while the re-synthesis still holds it.
        let capped = ScheduleCache::in_memory().with_memory_cap(1);
        edit_chain(&capped, modes, |_| {});
        let context = format!("{modes} modes, capped");
        assert_eq!(
            (capped.resident(), capped.evictions()),
            (1, EDITS),
            "{context}"
        );
        assert_identity(&capped, &context);
        assert!(capped.peek(&chain.keys[0]).is_none(), "{context}: evicted");
        assert_eq!(
            &entry_bytes(&capped, last),
            expected.last().expect("keys"),
            "{context}"
        );
        assert_sole_owner(&capped, last, &context);

        // `evict` of every predecessor, oldest first, leaves the last edit.
        let evicted = ScheduleCache::in_memory();
        edit_chain(&evicted, modes, |_| {});
        let context = format!("{modes} modes, evict");
        for (i, key) in chain.keys.iter().enumerate() {
            assert_eq!(
                entry_bytes(&evicted, key),
                expected[i],
                "{context}: entry {i}"
            );
        }
        for key in &chain.keys[..EDITS] {
            evicted.evict(key);
            assert_identity(&evicted, &context);
        }
        assert_eq!(
            (evicted.resident(), evicted.evictions()),
            (1, EDITS),
            "{context}"
        );
        assert_eq!(
            &entry_bytes(&evicted, last),
            expected.last().expect("keys"),
            "{context}"
        );
        assert_sole_owner(&evicted, last, &context);
    }
}
