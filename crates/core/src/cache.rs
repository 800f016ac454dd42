//! Fingerprint-keyed two-tier schedule cache.
//!
//! Multi-mode synthesis is deterministic: the same [`System`], [`ModeGraph`],
//! [`SchedulerConfig`] and backend always produce the byte-identical
//! [`SystemSchedule`]. Benches, examples, repeated deployments and — since the
//! scheduler became a long-running service (`ttw-service`) — every client
//! asking for an already-solved configuration would otherwise re-pay the full
//! MILP cost for an answer that has not changed.
//!
//! [`ScheduleCache`] keys a synthesized [`SystemSchedule`] by
//! [`synthesis_key`]: the FNV-1a 64 hash of one compact JSON document,
//! written by the [`crate::json`] codec that writes every wire and disk
//! document, of everything the result depends on:
//!
//! * the system, its mode graph (root included) and the full scheduler
//!   configuration, each in its codec form,
//! * the backend name, and
//! * the crate version plus a cache format version.
//!
//! Two requests share a key exactly when those documents are byte-equal, so
//! no field the codec carries can be left out of the key.
//!
//! The version pair is the staleness guard, and it is deliberate about what
//! it does and does not catch: a *released* version change always misses,
//! but an uncommitted same-version solver edit (which can legitimately move
//! the pipeline to a different co-optimal schedule) is invisible to the key.
//! The rule for such changes is to bump the key module's
//! `CACHE_FORMAT_VERSION` in the same commit — or, during local iteration,
//! wipe the cache directory (it lives under `target/` by default, so
//! `cargo clean` also clears it). A disk entry keyed by an older format
//! version is never found again: it simply misses.
//!
//! # Tiers
//!
//! The cache has two schedule tiers plus a warm-start sidecar:
//!
//! 1. **Memory** — one map of entries behind one `RwLock`, shared by the
//!    scheduler service's threads: a hit is a read lock plus an `Arc`
//!    clone — no parsing, no I/O. An entry also keeps the compact JSON of
//!    its schedule once a hit has been served over the wire
//!    ([`ScheduleCache::wire_body`]), so later hits ship those bytes instead
//!    of encoding the schedule again, and the request payload that hit
//!    asked with ([`ScheduleCache::record_request`]), so the same bytes
//!    asked again find the entry through a payload index without being
//!    decoded or keyed ([`ScheduleCache::probe_repeat`]). Both are built by
//!    the first such hit, not by the store, and go with the entry when it is
//!    evicted or overwritten; a recorded payload is never longer than the
//!    body beside it. The payload index sits under the same lock as the
//!    entries it points into, so it never names an entry that has left.
//!    An entry stored by a re-synthesis shares every mode schedule it kept
//!    with its predecessor's entry (see [`crate::resynth`]), so storing an
//!    edit costs memory for the modes it re-solved, not for the whole system.
//!    The tier is optionally bounded ([`ScheduleCache::with_memory_cap`]):
//!    beyond the cap the oldest-inserted entries are evicted (memory copy
//!    only — the disk tier is the archive), and the
//!    `insertions - evictions == resident` identity reconciles exactly.
//!    Evicting an entry frees what only it holds: its own maps, the modes
//!    and bases no other entry shares, its `System` copy, its wire body and
//!    its recorded payload. A mode a successor shares stays with the
//!    successor.
//! 2. **Disk** — one pretty-printed JSON file per key (the
//!    [`crate::export::system_schedule_to_json`] codec).
//!    [`ScheduleCache::store`] updates the memory tier and then writes the
//!    file on the calling thread, so the entry is on disk when `store`
//!    returns. A disk hit (fresh process, warm `target/`) is promoted into
//!    the memory tier.
//! 3. **Warm artifacts** — entries stored through
//!    [`ScheduleCache::store_with_artifacts`] additionally carry
//!    [`SynthesisArtifacts`]: the inputs the schedule was synthesized from
//!    plus each mode's MILP root basis, persisted to a `.warm.json` sidecar.
//!    This is the material [`crate::resynth::resynthesize_system`] uses to
//!    warm-start an edited system's re-solve from its cached predecessor.
//!    Each basis sits behind an `Arc`, and a successor shares the bases of
//!    the modes it kept just as it shares their schedules; the sidecar still
//!    holds every basis in full, each as a JSON object of the same codec
//!    (`basic`, `devex`, `status`, `version`) that
//!    [`Basis::from_letters`] checks on the way in. A sidecar whose basis
//!    is of another form, another solver build or inconsistent reads as no
//!    artifacts, and the re-synthesis that wanted it solves cold.
//!
//! Disk files are published via write-to-temp-then-rename so a concurrent
//! reader never observes a torn entry. Temp names carry the process id
//! *and* a process-wide atomic sequence number: two threads (or two cache
//! instances sharing a directory) storing the same key concurrently write
//! distinct temp files, so one writer's content can never leak into the
//! other's rename. A failed temp write removes whatever partial file it
//! left behind instead of leaking `.tmp` litter into the cache directory.
//!
//! # Accounting
//!
//! Every probe is classified as exactly one of *hit* (memory or disk),
//! *miss* (no entry) or *corrupt* (an entry exists on disk but does not
//! parse — it is left to be overwritten by the next store). The per-instance
//! counters therefore reconcile exactly: `hits + misses + corrupt` equals
//! the number of probes, and `mem_hits + disk_hits` equals `hits`. A repeat
//! served through the payload index is a memory hit like any other, also
//! counted in `repeat_hits`; bytes that are not recorded count nothing.
//! Every recorded payload belongs to one resident entry, so
//! `recorded <= resident`.
//!
//! [`synthesize_system_cached`] is the drop-in entry point: a hit
//! deserializes/clones the stored schedule and skips synthesis entirely; a
//! miss synthesizes, stores and returns. Failed syntheses are *not* cached
//! (the partial result carries error context a cache entry cannot
//! represent).

use crate::config::SchedulerConfig;
use crate::export::{system_schedule_from_json, system_schedule_to_json};
use crate::ids::ModeId;
use crate::json::{Json, JsonError, Reader, Writer};
use crate::modegraph::ModeGraph;
use crate::schedule::SystemSchedule;
use crate::synthesis::{synthesize_in_order, ModeWarmStart, Synthesizer, SystemSynthesisError};
use crate::system::System;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use ttw_milp::Basis;

mod key;

pub use key::synthesis_key;

/// Process-wide store sequence: combined with the process id it makes every
/// temp-file name unique, even across cache instances sharing one directory.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Whether a cached-synthesis call was served from the cache or had to run
/// the full pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The schedule came from the cache (memory or disk); no synthesis ran.
    Hit,
    /// No entry existed; the schedule was synthesized and stored.
    Miss,
    /// An entry existed but was unreadable or unparsable; the schedule was
    /// re-synthesized and the corrupt entry overwritten.
    Corrupt,
}

impl CacheOutcome {
    /// `true` when the schedule came from the cache.
    pub fn is_hit(self) -> bool {
        self == CacheOutcome::Hit
    }
}

/// Which tier served a probe, with the shared entry.
#[derive(Debug, Clone)]
pub enum CacheProbe {
    /// Served from the in-process memory tier.
    Memory(Arc<SystemSchedule>),
    /// Served from the on-disk tier (and promoted into the memory tier).
    Disk(Arc<SystemSchedule>),
    /// A disk entry exists but does not parse; the next store overwrites it.
    Corrupt,
    /// No entry in either tier.
    Absent,
}

impl CacheProbe {
    /// The hit schedule together with its tier — `true` when the disk tier
    /// served it, `false` for the memory tier.
    pub fn hit(self) -> Option<(Arc<SystemSchedule>, bool)> {
        match self {
            CacheProbe::Memory(s) => Some((s, false)),
            CacheProbe::Disk(s) => Some((s, true)),
            CacheProbe::Corrupt | CacheProbe::Absent => None,
        }
    }
}

/// MILP warm-start material cached alongside a schedule: the inputs the
/// predecessor was synthesized from plus the per-mode root bases captured
/// from its solve.
///
/// This is everything [`crate::resynth::resynthesize_system`] needs to diff
/// a successor system against its cached predecessor mode-by-mode, keep the
/// untouched modes' schedules verbatim, and warm-start the re-solved modes'
/// ILPs instead of starting them cold.
#[derive(Debug, Clone)]
pub struct SynthesisArtifacts {
    /// The system the cached schedule was synthesized from.
    pub system: System,
    /// Its mode graph.
    pub graph: ModeGraph,
    /// The scheduler configuration used.
    pub config: SchedulerConfig,
    /// Backend name (the artifacts are only reusable by the same backend).
    pub backend: String,
    /// Root basis (and its round count) of each mode's winning ILP attempt;
    /// a mode whose winning attempt left no root basis has no entry.
    pub warm: BTreeMap<ModeId, ModeWarmStart>,
}

/// What a basis object holds on the way in, before [`Basis::from_letters`]
/// checks it.
struct BasisMembers {
    basic: Vec<usize>,
    devex: Vec<f64>,
    status: String,
    version: String,
}

crate::json_object!(BasisMembers as "basis" { basic, devex, status, version });

/// A basis travels as the object of its read accessors,
/// `{"basic":[…],"devex":[…],"status":"BLU…","version":"…"}`: Devex weights
/// in the shortest digits that read back to the same bits, and the crate
/// version of the solver build that wrote it, which is the only build that
/// reads it back.
impl Json for Basis {
    fn write(&self, w: &mut Writer<'_>) {
        w.object(&mut [
            ("basic", &|w| {
                w.array(self.basic(), |w, &j| w.integer(j as u64))
            }),
            ("devex", &|w| {
                w.array(self.devex(), |w, &weight| w.number(weight))
            }),
            ("status", &|w| w.string(&self.status_letters())),
            ("version", &|w| w.string(env!("CARGO_PKG_VERSION"))),
        ]);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let at = r.offset();
        let members = BasisMembers::read(r)?;
        if members.version != env!("CARGO_PKG_VERSION") {
            return Err(JsonError::custom("expected a basis of this solver build").at(at));
        }
        Basis::from_letters(&members.status, members.basic, members.devex)
            .ok_or_else(|| JsonError::custom("expected a consistent basis").at(at))
    }
}

crate::json_object!(ModeWarmStart as "warm entry" { rounds, basis });
crate::json_object!(SynthesisArtifacts as "artifacts entry" {
    system, graph, config, backend, warm
} check graph_covers_system);

fn graph_covers_system(artifacts: &SynthesisArtifacts) -> Result<(), JsonError> {
    Ok(artifacts.graph.check_covers(&artifacts.system)?)
}

/// Serializes cached warm-start artifacts to pretty-printed JSON.
pub fn artifacts_to_json(artifacts: &SynthesisArtifacts) -> String {
    artifacts.to_json_pretty()
}

/// Parses warm-start artifacts back from their JSON form.
///
/// # Errors
///
/// Returns a [`JsonError`] when the document is not a valid artifacts entry:
/// malformed, a mode graph over other modes than the system's, or a basis
/// that does not decode (written by a different solver build or in another
/// form, tampered with). [`ScheduleCache::artifacts`] reads all of them as
/// "no artifacts", and the re-synthesis solves cold.
pub fn artifacts_from_json(text: &str) -> Result<SynthesisArtifacts, JsonError> {
    SynthesisArtifacts::from_json(text)
}

/// One memory-tier entry: the schedule plus (when the entry came through
/// [`ScheduleCache::store_with_artifacts`]) its warm-start material and
/// (once a hit has been served over the wire) its encoded reply body and the
/// request payload that hit came in. Eviction, or a later store under the
/// same key, drops all four together; the mode schedules and bases the entry
/// shares with a successor's entry live on with that successor.
#[derive(Debug)]
struct CacheEntry {
    schedule: Arc<SystemSchedule>,
    artifacts: Option<Arc<SynthesisArtifacts>>,
    /// See [`ScheduleCache::wire_body`]. Empty until the first caller asks:
    /// most entries of an edit stream are stored and never read again, and
    /// must not pay memory for bytes nobody requests. Filled under the read
    /// lock, so concurrent first callers share one encode.
    wire_body: OnceLock<Arc<str>>,
    /// See [`ScheduleCache::record_request`]; the same bytes key the payload
    /// index. Written only under the write lock.
    request: Option<Arc<[u8]>>,
}

/// The memory tier: the entry map, the insertion-order queue the entry cap
/// evicts from (oldest first), and the payload index from each recorded
/// request to the key of the resident entry that holds it.
#[derive(Debug, Default)]
struct MemoryTier {
    map: HashMap<String, CacheEntry>,
    order: VecDeque<String>,
    requests: HashMap<Arc<[u8]>, String>,
}

impl MemoryTier {
    /// Drops `key`'s entry and its recorded payload together, leaving the
    /// order queue to the caller; `false` when the key was not resident.
    fn remove(&mut self, key: &str) -> bool {
        let Some(entry) = self.map.remove(key) else {
            return false;
        };
        if let Some(request) = &entry.request {
            self.requests.remove(request);
        }
        true
    }

    /// Whether [`ScheduleCache::record_request`] may record `request` on
    /// `key`'s entry: `schedule` is still that entry, which has no payload
    /// yet and a wire body at least as long, and no entry holds the bytes.
    fn can_record(&self, key: &str, schedule: &Arc<SystemSchedule>, request: &[u8]) -> bool {
        let fits = |entry: &CacheEntry| {
            Arc::ptr_eq(&entry.schedule, schedule)
                && entry.request.is_none()
                && entry
                    .wire_body
                    .get()
                    .is_some_and(|body| request.len() <= body.len())
        };
        self.map.get(key).is_some_and(fits) && !self.requests.contains_key(request)
    }
}

/// The two-tier schedule cache described in the [module docs](self).
///
/// All methods take `&self`; the cache is designed to be shared across the
/// scheduler service's solver and connection threads behind an `Arc`.
#[derive(Debug)]
pub struct ScheduleCache {
    /// Disk-tier root; `None` for a memory-only cache.
    dir: Option<PathBuf>,
    memory: RwLock<MemoryTier>,
    /// Memory-tier entry cap; `None` means unbounded.
    memory_cap: Option<usize>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    corrupt: AtomicUsize,
    mem_hits: AtomicUsize,
    disk_hits: AtomicUsize,
    insertions: AtomicUsize,
    evictions: AtomicUsize,
    repeat_hits: AtomicUsize,
}

impl ScheduleCache {
    /// A two-tier cache whose disk tier is rooted at `dir` (created lazily
    /// on the first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::build(Some(dir.into()))
    }

    /// A memory-only cache: probes never touch the filesystem and stores
    /// are not persisted. Used by the scheduler service when no cache
    /// directory is configured.
    pub fn in_memory() -> Self {
        Self::build(None)
    }

    fn build(dir: Option<PathBuf>) -> Self {
        ScheduleCache {
            dir,
            memory: RwLock::default(),
            memory_cap: None,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            corrupt: AtomicUsize::new(0),
            mem_hits: AtomicUsize::new(0),
            disk_hits: AtomicUsize::new(0),
            insertions: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            repeat_hits: AtomicUsize::new(0),
        }
    }

    /// Bounds the memory tier to `cap` entries, evicting the oldest-inserted
    /// first (a cap of 0 is treated as 1).
    ///
    /// Evicted entries lose only their memory copy — a disk-backed cache
    /// still serves them from disk (and re-promotes them) afterwards, which
    /// is the intended shape for a long service run: memory stays bounded,
    /// disk is the archive.
    pub fn with_memory_cap(mut self, cap: usize) -> Self {
        self.memory_cap = Some(cap);
        self
    }

    /// The configured memory-tier entry cap; `None` when unbounded.
    pub fn memory_cap(&self) -> Option<usize> {
        self.memory_cap
    }

    /// The conventional cache location: `$TTW_SCHEDULE_CACHE_DIR` when set,
    /// `target/schedule-cache` (relative to the working directory) otherwise
    /// — benches and examples run from the workspace root, so repeated runs
    /// share entries without touching anything outside the build tree.
    pub fn at_default_location() -> Self {
        let dir = std::env::var_os("TTW_SCHEDULE_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/schedule-cache"));
        Self::new(dir)
    }

    /// The directory disk entries live in; `None` for a memory-only cache.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Schedules served from either tier since this instance was created.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Probes that found no entry since this instance was created.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Probes that found an unreadable/unparsable disk entry. Counted
    /// separately from [`ScheduleCache::misses`] so `hits + misses +
    /// corrupt` always equals the number of probes.
    pub fn corrupt(&self) -> usize {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Hits served by the in-process memory tier.
    pub fn mem_hits(&self) -> usize {
        self.mem_hits.load(Ordering::Relaxed)
    }

    /// Hits served by the disk tier (each one is promoted to memory).
    pub fn disk_hits(&self) -> usize {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// New keys inserted into the memory tier (overwrites of a resident key
    /// are not insertions).
    pub fn insertions(&self) -> usize {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Memory-tier entries removed, whether by the entry cap or an explicit
    /// [`ScheduleCache::evict`]. Together with [`ScheduleCache::insertions`]
    /// this reconciles exactly: `insertions - evictions == resident`.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Memory hits served through the payload index by
    /// [`ScheduleCache::probe_repeat`]; each is also one of
    /// [`ScheduleCache::mem_hits`].
    pub fn repeat_hits(&self) -> usize {
        self.repeat_hits.load(Ordering::Relaxed)
    }

    /// Request payloads recorded on resident entries, at most one per entry:
    /// `recorded <= resident` always holds.
    pub fn recorded(&self) -> usize {
        self.read().requests.len()
    }

    /// Entries currently resident in the memory tier.
    pub fn resident(&self) -> usize {
        self.read().map.len()
    }

    /// The memory tier under its read lock.
    fn read(&self) -> RwLockReadGuard<'_, MemoryTier> {
        self.memory.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The memory tier under its write lock.
    fn write(&self) -> RwLockWriteGuard<'_, MemoryTier> {
        self.memory.write().unwrap_or_else(|e| e.into_inner())
    }

    /// File path of a key's disk entry; `None` for a memory-only cache.
    pub fn path_for(&self, key: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|dir| entry_path(dir, key))
    }

    /// File path of a key's warm-artifacts sidecar; `None` for a memory-only
    /// cache.
    pub fn warm_path_for(&self, key: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|dir| warm_path(dir, key))
    }

    /// Removes a key's entry from both tiers, if present (used by benches to
    /// force a cold first run).
    pub fn evict(&self, key: &str) {
        {
            let mut memory = self.write();
            if memory.remove(key) {
                memory.order.retain(|k| k != key);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(path) = self.path_for(key) {
            let _ = std::fs::remove_file(path);
        }
        if let Some(path) = self.warm_path_for(key) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// The memory tier's schedule under `key`, if resident. Bumps no
    /// counter.
    fn resident_schedule(&self, key: &str) -> Option<Arc<SystemSchedule>> {
        self.read()
            .map
            .get(key)
            .map(|entry| Arc::clone(&entry.schedule))
    }

    /// The two-tier fetch behind [`ScheduleCache::probe`] and
    /// [`ScheduleCache::peek`]: memory first, then disk, promoting a disk
    /// hit into the memory tier. Bumps no counter.
    fn fetch(&self, key: &str) -> CacheProbe {
        if let Some(schedule) = self.resident_schedule(key) {
            return CacheProbe::Memory(schedule);
        }
        let Some(text) = self
            .path_for(key)
            .and_then(|path| std::fs::read_to_string(path).ok())
        else {
            return CacheProbe::Absent;
        };
        let Ok(schedule) = system_schedule_from_json(&text) else {
            return CacheProbe::Corrupt;
        };
        let entry = Arc::new(schedule);
        self.insert_memory(key, Arc::clone(&entry), None);
        CacheProbe::Disk(entry)
    }

    /// Probes both tiers and classifies the result; see [`CacheProbe`].
    ///
    /// This is the accounting point: every probe bumps exactly one of the
    /// hit/miss/corrupt counters.
    pub fn probe(&self, key: &str) -> CacheProbe {
        let probe = self.fetch(key);
        self.count(&probe);
        probe
    }

    /// Bumps the one hit/miss/corrupt counter `probe` classifies as.
    fn count(&self, probe: &CacheProbe) {
        let (counter, is_hit) = match probe {
            CacheProbe::Memory(_) => (&self.mem_hits, true),
            CacheProbe::Disk(_) => (&self.disk_hits, true),
            CacheProbe::Corrupt => (&self.corrupt, false),
            CacheProbe::Absent => (&self.misses, false),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if is_hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The memory tier's entry for a request payload recorded by
    /// [`ScheduleCache::record_request`], with its key: the bytes are
    /// compared in full, and nothing is decoded or keyed.
    ///
    /// A hit is counted as the memory hit [`ScheduleCache::probe`] would
    /// count for that key, and as a repeat hit. A payload that is not
    /// recorded (its entry may have left the memory tier and taken it
    /// along) counts nothing: the caller then decodes the request and
    /// probes its key as usual.
    pub fn probe_repeat(&self, request: &[u8]) -> Option<(String, Arc<SystemSchedule>)> {
        let (key, schedule) = {
            let memory = self.read();
            let key = memory.requests.get(request)?;
            (key.clone(), Arc::clone(&memory.map.get(key)?.schedule))
        };
        self.count(&CacheProbe::Memory(Arc::clone(&schedule)));
        self.repeat_hits.fetch_add(1, Ordering::Relaxed);
        Some((key, schedule))
    }

    /// Records `request` — the payload of a request that resolved to `key`
    /// and was served `schedule` from this cache — on that entry, so that
    /// [`ScheduleCache::probe_repeat`] finds the entry from the same bytes.
    ///
    /// The caller vouches that the payload always resolves to `key`. It is
    /// recorded only while `schedule` is still the memory tier's entry
    /// under `key`, the entry has no payload yet (at most one per entry),
    /// the entry's [`ScheduleCache::wire_body`] has been built and the
    /// payload is no longer than it, and no other entry holds the same
    /// bytes. So a recorded request never costs more memory than the reply
    /// bytes its entry already keeps. It leaves the index with its entry.
    ///
    /// The write lock is taken only when the read lock shows there is
    /// something to record, so a hit whose entry already holds its payload
    /// waits on no other reader.
    pub fn record_request(&self, key: &str, schedule: &Arc<SystemSchedule>, request: &[u8]) {
        if !self.read().can_record(key, schedule, request) {
            return;
        }
        let mut memory = self.write();
        if !memory.can_record(key, schedule, request) {
            return;
        }
        let request: Arc<[u8]> = Arc::from(request);
        memory
            .requests
            .insert(Arc::clone(&request), key.to_string());
        if let Some(entry) = memory.map.get_mut(key) {
            entry.request = Some(request);
        }
    }

    /// Fetches a key's warm-start artifacts, memory tier first, then the
    /// disk sidecar. Unlike [`ScheduleCache::probe`] this does not touch the
    /// hit/miss accounting — artifacts are an optimization input, not a
    /// served schedule — and an unreadable sidecar is simply `None`.
    pub fn artifacts(&self, key: &str) -> Option<Arc<SynthesisArtifacts>> {
        if let Some(artifacts) = self
            .read()
            .map
            .get(key)
            .and_then(|entry| entry.artifacts.clone())
        {
            return Some(artifacts);
        }
        let text = std::fs::read_to_string(self.warm_path_for(key)?).ok()?;
        let artifacts = Arc::new(artifacts_from_json(&text).ok()?);
        // Re-attach to the resident entry (if any) so the next fetch skips
        // the sidecar parse.
        if let Some(entry) = self.write().map.get_mut(key) {
            entry
                .artifacts
                .get_or_insert_with(|| Arc::clone(&artifacts));
        }
        Some(artifacts)
    }

    /// The compact JSON of `schedule` — [`Json::to_json`], the `"schedule"`
    /// member of a service reply — for a schedule a probe of `key` returned.
    ///
    /// While that schedule is still the memory tier's entry under `key`, the
    /// text is built once, by the first caller (concurrent first callers wait
    /// for it and share it), and kept with the entry: it goes when the entry
    /// is evicted or a later store replaces it. A schedule that is no longer
    /// the resident entry is encoded for this caller alone, so the answer is
    /// always the encoding of the schedule passed in, never of its successor.
    ///
    /// The one cached encode runs under the memory tier's read lock: other
    /// readers go on, a store waits that once.
    pub fn wire_body(&self, key: &str, schedule: &Arc<SystemSchedule>) -> Arc<str> {
        let encode = || Arc::from(schedule.to_json());
        let cached = self
            .read()
            .map
            .get(key)
            .filter(|entry| Arc::ptr_eq(&entry.schedule, schedule))
            .map(|entry| Arc::clone(entry.wire_body.get_or_init(encode)));
        cached.unwrap_or_else(encode)
    }

    /// [`ScheduleCache::probe`] without the accounting: checks both tiers
    /// (promoting a disk hit) but bumps no counter. Used for *auxiliary*
    /// lookups — fetching a resynthesis request's predecessor — that must
    /// not show up as hits or misses of the request stream.
    pub fn peek(&self, key: &str) -> Option<Arc<SystemSchedule>> {
        self.fetch(key).hit().map(|(schedule, _)| schedule)
    }

    /// Stores a schedule under a key: the memory tier is updated, then a
    /// disk-backed cache publishes the entry's file before returning (best
    /// effort — an unwritable cache directory degrades to "memory only",
    /// never to an error).
    pub fn store(&self, key: &str, schedule: &SystemSchedule) {
        self.store_with_artifacts(key, schedule, None);
    }

    /// [`ScheduleCache::store`], additionally attaching the warm-start
    /// artifacts captured from the synthesis (persisted to a `.warm.json`
    /// sidecar next to the schedule entry on disk-backed caches).
    pub fn store_with_artifacts(
        &self,
        key: &str,
        schedule: &SystemSchedule,
        artifacts: Option<&SynthesisArtifacts>,
    ) {
        self.store_entry(
            key,
            Arc::new(schedule.clone()),
            artifacts.map(|a| Arc::new(a.clone())),
        );
    }

    /// The one store path: the memory tier keeps `schedule` and `artifacts`
    /// as given, then a disk-backed cache publishes them.
    fn store_entry(
        &self,
        key: &str,
        schedule: Arc<SystemSchedule>,
        artifacts: Option<Arc<SynthesisArtifacts>>,
    ) {
        self.insert_memory(key, Arc::clone(&schedule), artifacts.clone());
        if let Some(dir) = &self.dir {
            persist_entry(dir, key, &schedule, artifacts.as_deref());
        }
    }

    /// Stores a freshly synthesized schedule under the key of its own
    /// inputs, together with the [`SynthesisArtifacts`] (those inputs plus
    /// the per-mode `warm` bases) a later re-synthesis starts from. The
    /// artifacts built here move into the entry, and the entry's schedule
    /// shares every mode with `schedule`.
    pub(crate) fn store_synthesis(
        &self,
        system: &System,
        graph: &ModeGraph,
        config: &SchedulerConfig,
        backend: &dyn Synthesizer,
        schedule: &SystemSchedule,
        warm: BTreeMap<ModeId, ModeWarmStart>,
    ) {
        let key = synthesis_key(system, graph, config, backend.name());
        let artifacts = SynthesisArtifacts {
            system: system.clone(),
            graph: graph.clone(),
            config: config.clone(),
            backend: backend.name().to_string(),
            warm,
        };
        self.store_entry(&key, Arc::new(schedule.clone()), Some(Arc::new(artifacts)));
    }

    fn insert_memory(
        &self,
        key: &str,
        schedule: Arc<SystemSchedule>,
        artifacts: Option<Arc<SynthesisArtifacts>>,
    ) {
        let entry = CacheEntry {
            schedule,
            artifacts,
            wire_body: OnceLock::new(),
            request: None,
        };
        let mut memory = self.write();
        // Overwrite of a resident key: neither an insertion nor an eviction,
        // and its position in the order queue is unchanged.
        let overwrite = memory.remove(key);
        memory.map.insert(key.to_string(), entry);
        if overwrite {
            return;
        }
        memory.order.push_back(key.to_string());
        self.insertions.fetch_add(1, Ordering::Relaxed);
        let Some(cap) = self.memory_cap else {
            return;
        };
        while memory.map.len() > cap.max(1) {
            let Some(oldest) = memory.order.pop_front() else {
                break;
            };
            if memory.remove(&oldest) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// File path of a key's entry under `dir`.
fn entry_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("ttw-{key}.json"))
}

/// File path of a key's warm-artifacts sidecar under `dir`.
fn warm_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("ttw-{key}.warm.json"))
}

/// Serializes and publishes one disk entry (best effort), plus the
/// warm-artifacts sidecar when the store carried one.
fn persist_entry(
    dir: &Path,
    key: &str,
    schedule: &SystemSchedule,
    artifacts: Option<&SynthesisArtifacts>,
) {
    let Ok(json) = system_schedule_to_json(schedule) else {
        return;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    // Unique per-store temp name: process id alone is not enough — two
    // threads in one process storing the same key would share the temp path
    // and interleave write/rename, publishing a torn entry.
    let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!("ttw-{key}.{}-{seq}.tmp", std::process::id()));
    publish_entry(&tmp, &entry_path(dir, key), &json);
    if let Some(artifacts) = artifacts {
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!("ttw-{key}.warm.{}-{seq}.tmp", std::process::id()));
        publish_entry(&tmp, &warm_path(dir, key), &artifacts_to_json(artifacts));
    }
}

/// Write-then-rename publication with cleanup on either failure: a failed
/// write removes the partial temp file it may have created, and a failed
/// rename removes the complete-but-unpublishable one. Either way the cache
/// directory never accumulates `.tmp` litter from this process.
fn publish_entry(tmp: &Path, path: &Path, json: &str) {
    match std::fs::write(tmp, json) {
        Ok(()) => {
            if std::fs::rename(tmp, path).is_err() {
                let _ = std::fs::remove_file(tmp);
            }
        }
        Err(_) => {
            let _ = std::fs::remove_file(tmp);
        }
    }
}

/// [`crate::synthesis::synthesize_system`] behind the schedule cache: a hit
/// skips synthesis entirely, a miss synthesizes and stores.
///
/// The returned [`CacheOutcome`] says which path was taken; the cache's own
/// counters aggregate across calls. A cache hit is byte-equivalent to fresh
/// synthesis (same code version, same inputs, deterministic pipeline) — the
/// differential harness pins this by comparing serialized forms.
///
/// # Errors
///
/// Exactly as [`crate::synthesis::synthesize_system`]; failures are
/// returned as-is and never cached.
pub fn synthesize_system_cached(
    system: &System,
    graph: &ModeGraph,
    config: &SchedulerConfig,
    backend: &dyn Synthesizer,
    cache: &ScheduleCache,
) -> Result<(SystemSchedule, CacheOutcome), Box<SystemSynthesisError>> {
    let key = synthesis_key(system, graph, config, backend.name());
    let outcome = match cache.probe(&key) {
        CacheProbe::Memory(schedule) | CacheProbe::Disk(schedule) => {
            return Ok(((*schedule).clone(), CacheOutcome::Hit));
        }
        CacheProbe::Corrupt => CacheOutcome::Corrupt,
        CacheProbe::Absent => CacheOutcome::Miss,
    };
    let (schedule, warm, _) = synthesize_in_order(system, graph, config, backend, None)?;
    cache.store_synthesis(system, graph, config, backend, &schedule, warm);
    Ok((schedule, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::synthesis::{synthesize_system, IlpSynthesizer};
    use crate::time::millis;

    fn temp_cache(tag: &str) -> ScheduleCache {
        ScheduleCache::new(temp_dir(tag))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ttw-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> SchedulerConfig {
        SchedulerConfig::new(millis(10), 5)
    }

    /// Every `.tmp` file currently present in `dir`.
    fn tmp_files(dir: &Path) -> Vec<PathBuf> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "tmp"))
            .collect()
    }

    #[test]
    fn second_synthesis_hits_and_matches_bytes() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let cache = temp_cache("hit");
        let backend = IlpSynthesizer;
        let (first, outcome) =
            synthesize_system_cached(&sys, &graph, &config(), &backend, &cache).expect("feasible");
        assert_eq!(outcome, CacheOutcome::Miss);
        let (second, outcome) =
            synthesize_system_cached(&sys, &graph, &config(), &backend, &cache).expect("feasible");
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.mem_hits(), 1, "second call is served from memory");
        // The cached round trip is byte-identical to the fresh result.
        assert_eq!(
            system_schedule_to_json(&first).expect("serialize"),
            system_schedule_to_json(&second).expect("serialize"),
        );
        let dir = cache.dir().expect("disk-backed").to_path_buf();
        drop(cache);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn disk_tier_survives_the_instance_and_promotes_to_memory() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let dir = temp_dir("disk-tier");
        let backend = IlpSynthesizer;
        let key = synthesis_key(&sys, &graph, &config(), backend.name());
        {
            let cache = ScheduleCache::new(&dir);
            let (_, outcome) = synthesize_system_cached(&sys, &graph, &config(), &backend, &cache)
                .expect("feasible");
            assert_eq!(outcome, CacheOutcome::Miss);
            // The store published before it returned: another instance
            // finds the entry and its sidecar while this one is alive.
            assert!(matches!(
                ScheduleCache::new(&dir).probe(&key),
                CacheProbe::Disk(_)
            ));
            assert!(cache.warm_path_for(&key).expect("disk-backed").exists());
        }
        let cache = ScheduleCache::new(&dir);
        assert!(
            matches!(cache.probe(&key), CacheProbe::Disk(_)),
            "fresh instance hits the persisted entry"
        );
        assert_eq!(cache.disk_hits(), 1);
        assert!(
            matches!(cache.probe(&key), CacheProbe::Memory(_)),
            "disk hit was promoted into the memory tier"
        );
        assert_eq!(cache.mem_hits(), 1);
        assert_eq!(cache.hits(), 2);
        drop(cache);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn in_memory_cache_never_touches_disk() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let cache = ScheduleCache::in_memory();
        assert!(cache.dir().is_none());
        let backend = IlpSynthesizer;
        let key = synthesis_key(&sys, &graph, &config(), backend.name());
        assert!(cache.path_for(&key).is_none());
        let (_, outcome) =
            synthesize_system_cached(&sys, &graph, &config(), &backend, &cache).expect("feasible");
        assert_eq!(outcome, CacheOutcome::Miss);
        let (_, outcome) =
            synthesize_system_cached(&sys, &graph, &config(), &backend, &cache).expect("feasible");
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(cache.mem_hits(), 1);
        assert_eq!(cache.disk_hits(), 0);
    }

    #[test]
    fn wire_body_is_built_once_and_dies_with_its_entry() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let first = synthesize_system(&sys, &graph, &config(), &IlpSynthesizer).expect("feasible");
        let mut second = first.clone();
        second.inheritance.clear();
        let body_of = |s: &SystemSchedule| s.to_json();
        assert_ne!(body_of(&first), body_of(&second));

        let cache = ScheduleCache::in_memory().with_memory_cap(1);
        cache.store("key", &first);
        let (hit, _) = cache.probe("key").hit().expect("resident");
        let body = cache.wire_body("key", &hit);
        assert_eq!(&*body, body_of(&first));
        assert!(Arc::ptr_eq(&body, &cache.wire_body("key", &hit)));
        assert_eq!(Arc::strong_count(&body), 2, "the entry and this test");

        // A second store under the key replaces the entry, body included.
        cache.store_with_artifacts("key", &second, None);
        assert_eq!(Arc::strong_count(&body), 1, "overwrite dropped the body");
        let (new_hit, _) = cache.probe("key").hit().expect("resident");
        let new_body = cache.wire_body("key", &new_hit);
        assert_eq!(&*new_body, body_of(&second));
        // A holder of the replaced schedule still gets *its* encoding, and
        // leaves the entry's body alone.
        let stale = cache.wire_body("key", &hit);
        assert_eq!(&*stale, body_of(&first));
        assert_eq!(Arc::strong_count(&stale), 1);
        assert!(Arc::ptr_eq(&new_body, &cache.wire_body("key", &new_hit)));

        // Eviction by the entry cap drops it too: one more key is enough.
        cache.store("other", &first);
        assert!(cache.peek("key").is_none(), "evicted");
        assert_eq!(Arc::strong_count(&new_body), 1, "eviction dropped the body");
        assert_eq!(&*cache.wire_body("key", &new_hit), body_of(&second));
    }

    /// The payload index under every way an entry leaves the memory tier,
    /// with `recorded <= resident` checked at each step.
    #[test]
    fn recorded_requests_leave_the_index_with_their_entry() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let schedule =
            synthesize_system(&sys, &graph, &config(), &IlpSynthesizer).expect("feasible");
        let cache = ScheduleCache::in_memory().with_memory_cap(2);
        let holds = |cache: &ScheduleCache| assert!(cache.recorded() <= cache.resident());
        let request = |tag: &str| format!("request {tag}").into_bytes();

        cache.store("key", &schedule);
        let (hit, _) = cache.probe("key").hit().expect("resident");
        // Nothing is recorded before the entry's body exists to bound it.
        cache.record_request("key", &hit, &request("a"));
        assert_eq!(cache.recorded(), 0);
        let body = cache.wire_body("key", &hit);
        let too_long = vec![b' '; body.len() + 1];
        cache.record_request("key", &hit, &too_long);
        assert_eq!(cache.recorded(), 0, "longer than the body");
        cache.record_request("key", &hit, &request("a"));
        cache.record_request("key", &hit, &request("b"));
        assert_eq!(cache.recorded(), 1, "one payload per entry");
        holds(&cache);

        // A repeat is a memory hit and a repeat hit; other bytes count
        // nothing.
        let (key, repeat) = cache.probe_repeat(&request("a")).expect("recorded");
        assert_eq!(key, "key");
        assert!(Arc::ptr_eq(&repeat, &hit));
        assert!(cache.probe_repeat(&request("b")).is_none());
        assert!(cache.probe_repeat(&too_long).is_none());
        assert_eq!(
            (cache.hits(), cache.mem_hits(), cache.repeat_hits()),
            (2, 2, 1)
        );
        assert_eq!(cache.misses(), 0);

        // No second entry can hold the same bytes (the cap of 2 keeps both).
        cache.store("other", &schedule);
        assert!(cache.peek("key").is_some());
        let (other, _) = cache.probe("other").hit().expect("resident");
        cache.wire_body("other", &other);
        cache.record_request("other", &other, &request("a"));
        assert_eq!(cache.recorded(), 1);
        assert_eq!(
            cache.probe_repeat(&request("a")).expect("recorded").0,
            "key"
        );

        // An overwrite drops the payload; the new entry records afresh, and
        // a holder of the replaced schedule records nothing.
        cache.store("key", &schedule);
        assert_eq!(cache.recorded(), 0);
        let hits = cache.hits();
        assert!(cache.probe_repeat(&request("a")).is_none());
        assert_eq!(cache.hits(), hits, "a miss in the index counts nothing");
        cache.wire_body("key", &hit);
        cache.record_request("key", &hit, &request("a"));
        assert_eq!(cache.recorded(), 0, "not the resident schedule");
        let (fresh, _) = cache.probe("key").hit().expect("resident");
        cache.wire_body("key", &fresh);
        cache.record_request("key", &fresh, &request("a"));
        assert_eq!(cache.recorded(), 1);
        holds(&cache);

        // `evict` drops it.
        cache.evict("key");
        assert_eq!(cache.recorded(), 0);
        assert!(cache.probe_repeat(&request("a")).is_none());

        // So does the entry cap: of four recorded entries the two newest
        // stay, and two more stores evict those as well.
        for i in 0..4 {
            let key = format!("recorded/{i}");
            cache.store(&key, &schedule);
            let (hit, _) = cache.probe(&key).hit().expect("resident");
            cache.wire_body(&key, &hit);
            cache.record_request(&key, &hit, &request(&key));
            holds(&cache);
        }
        assert_eq!((cache.recorded(), cache.resident()), (2, 2));
        let (key, _) = cache
            .probe_repeat(&request("recorded/3"))
            .expect("recorded");
        assert_eq!(key, "recorded/3");
        assert!(cache.probe_repeat(&request("recorded/1")).is_none());
        for i in 0..2 {
            cache.store(&format!("{i:016x}"), &schedule);
            holds(&cache);
        }
        let resident = (0..4)
            .filter(|i| cache.peek(&format!("recorded/{i}")).is_some())
            .count();
        assert_eq!(cache.recorded(), resident);
        assert_eq!(resident, 0, "the cap evicted every recorded entry");
        assert_eq!(cache.repeat_hits(), 3);
    }

    #[test]
    fn concurrent_first_hits_share_one_wire_body() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let schedule =
            synthesize_system(&sys, &graph, &config(), &IlpSynthesizer).expect("feasible");
        let cache = ScheduleCache::in_memory();
        cache.store("key", &schedule);
        const THREADS: usize = 4;
        let barrier = std::sync::Barrier::new(THREADS);
        let bodies: Vec<Arc<str>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let (hit, _) = cache.probe("key").hit().expect("resident");
                        barrier.wait();
                        cache.wire_body("key", &hit)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker"))
                .collect()
        });
        for body in &bodies {
            assert!(Arc::ptr_eq(body, &bodies[0]), "one body, shared");
        }
        assert_eq!(Arc::strong_count(&bodies[0]), THREADS + 1);
    }

    #[test]
    fn corrupt_entries_are_counted_and_overwritten() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let cache = temp_cache("corrupt");
        let backend = IlpSynthesizer;
        let key = synthesis_key(&sys, &graph, &config(), backend.name());
        let dir = cache.dir().expect("disk-backed").to_path_buf();
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(cache.path_for(&key).expect("path"), "{not json").expect("write");
        let (_, outcome) =
            synthesize_system_cached(&sys, &graph, &config(), &backend, &cache).expect("feasible");
        assert_eq!(
            outcome,
            CacheOutcome::Corrupt,
            "corrupt entry is not served and is reported as corrupt, not a miss"
        );
        assert_eq!(cache.corrupt(), 1);
        assert_eq!(
            cache.misses(),
            0,
            "corrupt probes are not folded into misses"
        );
        // The corrupt entry was overwritten by the fresh result.
        let (_, outcome) =
            synthesize_system_cached(&sys, &graph, &config(), &backend, &cache).expect("feasible");
        assert_eq!(outcome, CacheOutcome::Hit);
        // Exact accounting: 2 probes = 1 hit + 0 misses + 1 corrupt.
        assert_eq!(cache.hits() + cache.misses() + cache.corrupt(), 2);
        drop(cache);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A disk entry that parses but files a schedule under another mode's key
    /// is corrupt like one that does not parse: counted, not served, and
    /// overwritten by the fresh result.
    #[test]
    fn entry_with_a_schedule_under_the_wrong_mode_counts_as_corrupt() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let cache = temp_cache("wrong-mode");
        let backend = IlpSynthesizer;
        let key = synthesis_key(&sys, &graph, &config(), backend.name());
        let mut schedule = synthesize_system(&sys, &graph, &config(), &backend).expect("feasible");
        let (first, second) = (ModeId::from_index(0), ModeId::from_index(1));
        let misfiled = schedule.schedules[&second].clone();
        schedule.schedules.insert(first, misfiled);
        let dir = cache.dir().expect("disk-backed").to_path_buf();
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(
            cache.path_for(&key).expect("path"),
            system_schedule_to_json(&schedule).expect("serialize"),
        )
        .expect("write");
        assert!(matches!(cache.probe(&key), CacheProbe::Corrupt));
        let (_, outcome) =
            synthesize_system_cached(&sys, &graph, &config(), &backend, &cache).expect("feasible");
        assert_eq!(outcome, CacheOutcome::Corrupt);
        assert_eq!((cache.corrupt(), cache.misses(), cache.hits()), (2, 0, 0));
        assert!(matches!(
            ScheduleCache::new(&dir).probe(&key),
            CacheProbe::Disk(_)
        ));
        drop(cache);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn evict_forces_a_cold_run() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let cache = temp_cache("evict");
        let backend = IlpSynthesizer;
        let key = synthesis_key(&sys, &graph, &config(), backend.name());
        let (_, first) =
            synthesize_system_cached(&sys, &graph, &config(), &backend, &cache).expect("feasible");
        assert_eq!(first, CacheOutcome::Miss);
        cache.evict(&key);
        let (_, second) =
            synthesize_system_cached(&sys, &graph, &config(), &backend, &cache).expect("feasible");
        assert_eq!(second, CacheOutcome::Miss, "evict clears both tiers");
        let dir = cache.dir().expect("disk-backed").to_path_buf();
        drop(cache);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Regression test for the two `store` concurrency bugs: same-process
    /// writers of one key used to share a single `pid`-named temp file (so
    /// one thread's write could interleave with the other's rename and
    /// publish a torn entry), and a stray `.tmp` from a crashed writer
    /// stayed around forever. Hammer the same key from many threads — via
    /// two cache instances sharing the directory, the worst case — while
    /// readers continuously parse the published entry, then assert nothing
    /// was ever torn and no temp files survive.
    #[test]
    fn concurrent_stores_of_one_key_never_tear_or_leak() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let dir = temp_dir("hammer");
        let backend = IlpSynthesizer;
        let key = synthesis_key(&sys, &graph, &config(), backend.name());
        let schedule = synthesize_system(&sys, &graph, &config(), &backend).expect("feasible");

        // A stray temp file from a "crashed" writer of an earlier process:
        // it must neither be served nor corrupt anything.
        std::fs::create_dir_all(&dir).expect("mkdir");
        let stray = dir.join(format!("ttw-{key}.999999-0.tmp"));
        std::fs::write(&stray, "{torn garbage").expect("write stray");

        let writer_a = ScheduleCache::new(&dir);
        let writer_b = ScheduleCache::new(&dir);
        const WRITES_PER_THREAD: usize = 25;
        std::thread::scope(|scope| {
            for cache in [&writer_a, &writer_b] {
                for _ in 0..2 {
                    scope.spawn(|| {
                        for _ in 0..WRITES_PER_THREAD {
                            cache.store(&key, &schedule);
                        }
                    });
                }
            }
            // Readers race the writers through a disk-only instance (a fresh
            // cache per probe defeats the memory tier, forcing disk parses).
            scope.spawn(|| {
                for _ in 0..50 {
                    let reader = ScheduleCache::new(&dir);
                    match reader.probe(&key) {
                        CacheProbe::Corrupt => panic!("reader observed a torn entry"),
                        CacheProbe::Memory(_) | CacheProbe::Disk(_) | CacheProbe::Absent => {}
                    }
                }
            });
        });

        // The published entry is complete and correct.
        let reader = ScheduleCache::new(&dir);
        let (served, _) = reader.probe(&key).hit().expect("entry published");
        assert_eq!(
            system_schedule_to_json(&served).expect("serialize"),
            system_schedule_to_json(&schedule).expect("serialize"),
        );
        // No writer leaked a temp file; only the injected stray remains.
        assert_eq!(tmp_files(&dir), vec![stray.clone()]);
        drop((writer_a, writer_b, reader));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Regression test for the `&&` short-circuit bug: a failed temp write
    /// used to skip the cleanup arm entirely, leaking the partial file. Both
    /// failure paths of `publish_entry` must leave no temp file behind.
    #[test]
    fn failed_publishes_clean_up_their_temp_files() {
        let dir = temp_dir("publish-fail");
        std::fs::create_dir_all(&dir).expect("mkdir");

        // Failed write (temp path's parent does not exist): nothing leaks.
        let tmp = dir.join("missing-subdir").join("entry.tmp");
        publish_entry(&tmp, &dir.join("entry.json"), "{}");
        assert!(!tmp.exists());

        // Failed rename (target is a directory): the fully written temp
        // file is removed instead of leaking.
        let target = dir.join("ttw-blocked.json");
        std::fs::create_dir_all(&target).expect("mkdir target");
        let tmp = dir.join("ttw-blocked.1-2.tmp");
        publish_entry(&tmp, &target, "{\"torn\": true}");
        assert!(!tmp.exists(), "failed rename must remove the temp file");
        assert!(tmp_files(&dir).is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn memory_cap_evicts_oldest_and_accounts_exactly() {
        let cache = ScheduleCache::in_memory().with_memory_cap(4);
        assert_eq!(cache.memory_cap(), Some(4));
        let schedule = SystemSchedule::new();
        const KEYS: usize = 40;
        for i in 0..KEYS {
            cache.store(&format!("{i:016x}"), &schedule);
        }
        assert_eq!(cache.insertions(), KEYS);
        assert_eq!(cache.resident(), 4);
        assert_eq!(cache.evictions(), KEYS - 4);
        assert_eq!(
            cache.insertions(),
            cache.resident() + cache.evictions(),
            "every insertion is resident or evicted"
        );
        let resident: Vec<usize> = (0..KEYS)
            .filter(|i| cache.peek(&format!("{i:016x}")).is_some())
            .collect();
        assert_eq!(resident, [36, 37, 38, 39], "the four newest keys stay");
        // Overwriting a resident key is not an insertion, evicts nothing and
        // keeps its place in the order: the oldest key still goes first.
        let (insertions, evictions) = (cache.insertions(), cache.evictions());
        cache.store(&format!("{:016x}", 36), &schedule);
        assert_eq!(cache.insertions(), insertions);
        assert_eq!(cache.evictions(), evictions);
        cache.store(&format!("{KEYS:016x}"), &schedule);
        assert!(cache.peek(&format!("{:016x}", 36)).is_none());
        assert_eq!(cache.resident(), 4);
        // An evicted key is a genuine miss (memory-only cache: no disk tier
        // to fall back to).
        assert!(matches!(
            cache.probe(&format!("{:016x}", 0)),
            CacheProbe::Absent
        ));
    }

    #[test]
    fn warm_artifacts_round_trip_through_json_and_sidecar() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let backend = IlpSynthesizer;
        let (schedule, warm, _) =
            synthesize_in_order(&sys, &graph, &config(), &backend, None).expect("feasible");
        assert!(!warm.is_empty(), "ILP synthesis yields root bases");
        let artifacts = SynthesisArtifacts {
            system: sys.clone(),
            graph: graph.clone(),
            config: config(),
            backend: backend.name().to_string(),
            warm,
        };

        // Codec round trip preserves everything the incremental path reads.
        let parsed = artifacts_from_json(&artifacts_to_json(&artifacts)).expect("parses");
        assert_eq!(parsed.backend, artifacts.backend);
        assert_eq!(parsed.config, artifacts.config);
        assert_eq!(parsed.system, artifacts.system);
        assert_eq!(parsed.graph, artifacts.graph);
        assert_eq!(
            parsed.warm.keys().collect::<Vec<_>>(),
            artifacts.warm.keys().collect::<Vec<_>>()
        );
        for (mode, warm) in &artifacts.warm {
            let back = &parsed.warm[mode];
            assert_eq!(back.rounds, warm.rounds);
            assert_eq!(back.basis.to_json(), warm.basis.to_json());
        }

        // Sidecar trip: a fresh cache instance on the same directory serves
        // the artifacts back from disk.
        let cache = temp_cache("warm-sidecar");
        let key = synthesis_key(&sys, &graph, &config(), backend.name());
        cache.store_with_artifacts(&key, &schedule, Some(&artifacts));
        let dir = cache.dir().expect("disk-backed").to_path_buf();
        drop(cache);
        let reopened = ScheduleCache::new(dir.clone());
        let from_disk = reopened.artifacts(&key).expect("sidecar present");
        assert_eq!(from_disk.backend, artifacts.backend);
        assert_eq!(
            from_disk.warm.keys().collect::<Vec<_>>(),
            artifacts.warm.keys().collect::<Vec<_>>()
        );
        // Artifact reads bypass hit/miss accounting: the incremental path's
        // predecessor fetches must not pollute the probe identity.
        assert_eq!(reopened.hits() + reopened.misses() + reopened.corrupt(), 0);
        drop(reopened);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A sidecar whose mode graph covers other modes than its system's would
    /// send the re-synthesis that trusts it past the system's mode table.
    #[test]
    fn artifacts_with_a_mode_graph_over_other_modes_are_rejected() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let (_, diamond, _) = fixtures::four_mode_diamond();
        let artifacts = |graph: ModeGraph| SynthesisArtifacts {
            system: sys.clone(),
            graph,
            config: config(),
            backend: "ilp-incremental".into(),
            warm: BTreeMap::new(),
        };
        assert!(artifacts_from_json(&artifacts_to_json(&artifacts(graph))).is_ok());
        let error = artifacts_from_json(&artifacts_to_json(&artifacts(diamond)))
            .expect_err("four modes in the graph, two in the system");
        assert_eq!(
            error.to_string(),
            "the mode graph covers 4 modes, the system has 2 at byte 0"
        );
    }

    /// Counter accounting under concurrency: hits + misses + corrupt equals
    /// the number of probes issued, and the tier split adds up.
    #[test]
    fn hammer_counters_reconcile_exactly() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let cache = temp_cache("counters");
        let backend = IlpSynthesizer;
        let schedule = synthesize_system(&sys, &graph, &config(), &backend).expect("feasible");
        let keys: Vec<String> = (0..8).map(|i| format!("{i:016x}")).collect();
        const PROBES_PER_THREAD: usize = 40;
        const THREADS: usize = 4;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                let keys = &keys;
                let schedule = &schedule;
                scope.spawn(move || {
                    for i in 0..PROBES_PER_THREAD {
                        let key = &keys[(t + i) % keys.len()];
                        if let CacheProbe::Absent = cache.probe(key) {
                            // Store only half the keys so misses keep
                            // happening throughout the run.
                            if (t + i) % keys.len() < keys.len() / 2 {
                                cache.store(key, schedule);
                            }
                        }
                    }
                });
            }
        });
        let probes = THREADS * PROBES_PER_THREAD;
        assert_eq!(
            cache.hits() + cache.misses() + cache.corrupt(),
            probes,
            "every probe is classified exactly once"
        );
        assert_eq!(cache.mem_hits() + cache.disk_hits(), cache.hits());
        assert_eq!(cache.corrupt(), 0);
        let dir = cache.dir().expect("disk-backed").to_path_buf();
        drop(cache);
        let _ = std::fs::remove_dir_all(dir);
    }
}
