//! The memory-budgeted memstore manager.
//!
//! Layered over the two caches a Shark deployment fills up — the SQL
//! catalog's per-table columnar [`MemTable`]s and the RDD-level
//! [`CacheManager`] — this tracks resident bytes against a single
//! server-wide budget and, under pressure, evicts individual cached
//! *partitions* in globally least-recently-used order (tables first, then
//! cached RDDs). The partition, not the table, is Shark's unit of storage
//! and lineage recovery (§3.1–3.2): one oversized table no longer dumps
//! every hot partition of every workload at once — only the coldest
//! partitions go, and a table is evicted wholesale only when every one of
//! its partitions is cold. Eviction only drops the in-memory copy: Shark
//! keeps exactly one copy of cached data and relies on lineage, not
//! replication (§2.2), so an evicted partition is transparently recomputed
//! from the table's base generator by the next scan that needs it (the
//! partition statistics survive eviction, so map pruning and top-k
//! ordering still work meanwhile). Tables pinned by currently executing
//! queries are never victims, and individual partitions can be pinned too.
//!
//! A second, per-session layer sits under the global budget: each session
//! that loads, creates, or faults in a table joins that table's *owner
//! set* and is charged a proportional share of its resident bytes, and a
//! session over its quota has *its own* least-recently-used partitions
//! evicted first — the tenant-isolation lesson of production multi-tenant
//! SQL serving — before global pressure touches anyone else's.
//!
//! [`MemTable`]: shark_sql::MemTable

use parking_lot::Mutex;
use shark_common::hash::FxHashMap;
use shark_rdd::CacheManager;
use shark_sql::{Catalog, MemTable, TableMeta};
use std::collections::HashSet;
use std::sync::Arc;

use crate::spill::SpillManager;

/// One eviction performed while enforcing a budget or quota.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvictionEvent {
    /// LRU partitions dropped from one cached table during a single
    /// enforcement pass.
    Table {
        /// Table name.
        name: String,
        /// Partition indices dropped, in eviction (coldest-first) order.
        partitions: Vec<usize>,
        /// Bytes freed.
        bytes: u64,
        /// Whether the pass left no partition of the table resident — the
        /// old wholesale eviction, now the every-partition-cold limit case.
        whole_table: bool,
    },
    /// LRU partitions dropped from one cached RDD (e.g. a `.cache()`d
    /// intermediate).
    Rdd {
        /// RDD id.
        id: usize,
        /// Partition indices dropped, in eviction order.
        partitions: Vec<usize>,
        /// Bytes freed.
        bytes: u64,
    },
    /// A `DROP TABLE`d (or replaced) table version reclaimed after the last
    /// catalog snapshot referencing it was released — deferred DDL
    /// reclamation, not memory pressure.
    Dropped {
        /// Table name (a recreated table of the same name is unaffected).
        name: String,
        /// Partition indices that were still resident, in index order.
        partitions: Vec<usize>,
        /// Bytes reclaimed.
        bytes: u64,
    },
    /// LRU partitions *demoted* from one cached table to the spill tier
    /// during a single enforcement pass: the memory copy is gone but the
    /// compressed columnar form survives on disk, so the next scan promotes
    /// it back at I/O cost instead of recomputing it from lineage.
    Demoted {
        /// Table name.
        name: String,
        /// Partition indices demoted, in eviction (coldest-first) order.
        partitions: Vec<usize>,
        /// Memory bytes freed.
        bytes: u64,
        /// Bytes the spill frames occupy on disk.
        spill_bytes: u64,
    },
    /// Demoted partitions a scan faulted back in from the spill tier
    /// (reported by [`MemstoreManager::drain_promotions`]).
    Promoted {
        /// Table name.
        name: String,
        /// Partition indices promoted, in promotion order.
        partitions: Vec<usize>,
        /// Memory bytes the promotions brought back into residency.
        bytes: u64,
    },
}

impl EvictionEvent {
    /// Bytes this eviction freed (or, for a promotion, restored).
    pub fn bytes(&self) -> u64 {
        match self {
            EvictionEvent::Table { bytes, .. }
            | EvictionEvent::Rdd { bytes, .. }
            | EvictionEvent::Dropped { bytes, .. }
            | EvictionEvent::Demoted { bytes, .. }
            | EvictionEvent::Promoted { bytes, .. } => *bytes,
        }
    }

    /// Partitions this eviction dropped (or demoted/promoted).
    pub fn partitions(&self) -> usize {
        match self {
            EvictionEvent::Table { partitions, .. }
            | EvictionEvent::Rdd { partitions, .. }
            | EvictionEvent::Dropped { partitions, .. }
            | EvictionEvent::Demoted { partitions, .. }
            | EvictionEvent::Promoted { partitions, .. } => partitions.len(),
        }
    }
}

#[derive(Default)]
struct MemstoreState {
    /// Whole-table pins taken by in-flight queries: no partition of a
    /// pinned table is ever a victim.
    pins: FxHashMap<String, usize>,
    /// Finer-grained pins on individual partitions.
    partition_pins: FxHashMap<(String, usize), usize>,
    /// Partitions evicted by policy whose reload has not yet been observed;
    /// touching their table counts as a lineage recompute.
    awaiting_recompute: FxHashMap<String, HashSet<usize>>,
    /// The sessions charged for each table: every session that loaded,
    /// created, or faulted it in. Each owner is charged a proportional
    /// share of the table's resident bytes.
    owners: FxHashMap<String, std::collections::BTreeSet<u64>>,
    /// Exact fully-loaded columnar footprint per table, recorded the first
    /// time every partition was observed resident at once. Generators are
    /// deterministic, so this is a *provable* size for any future full load
    /// of the same table — the quota-infeasibility check keys off it.
    known_footprints: FxHashMap<String, u64>,
    evictions: u64,
    evicted_partitions: u64,
    partial_evictions: u64,
    evicted_bytes: u64,
    lineage_recomputes: u64,
    quota_hits: u64,
    quota_evicted_partitions: u64,
    quota_infeasible_rejections: u64,
    /// Rebuild counts of tables since dropped from the catalog, folded in
    /// so the server-wide rebuild metric stays monotonic.
    retired_rebuilds: u64,
    /// Dropped table versions whose storage was reclaimed after their last
    /// referencing snapshot was released.
    deferred_drops_reclaimed: u64,
    /// Bytes those reclamations freed.
    deferred_reclaimed_bytes: u64,
}

/// Tracks table usage recency and enforces the server memory budget plus
/// per-session memory quotas, at partition granularity.
pub struct MemstoreManager {
    budget_bytes: u64,
    session_quota_bytes: u64,
    /// The disk demotion tier. `None` restores the pre-spill behaviour:
    /// eviction drops the partition and lineage recomputes it later.
    spill: Option<Arc<SpillManager>>,
    state: Mutex<MemstoreState>,
}

impl MemstoreManager {
    /// Create a manager enforcing `budget_bytes` across table memstore +
    /// RDD cache, with unlimited per-session quotas.
    pub fn new(budget_bytes: u64) -> MemstoreManager {
        MemstoreManager {
            budget_bytes: budget_bytes.max(1),
            session_quota_bytes: u64::MAX,
            spill: None,
            state: Mutex::new(MemstoreState::default()),
        }
    }

    /// Cap each session's owned resident bytes at `quota_bytes` (tables it
    /// loaded or created). Exceeding the quota evicts that session's own
    /// LRU partitions first.
    pub fn with_session_quota(mut self, quota_bytes: u64) -> MemstoreManager {
        self.session_quota_bytes = quota_bytes.max(1);
        self
    }

    /// Attach a spill tier: evictions of table partitions become
    /// *demotions* that park the compressed columnar form on disk.
    pub fn with_spill(mut self, spill: Arc<SpillManager>) -> MemstoreManager {
        self.spill = Some(spill);
        self
    }

    /// The attached spill tier, if any.
    pub fn spill(&self) -> Option<&Arc<SpillManager>> {
        self.spill.as_ref()
    }

    /// The configured budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// The configured per-session quota in bytes (`u64::MAX` = unlimited).
    pub fn session_quota_bytes(&self) -> u64 {
        self.session_quota_bytes
    }

    /// Mark `tables` as in use by a starting query: pins them (whole-table)
    /// against eviction until [`MemstoreManager::unpin`]. Returns how many
    /// of them had partitions evicted earlier — an *upper bound* on the
    /// tables this query will actually recompute from lineage, since
    /// retained partition statistics may prune the evicted partitions
    /// before the scan ever needs them. The exact per-partition count is
    /// the memtables' rebuild counter (`ServerReport::partition_rebuilds`).
    pub fn pin(&self, tables: &[String]) -> usize {
        let mut state = self.state.lock();
        let mut recomputes = 0;
        for name in tables {
            *state.pins.entry(name.clone()).or_insert(0) += 1;
            if state
                .awaiting_recompute
                .remove(name)
                .map(|parts| !parts.is_empty())
                .unwrap_or(false)
            {
                recomputes += 1;
            }
        }
        state.lineage_recomputes += recomputes as u64;
        recomputes
    }

    /// Release the pins taken by [`MemstoreManager::pin`].
    pub fn unpin(&self, tables: &[String]) {
        let mut state = self.state.lock();
        for name in tables {
            if let Some(count) = state.pins.get_mut(name) {
                *count -= 1;
                if *count == 0 {
                    state.pins.remove(name);
                }
            }
        }
    }

    /// Pin one partition of a table against eviction (finer-grained than
    /// [`MemstoreManager::pin`]; pins nest).
    pub fn pin_partition(&self, table: &str, partition: usize) {
        let mut state = self.state.lock();
        *state
            .partition_pins
            .entry((table.to_string(), partition))
            .or_insert(0) += 1;
    }

    /// Release one pin taken by [`MemstoreManager::pin_partition`].
    pub fn unpin_partition(&self, table: &str, partition: usize) {
        let mut state = self.state.lock();
        let key = (table.to_string(), partition);
        if let Some(count) = state.partition_pins.get_mut(&key) {
            *count -= 1;
            if *count == 0 {
                state.partition_pins.remove(&key);
            }
        }
    }

    /// Add a session to a table's owner set (it loaded, created, or faulted
    /// the table in). A shared table is charged proportionally to every
    /// owner instead of entirely to whoever touched it first.
    pub fn record_owner(&self, table: &str, session_id: u64) {
        let mut state = self.state.lock();
        state
            .owners
            .entry(table.to_string())
            .or_default()
            .insert(session_id);
    }

    /// The sessions charged for a table, in ascending id order.
    pub fn owners(&self, table: &str) -> Vec<u64> {
        self.state
            .lock()
            .owners
            .get(table)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Resident bytes currently charged to one session: each owned table's
    /// memstore bytes divided by its number of owners.
    pub fn session_bytes(&self, session_id: u64, catalog: &Catalog) -> u64 {
        let state = self.state.lock();
        Self::session_bytes_locked(&state, session_id, catalog)
    }

    fn session_bytes_locked(state: &MemstoreState, session_id: u64, catalog: &Catalog) -> u64 {
        catalog
            .cached_tables()
            .into_iter()
            .filter_map(|t| {
                let owners = state.owners.get(&t.name)?;
                if !owners.contains(&session_id) {
                    return None;
                }
                let bytes = t.cached.as_ref().map(|m| m.memory_bytes())?;
                // Exact apportionment: every owner is charged `bytes / n`,
                // and the first `bytes % n` owners in id order absorb one
                // extra byte each, so the shares always sum to the table's
                // resident bytes (truncating division leaked the remainder,
                // leaving tables partially uncharged).
                let n = owners.len() as u64;
                let rank = owners.iter().position(|o| *o == session_id).unwrap_or(0) as u64;
                Some(bytes / n + u64::from(rank < bytes % n))
            })
            .sum()
    }

    /// Remove a closing session from every owner set, re-apportioning each
    /// co-owned table's bytes over the remaining owners. Without this, a
    /// closed session kept absorbing its share of a shared table forever,
    /// under-charging the sessions still using it (stale owner shares).
    pub fn release_session(&self, session_id: u64) {
        let mut state = self.state.lock();
        state.owners.retain(|_, set| {
            set.remove(&session_id);
            !set.is_empty()
        });
    }

    /// Resident bytes currently charged against the budget.
    pub fn resident_bytes(&self, catalog: &Catalog, rdd_cache: &CacheManager) -> u64 {
        catalog.memstore_bytes() + rdd_cache.total_bytes()
    }

    /// Evict unpinned table partitions in globally-LRU order until `need`
    /// bytes are freed (or no candidate is left). With `owner_filter`, only
    /// tables owned by that session are candidates; with `table_filter`,
    /// only that table's partitions are. When a spill tier is attached the
    /// eviction is a *demotion*: the partition's compressed form is parked
    /// on disk and only degraded to a plain drop (lineage recompute) if the
    /// spill write fails or the disk budget displaces the frame. Returns
    /// memory bytes freed and appends aggregated events per victim table.
    fn evict_table_partitions(
        state: &mut MemstoreState,
        catalog: &Catalog,
        need: u64,
        owner_filter: Option<u64>,
        table_filter: Option<&str>,
        spill: Option<&Arc<SpillManager>>,
        events: &mut Vec<EvictionEvent>,
    ) -> u64 {
        // Gather every evictable partition: unpinned table, unpinned
        // partition, matching owner when session-scoped.
        let mut candidates: Vec<(u64, String, Arc<MemTable>, usize, u64)> = Vec::new();
        for table in catalog.cached_tables() {
            if state.pins.contains_key(&table.name) {
                continue;
            }
            if let Some(only) = table_filter {
                if table.name != only {
                    continue;
                }
            }
            if let Some(session) = owner_filter {
                let owned = state
                    .owners
                    .get(&table.name)
                    .map(|set| set.contains(&session))
                    .unwrap_or(false);
                if !owned {
                    continue;
                }
            }
            let Some(mem) = table.cached.clone() else {
                continue;
            };
            for c in mem.lru_candidates() {
                if state
                    .partition_pins
                    .contains_key(&(table.name.clone(), c.partition))
                {
                    continue;
                }
                candidates.push((
                    c.last_tick,
                    table.name.clone(),
                    mem.clone(),
                    c.partition,
                    table.version(),
                ));
            }
        }
        // Coldest first; ties broken by name/partition for determinism.
        candidates.sort_by(|a, b| (a.0, &a.1, a.3).cmp(&(b.0, &b.1, b.3)));

        let mut freed = 0u64;
        // Aggregate per table, preserving first-eviction order; demoted and
        // dropped partitions become separate events.
        struct Victim {
            name: String,
            mem: Arc<MemTable>,
            demoted: Vec<usize>,
            demoted_bytes: u64,
            spill_bytes: u64,
            dropped: Vec<usize>,
            dropped_bytes: u64,
        }
        let mut victims: Vec<Victim> = Vec::new();
        for (_tick, name, mem, partition, table_version) in candidates {
            if freed >= need {
                break;
            }
            let bytes;
            // (memory bytes, spill-frame bytes) when the demotion stuck.
            let mut demoted: Option<u64> = None;
            match spill {
                Some(spill) => {
                    let Some(columnar) = mem.take_partition(partition) else {
                        // A failure-path drop raced us; nothing freed here.
                        continue;
                    };
                    bytes = columnar.memory_bytes() as u64;
                    // Install the fault-in source lazily so tables created
                    // after server start (CTAS) are covered too.
                    if !mem.has_spill_source() {
                        mem.set_spill_source(spill.clone());
                    }
                    // An unwritable spill frame (the Err arm) degrades to a
                    // plain drop — never surface an I/O error from eviction.
                    if let Ok(outcome) = spill.store(&name, partition, &columnar, table_version) {
                        let mut self_displaced = false;
                        for (dt, dp) in outcome.displaced {
                            // Whatever the disk budget displaced lost
                            // its last copy: lineage recompute ahead.
                            self_displaced |= dt == name && dp == partition;
                            state.awaiting_recompute.entry(dt).or_default().insert(dp);
                        }
                        if !self_displaced {
                            demoted = Some(outcome.spill_bytes);
                        }
                    }
                }
                None => {
                    bytes = mem.evict_partition(partition);
                    if bytes == 0 {
                        continue;
                    }
                }
            }
            freed += bytes;
            let victim = match victims.iter_mut().find(|v| v.name == name) {
                Some(v) => v,
                None => {
                    victims.push(Victim {
                        name: name.clone(),
                        mem,
                        demoted: Vec::new(),
                        demoted_bytes: 0,
                        spill_bytes: 0,
                        dropped: Vec::new(),
                        dropped_bytes: 0,
                    });
                    victims.last_mut().unwrap()
                }
            };
            match demoted {
                Some(spill_bytes) => {
                    victim.demoted.push(partition);
                    victim.demoted_bytes += bytes;
                    victim.spill_bytes += spill_bytes;
                }
                None => {
                    state
                        .awaiting_recompute
                        .entry(name)
                        .or_default()
                        .insert(partition);
                    victim.dropped.push(partition);
                    victim.dropped_bytes += bytes;
                }
            }
        }
        for v in victims {
            let whole_table = v.mem.loaded_partitions() == 0;
            state.evictions += 1;
            state.evicted_partitions += (v.demoted.len() + v.dropped.len()) as u64;
            if !whole_table {
                state.partial_evictions += 1;
            }
            state.evicted_bytes += v.demoted_bytes + v.dropped_bytes;
            if !v.demoted.is_empty() {
                events.push(EvictionEvent::Demoted {
                    name: v.name.clone(),
                    partitions: v.demoted,
                    bytes: v.demoted_bytes,
                    spill_bytes: v.spill_bytes,
                });
            }
            if !v.dropped.is_empty() {
                events.push(EvictionEvent::Table {
                    name: v.name,
                    partitions: v.dropped,
                    bytes: v.dropped_bytes,
                    whole_table,
                });
            }
        }
        freed
    }

    /// Evict unpinned RDD-cache partitions in LRU order until `need` bytes
    /// are freed. Returns bytes freed and appends one aggregated event per
    /// victim RDD.
    fn evict_rdd_partitions(
        state: &mut MemstoreState,
        rdd_cache: &CacheManager,
        need: u64,
        events: &mut Vec<EvictionEvent>,
    ) -> u64 {
        let mut candidates = rdd_cache.lru_candidates();
        candidates.sort_by_key(|c| (c.last_tick, c.rdd_id, c.partition));
        let mut freed = 0u64;
        let mut victims: Vec<(usize, Vec<usize>, u64)> = Vec::new();
        for c in candidates {
            if freed >= need {
                break;
            }
            let stats = rdd_cache.evict_partition(c.rdd_id, c.partition);
            if stats.partitions == 0 {
                continue;
            }
            freed += stats.bytes;
            match victims.iter_mut().find(|(id, _, _)| *id == c.rdd_id) {
                Some((_, parts, total)) => {
                    parts.push(c.partition);
                    *total += stats.bytes;
                }
                None => victims.push((c.rdd_id, vec![c.partition], stats.bytes)),
            }
        }
        for (id, partitions, bytes) in victims {
            state.evictions += 1;
            state.evicted_partitions += partitions.len() as u64;
            state.evicted_bytes += bytes;
            events.push(EvictionEvent::Rdd {
                id,
                partitions,
                bytes,
            });
        }
        freed
    }

    /// Bring residency back under the budget by evicting the globally
    /// least-recently-used unpinned table partitions first, then LRU
    /// RDD-cache partitions — freeing roughly the overshoot instead of
    /// dumping whole tables. Returns the evictions performed (empty when
    /// already under budget or when everything over budget is pinned).
    pub fn enforce(&self, catalog: &Catalog, rdd_cache: &CacheManager) -> Vec<EvictionEvent> {
        let mut events = Vec::new();
        loop {
            // Progress is judged by *measured* residency, never by the
            // per-eviction byte estimates: a pass that claimed to free
            // enough but measures above budget (stale estimates, racing
            // loads) triggers another pass instead of returning early.
            let resident = self.resident_bytes(catalog, rdd_cache);
            if resident <= self.budget_bytes {
                break;
            }
            let need = resident - self.budget_bytes;
            // Hold the state lock across victim selection AND eviction:
            // otherwise a query admitted in between could pin the chosen
            // partition and still lose it, and two concurrent enforce()
            // calls could both evict (and double-count) the same victim.
            let mut state = self.state.lock();
            let freed = Self::evict_table_partitions(
                &mut state,
                catalog,
                need,
                None,
                None,
                self.spill.as_ref(),
                &mut events,
            );
            let rdd_freed = if freed < need {
                Self::evict_rdd_partitions(&mut state, rdd_cache, need - freed, &mut events)
            } else {
                0
            };
            if freed + rdd_freed == 0 {
                // No unpinned candidate is left; the measured residency
                // cannot come down this pass — give up, don't spin.
                break;
            }
        }
        events
    }

    /// Demote every unpinned resident partition of one table to the spill
    /// tier (plain eviction when no tier is attached), regardless of the
    /// budget — the administrative path tests and benchmarks use to stage a
    /// fully demoted table. Returns the events performed.
    pub fn demote_table(&self, catalog: &Catalog, name: &str) -> Vec<EvictionEvent> {
        let mut events = Vec::new();
        let mut state = self.state.lock();
        Self::evict_table_partitions(
            &mut state,
            catalog,
            u64::MAX,
            None,
            Some(name),
            self.spill.as_ref(),
            &mut events,
        );
        events
    }

    /// Promotions scans performed since the last drain, aggregated into
    /// one [`EvictionEvent::Promoted`] per table — the server turns these
    /// into trace events and report counters.
    pub fn drain_promotions(&self) -> Vec<EvictionEvent> {
        let Some(spill) = &self.spill else {
            return Vec::new();
        };
        let mut by_table: Vec<(String, Vec<usize>, u64)> = Vec::new();
        for (name, partition, bytes) in spill.drain_promotions() {
            match by_table.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, parts, total)) => {
                    parts.push(partition);
                    *total += bytes;
                }
                None => by_table.push((name, vec![partition], bytes)),
            }
        }
        by_table
            .into_iter()
            .map(|(name, partitions, bytes)| EvictionEvent::Promoted {
                name,
                partitions,
                bytes,
            })
            .collect()
    }

    /// Bring one session's owned residency back under the per-session
    /// quota, evicting *that session's* least-recently-used unpinned
    /// partitions first. A no-op when quotas are unlimited or the session
    /// is within its quota. Returns the evictions performed.
    pub fn enforce_session_quota(&self, session_id: u64, catalog: &Catalog) -> Vec<EvictionEvent> {
        let mut events = Vec::new();
        if self.session_quota_bytes == u64::MAX {
            return events;
        }
        let mut hit_recorded = false;
        loop {
            let mut state = self.state.lock();
            let owned = Self::session_bytes_locked(&state, session_id, catalog);
            if owned <= self.session_quota_bytes {
                break;
            }
            if !hit_recorded {
                hit_recorded = true;
                state.quota_hits += 1;
            }
            let need = owned - self.session_quota_bytes;
            let before = events.iter().map(EvictionEvent::partitions).sum::<usize>();
            let freed = Self::evict_table_partitions(
                &mut state,
                catalog,
                need,
                Some(session_id),
                None,
                self.spill.as_ref(),
                &mut events,
            );
            let evicted_now = events.iter().map(EvictionEvent::partitions).sum::<usize>() - before;
            state.quota_evicted_partitions += evicted_now as u64;
            if freed == 0 {
                // Everything the session still holds is pinned.
                break;
            }
        }
        events
    }

    /// Record the table's exact fully-loaded columnar footprint once every
    /// partition is resident at the same time. Row generators are
    /// deterministic, so the measured size is a provable size for any future
    /// full load of the same table — not an estimate like sampling one
    /// partition. A no-op while the table is only partially resident.
    pub fn record_footprint_if_full(&self, table: &TableMeta) {
        let Some(mem) = table.cached.as_ref() else {
            return;
        };
        if table.num_partitions == 0 || mem.loaded_partitions() != table.num_partitions {
            return;
        }
        let bytes = mem.memory_bytes();
        if bytes == 0 {
            return;
        }
        self.state
            .lock()
            .known_footprints
            .insert(table.name.clone(), bytes);
    }

    /// The recorded exact full-load footprint of a table, if a full load
    /// has been observed since the table (version) was created.
    pub fn known_footprint(&self, table: &str) -> Option<u64> {
        self.state.lock().known_footprints.get(table).copied()
    }

    /// Quota-feasibility check for an explicit full load: when the table's
    /// recorded footprint provably exceeds the per-session quota, admitting
    /// the load could only thrash — every loaded partition would be evicted
    /// again by quota enforcement before the load even finishes. Returns
    /// `Some((footprint, quota))` (and bumps the rejection gauge) when the
    /// load must be rejected; `None` when it may proceed, including when no
    /// full load has been observed yet (a first load is how the footprint
    /// becomes known).
    pub fn reject_infeasible_load(&self, table: &str) -> Option<(u64, u64)> {
        if self.session_quota_bytes == u64::MAX {
            return None;
        }
        let mut state = self.state.lock();
        let footprint = *state.known_footprints.get(table)?;
        if footprint > self.session_quota_bytes {
            state.quota_infeasible_rejections += 1;
            Some((footprint, self.session_quota_bytes))
        } else {
            None
        }
    }

    /// Loads rejected at admission time because their recorded footprint
    /// provably exceeded the per-session quota.
    pub fn quota_infeasible_rejections(&self) -> u64 {
        self.state.lock().quota_infeasible_rejections
    }

    /// Reclaim every dropped table version whose last referencing catalog
    /// snapshot has been released, then fold the catalog's reclamation log
    /// into this manager's accounting, emitting one
    /// [`EvictionEvent::Dropped`] per reclaimed version. The catalog also
    /// reclaims opportunistically at DDL/snapshot points, so this may drain
    /// records reclaimed earlier — accounting is log-based and therefore
    /// independent of *where* the reclamation happened. Versions still
    /// referenced by a pinned snapshot (an open cursor, an in-flight query)
    /// are left alone — their bytes show up in `Catalog::deferred_drop_bytes`
    /// until the pins close. Name-keyed bookkeeping is *not* touched here:
    /// it was cleared by [`MemstoreManager::forget`] at drop time and may
    /// since belong to a recreated table of the same name.
    pub fn reclaim_dropped(&self, catalog: &Catalog) -> Vec<EvictionEvent> {
        catalog.reclaim_unreferenced();
        let mut events = Vec::new();
        for record in catalog.drain_reclaimed() {
            let mut state = self.state.lock();
            state.deferred_drops_reclaimed += 1;
            state.deferred_reclaimed_bytes += record.bytes;
            // The version's lineage rebuilds move from the catalog's
            // deferred share into the retired total, keeping the
            // server-wide rebuild counter monotonic across drop → reclaim.
            state.retired_rebuilds += record.rebuilds;
            drop(state);
            events.push(EvictionEvent::Dropped {
                name: record.name,
                partitions: record.partitions,
                bytes: record.bytes,
            });
        }
        events
    }

    /// Dropped table versions reclaimed so far (deferred DDL reclamation).
    pub fn deferred_drops_reclaimed(&self) -> u64 {
        self.state.lock().deferred_drops_reclaimed
    }

    /// Bytes freed by deferred-drop reclamations.
    pub fn deferred_reclaimed_bytes(&self) -> u64 {
        self.state.lock().deferred_reclaimed_bytes
    }

    /// Forget all bookkeeping for a table (call when it is dropped from the
    /// catalog, so a future table of the same name starts clean).
    pub fn forget(&self, table: &str) {
        let mut state = self.state.lock();
        state.pins.remove(table);
        state.partition_pins.retain(|(name, _), _| name != table);
        state.awaiting_recompute.remove(table);
        state.owners.remove(table);
        state.known_footprints.remove(table);
        drop(state);
        // Spilled frames of the dropped table are unreachable now; a
        // recreated table of the same name must not fault in stale data.
        if let Some(spill) = &self.spill {
            spill.remove_table(table);
        }
    }

    /// Total eviction events recorded so far (one per victim table or RDD
    /// per enforcement pass).
    pub fn evictions(&self) -> u64 {
        self.state.lock().evictions
    }

    /// Total individual partitions evicted by policy.
    pub fn evicted_partitions(&self) -> u64 {
        self.state.lock().evicted_partitions
    }

    /// Eviction events that left their table partially resident — the
    /// partition-granular evictions the whole-table policy could not do.
    pub fn partial_evictions(&self) -> u64 {
        self.state.lock().partial_evictions
    }

    /// Total bytes freed by policy evictions.
    pub fn evicted_bytes(&self) -> u64 {
        self.state.lock().evicted_bytes
    }

    /// Times a session was found over its quota by
    /// [`MemstoreManager::enforce_session_quota`].
    pub fn quota_hits(&self) -> u64 {
        self.state.lock().quota_hits
    }

    /// Partitions evicted because their owning session exceeded its quota.
    pub fn quota_evicted_partitions(&self) -> u64 {
        self.state.lock().quota_evicted_partitions
    }

    /// Tables whose eviction was later followed by a re-access. This is a
    /// re-access signal, not an exact recompute count: map pruning over
    /// retained statistics can satisfy the re-access without rebuilding
    /// the evicted partitions. For the exact number of partitions rebuilt
    /// from lineage, see `ServerReport::partition_rebuilds`.
    pub fn lineage_recomputes(&self) -> u64 {
        self.state.lock().lineage_recomputes
    }

    /// Rebuild counts of dropped table versions already reclaimed (folded
    /// in by [`MemstoreManager::reclaim_dropped`]; versions still awaiting
    /// reclamation are counted by `Catalog::deferred_drop_rebuilds`).
    pub fn retired_rebuilds(&self) -> u64 {
        self.state.lock().retired_rebuilds
    }

    /// Tables currently pinned by in-flight queries or open cursors,
    /// sorted by name.
    pub fn pinned_tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.state.lock().pins.keys().cloned().collect();
        names.sort();
        names
    }

    /// Partitions of `table` currently pinned individually (by streaming
    /// cursors that have delivered them), in ascending index order.
    pub fn pinned_partitions(&self, table: &str) -> Vec<usize> {
        let mut parts: Vec<usize> = self
            .state
            .lock()
            .partition_pins
            .keys()
            .filter(|(name, _)| name == table)
            .map(|(_, partition)| *partition)
            .collect();
        parts.sort_unstable();
        parts
    }

    /// Tables with evicted-and-not-yet-reloaded partitions, sorted by name.
    pub fn awaiting_recompute(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .state
            .lock()
            .awaiting_recompute
            .iter()
            .filter(|(_, parts)| !parts.is_empty())
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_common::{row, DataType, Schema};
    use shark_sql::TableMeta;
    use std::sync::Arc;

    fn catalog_with_tables(names: &[&str]) -> Arc<Catalog> {
        let catalog = Arc::new(Catalog::new());
        for name in names {
            let schema = Schema::from_pairs(&[("x", DataType::Int), ("s", DataType::Str)]);
            catalog.register(
                TableMeta::new(name, schema, 2, |p| {
                    (0..200)
                        .map(|i| row![(p * 1000 + i) as i64, format!("value-{p}-{i}")])
                        .collect()
                })
                .with_cache(2),
            );
        }
        catalog
    }

    fn load_all(catalog: &Catalog) {
        for table in catalog.cached_tables() {
            let mem = table.cached.as_ref().unwrap();
            for p in 0..table.num_partitions {
                let rows = (table.base)(p);
                mem.put(
                    p,
                    Arc::new(shark_columnar::ColumnarPartition::from_rows(
                        &table.schema,
                        &rows,
                    )),
                );
            }
        }
    }

    /// Touch every partition of a table, making it the most recently used.
    fn touch_table(catalog: &Catalog, name: &str) {
        let table = catalog.get(name).unwrap();
        let mem = table.cached.as_ref().unwrap();
        for p in 0..table.num_partitions {
            mem.touch(p);
        }
    }

    #[test]
    fn evicts_lru_partitions_and_spares_pinned_tables() {
        let catalog = catalog_with_tables(&["a", "b", "c"]);
        load_all(&catalog);
        let rdd_cache = CacheManager::new();
        let per_table = catalog.memstore_bytes() / 3;
        // Budget fits two and a half tables: one partition must go.
        let manager = MemstoreManager::new(per_table * 2 + per_table / 2);
        // Touch order: a (oldest), b, c — and pin a, so b's LRU partition
        // is the victim.
        touch_table(&catalog, "a");
        touch_table(&catalog, "b");
        touch_table(&catalog, "c");
        manager.pin(&["a".into()]);
        let events = manager.enforce(&catalog, &rdd_cache);
        assert_eq!(events.len(), 1);
        match &events[0] {
            EvictionEvent::Table {
                name,
                partitions,
                bytes,
                whole_table,
            } => {
                assert_eq!(name, "b");
                // Half a table was over budget: one partition suffices.
                assert_eq!(partitions, &vec![0]);
                assert!(*bytes > 0);
                assert!(!whole_table, "b must survive partially resident");
            }
            other => panic!("expected table eviction, got {other:?}"),
        }
        // b is partially resident: one partition evicted, one still loaded.
        let b = catalog.get("b").unwrap();
        assert_eq!(b.cached.as_ref().unwrap().loaded_partitions(), 1);
        assert_eq!(manager.evictions(), 1);
        assert_eq!(manager.evicted_partitions(), 1);
        assert_eq!(manager.partial_evictions(), 1);
        assert_eq!(manager.awaiting_recompute(), vec!["b".to_string()]);
        // Re-accessing b counts as a lineage recompute.
        assert_eq!(manager.pin(&["b".into()]), 1);
        assert_eq!(manager.lineage_recomputes(), 1);
        assert!(manager.awaiting_recompute().is_empty());
    }

    #[test]
    fn enforcement_frees_roughly_the_overshoot_not_whole_tables() {
        let catalog = catalog_with_tables(&["a", "b"]);
        load_all(&catalog);
        let rdd_cache = CacheManager::new();
        let total = catalog.memstore_bytes();
        let largest_partition = catalog
            .cached_tables()
            .iter()
            .flat_map(|t| {
                let mem = t.cached.as_ref().unwrap();
                (0..t.num_partitions)
                    .map(|p| mem.partition_bytes(p))
                    .collect::<Vec<_>>()
            })
            .max()
            .unwrap();
        // Need exactly one partition's worth of space.
        let need = largest_partition;
        let manager = MemstoreManager::new(total - need);
        let events = manager.enforce(&catalog, &rdd_cache);
        let freed: u64 = events.iter().map(EvictionEvent::bytes).sum();
        assert!(freed >= need, "must free at least the overshoot");
        assert!(
            freed <= need + largest_partition,
            "freed {freed} but only {need} was needed (partition ≤ {largest_partition})"
        );
        // 4 partitions resident, ~1 needed: at most 2 may go (overshoot by
        // at most one partition), so at least 2 stay.
        let resident: usize = catalog
            .cached_tables()
            .iter()
            .map(|t| t.cached.as_ref().unwrap().loaded_partitions())
            .sum();
        assert!(resident >= 2, "whole-store dump: only {resident} left");
    }

    #[test]
    fn pinned_partition_survives_while_colder_neighbors_go() {
        let catalog = catalog_with_tables(&["a"]);
        load_all(&catalog);
        let rdd_cache = CacheManager::new();
        let manager = MemstoreManager::new(1);
        // Partition 0 is the coldest — and pinned.
        manager.pin_partition("a", 0);
        let events = manager.enforce(&catalog, &rdd_cache);
        assert_eq!(events.len(), 1);
        match &events[0] {
            EvictionEvent::Table { partitions, .. } => assert_eq!(partitions, &vec![1]),
            other => panic!("expected table eviction, got {other:?}"),
        }
        let mem = catalog.get("a").unwrap().cached.clone().unwrap();
        assert!(mem.is_loaded(0), "pinned partition must survive");
        assert!(!mem.is_loaded(1));
        // Unpinning makes it evictable.
        manager.unpin_partition("a", 0);
        let events = manager.enforce(&catalog, &rdd_cache);
        assert_eq!(events.len(), 1);
        assert!(!mem.is_loaded(0));
    }

    #[test]
    fn enforce_is_a_noop_under_budget() {
        let catalog = catalog_with_tables(&["a"]);
        load_all(&catalog);
        let rdd_cache = CacheManager::new();
        let manager = MemstoreManager::new(u64::MAX);
        assert!(manager.enforce(&catalog, &rdd_cache).is_empty());
        assert_eq!(manager.evictions(), 0);
    }

    #[test]
    fn falls_back_to_rdd_cache_when_tables_are_pinned() {
        let catalog = catalog_with_tables(&["a"]);
        load_all(&catalog);
        let rdd_cache = CacheManager::new();
        rdd_cache.put(7, 0, Arc::new(vec![0u8; 16]), 0, 1 << 20);
        let manager = MemstoreManager::new(catalog.memstore_bytes());
        manager.pin(&["a".into()]);
        let events = manager.enforce(&catalog, &rdd_cache);
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            EvictionEvent::Rdd { id: 7, partitions, .. } if partitions == &vec![0]
        ));
        // Table a survived; nothing else to evict even though still over.
        assert!(catalog.memstore_bytes() > 0);
        assert!(manager.enforce(&catalog, &rdd_cache).is_empty());
    }

    #[test]
    fn session_quota_evicts_own_partitions_first() {
        let catalog = catalog_with_tables(&["mine", "theirs"]);
        load_all(&catalog);
        let per_table = catalog.memstore_bytes() / 2;
        let manager = MemstoreManager::new(u64::MAX).with_session_quota(per_table / 2);
        manager.record_owner("mine", 1);
        manager.record_owner("theirs", 2);
        // Session 2 is under quota (owns one table of two partitions but we
        // only enforce for session 1 here).
        let events = manager.enforce_session_quota(1, &catalog);
        assert!(!events.is_empty());
        for event in &events {
            match event {
                EvictionEvent::Table { name, .. } => assert_eq!(name, "mine"),
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(manager.session_bytes(1, &catalog) <= per_table / 2);
        // The other session's table is untouched.
        let theirs = catalog.get("theirs").unwrap();
        assert_eq!(theirs.cached.as_ref().unwrap().loaded_partitions(), 2);
        assert_eq!(manager.quota_hits(), 1);
        assert!(manager.quota_evicted_partitions() > 0);
        // Within quota now: enforcing again is a no-op.
        assert!(manager.enforce_session_quota(1, &catalog).is_empty());
        assert_eq!(manager.quota_hits(), 1);
    }

    #[test]
    fn infeasible_loads_are_rejected_once_the_footprint_is_known() {
        let catalog = catalog_with_tables(&["big"]);
        let table = catalog.get("big").unwrap();
        let quota = 64u64;
        let manager = MemstoreManager::new(u64::MAX).with_session_quota(quota);
        // Nothing recorded yet: the first (discovering) load must be
        // admitted — that is how the footprint becomes known.
        manager.record_footprint_if_full(&table);
        assert_eq!(manager.known_footprint("big"), None);
        assert_eq!(manager.reject_infeasible_load("big"), None);
        load_all(&catalog);
        manager.record_footprint_if_full(&table);
        let footprint = manager.known_footprint("big").unwrap();
        assert!(footprint > quota, "test table must exceed the tiny quota");
        assert_eq!(
            manager.reject_infeasible_load("big"),
            Some((footprint, quota))
        );
        assert_eq!(manager.quota_infeasible_rejections(), 1);
        // Dropping the table clears the recorded footprint: a recreated
        // table of the same name starts clean.
        manager.forget("big");
        assert_eq!(manager.known_footprint("big"), None);
        assert_eq!(manager.reject_infeasible_load("big"), None);
        assert_eq!(manager.quota_infeasible_rejections(), 1);
    }

    #[test]
    fn feasible_and_unlimited_quota_loads_pass_the_check() {
        let catalog = catalog_with_tables(&["t"]);
        let table = catalog.get("t").unwrap();
        load_all(&catalog);
        let unlimited = MemstoreManager::new(u64::MAX);
        unlimited.record_footprint_if_full(&table);
        assert_eq!(unlimited.reject_infeasible_load("t"), None);
        let roomy = MemstoreManager::new(u64::MAX).with_session_quota(u64::MAX / 2);
        roomy.record_footprint_if_full(&table);
        assert_eq!(roomy.reject_infeasible_load("t"), None);
        assert_eq!(roomy.quota_infeasible_rejections(), 0);
    }

    #[test]
    fn unlimited_quota_never_evicts() {
        let catalog = catalog_with_tables(&["a"]);
        load_all(&catalog);
        let manager = MemstoreManager::new(u64::MAX);
        manager.record_owner("a", 1);
        assert!(manager.enforce_session_quota(1, &catalog).is_empty());
        assert_eq!(manager.quota_hits(), 0);
    }

    #[test]
    fn reclaim_dropped_waits_for_snapshot_release_and_accounts_bytes() {
        let catalog = catalog_with_tables(&["gone"]);
        load_all(&catalog);
        let manager = MemstoreManager::new(u64::MAX);
        let bytes = catalog.memstore_bytes();
        assert!(bytes > 0);
        let pin = catalog.snapshot();
        catalog.drop_table("gone").unwrap();
        // Still referenced by the pinned snapshot: nothing reclaimable, the
        // bytes show up as deferred instead, and budget enforcement does
        // not see (or evict) the dropped version.
        assert!(manager.reclaim_dropped(&catalog).is_empty());
        assert_eq!(catalog.deferred_drop_bytes(), bytes);
        assert_eq!(catalog.memstore_bytes(), 0);
        drop(pin);
        let events = manager.reclaim_dropped(&catalog);
        assert_eq!(events.len(), 1);
        match &events[0] {
            EvictionEvent::Dropped {
                name,
                partitions,
                bytes: freed,
            } => {
                assert_eq!(name, "gone");
                assert_eq!(partitions, &vec![0, 1]);
                assert_eq!(*freed, bytes);
            }
            other => panic!("expected a dropped-table reclamation, got {other:?}"),
        }
        assert_eq!(manager.deferred_drops_reclaimed(), 1);
        assert_eq!(manager.deferred_reclaimed_bytes(), bytes);
        assert_eq!(catalog.deferred_drop_bytes(), 0);
        // Idempotent.
        assert!(manager.reclaim_dropped(&catalog).is_empty());
    }

    #[test]
    fn owner_sets_accumulate_and_are_forgotten_on_drop() {
        let manager = MemstoreManager::new(u64::MAX);
        manager.record_owner("t", 3);
        manager.record_owner("t", 9);
        manager.record_owner("t", 3); // re-faulting the same table is idempotent
        assert_eq!(manager.owners("t"), vec![3, 9]);
        manager.forget("t");
        assert!(manager.owners("t").is_empty());
    }

    #[test]
    fn shared_tables_charge_each_owner_a_proportional_share() {
        let catalog = catalog_with_tables(&["shared", "solo"]);
        load_all(&catalog);
        let manager = MemstoreManager::new(u64::MAX);
        let shared_bytes = catalog
            .get("shared")
            .unwrap()
            .cached
            .as_ref()
            .unwrap()
            .memory_bytes();
        let solo_bytes = catalog
            .get("solo")
            .unwrap()
            .cached
            .as_ref()
            .unwrap()
            .memory_bytes();
        manager.record_owner("shared", 1);
        manager.record_owner("shared", 2);
        manager.record_owner("solo", 1);
        // The lowest-id owner absorbs the division remainder, so the
        // per-session charges always sum to the tables' resident bytes.
        assert_eq!(
            manager.session_bytes(1, &catalog),
            shared_bytes / 2 + shared_bytes % 2 + solo_bytes
        );
        assert_eq!(manager.session_bytes(2, &catalog), shared_bytes / 2);
        assert_eq!(manager.session_bytes(3, &catalog), 0);
        assert_eq!(
            manager.session_bytes(1, &catalog) + manager.session_bytes(2, &catalog),
            shared_bytes + solo_bytes,
            "shares must sum to the resident bytes"
        );
    }

    #[test]
    fn owner_shares_sum_exactly_for_any_owner_count() {
        let catalog = catalog_with_tables(&["shared"]);
        load_all(&catalog);
        let manager = MemstoreManager::new(u64::MAX);
        let bytes = catalog
            .get("shared")
            .unwrap()
            .cached
            .as_ref()
            .unwrap()
            .memory_bytes();
        // 3 owners rarely divide the byte count evenly — the remainder must
        // not be lost.
        for session in [11u64, 22, 33] {
            manager.record_owner("shared", session);
        }
        let total: u64 = [11u64, 22, 33]
            .iter()
            .map(|&s| manager.session_bytes(s, &catalog))
            .sum();
        assert_eq!(total, bytes, "shares must sum to the table's bytes");
    }

    #[test]
    fn closing_a_session_reapportions_shared_tables() {
        let catalog = catalog_with_tables(&["shared"]);
        load_all(&catalog);
        let manager = MemstoreManager::new(u64::MAX);
        let bytes = catalog
            .get("shared")
            .unwrap()
            .cached
            .as_ref()
            .unwrap()
            .memory_bytes();
        manager.record_owner("shared", 1);
        manager.record_owner("shared", 2);
        assert!(manager.session_bytes(2, &catalog) < bytes);
        // Session 1 closes: the survivor is charged the whole table, not a
        // stale half.
        manager.release_session(1);
        assert_eq!(manager.owners("shared"), vec![2]);
        assert_eq!(manager.session_bytes(2, &catalog), bytes);
        assert_eq!(manager.session_bytes(1, &catalog), 0);
        // The last owner closing clears the set entirely.
        manager.release_session(2);
        assert!(manager.owners("shared").is_empty());
    }

    fn spill_manager(tag: &str) -> (Arc<crate::spill::SpillManager>, std::path::PathBuf) {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "shark-memstore-{tag}-{}-{nanos}",
            std::process::id()
        ));
        (
            Arc::new(
                crate::spill::SpillManager::create(
                    &dir,
                    u64::MAX,
                    &shark_obs::MetricsRegistry::new(),
                )
                .unwrap(),
            ),
            dir,
        )
    }

    #[test]
    fn eviction_with_spill_tier_demotes_instead_of_dropping() {
        let catalog = catalog_with_tables(&["a"]);
        load_all(&catalog);
        let rdd_cache = CacheManager::new();
        let (spill, dir) = spill_manager("demote");
        let manager = MemstoreManager::new(1).with_spill(spill.clone());
        let events = manager.enforce(&catalog, &rdd_cache);
        assert_eq!(events.len(), 1);
        match &events[0] {
            EvictionEvent::Demoted {
                name,
                partitions,
                bytes,
                spill_bytes,
            } => {
                assert_eq!(name, "a");
                assert_eq!(partitions, &vec![0, 1]);
                assert!(*bytes > 0);
                assert!(*spill_bytes > 0);
            }
            other => panic!("expected a demotion, got {other:?}"),
        }
        // Demoted partitions are on the tier, not awaiting lineage
        // recompute: re-pinning the table is not a recompute signal.
        assert!(spill.is_spilled("a", 0));
        assert!(spill.is_spilled("a", 1));
        assert!(manager.awaiting_recompute().is_empty());
        assert_eq!(manager.pin(&["a".into()]), 0);
        // Memory eviction counters still account the demotions.
        assert_eq!(manager.evicted_partitions(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn demote_table_stages_a_fully_demoted_table() {
        let catalog = catalog_with_tables(&["a", "b"]);
        load_all(&catalog);
        let (spill, dir) = spill_manager("stage");
        let manager = MemstoreManager::new(u64::MAX).with_spill(spill.clone());
        let events = manager.demote_table(&catalog, "a");
        assert_eq!(events.len(), 1);
        let a = catalog.get("a").unwrap();
        assert_eq!(a.cached.as_ref().unwrap().loaded_partitions(), 0);
        assert_eq!(spill.spilled_partition_count(), 2);
        // Only the named table was touched.
        let b = catalog.get("b").unwrap();
        assert_eq!(b.cached.as_ref().unwrap().loaded_partitions(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forget_clears_spilled_frames_of_the_dropped_table() {
        let catalog = catalog_with_tables(&["a"]);
        load_all(&catalog);
        let (spill, dir) = spill_manager("forget");
        let manager = MemstoreManager::new(u64::MAX).with_spill(spill.clone());
        manager.demote_table(&catalog, "a");
        assert_eq!(spill.spilled_partition_count(), 2);
        manager.forget("a");
        assert_eq!(spill.spilled_partition_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
