//! The multi-session query server.
//!
//! [`SharkServer`] owns exactly one [`RddContext`] (simulated cluster +
//! shuffle + RDD cache), one shared [`Catalog`] (tables + columnar
//! memstore), an admission controller and a memory-budgeted memstore
//! manager. [`SharkServer::session`] hands out cheap [`SessionHandle`]s;
//! each handle owns a private `SqlSession` (its own UDFs and exec config)
//! over the shared state, so queries from different sessions read the same
//! cached tables and execute concurrently on their callers' threads, gated
//! only by admission control.
//!
//! When a spill directory is configured the server is also **durable**:
//! catalog DDL and spill-tier movements are journaled to a write-ahead log
//! (see [`crate::wal`]) at query boundaries, periodically folded into a
//! catalog snapshot + spill manifest, and [`SharkServer::restore`] brings
//! a new process back to the same catalog epoch with demoted partitions
//! re-adopted — servable at I/O cost instead of recomputed from lineage.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use shark_common::{Result, Row, Schema, SharkError};
use shark_rdd::{RddConfig, RddContext};
use shark_sql::ast::Statement;
use shark_sql::exec::LoadReport;
use shark_sql::{
    Catalog, ExecConfig, PlanCache, QueryResult, QueryStream, RowGenerator, SqlSession,
    StreamProgress, TableMeta,
};

use crate::admission::{AdmissionController, AdmissionPermit};
use crate::memstore::{EvictionEvent, MemstoreManager};
use crate::metrics::{QueryMetrics, ServerMetrics, ServerReport};
use crate::net::{NetConfig, NetMetrics, NetServer};
use crate::spill::{SpillEvent, SpillManager};
use crate::wal::{
    read_manifest, read_snapshot, recovery_metrics, replay_wal, write_manifest, write_snapshot,
    ManifestEntry, SnapshotFile, SpillManifest, TableRecord, WalRecord, WalWriter, MANIFEST_FILE,
    SNAPSHOT_FILE, WAL_FILE,
};

/// Configuration of a [`SharkServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The shared cluster/context configuration.
    pub rdd: RddConfig,
    /// Default execution configuration new sessions start with.
    pub exec: ExecConfig,
    /// Memory budget for cached tables + cached RDDs, in (in-process) bytes.
    pub memory_budget_bytes: u64,
    /// Per-session memory quota, layered under the global budget: each
    /// session is charged for the tables it loaded or created (first loader
    /// owns), and a session over its quota has *its own* least-recently-used
    /// partitions evicted first. `u64::MAX` = unlimited.
    pub session_mem_quota_bytes: u64,
    /// Maximum queries executing simultaneously.
    pub max_concurrent_queries: usize,
    /// Maximum queries waiting behind them before rejection.
    pub max_queued_queries: usize,
    /// Aggregate prefetch budget: the sum of the prefetch depths of all
    /// open streaming cursors may not exceed this, so speculative work
    /// stays bounded by the same admission story that bounds in-flight
    /// queries. A cursor asking for more is granted what remains (possibly
    /// 0 — serial streaming, never rejection).
    pub max_total_prefetch: usize,
    /// Worker threads of the process-wide work-stealing executor every
    /// query's tasks run on. `None` leaves the size to the
    /// `SHARK_EXECUTOR_THREADS` environment variable (falling back to the
    /// host's parallelism). The pool is process-wide and sized once: the
    /// first server to start wins, later values are ignored.
    pub executor_threads: Option<usize>,
    /// Directory for the spill-to-disk demotion tier. When set, budget and
    /// quota evictions *demote* table partitions — the compressed columnar
    /// form is written here and faulted back in by the next scan at I/O
    /// cost — instead of dropping them to lineage recompute. `None`
    /// disables the tier (the pre-spill behaviour). An unusable directory
    /// also just disables the tier; it never fails queries.
    pub spill_dir: Option<PathBuf>,
    /// Disk budget for the spill tier. When spilled frames exceed it, the
    /// coldest are deleted (those partitions degrade to lineage recompute).
    pub spill_budget_bytes: u64,
    /// How many catalog-WAL records may accumulate before the server folds
    /// them into a fresh snapshot + manifest checkpoint. Lower values bound
    /// replay work at restore; higher values amortize checkpoint I/O.
    /// Only meaningful when `spill_dir` is set (the WAL lives there).
    pub wal_snapshot_every_records: u64,
    /// Capacity of the shared prepared-statement / plan cache (distinct
    /// statements). Every session participates: repeated statements skip
    /// parse and — at an unchanged catalog epoch — planning too. `0`
    /// disables the cache.
    pub plan_cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            rdd: RddConfig::default(),
            exec: ExecConfig::shark(),
            memory_budget_bytes: u64::MAX,
            session_mem_quota_bytes: u64::MAX,
            max_concurrent_queries: 4,
            max_queued_queries: 64,
            max_total_prefetch: 8,
            executor_threads: None,
            spill_dir: None,
            spill_budget_bytes: u64::MAX,
            wal_snapshot_every_records: 256,
            plan_cache_capacity: 128,
        }
    }
}

impl ServerConfig {
    /// Set the memory budget.
    pub fn with_memory_budget(mut self, bytes: u64) -> ServerConfig {
        self.memory_budget_bytes = bytes;
        self
    }

    /// Set the per-session memory quota.
    pub fn with_session_quota(mut self, bytes: u64) -> ServerConfig {
        self.session_mem_quota_bytes = bytes;
        self
    }

    /// Set the admission bounds.
    pub fn with_admission(mut self, concurrent: usize, queued: usize) -> ServerConfig {
        self.max_concurrent_queries = concurrent;
        self.max_queued_queries = queued;
        self
    }

    /// Set the aggregate streaming-prefetch budget.
    pub fn with_prefetch_budget(mut self, total: usize) -> ServerConfig {
        self.max_total_prefetch = total;
        self
    }

    /// Size the process-wide work-stealing executor (first server wins).
    pub fn with_executor_threads(mut self, threads: usize) -> ServerConfig {
        self.executor_threads = Some(threads);
        self
    }

    /// Enable the spill-to-disk demotion tier under `dir`.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> ServerConfig {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Cap the spill tier's disk usage.
    pub fn with_spill_budget(mut self, bytes: u64) -> ServerConfig {
        self.spill_budget_bytes = bytes;
        self
    }

    /// Checkpoint the catalog WAL every `records` committed records.
    pub fn with_wal_snapshot_every(mut self, records: u64) -> ServerConfig {
        self.wal_snapshot_every_records = records;
        self
    }

    /// Size the shared prepared-statement / plan cache (0 disables it).
    pub fn with_plan_cache_capacity(mut self, statements: usize) -> ServerConfig {
        self.plan_cache_capacity = statements;
        self
    }
}

/// The durable-catalog machinery of one server: the open WAL appender plus
/// the checkpoint cadence. Lives behind one mutex so WAL batches from
/// concurrent query boundaries serialize — the journals are drained *under*
/// this lock, which is what keeps a table's `Created` record ahead of its
/// partitions' `Demoted` records in the log.
struct Durability {
    /// Directory the WAL, snapshot and manifest live in (the spill dir).
    dir: PathBuf,
    /// The open WAL appender (recreated fresh by every checkpoint).
    wal: WalWriter,
    /// Fold the WAL into a snapshot after this many committed records.
    snapshot_every: u64,
    /// Records committed since the last checkpoint.
    records_since_snapshot: u64,
}

/// What one restore observed, frozen at construction and surfaced through
/// [`ServerReport`].
#[derive(Debug, Clone, Default)]
struct RecoveryStats {
    restored: bool,
    wal_records_replayed: u64,
    torn_wal_tail: bool,
    tables_restored: u64,
    placeholder_tables: u64,
    frames_adopted: u64,
    frames_rejected: u64,
    orphans_swept: u64,
}

pub(crate) struct ServerShared {
    ctx: RddContext,
    catalog: Arc<Catalog>,
    exec: ExecConfig,
    admission: AdmissionController,
    memstore: MemstoreManager,
    /// This server's own metrics registry: every serving-layer family
    /// (queries, net, spill, RDD-cache evictions) is registered here and
    /// nowhere else, and [`SharkServer::report`] reads it back.
    registry: shark_obs::MetricsRegistry,
    metrics: ServerMetrics,
    next_session_id: AtomicU64,
    next_query_id: AtomicU64,
    max_total_prefetch: usize,
    prefetch_in_use: AtomicUsize,
    /// `Some` when a spill directory is configured and its WAL is writable.
    durability: Option<Mutex<Durability>>,
    /// What the restore that produced this server observed (all-default
    /// for a fresh start).
    recovery: RecoveryStats,
    snapshots_written: AtomicU64,
    wal_append_failures: AtomicU64,
    /// The shared prepared-statement / plan cache every session of this
    /// server participates in (`None` when disabled by configuration).
    plan_cache: Option<Arc<PlanCache>>,
    /// The TCP frontend's `shark_net_*` family; all-zero until
    /// [`SharkServer::serve`] is called.
    net: NetMetrics,
}

impl ServerShared {
    /// Grant as much of `requested` as the aggregate prefetch budget still
    /// allows (possibly 0 — the stream then runs serially, it is never
    /// rejected). The grant must be returned via [`Self::release_prefetch`].
    fn acquire_prefetch(&self, requested: usize) -> usize {
        let mut grant = 0;
        // `fetch_update` retries the closure until its compare-exchange
        // lands, so `grant` ends as the amount actually added (or 0).
        let _ = self
            .prefetch_in_use
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                grant = requested.min(self.max_total_prefetch.saturating_sub(used));
                (grant > 0).then_some(used + grant)
            });
        grant
    }

    fn release_prefetch(&self, granted: usize) {
        if granted > 0 {
            self.prefetch_in_use.fetch_sub(granted, Ordering::Relaxed);
        }
    }

    /// Drain the catalog's DDL journal and the spill tier's event journal
    /// into one fsync'd WAL batch. Runs at every query boundary (and at
    /// admin operations that change durable state); a no-op without
    /// durability or when nothing changed. Spill events are stamped with
    /// the *current* epoch — replay does not order by epoch, it applies
    /// records in log order, so a late stamp is harmless.
    fn persist_durable(&self) {
        let Some(durability) = &self.durability else {
            return;
        };
        let mut dur = durability.lock();
        let mut records: Vec<WalRecord> = self
            .catalog
            .drain_ddl()
            .iter()
            .map(WalRecord::from_ddl)
            .collect();
        let epoch = self.catalog.epoch();
        if let Some(spill) = self.memstore.spill() {
            for event in spill.drain_wal_events() {
                records.push(match event {
                    SpillEvent::Demoted {
                        table,
                        partition,
                        table_version,
                        bytes,
                        checksum,
                    } => WalRecord::Demoted {
                        epoch,
                        table,
                        table_version,
                        partition: partition as u64,
                        bytes,
                        checksum,
                    },
                    SpillEvent::Promoted {
                        table,
                        partition,
                        table_version,
                    } => WalRecord::Promoted {
                        epoch,
                        table,
                        table_version,
                        partition: partition as u64,
                    },
                });
            }
        }
        if records.is_empty() {
            return;
        }
        match dur.wal.append_batch(&records) {
            Ok(()) => {
                dur.records_since_snapshot += records.len() as u64;
                if dur.records_since_snapshot >= dur.snapshot_every {
                    self.checkpoint(&mut dur);
                }
            }
            Err(_) => {
                // The journals are already drained, so these records never
                // reach the log. Force a checkpoint: the snapshot captures
                // the full current state, which re-covers whatever the
                // failed append lost.
                self.wal_append_failures.fetch_add(1, Ordering::Relaxed);
                self.checkpoint(&mut dur);
            }
        }
    }

    /// Fold the WAL into fresh durable state: write the spill manifest,
    /// then the catalog snapshot, then start an empty WAL. The order is
    /// the crash-safety argument — a crash before the WAL is recreated
    /// leaves old records in the log, and replaying them *onto* the new
    /// snapshot is idempotent (the snapshot is the fold of exactly those
    /// records). Returns whether the checkpoint fully landed.
    fn checkpoint(&self, dur: &mut Durability) -> bool {
        let entries = self
            .memstore
            .spill()
            .map(|s| s.manifest_entries())
            .unwrap_or_default();
        if write_manifest(&dur.dir.join(MANIFEST_FILE), &SpillManifest { entries }).is_err() {
            self.wal_append_failures.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let snapshot = SnapshotFile {
            epoch: self.catalog.epoch(),
            tables: self
                .catalog
                .table_names()
                .iter()
                .filter_map(|name| self.catalog.get(name).ok())
                .map(|table| TableRecord::from_meta(&table))
                .collect(),
        };
        if write_snapshot(&dur.dir.join(SNAPSHOT_FILE), &snapshot).is_err() {
            self.wal_append_failures.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        match WalWriter::create(dur.dir.join(WAL_FILE)) {
            Ok(wal) => {
                dur.wal = wal;
                dur.records_since_snapshot = 0;
                self.snapshots_written.fetch_add(1, Ordering::Relaxed);
                shark_obs::event(
                    "checkpoint",
                    &[
                        ("epoch", &snapshot.epoch.to_string()),
                        ("tables", &snapshot.tables.len().to_string()),
                    ],
                );
                true
            }
            Err(_) => {
                self.wal_append_failures.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }
}

/// RAII whole-table pins for the admin load paths: releases on drop, so a
/// load that panics or errors between pin and unpin cannot leak its pins
/// and leave the table unevictable forever. (Queries pin through their
/// [`QueryLifecycle`] instead.)
struct PinGuard<'a> {
    memstore: &'a MemstoreManager,
    tables: Vec<String>,
}

impl<'a> PinGuard<'a> {
    fn pin(memstore: &'a MemstoreManager, tables: Vec<String>) -> PinGuard<'a> {
        memstore.pin(&tables);
        PinGuard { memstore, tables }
    }
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.memstore.unpin(&self.tables);
    }
}

/// Restore-time hook mapping a restored table's metadata to the row
/// generator to re-attach; `None` leaves the loud placeholder.
type GeneratorResolver<'a> = &'a dyn Fn(&TableRecord) -> Option<RowGenerator>;

/// A shared-everything warehouse server handing out concurrent sessions.
#[derive(Clone)]
pub struct SharkServer {
    shared: Arc<ServerShared>,
}

impl SharkServer {
    /// Start a fresh server from a configuration. Any durable state a
    /// previous incarnation left under the spill directory is deliberately
    /// ignored — and its spill frames swept as orphans; use
    /// [`SharkServer::restore`] to come back warm instead.
    pub fn new(config: ServerConfig) -> SharkServer {
        SharkServer::boot(config, None)
    }

    /// Restore a server from the durable state under the configured spill
    /// directory: load the catalog snapshot, replay the WAL over it
    /// (truncating any torn tail), and re-adopt the spill frames the
    /// manifest + WAL still expect — demoted partitions are servable again
    /// at I/O cost, not recomputed. Restored tables get a placeholder row
    /// generator that panics on first lineage recompute; use
    /// [`SharkServer::restore_with`] to re-attach real generators.
    ///
    /// Fails only when `config.spill_dir` is unset (nowhere to restore
    /// from). Damaged durable state never fails the restore — it degrades:
    /// torn WAL tails are cut, a corrupt snapshot or manifest reads as
    /// empty, and rejected frames fall back to lineage recompute.
    pub fn restore(config: ServerConfig) -> Result<SharkServer> {
        SharkServer::restore_with(config, |_| None)
    }

    /// [`SharkServer::restore`], with a resolver that re-attaches a row
    /// generator to each restored table (generators are code, not data —
    /// they cannot live in the snapshot). Tables the resolver declines get
    /// the loud placeholder generator.
    pub fn restore_with(
        config: ServerConfig,
        resolver: impl Fn(&TableRecord) -> Option<RowGenerator>,
    ) -> Result<SharkServer> {
        if config.spill_dir.is_none() {
            return Err(SharkError::Config(
                "restore requires a spill directory (ServerConfig::with_spill_dir): \
                 the catalog WAL, snapshot and spill manifest live there"
                    .into(),
            ));
        }
        Ok(SharkServer::boot(config, Some(&resolver)))
    }

    /// Shared construction path. `resolver` is `Some` for a restore (replay
    /// durable state before serving) and `None` for a fresh start (sweep
    /// the directory's frames as orphans).
    fn boot(config: ServerConfig, resolver: Option<GeneratorResolver<'_>>) -> SharkServer {
        if let Some(threads) = config.executor_threads {
            shark_rdd::Executor::configure_global(threads);
        }
        let registry = shark_obs::MetricsRegistry::new();
        let mut memstore = MemstoreManager::new(config.memory_budget_bytes)
            .with_session_quota(config.session_mem_quota_bytes);
        let mut spill = None;
        if let Some(dir) = &config.spill_dir {
            // An unusable spill directory disables the tier (and with it
            // durability) rather than failing server start: queries then
            // see the pre-spill world (eviction = lineage recompute),
            // never an I/O error.
            if let Ok(manager) = SpillManager::create(dir, config.spill_budget_bytes, &registry) {
                let manager = Arc::new(manager);
                memstore = memstore.with_spill(manager.clone());
                spill = Some(manager);
            }
        }
        let catalog = Arc::new(Catalog::new());
        let num_nodes = config.rdd.cluster.num_nodes;
        let recovery = match (&spill, resolver) {
            (Some(spill), Some(resolver)) => restore_catalog(&catalog, spill, num_nodes, resolver),
            (Some(spill), None) => {
                // Fresh start: a previous incarnation's frames are orphans
                // here, not recoverable data.
                spill.sweep_orphans();
                RecoveryStats::default()
            }
            _ => RecoveryStats::default(),
        };
        let durability = spill.as_ref().and_then(|spill| {
            // A WAL that cannot be created disables durability the same
            // way an unusable directory disables the tier.
            WalWriter::create(spill.dir().join(WAL_FILE))
                .ok()
                .map(|wal| {
                    Mutex::new(Durability {
                        dir: spill.dir().to_path_buf(),
                        wal,
                        snapshot_every: config.wal_snapshot_every_records.max(1),
                        records_since_snapshot: 0,
                    })
                })
        });
        let ctx = RddContext::new(config.rdd);
        // Observe RDD-cache policy evictions in the server's registry (the
        // table memstore's evictions are counted by the manager itself).
        let rdd_evictions = registry.counter(
            "shark_rdd_cache_evicted_partitions_total",
            "RDD-cache partitions evicted by the memory budget",
        );
        let rdd_evicted_bytes = registry.counter(
            "shark_rdd_cache_evicted_bytes_total",
            "RDD-cache bytes evicted by the memory budget",
        );
        ctx.cache()
            .set_eviction_observer(Box::new(move |_rdd, _partition, bytes| {
                rdd_evictions.inc();
                rdd_evicted_bytes.add(bytes);
            }));
        let server = SharkServer {
            shared: Arc::new(ServerShared {
                ctx,
                catalog,
                exec: config.exec,
                admission: AdmissionController::new(
                    config.max_concurrent_queries,
                    config.max_queued_queries,
                ),
                memstore,
                metrics: ServerMetrics::new(&registry),
                net: NetMetrics::new(&registry),
                registry,
                next_session_id: AtomicU64::new(1),
                next_query_id: AtomicU64::new(1),
                max_total_prefetch: config.max_total_prefetch,
                prefetch_in_use: AtomicUsize::new(0),
                durability,
                recovery,
                snapshots_written: AtomicU64::new(0),
                wal_append_failures: AtomicU64::new(0),
                plan_cache: (config.plan_cache_capacity > 0)
                    .then(|| Arc::new(PlanCache::new(config.plan_cache_capacity))),
            }),
        };
        // Boot checkpoint: snapshot, manifest and (fresh) WAL now agree
        // with the in-memory state, so a crash at any later point replays
        // from here.
        if let Some(dur) = &server.shared.durability {
            server.shared.checkpoint(&mut dur.lock());
        }
        server
    }

    /// Quiesce and persist: demote every cached table's resident
    /// partitions to the spill tier, commit the final WAL batch and write
    /// a checkpoint, so [`SharkServer::restore`] brings the catalog back
    /// warm. A no-op without durability. The server stays usable after —
    /// shutdown is a durability barrier, not a poison pill.
    pub fn shutdown(&self) -> Result<()> {
        let shared = &self.shared;
        if shared.durability.is_none() {
            return Ok(());
        }
        let _span = shark_obs::span("shutdown");
        for table in shared.catalog.cached_tables() {
            shared.memstore.demote_table(&shared.catalog, &table.name);
        }
        shared.persist_durable();
        let Some(dur) = &shared.durability else {
            return Ok(());
        };
        if shared.checkpoint(&mut dur.lock()) {
            Ok(())
        } else {
            Err(SharkError::Execution(
                "shutdown checkpoint failed: the durable catalog state on disk is stale".into(),
            ))
        }
    }

    /// A server with default configuration (tiny local cluster, unbounded
    /// memory, 4-way admission).
    pub fn local() -> SharkServer {
        SharkServer::new(ServerConfig::default())
    }

    /// Open a new session. Sessions are cheap; open one per user/thread.
    pub fn session(&self) -> SessionHandle {
        let id = self.shared.next_session_id.fetch_add(1, Ordering::Relaxed);
        let mut sql = SqlSession::with_catalog(
            self.shared.ctx.clone(),
            self.shared.exec.clone(),
            self.shared.catalog.clone(),
        );
        if let Some(cache) = &self.shared.plan_cache {
            sql.set_plan_cache(cache.clone());
        }
        SessionHandle {
            id,
            sql,
            shared: self.shared.clone(),
        }
    }

    /// Start serving this server's sessions over TCP (see
    /// `docs/wire-protocol.md` for the frame format). Returns the running
    /// frontend; call [`NetServer::shutdown`] to stop accepting, reap every
    /// connection and join the service threads.
    pub fn serve(&self, config: NetConfig) -> Result<NetServer> {
        NetServer::start(self.clone(), config)
    }

    /// The shared plan cache, when enabled.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.shared.plan_cache.as_ref()
    }

    /// The TCP frontend's metrics (all-zero when [`SharkServer::serve`]
    /// was never called).
    pub(crate) fn net_metrics(&self) -> &NetMetrics {
        &self.shared.net
    }

    /// This server's metrics registry: the serving-layer families
    /// (`shark_queries_*`, `shark_rejected_total`, the admission, exec and
    /// time-to-first-row histograms, `shark_net_*`, `shark_spill_*`,
    /// `shark_rdd_cache_evicted_*`). [`SharkServer::report`] reads the
    /// same metrics.
    pub fn metrics(&self) -> &shark_obs::MetricsRegistry {
        &self.shared.registry
    }

    /// Prometheus text exposition: this server's families, followed by the
    /// process-wide ones of [`shark_obs::metrics()`] (WAL, recovery, scan,
    /// stage and simulated-cluster families).
    pub fn render_prometheus(&self) -> String {
        let mut text = self.shared.registry.render_prometheus();
        text.push_str(&shark_obs::metrics().render_prometheus());
        text
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.shared.catalog
    }

    /// The shared RDD context.
    pub fn context(&self) -> &RddContext {
        &self.shared.ctx
    }

    /// Register a base table in the shared catalog (admin path — not gated
    /// by admission control). Replacing an existing cached table displaces
    /// the old version: its name-keyed bookkeeping (owner, pins, recompute
    /// tracking) is cleared — like a DROP TABLE — and it is reclaimed
    /// immediately unless a pinned snapshot (an in-flight query or open
    /// cursor) still references it.
    pub fn register_table(&self, table: TableMeta) -> Arc<TableMeta> {
        let replacing = self.shared.catalog.contains(&table.name);
        let registered = self.shared.catalog.register(table);
        if replacing {
            self.shared.memstore.forget(&registered.name);
        }
        self.shared.memstore.reclaim_dropped(&self.shared.catalog);
        self.shared.persist_durable();
        registered
    }

    /// Eagerly load a cached table, then enforce the memory budget (the
    /// load itself may push residency over it).
    pub fn load_table(&self, name: &str) -> Result<LoadReport> {
        let table = self.shared.catalog.get(name)?;
        // Pin before loading so a concurrent enforcement cannot evict the
        // table out from under the load. (Recency is tracked by the
        // memtable itself: the load's puts refresh each partition's tick.)
        let pins = PinGuard::pin(&self.shared.memstore, vec![table.name.clone()]);
        let report = shark_sql::exec::load_table(&self.shared.ctx, &table);
        // Record the exact full-load footprint while every partition is
        // still resident (before enforcement may evict): it is the provable
        // bound the quota-infeasibility admission check keys off.
        self.shared.memstore.record_footprint_if_full(&table);
        drop(pins);
        self.shared
            .memstore
            .enforce(&self.shared.catalog, self.shared.ctx.cache());
        self.shared.persist_durable();
        report
    }

    /// Tables currently pinned by in-flight queries or open cursors.
    pub fn pinned_tables(&self) -> Vec<String> {
        self.shared.memstore.pinned_tables()
    }

    /// Partitions of `table` individually pinned by streaming cursors that
    /// have delivered them, in ascending index order.
    pub fn pinned_partitions(&self, table: &str) -> Vec<usize> {
        self.shared.memstore.pinned_partitions(table)
    }

    /// Queries currently executing (holding admission permits) — streaming
    /// cursors count until exhausted or dropped.
    pub fn running_queries(&self) -> usize {
        self.shared.admission.running()
    }

    /// Prefetch depth currently granted to open streaming cursors, out of
    /// [`ServerConfig::max_total_prefetch`].
    pub fn prefetch_in_use(&self) -> usize {
        self.shared.prefetch_in_use.load(Ordering::Relaxed)
    }

    /// Current resident bytes charged against the budget.
    pub fn resident_bytes(&self) -> u64 {
        self.shared
            .memstore
            .resident_bytes(&self.shared.catalog, self.shared.ctx.cache())
    }

    /// Resident bytes of `DROP TABLE`d versions still pinned by open
    /// catalog snapshots (in-flight queries, open cursors); reclaimed when
    /// the last pin closes.
    pub fn deferred_drop_bytes(&self) -> u64 {
        self.shared.catalog.deferred_drop_bytes()
    }

    /// Reclaim dropped table versions whose last pinning snapshot has been
    /// released (also runs after every query and cursor close). Returns
    /// the reclamations performed.
    pub fn reclaim_dropped(&self) -> Vec<EvictionEvent> {
        self.shared.memstore.reclaim_dropped(&self.shared.catalog)
    }

    /// The spill-to-disk demotion tier, when configured.
    pub fn spill(&self) -> Option<&Arc<SpillManager>> {
        self.shared.memstore.spill()
    }

    /// Demote every unpinned resident partition of one table to the spill
    /// tier (admin path — used to stage demoted residency states for tests
    /// and benchmarks; plain eviction when no tier is configured).
    pub fn demote_table(&self, name: &str) -> Vec<EvictionEvent> {
        let events = self
            .shared
            .memstore
            .demote_table(&self.shared.catalog, name);
        self.shared.persist_durable();
        events
    }

    /// Aggregate a server-level report over everything run so far. Also
    /// performs any reclamation that is already due (a report is an
    /// observation point like a query boundary), so the deferred-drop
    /// numbers it returns are current.
    pub fn report(&self) -> ServerReport {
        let shared = &self.shared;
        shared.memstore.reclaim_dropped(&shared.catalog);
        // A report is a durability point too: whatever the journals hold
        // is committed, so the WAL numbers below are current.
        shared.persist_durable();
        let mut report = shared.metrics.report();
        report.peak_concurrent_queries = shared.admission.peak_running();
        report.peak_queued_queries = shared.admission.peak_queued();
        report.evictions = shared.memstore.evictions();
        report.evicted_partitions = shared.memstore.evicted_partitions();
        report.partial_evictions = shared.memstore.partial_evictions();
        report.evicted_bytes = shared.memstore.evicted_bytes();
        report.lineage_recomputes = shared.memstore.lineage_recomputes();
        report.quota_hits = shared.memstore.quota_hits();
        report.quota_evicted_partitions = shared.memstore.quota_evicted_partitions();
        report.quota_infeasible_rejections = shared.memstore.quota_infeasible_rejections();
        if let Some(cache) = &shared.plan_cache {
            report.plan_cache_enabled = true;
            report.plan_cache_hits = cache.hits();
            report.plan_cache_misses = cache.misses();
            report.plan_cache_stale_plans = cache.stale_plans();
            report.plan_cache_entries = cache.entries() as u64;
            report.plan_cache_capacity = cache.capacity() as u64;
        }
        let net = &shared.net;
        report.connections_opened = net.opened.get();
        report.connections_closed = net.closed.get();
        report.connections_active = net.active();
        report.connections_reaped = net.reaped.get();
        report.wire_bytes_sent = net.bytes_sent.get();
        report.wire_bytes_received = net.bytes_received.get();
        report.net_frames_sent = net.frames_sent.get();
        report.net_frames_received = net.frames_received.get();
        report.net_protocol_errors = net.protocol_errors.get();
        report.net_auth_failures = net.auth_failures.get();
        report.net_queries = net.queries.get();
        report.net_prepared_statements = net.prepared.get();
        report.net_cancels = net.cancels.get();
        // Live tables' rebuild counters, plus the frozen counts of versions
        // awaiting deferred reclamation, plus the retired counts of
        // versions already reclaimed — a rebuild moves between the three
        // shares as its table is dropped and reclaimed, so the cumulative
        // metric never decreases.
        report.partition_rebuilds = shared.memstore.retired_rebuilds()
            + shared.catalog.deferred_drop_rebuilds()
            + shared
                .catalog
                .cached_tables()
                .iter()
                .filter_map(|t| t.cached.as_ref().map(|m| m.rebuilds()))
                .sum::<u64>();
        report.partition_promotions = shared
            .catalog
            .cached_tables()
            .iter()
            .filter_map(|t| t.cached.as_ref().map(|m| m.promotions()))
            .sum::<u64>();
        if let Some(spill) = shared.memstore.spill() {
            report.spilled_partitions = spill.spilled_partition_count();
            report.spill_disk_bytes = spill.disk_bytes();
            report.spill_budget_bytes = spill.budget_bytes();
            report.partitions_demoted = spill.spilled_partitions();
            report.partitions_promoted = spill.promoted_partitions();
            report.spill_bytes_written = spill.spilled_bytes();
            report.spill_bytes_read = spill.promoted_bytes();
            report.spill_poisoned_files = spill.poisoned_files();
            report.spill_displaced_partitions = spill.displaced_partitions();
        }
        report.wal_enabled = shared.durability.is_some();
        if let Some(dur) = &shared.durability {
            report.wal_records = dur.lock().wal.record_count();
        }
        report.wal_snapshots_written = shared.snapshots_written.load(Ordering::Relaxed);
        report.wal_append_failures = shared.wal_append_failures.load(Ordering::Relaxed);
        report.restored = shared.recovery.restored;
        report.recovery_wal_records_replayed = shared.recovery.wal_records_replayed;
        report.recovery_torn_wal_tail = shared.recovery.torn_wal_tail;
        report.recovery_tables_restored = shared.recovery.tables_restored;
        report.recovery_placeholder_tables = shared.recovery.placeholder_tables;
        report.recovery_frames_adopted = shared.recovery.frames_adopted;
        report.recovery_frames_rejected = shared.recovery.frames_rejected;
        report.recovery_orphans_swept = shared.recovery.orphans_swept;
        report.memstore_bytes = shared.catalog.memstore_bytes();
        report.rdd_cache_bytes = shared.ctx.cache().total_bytes();
        report.memory_budget_bytes = shared.memstore.budget_bytes();
        report.session_quota_bytes = shared.memstore.session_quota_bytes();
        report.catalog_epoch = shared.catalog.epoch();
        report.live_snapshots = shared.catalog.live_snapshots();
        report.deferred_drop_bytes = shared.catalog.deferred_drop_bytes();
        report.deferred_drops_reclaimed = shared.memstore.deferred_drops_reclaimed();
        report.deferred_reclaimed_bytes = shared.memstore.deferred_reclaimed_bytes();
        report
    }

    /// The most recent [`crate::metrics::QUERY_LOG_CAPACITY`] queries, in
    /// completion order ([`SharkServer::report`] covers every query).
    pub fn query_log(&self) -> Vec<QueryMetrics> {
        self.shared.metrics.query_log()
    }
}

/// The result of a query run through a session: the rows plus what the
/// serving layer observed about the run.
#[derive(Debug, Clone)]
pub struct SessionQueryResult {
    /// The query result proper.
    pub result: QueryResult,
    /// Serving-layer metrics for this query.
    pub metrics: QueryMetrics,
}

/// One user's handle onto the shared server.
pub struct SessionHandle {
    id: u64,
    sql: SqlSession,
    shared: Arc<ServerShared>,
}

impl SessionHandle {
    /// This session's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Register a UDF visible only to this session.
    pub fn register_udf<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&[shark_common::Value]) -> shark_common::Value + Send + Sync + 'static,
    {
        self.sql.register_udf(name, f);
    }

    /// Replace this session's execution configuration.
    pub fn set_exec_config(&mut self, exec: ExecConfig) {
        self.sql.set_exec_config(exec);
    }

    /// Set how many result partitions this session's streaming cursors ask
    /// to execute ahead of the consumer. The server may grant less: the sum
    /// of all open cursors' depths is capped by
    /// [`ServerConfig::max_total_prefetch`].
    pub fn set_stream_prefetch(&mut self, depth: usize) {
        self.sql.set_stream_prefetch(depth);
    }

    /// Execute a SQL statement under admission control, returning the rows
    /// plus per-query serving metrics. Fails fast with
    /// [`SharkError::Execution`] when the admission queue is full.
    pub fn sql(&self, text: &str) -> Result<SessionQueryResult> {
        let shared = &self.shared;
        // Parse up front so we know which tables to touch/pin — and so a
        // syntactically invalid query never occupies an execution slot.
        // With a plan cache attached, a repeated statement skips the parser
        // through the cache's (epoch-independent) parse tier.
        let parsed = self.sql.parse_cached(text);
        let (mut life, statement) = QueryLifecycle::open(self, text, parsed, "query", 0)?;
        // Nest every engine/scheduler span of this query under its root.
        let _trace = life.attach();
        let exec_started = Instant::now();
        let result = self.sql.execute_statement_cached(text, &statement);
        life.metrics.exec_time = exec_started.elapsed();
        // An engine error drops `life`, which closes it as a failed query.
        let (result, plan_cache_hit) = result?;
        life.metrics.plan_cache_hit = plan_cache_hit;
        life.metrics.sim_seconds = result.sim_seconds;
        life.metrics.rows_streamed = result.rows.len() as u64;
        life.metrics.failed = false;
        match statement.as_ref() {
            Statement::DropTable { name } => {
                // The table is gone from the catalog; clear its LRU/pin/
                // recompute/owner bookkeeping so a future table reusing
                // the name starts clean. Its lineage-rebuild count stays
                // visible through the catalog's deferred share until the
                // version is reclaimed, then moves into the retired
                // total — the server-wide metric never decreases.
                shared.memstore.forget(&name.to_lowercase());
            }
            Statement::CreateTableAs { name, .. } => {
                // The new table's resident bytes are charged to the
                // session that created it.
                shared.memstore.record_owner(&name.to_lowercase(), self.id);
            }
            _ => {}
        }
        life.close();
        Ok(SessionQueryResult {
            result,
            metrics: life.metrics.clone(),
        })
    }

    /// Execute a SELECT under admission control and return a streaming
    /// [`QueryCursor`]: row batches are delivered as partitions finish, and
    /// the cursor holds the admission permit *and* memstore pins until it
    /// is exhausted or dropped. Multi-table pipelines keep whole-table
    /// pins; a single-scan stream pins only the partitions it has actually
    /// delivered, so a long-lived cursor leaves the rest of the table
    /// evictable (evicted partitions are rebuilt from lineage when their
    /// morsel runs). A LIMIT stream stops launching partitions early.
    pub fn sql_stream(&self, text: &str) -> Result<QueryCursor<'_>> {
        // Parse through the cache's parse tier; a non-SELECT statement gets
        // the same error `parser::parse_select` would produce.
        let parsed = self
            .sql
            .parse_cached(text)
            .and_then(|parsed| match parsed.as_ref() {
                Statement::Select(_) => Ok(parsed),
                other => Err(SharkError::Parse(format!(
                    "expected a SELECT statement, found {other:?}"
                ))),
            });
        let prefetch = self.sql.stream_prefetch();
        let (mut life, parsed) =
            QueryLifecycle::open(self, text, parsed, "query-stream", prefetch)?;
        let Statement::Select(statement) = parsed.as_ref() else {
            unreachable!("non-SELECT statements fail before admission")
        };
        let _trace = life.attach();
        let planned = self.sql.sql_to_stream_cached(text, statement);
        life.metrics.exec_time = life.admitted_at.elapsed();
        // A planning error drops `life`, which closes it as a failed query.
        let (stream, plan_cache_hit) = planned?;
        let stream = stream.with_prefetch(life.metrics.prefetch_depth);
        life.metrics.plan_cache_hit = plan_cache_hit;
        // Only a query that got a cursor counts toward the streamed-query
        // aggregates.
        life.metrics.streamed = true;
        life.metrics.failed = false;
        // Single-scan streams swap the whole-table pin for partition-
        // granular pins on delivered partitions: a long-lived cursor no
        // longer holds every partition of the table hostage against
        // eviction — undelivered partitions stay evictable and are rebuilt
        // from lineage if a morsel needs one after pressure took it.
        if let Some(scan) = stream.single_scan_table() {
            if let Some(at) = life.tables.iter().position(|t| t == scan) {
                let released = life.tables.remove(at);
                self.shared.memstore.unpin(std::slice::from_ref(&released));
                life.scan_pins = Some((released, Vec::new()));
            }
        }
        Ok(QueryCursor { life, stream })
    }

    /// Parse a statement through the plan cache's parse tier without
    /// executing it — the wire frontend's Prepare path, which wants parse
    /// errors at prepare time and a warmed cache for the Executes after.
    pub(crate) fn parse_statement(&self, text: &str) -> Result<Arc<Statement>> {
        self.sql.parse_cached(text)
    }

    /// Eagerly load a cached table through this session (admission-gated
    /// like any other statement would be).
    pub fn load_table(&self, name: &str) -> Result<LoadReport> {
        let shared = &self.shared;
        let lowered = name.to_lowercase();
        // Quota-feasibility gate, *before* the admission permit: once a
        // full load has recorded the table's exact footprint, a session
        // whose quota provably cannot hold it is rejected outright instead
        // of being admitted, loading, and thrashing every partition back
        // out through quota evictions. (The discovering first load is
        // always admitted — that is how the footprint becomes known.)
        if let Some((footprint, quota)) = shared.memstore.reject_infeasible_load(&lowered) {
            shared.metrics.record_rejection(self.id);
            return Err(SharkError::Execution(format!(
                "load of table '{lowered}' rejected: its full resident footprint \
                 ({footprint} bytes) provably exceeds the per-session memory quota \
                 ({quota} bytes); the load could only thrash through quota evictions"
            )));
        }
        let (permit, _wait) = shared
            .admission
            .acquire()
            .map_err(|e| SharkError::Execution(e.to_string()))?;
        // Pin before loading so a concurrent enforcement cannot evict the
        // table out from under the load; charge the load to this session.
        let pins = PinGuard::pin(&shared.memstore, vec![lowered.clone()]);
        let report = self.sql.load_table(name);
        if report.is_ok() {
            shared.memstore.record_owner(&lowered, self.id);
            // Record the exact full-load footprint while every partition is
            // still resident (quota enforcement below may evict some): it
            // becomes the provable bound future feasibility checks use.
            if let Ok(table) = shared.catalog.get(&lowered) {
                shared.memstore.record_footprint_if_full(&table);
            }
        }
        drop(pins);
        shared
            .memstore
            .enforce_session_quota(self.id, &shared.catalog);
        shared.memstore.enforce(&shared.catalog, shared.ctx.cache());
        drop(permit);
        shared.persist_durable();
        report
    }

    /// Resident memstore bytes currently charged to this session (the
    /// tables it loaded or created), out of
    /// [`ServerConfig::session_mem_quota_bytes`].
    pub fn resident_bytes(&self) -> u64 {
        self.shared
            .memstore
            .session_bytes(self.id, &self.shared.catalog)
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        // A closing session leaves every owner set it was in, re-apportioning
        // co-owned tables' bytes over the surviving owners — otherwise the
        // dead session would keep absorbing its share forever and the
        // remaining owners would be under-charged against their quotas.
        self.shared.memstore.release_session(self.id);
    }
}

/// Attach this query's completion-time enforcement outcome to its trace:
/// an `eviction` event when the global budget evicted victims (with its
/// demoted share broken out), a `quota-eviction` event when the session's
/// own quota did, and a `promotion` event for partitions scans faulted back
/// in from the spill tier. No-op when tracing is off or no trace context is
/// attached.
fn record_enforcement_events(
    evictions: &[EvictionEvent],
    quota_events: &[EvictionEvent],
    promotions: &[EvictionEvent],
) {
    if !shark_obs::active() {
        return;
    }
    if !evictions.is_empty() {
        let partitions: usize = evictions.iter().map(EvictionEvent::partitions).sum();
        let demoted: usize = evictions
            .iter()
            .filter(|e| matches!(e, EvictionEvent::Demoted { .. }))
            .map(EvictionEvent::partitions)
            .sum();
        shark_obs::event(
            "eviction",
            &[
                ("events", &evictions.len().to_string()),
                ("partitions", &partitions.to_string()),
                ("demoted", &demoted.to_string()),
            ],
        );
    }
    if !quota_events.is_empty() {
        let partitions: usize = quota_events.iter().map(EvictionEvent::partitions).sum();
        shark_obs::event("quota-eviction", &[("partitions", &partitions.to_string())]);
    }
    if !promotions.is_empty() {
        let partitions: usize = promotions.iter().map(EvictionEvent::partitions).sum();
        shark_obs::event("promotion", &[("partitions", &partitions.to_string())]);
    }
}

/// Rebuild the catalog and spill tier from the durable state under the
/// spill directory: snapshot + WAL replay for the table map and epoch,
/// manifest + WAL replay for the set of frames worth re-adopting.
///
/// Replay applies WAL records in log order *onto* the snapshot/manifest
/// baseline. No epoch filtering is needed: a checkpoint that crashed
/// before truncating the WAL leaves records that are already folded into
/// the snapshot, and re-applying them is idempotent (same upserts, same
/// removals). Frames only survive into the adoption set if their table
/// still exists at the exact version the frame was written under —
/// anything else is swept and falls back to lineage recompute.
fn restore_catalog(
    catalog: &Catalog,
    spill: &Arc<SpillManager>,
    num_nodes: usize,
    resolver: GeneratorResolver<'_>,
) -> RecoveryStats {
    let started = Instant::now();
    let mut root = if shark_obs::tracer().is_enabled() {
        Some(shark_obs::start_trace("restore"))
    } else {
        None
    };
    let _trace = root.as_ref().map(|r| r.context().attach());
    let dir = spill.dir();
    let replay = replay_wal(&dir.join(WAL_FILE));
    let snapshot = read_snapshot(&dir.join(SNAPSHOT_FILE)).unwrap_or_default();
    let manifest = read_manifest(&dir.join(MANIFEST_FILE)).unwrap_or_default();

    let mut stats = RecoveryStats {
        restored: true,
        wal_records_replayed: replay.records.len() as u64,
        torn_wal_tail: replay.torn,
        ..RecoveryStats::default()
    };
    let mut tables: Vec<TableRecord> = snapshot.tables;
    let mut expected: Vec<ManifestEntry> = manifest.entries;
    let mut max_epoch = snapshot.epoch;
    for record in &replay.records {
        max_epoch = max_epoch.max(record.epoch());
        match record {
            WalRecord::Created { table, .. } => {
                tables.retain(|t| t.name != table.name);
                tables.push(table.clone());
            }
            WalRecord::Dropped { name, .. } => {
                tables.retain(|t| t.name != *name);
            }
            WalRecord::Demoted {
                table,
                table_version,
                partition,
                bytes,
                checksum,
                ..
            } => {
                expected.retain(|e| !(e.table == *table && e.partition == *partition));
                expected.push(ManifestEntry {
                    table: table.clone(),
                    partition: *partition,
                    table_version: *table_version,
                    file: spill.frame_file_name(table, *partition as usize),
                    file_bytes: *bytes,
                    checksum: *checksum,
                });
            }
            WalRecord::Promoted {
                table, partition, ..
            } => {
                expected.retain(|e| !(e.table == *table && e.partition == *partition));
            }
        }
    }
    // A frame is only re-adoptable for the exact table version it was
    // written under; frames of dropped or replaced tables become orphans.
    expected.retain(|e| {
        tables
            .iter()
            .any(|t| t.name == e.table && t.version == e.table_version)
    });

    tables.sort_by(|a, b| a.name.cmp(&b.name));
    for record in &tables {
        let generator = resolver(record);
        let placeholder = generator.is_none();
        let generator = generator.unwrap_or_else(|| placeholder_generator(&record.name));
        let meta = record.into_meta(generator, num_nodes);
        if let Some(mem) = &meta.cached {
            // Wire the tier before the first scan so adopted frames are
            // faulted in instead of recomputed.
            mem.set_spill_source(spill.clone());
        }
        catalog.register(meta);
        stats.tables_restored += 1;
        if placeholder {
            stats.placeholder_tables += 1;
        }
    }
    // Replayed registrations bumped the epoch from zero; land on the exact
    // pre-crash epoch and discard the registrations' DDL journal — replay
    // is history, not new DDL to be re-logged.
    catalog.advance_epoch_to(max_epoch);
    catalog.drain_ddl();

    let (adopted, rejected) = spill.adopt(&expected);
    stats.frames_adopted = adopted;
    stats.frames_rejected = rejected;
    stats.orphans_swept = spill.sweep_orphans();

    let metrics = recovery_metrics();
    metrics.restores.inc();
    metrics.wal_records_replayed.add(stats.wal_records_replayed);
    if stats.torn_wal_tail {
        metrics.torn_wal_tails.inc();
    }
    metrics.tables_restored.add(stats.tables_restored);
    metrics.seconds.observe(started.elapsed().as_secs_f64());
    if let Some(root) = root.as_mut() {
        root.annotate("tables", &stats.tables_restored.to_string());
        root.annotate("frames_adopted", &stats.frames_adopted.to_string());
        root.annotate("epoch", &max_epoch.to_string());
        if stats.torn_wal_tail {
            root.annotate("torn_wal_tail", "true");
        }
    }
    if let Some(root) = root {
        root.finish();
    }
    stats
}

/// The generator a restored table falls back to when the resolver has
/// nothing for it: generators are code, so they cannot be persisted, and
/// silently serving zero rows would corrupt results. Scans served from
/// memory or adopted spill frames never call it; only a lineage recompute
/// does, and then it fails loudly.
fn placeholder_generator(name: &str) -> RowGenerator {
    let name = name.to_string();
    Arc::new(move |_| {
        panic!(
            "table '{name}' was restored without a row generator; \
             re-attach one with SharkServer::restore_with"
        )
    })
}

/// The tables a statement needs pinned while it executes: every table it
/// reads, plus — for CTAS — the table it *creates*, so a concurrent budget
/// enforcement cannot evict the target's freshly loaded memstore partitions
/// mid-load.
fn pinned_tables_for(statement: &Statement) -> Vec<String> {
    let mut tables = statement.referenced_tables();
    if let Statement::CreateTableAs { name, .. } = statement {
        let target = name.to_lowercase();
        if !tables.contains(&target) {
            tables.push(target);
        }
    }
    tables
}

/// Charge every referenced table whose residency this query *grew* (lazy
/// scan loads, lineage rebuilds) to the session, so query-only tenants
/// cannot fault in an unbounded working set outside their quota. First
/// owner wins, so already-charged tables are unaffected.
fn charge_faulted_tables(shared: &ServerShared, session_id: u64, before: &[(String, u64)]) {
    for (name, bytes_before) in before {
        let Ok(table) = shared.catalog.get(name) else {
            continue;
        };
        let grew = table
            .cached
            .as_ref()
            .map(|m| m.memory_bytes() > *bytes_before)
            .unwrap_or(false);
        if grew {
            shared.memstore.record_owner(name, session_id);
        }
        // A scan that faulted the whole table in just revealed its exact
        // footprint — record it for the quota-infeasibility admission gate.
        shared.memstore.record_footprint_if_full(&table);
    }
}

/// One query's trip through the server, shared by the blocking and the
/// streamed path: [`QueryLifecycle::open`] admits and pins it, the caller
/// runs the engine and fills in what it observed, and
/// [`QueryLifecycle::close`] — idempotent, and run on drop, so errors and
/// panics take the same path — releases everything, enforces quota and
/// budget, commits durable effects and records the query's one
/// [`QueryMetrics`]. A blocking query closes inside
/// [`SessionHandle::sql`]; a streamed one hands its lifecycle to the
/// [`QueryCursor`], which closes it when the stream ends or is dropped.
struct QueryLifecycle<'s> {
    shared: &'s ServerShared,
    /// Root span of the query's trace (when tracing is on), finished by
    /// close — so a stream's batch deliveries, long after
    /// [`SessionHandle::sql_stream`] returned, still belong to its trace.
    root: Option<shark_obs::DetachedSpan>,
    /// Held from admission until close; `None` for a query that never got
    /// past parsing.
    permit: Option<AdmissionPermit<'s>>,
    /// Tables held under whole-table pins until close.
    tables: Vec<String>,
    /// Single-scan target pinned at partition granularity instead, with
    /// the partitions pinned so far: only partitions the stream has
    /// delivered are pinned, via [`QueryCursor::sync_partition_pins`]
    /// (the stream's delivered-partition list is append-only).
    scan_pins: Option<(String, Vec<usize>)>,
    /// Referenced tables' resident bytes at admission, for fault-in
    /// ownership attribution on close.
    residency_before: Vec<(String, u64)>,
    /// End of `open`; a stream's execution time is measured from here.
    admitted_at: Instant,
    /// When a stream delivered its first row; close falls back to the
    /// execution time (`metrics.exec_time`, stamped by the caller).
    first_row: Option<Duration>,
    /// This query's metrics, filled in as it runs. `failed` stays set
    /// until the caller reports success, so every error path — and an
    /// unwinding panic — records a failed query.
    metrics: QueryMetrics,
    closed: bool,
}

impl<'s> QueryLifecycle<'s> {
    /// Admit a parsed statement: record a parse failure, or start the root
    /// span (`root_name`), wait for admission, pin the statement's tables,
    /// snapshot their residency and take up to `prefetch` of the server's
    /// prefetch budget. A rejected query records a rejection and no
    /// [`QueryMetrics`].
    fn open(
        session: &'s SessionHandle,
        text: &str,
        parsed: Result<Arc<Statement>>,
        root_name: &str,
        prefetch: usize,
    ) -> Result<(QueryLifecycle<'s>, Arc<Statement>)> {
        let shared = &*session.shared;
        let mut life = QueryLifecycle {
            shared,
            root: None,
            permit: None,
            tables: Vec::new(),
            scan_pins: None,
            residency_before: Vec::new(),
            admitted_at: Instant::now(),
            first_row: None,
            metrics: QueryMetrics {
                session_id: session.id,
                query_id: 0,
                statement: text.to_string(),
                queue_wait: Duration::ZERO,
                exec_time: Duration::ZERO,
                sim_seconds: 0.0,
                time_to_first_row: Duration::ZERO,
                rows_streamed: 0,
                partitions_streamed: 0,
                partitions_total: 0,
                streamed: false,
                prefetch_depth: 0,
                prefetch_hits: 0,
                cache_hit_bytes: 0,
                recomputed_tables: 0,
                evictions_triggered: 0,
                quota_evictions: 0,
                plan_cache_hit: false,
                failed: true,
            },
            closed: false,
        };
        // A parse failure drops `life` here, recording a failed query that
        // never held a span, permit or pin.
        let statement = parsed?;
        if shark_obs::tracer().is_enabled() {
            let mut span = shark_obs::start_trace(root_name);
            span.annotate("statement", text);
            span.annotate("session", &session.id.to_string());
            life.root = Some(span);
        }
        let _trace = life.attach();
        let acquired = {
            // Admission-queue wait as its own span; the always-on histogram
            // counterpart is observed in `ServerMetrics::record`.
            let _wait = shark_obs::span("admission-wait");
            shared.admission.acquire()
        };
        let (permit, queue_wait) = match acquired {
            Ok(admitted) => admitted,
            Err(err) => {
                if let Some(root) = life.root.as_mut() {
                    root.annotate("rejected", "true");
                }
                shared.metrics.record_rejection(session.id);
                life.closed = true;
                return Err(SharkError::Execution(err.to_string()));
            }
        };
        life.permit = Some(permit);
        life.metrics.queue_wait = queue_wait;
        life.tables = pinned_tables_for(&statement);
        life.metrics.recomputed_tables = shared.memstore.pin(&life.tables);
        // Per-table resident bytes of the referenced cached tables, so close
        // can attribute growth (`charge_faulted_tables`); their sum is the
        // bytes the scans could serve straight from the memstore.
        life.residency_before = life
            .tables
            .iter()
            .filter_map(|name| shared.catalog.get(name).ok())
            .filter_map(|t| {
                t.cached
                    .as_ref()
                    .map(|m| (t.name.clone(), m.memory_bytes()))
            })
            .collect();
        life.metrics.cache_hit_bytes = life.residency_before.iter().map(|(_, b)| b).sum();
        // Clamp a stream's prefetch under the server-wide budget while the
        // admission permit is already held, so total speculative work
        // stays bounded alongside total in-flight queries.
        life.metrics.prefetch_depth = shared.acquire_prefetch(prefetch);
        life.admitted_at = Instant::now();
        Ok((life, statement))
    }

    /// Put this query's trace context on the current thread (a cursor may
    /// be drained and closed on another thread than the one that opened
    /// it).
    fn attach(&self) -> Option<shark_obs::AttachGuard> {
        self.root.as_ref().map(|r| r.context().attach())
    }

    /// The completion sequence, run once: release the prefetch grant and
    /// pins, charge faulted-in tables, re-enforce quota and budget while
    /// the permit is still held (so concurrent enforcement stays bounded),
    /// reclaim dropped versions, release the permit, commit durable
    /// effects, then finish the root span and record the metrics.
    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let shared = self.shared;
        let _trace = self.attach();
        let metrics = &mut self.metrics;
        // Batch delivery: the whole result arrives when execution ends.
        metrics.time_to_first_row = self.first_row.unwrap_or(metrics.exec_time);
        if let Some(permit) = self.permit.take() {
            shared.release_prefetch(metrics.prefetch_depth);
            shared.memstore.unpin(&self.tables);
            if let Some((table, partitions)) = &self.scan_pins {
                for &partition in partitions {
                    shared.memstore.unpin_partition(table, partition);
                }
            }
            // The query may have grown the memstore (lazy loads, lineage
            // rebuilds, CREATE TABLE … cached): charge any table it faulted
            // in to this session, then bring the session back under its own
            // quota (its LRU partitions go first) and the global budget.
            charge_faulted_tables(shared, metrics.session_id, &self.residency_before);
            let quota_events = shared
                .memstore
                .enforce_session_quota(metrics.session_id, &shared.catalog);
            let evictions = shared.memstore.enforce(&shared.catalog, shared.ctx.cache());
            // The statement's own snapshot pin is released by now (the
            // engine holds it only for the statement's lifetime; a cursor
            // cancels its stream first), so a DROP TABLE this query
            // performed — or one whose last pinning cursor has since
            // closed — can be reclaimed here.
            shared.memstore.reclaim_dropped(&shared.catalog);
            drop(permit);
            let promotions = shared.memstore.drain_promotions();
            record_enforcement_events(&evictions, &quota_events, &promotions);
            // Commit this query's durable effects (CTAS/DROP, demotions,
            // promotions) before its result is observable.
            shared.persist_durable();
            metrics.evictions_triggered = evictions.len();
            metrics.quota_evictions = quota_events.iter().map(EvictionEvent::partitions).sum();
        }
        if let Some(mut root) = self.root.take() {
            root.add_rows(metrics.rows_streamed);
            if metrics.streamed {
                root.annotate(
                    "partitions",
                    &format!(
                        "{}/{}",
                        metrics.partitions_streamed, metrics.partitions_total
                    ),
                );
            }
            if metrics.failed {
                root.annotate("failed", "true");
            }
            root.finish();
        }
        metrics.query_id = shared.next_query_id.fetch_add(1, Ordering::Relaxed);
        shared.metrics.record(metrics.clone());
    }
}

impl Drop for QueryLifecycle<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// A streaming result cursor handed out by [`SessionHandle::sql_stream`].
///
/// The cursor owns the query's lifecycle — its admission permit and
/// memstore pins. Both are released, and the query's [`QueryMetrics`]
/// recorded, when the stream is exhausted, when an execution error
/// surfaces, or when the cursor is dropped mid-stream.
pub struct QueryCursor<'s> {
    life: QueryLifecycle<'s>,
    stream: QueryStream,
}

impl QueryCursor<'_> {
    /// The result schema.
    pub fn schema(&self) -> &Schema {
        self.stream.schema()
    }

    /// Run-time decisions taken while building and running the pipeline.
    pub fn notes(&self) -> &[String] {
        self.stream.notes()
    }

    /// Delivery progress so far.
    pub fn progress(&self) -> &StreamProgress {
        self.stream.progress()
    }

    /// Whether this stream's plan came out of the shared plan cache.
    pub fn plan_cache_hit(&self) -> bool {
        self.life.metrics.plan_cache_hit
    }

    /// Simulated cluster seconds accumulated by the partitions run so far.
    pub fn sim_seconds(&self) -> f64 {
        self.stream.sim_seconds()
    }

    /// Fetch the next batch of rows. Returns `Ok(None)` when the stream is
    /// exhausted, at which point the admission permit and table pins have
    /// been released and the query's metrics recorded.
    pub fn next_batch(&mut self) -> Result<Option<Vec<Row>>> {
        if self.life.closed {
            return Ok(None);
        }
        match self.stream.next_batch() {
            Ok(Some(batch)) => {
                self.sync_partition_pins();
                Ok(Some(batch))
            }
            Ok(None) => {
                self.finalize();
                Ok(None)
            }
            Err(err) => {
                self.life.metrics.failed = true;
                self.finalize();
                Err(err)
            }
        }
    }

    /// Pin every newly delivered partition of the single-scan table.
    fn sync_partition_pins(&mut self) {
        let Some((table, pinned)) = &mut self.life.scan_pins else {
            return;
        };
        let delivered = self.stream.delivered_scan_partitions();
        for &partition in &delivered[pinned.len()..] {
            self.life.shared.memstore.pin_partition(table, partition);
            pinned.push(partition);
        }
    }

    /// Drain the rest of the stream into one vector (closing the cursor).
    pub fn fetch_all(&mut self) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        while let Some(batch) = self.next_batch()? {
            rows.extend(batch);
        }
        Ok(rows)
    }

    /// Stop the stream and close the query's lifecycle. Idempotent.
    fn finalize(&mut self) {
        let life = &mut self.life;
        if life.closed {
            return;
        }
        life.metrics.exec_time = life.admitted_at.elapsed();
        let _trace = life.attach();
        // Stop the stream first (cancelling + joining any prefetch workers)
        // so no task can touch a table after its pin is released.
        self.stream.cancel();
        let progress = self.stream.progress();
        life.first_row = progress.time_to_first_row;
        let metrics = &mut life.metrics;
        metrics.sim_seconds = self.stream.sim_seconds();
        metrics.rows_streamed = progress.rows_streamed;
        metrics.partitions_streamed = progress.partitions_streamed;
        metrics.partitions_total = progress.partitions_total;
        metrics.prefetch_hits = progress.prefetch_hits;
        life.close();
    }
}

impl Drop for QueryCursor<'_> {
    fn drop(&mut self) {
        // A cursor abandoned mid-stream still releases its pins and permit
        // and records what it streamed.
        self.finalize();
    }
}
