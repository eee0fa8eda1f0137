//! The warehouse-server workflow: N concurrent analyst sessions firing SQL
//! at one `SharkServer` that shares a single cached TPC-H-style memstore,
//! under a memory budget deliberately too small for the full working set —
//! so the server's partition-granular LRU policy keeps evicting the coldest
//! cached partitions and lineage keeps recomputing exactly the missing
//! ones, while admission control bounds the in-flight queries. A
//! per-session memory quota sits under the global budget: a session that
//! loads more than its share has its *own* least-recently-used partitions
//! evicted first.
//! LIMIT queries go through the streaming cursor (`sql_stream`), which
//! stops launching partitions once enough rows were delivered and records
//! per-query time-to-first-row. Streaming cursors prefetch: a bounded
//! worker pool (capped by the server's aggregate prefetch budget) executes
//! partitions ahead of the consumer, and ORDER BY + LIMIT queries use
//! top-k pushdown — per-partition top-k plus statistics-ordered
//! partition launches.
//!
//! Run with: `cargo run --release -p shark-examples --example server_concurrent`

use std::sync::{Arc, Barrier};

use shark_datagen::tpch::{self, TpchConfig};
use shark_rdd::RddConfig;
use shark_server::{ServerConfig, SharkServer};
use shark_sql::{ExecConfig, TableMeta};

const SESSIONS: usize = 8;
const ROUNDS: usize = 4;

fn register_tpch(server: &SharkServer, cfg: &TpchConfig, partitions: usize) {
    let nodes = server.context().config().cluster.num_nodes;
    let c1 = cfg.clone();
    server.register_table(
        TableMeta::new("lineitem", tpch::lineitem_schema(), partitions, move |p| {
            tpch::lineitem_partition(&c1, partitions, p)
        })
        .with_row_count_hint(cfg.lineitem_rows as u64)
        .with_cache(nodes),
    );
    let supplier_parts = partitions.clamp(1, 8);
    let c2 = cfg.clone();
    server.register_table(
        TableMeta::new(
            "supplier",
            tpch::supplier_schema(),
            supplier_parts,
            move |p| tpch::supplier_partition(&c2, supplier_parts, p),
        )
        .with_row_count_hint(cfg.supplier_rows as u64)
        .with_cache(nodes),
    );
    let orders_parts = partitions.clamp(1, 16);
    let c3 = cfg.clone();
    server.register_table(
        TableMeta::new("orders", tpch::orders_schema(), orders_parts, move |p| {
            tpch::orders_partition(&c3, orders_parts, p)
        })
        .with_row_count_hint(cfg.orders_rows as u64)
        .with_cache(nodes),
    );
}

fn main() -> shark_common::Result<()> {
    let tpch_cfg = TpchConfig::tiny();
    let partitions = 8;

    // Pass 1: measure the full memstore footprint with no budget.
    let sizing = SharkServer::local();
    register_tpch(&sizing, &tpch_cfg, partitions);
    for table in ["lineitem", "supplier", "orders"] {
        sizing.load_table(table)?;
    }
    let full_bytes = sizing.catalog().memstore_bytes();
    let orders_bytes = sizing
        .catalog()
        .get("orders")?
        .cached
        .as_ref()
        .map(|m| m.memory_bytes())
        .unwrap_or(0);

    // Pass 2: the real server, with room for roughly 85% of that working
    // set — lineitem alone fits, but not together with either of the other
    // tables, so the LRU policy keeps displacing somebody.
    let budget = full_bytes * 17 / 20;
    println!("full working set: {full_bytes} columnar bytes; server budget: {budget} bytes");
    let server = SharkServer::new(ServerConfig {
        rdd: RddConfig::default(),
        exec: ExecConfig::shark(),
        memory_budget_bytes: budget,
        // Each session may own at most an orders-table's worth of loaded
        // data; going over evicts that session's own LRU partitions first.
        session_mem_quota_bytes: orders_bytes.max(1),
        max_concurrent_queries: 4,
        max_queued_queries: 128,
        max_total_prefetch: 8,
        executor_threads: None,
        // Memory-only, as the paper runs it: pressure drops partitions to
        // lineage recompute. Point spill_dir at a directory to demote them
        // to disk instead (see the README's "Storage tiers" section).
        spill_dir: None,
        spill_budget_bytes: u64::MAX,
        wal_snapshot_every_records: 256,
        plan_cache_capacity: 128,
    });
    register_tpch(&server, &tpch_cfg, partitions);

    // Quota close-up (before the workload claims table ownership): one
    // greedy session loads orders — filling its quota exactly — then
    // supplier on top, pushing it over, so the quota layer evicts that
    // session's own LRU partitions while the rest of the store stays put.
    {
        let greedy = server.session();
        greedy.load_table("orders")?;
        let before = greedy.resident_bytes();
        greedy.load_table("supplier")?;
        println!(
            "quota: session {} owned {before} bytes after loading orders, \
             {} after supplier (quota {}; own LRU partitions evicted to fit)",
            greedy.id(),
            greedy.resident_bytes(),
            orders_bytes,
        );
    }

    let queries = [
        "SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_shipmode",
        "SELECT COUNT(*) FROM supplier WHERE s_acctbal > 0",
        "SELECT o_custkey, SUM(o_totalprice) FROM orders GROUP BY o_custkey \
         ORDER BY SUM(o_totalprice) DESC LIMIT 5",
        "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity > 10",
    ];

    let barrier = Arc::new(Barrier::new(SESSIONS));
    let mut workers = Vec::new();
    for s in 0..SESSIONS {
        let mut session = server.session();
        // Ask for 2 partitions of prefetch per cursor; the server clamps the
        // aggregate under its prefetch budget.
        session.set_stream_prefetch(2);
        let barrier = barrier.clone();
        workers.push(std::thread::spawn(move || {
            barrier.wait();
            let mut rows = 0usize;
            for round in 0..ROUNDS {
                for q in 0..queries.len() {
                    // Offset the query mix per session so the tables keep
                    // displacing each other in the memstore.
                    let text = queries[(s + round + q) % queries.len()];
                    if text.contains("LIMIT") {
                        // Serve LIMIT queries through the streaming cursor:
                        // partitions stop launching once the limit is met.
                        match session.sql_stream(text).and_then(|mut c| c.fetch_all()) {
                            Ok(streamed) => rows += streamed.len(),
                            Err(err) => eprintln!("session {s}: {err}"),
                        }
                    } else {
                        match session.sql(text) {
                            Ok(result) => rows += result.result.rows.len(),
                            Err(err) => eprintln!("session {s}: {err}"),
                        }
                    }
                }
            }
            (session.id(), rows)
        }));
    }
    for worker in workers {
        let (id, rows) = worker.join().expect("worker panicked");
        println!("session {id} finished ({rows} result rows)");
    }

    // Streaming close-up: a full lineitem scan through a prefetching
    // cursor, showing how early the first batch lands relative to the whole
    // result and how many deliveries the worker pool had ready in advance.
    let mut session = server.session();
    session.set_stream_prefetch(4);
    let mut cursor = session.sql_stream("SELECT l_orderkey, l_shipmode FROM lineitem")?;
    let first = cursor.next_batch()?.unwrap_or_default();
    let progress = cursor.progress().clone();
    let rest = cursor.fetch_all()?;
    let done = cursor.progress().clone();
    println!(
        "\nstreamed scan: first batch of {} rows after {:?} ({}/{} partitions); \
         {} rows total, {} prefetch hits",
        first.len(),
        progress.time_to_first_row.unwrap_or_default(),
        progress.partitions_streamed,
        progress.partitions_total,
        first.len() + rest.len(),
        done.prefetch_hits,
    );

    // Top-k close-up: ORDER BY + LIMIT over the statistics-ordered stream
    // executes only as many partitions as the limit needs. (Re-load first:
    // the budget churn above may have evicted lineitem's partitions, and
    // without resident statistics top-k falls back to running every
    // partition.)
    server.load_table("lineitem")?;
    let mut cursor =
        session.sql_stream("SELECT l_orderkey FROM lineitem ORDER BY l_orderkey LIMIT 5")?;
    let top = cursor.next_batch()?.unwrap_or_default();
    let progress = cursor.progress().clone();
    println!(
        "top-k stream: {} rows via {}/{} partitions (per-partition heaps + stat-ordered launch)",
        top.len(),
        progress.partitions_streamed,
        progress.partitions_total,
    );

    // Snapshot-isolation close-up: open a cursor over orders, then DROP and
    // recreate the table mid-stream from another session. The cursor keeps
    // draining the version its snapshot pinned; the dropped version's bytes
    // stay resident (deferred reclamation) until the cursor closes.
    server.load_table("orders")?;
    let ddl = server.session();
    let mut cursor = session.sql_stream("SELECT o_orderkey, o_totalprice FROM orders")?;
    let first = cursor.next_batch()?.unwrap_or_default();
    ddl.sql("DROP TABLE orders")?;
    let deferred_mid_stream = server.deferred_drop_bytes();
    // New queries no longer see the table; the open cursor still does.
    assert!(ddl.sql("SELECT COUNT(*) FROM orders").is_err());
    let rest = cursor.fetch_all()?;
    println!(
        "\nsnapshot isolation: cursor drained {} rows of the dropped orders version \
         (epoch now {}); {} deferred bytes while open, {} after close",
        first.len() + rest.len(),
        server.report().catalog_epoch,
        deferred_mid_stream,
        server.deferred_drop_bytes(),
    );
    register_tpch(&server, &tpch_cfg, partitions); // restore orders for the report

    // Observability close-up: EXPLAIN ANALYZE runs the streamed top-k query
    // under scoped tracing and renders the span tree as per-operator times,
    // rows, partitions, cache hits and lineage rebuilds.
    let analyzed = session
        .sql("EXPLAIN ANALYZE SELECT l_orderkey FROM lineitem ORDER BY l_orderkey LIMIT 5")?;
    println!("\n--- explain analyze ---");
    for row in &analyzed.result.rows {
        println!("{}", row.get(0));
    }

    println!("\n--- server report ---");
    print!("{}", server.report().render());
    // Machine-readable copy on one line, for CI smoke-test assertions.
    println!("SERVER_REPORT_JSON: {}", server.report().to_json());
    Ok(())
}
