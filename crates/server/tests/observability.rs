//! End-to-end tests of query-lifecycle observability: every span a query
//! opens is closed and parented inside its own trace (blocking, streamed
//! and top-k streamed shapes), the admission wait shows up as its own span
//! and histogram, and `EXPLAIN ANALYZE` — run over a partially evicted
//! table — reports per-operator times, stream cardinality and lineage
//! rebuild counts that agree with both the delivered rows and the unified
//! metrics registry.

use std::collections::BTreeSet;

use shark_common::{row, DataType, Schema, Value};
use shark_server::{ServerConfig, SharkServer};
use shark_sql::TableMeta;

const PARTITIONS: usize = 8;
const ROWS_PER_PARTITION: usize = 50;

/// The global tracer's enabled flag is process-wide state; every test here
/// flips or reads it, so they run serialized.
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn register_tables(server: &SharkServer, names: &[&str]) {
    for name in names {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("grp", DataType::Str),
            ("amount", DataType::Float),
        ]);
        server.register_table(
            TableMeta::new(name, schema, PARTITIONS, move |p| {
                (0..ROWS_PER_PARTITION)
                    .map(|i| {
                        row![
                            (p * ROWS_PER_PARTITION + i) as i64,
                            ["alpha", "beta", "gamma"][i % 3],
                            (p * ROWS_PER_PARTITION + i) as f64 * 0.5
                        ]
                    })
                    .collect()
            })
            .with_cache(PARTITIONS)
            .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
        );
    }
}

/// Evict specific partitions directly through the memtable, simulating
/// earlier budget pressure.
fn evict_some(server: &SharkServer, table: &str, partitions: &[usize]) {
    let mem = server.catalog().get(table).unwrap().cached.clone().unwrap();
    for &p in partitions {
        assert!(mem.evict_partition(p) > 0, "partition {p} was not resident");
    }
}

/// The `plan` column of an EXPLAIN result as plain lines.
fn plan_lines(rows: &[shark_common::Row]) -> Vec<String> {
    rows.iter()
        .map(|r| match r.get(0) {
            Value::Str(s) => s.to_string(),
            other => panic!("EXPLAIN row is not a string: {other:?}"),
        })
        .collect()
}

/// Extract `key=value` (value = digits) from a rendered line.
fn field_u64(line: &str, key: &str) -> u64 {
    let pat = format!("{key}=");
    let start = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in: {line}"))
        + pat.len();
    line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in: {line}"))
}

#[test]
fn every_span_closes_and_parents_resolve_across_query_shapes() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tracer = shark_obs::tracer();
    let server = SharkServer::new(ServerConfig::default());
    register_tables(&server, &["t0"]);
    server.load_table("t0").unwrap();
    let session = server.session();

    let open_before = tracer.open_spans();
    tracer.clear();
    tracer.set_enabled(true);

    // One of each representative shape: blocking aggregate, streamed scan,
    // streamed top-k (ORDER BY + LIMIT through the pushdown path).
    let blocking = session
        .sql("SELECT grp, COUNT(*) FROM t0 GROUP BY grp ORDER BY grp")
        .unwrap();
    assert_eq!(blocking.result.rows.len(), 3);
    let streamed = session
        .sql_stream("SELECT k, amount FROM t0 WHERE k < 120")
        .unwrap()
        .fetch_all()
        .unwrap();
    assert_eq!(streamed.len(), 120);
    let topk = session
        .sql_stream("SELECT k FROM t0 ORDER BY k LIMIT 5")
        .unwrap()
        .fetch_all()
        .unwrap();
    assert_eq!(topk.len(), 5);

    tracer.set_enabled(false);

    // Every span that was opened has been closed and recorded.
    assert_eq!(
        tracer.open_spans(),
        open_before,
        "queries left spans open (unbalanced start/record)"
    );

    let records = tracer.all_records();
    let roots: Vec<_> = records
        .iter()
        .filter(|r| r.name == "query" || r.name == "query-stream")
        .collect();
    assert_eq!(roots.len(), 3, "expected one root span per query");
    assert!(roots.iter().all(|r| r.parent_id == 0));
    // The three queries produced three distinct traces.
    let trace_ids: BTreeSet<u64> = roots.iter().map(|r| r.trace_id).collect();
    assert_eq!(trace_ids.len(), 3);

    for &trace_id in &trace_ids {
        let trace = tracer.records_for(trace_id);
        let ids: BTreeSet<u64> = trace.iter().map(|r| r.span_id).collect();
        // Parent consistency: every parent id resolves inside the trace.
        for r in &trace {
            assert!(
                r.parent_id == 0 || ids.contains(&r.parent_id),
                "span {} ({}) has dangling parent {}",
                r.span_id,
                r.name,
                r.parent_id
            );
        }
        // Satellite: the admission-queue wait is its own span.
        assert!(
            trace.iter().any(|r| r.name == "admission-wait"),
            "trace {trace_id} lacks an admission-wait span"
        );
        // Lifecycle phases reached the ring.
        assert!(trace.iter().any(|r| r.name == "plan"));
        assert!(trace.iter().any(|r| r.name == "optimize"));
        assert!(trace.iter().any(|r| r.name == "stage-launch"));
    }

    // The streamed traces carry per-partition operator spans and deliveries.
    let has = |name: &str| records.iter().any(|r| r.name == name);
    assert!(has("memstore_scan(t0)"));
    assert!(has("stream-deliver"));
    assert!(has("top-k"));
}

#[test]
fn disabled_tracer_records_nothing_for_queries() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tracer = shark_obs::tracer();
    tracer.set_enabled(false);
    tracer.clear();

    let server = SharkServer::new(ServerConfig::default());
    register_tables(&server, &["t0"]);
    server.load_table("t0").unwrap();
    let session = server.session();
    session.sql("SELECT COUNT(*) FROM t0").unwrap();
    session
        .sql_stream("SELECT k FROM t0 LIMIT 5")
        .unwrap()
        .fetch_all()
        .unwrap();

    assert!(
        tracer.all_records().is_empty(),
        "tracing-disabled queries must not record spans"
    );
}

#[test]
fn explain_analyze_agrees_with_delivery_and_metrics_registry() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Works with the global tracer off: EXPLAIN ANALYZE subscribes its own
    // scoped interest.
    shark_obs::tracer().set_enabled(false);

    let server = SharkServer::new(ServerConfig::default());
    register_tables(&server, &["t0"]);
    server.load_table("t0").unwrap();
    let session = server.session();

    // Close-up 1: a full streamed scan over a partially evicted table
    // executes every partition, so it rebuilds *exactly* the evicted
    // stripe — and the report must agree with the registry's counter.
    let evicted = [1usize, 4, 6];
    evict_some(&server, "t0", &evicted);
    let before = shark_obs::metrics().snapshot();
    let full = session
        .sql("EXPLAIN ANALYZE SELECT k, amount FROM t0")
        .unwrap();
    let after = shark_obs::metrics().snapshot();
    let full_lines = plan_lines(&full.result.rows);
    let full_rendered = full_lines.join("\n");
    let full_scan_line = full_lines
        .iter()
        .find(|l| l.starts_with("op memstore_scan(t0):"))
        .unwrap_or_else(|| panic!("no scan op line in:\n{full_rendered}"));
    assert_eq!(field_u64(full_scan_line, "partitions"), PARTITIONS as u64);
    assert_eq!(
        field_u64(full_scan_line, "rebuilds"),
        evicted.len() as u64,
        "each evicted partition should rebuild exactly once:\n{full_rendered}"
    );
    assert_eq!(
        field_u64(full_scan_line, "cache_hits"),
        (PARTITIONS - evicted.len()) as u64,
        "resident partitions should be memstore cache hits:\n{full_rendered}"
    );
    assert_eq!(
        field_u64(full_scan_line, "rebuilds"),
        after.counter("shark_partition_rebuilds_total")
            - before.counter("shark_partition_rebuilds_total"),
        "full-scan rebuilds disagree with the metrics registry:\n{full_rendered}"
    );
    assert_eq!(
        field_u64(full_scan_line, "rows"),
        (PARTITIONS * ROWS_PER_PARTITION) as u64
    );

    // Close-up 2: the streamed ORDER BY + LIMIT shape. The rebuild above
    // restored residency, so evict the stripe again first.
    evict_some(&server, "t0", &evicted);
    let before = shark_obs::metrics().snapshot();
    let analyzed = session
        .sql("EXPLAIN ANALYZE SELECT k FROM t0 ORDER BY k LIMIT 5")
        .unwrap();
    let after = shark_obs::metrics().snapshot();
    let lines = plan_lines(&analyzed.result.rows);
    let rendered = lines.join("\n");

    // Header: parent ids resolved within the trace.
    assert!(
        lines[0].starts_with("EXPLAIN ANALYZE trace=")
            && lines[0].ends_with("parents_consistent=true"),
        "unexpected header: {}",
        lines[0]
    );

    // Per-operator lines show wall time, rows and partition counts.
    let scan_line = lines
        .iter()
        .find(|l| l.starts_with("op memstore_scan(t0):"))
        .unwrap_or_else(|| panic!("no scan op line in:\n{rendered}"));
    assert!(scan_line.contains("time="), "no time in: {scan_line}");
    assert!(field_u64(scan_line, "rows") > 0);
    assert!(field_u64(scan_line, "partitions") > 0);

    // The stream summary's cardinality equals what the query delivers.
    let stream_line = lines
        .iter()
        .find(|l| l.starts_with("stream: "))
        .unwrap_or_else(|| panic!("no stream line in:\n{rendered}"));
    assert_eq!(field_u64(stream_line, "rows"), 5);
    // Statistics-ordered top-k launch: the low-k partitions satisfy the
    // limit, so the tail of the launch order is skipped outright.
    assert!(
        field_u64(stream_line, "topk_skipped") > 0,
        "expected skipped partitions in:\n{rendered}"
    );

    // Rebuild counts agree between the rendered report and the unified
    // registry's counter delta for this statement. (Top-k skipping means
    // not every evicted partition executes, so the report and the counter
    // must move in lockstep rather than match the eviction count.)
    let reported_rebuilds: u64 = lines
        .iter()
        .filter(|l| l.starts_with("op "))
        .map(|l| field_u64(l, "rebuilds"))
        .sum();
    let counted_rebuilds = after.counter("shark_partition_rebuilds_total")
        - before.counter("shark_partition_rebuilds_total");
    assert_eq!(
        reported_rebuilds, counted_rebuilds,
        "EXPLAIN ANALYZE rebuilds disagree with the metrics registry:\n{rendered}"
    );

    // Delivered rows phase matches too: stream-deliver rows == 5.
    let deliver_line = lines
        .iter()
        .find(|l| l.starts_with("phase stream-deliver:"))
        .unwrap_or_else(|| panic!("no stream-deliver phase in:\n{rendered}"));
    assert_eq!(field_u64(deliver_line, "rows"), 5);

    // Every partition the scan executed was either served from the
    // memstore cache or rebuilt from lineage.
    let cache_hits = field_u64(scan_line, "cache_hits");
    let scan_rebuilds = field_u64(scan_line, "rebuilds");
    assert_eq!(
        cache_hits + scan_rebuilds,
        field_u64(scan_line, "partitions"),
        "scan partitions unaccounted for:\n{rendered}"
    );

    // EXPLAIN without ANALYZE stays a pure plan rendering (no execution).
    let plain = session
        .sql("EXPLAIN SELECT k FROM t0 ORDER BY k LIMIT 5")
        .unwrap();
    let plain_lines = plan_lines(&plain.result.rows);
    assert!(plain_lines[0].starts_with("plan: "));
    assert!(plain_lines.iter().any(|l| l.starts_with("scan t0:")));
}

#[test]
fn streamed_explain_analyze_row_counts_match_plain_run() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    shark_obs::tracer().set_enabled(false);

    let server = SharkServer::new(ServerConfig::default());
    register_tables(&server, &["t0"]);
    server.load_table("t0").unwrap();
    let session = server.session();

    let query = "SELECT k, amount FROM t0 WHERE k < 120";
    let expected = session.sql(query).unwrap().result.rows.len() as u64;
    let analyzed = session.sql(&format!("EXPLAIN ANALYZE {query}")).unwrap();
    let lines = plan_lines(&analyzed.result.rows);
    let stream_line = lines
        .iter()
        .find(|l| l.starts_with("stream: "))
        .expect("stream line");
    assert_eq!(field_u64(stream_line, "rows"), expected);
    // Admission-wait histogram saw this session's statements.
    let snap = server.metrics().snapshot();
    assert!(snap
        .histogram("shark_admission_wait_seconds")
        .is_some_and(|h| h.count >= 2));
}
