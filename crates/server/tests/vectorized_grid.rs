//! Byte-equality grid for the vectorized batch execution path: every query
//! shape (filter, projection, group-by, top-k) over every table state
//! (fully cached, partially evicted, RLE/dictionary-heavy, NULL-bearing)
//! must return byte-identical rows whether it runs through the vectorized
//! kernels or the row-at-a-time fallback, and whether it is fetched
//! blocking or streamed. Top-k queries must also be charged identical
//! simulated time on both paths.

use shark_common::{row, DataType, Row, Schema, Value};
use shark_server::{ServerConfig, SessionHandle, SharkServer};
use shark_sql::{ExecConfig, TableMeta};

const PARTITIONS: usize = 6;
const ROWS_PER_PARTITION: usize = 80;
const SEED: u64 = 0x5eed_1234_abcd_0042;

/// Deterministic splitmix64 stream — the "seeded" part of the grid: both
/// engines see exactly the same generated table bytes.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("grp", DataType::Str),
        ("amount", DataType::Float),
    ])
}

/// Mixed-distribution table: sequential ints, a small string dictionary
/// with short pseudorandom runs, and a noisy float column.
fn register_mixed(server: &SharkServer, name: &str) {
    server.register_table(
        TableMeta::new(name, schema(), PARTITIONS, |p| {
            let mut rng = SEED ^ (p as u64).wrapping_mul(0xd134_2543_de82_ef95);
            (0..ROWS_PER_PARTITION)
                .map(|i| {
                    let r = splitmix(&mut rng);
                    row![
                        (p * ROWS_PER_PARTITION + i) as i64,
                        ["alpha", "beta", "gamma", "delta"][(r % 4) as usize],
                        (r % 10_000) as f64 / 100.0
                    ]
                })
                .collect()
        })
        .with_cache(PARTITIONS)
        .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
    );
}

/// Run-heavy table: `grp` holds long constant runs (RLE-friendly) over a
/// tiny dictionary, and `k` repeats in plateaus, so run-skipping predicates
/// and dictionary-coded group-by keys actually engage.
fn register_rle(server: &SharkServer, name: &str) {
    server.register_table(
        TableMeta::new(name, schema(), PARTITIONS, |p| {
            (0..ROWS_PER_PARTITION)
                .map(|i| {
                    let global = p * ROWS_PER_PARTITION + i;
                    row![
                        (global / 20) as i64,
                        ["hot", "cold"][(global / 40) % 2],
                        (global / 10) as f64 * 0.25
                    ]
                })
                .collect()
        })
        .with_cache(PARTITIONS)
        .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
    );
}

/// Like the mixed table, but every fifth `amount` is NULL, so top-k sort
/// keys mix NULLs with values inside and across partitions.
fn register_nullable(server: &SharkServer, name: &str) {
    server.register_table(
        TableMeta::new(name, schema(), PARTITIONS, |p| {
            let mut rng = SEED ^ (p as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
            (0..ROWS_PER_PARTITION)
                .map(|i| {
                    let r = splitmix(&mut rng);
                    let amount = if r.is_multiple_of(5) {
                        Value::Null
                    } else {
                        Value::Float((r % 1_000) as f64 / 10.0)
                    };
                    Row::new(vec![
                        Value::Int((p * ROWS_PER_PARTITION + i) as i64),
                        Value::from(["alpha", "beta", "gamma"][(r % 3) as usize]),
                        amount,
                    ])
                })
                .collect()
        })
        .with_cache(PARTITIONS)
        .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
    );
}

const TABLES: [&str; 4] = ["mixed_full", "mixed_cold", "rle_runs", "nullable"];

/// A server with every grid table registered and loaded.
fn grid_server() -> SharkServer {
    let server = SharkServer::new(ServerConfig::default());
    register_mixed(&server, "mixed_full");
    register_mixed(&server, "mixed_cold");
    register_rle(&server, "rle_runs");
    register_nullable(&server, "nullable");
    for t in TABLES {
        server.load_table(t).unwrap();
    }
    server
}

/// Put `table` into its grid state before a run: the cold table loses a
/// stripe of partitions, so every run faults the same ones back in.
fn prepare(server: &SharkServer, table: &str) {
    if table == "mixed_cold" {
        evict_some(server, table, &[1, 3]);
    }
}

fn evict_some(server: &SharkServer, table: &str, partitions: &[usize]) {
    let mem = server.catalog().get(table).unwrap().cached.clone().unwrap();
    for &p in partitions {
        mem.evict_partition(p);
    }
}

/// Queries over table `$t` covering the vectorized operator surface:
/// numeric + string filters (conjunctions hit the run-skipping path on RLE
/// data), projections with reordering and expressions, dictionary-keyed
/// group-by with every aggregate kind, and top-k in both directions.
fn grid_queries(table: &str) -> Vec<String> {
    [
        // Filters.
        format!("SELECT k, grp, amount FROM {table} WHERE amount > 50.0"),
        format!("SELECT k, amount FROM {table} WHERE grp = 'beta' AND k < 300"),
        format!("SELECT k FROM {table} WHERE grp = 'hot'"),
        format!("SELECT k FROM {table} WHERE k >= 100 AND k < 140 AND amount > 1.0"),
        // Projections (reorder + all columns).
        format!("SELECT amount, k FROM {table}"),
        format!("SELECT grp, amount, k FROM {table} WHERE k < 250"),
        // Group-by / aggregates.
        format!("SELECT grp, COUNT(*), SUM(amount), MIN(k), MAX(amount) FROM {table} GROUP BY grp"),
        format!("SELECT grp, AVG(amount) FROM {table} WHERE k > 50 GROUP BY grp ORDER BY grp"),
        format!("SELECT COUNT(*), SUM(k) FROM {table}"),
        // Top-k.
        format!("SELECT k, amount FROM {table} ORDER BY amount DESC LIMIT 9"),
        format!("SELECT k FROM {table} ORDER BY k LIMIT 5"),
        // Top-k: key ties spanning partitions, mixed multi-key order, a
        // filter, a reordered subset projection, LIMITs past one partition
        // (80 rows) and past the whole table, LIMIT 0, an expression key
        // (the late-materializing scan must not take it) and NULL keys
        // (the `nullable` table's `amount`).
        format!("SELECT k, grp, amount FROM {table} ORDER BY grp LIMIT 13"),
        format!("SELECT k, grp, amount FROM {table} ORDER BY grp DESC, amount LIMIT 11"),
        format!("SELECT k, amount FROM {table} WHERE amount > 20.0 AND grp <> 'beta' ORDER BY amount LIMIT 7"),
        format!("SELECT amount, k FROM {table} ORDER BY k DESC LIMIT 6"),
        format!("SELECT grp, k FROM {table} ORDER BY grp, k DESC LIMIT 95"),
        format!("SELECT grp, amount FROM {table} ORDER BY amount DESC LIMIT 1000"),
        format!("SELECT k FROM {table} ORDER BY k LIMIT 0"),
        format!("SELECT k, amount * 2 FROM {table} ORDER BY amount * 2 LIMIT 7"),
        format!("SELECT amount, grp, k FROM {table} ORDER BY amount, k DESC LIMIT 15"),
    ]
    .into_iter()
    .collect()
}

fn fetch_blocking(session: &SessionHandle, query: &str) -> Vec<Row> {
    session.sql(query).unwrap().result.rows
}

fn fetch_streamed(session: &SessionHandle, query: &str) -> Vec<Row> {
    session.sql_stream(query).unwrap().fetch_all().unwrap()
}

/// Compare two result sets byte-for-byte. Bare GROUP BY (no ORDER BY) does
/// not promise an output order, so those queries compare as sorted
/// multisets; everything else compares positionally.
fn assert_same(mut left: Vec<Row>, mut right: Vec<Row>, query: &str, context: &str) {
    let unordered = query.contains("GROUP BY") && !query.contains("ORDER BY");
    if unordered {
        left.sort();
        right.sort();
    }
    assert_eq!(left, right, "{context}: {query}");
}

/// A session on the row-at-a-time reference path.
fn row_session(server: &SharkServer) -> SessionHandle {
    let mut row_path = server.session();
    let mut row_exec = ExecConfig::shark();
    row_exec.vectorized = false;
    row_path.set_exec_config(row_exec);
    row_path
}

#[test]
fn vectorized_and_row_paths_are_byte_identical_across_the_grid() {
    let server = grid_server();
    let vectorized = server.session();
    let row_path = row_session(&server);

    for table in TABLES {
        for query in grid_queries(table) {
            // Partially-evicted state: knock a stripe out before every run
            // so each engine faults the same partitions back in from
            // lineage mid-query.
            prepare(&server, table);
            let reference = fetch_blocking(&row_path, &query);
            if let Some((unlimited, k)) = query.split_once(" LIMIT ") {
                // Top-k pushdown must return the prefix of a full sort.
                prepare(&server, table);
                let mut sorted = fetch_blocking(&row_path, unlimited);
                sorted.truncate(k.parse().unwrap());
                assert_same(reference.clone(), sorted, &query, "row top-k vs full sort");
            }

            prepare(&server, table);
            let vec_blocking = fetch_blocking(&vectorized, &query);
            assert_same(
                vec_blocking,
                reference.clone(),
                &query,
                "vectorized blocking vs row",
            );

            prepare(&server, table);
            let vec_streamed = fetch_streamed(&vectorized, &query);
            assert_same(
                vec_streamed,
                reference.clone(),
                &query,
                "vectorized streamed vs row",
            );

            prepare(&server, table);
            let row_streamed = fetch_streamed(&row_path, &query);
            assert_same(row_streamed, reference, &query, "row streamed vs row");
        }
    }
}

#[test]
fn vectorized_path_actually_ran_fused_scans() {
    // Guard against the grid silently comparing row vs row: the vectorized
    // session's aggregation queries must go through the fused memstore
    // scan, observable in the plan notes.
    let server = SharkServer::new(ServerConfig::default());
    register_rle(&server, "rle_runs");
    server.load_table("rle_runs").unwrap();
    let session = server.session();
    let result = session
        .sql("SELECT grp, COUNT(*), SUM(amount) FROM rle_runs GROUP BY grp")
        .unwrap();
    assert!(
        result.result.notes.iter().any(|n| n.contains("vectorized")),
        "expected a vectorized plan note, got {:?}",
        result.result.notes
    );
}

fn is_top_k(query: &str) -> bool {
    query.contains("ORDER BY") && query.contains("LIMIT")
}

fn same_sim(left: f64, right: f64) -> bool {
    (left - right).abs() <= 1e-9 * left.abs().max(right.abs())
}

#[test]
fn top_k_charges_the_same_simulated_time_on_every_path() {
    // Pushing top-k into tasks and building only k rows per partition must
    // be invisible to the simulated cluster: every top-k query is charged
    // what the row path charges, blocking and streamed (serial delivery,
    // so the streamed sum does not depend on worker timing).
    let server = grid_server();
    let mut vectorized = server.session();
    let mut row_path = row_session(&server);
    vectorized.set_stream_prefetch(0);
    row_path.set_stream_prefetch(0);

    for table in TABLES {
        for query in grid_queries(table).into_iter().filter(|q| is_top_k(q)) {
            let mut blocking = Vec::new();
            let mut streamed = Vec::new();
            for session in [&vectorized, &row_path] {
                prepare(&server, table);
                blocking.push(session.sql(&query).unwrap().result.sim_seconds);
                prepare(&server, table);
                let mut cursor = session.sql_stream(&query).unwrap();
                cursor.fetch_all().unwrap();
                streamed.push(cursor.sim_seconds());
            }
            assert!(
                same_sim(blocking[0], blocking[1]),
                "blocking sim seconds differ (vectorized {} vs row {}): {query}",
                blocking[0],
                blocking[1]
            );
            assert!(
                same_sim(streamed[0], streamed[1]),
                "streamed sim seconds differ (vectorized {} vs row {}): {query}",
                streamed[0],
                streamed[1]
            );

            // The driver-side sort was never charged, so a blocking top-k
            // costs exactly what shipping the whole unsorted result does.
            let unsorted = query.split(" ORDER BY").next().unwrap();
            for session in [&vectorized, &row_path] {
                prepare(&server, table);
                let top_k = session.sql(&query).unwrap().result.sim_seconds;
                prepare(&server, table);
                let whole = session.sql(unsorted).unwrap().result.sim_seconds;
                assert_eq!(top_k, whole, "{query} vs {unsorted}");
            }
        }
    }
}

#[test]
fn vectorized_path_actually_ran_late_materialized_top_k() {
    // Guard against the top-k rows of the grid silently taking the generic
    // path: a column-only top-k must build its rows late in the scan, on
    // both delivery paths, while expression keys and the row path must not.
    let server = grid_server();
    let vectorized = server.session();
    let row_path = row_session(&server);
    let late = |notes: &[String]| notes.iter().any(|n| n.contains("late-materialized top-k"));

    let query = "SELECT amount, grp, k FROM nullable ORDER BY amount, k DESC LIMIT 15";
    let blocking = vectorized.sql(query).unwrap().result.notes;
    assert!(late(&blocking), "blocking notes: {blocking:?}");
    let cursor = vectorized.sql_stream(query).unwrap();
    assert!(late(cursor.notes()), "streamed notes: {:?}", cursor.notes());
    drop(cursor);

    let row_notes = row_path.sql(query).unwrap().result.notes;
    assert!(!late(&row_notes), "row path notes: {row_notes:?}");
    let expression = "SELECT k, amount * 2 FROM mixed_full ORDER BY amount * 2 LIMIT 7";
    let expr_notes = vectorized.sql(expression).unwrap().result.notes;
    assert!(!late(&expr_notes), "expression-key notes: {expr_notes:?}");
}
