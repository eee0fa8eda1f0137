//! Shuffle map output lives exactly as long as the RDDs that can read it:
//! every query shape that shuffles (blocking and streamed aggregates,
//! static and PDE aggregates, PDE broadcast and shuffle joins) must leave
//! the shuffle manager with the shuffles it had before the query, while a
//! still-open cursor keeps its own shuffle readable.

use shark_common::{row, DataType, Row, Schema};
use shark_rdd::{RddConfig, RddContext};
use shark_sql::{ExecConfig, SqlSession, TableMeta};

fn session(exec: ExecConfig) -> SqlSession {
    let session = SqlSession::new(RddContext::new(RddConfig::default()), exec);
    let fact = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("store", DataType::Int),
        ("amount", DataType::Float),
    ]);
    session.register_table(
        TableMeta::new("fact", fact, 6, |p| {
            (0..200)
                .map(|i| row![(p * 200 + i) as i64, (i % 25) as i64, i as f64 * 0.5])
                .collect()
        })
        .with_cache(6)
        .with_row_count_hint(1200),
    );
    let dim = Schema::from_pairs(&[("store_id", DataType::Int), ("city", DataType::Str)]);
    session.register_table(
        TableMeta::new("dim", dim, 2, |p| {
            let cities = ["oslo", "lima", "pune"];
            (0..13)
                .map(|i| row![(p * 13 + i) as i64, cities[i % 3]])
                .collect()
        })
        .with_cache(2)
        .with_row_count_hint(26),
    );
    session.load_table("fact").unwrap();
    session.load_table("dim").unwrap();
    session
}

fn registered(session: &SqlSession) -> usize {
    session.context().shuffle_manager().num_registered()
}

const AGGREGATE: &str = "SELECT store, COUNT(*), SUM(amount) FROM fact GROUP BY store";
const JOIN: &str = "SELECT f.id, d.city FROM fact f JOIN dim d ON f.store = d.store_id";

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

#[test]
fn blocking_and_streamed_aggregates_free_their_shuffles() {
    for exec in [ExecConfig::shark(), ExecConfig::shark_static()] {
        let s = session(exec);
        let before = registered(&s);
        let expected = sorted(s.sql(AGGREGATE).unwrap().rows);
        assert_eq!(expected.len(), 25);
        assert_eq!(registered(&s), before, "blocking aggregate");

        let drained = s.sql_stream(AGGREGATE).unwrap().into_result().unwrap();
        assert_eq!(sorted(drained.rows), expected);
        assert_eq!(registered(&s), before, "drained cursor");

        let mut dropped = s.sql_stream(AGGREGATE).unwrap().with_prefetch(0);
        assert!(dropped.next_batch().unwrap().is_some());
        drop(dropped);
        assert_eq!(registered(&s), before, "dropped cursor");

        for _ in 0..20 {
            s.sql(AGGREGATE).unwrap();
        }
        assert_eq!(registered(&s), before, "repeated aggregates");
    }
}

#[test]
fn an_open_cursor_keeps_reading_its_shuffle() {
    let s = session(ExecConfig::shark());
    let before = registered(&s);
    let expected = sorted(s.sql(AGGREGATE).unwrap().rows);
    let mut cursor = s.sql_stream(AGGREGATE).unwrap().with_prefetch(0);
    assert!(registered(&s) > before, "the open cursor's shuffle is live");
    // Other queries come and go while the cursor is open.
    s.sql(AGGREGATE).unwrap();
    s.sql(JOIN).unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = cursor.next_batch().unwrap() {
        rows.extend(batch);
    }
    assert_eq!(sorted(rows), expected);
    drop(cursor);
    assert_eq!(registered(&s), before);
}

#[test]
fn pde_broadcast_and_shuffle_joins_free_their_shuffles() {
    let mut shuffle_join = ExecConfig::shark();
    shuffle_join.broadcast_threshold = 0;
    let mut adaptive = ExecConfig::shark();
    adaptive.pde_prioritize_small_side = false;
    for (exec, strategy) in [
        (ExecConfig::shark(), "map join"),
        (adaptive, "map join"),
        (shuffle_join, "shuffle join"),
        (ExecConfig::shark_static(), "static shuffle join"),
    ] {
        let s = session(exec);
        let before = registered(&s);
        let result = s.sql(JOIN).unwrap();
        assert_eq!(result.rows.len(), 1200);
        assert!(
            result.notes.iter().any(|n| n.contains(strategy)),
            "expected {strategy}: {:?}",
            result.notes
        );
        assert_eq!(registered(&s), before, "blocking {strategy}");

        let streamed = s.sql_stream(JOIN).unwrap().into_result().unwrap();
        assert_eq!(sorted(streamed.rows), sorted(result.rows));
        assert_eq!(registered(&s), before, "streamed {strategy}");
    }
}
