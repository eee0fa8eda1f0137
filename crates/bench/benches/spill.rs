//! Spill-tier benchmarks: the demote → promote round trip (serialize every
//! partition to disk, then fault the whole table back in through one scan)
//! against the two alternatives it sits between — the fully resident scan
//! (the ceiling) and drop-then-lineage-recompute (the floor the Shark
//! paper's memory-only design pays on every loss). The gap between
//! `promote_after_demote` and `recompute_after_drop` is the tier's reason
//! to exist: I/O-cost faulting vs. regenerating the partition.
use criterion::{criterion_group, criterion_main, Criterion};
use shark_datagen::tpch::{self, TpchConfig};
use shark_server::{ServerConfig, SharkServer};
use shark_sql::TableMeta;

const SCAN: &str =
    "SELECT l_shipmode, COUNT(*), SUM(l_extendedprice) FROM lineitem GROUP BY l_shipmode";
const PARTITIONS: usize = 8;

fn spill_server() -> (SharkServer, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("shark-bench-spill-{}", std::process::id()));
    let server = SharkServer::new(ServerConfig::default().with_spill_dir(&dir));
    let cfg = shark_bench::tpch(TpchConfig::tiny());
    server.register_table(
        TableMeta::new("lineitem", tpch::lineitem_schema(), PARTITIONS, move |p| {
            tpch::lineitem_partition(&cfg, PARTITIONS, p)
        })
        .with_cache(PARTITIONS),
    );
    server.load_table("lineitem").unwrap();
    (server, dir)
}

fn bench_spill(c: &mut Criterion) {
    let mut g = c.benchmark_group("spill");
    g.sample_size(shark_bench::samples(10));

    let (server, dir) = spill_server();
    let session = server.session();

    // Ceiling: the same aggregate over the fully resident table.
    g.bench_function("scan_resident", |b| b.iter(|| session.sql(SCAN).unwrap()));

    // The round trip: demote every partition (encode + write + rename),
    // then one scan that promotes them all back from disk.
    g.bench_function("demote_promote_round_trip", |b| {
        b.iter(|| {
            let events = server.demote_table("lineitem");
            assert!(!events.is_empty());
            session.sql(SCAN).unwrap()
        })
    });

    // Floor: drop the partitions outright (no spill frame) and pay the
    // lineage recompute the next scan triggers.
    let mem = server
        .catalog()
        .get("lineitem")
        .unwrap()
        .cached
        .clone()
        .unwrap();
    g.bench_function("recompute_after_drop", |b| {
        b.iter(|| {
            for p in 0..PARTITIONS {
                mem.evict_partition(p);
            }
            session.sql(SCAN).unwrap()
        })
    });

    g.finish();
    shark_bench::dump_metrics_snapshot(&server);
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_spill);
criterion_main!(benches);
