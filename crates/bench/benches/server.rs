//! Serving-layer benchmarks: multi-session throughput through the
//! `SharkServer` (admission + shared memstore) vs. the same queries on a
//! bare single-owner session, the cost of budget enforcement when every
//! query evicts, and the streaming cursor — time-to-first-batch on a full
//! scan, the early-termination win of a streamed LIMIT, total drain time
//! serial vs. prefetched (the pipelined worker pool overlapping partition
//! execution with consumption), and top-k pushdown vs. the batch sort.
use criterion::{criterion_group, criterion_main, Criterion};
use shark_datagen::tpch::{self, TpchConfig};
use shark_server::{ServerConfig, SharkServer};
use shark_sql::TableMeta;

const QUERY: &str = "SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_shipmode";

fn server(budget: u64) -> SharkServer {
    let server = SharkServer::new(ServerConfig::default().with_memory_budget(budget));
    let cfg = shark_bench::tpch(TpchConfig::tiny());
    let partitions = 8;
    let nodes = server.context().config().cluster.num_nodes;
    server.register_table(
        TableMeta::new("lineitem", tpch::lineitem_schema(), partitions, move |p| {
            tpch::lineitem_partition(&cfg, partitions, p)
        })
        .with_cache(nodes),
    );
    server.load_table("lineitem").unwrap();
    server
}

fn bench_server(c: &mut Criterion) {
    let mut g = c.benchmark_group("server");
    g.sample_size(shark_bench::samples(10));

    let single = server(u64::MAX);
    let session = single.session();
    g.bench_function("one_session_cached", |b| {
        b.iter(|| session.sql(QUERY).unwrap())
    });

    // Overhead guard: the identical cached query with the query tracer
    // (flight recorder) switched on. The gap to `one_session_cached` is
    // the cost of recording the full span tree; `one_session_cached`
    // itself is diffed against the main baseline by the bench-regression
    // gate, which keeps the tracing-*disabled* path at its pre-tracing
    // cost.
    shark_obs::tracer().set_enabled(true);
    g.bench_function("one_session_cached_traced", |b| {
        b.iter(|| session.sql(QUERY).unwrap())
    });
    shark_obs::tracer().set_enabled(false);

    let shared = server(u64::MAX);
    g.bench_function("eight_sessions_concurrent", |b| {
        b.iter(|| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    let s = shared.session();
                    std::thread::spawn(move || s.sql(QUERY).unwrap())
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
        })
    });

    // A budget of one byte forces an eviction + full lineage reload on
    // every query: the worst-case serving path.
    let thrashing = server(1);
    let thrash_session = thrashing.session();
    g.bench_function("one_session_evict_every_query", |b| {
        b.iter(|| thrash_session.sql(QUERY).unwrap())
    });

    // The streaming cursor: latency to the first delivered batch of a full
    // scan (the pipelined-delivery headline metric)...
    let streaming = server(u64::MAX);
    let stream_session = streaming.session();
    g.bench_function("stream_first_batch", |b| {
        b.iter(|| {
            let mut cursor = stream_session
                .sql_stream("SELECT l_orderkey, l_shipmode FROM lineitem")
                .unwrap();
            let first = cursor.next_batch().unwrap().unwrap();
            assert!(!first.is_empty());
            // Cursor dropped mid-stream: remaining partitions never launch.
        })
    });

    // ...and a streamed LIMIT, which executes only as many partitions as
    // the limit needs, vs. the batch path that runs them all.
    g.bench_function("stream_limit_early_stop", |b| {
        b.iter(|| {
            let rows = stream_session
                .sql_stream("SELECT l_orderkey FROM lineitem LIMIT 5")
                .unwrap()
                .fetch_all()
                .unwrap();
            assert_eq!(rows.len(), 5);
        })
    });
    g.bench_function("batch_limit_full_stage", |b| {
        b.iter(|| {
            let result = stream_session
                .sql("SELECT l_orderkey FROM lineitem LIMIT 5")
                .unwrap();
            assert_eq!(result.result.rows.len(), 5);
        })
    });

    // Stream-drain time, serial vs. prefetched, over an *uncached* table so
    // every partition does real generator + scan work. The consumer is a
    // paced client — delivering a batch costs it ~1 ms (formatting, network
    // flush) — which is where pipelining pays: the serial path alternates
    // executor work and client delivery, while with prefetch ≥ 2 the worker
    // pool computes the next partitions during the delivery pauses, so the
    // total drain time drops toward max(compute, delivery) instead of their
    // sum. (On a multi-core host the workers additionally execute
    // partitions in parallel with each other.)
    let pipelined = server(u64::MAX);
    // Default-size lineitem (60k rows): each partition is ~1 ms of
    // generator + scan work, comparable to the client's per-batch cost.
    let cfg = shark_bench::tpch(TpchConfig::default());
    let raw_partitions = 16;
    pipelined.register_table(TableMeta::new(
        "lineitem_raw",
        tpch::lineitem_schema(),
        raw_partitions,
        move |p| tpch::lineitem_partition(&cfg, raw_partitions, p),
    ));
    let drain_query = "SELECT l_orderkey, l_extendedprice FROM lineitem_raw WHERE l_quantity > 2";
    let paced_drain = |session: &shark_server::SessionHandle| {
        let mut cursor = session.sql_stream(drain_query).unwrap();
        let mut rows = 0usize;
        while let Some(batch) = cursor.next_batch().unwrap() {
            rows += batch.len();
            // The client-delivery pause the executors can hide behind.
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(rows > 0);
    };
    let mut serial_session = pipelined.session();
    serial_session.set_stream_prefetch(0);
    g.bench_function("stream_drain_serial", |b| {
        b.iter(|| paced_drain(&serial_session))
    });
    let mut prefetch_session = pipelined.session();
    prefetch_session.set_stream_prefetch(4);
    g.bench_function("stream_drain_prefetch4", |b| {
        b.iter(|| paced_drain(&prefetch_session))
    });

    // Top-k pushdown: ORDER BY + LIMIT streamed through per-partition top-k
    // and statistics-ordered partitions (l_orderkey increases with the
    // partition index) vs. the batch path, which runs every partition's
    // top-k and merges the survivors on the driver.
    g.bench_function("stream_topk_order_by_limit", |b| {
        b.iter(|| {
            let rows = stream_session
                .sql_stream("SELECT l_orderkey FROM lineitem ORDER BY l_orderkey LIMIT 10")
                .unwrap()
                .fetch_all()
                .unwrap();
            assert_eq!(rows.len(), 10);
        })
    });
    g.bench_function("batch_order_by_limit", |b| {
        b.iter(|| {
            let result = stream_session
                .sql("SELECT l_orderkey FROM lineitem ORDER BY l_orderkey LIMIT 10")
                .unwrap();
            assert_eq!(result.result.rows.len(), 10);
        })
    });

    g.finish();

    // Publish the traced server's registry (query counters, admission-wait/
    // exec histograms) followed by the process-wide families (scan cache
    // hits, stage rows) as a Prometheus text snapshot, when
    // SHARK_METRICS_SNAPSHOT names a file.
    shark_bench::dump_metrics_snapshot(&single);
}

criterion_group!(benches, bench_server);
criterion_main!(benches);
