//! Closed-loop SQL benchmark of `shark-server`.
//!
//! ```text
//! perfbench --workload <olap_resident|dashboard_tcp|tiered_rw> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Two clients (threads or TCP connections) each send their next statement
//! only after the previous reply is complete. Rounds repeat until
//! `--seconds` of closed-loop time are measured; every round builds a fresh
//! server from the seeded TPC-H tables and runs a fixed number of
//! statements on it. An untraced run spreads its time over several child
//! processes (shards) of this binary. Every answer is checked against an
//! independent row-at-a-time evaluation. The last line of standard output is one JSON
//! object: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1` (see `README.md` for what each one means).

mod load;
mod mix;
mod oracle;
mod probe;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use shark_client::SharkClient;
use shark_server::{NetConfig, NetServer, ServerReport, SharkServer};

use load::{closed_loop, Answers, Conn, Sample};
use mix::Class;
use oracle::Tables;
use stats::{median, quantile, Metrics};
use trace::{Harvest, Harvester, SPANS};
use workload::{Spec, CLIENTS, TABLES};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in the child processes an untraced run is split into.
    shard: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut shard) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--shard" => shard = Some(number()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        shard,
    })
}

/// A server with its tables loaded, ready for the closed loop.
struct Live {
    server: SharkServer,
    net: Option<NetServer>,
    spill_dir: Option<PathBuf>,
    setup: Duration,
    load: Duration,
    stored_bytes: u64,
    rows: u64,
}

impl Live {
    /// Build the server, load the tables and open the clients: everything
    /// up to the first timed statement.
    fn start(spec: &Spec, work: &Path, tag: &str) -> Result<(Live, Vec<Conn>), String> {
        let spill_dir = spec.spill.then(|| work.join(tag));
        if let Some(dir) = &spill_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let began = Instant::now();
        let server = SharkServer::new(spec.config(spill_dir.as_deref()));
        spec.register(&server);
        let (mut load, mut stored_bytes, mut rows) = (Duration::ZERO, 0, 0);
        for table in TABLES {
            let t = Instant::now();
            let report = server.load_table(table).map_err(|e| e.to_string())?;
            load += t.elapsed();
            stored_bytes += report.stored_bytes;
            rows += report.rows;
        }
        let (net, conns) = if spec.tcp {
            let net = server
                .serve(NetConfig::default())
                .map_err(|e| e.to_string())?;
            let conns = (0..CLIENTS)
                .map(|_| SharkClient::connect(net.local_addr(), "", "").map(Conn::Remote))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            (Some(net), conns)
        } else {
            (
                None,
                (0..CLIENTS)
                    .map(|_| Conn::Local(server.session()))
                    .collect(),
            )
        };
        let live = Live {
            setup: began.elapsed(),
            server,
            net,
            spill_dir,
            load,
            stored_bytes,
            rows,
        };
        Ok((live, conns))
    }

    fn close(mut self) {
        if let Some(net) = self.net.as_mut() {
            net.shutdown();
        }
        drop(self.server);
        if let Some(dir) = &self.spill_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// What one round measured.
struct Round {
    samples: Vec<Sample>,
    /// Closed-loop wall time, harvest pauses excluded.
    wall: Duration,
    setup: Duration,
    load: Duration,
    bytes_per_row: f64,
    report: Duration,
    before: ServerReport,
    after: ServerReport,
    wal_records: u64,
    queue_wait_us: Vec<f64>,
    exec_us: Vec<f64>,
    harvest: Option<Harvest>,
    /// The process's peak resident set when the round ended.
    peak_rss_mb: f64,
}

fn wal_records() -> u64 {
    shark_obs::metrics()
        .snapshot()
        .counter("shark_wal_records_total")
}

/// One round: fresh server, closed loop, then the server-side counters.
/// Returns the live server too, for the probes that follow the last one.
fn round(
    spec: &Spec,
    answers: &Answers,
    seed: u64,
    index: u64,
    traced: bool,
    work: &Path,
) -> Result<(Round, Live), String> {
    let (live, conns) = Live::start(spec, work, &format!("round-{index}"))?;
    let before = live.server.report();
    let wal_before = wal_records();
    let harvester = traced.then(Harvester::start);
    let (samples, wall) = closed_loop(spec, conns, answers, seed, index, harvester.as_ref());
    let harvest = harvester.map(Harvester::finish);
    // The report re-aggregates every logged query, so it runs only after
    // timing ends.
    let t = Instant::now();
    let after = live.server.report();
    let report = t.elapsed();
    let log = live.server.query_log();
    let round = Round {
        wall: wall.saturating_sub(harvest.as_ref().map_or(Duration::ZERO, |h| h.paused)),
        samples,
        setup: live.setup,
        load: live.load,
        bytes_per_row: live.stored_bytes as f64 / live.rows.max(1) as f64,
        report,
        before,
        after,
        wal_records: wal_records() - wal_before,
        queue_wait_us: log
            .iter()
            .map(|q| q.queue_wait.as_secs_f64() * 1e6)
            .collect(),
        exec_us: log
            .iter()
            .map(|q| q.exec_time.as_secs_f64() * 1e6)
            .collect(),
        harvest,
        peak_rss_mb: peak_rss_mb(),
    };
    Ok((round, live))
}

fn latencies_us(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| &r.samples)
        .map(|s| s.latency_ns as f64 / 1e3)
        .collect()
}

fn statements(rounds: &[Round]) -> usize {
    rounds.iter().map(|r| r.samples.len()).sum()
}

fn qps(rounds: &[Round]) -> f64 {
    let wall: f64 = rounds.iter().map(|r| r.wall.as_secs_f64()).sum();
    statements(rounds) as f64 / wall
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Child processes an untraced run measures in turn, each for an equal
/// share of `--seconds`. Part of the run-to-run spread on a small shared
/// host is per process (thread placement, memory layout).
const SHARDS: u64 = 4;

/// The end-to-end figures of one round. A shard prints one `ROUND` line per
/// round and then one `SHARD` line with its peak RSS and statement counts.
fn round_line(r: &Round) -> String {
    let one = std::slice::from_ref(r);
    let latency = latencies_us(one);
    let first: Vec<f64> = r
        .samples
        .iter()
        .filter_map(|s| s.first_batch_ns)
        .map(|ns| ns as f64 / 1e3)
        .collect();
    format!(
        "ROUND {} {} {} {} {}",
        qps(one),
        median(&latency),
        quantile(&latency, 0.99),
        median(&first),
        r.setup.as_secs_f64()
    )
}

/// The end-to-end run: `SHARDS` child processes, one after another. Every
/// latency and throughput figure is the median over all their rounds of
/// the per-round figure, so a spell of contention from other tenants of
/// the host that spoils a few rounds does not move it.
fn end_to_end(args: &Args) -> Result<(Metrics, bool, u64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut rounds, mut shards) = (Vec::new(), Vec::new());
    for shard in 0..SHARDS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", "--shard", &shard.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        if !output.status.success() {
            return Err(format!("shard {shard} failed: {}", output.status));
        }
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            let mut fields = line.split(' ');
            let tag = fields.next();
            let values: Vec<f64> = fields
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("shard {shard} printed {line:?}: {e}"))?;
            match (tag, values.len()) {
                (Some("ROUND"), 5) => rounds.push(values),
                (Some("SHARD"), 3) => shards.push(values),
                _ => return Err(format!("shard {shard} printed {line:?}")),
            }
        }
    }
    if rounds.is_empty() || shards.len() != SHARDS as usize {
        return Err("a shard reported no result".into());
    }
    let over = |rows: &[Vec<f64>], i: usize| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    let attempted = shards.iter().map(|s| s[1]).sum::<f64>();
    let failed = shards.iter().map(|s| s[2]).sum::<f64>();
    let mut out = Metrics::default();
    out.put("throughput_qps", over(&rounds, 0), "1/s");
    out.put("latency_p50_us", over(&rounds, 1), "us");
    out.put("latency_p99_us", over(&rounds, 2), "us");
    out.put("first_batch_p50_us", over(&rounds, 3), "us");
    out.put("ok_ratio", (attempted - failed) / attempted, "ratio");
    out.put("setup_s", over(&rounds, 4), "s");
    // The server keeps state per statement it ran, so each shard reads its
    // peak after a fixed statement count (its first round), not after
    // however many rounds fit the time.
    out.put("peak_rss_mb", over(&shards, 0), "MB");
    Ok((out, failed == 0.0, attempted as u64, failed as u64))
}

/// A counter of the server report.
type Counter = fn(&ServerReport) -> u64;

/// Counter `f`, summed over rounds, per statement.
fn per_stmt(rounds: &[&Round], f: Counter) -> f64 {
    let stmts = rounds.iter().map(|r| r.samples.len()).sum::<usize>() as f64;
    rounds
        .iter()
        .map(|r| f(&r.after) - f(&r.before))
        .sum::<u64>() as f64
        / stmts
}

/// Per-layer metrics from the closed-loop rounds: counters are summed over
/// every round, timings come from the untraced rounds, spans from the
/// traced ones, and the spill, WAL and eviction counters from the rounds
/// that ran with a spill tier under the memory budget (`tier`).
fn per_layer(untraced: &[Round], traced: &[Round], tier: &[&Round], out: &mut Metrics) {
    let all: Vec<&Round> = untraced.iter().chain(traced).collect();
    let waits: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.queue_wait_us.clone())
        .collect();
    let execs: Vec<f64> = untraced.iter().flat_map(|r| r.exec_us.clone()).collect();
    out.put("admission.wait_p50_us", median(&waits), "us");
    out.put("admission.wait_p99_us", quantile(&waits, 0.99), "us");
    out.put("server.exec_p50_us", median(&execs), "us");
    let reports: Vec<f64> = all.iter().map(|r| r.report.as_secs_f64() * 1e3).collect();
    out.put("server.report_ms", median(&reports), "ms");

    let hits = per_stmt(&all, |r| r.plan_cache_hits);
    let lookups = hits + per_stmt(&all, |r| r.plan_cache_misses);
    out.put("plancache.hit_ratio", hits / lookups, "ratio");
    out.put(
        "plancache.stale_plans_per_1k_stmt",
        per_stmt(&all, |r| r.plan_cache_stale_plans) * 1e3,
        "count",
    );

    let loads: Vec<f64> = all.iter().map(|r| r.load.as_secs_f64() * 1e3).collect();
    out.put("memstore.load_ms", median(&loads), "ms");
    out.put("memstore.bytes_per_row", all[0].bytes_per_row, "B/row");
    let tier_counters: [(&str, Counter, &'static str); 6] = [
        (
            "memstore.evictions_per_stmt",
            |r| r.evicted_partitions,
            "count",
        ),
        (
            "memstore.rebuilds_per_stmt",
            |r| r.partition_rebuilds,
            "count",
        ),
        ("spill.demoted_per_stmt", |r| r.partitions_demoted, "count"),
        (
            "spill.promoted_per_stmt",
            |r| r.partitions_promoted,
            "count",
        ),
        ("spill.write_bytes_per_stmt", |r| r.spill_bytes_written, "B"),
        ("spill.read_bytes_per_stmt", |r| r.spill_bytes_read, "B"),
    ];
    for (name, counter, unit) in tier_counters {
        out.put(name, per_stmt(tier, counter), unit);
    }
    let tier_stmts = tier.iter().map(|r| r.samples.len()).sum::<usize>() as f64;
    let wal: u64 = tier.iter().map(|r| r.wal_records).sum();
    out.put("wal.records_per_stmt", wal as f64 / tier_stmts, "count");
    let snapshots = per_stmt(tier, |r| r.wal_snapshots_written) * 1e3;
    out.put("wal.snapshots_per_1k_stmt", snapshots, "count");
    // Share of client busy time spent in writes (CTAS and DROP).
    let busy = |write: bool| -> f64 {
        tier.iter()
            .flat_map(|r| &r.samples)
            .filter(|s| s.ok && matches!(s.class, Class::Ctas | Class::Drop) == write)
            .map(|s| s.latency_ns as f64)
            .sum()
    };
    out.put(
        "mix.write_busy_share",
        busy(true) / (busy(true) + busy(false)),
        "ratio",
    );

    let overhead = (qps(untraced) - qps(traced)) / qps(untraced) * 100.0;
    out.put("obs.trace_overhead_pct", overhead, "%");

    // Span self time per statement, and the client-observed time no listed
    // span covers.
    let traced_stmts = statements(traced) as f64;
    let mean_us = latencies_us(traced).iter().sum::<f64>() / traced_stmts;
    let mut accounted = 0.0;
    for name in SPANS {
        let total: f64 = traced
            .iter()
            .filter_map(|r| r.harvest.as_ref())
            .map(|h| h.self_us.get(name).copied().unwrap_or(0.0))
            .sum();
        accounted += total / traced_stmts;
        out.put(
            format!("span.{name}.self_us_per_stmt"),
            total / traced_stmts,
            "us",
        );
    }
    out.put("span.unaccounted_us_per_stmt", mean_us - accounted, "us");
    let lost: u64 = traced
        .iter()
        .filter_map(|r| r.harvest.as_ref())
        .map(|h| h.lost)
        .sum();
    out.put("span.traces_lost", lost as f64, "count");
}

/// Run rounds until `budget` of closed-loop time is measured. Returns the
/// rounds and the last round's server, still live.
fn measure(
    spec: &Spec,
    answers: &Answers,
    seed: u64,
    index: &mut u64,
    traced: bool,
    budget: Duration,
    work: &Path,
) -> Result<(Vec<Round>, Live), String> {
    let mut rounds = Vec::new();
    let mut measured = Duration::ZERO;
    loop {
        let (r, live) = round(spec, answers, seed, *index, traced, work)?;
        *index += 1;
        measured += r.wall;
        rounds.push(r);
        if measured >= budget {
            return Ok((rounds, live));
        }
        live.close();
    }
}

/// Run `body` on the workload's spec, answers and a private scratch
/// directory, which is removed afterwards.
fn in_process<T>(
    args: &Args,
    body: impl FnOnce(&Spec, &Answers, &Path) -> Result<T, String>,
) -> Result<T, String> {
    let spec = Spec::named(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let answers = Answers::new(&Tables::generate(&spec.tpch, spec.parts));
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench_work")
        .join(std::process::id().to_string());
    let result = body(&spec, &answers, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(work.parent().expect("work dir has a parent"));
    result
}

/// One end-to-end shard: rounds for `seconds / SHARDS`, printed as one
/// `SHARD` line for the parent.
fn shard_run(args: &Args, shard: u64) -> Result<(), String> {
    in_process(args, |spec, answers, work| {
        let budget = Duration::from_secs(args.seconds) / SHARDS as u32;
        let mut index = shard * 1000;
        let (rounds, live) = measure(spec, answers, args.seed, &mut index, false, budget, work)?;
        live.close();
        for r in &rounds {
            println!("{}", round_line(r));
        }
        let samples = rounds.iter().flat_map(|r| &r.samples);
        let failed = samples.clone().filter(|s| !s.ok).count();
        let peak = rounds[0].peak_rss_mb;
        println!("SHARD {peak} {} {failed}", samples.count());
        Ok(())
    })
}

/// The per-layer run: half of the time in untraced rounds, half in traced
/// rounds, then the probes on the last server. The spill and WAL layers
/// are measured on the workload's own rounds when it has a spill tier, and
/// otherwise on one extra round of `tiered_rw` on a server of its own.
fn traced_run(
    spec: &Spec,
    answers: &Answers,
    seed: u64,
    budget: Duration,
    work: &Path,
) -> Result<(Metrics, bool, u64, u64), String> {
    let mut out = Metrics::default();
    let mut tally = probe::Tally::default();
    let mut index = 0;
    let (untraced, live) = measure(spec, answers, seed, &mut index, false, budget / 2, work)?;
    live.close();
    let (traced, mut live) = measure(spec, answers, seed, &mut index, true, budget / 2, work)?;
    probe::run(&live.server, live.net.take(), answers, &mut out, &mut tally)?;
    let twin;
    let (tier_spec, tier_answers, tier_rounds, tier_live) = if spec.spill {
        (
            spec,
            answers,
            untraced.iter().chain(&traced).collect(),
            live,
        )
    } else {
        live.close();
        let tier = Spec::named("tiered_rw", seed).expect("tiered_rw is a workload");
        let tier_answers = Answers::new(&Tables::generate(&tier.tpch, tier.parts));
        let zero = Duration::ZERO;
        let (rounds, live) = measure(&tier, &tier_answers, seed, &mut index, false, zero, work)?;
        twin = (tier, tier_answers, rounds);
        (&twin.0, &twin.1, twin.2.iter().collect::<Vec<_>>(), live)
    };
    let Live {
        server, spill_dir, ..
    } = tier_live;
    let dir = spill_dir.expect("a tiered server has a spill dir");
    let probed = probe::tier(tier_spec, server, &dir, tier_answers, &mut out, &mut tally);
    let _ = std::fs::remove_dir_all(&dir);
    probed?;
    per_layer(&untraced, &traced, &tier_rounds, &mut out);
    let samples = untraced
        .iter()
        .chain(&traced)
        .chain(tier_rounds.iter().copied());
    let samples: Vec<&Sample> = samples.flat_map(|r| &r.samples).collect();
    let attempted = samples.len() as u64 + tally.attempted;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64 + tally.failed;
    Ok((out, failed == 0, attempted, failed))
}

fn main() {
    // A ring large enough that the traced run pauses its clients for a
    // harvest only every few dozen statements (read at the tracer's first
    // use, which is after this point).
    if std::env::var_os("SHARK_TRACE_RING").is_none() {
        std::env::set_var("SHARK_TRACE_RING", "65536");
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    let result = match args.shard {
        Some(shard) => shard_run(&args, shard).map(|()| None),
        None if args.trace => in_process(&args, |spec, answers, work| {
            let budget = Duration::from_secs(args.seconds);
            traced_run(spec, answers, args.seed, budget, work)
        })
        .map(Some),
        None => end_to_end(&args).map(Some),
    };
    match result {
        Ok(None) => {}
        Ok(Some((metrics, correct, attempted, failed))) => {
            println!("{}", metrics.result_line(correct, attempted, failed));
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(1);
        }
    }
}
