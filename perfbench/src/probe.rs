//! Per-layer probes, run once after the traced closed loop on the server it
//! used: serial statements of every class in every mode, plus timed calls
//! into single layers (connect, planner, frame codec); then demotion and
//! restart on a server with a spill tier.
//! Being serial, the probe's statements also give the simulated cluster
//! cost per statement, which concurrency would otherwise perturb.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use shark_client::SharkClient;
use shark_common::Row;
use shark_server::frame::Frame;
use shark_server::{NetConfig, NetServer, SharkServer};
use shark_sql::UdfRegistry;

use crate::load::{sample, Answers, Conn};
use crate::mix::{Class, Mode, READS};
use crate::stats::{median, quantile, Metrics};
use crate::workload::{Spec, TABLES};

/// Repetitions of each (class, mode) pair.
const OP_REPS: usize = 24;
/// Connections opened to time the handshake.
const CONNECTS: usize = 24;
/// Owner tag of the probe's CTAS table (the loop's clients use 0 and 1).
const OWNER: usize = 9;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Statements the probes ran and how many failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn count(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }
}

/// Run every probe and put its metrics. `net` is the server's TCP
/// frontend when the workload already serves over TCP.
pub fn run(
    server: &SharkServer,
    net: Option<NetServer>,
    answers: &Answers,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut net = match net {
        Some(net) => net,
        None => server
            .serve(NetConfig::default())
            .map_err(|e| e.to_string())?,
    };
    let addr = net.local_addr();

    let connects: Vec<f64> = (0..CONNECTS)
        .map(|_| {
            let t = Instant::now();
            let client = SharkClient::connect(addr, "", "").map_err(|e| e.to_string())?;
            let elapsed = us(t.elapsed());
            let _ = client.close();
            Ok(elapsed)
        })
        .collect::<Result<_, String>>()?;
    out.put("client.connect_us", median(&connects), "us");

    // Every read class in every mode, interleaved so drift hits all alike.
    // With a spill tier the closed loop left residency to chance; demoting
    // every table first makes the serial probe, and its simulated cost,
    // start from the same state on every run.
    if server.spill().is_some() {
        for table in TABLES {
            server.demote_table(table);
        }
    }
    let mut local = Conn::Local(server.session());
    let mut remote = Conn::Remote(SharkClient::connect(addr, "", "").map_err(|e| e.to_string())?);
    let before = server.report();
    let mut ops: BTreeMap<(Class, Mode), Vec<f64>> = BTreeMap::new();
    let mut bookkeeping = Vec::new();
    let mut tcp_rows = 0u64;
    let mut tcp_stmts = 0u64;
    let mut scan_rows: Vec<Row> = Vec::new();
    let mut sim_seconds = 0.0;
    let mut timed = |conn: &mut Conn, class: Class, streamed: bool, tally: &mut Tally| {
        let mode = conn.mode(streamed);
        let reply = conn.issue(&class.sql(OWNER), streamed);
        if let Ok(reply) = &reply {
            if let Some(m) = &reply.metrics {
                bookkeeping.push(us(reply.latency.saturating_sub(m.queue_wait + m.exec_time)));
            }
            if mode == Mode::Tcp {
                tcp_rows += reply.rows.len() as u64;
                tcp_stmts += 1;
            }
            sim_seconds += reply.sim_seconds;
            if class == Class::ScanFilter && scan_rows.is_empty() {
                scan_rows = reply.rows.clone();
            }
        }
        let s = sample(class, mode, reply, answers);
        if tally.count(s.ok) {
            ops.entry((class, mode))
                .or_default()
                .push(s.latency_ns as f64 / 1e3);
        }
    };
    for rep in 0..OP_REPS {
        for class in READS {
            timed(&mut local, class, false, tally);
            timed(&mut local, class, true, tally);
            timed(&mut remote, class, rep % 2 == 1, tally);
        }
        for conn in [&mut local, &mut remote] {
            timed(conn, Class::Ctas, false, tally);
            timed(conn, Class::CtasRead, false, tally);
            timed(conn, Class::Drop, false, tally);
        }
    }
    let after = server.report();
    let statements = (OP_REPS * (READS.len() * 3 + 6)) as f64;
    out.put("cluster.sim_s_per_stmt", sim_seconds / statements, "s");
    local.close();
    remote.close();
    for class in READS {
        for mode in [Mode::Blocking, Mode::Streamed, Mode::Tcp] {
            put_op(out, class, mode, &ops);
        }
    }
    for class in [Class::Ctas, Class::Drop] {
        for mode in [Mode::Blocking, Mode::Tcp] {
            put_op(out, class, mode, &ops);
        }
    }
    let overhead: Vec<f64> = READS
        .iter()
        .map(|&c| p50(&ops, c, Mode::Tcp) - p50(&ops, c, Mode::Streamed))
        .collect();
    out.put(
        "net.overhead_p50_us",
        overhead.iter().sum::<f64>() / overhead.len() as f64,
        "us",
    );
    let sent = after.wire_bytes_sent - before.wire_bytes_sent;
    let frames = after.net_frames_sent - before.net_frames_sent;
    out.put(
        "net.bytes_per_row",
        sent as f64 / tcp_rows.max(1) as f64,
        "B/row",
    );
    out.put(
        "net.frames_per_stmt",
        frames as f64 / tcp_stmts.max(1) as f64,
        "count",
    );
    out.put("server.bookkeeping_p50_us", median(&bookkeeping), "us");

    codec(&scan_rows, out);
    plan(server, out)?;

    net.shutdown();
    Ok(())
}

fn p50(ops: &BTreeMap<(Class, Mode), Vec<f64>>, class: Class, mode: Mode) -> f64 {
    ops.get(&(class, mode)).map_or(0.0, |v| median(v))
}

fn put_op(out: &mut Metrics, class: Class, mode: Mode, ops: &BTreeMap<(Class, Mode), Vec<f64>>) {
    let samples = ops.get(&(class, mode)).map_or(&[][..], |v| &v[..]);
    let name = format!("op.{}.{}", class.name(), mode.name());
    out.put(format!("{name}.p50_us"), median(samples), "us");
    out.put(format!("{name}.p99_us"), quantile(samples, 0.99), "us");
}

/// Frame codec cost on the workload's own result rows, cut into batches
/// of the frontend's default size.
fn codec(rows: &[Row], out: &mut Metrics) {
    let frames: Vec<Frame> = rows
        .chunks(1024)
        .map(|chunk| Frame::ResultBatch {
            rows: chunk.to_vec(),
        })
        .collect();
    let per_pass = rows.len().max(1);
    let passes = (200_000 / per_pass).max(1);
    let mut payloads = Vec::new();
    let t = Instant::now();
    for _ in 0..passes {
        payloads = frames
            .iter()
            .map(|f| std::hint::black_box(f.encode_payload()))
            .collect();
    }
    let encode = t.elapsed();
    let t = Instant::now();
    for _ in 0..passes {
        for (frame, payload) in frames.iter().zip(&payloads) {
            let decoded = Frame::decode_payload(frame.frame_type(), payload);
            std::hint::black_box(decoded.expect("own payload decodes"));
        }
    }
    let decode = t.elapsed();
    let total = (passes * rows.len()).max(1) as f64;
    out.put(
        "net.encode_ns_per_row",
        encode.as_nanos() as f64 / total,
        "ns",
    );
    out.put(
        "net.decode_ns_per_row",
        decode.as_nanos() as f64 / total,
        "ns",
    );
}

/// `plan_select` on a pinned catalog snapshot, per read class.
fn plan(server: &SharkServer, out: &mut Metrics) -> Result<(), String> {
    let snapshot = server.catalog().snapshot();
    let udfs = UdfRegistry::new();
    let mut samples = Vec::new();
    for class in READS {
        let stmt = shark_sql::parser::parse_select(&class.sql(OWNER)).map_err(|e| e.to_string())?;
        for _ in 0..200 {
            let t = Instant::now();
            let plan = shark_sql::plan_select(&stmt, &snapshot, &udfs);
            samples.push(us(t.elapsed()));
            std::hint::black_box(plan.map_err(|e| e.to_string())?);
        }
    }
    out.put("plan.plan_us", median(&samples), "us");
    Ok(())
}

/// The spill and WAL layers, on a server with both: one timed demotion of
/// `lineitem` and the scan that faults it back in, then a timed shutdown
/// and restore (the restart cost), checked by two queries on the restored
/// server.
pub fn tier(
    spec: &Spec,
    server: SharkServer,
    dir: &Path,
    answers: &Answers,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let t = Instant::now();
    server.demote_table("lineitem");
    out.put("spill.demote_ms", ms(t.elapsed()), "ms");
    let mut session = Conn::Local(server.session());
    let reply = session.issue(&Class::CountFilter.sql(OWNER), false);
    let scan = sample(Class::CountFilter, Mode::Blocking, reply, answers);
    tally.count(scan.ok);
    out.put("spill.promote_scan_ms", scan.latency_ns as f64 / 1e6, "ms");
    session.close();

    let t = Instant::now();
    server.shutdown().map_err(|e| e.to_string())?;
    out.put("wal.shutdown_ms", ms(t.elapsed()), "ms");
    drop(server);
    let t = Instant::now();
    let restored = SharkServer::restore_with(spec.config(Some(dir)), |r| spec.generator(&r.name))
        .map_err(|e| e.to_string())?;
    out.put("wal.restore_ms", ms(t.elapsed()), "ms");
    let mut session = Conn::Local(restored.session());
    for class in [Class::CountFilter, Class::GroupBy] {
        let reply = session.issue(&class.sql(OWNER), false);
        tally.count(sample(class, Mode::Blocking, reply, answers).ok);
    }
    session.close();
    Ok(())
}
