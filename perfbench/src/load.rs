//! Clients and the closed loop.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use shark_client::SharkClient;
use shark_common::{Result, Row};
use shark_server::{QueryMetrics, SessionHandle};

use crate::mix::{Class, Mode, Rng, READS};
use crate::oracle::{self, Expected, Tables};
use crate::trace::Harvester;
use crate::workload::{Spec, CLIENTS};

/// The expected answer of every statement class.
pub struct Answers(BTreeMap<Class, Expected>);

impl Answers {
    pub fn new(tables: &Tables) -> Answers {
        let classes = READS
            .into_iter()
            .chain([Class::Ctas, Class::CtasRead, Class::Drop]);
        Answers(classes.map(|c| (c, oracle::evaluate(tables, c))).collect())
    }

    pub fn check(&self, class: Class, rows: &[Row]) -> bool {
        oracle::matches(&self.0[&class], rows)
    }
}

/// One client connection: an in-process session or a TCP client.
pub enum Conn {
    Local(SessionHandle),
    Remote(SharkClient),
}

/// What one statement returned, as the client saw it.
pub struct Reply {
    pub rows: Vec<Row>,
    /// Submit to last row received.
    pub latency: Duration,
    /// Submit to the first batch, for streamed SELECTs.
    pub first_batch: Option<Duration>,
    pub sim_seconds: f64,
    /// Serving-layer metrics, returned by `SessionHandle::sql` only.
    pub metrics: Option<QueryMetrics>,
}

impl Conn {
    pub fn mode(&self, streamed: bool) -> Mode {
        match (self, streamed) {
            (Conn::Remote(_), _) => Mode::Tcp,
            (Conn::Local(_), false) => Mode::Blocking,
            (Conn::Local(_), true) => Mode::Streamed,
        }
    }

    /// Run one statement to its last row.
    pub fn issue(&mut self, text: &str, streamed: bool) -> Result<Reply> {
        let submitted = Instant::now();
        let mut first_batch = None;
        let mut rows = Vec::new();
        let (sim_seconds, metrics) = match (self, streamed) {
            (Conn::Local(session), false) => {
                let done = session.sql(text)?;
                rows = done.result.rows;
                (done.result.sim_seconds, Some(done.metrics))
            }
            (Conn::Local(session), true) => {
                let mut cursor = session.sql_stream(text)?;
                while let Some(batch) = cursor.next_batch()? {
                    first_batch.get_or_insert_with(|| submitted.elapsed());
                    rows.extend(batch);
                }
                (cursor.sim_seconds(), None)
            }
            (Conn::Remote(client), false) => {
                let done = client.query(text)?;
                rows = done.rows;
                (done.sim_seconds, None)
            }
            (Conn::Remote(client), true) => {
                let mut stream = client.query_stream(text)?;
                while let Some(batch) = stream.next_batch()? {
                    first_batch.get_or_insert_with(|| submitted.elapsed());
                    rows.extend(batch);
                }
                (stream.finish()?.sim_seconds, None)
            }
        };
        Ok(Reply {
            rows,
            latency: submitted.elapsed(),
            first_batch: first_batch.or(streamed.then(|| submitted.elapsed())),
            sim_seconds,
            metrics,
        })
    }

    /// Say goodbye (TCP) or end the session.
    pub fn close(self) {
        if let Conn::Remote(client) = self {
            // The server reaps a connection that vanished anyway.
            let _ = client.close();
        }
    }
}

/// One timed statement of the closed loop.
pub struct Sample {
    pub class: Class,
    pub latency_ns: u64,
    pub first_batch_ns: Option<u64>,
    pub ok: bool,
}

/// Run `stmts_per_round` statements, split over one thread per connection.
/// Each client sends its next statement only after the previous reply is
/// complete, playing the workload's deck in a seeded order. Returns the
/// samples and the loop's wall time.
pub fn closed_loop(
    spec: &Spec,
    conns: Vec<Conn>,
    answers: &Answers,
    seed: u64,
    round: u64,
    harvester: Option<&Harvester>,
) -> (Vec<Sample>, Duration) {
    let quota = spec.stmts_per_round / CLIENTS;
    let start = Barrier::new(conns.len() + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(client, mut conn)| {
                let start = &start;
                scope.spawn(move || {
                    let mut rng = Rng::new(seed, round * 64 + client as u64);
                    let mut deck = spec.deck();
                    let mut samples = Vec::with_capacity(quota + 2);
                    start.wait();
                    'run: loop {
                        rng.shuffle(&mut deck);
                        for step in &deck {
                            if samples.len() >= quota {
                                break 'run;
                            }
                            for &(class, streamed) in step {
                                let text = class.sql(client);
                                let reply = match harvester {
                                    Some(h) => h.statement(|| conn.issue(&text, streamed)),
                                    None => conn.issue(&text, streamed),
                                };
                                samples.push(sample(class, conn.mode(streamed), reply, answers));
                            }
                        }
                    }
                    conn.close();
                    samples
                })
            })
            .collect();
        start.wait();
        let began = Instant::now();
        let samples = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect();
        (samples, began.elapsed())
    })
}

/// Turn a reply into a sample, checking its answer.
pub fn sample(class: Class, mode: Mode, reply: Result<Reply>, answers: &Answers) -> Sample {
    match reply {
        Ok(reply) => {
            let ok = answers.check(class, &reply.rows);
            if !ok {
                eprintln!("{} ({}) returned a wrong answer", class.name(), mode.name());
            }
            Sample {
                class,
                latency_ns: reply.latency.as_nanos() as u64,
                first_batch_ns: reply.first_batch.map(|d| d.as_nanos() as u64),
                ok,
            }
        }
        Err(err) => {
            eprintln!("{} ({}) failed: {err}", class.name(), mode.name());
            Sample {
                class,
                // A failed statement misses every latency limit.
                latency_ns: u64::MAX,
                first_batch_ns: None,
                ok: false,
            }
        }
    }
}
