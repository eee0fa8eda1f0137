//! The traced run's span harvest.
//!
//! The program's `shark_obs` tracer keeps completed spans in a fixed ring
//! that overwrites its oldest records once full. The harvester empties
//! the ring often enough that it never wraps: clients hold a read lock
//! while a statement is in flight, and every `interval` statements one of
//! them takes the write lock, waits for the last open span to close,
//! copies the ring out and clears it. A statement whose root span is
//! missing from every harvest counts as a lost trace. The time spent harvesting is
//! recorded so the closed loop can leave it out of its wall time.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

use shark_obs::SpanRecord;

/// Spans whose self time the per-layer table reports, by name up to the
/// first `(`.
pub const SPANS: [&str; 9] = [
    "admission-wait",
    "plan",
    "optimize",
    "stage-launch",
    "memstore_scan",
    "shuffle-write",
    "top-k",
    "sort-merge",
    "stream-deliver",
];

/// Root span names the server opens per statement.
const ROOTS: [&str; 2] = ["query", "query-stream"];

#[derive(Default)]
pub struct Harvest {
    /// Self time in µs summed per span name.
    pub self_us: BTreeMap<String, f64>,
    /// Statement roots seen.
    pub roots: u64,
    /// Statements run while the harvester was installed.
    pub statements: u64,
    /// Statements whose root span never reached a harvest.
    pub lost: u64,
    /// Wall time spent harvesting.
    pub paused: Duration,
    /// Most spans one statement recorded.
    max_spans: usize,
}

pub struct Harvester {
    gate: RwLock<()>,
    since: AtomicUsize,
    interval: AtomicUsize,
    statements: AtomicU64,
    acc: Mutex<Harvest>,
}

impl Harvester {
    /// Switch the tracer on with an empty ring.
    pub fn start() -> Harvester {
        shark_obs::tracer().clear();
        shark_obs::tracer().set_enabled(true);
        Harvester {
            gate: RwLock::new(()),
            since: AtomicUsize::new(0),
            interval: AtomicUsize::new(1),
            statements: AtomicU64::new(0),
            acc: Mutex::new(Harvest::default()),
        }
    }

    /// Run one statement under the harvest gate, then harvest if the
    /// ring could fill before the next window ends.
    pub fn statement<R>(&self, run: impl FnOnce() -> R) -> R {
        let (since, result) = {
            let _gate = self.gate.read().expect("harvest gate poisoned");
            let result = run();
            self.statements.fetch_add(1, Ordering::SeqCst);
            (self.since.fetch_add(1, Ordering::SeqCst) + 1, result)
        };
        if since >= self.interval.load(Ordering::SeqCst) {
            self.harvest();
        }
        result
    }

    fn harvest(&self) {
        let _exclusive = self.gate.write().expect("harvest gate poisoned");
        let started = Instant::now();
        let window = self.since.swap(0, Ordering::SeqCst) as u64;
        if window == 0 {
            return;
        }
        let tracer = shark_obs::tracer();
        // No statement is in flight; wait for spans that close after the
        // reply reached the client (cursor finalize, prefetch workers).
        let deadline = Instant::now() + Duration::from_secs(2);
        while tracer.open_spans() > 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let records = tracer.all_records();
        tracer.clear();
        let roots = records
            .iter()
            .filter(|r| r.parent_id == 0 && ROOTS.contains(&r.name.as_str()))
            .count() as u64;
        let mut per_trace: HashMap<u64, usize> = HashMap::new();
        for r in &records {
            *per_trace.entry(r.trace_id).or_default() += 1;
        }
        let mut acc = self.acc.lock().expect("harvest accumulator poisoned");
        // Size the next window so that statements as large as the largest
        // seen so far fill at most half the ring; grow it gradually, since
        // a larger statement class may not have run yet.
        acc.max_spans = acc
            .max_spans
            .max(per_trace.into_values().max().unwrap_or(1));
        let fits = tracer.ring_capacity() / 2 / acc.max_spans;
        let interval = fits.min(window as usize * 2).clamp(1, 256);
        self.interval.store(interval, Ordering::SeqCst);
        for (name, us) in self_times(&records) {
            *acc.self_us.entry(name).or_default() += us;
        }
        acc.roots += roots;
        acc.paused += started.elapsed();
    }

    /// Harvest what is left, switch the tracer off and return the totals.
    pub fn finish(self) -> Harvest {
        self.harvest();
        shark_obs::tracer().set_enabled(false);
        let mut acc = self.acc.into_inner().expect("harvest accumulator poisoned");
        acc.statements = self.statements.into_inner();
        acc.lost = acc.statements.saturating_sub(acc.roots);
        acc
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover. Children that ran in parallel on the
/// executor's threads each keep their own self time, so the sum over a
/// statement can exceed its wall time.
fn self_times(records: &[SpanRecord]) -> Vec<(String, f64)> {
    let mut children: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
    for r in records {
        children
            .entry((r.trace_id, r.parent_id))
            .or_default()
            .push((r.start_us, r.start_us + r.duration_us));
    }
    records
        .iter()
        .map(|r| {
            let (start, end) = (r.start_us, r.start_us + r.duration_us);
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&(r.trace_id, r.span_id)) {
                kids.sort_unstable();
                let mut reach = start;
                for &(s, e) in kids.iter() {
                    let (s, e) = (s.max(reach), e.min(end));
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
            }
            let name = r.name.split('(').next().unwrap_or_default().to_string();
            (name, (r.duration_us - covered) as f64)
        })
        .collect()
}
