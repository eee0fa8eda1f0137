//! The DAG scheduler.
//!
//! Actions call [`run_job`]: the scheduler walks the target RDD's lineage,
//! runs the map stage of every shuffle dependency that is not yet
//! materialized (in dependency order), then runs the result stage. Every
//! task executes for real in-process; its measured metrics are converted to
//! a simulated duration by the cost model and the whole stage is placed on
//! the simulated cluster to obtain paper-scale timings, which are recorded
//! in a [`JobReport`].

use std::hash::Hash;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use shark_cluster::{OutputSink, TaskSpec};
use shark_common::size::estimate_slice;
use shark_common::{EstimateSize, Result, SharkError};

use crate::context::{JobReport, RddContext, StageReport};
use crate::executor::Executor;
use crate::metrics::TaskMetrics;
use crate::pair::Aggregator;
use crate::rdd::{Data, Lineage, Rdd};
use crate::shuffle::MapOutputStats;

/// Cached handles into the unified metrics registry for per-stage input
/// totals (the aggregate of every task's [`TaskMetrics`]), so finishing a
/// stage costs two atomic adds instead of registry lookups.
struct StageObs {
    rows_in: Arc<shark_obs::Counter>,
    bytes_in: Arc<shark_obs::Counter>,
}

fn stage_obs() -> &'static StageObs {
    static OBS: std::sync::OnceLock<StageObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let reg = shark_obs::metrics();
        StageObs {
            rows_in: reg.counter(
                "shark_stage_rows_in_total",
                "Rows read by executed stage tasks (map + result stages)",
            ),
            bytes_in: reg.counter(
                "shark_stage_bytes_in_total",
                "Bytes read by executed stage tasks (map + result stages)",
            ),
        }
    })
}

/// The result of executing one task in-process.
pub(crate) struct TaskOutcome<U> {
    pub value: U,
    pub duration: f64,
    pub preferred: Option<usize>,
    pub rows_in: u64,
    pub bytes_in: u64,
}

/// Execute `n` tasks (optionally on the shared executor), preserving order.
pub(crate) fn run_tasks<U, F>(parallel: bool, n: usize, f: F) -> Result<Vec<TaskOutcome<U>>>
where
    U: Send,
    F: Fn(usize) -> Result<TaskOutcome<U>> + Send + Sync,
{
    if !parallel || n <= 1 {
        return (0..n).map(&f).collect();
    }
    let slots: Mutex<Vec<Option<Result<TaskOutcome<U>>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let panicked = AtomicBool::new(false);
    // Tasks adopt the caller's trace context so per-operator spans computed
    // off-thread still land in the query's span tree.
    let trace = shark_obs::current();
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
        .map(|i| {
            let slots = &slots;
            let panicked = &panicked;
            let f = &f;
            Box::new(move || {
                let _trace = trace.as_ref().map(|t| t.attach());
                // A panic in a user closure must not poison the shared
                // worker pool; it is latched and reported as an execution
                // error once the whole stage has drained.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                    Ok(result) => slots.lock()[i] = Some(result),
                    Err(_) => panicked.store(true, Ordering::SeqCst),
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    Executor::global().run_scoped(tasks);
    if panicked.load(Ordering::SeqCst) {
        return Err(SharkError::Execution("a task thread panicked".into()));
    }
    slots
        .into_inner()
        .into_iter()
        .map(|r| r.expect("task result missing"))
        .collect()
}

/// Simulate the stage on the cluster and build its report plus the ordered
/// task outputs.
fn finish_stage<U>(
    ctx: &RddContext,
    name: &str,
    outcomes: Vec<TaskOutcome<U>>,
) -> (StageReport, Vec<U>) {
    let specs: Vec<TaskSpec> = outcomes
        .iter()
        .map(|o| TaskSpec {
            duration: o.duration,
            preferred_node: o.preferred,
        })
        .collect();
    let sim = ctx.state.cluster.lock().simulate_stage(&specs);
    let report = StageReport {
        name: name.to_string(),
        num_tasks: outcomes.len(),
        sim_duration: sim.duration,
        speculative_copies: sim.speculative_copies,
        tasks_rerun: sim.tasks_rerun,
        rows_in: outcomes.iter().map(|o| o.rows_in).sum(),
        bytes_in: outcomes.iter().map(|o| o.bytes_in).sum(),
    };
    stage_obs().rows_in.add(report.rows_in);
    stage_obs().bytes_in.add(report.bytes_in);
    if shark_obs::active() {
        shark_obs::event(
            "stage-sim",
            &[
                ("stage", name),
                ("tasks", &report.num_tasks.to_string()),
                ("sim_seconds", &format!("{:.6}", report.sim_duration)),
            ],
        );
    }
    (report, outcomes.into_iter().map(|o| o.value).collect())
}

/// Run the map stage of every shuffle dependency reachable from `lineage`
/// that has not been materialized yet, in dependency order. Returns the
/// reports of the stages that were actually executed.
pub fn ensure_shuffle_deps(ctx: &RddContext, lineage: &dyn Lineage) -> Result<Vec<StageReport>> {
    let mut reports = Vec::new();
    for parent in lineage.parents() {
        reports.extend(ensure_shuffle_deps(ctx, parent.as_ref())?);
    }
    for dep in lineage.shuffle_deps() {
        reports.extend(ensure_shuffle_deps(ctx, dep.parent_lineage().as_ref())?);
        if !dep.is_materialized(ctx) {
            reports.push(dep.run_map_stage(ctx)?);
        }
    }
    Ok(reports)
}

/// Run an action over `rdd`: materialize its shuffle dependencies, execute
/// the result stage applying `f` to each partition, time everything on the
/// simulated cluster, record a [`JobReport`], and return the per-partition
/// results in partition order.
pub fn run_job<T, U, F>(
    ctx: &RddContext,
    rdd: &Rdd<T>,
    name: &str,
    sink: OutputSink,
    f: F,
) -> Result<Vec<U>>
where
    T: Data,
    U: Send + EstimateSize,
    F: Fn(Vec<T>) -> U + Send + Sync,
{
    run_job_with_metrics(ctx, rdd, name, sink, |data, _| f(data))
}

/// [`run_job`] whose per-partition function also sees the task's metrics,
/// so it can charge extra work (or read what upstream operators recorded)
/// before the task is priced. The task's output is charged as the rows
/// handed to `f` plus any rows a late-materializing scan skipped, and the
/// estimated size of the value `f` returns.
pub fn run_job_with_metrics<T, U, F>(
    ctx: &RddContext,
    rdd: &Rdd<T>,
    name: &str,
    sink: OutputSink,
    f: F,
) -> Result<Vec<U>>
where
    T: Data,
    U: Send + EstimateSize,
    F: Fn(Vec<T>, &mut TaskMetrics) -> U + Send + Sync,
{
    let wall = Instant::now();
    let mut stages = ensure_shuffle_deps(ctx, rdd)?;
    let scale = ctx.config().sim_scale;
    let outcomes = run_tasks(
        ctx.config().parallel_tasks,
        rdd.num_partitions(),
        |partition| {
            let mut metrics = TaskMetrics::new();
            let data = rdd.compute_partition(ctx, partition, &mut metrics)?;
            let rows = data.len() as u64 + metrics.skipped_rows;
            let value = f(data, &mut metrics);
            metrics.record_output(rows, value.estimated_size() as u64);
            let cost = metrics.to_cost_input(scale, sink);
            let duration = ctx.cost_model().task_duration(&cost);
            Ok(TaskOutcome {
                value,
                duration,
                preferred: rdd.preferred_node(ctx, partition),
                rows_in: metrics.rows_in,
                bytes_in: metrics.bytes_in,
            })
        },
    )?;
    let (report, values) = finish_stage(ctx, "result", outcomes);
    stages.push(report);
    let sim_duration = stages.iter().map(|s| s.sim_duration).sum();
    ctx.record_job(JobReport {
        name: name.to_string(),
        stages,
        sim_duration,
        real_duration: wall.elapsed().as_secs_f64(),
    });
    Ok(values)
}

/// A job whose result-stage partitions are executed on demand, one at a
/// time, so the caller can consume output incrementally and stop early.
///
/// Construction runs every shuffle map stage the target RDD depends on
/// (exactly like [`run_job`] would); each [`StreamingJob::run_partition`]
/// call then executes one result-stage task in-process and places it on the
/// simulated cluster as a single-task stage — the pipelined-delivery model,
/// where the driver hands a partition's rows to the client as soon as that
/// partition finishes instead of waiting for the whole stage barrier.
/// Partitions that are never requested are never computed, which is what
/// lets a LIMIT query stop launching tasks once it has enough rows.
///
/// A [`JobReport`] covering the stages actually executed is recorded when
/// the job is dropped (or explicitly via [`StreamingJob::finish`]).
pub struct StreamingJob<T: Data> {
    ctx: RddContext,
    rdd: Rdd<T>,
    name: String,
    stages: Vec<StageReport>,
    /// Simulated seconds spent in the up-front shuffle stages, which run
    /// before any partition can stream.
    sim_base: f64,
    /// Simulated busy time per delivery slot. Streamed partition tasks are
    /// list-scheduled greedily onto these slots, so a job whose partitions
    /// were computed by `n` concurrent workers is charged the makespan of
    /// that schedule instead of the serial sum — unlike the context's
    /// global simulated clock, this is not advanced by concurrent jobs.
    sim_slots: Vec<f64>,
    wall: Instant,
    partitions_run: usize,
    finished: bool,
}

impl<T: Data> StreamingJob<T> {
    /// Prepare a streaming job over `rdd`: materialize its shuffle
    /// dependencies now so every subsequent partition request is a pure
    /// result-stage task.
    pub fn new(ctx: &RddContext, rdd: &Rdd<T>, name: &str) -> Result<StreamingJob<T>> {
        let wall = Instant::now();
        let stages = ensure_shuffle_deps(ctx, rdd)?;
        let sim_base = stages.iter().map(|s| s.sim_duration).sum();
        Ok(StreamingJob {
            ctx: ctx.clone(),
            rdd: rdd.clone(),
            name: name.to_string(),
            stages,
            sim_base,
            sim_slots: vec![0.0],
            wall,
            partitions_run: 0,
            finished: false,
        })
    }

    /// Number of partitions the result stage has in total.
    pub fn num_partitions(&self) -> usize {
        self.rdd.num_partitions()
    }

    /// How many result-stage partitions have been executed so far.
    pub fn partitions_run(&self) -> usize {
        self.partitions_run
    }

    /// Simulated seconds charged by *this job's* stages so far: the
    /// up-front shuffle stages plus the makespan of the streamed partition
    /// tasks over the job's delivery slots. Stable under concurrency,
    /// unlike deltas of the shared cluster clock.
    pub fn sim_seconds(&self) -> f64 {
        self.sim_base + self.sim_slots.iter().copied().fold(0.0, f64::max)
    }

    /// Declare how many workers computed streamed partitions concurrently.
    /// Later partition tasks are booked onto that many simulated delivery
    /// slots (greedy list scheduling), so prefetched streams are charged
    /// wall-clock-shaped time instead of the serial sum. Only honored
    /// before any partition has been booked.
    pub fn set_sim_parallelism(&mut self, slots: usize) {
        if self.partitions_run == 0 {
            self.sim_slots = vec![0.0; slots.max(1)];
        }
    }

    /// Execute the result-stage task for one partition: compute it
    /// in-process, transform the rows with `f` (which may charge extra work
    /// — e.g. a per-partition sort — to the task's metrics), and time the
    /// task on the simulated cluster as a single-task stage.
    pub fn run_partition<U, F>(&mut self, partition: usize, sink: OutputSink, f: F) -> Result<U>
    where
        U: Send + EstimateSize,
        F: FnOnce(Vec<T>, &mut TaskMetrics) -> U,
    {
        let outcome = execute_partition_task(&self.ctx, &self.rdd, partition, sink, f)?;
        Ok(self.absorb_outcome(partition, outcome))
    }

    /// Book a task outcome computed elsewhere (a prefetch worker): simulate
    /// it on the cluster as a single-task stage and fold it into this job's
    /// report. Called in delivery order, so the simulated clock advances
    /// exactly as it would under serial streaming.
    fn absorb_outcome<U: Send>(&mut self, partition: usize, outcome: TaskOutcome<U>) -> U {
        let (report, mut values) = finish_stage(
            &self.ctx,
            &format!("stream-result({partition})"),
            vec![outcome],
        );
        // Greedy list scheduling: charge the task to the least-loaded
        // delivery slot. With one slot this degenerates to the serial sum.
        let slot = self
            .sim_slots
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.sim_slots[slot] += report.sim_duration;
        self.stages.push(report);
        self.partitions_run += 1;
        values.pop().expect("single task outcome")
    }

    /// Turn this job into a [`PipelinedJob`] delivering `order`'s partitions
    /// through one fixed per-partition transformation. With a prefetch depth
    /// of 0 the partitions still run serially inside `next()`; with depth
    /// `n ≥ 1` morsels on the shared executor compute up to `n` partitions
    /// ahead of the consumer.
    pub fn pipelined<U, F>(self, order: Vec<usize>, sink: OutputSink, f: F) -> PipelinedJob<T, U>
    where
        U: Send + EstimateSize + 'static,
        F: Fn(Vec<T>, &mut TaskMetrics) -> U + Send + Sync + 'static,
    {
        PipelinedJob {
            job: self,
            order: Arc::new(order),
            sink,
            f: Arc::new(f),
            prefetch: 0,
            pool: None,
            env: None,
            delivered: 0,
            prefetch_hits: 0,
            latched: false,
        }
    }

    /// Record the [`JobReport`] for the work done so far. Idempotent; also
    /// invoked on drop so abandoning a stream mid-way still leaves a report.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let sim_duration = self.sim_seconds();
        let stages = std::mem::take(&mut self.stages);
        self.ctx.record_job(JobReport {
            name: self.name.clone(),
            stages,
            sim_duration,
            real_duration: self.wall.elapsed().as_secs_f64(),
        });
    }
}

impl<T: Data> Drop for StreamingJob<T> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Run one result-stage task in-process without simulating it yet: compute
/// the partition, apply `f`, and price the task with the cost model. Panics
/// inside the task (a user closure blowing up) are converted to execution
/// errors so both the serial and the prefetched streaming paths fail the
/// same way.
fn execute_partition_task<T, U, F>(
    ctx: &RddContext,
    rdd: &Rdd<T>,
    partition: usize,
    sink: OutputSink,
    f: F,
) -> Result<TaskOutcome<U>>
where
    T: Data,
    U: Send + EstimateSize,
    F: FnOnce(Vec<T>, &mut TaskMetrics) -> U,
{
    let scale = ctx.config().sim_scale;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut metrics = TaskMetrics::new();
        let data = rdd.compute_partition(ctx, partition, &mut metrics)?;
        let rows = data.len() as u64 + metrics.skipped_rows;
        let value = f(data, &mut metrics);
        metrics.record_output(rows, value.estimated_size() as u64);
        let cost = metrics.to_cost_input(scale, sink);
        Ok(TaskOutcome {
            value,
            duration: ctx.cost_model().task_duration(&cost),
            preferred: rdd.preferred_node(ctx, partition),
            rows_in: metrics.rows_in,
            bytes_in: metrics.bytes_in,
        })
    }))
    .unwrap_or_else(|_| {
        Err(SharkError::Execution(format!(
            "stream task for partition {partition} panicked"
        )))
    })
}

/// Shared state between a [`PipelinedJob`]'s consumer and its morsels: a
/// bounded, *ordered* channel. Morsel tasks claim positions in the planned
/// order while they are within `prefetch` of the consumer's cursor, park
/// results in `ready`, and no new positions are claimed once `cancelled`
/// is set.
struct PrefetchState<U> {
    /// Next position (index into the order) a morsel may claim.
    next_claim: usize,
    /// The consumer's cursor position.
    deliver_pos: usize,
    /// Completed outcomes keyed by position.
    ready: std::collections::HashMap<usize, Result<TaskOutcome<U>>>,
    /// Positions claimed whose morsel has not finished yet. [`PipelinedJob::finish`]
    /// waits for this to reach zero, so cancellation-on-drop always drains
    /// in-flight work before the job report is recorded.
    in_flight: usize,
    /// Submitted morsels that still hold the job's [`PumpEnv`] — and with it
    /// the pipeline and every shuffle it reads. A morsel finishes its
    /// position (`in_flight`) before it lets go of the pipeline, so
    /// [`PipelinedJob::finish`] waits for this too: once it returns, the
    /// job's shuffles are freed as soon as the job itself is dropped.
    morsels: usize,
    /// No new positions may be claimed (consumer dropped/stopped or a task
    /// failed). Claimed in-flight morsels still park their result.
    cancelled: bool,
}

struct PrefetchShared<U> {
    state: std::sync::Mutex<PrefetchState<U>>,
    changed: std::sync::Condvar,
    prefetch: usize,
}

impl<U> PrefetchShared<U> {
    fn lock(&self) -> std::sync::MutexGuard<'_, PrefetchState<U>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn cancel(&self) {
        self.lock().cancelled = true;
        self.changed.notify_all();
    }
}

/// Everything a prefetch morsel needs, shared between the consumer (which
/// pumps after each delivery) and completed morsels (which pump to refill
/// the window).
struct PumpEnv<T: Data, U: Send + EstimateSize + 'static> {
    ctx: RddContext,
    rdd: Rdd<T>,
    order: Arc<Vec<usize>>,
    sink: OutputSink,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(Vec<T>, &mut TaskMetrics) -> U + Send + Sync>,
    /// Consumer's trace context: morsels computed ahead on the shared
    /// executor still attach their spans to the query's span tree.
    trace: Option<shark_obs::TraceContext>,
    /// Concurrency cap: at most this many morsels of this job may be
    /// queued or running on the shared executor at once.
    max_workers: usize,
    shared: Arc<PrefetchShared<U>>,
}

/// Claim every position currently allowed by the prefetch window and the
/// concurrency cap, submitting one executor morsel per claim. Called by the
/// consumer when the window moves and by each finished morsel, so the
/// window refills without any dedicated per-query threads.
fn pump<T: Data, U: Send + EstimateSize + 'static>(env: &Arc<PumpEnv<T, U>>) {
    loop {
        let pos = {
            let mut state = env.shared.lock();
            if state.cancelled
                || state.next_claim >= env.order.len()
                || state.next_claim >= state.deliver_pos + env.shared.prefetch
                || state.in_flight >= env.max_workers
            {
                return;
            }
            let pos = state.next_claim;
            state.next_claim += 1;
            state.in_flight += 1;
            state.morsels += 1;
            pos
        };
        let env = env.clone();
        Executor::global().spawn(move || {
            let shared = env.shared.clone();
            {
                let _trace = env.trace.as_ref().map(|t| t.attach());
                let partition = env.order[pos];
                let f = env.f.clone();
                let outcome = execute_partition_task(&env.ctx, &env.rdd, partition, env.sink, {
                    move |rows, m| f(rows, m)
                });
                {
                    let mut state = shared.lock();
                    state.in_flight -= 1;
                    if outcome.is_err() {
                        // Delivery is ordered, so this error will surface at
                        // or before `pos`; work beyond it would be wasted.
                        state.cancelled = true;
                    }
                    state.ready.insert(pos, outcome);
                    shared.changed.notify_all();
                }
                pump(&env);
            }
            drop(env);
            shared.lock().morsels -= 1;
            shared.changed.notify_all();
        });
    }
}

/// A streaming job whose result partitions are delivered in a fixed planned
/// order, optionally computed ahead of the consumer as morsels on the
/// shared work-stealing [`Executor`] (the pipelined-delivery model with
/// prefetching).
///
/// * `prefetch = 0` — serial: each [`PipelinedJob::next`] call executes one
///   partition inline, exactly like [`StreamingJob::run_partition`].
/// * `prefetch = n ≥ 1` — up to `n` partitions are claimed ahead of the
///   cursor and submitted as morsels to the shared executor (bounded by the
///   host's parallelism). Results are delivered strictly in planned order;
///   cluster simulation and the [`JobReport`] are booked at delivery time,
///   with the concurrent execution reflected in the simulated makespan via
///   [`StreamingJob::set_sim_parallelism`].
///
/// Dropping the job (or calling [`PipelinedJob::finish`]) cancels the
/// stream: no further partitions are claimed, in-flight morsels are
/// drained, and the job report covering the *delivered* partitions is
/// recorded.
pub struct PipelinedJob<T: Data, U: Send + EstimateSize + 'static> {
    job: StreamingJob<T>,
    order: Arc<Vec<usize>>,
    sink: OutputSink,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(Vec<T>, &mut TaskMetrics) -> U + Send + Sync>,
    prefetch: usize,
    pool: Option<Arc<PrefetchShared<U>>>,
    env: Option<Arc<PumpEnv<T, U>>>,
    delivered: usize,
    prefetch_hits: u64,
    /// Set on error or explicit finish: no further partitions execute or
    /// deliver, so the recorded report stays accurate.
    latched: bool,
}

impl<T: Data, U: Send + EstimateSize + 'static> PipelinedJob<T, U> {
    /// Set the prefetch depth. Only honored before the first partition is
    /// delivered (the pool spins up lazily on the first [`Self::next`]).
    pub fn set_prefetch(&mut self, depth: usize) {
        if self.pool.is_none() && self.delivered == 0 {
            self.prefetch = depth;
        }
    }

    /// The configured prefetch depth.
    pub fn prefetch(&self) -> usize {
        self.prefetch
    }

    /// Partitions in the planned delivery order.
    pub fn planned(&self) -> usize {
        self.order.len()
    }

    /// Partitions delivered so far.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Total result-stage partitions of the underlying RDD.
    pub fn num_partitions(&self) -> usize {
        self.job.num_partitions()
    }

    /// Deliveries that found their partition already computed by a prefetch
    /// worker (the consumer never had to wait for the claim).
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits
    }

    /// Simulated seconds charged by this job's stages so far.
    pub fn sim_seconds(&self) -> f64 {
        self.job.sim_seconds()
    }

    /// Deliver the next partition in planned order as `(partition, value)`,
    /// or `None` when the plan is exhausted. After an error the job is
    /// latched: no further partitions execute and subsequent calls return
    /// `None`.
    // Not an `Iterator`: delivery is fallible and the job must keep
    // ownership for cancellation/report bookkeeping.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<(usize, U)>> {
        if self.latched || self.delivered >= self.order.len() {
            return Ok(None);
        }
        let partition = self.order[self.delivered];
        if self.prefetch == 0 {
            // Serial path: run the task inline on the consumer's thread.
            let f = self.f.clone();
            let result = self
                .job
                .run_partition(partition, self.sink, move |rows, m| f(rows, m));
            return match result {
                Ok(value) => {
                    self.delivered += 1;
                    Ok(Some((partition, value)))
                }
                Err(err) => {
                    self.latched = true;
                    Err(err)
                }
            };
        }
        self.ensure_pool();
        let pool = self.pool.clone().expect("pool just started");
        let (outcome, was_ready) = {
            let mut state = pool.lock();
            let pos = state.deliver_pos;
            let was_ready = state.ready.contains_key(&pos);
            loop {
                if state.ready.contains_key(&pos) {
                    break;
                }
                if state.cancelled && pos >= state.next_claim {
                    // Nothing in flight will ever produce this position.
                    return Ok(None);
                }
                state = pool.changed.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            let outcome = state.ready.remove(&pos).expect("ready outcome");
            state.deliver_pos += 1;
            pool.changed.notify_all();
            (outcome, was_ready)
        };
        // The window moved: claim and submit the next morsel(s).
        if let Some(env) = &self.env {
            pump(env);
        }
        if was_ready {
            self.prefetch_hits += 1;
        }
        match outcome {
            Ok(outcome) => {
                self.delivered += 1;
                let value = self.job.absorb_outcome(partition, outcome);
                Ok(Some((partition, value)))
            }
            Err(err) => {
                // Latch and stop the pool: a failed stream never resumes.
                self.latched = true;
                pool.cancel();
                Err(err)
            }
        }
    }

    /// Stop the stream (draining in-flight morsels) and record the job
    /// report covering everything delivered so far. Latches the job: a
    /// later `next()` delivers nothing, so the recorded report stays
    /// accurate. Idempotent; also runs on drop.
    pub fn finish(&mut self) {
        self.latched = true;
        if let Some(pool) = &self.pool {
            pool.cancel();
            // Claimed morsels still finish on the executor; wait for them
            // so nothing of this job runs after finish() returns (callers
            // release resources — e.g. pinned partitions — right after).
            let mut state = pool.lock();
            while state.in_flight > 0 || state.morsels > 0 {
                state = pool.changed.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        }
        self.job.finish();
    }

    /// Set up the prefetch channel and submit the first morsels on first use.
    fn ensure_pool(&mut self) {
        if self.pool.is_some() {
            return;
        }
        let shared = Arc::new(PrefetchShared {
            state: std::sync::Mutex::new(PrefetchState {
                next_claim: 0,
                deliver_pos: 0,
                ready: std::collections::HashMap::new(),
                in_flight: 0,
                morsels: 0,
                cancelled: false,
            }),
            changed: std::sync::Condvar::new(),
            prefetch: self.prefetch,
        });
        // The *window* (how far execution may run ahead) is `prefetch`; the
        // morsel concurrency is additionally capped by the host's
        // parallelism — a single slot can still fill a deep window, extra
        // concurrency only pays off when morsels actually run in parallel.
        let parallelism = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(4);
        let max_workers = self.prefetch.min(self.order.len()).min(parallelism).max(1);
        self.job.set_sim_parallelism(max_workers);
        let env = Arc::new(PumpEnv {
            ctx: self.job.ctx.clone(),
            rdd: self.job.rdd.clone(),
            order: self.order.clone(),
            sink: self.sink,
            f: self.f.clone(),
            trace: shark_obs::current(),
            max_workers,
            shared: shared.clone(),
        });
        pump(&env);
        self.pool = Some(shared);
        self.env = Some(env);
    }
}

impl<T: Data, U: Send + EstimateSize + 'static> Drop for PipelinedJob<T, U> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Shared implementation of the shuffle map stages: compute each parent
/// partition, bucket its records, store the buckets plus per-bucket
/// statistics in the shuffle manager, and time the stage.
fn run_map_stage_generic<K, PV, S, F>(
    ctx: &RddContext,
    parent: &Rdd<(K, PV)>,
    shuffle_id: usize,
    num_buckets: usize,
    name: &str,
    bucketize: F,
) -> Result<StageReport>
where
    K: Data + Hash + Eq,
    PV: Data,
    S: Data,
    F: Fn(Vec<(K, PV)>, usize) -> Vec<Vec<(K, S)>> + Send + Sync,
{
    let num_map_tasks = parent.num_partitions();
    ctx.shuffle_manager()
        .register(shuffle_id, num_map_tasks, num_buckets);
    let scale = ctx.config().sim_scale;
    let sort_shuffle = ctx.config().cluster.profile.sort_based_shuffle;

    let outcomes = run_tasks(ctx.config().parallel_tasks, num_map_tasks, |partition| {
        let mut metrics = TaskMetrics::new();
        let data = parent.compute_partition(ctx, partition, &mut metrics)?;
        let input_rows = data.len() as u64;
        let span = if shark_obs::active() {
            shark_obs::span("shuffle-write")
        } else {
            None
        };
        if let Some(span) = &span {
            span.set_partition(partition);
        }
        let buckets = bucketize(data, num_buckets);
        let bucket_bytes: Vec<u64> = buckets.iter().map(|b| estimate_slice(b) as u64).collect();
        let bucket_rows: Vec<u64> = buckets.iter().map(|b| b.len() as u64).collect();
        let total_bytes: u64 = bucket_bytes.iter().sum();
        let total_rows: u64 = bucket_rows.iter().sum();
        if let Some(span) = &span {
            span.set_rows(total_rows);
            span.set_bytes(total_bytes);
        }
        drop(span);
        // Hash-partitioning each record costs roughly one operation per row.
        metrics.add_ops(input_rows as f64);
        if sort_shuffle {
            metrics.add_sort(total_rows);
        }
        metrics.record_output(total_rows, total_bytes);
        ctx.shuffle_manager().put_map_output(
            shuffle_id,
            partition,
            buckets,
            MapOutputStats {
                bucket_bytes,
                bucket_rows,
            },
        )?;
        let cost = metrics.to_cost_input(scale, OutputSink::Shuffle);
        let duration = ctx.cost_model().task_duration(&cost);
        Ok(TaskOutcome {
            value: (),
            duration,
            preferred: parent.preferred_node(ctx, partition),
            rows_in: metrics.rows_in,
            bytes_in: metrics.bytes_in,
        })
    })?;

    let (report, _) = finish_stage(ctx, name, outcomes);
    Ok(report)
}

/// Map stage that hash-partitions records without combining.
pub(crate) fn run_shuffle_map_stage_raw<K, V>(
    ctx: &RddContext,
    parent: &Rdd<(K, V)>,
    shuffle_id: usize,
    num_buckets: usize,
) -> Result<StageReport>
where
    K: Data + Hash + Eq,
    V: Data,
{
    run_map_stage_generic(
        ctx,
        parent,
        shuffle_id,
        num_buckets,
        &format!("shuffle-map({shuffle_id})"),
        |data, buckets| {
            let mut out: Vec<Vec<(K, V)>> = (0..buckets).map(|_| Vec::new()).collect();
            for (k, v) in data {
                let b = shark_common::hash::hash_partition(&k, buckets);
                out[b].push((k, v));
            }
            out
        },
    )
}

/// Map stage that hash-partitions records and combines values per key
/// map-side with an [`Aggregator`] (partial aggregation, §3.1).
pub(crate) fn run_shuffle_map_stage_combined<K, V, C>(
    ctx: &RddContext,
    parent: &Rdd<(K, V)>,
    shuffle_id: usize,
    num_buckets: usize,
    agg: &Aggregator<V, C>,
) -> Result<StageReport>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    let agg = agg.clone();
    run_map_stage_generic(
        ctx,
        parent,
        shuffle_id,
        num_buckets,
        &format!("shuffle-map-combine({shuffle_id})"),
        move |data, buckets| {
            let mut tables: Vec<std::collections::HashMap<K, C>> = (0..buckets)
                .map(|_| std::collections::HashMap::new())
                .collect();
            for (k, v) in data {
                let b = shark_common::hash::hash_partition(&k, buckets);
                let table = &mut tables[b];
                match table.remove(&k) {
                    Some(c) => {
                        table.insert(k, (agg.merge_value)(c, v));
                    }
                    None => {
                        table.insert(k, (agg.create)(v));
                    }
                }
            }
            tables
                .into_iter()
                .map(|t| t.into_iter().collect())
                .collect()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{RddConfig, RddContext};
    use shark_cluster::ClusterConfig;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn run_tasks_sequential_and_parallel_agree() {
        let f = |i: usize| {
            Ok(TaskOutcome {
                value: i * 2,
                duration: 0.1,
                preferred: None,
                rows_in: 1,
                bytes_in: 8,
            })
        };
        let seq = run_tasks(false, 16, f).unwrap();
        let par = run_tasks(true, 16, f).unwrap();
        let seq_vals: Vec<usize> = seq.into_iter().map(|o| o.value).collect();
        let par_vals: Vec<usize> = par.into_iter().map(|o| o.value).collect();
        assert_eq!(seq_vals, par_vals);
        assert_eq!(seq_vals[7], 14);
    }

    #[test]
    fn run_tasks_propagates_errors() {
        let r = run_tasks(false, 4, |i| {
            if i == 2 {
                Err(SharkError::Execution("boom".into()))
            } else {
                Ok(TaskOutcome {
                    value: (),
                    duration: 0.0,
                    preferred: None,
                    rows_in: 0,
                    bytes_in: 0,
                })
            }
        });
        assert!(r.is_err());
        let r = run_tasks(true, 4, |i| {
            if i == 2 {
                Err(SharkError::Execution("boom".into()))
            } else {
                Ok(TaskOutcome {
                    value: (),
                    duration: 0.0,
                    preferred: None,
                    rows_in: 0,
                    bytes_in: 0,
                })
            }
        });
        assert!(r.is_err());
    }

    #[test]
    fn run_tasks_reports_panics_as_errors_even_when_every_worker_panics() {
        // Every task panics, so every worker thread dies; run_tasks must
        // still return an Execution error rather than propagate the panic
        // out of the thread scope.
        let r = std::panic::catch_unwind(|| {
            run_tasks(true, 8, |_| -> Result<TaskOutcome<()>> {
                panic!("task blew up");
            })
        });
        let inner = r.expect("panic escaped run_tasks");
        match inner {
            Err(SharkError::Execution(msg)) => assert!(msg.contains("panicked")),
            Err(other) => panic!("expected Execution error, got {other:?}"),
            Ok(_) => panic!("expected Execution error, got Ok"),
        }
    }

    #[test]
    fn parallel_context_produces_same_results() {
        let config = RddConfig {
            cluster: ClusterConfig::small(4, 2),
            default_partitions: 8,
            sim_scale: 1.0,
            parallel_tasks: true,
        };
        let ctx = RddContext::new(config);
        let rdd = ctx.parallelize((0i64..1000).collect(), 16);
        let sum = rdd.map(|x| x * 3).reduce(|a, b| a + b).unwrap();
        assert_eq!(sum, Some(3 * 999 * 1000 / 2));
        let mut counts = rdd
            .map(|x| (x % 7, 1i64))
            .reduce_by_key(8, |a, b| a + b)
            .collect()
            .unwrap();
        counts.sort();
        assert_eq!(counts.iter().map(|(_, c)| c).sum::<i64>(), 1000);
    }

    #[test]
    fn streaming_job_matches_collect_and_counts_stages() {
        let ctx = RddContext::local();
        let rdd = ctx.parallelize((0i64..100).collect(), 8).map(|x| x * 2);
        let expected = rdd.collect().unwrap();
        let mut job = rdd.stream("stream-collect").unwrap();
        assert_eq!(job.num_partitions(), 8);
        let mut streamed = Vec::new();
        for p in 0..job.num_partitions() {
            let batch: Vec<i64> = job
                .run_partition(p, shark_cluster::OutputSink::Collect, |rows, _m| rows)
                .unwrap();
            streamed.extend(batch);
        }
        assert_eq!(streamed, expected);
        assert_eq!(job.partitions_run(), 8);
        job.finish();
        let report = ctx.last_job().unwrap();
        assert_eq!(report.name, "stream-collect");
        assert_eq!(report.stages.len(), 8);
        assert!(report.sim_duration > 0.0);
    }

    #[test]
    fn streaming_job_stopped_early_runs_only_requested_partitions() {
        let ctx = RddContext::local();
        let computed = Arc::new(AtomicUsize::new(0));
        let counter = computed.clone();
        let rdd = ctx.generate(8, shark_cluster::InputSource::Dfs, move |p| {
            counter.fetch_add(1, Ordering::SeqCst);
            vec![p as i64]
        });
        {
            let mut job = rdd.stream("early-stop").unwrap();
            for p in 0..3 {
                job.run_partition(p, shark_cluster::OutputSink::Collect, |rows, _m| rows)
                    .unwrap();
            }
            // Dropped here: the report must cover exactly the 3 tasks run.
        }
        assert_eq!(computed.load(Ordering::SeqCst), 3);
        let report = ctx.last_job().unwrap();
        assert_eq!(report.stages.len(), 3);
    }

    #[test]
    fn streaming_job_runs_shuffle_deps_up_front() {
        let ctx = RddContext::local();
        let rdd = ctx.parallelize((0i64..100).collect(), 4);
        let reduced = rdd.map(|x| (x % 5, x)).reduce_by_key(4, |a, b| a + b);
        let mut job = reduced.stream("stream-agg").unwrap();
        let mut pairs = Vec::new();
        for p in 0..job.num_partitions() {
            pairs.extend(
                job.run_partition(p, shark_cluster::OutputSink::Collect, |rows, _m| rows)
                    .unwrap(),
            );
        }
        pairs.sort();
        let mut expected = reduced.collect().unwrap();
        expected.sort();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn pipelined_job_matches_serial_delivery_for_every_prefetch_depth() {
        let ctx = RddContext::local();
        let rdd = ctx.parallelize((0i64..400).collect(), 16).map(|x| x * 3);
        let expected = rdd.collect().unwrap();
        let mut sim_serial = None;
        let parallelism = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        for prefetch in [0usize, 1, 2, 7, 32] {
            let mut job = rdd
                .stream(&format!("pipelined({prefetch})"))
                .unwrap()
                .pipelined(
                    (0..16).collect(),
                    shark_cluster::OutputSink::Collect,
                    |rows, _m| rows,
                );
            job.set_prefetch(prefetch);
            let mut streamed = Vec::new();
            let mut partitions = Vec::new();
            while let Some((p, batch)) = job.next().unwrap() {
                partitions.push(p);
                streamed.extend(batch);
            }
            assert_eq!(streamed, expected, "prefetch={prefetch}");
            assert_eq!(partitions, (0..16).collect::<Vec<usize>>());
            assert_eq!(job.delivered(), 16);
            job.finish();
            // Delivered rows are identical at every depth; the simulated
            // cost reflects how many morsels ran concurrently — at most the
            // serial sum (prefetch 0/1 matches it exactly), strictly less
            // once two or more partitions can overlap.
            let sim = job.sim_seconds();
            match sim_serial {
                None => sim_serial = Some(sim),
                Some(reference) => {
                    assert!(
                        sim <= reference + 1e-9,
                        "prefetch={prefetch}: {sim} > {reference}"
                    );
                    if prefetch <= 1 {
                        assert!((sim - reference).abs() < 1e-9, "prefetch={prefetch}");
                    } else if parallelism >= 2 {
                        assert!(
                            sim < reference - 1e-9,
                            "prefetch={prefetch}: no overlap booked"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pipelined_job_respects_custom_order_and_window_bound() {
        let ctx = RddContext::local();
        let executed = Arc::new(AtomicUsize::new(0));
        let counter = executed.clone();
        let rdd = ctx.generate(8, shark_cluster::InputSource::Dfs, move |p| {
            counter.fetch_add(1, Ordering::SeqCst);
            vec![p as i64]
        });
        let order = vec![5usize, 1, 6, 0, 7, 2, 3, 4];
        let mut job = rdd.stream("ordered").unwrap().pipelined(
            order.clone(),
            shark_cluster::OutputSink::Collect,
            |rows, _m| rows,
        );
        job.set_prefetch(2);
        let (p0, rows0) = job.next().unwrap().expect("first partition");
        assert_eq!(p0, 5);
        assert_eq!(rows0, vec![5]);
        // Stop after one delivery: with a window of 2 at most
        // delivered + prefetch partitions may ever have executed, and
        // finish() joins the workers so the count is final.
        job.finish();
        // finish() latches: nothing further may execute or deliver, so the
        // recorded report stays accurate.
        assert!(job.next().unwrap().is_none(), "delivery after finish()");
        let ran = executed.load(Ordering::SeqCst);
        assert!(ran <= 1 + 2, "window violated: {ran} partitions ran");
        drop(job);
        assert_eq!(executed.load(Ordering::SeqCst), ran, "work after cancel");
        let report = ctx.last_job().unwrap();
        assert_eq!(report.stages.len(), 1, "only the delivered stage booked");
    }

    #[test]
    fn pipelined_job_surfaces_worker_errors_in_order_and_latches() {
        let ctx = RddContext::local();
        let rdd = ctx.generate(6, shark_cluster::InputSource::Dfs, |p| {
            if p == 2 {
                panic!("partition 2 exploded");
            }
            vec![p as i64]
        });
        for prefetch in [0usize, 3] {
            let mut job = rdd.stream("failing").unwrap().pipelined(
                (0..6).collect(),
                shark_cluster::OutputSink::Collect,
                |rows, _m| rows,
            );
            job.set_prefetch(prefetch);
            // Partitions 0 and 1 deliver even though a worker may already
            // have hit the partition-2 failure.
            assert_eq!(job.next().unwrap().unwrap().0, 0);
            assert_eq!(job.next().unwrap().unwrap().0, 1);
            let err = job.next().unwrap_err();
            assert!(
                err.to_string().contains("panicked"),
                "prefetch={prefetch}: {err}"
            );
            // Latched: subsequent calls deliver nothing, ever.
            assert!(job.next().unwrap().is_none(), "prefetch={prefetch}");
            assert!(job.next().unwrap().is_none(), "prefetch={prefetch}");
        }
    }

    #[test]
    fn job_sim_time_includes_shuffle_stages() {
        let ctx = RddContext::local();
        let rdd = ctx.parallelize((0i64..100).collect(), 4);
        rdd.map(|x| (x % 10, x))
            .reduce_by_key(4, |a, b| a + b)
            .collect()
            .unwrap();
        let job = ctx.last_job().unwrap();
        assert!(job.stages.len() >= 2);
        assert!(job.sim_duration > 0.0);
        assert!(job.real_duration >= 0.0);
    }
}
