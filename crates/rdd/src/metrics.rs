//! Per-task execution metrics.
//!
//! Tasks in this reproduction execute for real over scaled-down data; the
//! metrics they accumulate (rows, bytes, expression operations) are scaled
//! by the context's `sim_scale` factor and fed into the
//! [`shark_cluster::CostModel`] to obtain paper-scale simulated durations.

use shark_cluster::{InputSource, OutputSink, TaskCostInput};

/// Metrics accumulated while a single task computes one partition.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskMetrics {
    /// Rows read from the task's input source (source RDDs and shuffle fetches).
    pub rows_in: u64,
    /// Bytes read from the input source.
    pub bytes_in: u64,
    /// Rows produced by the task.
    pub rows_out: u64,
    /// Bytes produced by the task.
    pub bytes_out: u64,
    /// Total expression / comparison operations performed.
    pub ops: f64,
    /// Rows the task had to sort (ORDER BY, sort-based shuffle).
    pub sort_rows: u64,
    /// Where the task's input came from (set by the source/shuffle readers;
    /// the "most expensive" source observed wins).
    pub input_source: InputSource,
    /// Rows a late-materializing scan selected but never built, because a
    /// per-partition top-k proved they cannot reach the result. The
    /// operators downstream of the scan charge them as if they had been
    /// built: narrow operators' per-row ops, the task's output rows, and
    /// the streamed top-k's sort.
    pub skipped_rows: u64,
    /// Estimated serialized size of those rows' output columns (what
    /// `estimate_slice` would report for them had they been built).
    pub skipped_bytes: u64,
}

impl Default for TaskMetrics {
    fn default() -> Self {
        TaskMetrics {
            rows_in: 0,
            bytes_in: 0,
            rows_out: 0,
            bytes_out: 0,
            ops: 0.0,
            sort_rows: 0,
            input_source: InputSource::Local,
            skipped_rows: 0,
            skipped_bytes: 0,
        }
    }
}

/// Ranking of input sources by how expensive they are to read; used when a
/// task reads from several sources (e.g. a zip of a cached and an on-disk
/// RDD) to pick the dominant one for the cost model.
fn source_rank(s: InputSource) -> u8 {
    match s {
        InputSource::Local => 0,
        InputSource::CachedColumnar => 1,
        InputSource::CachedRows => 2,
        InputSource::ShuffleMemory => 3,
        InputSource::ShuffleDisk => 4,
        InputSource::Dfs => 5,
    }
}

impl TaskMetrics {
    /// A fresh, empty metrics record.
    pub fn new() -> TaskMetrics {
        TaskMetrics::default()
    }

    /// Record reading `rows`/`bytes` from `source`.
    pub fn record_input(&mut self, rows: u64, bytes: u64, source: InputSource) {
        self.rows_in += rows;
        self.bytes_in += bytes;
        if source_rank(source) > source_rank(self.input_source) {
            self.input_source = source;
        }
    }

    /// Record producing `rows`/`bytes` of output.
    pub fn record_output(&mut self, rows: u64, bytes: u64) {
        self.rows_out = rows;
        self.bytes_out = bytes;
    }

    /// Charge `ops` expression/comparison operations.
    pub fn add_ops(&mut self, ops: f64) {
        self.ops += ops;
    }

    /// Charge a sort of `rows` rows.
    pub fn add_sort(&mut self, rows: u64) {
        self.sort_rows += rows;
    }

    /// Record `rows` rows (of `bytes` estimated output bytes) that a
    /// late-materializing scan selected but skipped building.
    pub fn record_skipped(&mut self, rows: u64, bytes: u64) {
        self.skipped_rows += rows;
        self.skipped_bytes += bytes;
    }

    /// Merge metrics from a nested computation (e.g. recomputing a parent
    /// partition that was not cached).
    pub fn merge(&mut self, other: &TaskMetrics) {
        self.rows_in += other.rows_in;
        self.bytes_in += other.bytes_in;
        self.ops += other.ops;
        self.sort_rows += other.sort_rows;
        self.skipped_rows += other.skipped_rows;
        self.skipped_bytes += other.skipped_bytes;
        if source_rank(other.input_source) > source_rank(self.input_source) {
            self.input_source = other.input_source;
        }
    }

    /// Convert to a [`TaskCostInput`] for the cost model, scaling data
    /// volumes by `scale` (the ratio between simulated and actual data size)
    /// and attaching the output sink.
    pub fn to_cost_input(&self, scale: f64, output: OutputSink) -> TaskCostInput {
        let expr_ops_per_row = if self.rows_in > 0 {
            self.ops / self.rows_in as f64
        } else {
            0.0
        };
        TaskCostInput {
            rows_in: (self.rows_in as f64 * scale) as u64,
            bytes_in: (self.bytes_in as f64 * scale) as u64,
            rows_out: (self.rows_out as f64 * scale) as u64,
            bytes_out: (self.bytes_out as f64 * scale) as u64,
            input: self.input_source,
            output,
            expr_ops_per_row,
            sort_rows: (self.sort_rows as f64 * scale) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_source_upgrades_to_most_expensive() {
        let mut m = TaskMetrics::new();
        m.record_input(10, 100, InputSource::CachedColumnar);
        assert_eq!(m.input_source, InputSource::CachedColumnar);
        m.record_input(10, 100, InputSource::Dfs);
        assert_eq!(m.input_source, InputSource::Dfs);
        m.record_input(10, 100, InputSource::CachedRows);
        assert_eq!(m.input_source, InputSource::Dfs);
        assert_eq!(m.rows_in, 30);
        assert_eq!(m.bytes_in, 300);
    }

    #[test]
    fn cost_input_scales_volumes() {
        let mut m = TaskMetrics::new();
        m.record_input(100, 1000, InputSource::Dfs);
        m.record_output(10, 50);
        m.add_ops(300.0);
        let c = m.to_cost_input(10.0, OutputSink::Collect);
        assert_eq!(c.rows_in, 1000);
        assert_eq!(c.bytes_in, 10_000);
        assert_eq!(c.rows_out, 100);
        assert_eq!(c.bytes_out, 500);
        assert!((c.expr_ops_per_row - 3.0).abs() < 1e-12);
        assert_eq!(c.output, OutputSink::Collect);
    }

    #[test]
    fn merge_combines_nested_metrics() {
        let mut a = TaskMetrics::new();
        a.record_input(5, 50, InputSource::CachedRows);
        let mut b = TaskMetrics::new();
        b.record_input(10, 100, InputSource::Dfs);
        b.add_ops(7.0);
        b.add_sort(3);
        a.merge(&b);
        assert_eq!(a.rows_in, 15);
        assert_eq!(a.bytes_in, 150);
        assert_eq!(a.ops, 7.0);
        assert_eq!(a.sort_rows, 3);
        assert_eq!(a.input_source, InputSource::Dfs);
    }

    #[test]
    fn zero_rows_gives_zero_ops_per_row() {
        let m = TaskMetrics::new();
        let c = m.to_cost_input(1.0, OutputSink::None);
        assert_eq!(c.expr_ops_per_row, 0.0);
    }
}
