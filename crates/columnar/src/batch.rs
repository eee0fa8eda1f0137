//! Batch-at-a-time execution over encoded columns.
//!
//! A [`ColumnBatch`] is the unit the vectorized operators work on: a borrowed
//! view of one cached [`ColumnarPartition`], a column projection, and a
//! [`Selection`] of the rows that are still alive after the predicates applied
//! so far. Filters shrink the selection without touching the encoded data;
//! `Row`s are only built at the very end ([`ColumnBatch::materialize`]), which
//! is the late-materialization discipline of vectorized engines: a selective
//! scan never pays the per-row allocation cost for rows it is about to drop.

use shark_common::{DataType, Row, Value};

use crate::column::{unpack_bits, EncodedColumn};
use crate::partition::ColumnarPartition;

/// The set of partition rows still alive in a [`ColumnBatch`].
///
/// `All(n)` is the state before any predicate ran; predicate kernels narrow
/// it to an explicit, strictly ascending row-index list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Every row of a partition with `n` rows is selected.
    All(usize),
    /// An explicit, ascending list of selected row indices.
    Rows(Vec<u32>),
}

impl Selection {
    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            Selection::All(n) => *n,
            Selection::Rows(rows) => rows.len(),
        }
    }

    /// True when no rows survive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the selected partition-row indices in ascending order.
    pub fn iter(&self) -> SelectionIter<'_> {
        match self {
            Selection::All(n) => SelectionIter::All(0..*n),
            Selection::Rows(rows) => SelectionIter::Rows(rows.iter()),
        }
    }

    /// Keep only the selected rows for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let rows: Vec<u32> = self.iter().filter(|&i| keep(i)).map(|i| i as u32).collect();
        *self = Selection::Rows(rows);
    }
}

/// Iterator over the row indices of a [`Selection`].
pub enum SelectionIter<'a> {
    /// Dense range over every row.
    All(std::ops::Range<usize>),
    /// Sparse ascending index list.
    Rows(std::slice::Iter<'a, u32>),
}

impl Iterator for SelectionIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            SelectionIter::All(r) => r.next(),
            SelectionIter::Rows(it) => it.next().map(|&i| i as usize),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SelectionIter::All(r) => r.size_hint(),
            SelectionIter::Rows(it) => it.size_hint(),
        }
    }
}

/// A projected, filtered view over one [`ColumnarPartition`].
///
/// Columns stay in their compressed encodings for as long as possible;
/// operators communicate which rows survive through the [`Selection`].
pub struct ColumnBatch<'a> {
    partition: &'a ColumnarPartition,
    /// Original partition column index of each projected column.
    projection: &'a [usize],
    selection: Selection,
}

impl<'a> ColumnBatch<'a> {
    /// View `partition` through `projection` (original column indices, in
    /// output order) with every row selected.
    pub fn new(partition: &'a ColumnarPartition, projection: &'a [usize]) -> ColumnBatch<'a> {
        ColumnBatch {
            partition,
            projection,
            selection: Selection::All(partition.num_rows()),
        }
    }

    /// Number of projected columns.
    pub fn num_columns(&self) -> usize {
        self.projection.len()
    }

    /// Number of rows currently selected.
    pub fn num_selected(&self) -> usize {
        self.selection.len()
    }

    /// The current selection.
    pub fn selection(&self) -> &Selection {
        &self.selection
    }

    /// Replace the selection (used by predicate kernels).
    pub fn set_selection(&mut self, selection: Selection) {
        self.selection = selection;
    }

    /// Borrow the encoded column behind projected column `i`.
    pub fn column(&self, i: usize) -> &EncodedColumn {
        self.partition.column(self.projection[i])
    }

    /// Logical type of projected column `i`.
    pub fn column_type(&self, i: usize) -> DataType {
        self.partition.column_type(self.projection[i])
    }

    /// Decode the cell at partition row `row`, projected column `col`.
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.partition.value_at(row, self.projection[col])
    }

    /// Build a full projected [`Row`] for one partition row (the scratch row
    /// generic expression fallbacks evaluate against).
    pub fn scratch_row(&self, row: usize) -> Row {
        Row::new(
            (0..self.projection.len())
                .map(|c| self.value_at(row, c))
                .collect(),
        )
    }

    /// Decode one projected column for exactly the selected rows, in
    /// selection order. Run-length encodings are walked with a single
    /// cursor rather than probed per value.
    pub fn gather(&self, col: usize) -> Vec<Value> {
        gather_column(self.column(col), self.column_type(col), &self.selection)
    }

    /// Narrow the selection to the `k` rows that sort first under `keys`
    /// (projected column, descending) with ties broken by row order —
    /// exactly the rows a stable sort of [`ColumnBatch::materialize`] would
    /// put first — keeping them in row order. Only the key columns are
    /// decoded, and only for the selected rows.
    pub fn retain_top_k(&mut self, keys: &[(usize, bool)], k: usize) {
        let n = self.selection.len();
        if k >= n {
            return;
        }
        let gathered: Vec<(Vec<Value>, bool)> = keys
            .iter()
            .map(|&(c, desc)| (self.gather(c), desc))
            .collect();
        let mut positions: Vec<u32> = (0..n as u32).collect();
        if k > 0 {
            // Row position as the last key makes the order total, so the k
            // smallest form a unique set: the stable top-k.
            positions.select_nth_unstable_by(k - 1, |&a, &b| {
                for (column, desc) in &gathered {
                    let ord = column[a as usize].total_cmp(&column[b as usize]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                a.cmp(&b)
            });
        }
        positions.truncate(k);
        positions.sort_unstable();
        let rows = match &self.selection {
            Selection::All(_) => positions,
            Selection::Rows(rows) => positions.iter().map(|&p| rows[p as usize]).collect(),
        };
        self.selection = Selection::Rows(rows);
    }

    /// Estimated serialized size of the selected rows projected onto `cols`
    /// (projected column indices, repeats allowed): exactly what
    /// `estimate_slice` reports for the rows [`ColumnBatch::materialize`]
    /// would build from those columns, computed from the encodings without
    /// decoding a value.
    pub fn estimated_row_bytes(&self, cols: &[usize]) -> u64 {
        // A row costs a 4-byte header plus each of its values.
        let header = 4 * self.selection.len() as u64;
        header
            + cols
                .iter()
                .map(|&c| encoded_value_bytes(self.column(c), self.column_type(c), &self.selection))
                .sum::<u64>()
    }

    /// Late materialization: build output [`Row`]s for the surviving
    /// selection only. Produces exactly the rows (and row order) that
    /// decoding every column and filtering row-wise would.
    pub fn materialize(&self) -> Vec<Row> {
        let gathered: Vec<Vec<Value>> =
            (0..self.projection.len()).map(|c| self.gather(c)).collect();
        (0..self.selection.len())
            .map(|r| Row::new(gathered.iter().map(|col| col[r].clone()).collect()))
            .collect()
    }
}

/// Decode `col` at the selected indices only.
fn gather_column(col: &EncodedColumn, data_type: DataType, selection: &Selection) -> Vec<Value> {
    match col {
        EncodedColumn::IntRle { runs, nulls, .. } => {
            let mut out = Vec::with_capacity(selection.len());
            walk_runs(runs, nulls, selection, |v| {
                out.push(match v {
                    Some(&v) if data_type == DataType::Date => Value::Date(v as i32),
                    Some(&v) => Value::Int(v),
                    None => Value::Null,
                })
            });
            out
        }
        EncodedColumn::StrRle { runs, nulls, .. } => {
            let mut out = Vec::with_capacity(selection.len());
            walk_runs(runs, nulls, selection, |v| {
                out.push(v.map_or(Value::Null, |s| Value::Str(s.clone())))
            });
            out
        }
        EncodedColumn::IntBitPacked {
            min,
            bits,
            words,
            nulls,
            ..
        } => selection
            .iter()
            .map(|i| {
                if is_null_at(nulls, i) {
                    Value::Null
                } else {
                    let v = min + unpack_bits(words, *bits, i) as i64;
                    if data_type == DataType::Date {
                        Value::Date(v as i32)
                    } else {
                        Value::Int(v)
                    }
                }
            })
            .collect(),
        // O(1)-access encodings: random access per selected row.
        other => selection
            .iter()
            .map(|i| other.value_at(i, data_type))
            .collect(),
    }
}

/// Sum of `Value::estimated_size` over `col` at the selected indices: one
/// tag byte per value plus the payload (8 for ints and floats, 4 for dates,
/// 1 for booleans, a 4-byte length plus the bytes for strings, nothing for
/// NULL).
fn encoded_value_bytes(col: &EncodedColumn, data_type: DataType, selection: &Selection) -> u64 {
    let fixed = |nulls: &Option<Vec<bool>>, width: u64| -> u64 {
        let null_count = match nulls {
            Some(_) => selection.iter().filter(|&i| is_null_at(nulls, i)).count() as u64,
            None => 0,
        };
        null_count + (selection.len() as u64 - null_count) * (1 + width)
    };
    let int_width = if data_type == DataType::Date { 4 } else { 8 };
    let str_bytes = |s: &str| 5 + s.len() as u64;
    match col {
        EncodedColumn::IntPlain { nulls, .. } | EncodedColumn::IntBitPacked { nulls, .. } => {
            fixed(nulls, int_width)
        }
        EncodedColumn::FloatPlain { nulls, .. } => fixed(nulls, 8),
        EncodedColumn::BoolPacked { nulls, .. } => fixed(nulls, 1),
        EncodedColumn::AllNull { .. } => selection.len() as u64,
        EncodedColumn::IntRle { runs, nulls, .. } => {
            let mut total = 0u64;
            walk_runs(runs, nulls, selection, |v| {
                total += v.map_or(1, |_| 1 + int_width)
            });
            total
        }
        EncodedColumn::StrRle { runs, nulls, .. } => {
            let mut total = 0u64;
            walk_runs(runs, nulls, selection, |v| {
                total += v.map_or(1, |s| str_bytes(s))
            });
            total
        }
        EncodedColumn::StrPlain { values, nulls } => selection
            .iter()
            .map(|i| {
                if is_null_at(nulls, i) {
                    1
                } else {
                    str_bytes(&values[i])
                }
            })
            .sum(),
        EncodedColumn::StrDict { dict, codes, nulls } => selection
            .iter()
            .map(|i| {
                if is_null_at(nulls, i) {
                    1
                } else {
                    str_bytes(&dict[codes[i] as usize])
                }
            })
            .sum(),
    }
}

/// Visit a run-length-encoded column at the selected indices with one
/// forward cursor over the runs (the selection is ascending): `Some(value)`
/// for a row inside a run, `None` for a NULL or a position past the last
/// run.
fn walk_runs<V>(
    runs: &[(V, u32)],
    nulls: &Option<Vec<bool>>,
    selection: &Selection,
    mut visit: impl FnMut(Option<&V>),
) {
    let mut run_idx = 0usize;
    let mut run_start = 0usize;
    for i in selection.iter() {
        if is_null_at(nulls, i) {
            visit(None);
            continue;
        }
        while run_idx < runs.len() && i >= run_start + runs[run_idx].1 as usize {
            run_start += runs[run_idx].1 as usize;
            run_idx += 1;
        }
        visit(runs.get(run_idx).map(|(v, _)| v));
    }
}

fn is_null_at(mask: &Option<Vec<bool>>, i: usize) -> bool {
    mask.as_ref().map(|m| !m[i]).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{EncodingChoice, EncodingKind};
    use shark_common::{row, Schema};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("mode", DataType::Str),
            ("price", DataType::Float),
            ("day", DataType::Date),
        ])
    }

    fn partition(n: usize) -> ColumnarPartition {
        let modes = ["AIR", "SHIP", "TRUCK"];
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                row![
                    i as i64,
                    modes[i % 3],
                    i as f64 * 0.5,
                    Value::Date(10 + (i / 50) as i32)
                ]
            })
            .collect();
        ColumnarPartition::from_rows(&schema(), &rows)
    }

    #[test]
    fn materialize_all_matches_project_rows() {
        let part = partition(300);
        let projection = [1usize, 3];
        let batch = ColumnBatch::new(&part, &projection);
        assert_eq!(batch.materialize(), part.project_rows(&projection));
    }

    #[test]
    fn materialize_selection_matches_filtered_project_rows() {
        let part = partition(300);
        let projection = [0usize, 1, 2, 3];
        let mut batch = ColumnBatch::new(&part, &projection);
        let mut sel = batch.selection().clone();
        sel.retain(|i| i % 7 == 0);
        batch.set_selection(sel);
        let mut expected = part.project_rows(&projection);
        let mut keep = 0usize;
        expected.retain(|_| {
            let k = keep.is_multiple_of(7);
            keep += 1;
            k
        });
        assert_eq!(batch.materialize(), expected);
        assert_eq!(batch.num_selected(), expected.len());
    }

    #[test]
    fn gather_handles_every_encoding_with_sparse_selection() {
        let part = partition(300);
        let projection: Vec<usize> = (0..part.num_columns()).collect();
        for c in 0..part.num_columns() {
            let decoded = part.decode_column(c).unwrap();
            let mut batch = ColumnBatch::new(&part, &projection);
            batch.set_selection(Selection::Rows(vec![0, 3, 149, 150, 298]));
            let gathered = batch.gather(c);
            for (k, &i) in [0usize, 3, 149, 150, 298].iter().enumerate() {
                assert_eq!(gathered[k], decoded[i], "col {c} row {i}");
            }
        }
    }

    #[test]
    fn scratch_row_matches_materialized_row() {
        let part = partition(40);
        let projection = [2usize, 0];
        let batch = ColumnBatch::new(&part, &projection);
        let rows = batch.materialize();
        assert_eq!(batch.scratch_row(17), rows[17]);
    }

    /// Every encoding, with NULLs sprinkled in: under `Auto` the partition
    /// holds RLE ints and strings, bit-packed ints, plain floats and
    /// strings, dictionary strings, booleans, dates and an all-NULL column;
    /// `ForcePlain` adds the plain int layout.
    fn encoding_zoo(n: usize, choice: EncodingChoice) -> ColumnarPartition {
        let schema = Schema::from_pairs(&[
            ("run", DataType::Int),
            ("packed", DataType::Int),
            ("price", DataType::Float),
            ("mode", DataType::Str),
            ("note", DataType::Str),
            ("shade", DataType::Str),
            ("flag", DataType::Bool),
            ("day", DataType::Date),
            ("gap", DataType::Int),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let maybe = |v: Value| if i % 11 == 3 { Value::Null } else { v };
                Row::new(vec![
                    maybe(Value::Int((i / 40) as i64)),
                    maybe(Value::Int((i * 7 % 61) as i64)),
                    maybe(Value::Float(i as f64 * 0.25)),
                    maybe(Value::from(["AIR", "SHIP", "TRUCK"][i % 3])),
                    maybe(Value::from(format!("note-{i}").as_str())),
                    maybe(Value::from(["dark", "light"][(i / 50) % 2])),
                    maybe(Value::Bool(i % 2 == 0)),
                    maybe(Value::Date(100 + (i / 30) as i32)),
                    Value::Null,
                ])
            })
            .collect();
        ColumnarPartition::from_rows_with(&schema, &rows, choice)
    }

    fn zoos() -> [ColumnarPartition; 2] {
        let auto = encoding_zoo(300, EncodingChoice::Auto);
        let kinds: Vec<EncodingKind> = (0..auto.num_columns()).map(|c| auto.encoding(c)).collect();
        for kind in [
            EncodingKind::Plain,
            EncodingKind::RunLength,
            EncodingKind::Dictionary,
            EncodingKind::BitPacked,
            EncodingKind::AllNull,
        ] {
            assert!(kinds.contains(&kind), "zoo lacks {kind:?}: {kinds:?}");
        }
        [auto, encoding_zoo(300, EncodingChoice::ForcePlain)]
    }

    #[test]
    fn estimated_row_bytes_matches_estimate_slice_for_every_encoding() {
        use shark_common::size::estimate_slice;
        for part in zoos() {
            let projection: Vec<usize> = (0..part.num_columns()).collect();
            let selections = [
                Selection::All(300),
                Selection::Rows(vec![0, 3, 14, 149, 150, 298, 299]),
                Selection::Rows(Vec::new()),
            ];
            for selection in selections {
                let mut batch = ColumnBatch::new(&part, &projection);
                batch.set_selection(selection.clone());
                let rows = batch.materialize();
                for cols in [vec![0usize], vec![3, 0, 3], (0..9).collect(), vec![8, 6, 5]] {
                    let built: Vec<Row> = rows.iter().map(|r| r.project(&cols)).collect();
                    assert_eq!(
                        batch.estimated_row_bytes(&cols),
                        estimate_slice(&built) as u64,
                        "cols {cols:?}, selection {selection:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn retain_top_k_keeps_the_stable_sort_prefix_in_row_order() {
        for part in zoos() {
            let projection: Vec<usize> = (0..part.num_columns()).collect();
            let key_sets: [&[(usize, bool)]; 4] = [
                &[(0, false)],
                &[(3, true), (2, false)],
                &[(5, false), (0, true)],
                &[(8, false)],
            ];
            for keys in key_sets {
                for k in [0usize, 1, 7, 40, 299, 300, 500] {
                    for sparse in [false, true] {
                        let mut batch = ColumnBatch::new(&part, &projection);
                        if sparse {
                            let mut sel = batch.selection().clone();
                            sel.retain(|i| i % 3 != 1);
                            batch.set_selection(sel);
                        }
                        // Reference: stable sort of the materialized rows,
                        // keep the first k, restore row order.
                        let rows = batch.materialize();
                        let mut order: Vec<usize> = (0..rows.len()).collect();
                        order.sort_by(|&a, &b| {
                            for &(c, desc) in keys {
                                let ord = rows[a].get(c).total_cmp(rows[b].get(c));
                                let ord = if desc { ord.reverse() } else { ord };
                                if ord != std::cmp::Ordering::Equal {
                                    return ord;
                                }
                            }
                            std::cmp::Ordering::Equal
                        });
                        order.truncate(k);
                        order.sort_unstable();
                        let expected: Vec<Row> = order.iter().map(|&i| rows[i].clone()).collect();
                        batch.retain_top_k(keys, k);
                        assert_eq!(batch.num_selected(), expected.len());
                        assert_eq!(batch.materialize(), expected, "keys {keys:?} k {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_selection_materializes_nothing() {
        let part = partition(10);
        let projection = [0usize];
        let mut batch = ColumnBatch::new(&part, &projection);
        batch.set_selection(Selection::Rows(Vec::new()));
        assert!(batch.selection().is_empty());
        assert!(batch.materialize().is_empty());
    }
}
