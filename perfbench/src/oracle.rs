//! An answer check that shares no code with the engine: each statement
//! class is evaluated row at a time over the generators' raw rows, and
//! every result the server returns is compared with that answer.
//!
//! Unordered results compare as multisets through an order-independent
//! fingerprint. ORDER BY … LIMIT results must carry exactly the expected
//! sequence of sort keys, and each row must come from the expected rows of
//! its tie group, so any valid choice among ties passes.

use std::collections::{BTreeMap, HashMap};

use shark_common::{Row, Value};
use shark_datagen::tpch::{self, TpchConfig};

use crate::mix::Class;

/// The generated base tables, exactly as the server's generators produce
/// them partition by partition.
pub struct Tables {
    pub lineitem: Vec<Row>,
    pub supplier: Vec<Row>,
    pub orders: Vec<Row>,
}

/// Partition counts of the three tables.
#[derive(Clone, Copy)]
pub struct Partitions {
    pub lineitem: usize,
    pub supplier: usize,
    pub orders: usize,
}

impl Tables {
    pub fn generate(cfg: &TpchConfig, parts: Partitions) -> Tables {
        let gen = |n: usize, f: &dyn Fn(usize) -> Vec<Row>| (0..n).flat_map(f).collect();
        Tables {
            lineitem: gen(parts.lineitem, &|p| {
                tpch::lineitem_partition(cfg, parts.lineitem, p)
            }),
            supplier: gen(parts.supplier, &|p| {
                tpch::supplier_partition(cfg, parts.supplier, p)
            }),
            orders: gen(parts.orders, &|p| {
                tpch::orders_partition(cfg, parts.orders, p)
            }),
        }
    }
}

/// The expected answer of one statement class.
pub enum Expected {
    /// Any row order; compared as a multiset.
    Rows(Fingerprint),
    /// ORDER BY `key` DESC LIMIT `limit`: the sorted candidates up to the
    /// limit, extended to the end of the tie group the limit cuts.
    Ordered {
        key: usize,
        limit: usize,
        total: usize,
        prefix: Vec<Row>,
    },
    /// DDL: success is the answer.
    Done,
}

/// Order-independent fingerprint of a multiset of rows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fingerprint {
    rows: u64,
    sum: u64,
}

impl Fingerprint {
    pub fn of(rows: &[Row]) -> Fingerprint {
        Fingerprint {
            rows: rows.len() as u64,
            sum: rows
                .iter()
                .fold(0, |sum, row| sum.wrapping_add(row_hash(row))),
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn value_hash(value: &Value) -> u64 {
    match value {
        Value::Null => mix(1),
        Value::Int(v) => mix(2 ^ (*v as u64).rotate_left(8)),
        Value::Float(v) => mix(3 ^ v.to_bits().rotate_left(8)),
        Value::Bool(v) => mix(4 ^ (*v as u64) << 8),
        Value::Date(v) => mix(5 ^ (*v as u64) << 8),
        Value::Str(s) => s
            .bytes()
            .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
            })
            .wrapping_add(6),
    }
}

fn row_hash(row: &Row) -> u64 {
    row.values()
        .iter()
        .fold(0x5851_F42D_4C95_7F2Du64, |h, v| mix(h ^ value_hash(v)))
}

/// Sort candidates by column `key` descending and keep the rows an
/// ORDER BY … LIMIT answer may draw from.
fn ordered(mut rows: Vec<Row>, key: usize, limit: usize) -> Expected {
    let sort_key = |r: &Row| match r.get(key) {
        Value::Float(v) => *v,
        other => panic!("oracle sort key must be a float, found {other:?}"),
    };
    rows.sort_by(|a, b| sort_key(b).total_cmp(&sort_key(a)));
    let total = rows.len();
    let mut end = limit.min(total);
    while end > 0 && end < total && rows[end].get(key) == rows[end - 1].get(key) {
        end += 1;
    }
    rows.truncate(end);
    Expected::Ordered {
        key,
        limit,
        total,
        prefix: rows,
    }
}

fn f(row: &Row, i: usize) -> f64 {
    match row.get(i) {
        Value::Float(v) => *v,
        other => panic!("expected a float, found {other:?}"),
    }
}

/// Evaluate one statement class over the raw rows.
pub fn evaluate(tables: &Tables, class: Class) -> Expected {
    // lineitem: l_orderkey 0, l_suppkey 2, l_quantity 3, l_extendedprice 4,
    // l_shipmode 5. supplier: s_suppkey 0, s_name 1. orders: o_orderkey 0,
    // o_custkey 1, o_totalprice 2.
    let li = &tables.lineitem;
    match class {
        Class::CountFilter => {
            let n = li.iter().filter(|r| f(r, 3) > 10.0).count();
            Expected::Rows(Fingerprint::of(&[Row::new(vec![Value::Int(n as i64)])]))
        }
        Class::GroupBy => {
            let mut groups: BTreeMap<String, (i64, f64)> = BTreeMap::new();
            for r in li {
                let mode = r.get_str(5).expect("l_shipmode is a string");
                let g = groups.entry(mode.to_string()).or_default();
                g.0 += 1;
                g.1 += f(r, 3);
            }
            let rows: Vec<Row> = groups
                .into_iter()
                .map(|(mode, (n, sum))| {
                    Row::new(vec![Value::str(mode), Value::Int(n), Value::Float(sum)])
                })
                .collect();
            Expected::Rows(Fingerprint::of(&rows))
        }
        Class::ScanFilter => {
            let rows: Vec<Row> = li
                .iter()
                .filter(|r| f(r, 3) > 45.0)
                .map(|r| Row::new(vec![r.get(0).clone(), r.get(3).clone()]))
                .collect();
            Expected::Rows(Fingerprint::of(&rows))
        }
        Class::TopK => {
            let rows = li
                .iter()
                .map(|r| Row::new(vec![r.get(0).clone(), r.get(4).clone(), r.get(5).clone()]))
                .collect();
            ordered(rows, 1, 10)
        }
        Class::JoinTopK => {
            let names: HashMap<i64, &Value> = tables
                .supplier
                .iter()
                .map(|s| (s.get_int(0).expect("s_suppkey is an int"), s.get(1)))
                .collect();
            let rows = li
                .iter()
                .filter(|r| f(r, 3) > 45.0)
                .filter_map(|r| {
                    let name = names.get(&r.get_int(2).ok()?)?;
                    Some(Row::new(vec![
                        r.get(0).clone(),
                        (*name).clone(),
                        r.get(4).clone(),
                    ]))
                })
                .collect();
            ordered(rows, 2, 10)
        }
        Class::CtasRead => {
            let rows: Vec<Row> = tables
                .orders
                .iter()
                .filter(|r| f(r, 2) > 250_000.0)
                .map(|r| Row::new(vec![r.get(0).clone(), r.get(1).clone(), r.get(2).clone()]))
                .collect();
            Expected::Rows(Fingerprint::of(&rows))
        }
        Class::Ctas | Class::Drop => Expected::Done,
    }
}

/// Whether `rows` is a correct answer.
pub fn matches(expected: &Expected, rows: &[Row]) -> bool {
    match expected {
        Expected::Rows(fp) => Fingerprint::of(rows) == *fp,
        Expected::Done => true,
        Expected::Ordered {
            key,
            limit,
            total,
            prefix,
        } => {
            if rows.len() != (*limit).min(*total) {
                return false;
            }
            let mut pool: Vec<Option<&Row>> = prefix.iter().map(Some).collect();
            rows.iter().enumerate().all(|(i, row)| {
                if row.len() <= *key || row.get(*key) != prefix[i].get(*key) {
                    return false;
                }
                match pool.iter_mut().find(|slot| slot.is_some_and(|r| r == row)) {
                    Some(slot) => {
                        *slot = None;
                        true
                    }
                    None => false,
                }
            })
        }
    }
}
