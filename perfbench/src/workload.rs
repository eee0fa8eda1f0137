//! The three workloads and how a server is built for each.

use std::path::Path;
use std::sync::Arc;

use shark_datagen::tpch::{self, TpchConfig};
use shark_server::{ServerConfig, SharkServer};
use shark_sql::{RowGenerator, TableMeta};

use crate::mix::{Class, READS};
use crate::oracle::Partitions;

/// One workload: data, server configuration and statement mix.
pub struct Spec {
    pub tpch: TpchConfig,
    pub parts: Partitions,
    /// Memstore budget in bytes; `None` is unlimited.
    pub budget: Option<u64>,
    /// Whether the server gets a spill directory (and with it the WAL).
    pub spill: bool,
    /// Whether the closed loop runs over TCP instead of in-process.
    pub tcp: bool,
    /// Read classes of the mix; each appears once per deck in each of the
    /// two calls (blocking and streamed).
    pub reads: Vec<Class>,
    /// CTAS cycles (create, read back, drop) per deck.
    pub ctas_cycles: usize,
    /// Statements per round, split evenly over the clients: at least 1000,
    /// so a round's p99 has ten samples beyond it. Every round starts a
    /// fresh server, so the server-side query log, and with it the
    /// resident set, is the same size however fast the build is.
    pub stmts_per_round: usize,
}

/// Concurrent clients of the closed loop.
pub const CLIENTS: usize = 2;

/// Table names in registration order.
pub const TABLES: [&str; 3] = ["lineitem", "orders", "supplier"];

impl Spec {
    pub fn named(name: &str, seed: u64) -> Option<Spec> {
        let full = Partitions {
            lineitem: 16,
            supplier: 4,
            orders: 8,
        };
        let spec = match name {
            "olap_resident" => Spec {
                tpch: TpchConfig {
                    seed,
                    ..TpchConfig::default()
                },
                parts: full,
                budget: None,
                spill: false,
                tcp: false,
                reads: READS.to_vec(),
                ctas_cycles: 0,
                stmts_per_round: 1000,
            },
            "dashboard_tcp" => Spec {
                tpch: TpchConfig {
                    seed,
                    ..TpchConfig::tiny()
                },
                parts: Partitions {
                    lineitem: 8,
                    supplier: 4,
                    orders: 8,
                },
                budget: None,
                spill: false,
                tcp: true,
                reads: vec![
                    Class::CountFilter,
                    Class::GroupBy,
                    Class::ScanFilter,
                    Class::TopK,
                ],
                ctas_cycles: 0,
                stmts_per_round: 2000,
            },
            "tiered_rw" => Spec {
                tpch: TpchConfig {
                    seed,
                    ..TpchConfig::default()
                },
                parts: full,
                // About half of the three tables' resident footprint at
                // the seed commit (1.98 MB); a fixed byte count, so a
                // smaller columnar form shows up as fewer demotions.
                budget: Some(1_000_000),
                spill: true,
                tcp: false,
                reads: READS.to_vec(),
                ctas_cycles: 7,
                stmts_per_round: 1000,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// One deck of the mix: every step a client takes, once each. A
    /// client plays the deck in a seeded shuffled order, again and again,
    /// so the mix's proportions are exact and only its order is random.
    pub fn deck(&self) -> Vec<Vec<(Class, bool)>> {
        let mut deck = Vec::new();
        for &class in &self.reads {
            deck.push(vec![(class, false)]);
            deck.push(vec![(class, true)]);
        }
        for cycle in 0..self.ctas_cycles {
            let streamed = cycle % 2 == 1;
            deck.push(vec![
                (Class::Ctas, false),
                (Class::CtasRead, streamed),
                (Class::Drop, false),
            ]);
        }
        deck
    }

    /// Server configuration; `spill_dir` is set for tiers that need one.
    pub fn config(&self, spill_dir: Option<&Path>) -> ServerConfig {
        let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
        let mut config = ServerConfig::default().with_executor_threads(threads);
        if let Some(budget) = self.budget {
            config = config.with_memory_budget(budget);
        }
        if let Some(dir) = spill_dir {
            config = config.with_spill_dir(dir);
        }
        config
    }

    /// The row generator of a base table.
    pub fn generator(&self, table: &str) -> Option<RowGenerator> {
        let cfg = self.tpch.clone();
        let parts = self.parts;
        let generator: RowGenerator = match table {
            "lineitem" => Arc::new(move |p| tpch::lineitem_partition(&cfg, parts.lineitem, p)),
            "orders" => Arc::new(move |p| tpch::orders_partition(&cfg, parts.orders, p)),
            "supplier" => Arc::new(move |p| tpch::supplier_partition(&cfg, parts.supplier, p)),
            _ => return None,
        };
        Some(generator)
    }

    /// Register the three base tables as cached tables.
    pub fn register(&self, server: &SharkServer) {
        let nodes = server.context().config().cluster.num_nodes;
        for table in TABLES {
            let (schema, partitions, rows) = match table {
                "lineitem" => (
                    tpch::lineitem_schema(),
                    self.parts.lineitem,
                    self.tpch.lineitem_rows,
                ),
                "orders" => (
                    tpch::orders_schema(),
                    self.parts.orders,
                    self.tpch.orders_rows,
                ),
                _ => (
                    tpch::supplier_schema(),
                    self.parts.supplier,
                    self.tpch.supplier_rows,
                ),
            };
            let generator = self.generator(table).expect("base table has a generator");
            server.register_table(
                TableMeta::new(table, schema, partitions, move |p| generator(p))
                    .with_row_count_hint(rows as u64)
                    .with_cache(nodes),
            );
        }
    }
}
