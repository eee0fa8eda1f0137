//! The statement mix: statement classes, their SQL text, the ways a client
//! can issue them, and the seeded generator that orders them.

/// One class of statement. Every read class has one fixed SQL text, so
/// repeats of it hit the server's plan cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// Global aggregate over a filtered scan.
    CountFilter,
    /// Seven-group aggregate.
    GroupBy,
    /// Selective projection scan (about a tenth of `lineitem`).
    ScanFilter,
    /// ORDER BY … LIMIT over `lineitem`.
    TopK,
    /// `lineitem` ⋈ `supplier`, then ORDER BY … LIMIT.
    JoinTopK,
    /// A cached CREATE TABLE … AS SELECT over `orders`.
    Ctas,
    /// The read-back of a client's CTAS table.
    CtasRead,
    /// DROP TABLE of a client's CTAS table.
    Drop,
}

/// The read classes, in report order.
pub const READS: [Class; 5] = [
    Class::CountFilter,
    Class::GroupBy,
    Class::ScanFilter,
    Class::TopK,
    Class::JoinTopK,
];

impl Class {
    /// Metric-name form of the class.
    pub fn name(self) -> &'static str {
        match self {
            Class::CountFilter => "count_filter",
            Class::GroupBy => "group_by",
            Class::ScanFilter => "scan_filter",
            Class::TopK => "topk",
            Class::JoinTopK => "join_topk",
            Class::Ctas => "ctas",
            Class::CtasRead => "ctas_read",
            Class::Drop => "drop",
        }
    }

    /// SQL text. `owner` names the client whose CTAS table the write
    /// classes touch, so two clients never race on one table name.
    pub fn sql(self, owner: usize) -> String {
        match self {
            Class::CountFilter => "SELECT COUNT(*) FROM lineitem WHERE l_quantity > 10".into(),
            Class::GroupBy => {
                "SELECT l_shipmode, COUNT(*), SUM(l_quantity) FROM lineitem GROUP BY l_shipmode"
                    .into()
            }
            Class::ScanFilter => {
                "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity > 45".into()
            }
            Class::TopK => "SELECT l_orderkey, l_extendedprice, l_shipmode FROM lineitem \
                            ORDER BY l_extendedprice DESC LIMIT 10"
                .into(),
            Class::JoinTopK => "SELECT l.l_orderkey, s.s_name, l.l_extendedprice \
                                FROM lineitem l JOIN supplier s ON l.l_suppkey = s.s_suppkey \
                                WHERE l.l_quantity > 45 ORDER BY l.l_extendedprice DESC LIMIT 10"
                .into(),
            Class::Ctas => format!(
                "CREATE TABLE ctas_c{owner} TBLPROPERTIES(\"shark.cache\" = \"true\") AS \
                 SELECT o_orderkey, o_custkey, o_totalprice FROM orders WHERE o_totalprice > 250000"
            ),
            Class::CtasRead => {
                format!("SELECT o_orderkey, o_custkey, o_totalprice FROM ctas_c{owner}")
            }
            Class::Drop => format!("DROP TABLE ctas_c{owner}"),
        }
    }
}

/// How a client issues a statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mode {
    /// `SessionHandle::sql`.
    Blocking,
    /// `SessionHandle::sql_stream` drained to the end.
    Streamed,
    /// `SharkClient::query` (or `query_stream` drained) over loopback TCP.
    Tcp,
}

impl Mode {
    /// Metric-name form of the mode.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Blocking => "blocking",
            Mode::Streamed => "streamed",
            Mode::Tcp => "tcp",
        }
    }
}

/// SplitMix64: a tiny seeded generator for statement order.
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of choices, derived from the run seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
