//! Seeded generation of valid relational GraQL scripts over the Berlin
//! schema (paper Appendix A), for the differential oracle.
//!
//! The generator is *constructive*: instead of generating arbitrary text
//! and filtering out rejects, it builds each `select` so that it is valid
//! by construction — comparisons are type-compatible, projected columns
//! appear in `group by`, `order by` keys exist in the output schema, and
//! output column names are unique (the engine rejects duplicate names in
//! `rename`). Every script therefore executes cleanly on all three
//! evaluation paths, and any divergence is a real semantics bug, not a
//! generator artifact.

/// SplitMix64 — the same tiny deterministic generator failpoints use
/// for their firing rolls; good enough statistical quality for test-case choice
/// and fully reproducible from a `u64` seed.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// True with probability `pct`%.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Value domain of one column, used to draw plausible literals.
#[derive(Debug, Clone, Copy)]
enum Domain {
    Int {
        lo: i64,
        hi: i64,
    },
    Float {
        lo: f64,
        hi: f64,
    },
    /// Identifiers of the form `{prefix}{0..n}` (e.g. `product17`).
    Ids {
        prefix: &'static str,
        n: u64,
    },
    Pool(&'static [&'static str]),
    /// Dates and free text: usable for projection / grouping / ordering
    /// but not for literal comparisons.
    Opaque,
}

struct Col {
    name: &'static str,
    domain: Domain,
    /// Numeric under the engine's `is_numeric` (sum/avg eligible).
    numeric: bool,
}

const fn col(name: &'static str, domain: Domain, numeric: bool) -> Col {
    Col {
        name,
        domain,
        numeric,
    }
}

const PUBLISHERS: &[&str] = &["pub0", "pub1", "pub2", "pub3", "pub4"];

struct TableInfo {
    name: &'static str,
    cols: &'static [Col],
}

/// The Berlin tables the generator draws from (the entity tables; the
/// two link tables are covered by the graph-side tests).
fn tables() -> &'static [TableInfo] {
    use Domain::*;
    const COUNTRIES: &[&str] = graql_bsbm::gen::COUNTRIES;
    static PRODUCTS: &[Col] = &[
        col(
            "id",
            Ids {
                prefix: "product",
                n: 60,
            },
            false,
        ),
        col("label", Opaque, false),
        col(
            "producer",
            Ids {
                prefix: "producer",
                n: 12,
            },
            false,
        ),
        col("propertyNumeric_1", Int { lo: 1, hi: 2000 }, true),
        col("propertyNumeric_2", Int { lo: 1, hi: 2000 }, true),
        col("propertyNumeric_3", Int { lo: 1, hi: 2000 }, true),
        col("propertyNumeric_4", Int { lo: 1, hi: 2000 }, true),
        col("propertyNumeric_5", Int { lo: 1, hi: 2000 }, true),
        col("publisher", Pool(PUBLISHERS), false),
        col("date", Opaque, false),
    ];
    static OFFERS: &[Col] = &[
        col(
            "id",
            Ids {
                prefix: "offer",
                n: 400,
            },
            false,
        ),
        col(
            "product",
            Ids {
                prefix: "product",
                n: 60,
            },
            false,
        ),
        col(
            "vendor",
            Ids {
                prefix: "vendor",
                n: 12,
            },
            false,
        ),
        col(
            "price",
            Float {
                lo: 5.0,
                hi: 10_000.0,
            },
            true,
        ),
        col("deliveryDays", Int { lo: 1, hi: 14 }, true),
        col("publisher", Pool(PUBLISHERS), false),
        col("validFrom", Opaque, false),
    ];
    static REVIEWS: &[Col] = &[
        col(
            "id",
            Ids {
                prefix: "review",
                n: 400,
            },
            false,
        ),
        col(
            "reviewFor",
            Ids {
                prefix: "product",
                n: 60,
            },
            false,
        ),
        col(
            "reviewer",
            Ids {
                prefix: "person",
                n: 30,
            },
            false,
        ),
        col("ratings_1", Int { lo: 1, hi: 10 }, true),
        col("ratings_2", Int { lo: 1, hi: 10 }, true),
        col("ratings_3", Int { lo: 1, hi: 10 }, true),
        col("ratings_4", Int { lo: 1, hi: 10 }, true),
        col("publisher", Pool(PUBLISHERS), false),
        col("reviewDate", Opaque, false),
    ];
    static PRODUCERS: &[Col] = &[
        col(
            "id",
            Ids {
                prefix: "producer",
                n: 12,
            },
            false,
        ),
        col("country", Pool(COUNTRIES), false),
        col("publisher", Pool(PUBLISHERS), false),
    ];
    static VENDORS: &[Col] = &[
        col(
            "id",
            Ids {
                prefix: "vendor",
                n: 12,
            },
            false,
        ),
        col("country", Pool(COUNTRIES), false),
        col("publisher", Pool(PUBLISHERS), false),
    ];
    static PERSONS: &[Col] = &[
        col(
            "id",
            Ids {
                prefix: "person",
                n: 30,
            },
            false,
        ),
        col("name", Opaque, false),
        col("country", Pool(COUNTRIES), false),
        col("publisher", Pool(PUBLISHERS), false),
    ];
    static TABLES: &[TableInfo] = &[
        TableInfo {
            name: "Products",
            cols: PRODUCTS,
        },
        TableInfo {
            name: "Offers",
            cols: OFFERS,
        },
        TableInfo {
            name: "Reviews",
            cols: REVIEWS,
        },
        TableInfo {
            name: "Producers",
            cols: PRODUCERS,
        },
        TableInfo {
            name: "Vendors",
            cols: VENDORS,
        },
        TableInfo {
            name: "Persons",
            cols: PERSONS,
        },
    ];
    TABLES
}

/// Seeded generator of relational GraQL scripts.
pub struct ScriptGen {
    rng: TestRng,
    /// Monotone counter for `into table` / `into subgraph` result names,
    /// so a sequence of graph scripts never collides on a registered name.
    graph_seq: u64,
}

impl ScriptGen {
    pub fn new(seed: u64) -> Self {
        ScriptGen {
            rng: TestRng::new(seed),
            graph_seq: 0,
        }
    }

    /// The next script: one or two read-only `select` statements.
    pub fn next_script(&mut self) -> String {
        let n = if self.rng.chance(25) { 2 } else { 1 };
        (0..n)
            .map(|_| self.next_select())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// One valid `select … from table …` statement.
    pub fn next_select(&mut self) -> String {
        let table = self.rng.pick_table();
        let mut sql = String::from("select ");
        let distinct = self.rng.chance(20);
        if distinct {
            sql.push_str("distinct ");
        }
        let top = if self.rng.chance(35) {
            Some(1 + self.rng.below(20))
        } else {
            None
        };
        if let Some(n) = top {
            sql.push_str(&format!("top {n} "));
        }

        // Projection shape: star, plain columns, or aggregation.
        let shape = self.rng.below(10);
        let mut out_names: Vec<String> = Vec::new();
        let group_by: Vec<&'static str>;
        if shape < 2 {
            // select *
            sql.push('*');
            group_by = Vec::new();
            out_names.extend(table.cols.iter().map(|c| c.name.to_string()));
        } else if shape < 6 {
            // Plain projection of 1..4 distinct columns with optional aliases.
            let n_cols = 1 + self.rng.below(3) as usize;
            let picked = self.pick_distinct_cols(table, n_cols);
            group_by = Vec::new();
            let items: Vec<String> = picked
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    if self.rng.chance(30) {
                        let alias = format!("a{i}");
                        out_names.push(alias.clone());
                        format!("{} as {alias}", c.name)
                    } else {
                        out_names.push(c.name.to_string());
                        c.name.to_string()
                    }
                })
                .collect();
            sql.push_str(&items.join(", "));
        } else {
            // Aggregation: group by 0..2 columns, project (a subset of) the
            // group columns plus 1..3 aggregate calls.
            let n_groups = self.rng.below(3) as usize;
            let groups = self.pick_distinct_cols(table, n_groups);
            group_by = groups.iter().map(|c| c.name).collect();
            let mut items: Vec<String> = Vec::new();
            for c in &groups {
                out_names.push(c.name.to_string());
                items.push(c.name.to_string());
            }
            let n_aggs = 1 + self.rng.below(3);
            for i in 0..n_aggs {
                let (call, needs_alias) = self.gen_agg(table);
                let idx = items.len();
                if needs_alias || self.rng.chance(60) {
                    let alias = format!("m{i}");
                    out_names.push(alias.clone());
                    items.push(format!("{call} as {alias}"));
                } else {
                    out_names.push(format!("agg_{idx}"));
                    items.push(call);
                }
            }
            sql.push_str(&items.join(", "));
        }

        sql.push_str(&format!(" from table {}", table.name));

        if self.rng.chance(70) {
            let w = self.gen_where(table);
            sql.push_str(&format!(" where {w}"));
        }
        if !group_by.is_empty() {
            sql.push_str(&format!(" group by {}", group_by.join(", ")));
        }
        // Order by a subset of the output columns. The oracle demands
        // byte-identical output, which a stable sort gives us even under
        // ties (both the engine and the reference preserve input order).
        if self.rng.chance(65) && !out_names.is_empty() {
            let n_keys = 1 + self.rng.below(2.min(out_names.len() as u64));
            let mut keys: Vec<String> = Vec::new();
            let mut used: Vec<usize> = Vec::new();
            for _ in 0..n_keys {
                let i = self.rng.below(out_names.len() as u64) as usize;
                if used.contains(&i) {
                    continue;
                }
                used.push(i);
                let dir = if self.rng.chance(40) { " desc" } else { "" };
                keys.push(format!("{}{dir}", out_names[i]));
            }
            sql.push_str(&format!(" order by {}", keys.join(", ")));
        }
        sql
    }

    /// One graph-heavy script over the Berlin graph (paper Figs. 2–3):
    /// a multi-hop pattern `select … from graph … into table/subgraph`,
    /// usually followed by a relational postprocessing statement over the
    /// materialized result. Patterns are valid by construction (edge
    /// directions match the schema, vertex conditions are type-correct),
    /// and every path enumeration's row order is part of the contract —
    /// these scripts are what proves the morsel-parallel executor
    /// byte-identical to the serial one.
    pub fn next_graph_script(&mut self) -> String {
        const COUNTRIES: &[&str] = graql_bsbm::gen::COUNTRIES;
        self.graph_seq += 1;
        let t = format!("G{}", self.graph_seq);
        match self.rng.below(6) {
            // Feature-overlap similarity (Fig. 6 shape): products sharing
            // a feature with a fixed product, counted per product.
            0 => {
                let p = format!("product{}", self.rng.below(48));
                let k = 1 + self.rng.below(10);
                format!(
                    "select y.id from graph \
                       ProductVtx(id = '{p}') --feature--> FeatureVtx() \
                       <--feature-- def y: ProductVtx(id != '{p}') \
                     into table {t}\n\
                     select top {k} id, count(*) as groupCount from table {t} \
                     group by id order by groupCount desc, id asc"
                )
            }
            // Vendors offering products from one producer country.
            1 => {
                let c = *self.rng.pick(COUNTRIES);
                format!(
                    "select v.id from graph \
                       ProducerVtx(country = '{c}') <--producer-- ProductVtx() \
                       <--product-- OfferVtx() --vendor--> def v: VendorVtx() \
                     into table {t}\n\
                     select id, count(*) as offers from table {t} \
                     group by id order by offers desc, id asc"
                )
            }
            // Cheapest qualifying offer per product carrying a feature.
            2 => {
                let f = format!("feature{}", self.rng.below(24));
                let x = 100.0 + self.rng.unit() * 9000.0;
                format!(
                    "select y.id, o.price as price from graph \
                       FeatureVtx(id = '{f}') <--feature-- def y: ProductVtx() \
                       <--product-- def o: OfferVtx(price < {x:.2}) \
                     into table {t}\n\
                     select id, min(price) as cheapest from table {t} \
                     group by id order by cheapest asc, id asc"
                )
            }
            // Products reviewed (well) by reviewers from one country.
            3 => {
                let c = *self.rng.pick(COUNTRIES);
                let r = 1 + self.rng.below(9);
                format!(
                    "select p.id from graph \
                       PersonVtx(country = '{c}') <--reviewer-- \
                       ReviewVtx(ratings_1 >= {r}) --reviewFor--> def p: ProductVtx() \
                     into table {t}\n\
                     select id, count(*) as reviews from table {t} \
                     group by id order by reviews desc, id asc"
                )
            }
            // Whole-match table (Fig. 13 shape): one row per binding, all
            // attributes — the raw enumeration order is the output.
            4 => {
                let r = 1 + self.rng.below(9);
                let k = 100 + self.rng.below(1900);
                format!(
                    "select * from graph \
                       ReviewVtx(ratings_1 > {r}) --reviewFor--> \
                       ProductVtx(propertyNumeric_1 <= {k}) \
                     into table {t}"
                )
            }
            // Subgraph capture through the type hierarchy (Fig. 10 shape).
            _ => {
                let p = format!("product{}", self.rng.below(48));
                format!(
                    "select * from graph ProductVtx(id = '{p}') --type--> TypeVtx() \
                     {{ --subclass--> TypeVtx() }}* --> TypeVtx() \
                     into subgraph SG{}",
                    self.graph_seq
                )
            }
        }
    }

    /// `count(*)`, `count(c)`, `min`/`max` over any column, `sum`/`avg`
    /// over numeric columns only. Returns the call text and whether it
    /// must be aliased (never required today; kept for clarity).
    fn gen_agg(&mut self, table: &TableInfo) -> (String, bool) {
        let numeric: Vec<&Col> = table.cols.iter().filter(|c| c.numeric).collect();
        let choice = self.rng.below(6);
        let call = match choice {
            0 => "count(*)".to_string(),
            1 => format!("count({})", self.rng.pick(table.cols).name),
            2 if !numeric.is_empty() => format!("sum({})", self.rng.pick(&numeric).name),
            3 if !numeric.is_empty() => format!("avg({})", self.rng.pick(&numeric).name),
            4 => format!("min({})", self.rng.pick(table.cols).name),
            5 => format!("max({})", self.rng.pick(table.cols).name),
            _ => "count(*)".to_string(),
        };
        (call, false)
    }

    /// A 1–3 clause boolean expression, type-correct by construction.
    fn gen_where(&mut self, table: &TableInfo) -> String {
        let n = 1 + self.rng.below(3);
        let mut parts: Vec<String> = Vec::new();
        for _ in 0..n {
            if let Some(p) = self.gen_predicate(table) {
                parts.push(p);
            }
        }
        if parts.is_empty() {
            parts.push(self.gen_predicate(table).unwrap_or_else(|| {
                // Every Berlin table has an `id` column.
                "id != ''".to_string()
            }));
        }
        let joiner = if self.rng.chance(70) { " and " } else { " or " };
        parts.join(joiner)
    }

    fn gen_predicate(&mut self, table: &TableInfo) -> Option<String> {
        let c = self.rng.pick(table.cols);
        let (lit, ordered) = match c.domain {
            Domain::Int { lo, hi } => {
                let span = (hi - lo).max(1) as u64;
                (format!("{}", lo + self.rng.below(span) as i64), true)
            }
            Domain::Float { lo, hi } => {
                let x = lo + self.rng.unit() * (hi - lo);
                (format!("{x:.2}"), true)
            }
            Domain::Ids { prefix, n } => (format!("'{prefix}{}'", self.rng.below(n)), false),
            Domain::Pool(pool) => (format!("'{}'", self.rng.pick(pool)), false),
            Domain::Opaque => return None,
        };
        let op = if ordered {
            *self.rng.pick(&["=", "!=", "<", "<=", ">", ">="])
        } else {
            *self.rng.pick(&["=", "!="])
        };
        let neg = if self.rng.chance(10) { "not " } else { "" };
        Some(format!("{neg}{} {op} {lit}", c.name))
    }

    /// `n` distinct columns of `table` (order randomized, no duplicates —
    /// duplicate output names are a rename error in the engine).
    fn pick_distinct_cols<'a>(&mut self, table: &'a TableInfo, n: usize) -> Vec<&'a Col> {
        let mut idx: Vec<usize> = (0..table.cols.len()).collect();
        // Partial Fisher–Yates.
        for i in 0..n.min(idx.len()) {
            let j = i + self.rng.below((idx.len() - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.into_iter().take(n).map(|i| &table.cols[i]).collect()
    }
}

impl TestRng {
    fn pick_table(&mut self) -> &'static TableInfo {
        let ts = tables();
        &ts[self.below(ts.len() as u64) as usize]
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_by_seed() {
        let a: Vec<String> = {
            let mut g = ScriptGen::new(7);
            (0..20).map(|_| g.next_script()).collect()
        };
        let b: Vec<String> = {
            let mut g = ScriptGen::new(7);
            (0..20).map(|_| g.next_script()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<String> = {
            let mut g = ScriptGen::new(8);
            (0..20).map(|_| g.next_script()).collect()
        };
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn generated_scripts_parse() {
        let mut g = ScriptGen::new(1);
        for i in 0..200 {
            let s = g.next_script();
            graql_parser::parse(&s).unwrap_or_else(|e| panic!("script {i} {s:?}: {e}"));
        }
    }

    #[test]
    fn generated_graph_scripts_parse() {
        let mut g = ScriptGen::new(1);
        for i in 0..120 {
            let s = g.next_graph_script();
            graql_parser::parse(&s).unwrap_or_else(|e| panic!("graph script {i} {s:?}: {e}"));
        }
    }

    #[test]
    fn graph_result_names_never_collide() {
        let mut g = ScriptGen::new(3);
        let mut names = std::collections::HashSet::new();
        for _ in 0..100 {
            let s = g.next_graph_script();
            let into = s
                .split("into ")
                .nth(1)
                .expect("graph scripts register a result");
            let name = into.split_whitespace().nth(1).unwrap().to_string();
            assert!(names.insert(name), "duplicate result name in {s}");
        }
    }
}
