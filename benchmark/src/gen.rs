//! The seeded request generator — the only consumer of `--seed` besides
//! the BSBM data generator. The server sees nothing but the scripts and
//! CSV produced here.
//!
//! A workload is a finite pool of distinct scripts (so every one can be
//! answered once in-process as the correctness reference) plus a seeded
//! draw over that pool. Literals are substituted into the script text,
//! because the wire carries no `%param%` bindings: a changed literal is a
//! different key for the server's text-keyed plan cache.

use graql_bsbm::gen::COUNTRIES;
use graql_bsbm::{queries, Scale};

/// Workload names, in the order the suite runs them. `BENCHMARK.json`
/// lists the same names with the reason each exists.
pub const WORKLOADS: [&str; 5] = [
    "bi_graph",
    "bi_relational",
    "lookup_pipelined",
    "scan_stream",
    "ingest_mixed",
];

/// Rows per `ingest` commit on `ingest_mixed`.
pub const CHUNK_ROWS: usize = 50;

/// Reads after each commit on `ingest_mixed`. The first of them rebuilds
/// the graph views the commit invalidated, so one read in this many is a
/// rebuild: well above 1%, so that p99 is one.
pub const READS_PER_COMMIT: usize = 20;

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, continuing from `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64. Written out here so the request stream depends on nothing
/// but the seed — not on which `rand` the workspace resolves.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Which serve path a script takes, as far as the generator can know it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Read-only and drawn often enough to stay in the plan cache.
    Hot,
    /// Read-only, drawn from a set larger than the plan cache.
    Cold,
    /// Takes the writer path (`into` capture or `ingest`); never cached.
    Write,
}

#[derive(Debug, Clone)]
pub struct Script {
    pub text: String,
    pub class: Class,
}

/// One template's slice of the pool: `dims[0] * dims[1]` scripts, one per
/// literal combination, most popular literal first.
#[derive(Debug, Clone)]
struct Group {
    first: usize,
    dims: [usize; 2],
    weight: f64,
    /// Zipf(1.0) per literal when true, uniform otherwise.
    zipf: bool,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Requests kept in flight on the (read) connection.
    pub in_flight: usize,
    pub scripts: Vec<Script>,
    groups: Vec<Group>,
    /// `harmonic[k]` = 1/1 + … + 1/k, the Zipf(1.0) cumulative weights.
    harmonic: Vec<f64>,
    /// A second connection commits `ingest` chunks beside the reads, on a
    /// durable server.
    pub writes: bool,
}

impl Workload {
    fn new(name: &'static str, in_flight: usize) -> Workload {
        Workload {
            name,
            in_flight,
            scripts: Vec::new(),
            groups: Vec::new(),
            harmonic: vec![0.0],
            writes: false,
        }
    }

    fn group(
        &mut self,
        weight: f64,
        zipf: bool,
        class: Class,
        dims: [usize; 2],
        text: impl Fn(usize, usize) -> String,
    ) {
        self.groups.push(Group {
            first: self.scripts.len(),
            dims,
            weight,
            zipf,
        });
        for a in 0..dims[0] {
            for b in 0..dims[1] {
                self.scripts.push(Script {
                    text: text(a, b),
                    class,
                });
            }
        }
        let widest = dims[0].max(dims[1]);
        for k in self.harmonic.len()..=widest {
            self.harmonic.push(self.harmonic[k - 1] + 1.0 / k as f64);
        }
    }

    /// Builds the named workload's pool for `seed` (`None` for a name
    /// that is not in [`WORKLOADS`]).
    pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
        Some(match name {
            "bi_graph" => bi_graph(),
            "bi_relational" => bi_relational(),
            "lookup_pipelined" => lookup_pipelined(seed, scale),
            "scan_stream" => scan_stream(),
            "ingest_mixed" => ingest_mixed(seed, scale),
            _ => return None,
        })
    }

    /// The seeded draw over the pool.
    pub fn stream(&self, seed: u64) -> Stream<'_> {
        Stream {
            workload: self,
            rng: Rng::new(seed ^ fnv1a(FNV_OFFSET, self.name.as_bytes())),
        }
    }

    /// FNV-1a over the first 4096 requests of the stream (and, where the
    /// workload writes, its first 8 chunks): equal for equal seeds.
    pub fn stream_hash(&self, seed: u64, scale: Scale) -> u64 {
        let mut stream = self.stream(seed);
        let mut hash = FNV_OFFSET;
        for _ in 0..4096 {
            hash = fnv1a(hash, self.scripts[stream.next_index()].text.as_bytes());
            hash = fnv1a(hash, b"\n");
        }
        if self.writes {
            for i in 0..8 {
                hash = fnv1a(hash, chunk(seed, scale, i).csv.as_bytes());
            }
        }
        hash
    }
}

pub struct Stream<'a> {
    workload: &'a Workload,
    rng: Rng,
}

impl Stream<'_> {
    fn rank(&mut self, n: usize, zipf: bool) -> usize {
        if !zipf {
            return self.rng.below(n);
        }
        let h = &self.workload.harmonic;
        let u = self.rng.unit() * h[n];
        // Rank r (0-based) covers (h[r], h[r + 1]].
        h[1..=n].partition_point(|&c| c <= u).min(n - 1)
    }

    /// Index into [`Workload::scripts`] of the next request.
    pub fn next_index(&mut self) -> usize {
        let w = self.workload;
        let total: f64 = w.groups.iter().map(|g| g.weight).sum();
        let mut u = self.rng.unit() * total;
        let mut pick = &w.groups[w.groups.len() - 1];
        for g in &w.groups {
            if u < g.weight {
                pick = g;
                break;
            }
            u -= g.weight;
        }
        let a = self.rank(pick.dims[0], pick.zipf);
        let b = self.rank(pick.dims[1], pick.zipf);
        pick.first + a * pick.dims[1] + b
    }
}

/// The graph phase of a two-statement BSBM query, without its `into`.
fn graph_phase(query: &str) -> &str {
    query
        .split("into table")
        .next()
        .expect("split yields at least one piece")
        .trim()
}

fn quoted(s: &str) -> String {
    format!("'{s}'")
}

/// Half the paper's Berlin Q1/Q2 as written (graph phase `into table`,
/// then the Table-1 tail: the writer path), half the read-only graph
/// phases of Q1–Q5. Products, features, types and countries are drawn
/// Zipf(1.0) over their most popular ranks, which keeps the pool small
/// enough to answer every script once as the reference.
fn bi_graph() -> Workload {
    const PRODUCTS: usize = 64;
    const FEATURES: usize = 32;
    const TYPES: usize = 32;
    const N_COUNTRIES: usize = 6;
    const MAX_PRICES: [&str; 4] = ["1000.0", "2500.0", "5000.0", "7500.0"];
    let q1 = |text: &str, c1: usize, c2: usize| {
        text.replace("%Country1%", &quoted(COUNTRIES[c1]))
            .replace("%Country2%", &quoted(COUNTRIES[c2]))
    };
    let q2 = |text: &str, p: usize| text.replace("%Product1%", &quoted(&format!("product{p}")));

    let mut w = Workload::new("bi_graph", 2);
    let pairs = [N_COUNTRIES, N_COUNTRIES];
    w.group(0.25, true, Class::Write, pairs, |a, b| {
        q1(queries::q1(), a, b)
    });
    w.group(0.25, true, Class::Write, [PRODUCTS, 1], |p, _| {
        q2(queries::q2(), p)
    });
    w.group(0.1, true, Class::Hot, pairs, |a, b| {
        q1(graph_phase(queries::q1()), a, b)
    });
    w.group(0.1, true, Class::Hot, [PRODUCTS, 1], |p, _| {
        q2(graph_phase(queries::q2()), p)
    });
    w.group(
        0.1,
        true,
        Class::Hot,
        [FEATURES, MAX_PRICES.len()],
        |f, m| {
            graph_phase(queries::q3())
                .replace("%Feature1%", &quoted(&format!("feature{f}")))
                .replace("%MaxPrice%", MAX_PRICES[m])
        },
    );
    // Q4 returns ~100 rows per producer of the country and carries most
    // of this workload's rows; over all twelve countries the row rate
    // depends less on how many producers one seed gives the first.
    w.group(0.1, true, Class::Hot, [COUNTRIES.len(), 1], |c, _| {
        graph_phase(queries::q4()).replace("%Country1%", &quoted(COUNTRIES[c]))
    });
    w.group(0.1, true, Class::Hot, [TYPES, 1], |t, _| {
        graph_phase(queries::q5()).replace("%Type1%", &quoted(&format!("type{t}")))
    });
    w
}

/// Table-1 statements over `Offers`/`Reviews`: `where` + `group by` +
/// aggregates + `distinct` + `order by` + `top n`, small results.
fn bi_relational() -> Workload {
    let month = |i: usize| format!("date '{}-{:02}-01'", 2005 + i / 4, 1 + 3 * (i % 4));
    let mut w = Workload::new("bi_relational", 2);
    w.group(1.0, false, Class::Hot, [16, 1], |p, _| {
        format!(
            "select top 10 vendor, count(*) as n, avg(price) as avgPrice from table Offers \
             where price < {}.0 group by vendor order by n desc, vendor asc",
            1000 + 500 * p
        )
    });
    w.group(1.0, false, Class::Hot, [12, 1], |d, _| {
        format!(
            "select top 10 product, min(price) as lo, max(price) as hi from table Offers \
             where deliveryDays <= {} group by product order by lo asc, product asc",
            2 + d
        )
    });
    w.group(1.0, false, Class::Hot, [10, 1], |r, _| {
        format!(
            "select distinct publisher, ratings_1 from table Reviews \
             where ratings_1 >= {} order by publisher asc, ratings_1 asc",
            1 + r
        )
    });
    w.group(1.0, false, Class::Hot, [16, 1], |m, _| {
        format!(
            "select top 20 reviewFor, count(*) as n, avg(ratings_2) as meanRating \
             from table Reviews where reviewDate >= {} \
             group by reviewFor order by n desc, reviewFor asc",
            month(m)
        )
    });
    w.group(1.0, false, Class::Hot, [4, 4], |m, p| {
        format!(
            "select top 10 vendor, sum(price) as total, max(deliveryDays) as slowest \
             from table Offers where validTo >= {} and price > {}.0 \
             group by vendor order by total desc, vendor asc",
            month(4 * m),
            2000 * p
        )
    });
    w
}

/// Point selects: 80% of draws from a hot set of 256 distinct scripts
/// (fits the 1024-entry plan cache), 20% from a cold set of 8192 (does
/// not). Each set takes a fixed share of every template, so the mix of
/// templates is the same for every seed; the seed picks the literals.
///
/// The selects are keyed lookups on the small dimension tables, told
/// apart by literal and by projected columns, so that a request executes
/// in tens of µs and parser, analysis, IR codec, plan cache, queue and
/// framing are most of it. The graph form of a point lookup
/// (`ProductVtx(id = …) --producer--> ProducerVtx()`) scans every product
/// for its candidates and costs over a millisecond, so it gets a 64th of
/// the draws: enough to keep the path in the mix without becoming it.
fn lookup_pipelined(seed: u64, scale: Scale) -> Workload {
    const HOT: usize = 256;
    const COLD: usize = 8192;
    const PARTY: [&str; 8] = [
        "id, label, country",
        "id, country",
        "id, label",
        "id, homepage",
        "id, label, homepage",
        "id, comment",
        "id, publisher, date",
        "id, label, comment, country",
    ];
    const TYPE: [&str; 3] = ["id, comment", "id, subclassOf", "id, publisher, date"];
    const PERSON: [&str; 1] = ["id, name, country"];
    // (table, key prefix, distinct keys, projections, share in 64ths)
    let tables: [(&str, &str, usize, &[&str], usize); 4] = [
        ("Producers", "producer", scale.producers(), &PARTY, 20),
        ("Vendors", "vendor", scale.vendors(), &PARTY[..3], 18),
        ("Types", "type", scale.types(), &TYPE, 18),
        ("Persons", "person", scale.persons(), &PERSON, 7),
    ];
    let mut rng = Rng::new(seed ^ 0x6c6f_6f6b_7570); // "lookup"
    let mut hot = Vec::new();
    let mut cold = Vec::new();
    let mut take = |mut scripts: Vec<String>, share: usize| {
        rng.shuffle(&mut scripts);
        let (n_hot, n_cold) = (HOT * share / 64, COLD * share / 64);
        assert!(n_hot + n_cold <= scripts.len(), "template too small");
        cold.extend(scripts.drain(n_hot..n_hot + n_cold));
        hot.extend(scripts.drain(..n_hot));
    };
    for (table, prefix, keys, projections, share) in tables {
        let scripts = projections
            .iter()
            .flat_map(|cols| {
                (0..keys).map(move |n| {
                    format!("select {cols} from table {table} where id = '{prefix}{n}'")
                })
            })
            .collect();
        take(scripts, share);
    }
    take((0..scale.products).map(hop).collect(), 1);
    // The issue's own example: a selective scan keyed by country.
    for (slot, country) in hot.iter_mut().zip(COUNTRIES) {
        *slot = format!("select id from table Producers where country = '{country}'");
    }
    let mut w = Workload::new("lookup_pipelined", 32);
    w.group(0.8, false, Class::Hot, [hot.len(), 1], |i, _| {
        hot[i].clone()
    });
    w.group(0.2, false, Class::Cold, [cold.len(), 1], |i, _| {
        cold[i].clone()
    });
    w
}

/// The graph form of a point lookup: one product's producer.
fn hop(product: usize) -> String {
    format!(
        "select ProducerVtx.id, ProducerVtx.country from graph \
         ProductVtx(id = 'product{product}') --producer--> ProducerVtx()"
    )
}

/// Reads in turns with commits: 256 hot graph point lookups (one
/// producer's products), one in flight.
///
/// Every commit invalidates the vertex/edge views and the next read
/// rebuilds them, so a read is either a lookup or a lookup behind a
/// rebuild. The reads are graph selects — the form that needs the views
/// the commits invalidate — over tables the commits do not touch, so the
/// reference answers hold. They start from the 400 producers, below the
/// executor's 4096-item floor for parallel scans: a scan above it spawns
/// threads per query, and on this host that costs 0.1 ms or 1 ms
/// depending on the hour, which is not what this workload is for.
fn ingest_mixed(seed: u64, scale: Scale) -> Workload {
    let mut producers: Vec<usize> = (0..scale.producers()).collect();
    Rng::new(seed ^ 0x006d_6978_6564).shuffle(&mut producers); // "mixed"
    let mut w = Workload::new("ingest_mixed", 1);
    w.group(1.0, false, Class::Hot, [256, 1], |i, _| {
        format!(
            "select P.id, P.label from graph \
             ProducerVtx(id = 'producer{}') <--producer-- def P: ProductVtx()",
            producers[i]
        )
    });
    w.writes = true;
    w
}

/// Full-width scans and the read-only form of Fig. 13: replies of 10k to
/// 40k rows, so render, frame encode, the socket and the client's table
/// assembly are the request.
fn scan_stream() -> Workload {
    const SCANS: [&str; 3] = [
        "select * from table Products",
        "select * from table Offers",
        // Fig. 13 captures `select *` with `into table`; without the
        // capture a table needs its attributes named.
        "select ReviewVtx.id as review, ReviewVtx.reviewDate, ReviewVtx.title, \
         ReviewVtx.ratings_1, ProductVtx.id as product, ProductVtx.label, ProductVtx.producer \
         from graph ReviewVtx() --reviewFor--> ProductVtx()",
    ];
    let mut w = Workload::new("scan_stream", 2);
    w.group(1.0, false, Class::Hot, [SCANS.len(), 1], |i, _| {
        SCANS[i].to_string()
    });
    w
}

/// One `ingest` commit of new rows for `ingest_mixed`.
pub struct Chunk {
    pub table: &'static str,
    pub file: String,
    pub csv: String,
}

/// Chunk `i` of the write stream: [`CHUNK_ROWS`] new `Offers` (every
/// third `i`) or `Reviews` (the others) in the BSBM generator's column
/// layout, with ids past the generated ones and foreign keys that exist.
///
/// A commit costs in proportion to the table it appends to (25 ms into
/// the 25k `Reviews`, 48 ms into the 40k `Offers`), so the commit
/// latencies have two modes. One to two puts the median in one of them
/// and the tail in the other; one to one left the median on the edge
/// between them (28 ms in one run, 44 ms in the next).
pub fn chunk(seed: u64, scale: Scale, i: u64) -> Chunk {
    use std::fmt::Write as _;
    let mut rng = Rng::new(seed ^ 0x696e_6765_7374 ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let date = |rng: &mut Rng| {
        format!(
            "{}-{:02}-{:02}",
            2005 + rng.below(4),
            1 + rng.below(12),
            1 + rng.below(28)
        )
    };
    let offers = i.is_multiple_of(3);
    // Chunks of the same table before this one.
    let (generated, earlier) = if offers {
        (scale.offers(), i / 3)
    } else {
        (scale.reviews(), i - i / 3 - 1)
    };
    let base = generated + earlier as usize * CHUNK_ROWS;
    let mut csv = String::new();
    for k in 0..CHUNK_ROWS {
        let id = base + k;
        let product = rng.below(scale.products);
        if offers {
            let _ = writeln!(
                csv,
                "offer{id},Offer,product{product},vendor{},{:.2},{},{},{},web{id},pub{},{}",
                rng.below(scale.vendors()),
                5.0 + rng.unit() * 9995.0,
                date(&mut rng),
                date(&mut rng),
                1 + rng.below(14),
                rng.below(5),
                date(&mut rng),
            );
        } else {
            let _ = writeln!(
                csv,
                "review{id},Review,product{product},person{},{},fresh,review,{},{},{},{},pub{},{}",
                rng.below(scale.persons()),
                date(&mut rng),
                1 + rng.below(10),
                1 + rng.below(10),
                1 + rng.below(10),
                1 + rng.below(10),
                rng.below(5),
                date(&mut rng),
            );
        }
    }
    let table = if offers { "Offers" } else { "Reviews" };
    Chunk {
        table,
        file: format!("chunk_{i}.csv"),
        csv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: usize = 10_000;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let scale = Scale::new(SCALE);
        for name in WORKLOADS {
            let hash = |seed| {
                Workload::build(name, seed, scale)
                    .unwrap()
                    .stream_hash(seed, scale)
            };
            assert_eq!(hash(7), hash(7), "{name}: same seed, same stream");
            assert_ne!(hash(7), hash(8), "{name}: second seed, other stream");
        }
    }

    #[test]
    fn every_script_parses_and_pools_hold_no_duplicates() {
        for name in WORKLOADS {
            let w = Workload::build(name, 1, Scale::new(SCALE)).unwrap();
            let mut seen = std::collections::HashSet::new();
            for s in &w.scripts {
                graql_parser::parse(&s.text).unwrap_or_else(|e| panic!("{}: {e}", s.text));
                assert!(seen.insert(&s.text), "{name}: duplicate script {}", s.text);
            }
        }
    }

    #[test]
    fn lookups_draw_hot_four_times_in_five() {
        let w = Workload::build("lookup_pipelined", 3, Scale::new(SCALE)).unwrap();
        let hot = w.scripts.iter().filter(|s| s.class == Class::Hot).count();
        let cold = w.scripts.iter().filter(|s| s.class == Class::Cold).count();
        assert_eq!((hot, cold), (256, 8192));
        let mut stream = w.stream(3);
        let draws = 20_000;
        let hot_draws = (0..draws)
            .filter(|_| w.scripts[stream.next_index()].class == Class::Hot)
            .count();
        let share = hot_draws as f64 / draws as f64;
        assert!((0.78..0.82).contains(&share), "hot share {share}");
    }

    #[test]
    fn zipf_favours_the_first_rank() {
        let w = Workload::build("bi_graph", 1, Scale::new(SCALE)).unwrap();
        let mut stream = w.stream(1);
        let mut first = 0;
        let mut last = 0;
        for _ in 0..50_000 {
            match stream.rank(64, true) {
                0 => first += 1,
                63 => last += 1,
                _ => {}
            }
        }
        assert!(first > 20 * last.max(1), "rank 0: {first}, rank 63: {last}");
    }

    #[test]
    fn chunks_are_deterministic_and_well_formed() {
        let scale = Scale::new(SCALE);
        assert_eq!(chunk(5, scale, 3).csv, chunk(5, scale, 3).csv);
        assert_ne!(chunk(5, scale, 3).csv, chunk(6, scale, 3).csv);
        let offers = chunk(5, scale, 0);
        assert_eq!(offers.table, "Offers");
        assert_eq!(offers.csv.lines().count(), CHUNK_ROWS);
        assert!(offers.csv.lines().all(|l| l.split(',').count() == 11));
        assert!(offers.csv.starts_with("offer40000,"));
        let reviews = chunk(5, scale, 1);
        assert_eq!(reviews.table, "Reviews");
        assert!(reviews.csv.lines().all(|l| l.split(',').count() == 13));
        // One Offers chunk, then two of Reviews; ids carry on per table.
        let first_id = |i| {
            chunk(5, scale, i)
                .csv
                .split(',')
                .next()
                .unwrap()
                .to_string()
        };
        let ids: Vec<String> = (0..5).map(first_id).collect();
        assert_eq!(
            ids,
            [
                "offer40000",
                "review25000",
                "review25050",
                "offer40050",
                "review25100"
            ]
        );
    }
}
