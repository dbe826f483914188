//! Property tests: on random graphs, the engine's results must equal a
//! brute-force evaluation of the paper's semantics (Eq. 5), under every
//! planner mode and with culling on or off — and the simulated cluster
//! must agree with the single-node engine.

use graql::prelude::*;
use proptest::prelude::*;

/// A random bipartite-ish dataset: n_a rows of A(id, x), n_b rows of
/// B(id, y), plus `ab` edge pairs.
#[derive(Debug, Clone)]
struct Fixture {
    xs: Vec<i64>,
    ys: Vec<i64>,
    ab: Vec<(usize, usize)>,
    p: i64,
    q: i64,
}

fn fixture() -> impl Strategy<Value = Fixture> {
    (2usize..8, 2usize..8).prop_flat_map(|(na, nb)| {
        (
            proptest::collection::vec(0i64..10, na),
            proptest::collection::vec(0i64..10, nb),
            proptest::collection::vec((0..na, 0..nb), 0..20),
            0i64..10,
            0i64..10,
        )
            .prop_map(|(xs, ys, ab, p, q)| {
                let mut ab = ab;
                ab.sort();
                ab.dedup();
                Fixture { xs, ys, ab, p, q }
            })
    })
}

/// The A/B schema: tables `A(id, x)`, `B(id, y)`, `AB(a, b)`, vertices
/// `VA`, `VB` and the edge `ab`, with no rows.
fn ab_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "create table A(id integer, x integer)
         create table B(id integer, y integer)
         create table AB(a integer, b integer)
         create vertex VA(id) from table A
         create vertex VB(id) from table B
         create edge ab with vertices (VA, VB) from table AB
             where AB.a = VA.id and AB.b = VB.id",
    )
    .unwrap();
    db
}

fn build_db(f: &Fixture) -> Database {
    let mut db = ab_db();
    let a_csv: String =
        f.xs.iter()
            .enumerate()
            .map(|(i, x)| format!("{i},{x}\n"))
            .collect();
    let b_csv: String =
        f.ys.iter()
            .enumerate()
            .map(|(i, y)| format!("{i},{y}\n"))
            .collect();
    let ab_csv: String = f.ab.iter().map(|(a, b)| format!("{a},{b}\n")).collect();
    db.ingest_str("A", &a_csv).unwrap();
    db.ingest_str("B", &b_csv).unwrap();
    if !ab_csv.is_empty() {
        db.ingest_str("AB", &ab_csv).unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Eq. 5 set semantics: subgraph of `VA(x<p) --ab--> VB(y<q)` equals
    /// the brute-force participant sets, for all planner/culling modes.
    #[test]
    fn one_hop_set_semantics(f in fixture()) {
        // Brute force.
        let mut exp_a = std::collections::BTreeSet::new();
        let mut exp_b = std::collections::BTreeSet::new();
        for &(a, b) in &f.ab {
            if f.xs[a] < f.p && f.ys[b] < f.q {
                exp_a.insert(a);
                exp_b.insert(b);
            }
        }
        for culling in [true, false] {
            let mut db = build_db(&f);
            db.config_mut().culling = culling;
            let q = format!(
                "select * from graph VA(x < {}) --ab--> VB(y < {}) into subgraph g",
                f.p, f.q
            );
            let StmtOutput::Subgraph(sg) = db.execute_str(&q).unwrap() else { panic!() };
            db.graph().unwrap();
            let g = db.graph_ref().unwrap();
            let va = g.vtype("VA").unwrap();
            let vb = g.vtype("VB").unwrap();
            let got_a: std::collections::BTreeSet<usize> =
                sg.vertices_of(va).map(|s| s.iter().collect()).unwrap_or_default();
            let got_b: std::collections::BTreeSet<usize> =
                sg.vertices_of(vb).map(|s| s.iter().collect()).unwrap_or_default();
            prop_assert_eq!(&got_a, &exp_a, "A side, culling={}", culling);
            prop_assert_eq!(&got_b, &exp_b, "B side, culling={}", culling);
            // Matched edges too.
            let et = g.etype("ab").unwrap();
            let exp_edges = f
                .ab
                .iter()
                .filter(|&&(a, b)| f.xs[a] < f.p && f.ys[b] < f.q)
                .count();
            prop_assert_eq!(
                sg.edges_of(et).map(|s| s.count()).unwrap_or(0),
                exp_edges,
                "edges, culling={}", culling
            );
        }
    }

    /// Binding semantics: the V-path `VA --ab--> VB <--ab-- VA` produces
    /// one row per (a1, b, a2) triple; foreach closes it into a cycle.
    #[test]
    fn v_path_binding_semantics(f in fixture()) {
        let mut exp_rows = 0usize;
        let mut exp_cycles = 0usize;
        for &(a1, b1) in &f.ab {
            for &(a2, b2) in &f.ab {
                if b1 == b2 && f.xs[a1] < f.p {
                    exp_rows += 1;
                    if a1 == a2 {
                        exp_cycles += 1;
                    }
                }
            }
        }
        for mode in [PlanMode::Auto, PlanMode::ForwardOnly, PlanMode::ReverseOnly] {
            let mut db = build_db(&f);
            db.config_mut().plan_mode = mode;
            let q = format!(
                "select z.id from graph VA(x < {}) --ab--> VB() <--ab-- def z: VA()",
                f.p
            );
            let StmtOutput::Table(t) = db.execute_str(&q).unwrap() else { panic!() };
            prop_assert_eq!(t.n_rows(), exp_rows, "set-label rows, mode={:?}", mode);
            let q = format!(
                "select z.id from graph foreach w: VA(x < {}) --ab--> VB() <--ab-- def z: w",
                f.p
            );
            let StmtOutput::Table(t) = db.execute_str(&q).unwrap() else { panic!() };
            prop_assert_eq!(t.n_rows(), exp_cycles, "foreach cycles, mode={:?}", mode);
        }
    }

    /// Every binding of a one-hop path is exactly one extension of the
    /// communication profile: local or a message, never both or neither.
    #[test]
    fn cluster_profile_counts_every_binding_once(f in fixture(), nodes in 1usize..5) {
        let mut db = build_db(&f);
        db.graph().unwrap();
        let src = format!(
            "select * from graph VA(x < {}) --ab--> VB(y < {}) into subgraph g",
            f.p, f.q
        );
        let Stmt::Select(sel) = graql::parser::parse_statement(&src).unwrap() else {
            unreachable!()
        };
        let graql::parser::ast::SelectSource::Graph(
            graql::parser::ast::PathComposition::Single(path),
        ) = sel.source else { unreachable!() };
        let got = graql::cluster::comm_profile(&db, &path, nodes).unwrap();
        let exp = f
            .ab
            .iter()
            .filter(|&&(a, b)| f.xs[a] < f.p && f.ys[b] < f.q)
            .count();
        prop_assert_eq!(got.bindings.len(), exp, "nodes={}", nodes);
        let m = &got.metrics;
        prop_assert_eq!((m.total_local() + m.total_messages()) as usize, exp, "nodes={}", nodes);
    }
}

use graql::parser::ast::Stmt;

// ---------------------------------------------------------------------------
// Randomized path queries vs a brute-force evaluator
// ---------------------------------------------------------------------------

/// A randomly shaped linear path query over the A/B fixture: steps
/// alternate VA, VB, VA, … joined by `ab` hops (`--ab-->` from an A step,
/// `<--ab--` from a B step), each step carrying an optional threshold
/// condition.
#[derive(Debug, Clone)]
struct RandQuery {
    /// Number of vertex steps (2..=4).
    steps: usize,
    /// Optional per-step thresholds (`x < t` on A steps, `y < t` on B).
    conds: Vec<Option<i64>>,
}

fn rand_query() -> impl Strategy<Value = RandQuery> {
    (2usize..=4).prop_flat_map(|steps| {
        proptest::collection::vec(proptest::option::of(0i64..10), steps)
            .prop_map(move |conds| RandQuery { steps, conds })
    })
}

impl RandQuery {
    fn to_graql(&self) -> String {
        let mut q = String::from("select ");
        let cols: Vec<String> = (0..self.steps)
            .map(|i| format!("s{i}.id as c{i}"))
            .collect();
        q.push_str(&cols.join(", "));
        q.push_str(" from graph ");
        for i in 0..self.steps {
            if i > 0 {
                // Even → odd position: A --ab--> B; odd → even: B <--ab-- A.
                q.push_str(if i % 2 == 1 { " --ab--> " } else { " <--ab-- " });
            }
            let ty = if i % 2 == 0 { "VA" } else { "VB" };
            let attr = if i % 2 == 0 { "x" } else { "y" };
            match self.conds[i] {
                Some(t) => q.push_str(&format!("def s{i}: {ty}({attr} < {t})")),
                None => q.push_str(&format!("def s{i}: {ty}()")),
            }
        }
        q
    }

    /// Brute-force enumeration: count of bindings and per-step participant
    /// sets.
    fn brute_force(&self, f: &Fixture) -> (usize, Vec<std::collections::BTreeSet<usize>>) {
        let passes = |i: usize, v: usize| -> bool {
            let val = if i.is_multiple_of(2) {
                f.xs[v]
            } else {
                f.ys[v]
            };
            self.conds[i].is_none_or(|t| val < t)
        };
        let mut count = 0usize;
        let mut members: Vec<std::collections::BTreeSet<usize>> =
            vec![Default::default(); self.steps];
        // DFS over concrete assignments.
        fn rec(
            q: &RandQuery,
            f: &Fixture,
            passes: &dyn Fn(usize, usize) -> bool,
            binding: &mut Vec<usize>,
            count: &mut usize,
            members: &mut [std::collections::BTreeSet<usize>],
        ) {
            let i = binding.len();
            if i == q.steps {
                *count += 1;
                for (s, &v) in binding.iter().enumerate() {
                    members[s].insert(v);
                }
                return;
            }
            let domain = if i.is_multiple_of(2) {
                f.xs.len()
            } else {
                f.ys.len()
            };
            for v in 0..domain {
                if !passes(i, v) {
                    continue;
                }
                if i > 0 {
                    let prev = binding[i - 1];
                    // Edge between positions i-1 and i is always `ab`,
                    // oriented A→B; the A side is the even position.
                    let (a, b) = if i % 2 == 1 { (prev, v) } else { (v, prev) };
                    if !f.ab.contains(&(a, b)) {
                        continue;
                    }
                }
                binding.push(v);
                rec(q, f, passes, binding, count, members);
                binding.pop();
            }
        }
        rec(self, f, &passes, &mut Vec::new(), &mut count, &mut members);
        (count, members)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary linear path queries agree with brute force on binding
    /// count, and on participant sets via subgraph capture — for every
    /// plan mode.
    #[test]
    fn random_path_queries_match_brute_force(
        f in fixture(),
        q in rand_query(),
        mode_idx in 0usize..3,
    ) {
        let mode = [PlanMode::Auto, PlanMode::ForwardOnly, PlanMode::ReverseOnly][mode_idx];
        let (exp_count, exp_members) = q.brute_force(&f);
        let mut db = build_db(&f);
        db.config_mut().plan_mode = mode;
        // Binding count via table output.
        let src = q.to_graql();
        let StmtOutput::Table(t) = db.execute_str(&src).unwrap() else { panic!() };
        prop_assert_eq!(t.n_rows(), exp_count, "bindings for {}", src);
        // Participant sets via star subgraph capture. All steps share two
        // types, so compare unions per type.
        let sg_src = format!(
            "select * from graph {} into subgraph g",
            src.split(" from graph ").nth(1).unwrap()
        );
        let StmtOutput::Subgraph(sg) = db.execute_str(&sg_src).unwrap() else { panic!() };
        db.graph().unwrap();
        let g = db.graph_ref().unwrap();
        let va = g.vtype("VA").unwrap();
        let vb = g.vtype("VB").unwrap();
        let mut exp_a = std::collections::BTreeSet::new();
        let mut exp_b = std::collections::BTreeSet::new();
        for (i, m) in exp_members.iter().enumerate() {
            if i % 2 == 0 {
                exp_a.extend(m.iter().copied());
            } else {
                exp_b.extend(m.iter().copied());
            }
        }
        let got_a: std::collections::BTreeSet<usize> =
            sg.vertices_of(va).map(|s| s.iter().collect()).unwrap_or_default();
        let got_b: std::collections::BTreeSet<usize> =
            sg.vertices_of(vb).map(|s| s.iter().collect()).unwrap_or_default();
        prop_assert_eq!(got_a, exp_a, "A participants for {}", sg_src);
        prop_assert_eq!(got_b, exp_b, "B participants for {}", sg_src);
    }
}

// ---------------------------------------------------------------------------
// Static-analysis properties
// ---------------------------------------------------------------------------

/// One random statement over the A/B catalog: templates instantiated with
/// names drawn from a pool that mixes valid and bogus identifiers, so
/// scripts range from clean to multiply-faulty.
fn rand_stmt() -> impl Strategy<Value = String> {
    let tbl = || "A|B|AB|T|nope|Missing";
    let vtx = || "VA|VB|T|nope";
    let col = || "id|x|y|a|b|price|nope";
    let lit = || "1|27|'s'|2\\.5|%P%";
    let op = || "=|!=|<|>";
    prop_oneof![
        (tbl(),).prop_map(|(t,)| format!("select * from table {t}")),
        (tbl(), col(), op(), lit()).prop_map(|(t, c, o, l)| {
            format!("select {c} from table {t} where {c} {o} {l} and {c} {o} {l}")
        }),
        (tbl(), col()).prop_map(|(t, c)| format!("select top 3 {c} from table {t}")),
        (tbl(), col()).prop_map(|(t, c)| {
            format!("select {c}, count(*) as n from table {t} group by {c} order by n desc")
        }),
        (vtx(), vtx(), col(), lit()).prop_map(|(v1, v2, c, l)| {
            format!("select * from graph {v1}({c} = {l}) --ab--> {v2}()")
        }),
        (vtx(), tbl()).prop_map(|(v, t)| {
            format!("select z.id from graph def z: {v}() --ab--> VB() into table {t}")
        }),
        (vtx(),).prop_map(|(v,)| {
            format!("select * from graph {v}() {{ --ab--> VB() <--ab-- VA() }}* --> VA()")
        }),
        (tbl(), col()).prop_map(|(t, c)| format!("create vertex VN({c}) from table {t}")),
        (tbl(),).prop_map(|(t,)| format!("ingest table {t} data.csv")),
    ]
}

fn rand_script() -> impl Strategy<Value = String> {
    proptest::collection::vec(rand_stmt(), 1..5).prop_map(|v| v.join("\n"))
}

/// The A/B schema as a catalog (no data).
fn ab_catalog() -> graql::core::Catalog {
    ab_db().catalog().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Whatever the parser accepts, both analysis modes process without
    /// panicking — and they agree: the collecting checker finds an error
    /// exactly when the fail-fast analyzer does, and its *first* error is
    /// the same error (same class, same message).
    #[test]
    fn analysis_modes_agree(script in rand_script()) {
        let catalog = ab_catalog();
        if let Ok(ast) = graql::parser::parse(&script) {
            let fail_fast = graql::core::analyze::analyze_script(&catalog, &ast);
            let (_, diags) = graql::core::analyze::check_script(&catalog, &ast);
            match fail_fast {
                Ok(_) => prop_assert!(
                    !diags.has_errors(),
                    "fail-fast passed but checker errored on {script:?}:\n{}",
                    diags.render(&script, "prop")
                ),
                Err(e) => {
                    let first = diags
                        .first_error()
                        .unwrap_or_else(|| panic!("fail-fast errored ({e}) but checker \
                                                   found nothing on {script:?}"))
                        .clone()
                        .into_error();
                    prop_assert_eq!(e.to_string(), first.to_string(), "script: {:?}", script);
                }
            }
        }
    }

    /// Checking never mutates the database: a check followed by execution
    /// behaves exactly like execution alone.
    #[test]
    fn check_is_pure(script in rand_script()) {
        let mut db = Database::new();
        db.execute_script(
            "create table A(id integer, x integer)
             create table B(id integer, y integer)
             create table AB(a integer, b integer)
             create vertex VA(id) from table A
             create vertex VB(id) from table B
             create edge ab with vertices (VA, VB) from table AB
                 where AB.a = VA.id and AB.b = VB.id",
        )
        .unwrap();
        let snapshot = |c: &graql::core::Catalog| {
            (c.table_names().to_vec(), c.vertex_names().to_vec(), c.edge_names().to_vec())
        };
        let before = snapshot(db.catalog());
        let _ = db.check_script_str(&script);
        prop_assert_eq!(before, snapshot(db.catalog()));
    }
}

#[path = "../crates/core/tests/parity/mod.rs"]
#[allow(dead_code)]
mod parity;

/// The parity fixture (a small Berlin database, the many-to-one `EventVtx`,
/// a result subgraph `S` to seed from), built once and cloned per case.
fn soundness_db() -> Database {
    static DB: std::sync::OnceLock<Database> = std::sync::OnceLock::new();
    DB.get_or_init(parity::parity_db).clone()
}

/// If `check` reports no error for `script`, running it raises no name,
/// path or type error: static analysis decides every such question first.
/// Budget, parameter and ingest errors are execution input and excluded.
fn check_clean_executes(db: &mut Database, script: &str) -> std::result::Result<(), TestCaseError> {
    if db.check_script_str(script).has_errors() {
        return Ok(());
    }
    if let Err(e @ (GraqlError::Name(_) | GraqlError::Path(_) | GraqlError::Type(_))) =
        db.execute_script(script)
    {
        prop_assert!(
            false,
            "check passed but execution failed with {e}: {script:?}"
        );
    }
    Ok(())
}

/// `cases` cases, or `PROPTEST_CASES` when set (as
/// `ProptestConfig::default` reads it).
fn cases_unless_env(cases: u32) -> ProptestConfig {
    match std::env::var_os("PROPTEST_CASES") {
        Some(_) => ProptestConfig::default(),
        None => ProptestConfig::with_cases(cases),
    }
}

proptest! {
    #![proptest_config(cases_unless_env(32))]

    /// Static analysis is sound for execution over generated graph and
    /// table scripts, and over the parity rows (which `check` rejects).
    #[test]
    fn check_clean_scripts_execute(seed in any::<u64>()) {
        let mut gen = graql_testkit::ScriptGen::new(seed);
        let (graph, table) = (gen.next_graph_script(), gen.next_script());
        check_clean_executes(&mut soundness_db(), &graph)?;
        check_clean_executes(&mut soundness_db(), &table)?;
        let row = &parity::PARITY_ROWS[seed as usize % parity::PARITY_ROWS.len()];
        check_clean_executes(&mut soundness_db(), row.0)?;
    }
}

// ---------------------------------------------------------------------------
// Lint verdicts against rows
// ---------------------------------------------------------------------------

/// A tiny dataset with nulls in both value columns, so the SQL-style
/// null comparison semantics the constant verdicts rely on are exercised.
fn nullable_db() -> Database {
    let mut db = ab_db();
    db.ingest_str("A", "0,3\n1,7\n2,\n3,0\n4,10\n").unwrap();
    db.ingest_str("B", "0,5\n1,\n2,2\n").unwrap();
    db.ingest_str("AB", "0,0\n0,1\n1,2\n2,0\n3,1\n4,2\n")
        .unwrap();
    db
}

/// Random predicate over columns `id` / `x`: comparisons against small
/// constants (hitting the fold + interval rules), column-column
/// comparisons (hitting the self-comparison rules), composed with
/// `and` / `or` / `not`.
fn pred() -> impl Strategy<Value = String> {
    let col = prop_oneof![Just("id"), Just("x")];
    let op = prop_oneof![
        Just("="),
        Just("!="),
        Just("<"),
        Just("<="),
        Just(">"),
        Just(">=")
    ];
    let leaf = prop_oneof![
        (col.clone(), op.clone(), 0i64..12).prop_map(|(c, o, v)| format!("{c} {o} {v}")),
        (0i64..12, op.clone(), col.clone()).prop_map(|(v, o, c)| format!("{v} {o} {c}")),
        (col.clone(), op.clone(), col.clone()).prop_map(|(a, o, b)| format!("{a} {o} {b}")),
        (0i64..12, op.clone(), 0i64..12).prop_map(|(a, o, b)| format!("{a} {o} {b}")),
    ];
    leaf.boxed().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4)
                .prop_map(|ps| format!("({})", ps.join(" and "))),
            proptest::collection::vec(inner.clone(), 2..4)
                .prop_map(|ps| format!("({})", ps.join(" or "))),
            inner.prop_map(|p| format!("not ({p})")),
        ]
    })
}

/// The codes `check` reports for `stmt`, and the statement's output.
fn checked_run(db: &mut Database, stmt: &str) -> (Vec<&'static str>, StmtOutput) {
    let codes = db.check_script_str(stmt).iter().map(|d| d.code).collect();
    (codes, db.execute_str(stmt).unwrap())
}

proptest! {
    #![proptest_config(cases_unless_env(48))]

    /// The verdicts behind W0208 (always true) and W0206 (dead branch)
    /// hold on real rows, nulls included: a `where` clause W0208 flags
    /// keeps every row, a step condition W0206 flags leaves the pattern
    /// empty, and a step condition W0208 flags matches what the step
    /// without it matches.
    #[test]
    fn lint_verdicts_hold_on_rows(p in pred()) {
        let mut db = nullable_db();
        let (codes, filtered) =
            checked_run(&mut db, &format!("select id, x from table A where {p} order by id"));
        if codes.contains(&"W0208") {
            let all = db.execute_str("select id, x from table A order by id").unwrap();
            prop_assert_eq!(format!("{filtered:?}"), format!("{all:?}"), "where {}", p);
        }
        let (codes, out) = checked_run(&mut db, &format!("select * from graph VA({p}) --ab--> VB()"));
        let StmtOutput::Subgraph(sg) = &out else {
            panic!("a star graph select yields a subgraph")
        };
        if codes.contains(&"W0206") {
            prop_assert!(sg.is_empty(), "VA({}) matched {:?}", p, sg);
        }
        if codes.contains(&"W0208") {
            let all = db.execute_str("select * from graph VA() --ab--> VB()").unwrap();
            prop_assert_eq!(format!("{out:?}"), format!("{all:?}"), "VA({})", p);
        }
    }
}

/// Deterministic output ordering: the same query yields byte-identical
/// rendered tables across runs.
#[test]
fn deterministic_results() {
    let f = Fixture {
        xs: vec![1, 5, 9, 3],
        ys: vec![2, 8, 4],
        ab: vec![(0, 0), (0, 1), (1, 2), (2, 0), (3, 1)],
        p: 6,
        q: 9,
    };
    let run = || {
        let mut db = build_db(&f);
        let q = "select z.id, w.id as peer from graph \
                 def w: VA() --ab--> VB() <--ab-- def z: VA()";
        let StmtOutput::Table(t) = db.execute_str(q).unwrap() else {
            panic!()
        };
        t.render()
    };
    let first = run();
    for _ in 0..3 {
        assert_eq!(run(), first);
    }
}
