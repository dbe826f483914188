//! Focused semantics tests for the engine's corner cases: exact regex
//! repetition counts, multi-hop groups, long chains, self-typed edges,
//! null behavior through the DDL joins, and multi-column vertex keys.

use graql_core::{Database, StmtOutput};

/// A chain graph: N vertices of type `Node`, edge `next` i → i+1.
fn chain(n: usize) -> Database {
    let mut db = Database::new();
    db.execute_script(
        "create table Nodes(id integer, tag varchar(4))
         create table Links(src integer, dst integer)
         create vertex Node(id) from table Nodes
         create edge next with vertices (Node as A, Node as B)
             from table Links where Links.src = A.id and Links.dst = B.id",
    )
    .unwrap();
    let nodes: String = (0..n).map(|i| format!("{i},t{}\n", i % 3)).collect();
    let links: String = (0..n - 1).map(|i| format!("{i},{}\n", i + 1)).collect();
    db.ingest_str("Nodes", &nodes).unwrap();
    db.ingest_str("Links", &links).unwrap();
    db
}

fn reached(db: &mut Database, query: &str) -> Vec<usize> {
    let out = db.execute_str(query).unwrap();
    let StmtOutput::Subgraph(sg) = out else {
        panic!("expected subgraph")
    };
    let g = db.graph().unwrap();
    let vt = g.vtype("Node").unwrap();
    sg.vertices_of(vt)
        .map(|s| s.iter().collect())
        .unwrap_or_default()
}

#[test]
fn exact_repetition_counts() {
    let mut db = chain(10);
    // {3} from node 0 reaches exactly node 3 (and the intermediates).
    let got = reached(
        &mut db,
        "select * from graph Node(id = 0) { --next--> Node() }{3} into subgraph r",
    );
    assert_eq!(got, vec![0, 1, 2, 3], "members on the exact-3 path");
    // With an exit pinned to node 3 it still matches…
    let got = reached(
        &mut db,
        "select * from graph Node(id = 0) { --next--> Node() }{3} --> Node(id = 3) into subgraph r",
    );
    assert_eq!(got, vec![0, 1, 2, 3]);
    // …but an exit pinned to node 4 cannot be reached in exactly 3 hops.
    let got = reached(
        &mut db,
        "select * from graph Node(id = 0) { --next--> Node() }{3} --> Node(id = 4) into subgraph r",
    );
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn bounded_ranges() {
    let mut db = chain(10);
    let got = reached(
        &mut db,
        "select * from graph Node(id = 0) { --next--> Node() }{2,4} --> Node() into subgraph r",
    );
    assert_eq!(got, vec![0, 1, 2, 3, 4], "2..=4 hops from 0");
    // Range anchored at both ends: 0 →{2,4} exactly node 3 works (3 hops).
    let got = reached(
        &mut db,
        "select * from graph Node(id = 0) { --next--> Node() }{2,4} --> Node(id = 3) into subgraph r",
    );
    assert_eq!(got, vec![0, 1, 2, 3]);
}

#[test]
fn star_and_plus_reach_the_whole_chain() {
    let mut db = chain(6);
    let plus = reached(
        &mut db,
        "select * from graph Node(id = 2) { --next--> Node() }+ into subgraph r",
    );
    assert_eq!(plus, vec![2, 3, 4, 5]);
    let star = reached(
        &mut db,
        "select * from graph Node(id = 5) { --next--> Node() }* into subgraph r",
    );
    assert_eq!(star, vec![5], "sink matches zero repetitions only");
}

#[test]
fn backward_culling_through_groups() {
    // Anchoring the exit must cull the *entry* candidates too.
    let mut db = chain(8);
    let got = reached(
        &mut db,
        "select * from graph Node() { --next--> Node() }{2} --> Node(id = 4) into subgraph r",
    );
    assert_eq!(
        got,
        vec![2, 3, 4],
        "only node 2 can reach node 4 in exactly 2 hops"
    );
}

#[test]
fn multi_hop_group_repeats_the_whole_sequence() {
    let mut db = chain(9);
    // One repetition = two hops, so {2} = four hops.
    let got = reached(
        &mut db,
        "select * from graph Node(id = 0) \
         { --next--> Node() --next--> Node() }{2} --> Node() into subgraph r",
    );
    assert_eq!(got, vec![0, 1, 2, 3, 4]);
    let got = reached(
        &mut db,
        "select * from graph Node(id = 0) \
         { --next--> Node() --next--> Node() }{2} --> Node(id = 4) into subgraph r",
    );
    assert_eq!(got, vec![0, 1, 2, 3, 4]);
    // Exit unreachable at an odd distance.
    let got = reached(
        &mut db,
        "select * from graph Node(id = 0) \
         { --next--> Node() --next--> Node() }+ --> Node(id = 3) into subgraph r",
    );
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn long_linear_chains_enumerate() {
    let mut db = chain(30);
    // A six-step explicit path pinned at both ends.
    let q = "select A.id as a, F.id as f from graph \
             def A: Node() --next--> Node() --next--> Node() --next--> Node() \
             --next--> Node() --next--> def F: Node()";
    let StmtOutput::Table(t) = db.execute_str(q).unwrap() else {
        panic!()
    };
    assert_eq!(t.n_rows(), 25, "30-chain has 25 paths of length 5");
    for r in 0..t.n_rows() {
        let a = t.get(r, 0).as_int().unwrap();
        let f = t.get(r, 1).as_int().unwrap();
        assert_eq!(f - a, 5);
    }
}

#[test]
fn hop_conditions_inside_groups() {
    let mut db = chain(12);
    // Only walk through nodes tagged t1 or t2 (tag = id % 3); starting at
    // 0 (t0), the first hop lands on 1 (t1), second on 2 (t2), but 3 is t0
    // → blocked.
    let got = reached(
        &mut db,
        "select * from graph Node(id = 0) { --next--> Node(tag != 't0') }+ into subgraph r",
    );
    assert_eq!(got, vec![0, 1, 2], "walk stops before the next t0 node");
}

#[test]
fn composite_vertex_keys_work_end_to_end() {
    let mut db = Database::new();
    db.execute_script(
        "create table Events(host varchar(8), day integer, sev integer)
         create vertex Event(host, day) from table Events",
    )
    .unwrap();
    db.ingest_str("Events", "h1,1,5\nh1,2,3\nh2,1,9\nh1,1,7\n")
        .unwrap();
    let g = db.graph().unwrap();
    let ev = g.vtype("Event").unwrap();
    // (h1,1) appears twice → many-to-one, 3 distinct instances.
    assert_eq!(g.vset(ev).len(), 3);
    assert!(!g.vset(ev).mapping.is_one_to_one());
    // Key columns are queryable; the non-key 'sev' is not single-valued.
    let StmtOutput::Table(t) = db
        .execute_str("select E.host, E.day from graph def E: Event(host = 'h1')")
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(t.n_rows(), 2);
    let err = db
        .execute_str("select E.sev from graph def E: Event(host = 'h1')")
        .unwrap_err();
    assert!(err.to_string().contains("single-valued"), "{err}");
}

#[test]
fn nulls_never_join_in_edge_construction() {
    let mut db = Database::new();
    db.execute_script(
        "create table P(id varchar(4), parent varchar(4))
         create vertex PV(id) from table P
         create edge up with vertices (PV as A, PV as B) where A.parent = B.id",
    )
    .unwrap();
    // Root row has an empty (null) parent: must produce no self-ish edge.
    db.ingest_str("P", "a,\nb,a\nc,b\n").unwrap();
    let g = db.graph().unwrap();
    assert_eq!(
        g.eset(g.etype("up").unwrap()).len(),
        2,
        "null parent joins nothing"
    );
}

#[test]
fn empty_candidate_steps_yield_empty_results_not_errors() {
    let mut db = chain(5);
    let StmtOutput::Table(t) = db
        .execute_str("select B.id from graph Node(id = 999) --next--> def B: Node()")
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(t.n_rows(), 0);
    let got = reached(
        &mut db,
        "select * from graph Node(id = 999) { --next--> Node() }+ into subgraph r",
    );
    assert!(got.is_empty());
}

#[test]
fn seed_step_with_conditions_applies_both() {
    let mut db = chain(8);
    db.execute_str("select * from graph Node(id < 4) --next--> Node() into subgraph firstHalf")
        .unwrap();
    // Seeded + extra condition: seed ∩ (id >= 2).
    let StmtOutput::Table(t) = db
        .execute_str("select S.id from graph firstHalf.Node(id >= 2) --next--> def S: Node()")
        .unwrap()
    else {
        panic!()
    };
    // firstHalf contains nodes 0..=4 (sources 0..4 + their targets 1..=4);
    // seeded sources with id>=2: {2,3,4} → targets {3,4,5}.
    let mut got: Vec<i64> = (0..t.n_rows())
        .map(|r| t.get(r, 0).as_int().unwrap())
        .collect();
    got.sort();
    assert_eq!(got, vec![3, 4, 5]);
}

// ---------------------------------------------------------------------------
// Regressions for review findings
// ---------------------------------------------------------------------------

/// Two-node cycle a ⇄ b: frontiers oscillate, so the BFS cutoff must not
/// fire on a merely non-growing cumulative set (it would drop the even
/// repetition counts).
#[test]
fn regex_oscillating_frontier_keeps_all_valid_counts() {
    let mut db = Database::new();
    db.execute_script(
        "create table Nodes(id integer, tag varchar(4))
         create table Links(src integer, dst integer)
         create vertex Node(id) from table Nodes
         create edge next with vertices (Node as A, Node as B)
             from table Links where Links.src = A.id and Links.dst = B.id",
    )
    .unwrap();
    db.ingest_str("Nodes", "0,a\n1,b\n").unwrap();
    db.ingest_str("Links", "0,1\n1,0\n").unwrap();
    // {3} hops from node 0 lands on node 1; {4} lands back on node 0.
    for (quant, target, expect) in [
        ("{3}", 1, true),
        ("{3}", 0, false),
        ("{4}", 0, true),
        ("{3,4}", 0, true),
        ("{3,4}", 1, true),
    ] {
        let q = format!(
            "select * from graph Node(id = 0) {{ --next--> Node() }}{quant} --> Node(id = {target}) into subgraph r"
        );
        let out = db.execute_str(&q).unwrap();
        let StmtOutput::Subgraph(sg) = out else {
            panic!()
        };
        let g = db.graph().unwrap();
        let reached = sg
            .vertices_of(g.vtype("Node").unwrap())
            .map(|s| s.count())
            .unwrap_or(0);
        assert_eq!(reached > 0, expect, "quant {quant} target {target}");
    }
}

/// Conditioned multi-repetition group: the backward sweep must apply hop
/// conditions to intermediate boundary vertices, so entries whose only
/// route crosses a blocked node are culled from the star subgraph.
#[test]
fn regex_backward_cull_respects_hop_conditions() {
    let mut db = chain(7); // tags: id % 3 → node 3 is t0
                           // Two repetitions landing exactly on node 4, but every landing must be
                           // non-t0. Paths: 2→3→4 needs node 3 (t0, blocked); so NO entry works
                           // via position 1 = node 3. Entry 2 must therefore be excluded.
    let out = db
        .execute_str(
            "select * from graph Node() { --next--> Node(tag != 't0') }{2} --> Node(id = 4) \
             into subgraph r",
        )
        .unwrap();
    let StmtOutput::Subgraph(sg) = out else {
        panic!()
    };
    let g = db.graph().unwrap();
    let reached: Vec<usize> = sg
        .vertices_of(g.vtype("Node").unwrap())
        .map(|s| s.iter().collect())
        .unwrap_or_default();
    // The only 2-hop path to 4 is 2→3→4, which crosses t0 node 3: no match
    // at all.
    assert!(
        reached.is_empty(),
        "blocked intermediate must cull the entry: {reached:?}"
    );
    // Sanity: targeting node 5 (path 3→4→5 blocked at entry 3? entry 3 is
    // t0 but ENTRY is unconditioned; landings 4 and 5 are fine) matches.
    let out = db
        .execute_str(
            "select * from graph Node() { --next--> Node(tag != 't0') }{2} --> Node(id = 5) \
             into subgraph r2",
        )
        .unwrap();
    let StmtOutput::Subgraph(sg) = out else {
        panic!()
    };
    let g = db.graph().unwrap();
    let reached: Vec<usize> = sg
        .vertices_of(g.vtype("Node").unwrap())
        .map(|s| s.iter().collect())
        .unwrap_or_default();
    assert_eq!(
        reached,
        vec![3, 4, 5],
        "entry is unconditioned; landings carry conditions"
    );
}

/// A result subgraph captured before an ingest is stale afterwards:
/// seeding from it must fail cleanly, not panic on bitset lengths.
#[test]
fn stale_seed_after_ingest_errors_cleanly() {
    let mut db = chain(5);
    db.execute_str("select * from graph Node(id < 3) --next--> Node() into subgraph snap")
        .unwrap();
    db.ingest_str("Nodes", "100,t1\n").unwrap(); // vertex count changes
    let err = db
        .execute_str("select S.id from graph snap.Node() --next--> def S: Node()")
        .unwrap_err();
    assert!(err.to_string().contains("stale"), "{err}");
}

// ---------------------------------------------------------------------------
// Long chains and cycles: repetition has no cap
// ---------------------------------------------------------------------------

/// A cycle graph: `k` vertices of type `Node`, edge `next` i → (i+1) mod k.
fn cycle(k: usize) -> Database {
    let mut db = chain(k);
    db.ingest_str("Links", &format!("{},0\n", k - 1)).unwrap();
    db
}

/// Vertex and edge counts of a query's subgraph, asserted equal at 1 and
/// 2 threads.
fn sizes(db: &mut Database, query: &str) -> (usize, usize) {
    let mut seen = Vec::new();
    for threads in [1, 2] {
        db.config_mut().threads = threads;
        let StmtOutput::Subgraph(sg) = db.execute_str(query).unwrap() else {
            panic!("expected subgraph: {query}")
        };
        seen.push((sg.n_vertices(), sg.n_edges()));
    }
    assert_eq!(seen[0], seen[1], "threads 1 vs 2: {query}");
    seen[0]
}

fn group_query(head: &str, quant: &str, exit: &str) -> String {
    format!("select * from graph {head} {{ --next--> Node() }}{quant} --> {exit} into subgraph r")
}

/// The chain `0 → … → h` (h + 1 vertices, h edges) is matched whole by
/// every quantifier that admits h hops: seeded forward at node 0,
/// anchored only at the exit (the backward cull picks the entries), and
/// with both ends pinned. Past 64 hops this used to come back truncated
/// or empty.
#[test]
fn long_chains_match_whole_under_every_quantifier() {
    for h in [50usize, 64, 65, 100, 200] {
        let mut db = chain(h + 1);
        let exact = format!("{{{h}}}");
        let range = format!("{{{},{}}}", h - 10, h + 10);
        for quant in ["*", "+", exact.as_str(), range.as_str(), "{0,1000}"] {
            let last = format!("Node(id = {h})");
            for (head, exit) in [
                ("Node(id = 0)", "Node()"),
                ("Node()", last.as_str()),
                ("Node(id = 0)", last.as_str()),
            ] {
                // `{n,m}` seeded forward stops after m hops, whatever the
                // exit; anchored at node h, entries 0..=10 all reach it.
                let q = group_query(head, quant, exit);
                assert_eq!(sizes(&mut db, &q), (h + 1, h), "{q}");
            }
        }
    }
}

/// A group inside a longer path: `0 --next--> 1 {…} x --next--> h` puts the
/// group between nodes 1 and h − 1, so the whole chain is matched.
#[test]
fn long_chain_group_inside_a_longer_path() {
    for h in [50usize, 64, 65, 100, 200] {
        let mut db = chain(h + 1);
        let exact = format!("{{{}}}", h - 2);
        let range = format!("{{{},{}}}", h - 12, h + 8);
        for quant in ["*", "+", exact.as_str(), range.as_str()] {
            let q = format!(
                "select * from graph Node(id = 0) --next--> Node() \
                 {{ --next--> Node() }}{quant} --> Node() --next--> Node(id = {h}) \
                 into subgraph r"
            );
            assert_eq!(sizes(&mut db, &q), (h + 1, h), "{q}");
        }
        // One hop too many for an exact count: no match at all.
        let q = format!(
            "select * from graph Node(id = 0) --next--> Node() \
             {{ --next--> Node() }}{{{}}} --> Node() --next--> Node(id = {h}) into subgraph r",
            h - 1
        );
        assert_eq!(sizes(&mut db, &q), (0, 0), "{q}");
    }
}

/// The probe forms on the 101-vertex chain: each returns the whole path,
/// 101 vertices and 100 edges.
#[test]
fn chain_of_one_hundred_hops_is_not_truncated() {
    let mut db = chain(101);
    for (quant, exit) in [
        ("*", "Node(id = 100)"),
        ("+", "Node()"),
        ("{0,110}", "Node()"),
        ("{100}", "Node()"),
    ] {
        let q = group_query("Node(id = 0)", quant, exit);
        assert_eq!(sizes(&mut db, &q), (101, 100), "{q}");
    }
}

/// Exact and ranged counts around a 2-cycle (2 vertices, 2 edges) and a
/// 3-cycle (3 vertices, 3 edges), seeded at node 0 and pinned at a target.
#[test]
fn cycles_count_repetitions_exactly() {
    for (k, quant, target, expect) in [
        (2, "{3}", 1, (2, 2)),
        (2, "{3}", 0, (0, 0)),
        (2, "{4}", 0, (2, 2)),
        (2, "{1}", 1, (2, 1)),
        (2, "{2,3}", 0, (2, 2)),
        (2, "{2,3}", 1, (2, 2)),
        (3, "{1}", 1, (2, 1)),
        (3, "{4}", 1, (3, 3)),
        (3, "{4}", 0, (0, 0)),
        (3, "{4}", 2, (0, 0)),
        (3, "{1,2}", 2, (3, 2)),
        (3, "{3,4}", 0, (3, 3)),
        (3, "{3,4}", 1, (3, 3)),
        (3, "{3,4}", 2, (0, 0)),
        (3, "{70}", 1, (3, 3)),
        (3, "{70}", 2, (0, 0)),
    ] {
        let mut db = cycle(k);
        let q = group_query("Node(id = 0)", quant, &format!("Node(id = {target})"));
        assert_eq!(sizes(&mut db, &q), expect, "{k}-cycle: {q}");
    }
    // Backward only: on the 3-cycle, exactly 4 hops end at node 1 only
    // from node 0, whose walk covers the cycle.
    let mut db = cycle(3);
    let q = group_query("Node()", "{4}", "Node(id = 1)");
    assert_eq!(sizes(&mut db, &q), (3, 3), "{q}");
}

/// A huge finite bound on a 2-cycle selects what `*` selects (2 vertices,
/// 2 edges) and stays fast: past `2·(lo+1)·|V|` repetitions nothing new can
/// be selected, so the bound is evaluated as unbounded.
#[test]
fn huge_finite_bound_on_a_cycle_equals_star() {
    let mut db = cycle(2);
    let star = sizes(&mut db, &group_query("Node(id = 0)", "*", "Node()"));
    assert_eq!(star, (2, 2));
    let started = std::time::Instant::now();
    let huge = sizes(
        &mut db,
        &group_query("Node(id = 0)", "{0,1000000000}", "Node()"),
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(1),
        "{:?}",
        started.elapsed()
    );
    assert_eq!(huge, star);
}

/// Edge conditions on a group's hops filter the walk like they filter a
/// plain hop: `dst < 5` stops the chain at node 4.
#[test]
fn edge_conditions_inside_groups_apply() {
    let mut db = chain(10);
    let q = "select * from graph Node(id = 0) { --next(dst < 5)--> Node() }* --> Node() \
             into subgraph r";
    assert_eq!(sizes(&mut db, q), (5, 4), "{q}");
}

/// An exit reached by zero repetitions need not meet the hop condition,
/// but walking back from it must: node 3 (t0) is matched alone, not with
/// the entries that would reach it through a t0 landing.
#[test]
fn backward_cull_conditions_the_exit_it_leaves() {
    let mut db = chain(10);
    let q = "select * from graph Node() { --next--> Node(tag != 't0') }* --> Node(id = 3) \
             into subgraph r";
    assert_eq!(sizes(&mut db, q), (1, 0), "{q}");
}

/// A huge *exact* count is evaluated exactly, so its states grow with the
/// count; under a byte budget it fails with the typed budget error
/// (E0910) instead of being clamped.
#[test]
fn huge_exact_count_fails_with_the_byte_budget() {
    let mut db = cycle(2);
    db.config_mut().budget.max_query_bytes = Some(64 * 1024);
    let err = db
        .execute_str(&group_query("Node(id = 0)", "{1000000000}", "Node()"))
        .unwrap_err();
    assert!(matches!(err, graql_types::GraqlError::Budget(_)), "{err:?}");
}
