//! The §III communication profile (`graql::cluster`), pinned against the
//! numbers the retired thread-and-mailbox BSP executor produced.

use graql::cluster::{comm_profile, Partitioning};
use graql::parser::ast::{PathComposition, PathQuery, SelectSource, Stmt};
use graql::{Database, GraqlError, Value};

fn path_of(src: &str) -> PathQuery {
    let Stmt::Select(sel) = graql::parser::parse_statement(src).unwrap() else {
        panic!("not a select: {src}")
    };
    let SelectSource::Graph(PathComposition::Single(path)) = sel.source else {
        panic!("not a single path: {src}")
    };
    path
}

fn berlin(products: usize) -> Database {
    let mut db = graql::bsbm::build_database(graql::bsbm::Scale::new(products)).unwrap();
    db.set_param("Product1", Value::str("product0"));
    db.graph().unwrap();
    db
}

const QUERIES: [&str; 7] = [
    // 0: one hop with a filter.
    "select * from graph ProductVtx() --producer--> ProducerVtx(country = 'US') into subgraph g",
    // 1: reverse hop.
    "select * from graph ProducerVtx(country = 'DE') <--producer-- ProductVtx() into subgraph g",
    // 2: the Berlin Q2 graph phase (set label definition, no reference).
    "select y.id from graph ProductVtx (id = %Product1%) --feature--> FeatureVtx() \
     <--feature-- def y: ProductVtx (id != %Product1%) into table T",
    // 3: three hops crossing several types.
    "select * from graph PersonVtx(country = 'DE') <--reviewer-- ReviewVtx() \
     --reviewFor--> ProductVtx() --producer--> ProducerVtx(country = 'US') into subgraph g",
    // 4: variant edge and vertex steps.
    "select * from graph ProductVtx(id = %Product1%) <--[]-- [] into subgraph g",
    // 5: edge condition through the assoc table (`type` edge).
    "select * from graph ProductVtx() --type--> TypeVtx() into subgraph g",
    // 6: two unfiltered hops.
    "select * from graph OfferVtx() --product--> ProductVtx() --producer--> ProducerVtx() \
     into subgraph g",
];

/// `(local extensions, messages, bytes)` of one superstep.
type Step = (u64, u64, u64);

/// `(products, query, nodes, bindings, per-superstep traffic)`, recorded
/// from the retired BSP executor (`run_path_query` of the former cluster
/// crate, one thread and mailbox per node) at the last commit that had it.
/// Never regenerate this table from `comm_profile`: it is the proof that
/// the prefix-crossing count equals what the BSP walk measured.
#[rustfmt::skip]
const GOLDEN: &[(usize, usize, usize, usize, &[Step])] = &[
    (60, 0, 1, 0, &[(0, 0, 0)]),
    (60, 0, 2, 0, &[(0, 0, 0)]),
    (60, 0, 4, 0, &[(0, 0, 0)]),
    (60, 0, 7, 0, &[(0, 0, 0)]),
    (60, 0, 16, 0, &[(0, 0, 0)]),
    (60, 1, 1, 0, &[(0, 0, 0)]),
    (60, 1, 2, 0, &[(0, 0, 0)]),
    (60, 1, 4, 0, &[(0, 0, 0)]),
    (60, 1, 7, 0, &[(0, 0, 0)]),
    (60, 1, 16, 0, &[(0, 0, 0)]),
    (60, 2, 1, 80, &[(7, 0, 0), (80, 0, 0)]),
    (60, 2, 2, 80, &[(1, 6, 144), (37, 43, 1720)]),
    (60, 2, 4, 80, &[(0, 7, 168), (21, 59, 2360)]),
    (60, 2, 7, 80, &[(1, 6, 144), (12, 68, 2720)]),
    (60, 2, 16, 80, &[(0, 7, 168), (4, 76, 3040)]),
    (60, 3, 1, 0, &[(0, 0, 0), (0, 0, 0), (0, 0, 0)]),
    (60, 3, 2, 0, &[(0, 0, 0), (0, 0, 0), (0, 0, 0)]),
    (60, 3, 4, 0, &[(0, 0, 0), (0, 0, 0), (0, 0, 0)]),
    (60, 3, 7, 0, &[(0, 0, 0), (0, 0, 0), (0, 0, 0)]),
    (60, 3, 16, 0, &[(0, 0, 0), (0, 0, 0), (0, 0, 0)]),
    (60, 4, 1, 53, &[(53, 0, 0)]),
    (60, 4, 2, 53, &[(34, 19, 456)]),
    (60, 4, 4, 53, &[(22, 31, 744)]),
    (60, 4, 7, 53, &[(4, 49, 1176)]),
    (60, 4, 16, 53, &[(7, 46, 1104)]),
    (60, 5, 1, 60, &[(60, 0, 0)]),
    (60, 5, 2, 60, &[(32, 28, 672)]),
    (60, 5, 4, 60, &[(13, 47, 1128)]),
    (60, 5, 7, 60, &[(10, 50, 1200)]),
    (60, 5, 16, 60, &[(4, 56, 1344)]),
    (60, 6, 1, 240, &[(240, 0, 0), (240, 0, 0)]),
    (60, 6, 2, 240, &[(121, 119, 2856), (164, 76, 3040)]),
    (60, 6, 4, 240, &[(62, 178, 4272), (78, 162, 6480)]),
    (60, 6, 7, 240, &[(33, 207, 4968), (29, 211, 8440)]),
    (60, 6, 16, 240, &[(14, 226, 5424), (16, 224, 8960)]),
    (1000, 0, 2, 67, &[(31, 36, 864)]),
    (1000, 0, 8, 67, &[(6, 61, 1464)]),
    (1000, 1, 2, 114, &[(60, 54, 1296)]),
    (1000, 1, 8, 114, &[(16, 98, 2352)]),
    (1000, 2, 1, 75, &[(8, 0, 0), (75, 0, 0)]),
    (1000, 2, 2, 75, &[(2, 6, 144), (39, 36, 1440)]),
    (1000, 2, 4, 75, &[(1, 7, 168), (17, 58, 2320)]),
    (1000, 2, 8, 75, &[(1, 7, 168), (5, 70, 2800)]),
    (1000, 3, 2, 10, &[(63, 73, 1752), (68, 68, 2720), (3, 7, 392)]),
    (1000, 3, 8, 10, &[(21, 115, 2760), (19, 117, 4680), (2, 8, 448)]),
];

#[test]
fn comm_profile_reproduces_the_bsp_executor_cell_for_cell() {
    for products in [60, 1000] {
        let db = berlin(products);
        for &(_, q, nodes, bindings, steps) in GOLDEN.iter().filter(|g| g.0 == products) {
            let got = comm_profile(&db, &path_of(QUERIES[q]), nodes).unwrap();
            let at = format!("{products} products, query {q}, {nodes} nodes");
            assert_eq!(got.bindings.len(), bindings, "{at}: bindings");
            let got_steps: Vec<Step> = got
                .metrics
                .per_superstep
                .iter()
                .map(|s| (s.local_extensions, s.messages, s.bytes))
                .collect();
            assert_eq!(got_steps, steps, "{at}: per-superstep traffic");
        }
    }
}

#[test]
fn single_node_cluster_sends_no_messages() {
    let db = berlin(40);
    let path =
        path_of("select * from graph ProductVtx() --producer--> ProducerVtx() into subgraph g");
    let got = comm_profile(&db, &path, 1).unwrap();
    assert_eq!(got.metrics.total_messages(), 0);
    assert!(got.metrics.total_local() > 0);
}

#[test]
fn more_nodes_mean_more_communication() {
    let db = berlin(80);
    let path = path_of(QUERIES[6]);
    let mut last_ratio = -1.0;
    for nodes in [1, 2, 8] {
        let ratio = comm_profile(&db, &path, nodes)
            .unwrap()
            .metrics
            .remote_ratio();
        assert!(
            ratio >= last_ratio,
            "remote ratio should not decrease with node count: {last_ratio} → {ratio} at {nodes}"
        );
        last_ratio = ratio;
    }
    assert!(
        last_ratio > 0.5,
        "at 8 nodes most extensions are remote: {last_ratio}"
    );
}

#[test]
fn unsupported_features_are_rejected() {
    let db = berlin(20);
    for src in [
        "select * from graph TypeVtx() { --subclass--> TypeVtx() }+ --> TypeVtx() into subgraph g",
        "select * from graph foreach w: ProductVtx() --feature--> FeatureVtx() <--feature-- w \
         into subgraph g",
    ] {
        let err = comm_profile(&db, &path_of(src), 2).unwrap_err();
        assert!(matches!(err, GraqlError::Cluster(_)), "{src}: {err}");
    }
}

#[test]
fn node_counts_outside_1_to_65535_are_rejected() {
    let db = berlin(10);
    let path = path_of(QUERIES[5]);
    for nodes in [0, u16::MAX as usize + 1] {
        let err = comm_profile(&db, &path, nodes).unwrap_err();
        assert!(matches!(err, GraqlError::Cluster(_)), "{nodes}: {err}");
    }
    assert!(comm_profile(&db, &path, u16::MAX as usize).is_ok());
}

#[test]
fn every_vertex_has_exactly_one_owner() {
    let db = berlin(60);
    let g = db.graph_ref().unwrap();
    let p = Partitioning::hash(g, 7);
    let total: usize = (0..7).map(|n| p.owned_count(n)).sum();
    assert_eq!(total, g.n_vertices());
}

#[test]
fn partition_is_roughly_balanced() {
    let db = berlin(500);
    let g = db.graph_ref().unwrap();
    let p = Partitioning::hash(g, 8);
    let fair = g.n_vertices() / 8;
    for n in 0..8 {
        let c = p.owned_count(n);
        assert!(
            (fair * 3 / 4..=fair * 5 / 4).contains(&c),
            "node {n} owns {c} of {}",
            g.n_vertices()
        );
    }
}

#[test]
fn ownership_is_deterministic() {
    let db = berlin(60);
    let g = db.graph_ref().unwrap();
    let (p1, p2) = (Partitioning::hash(g, 4), Partitioning::hash(g, 4));
    for vt in g.vtype_ids() {
        for i in 0..g.vset(vt).len() as u32 {
            assert_eq!(p1.owner(vt, i), p2.owner(vt, i));
        }
    }
}

#[test]
fn single_node_owns_everything() {
    let db = berlin(60);
    let g = db.graph_ref().unwrap();
    assert_eq!(Partitioning::hash(g, 1).owned_count(0), g.n_vertices());
}
