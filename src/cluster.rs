//! The paper's §III communication-volume experiment, on the one engine.
//!
//! The GEMS backend hash-partitions vertex instances across compute
//! nodes and walks its distributed edge index bulk-synchronously: every
//! superstep extends each partial binding by one hop, and an extension
//! whose new frontier vertex is owned by another node is a message.
//! The bindings alive after superstep `s` are exactly the bindings of the
//! path's first `s + 1` hops, so [`comm_profile`] runs each path *prefix*
//! through [`run_query`] and compares the owners of the last two vertices
//! of every binding. No second executor is involved.

use graql_core::analyze::resolve::resolve_paths;
use graql_core::exec::enumerate::Binding;
use graql_core::exec::query::run_query;
use graql_core::exec::ExecCtx;
use graql_core::Database;
use graql_graph::{Graph, VTypeId};
use graql_parser::ast::PathQuery;
use graql_types::{GraqlError, QueryGuard, Result};

/// Ownership map: which node owns each vertex instance. Hashing
/// `(vertex type, instance index)` keeps ownership deterministic, uniform
/// and independent of the order nodes are listed in.
#[derive(Debug, Clone)]
pub struct Partitioning {
    pub n_nodes: usize,
    /// `owner[vtype][idx]` = owning node.
    owner: Vec<Vec<u16>>,
}

/// SplitMix64 — a tiny, well-distributed 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl Partitioning {
    /// Hash-partitions every vertex of `graph` across `n_nodes`.
    pub fn hash(graph: &Graph, n_nodes: usize) -> Self {
        assert!(n_nodes > 0);
        assert!(n_nodes <= u16::MAX as usize, "node count fits u16");
        let owner = graph
            .vtype_ids()
            .map(|vt| {
                let n = graph.vset(vt).len();
                (0..n as u64)
                    .map(|i| (mix((vt.0 as u64) << 40 | i) % n_nodes as u64) as u16)
                    .collect()
            })
            .collect();
        Partitioning { n_nodes, owner }
    }

    /// The node owning vertex `idx` of type `vt`.
    #[inline]
    pub fn owner(&self, vt: VTypeId, idx: u32) -> usize {
        self.owner[vt.0 as usize][idx as usize] as usize
    }

    /// Number of vertices owned by `node`.
    pub fn owned_count(&self, node: usize) -> usize {
        self.owner
            .iter()
            .map(|per_type| per_type.iter().filter(|&&o| o as usize == node).count())
            .sum()
    }
}

/// Totals for one BSP superstep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperstepMetrics {
    /// Partial bindings extended locally (stayed on the same node).
    pub local_extensions: u64,
    /// Partial bindings shipped to another node.
    pub messages: u64,
    /// Approximate payload volume of those messages.
    pub bytes: u64,
}

/// Whole-query metrics.
#[derive(Debug, Clone, Default)]
pub struct ClusterMetrics {
    pub per_superstep: Vec<SuperstepMetrics>,
}

impl ClusterMetrics {
    pub fn supersteps(&self) -> usize {
        self.per_superstep.len()
    }

    pub fn total_messages(&self) -> u64 {
        self.per_superstep.iter().map(|s| s.messages).sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.per_superstep.iter().map(|s| s.bytes).sum()
    }

    pub fn total_local(&self) -> u64 {
        self.per_superstep.iter().map(|s| s.local_extensions).sum()
    }

    /// Fraction of extensions that crossed node boundaries (0..=1).
    pub fn remote_ratio(&self) -> f64 {
        let m = self.total_messages() as f64;
        let l = self.total_local() as f64;
        if m + l == 0.0 {
            0.0
        } else {
            m / (m + l)
        }
    }
}

/// What a path query would cost on a `nodes`-node backend: its complete
/// bindings (in the engine's enumeration order) and the traffic of every
/// superstep.
#[derive(Debug)]
pub struct ClusterProfile {
    pub bindings: Vec<Binding>,
    pub metrics: ClusterMetrics,
}

/// Profiles a single linear path query (no groups, no label references, no
/// seeds; label *definitions* are fine — the Berlin Q2 graph phase carries
/// one) as if `db`'s graph were hash-partitioned across `nodes` compute
/// nodes. The graph must already be built (call [`Database::graph`]).
pub fn comm_profile(db: &Database, path: &PathQuery, nodes: usize) -> Result<ClusterProfile> {
    if !(1..=u16::MAX as usize).contains(&nodes) {
        return Err(GraqlError::cluster(format!(
            "a cluster has 1 to {} nodes, not {nodes}",
            u16::MAX
        )));
    }
    let graph = db
        .graph_ref()
        .ok_or_else(|| GraqlError::cluster("build the graph before forming a cluster"))?;
    let (storage, params, config) = (db.storage(), db.params(), db.config());
    let cquery = resolve_paths(db.catalog(), &[path])?;
    let steps = &cquery.paths[0].vsteps;
    if cquery.paths[0].has_groups()
        || steps
            .iter()
            .any(|v| v.label_ref.is_some() || v.seed.is_some())
    {
        return Err(GraqlError::cluster(
            "path regular expressions, label references and seeded steps are not supported \
             on the simulated cluster",
        ));
    }

    // Seeds are rejected above, so no prior result is ever consulted.
    let (no_tables, no_subgraphs) = Default::default();
    let ctx = ExecCtx {
        graph,
        storage,
        result_tables: &no_tables,
        result_subgraphs: &no_subgraphs,
        config,
        params,
        guard: QueryGuard::unlimited(),
        obs: None,
        stats: None,
    };
    let prefix_bindings = |hops: usize| -> Result<Vec<Binding>> {
        let head = path.head.clone();
        let segments = path.segments[..hops].to_vec();
        let prefix = resolve_paths(db.catalog(), &[&PathQuery { head, segments }])?;
        let run = run_query(&ctx, prefix, true)?;
        let joined = run.bindings.expect("bindings were requested");
        Ok(joined
            .into_iter()
            .map(|mut mb| mb.per_path.swap_remove(0))
            .collect())
    };
    let part = Partitioning::hash(graph, nodes);
    let n_hops = path.segments.len();
    let mut per_superstep = Vec::with_capacity(n_hops);
    // A bare vertex step has bindings but no superstep.
    let mut bindings = if n_hops == 0 {
        prefix_bindings(0)?
    } else {
        Vec::new()
    };
    for hops in 1..=n_hops {
        bindings = prefix_bindings(hops)?;
        let mut step = SuperstepMetrics::default();
        for b in &bindings {
            let owner = |i: usize| part.owner(b.v[i].0, b.v[i].1);
            if owner(hops - 1) == owner(hops) {
                step.local_extensions += 1;
            } else {
                step.messages += 1;
                step.bytes += 8 * (b.v.len() + b.e.len()) as u64;
            }
        }
        per_superstep.push(step);
    }
    let metrics = ClusterMetrics { per_superstep };
    Ok(ClusterProfile { bindings, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_aggregate_over_supersteps() {
        let step = |local_extensions, messages, bytes| SuperstepMetrics {
            local_extensions,
            messages,
            bytes,
        };
        let m = ClusterMetrics {
            per_superstep: vec![step(5, 5, 100), step(10, 0, 0)],
        };
        assert_eq!(m.supersteps(), 2);
        assert_eq!(m.total_messages(), 5);
        assert_eq!(m.total_bytes(), 100);
        assert!((m.remote_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(ClusterMetrics::default().remote_ratio(), 0.0);
    }
}
