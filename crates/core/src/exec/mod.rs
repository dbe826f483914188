//! Query execution: path matching and relational statements.

pub mod cand;
pub mod enumerate;
pub mod expand;
pub mod explain;
pub mod query;
pub mod regex;
pub mod relational;
pub mod results;

use graql_graph::{Graph, Subgraph, VTypeId};
use graql_table::ops::OpCtx;
use graql_table::Table;
use graql_types::{GraqlError, QueryGuard, QueryProfile, Result};
use rustc_hash::FxHashMap;

use crate::cond::Params;
use crate::ddl::Storage;
use crate::plan::ExecConfig;

/// Everything a resolved query needs to execute, borrowed from the
/// database. There is no catalog: names were resolved before execution
/// ([`crate::analyze::resolve`]).
pub struct ExecCtx<'a> {
    pub graph: &'a Graph,
    pub storage: &'a Storage,
    pub result_tables: &'a FxHashMap<String, std::sync::Arc<Table>>,
    pub result_subgraphs: &'a FxHashMap<String, std::sync::Arc<Subgraph>>,
    pub config: &'a ExecConfig,
    pub params: &'a Params,
    /// Governance guard for the running query: cancellation, deadline and
    /// row/byte budgets, checked cooperatively by every kernel loop.
    pub guard: &'a QueryGuard,
    /// Span recorder for `profile` / slow-query logging. `None` (the
    /// common case) keeps the instrumented kernels on the zero-overhead
    /// path — no clocks are read.
    pub obs: Option<&'a QueryProfile>,
    /// The catalog statistics store, whose graph sections are filled
    /// whenever the graph views are built. Consulted only for order-neutral physical decisions — hash
    /// join build side, parallel dispatch thresholds — never for anything
    /// that changes logical enumeration order, so stale or absent stats
    /// cannot change results.
    pub stats: Option<&'a crate::catalog::CatalogStats>,
}

impl<'a> ExecCtx<'a> {
    /// The context the Table-1 kernels (`graql_table::ops`) run under:
    /// this query's guard and span recorder, the configured thread count.
    pub fn ops(&self) -> OpCtx<'a> {
        OpCtx {
            guard: self.guard,
            obs: self.obs,
            threads: self.config.threads,
        }
    }

    /// Estimated edges traversed when expanding `from_count` vertices over
    /// the named edge types — the planner's parallel-dispatch heuristic for
    /// traversal kernels. Mean degrees come from the catalog statistics
    /// store when present; absent (or never computed) stats degrade to a
    /// conservative mean of one edge per vertex. The estimate only sizes the
    /// worker pool, so staleness cannot affect results.
    pub fn est_traversed_edges(
        &self,
        etype_names: &[&str],
        from_count: usize,
        forward: bool,
    ) -> usize {
        let mean: f64 = etype_names
            .iter()
            .map(|name| {
                self.stats
                    .and_then(|s| s.edges.get(*name))
                    .map_or(1.0, |e| {
                        if forward {
                            e.mean_out_degree
                        } else {
                            e.mean_in_degree
                        }
                        .max(0.0)
                    })
            })
            .sum::<f64>()
            .max(1.0);
        (from_count as f64 * mean) as usize
    }

    /// Source table of a vertex type.
    pub fn vtable(&self, vt: VTypeId) -> &'a Table {
        self.storage
            .get(&self.graph.vset(vt).table)
            .map(|t| t.as_ref())
            .expect("graph views reference existing tables")
    }

    /// A table by name: base storage first, then named results.
    pub fn any_table(&self, name: &str) -> Result<&'a Table> {
        self.storage
            .get(name)
            .or_else(|| self.result_tables.get(name))
            .map(|t| t.as_ref())
            .ok_or_else(|| GraqlError::name(format!("unknown table {name:?}")))
    }
}
