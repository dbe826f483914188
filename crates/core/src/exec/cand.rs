//! Per-step candidate sets: Eq. 4 — `V_φ = σ_φ(V)` evaluated per candidate
//! vertex type, plus seeding from named subgraph results (Fig. 12).

use std::collections::BTreeMap;

use graql_graph::{ETypeId, VTypeId};
use graql_table::{morsel, BitSet};
use graql_types::{GraqlError, Result};
use rustc_hash::FxHashMap;

use crate::compile::{CEStep, CVStep};
use crate::exec::ExecCtx;

/// Candidate vertices of one step: a bitset per candidate type.
///
/// `BTreeMap` keeps type iteration deterministic, which keeps result row
/// order deterministic.
pub type Cand = BTreeMap<VTypeId, BitSet>;

/// Total candidate count across types.
pub fn cand_count(c: &Cand) -> usize {
    c.values().map(BitSet::count).sum()
}

/// True when no candidate survives.
pub fn cand_is_empty(c: &Cand) -> bool {
    c.values().all(BitSet::none)
}

/// Computes the local candidate set of a vertex step (domain, local
/// filters, seed restriction). The per-type predicate scan is morsel-
/// parallel above [`morsel::PAR_MIN_ITEMS`]; the hit lists concatenate in
/// morsel order, so the resulting bitset is identical to a serial scan.
pub fn local_candidates(ctx: &ExecCtx<'_>, step: &CVStep) -> Result<Cand> {
    let mut out = Cand::new();
    for &vt in &step.domain {
        let vset = ctx.graph.vset(vt);
        let n = vset.len();
        let set = match step.local.get(&vt) {
            None => BitSet::full(n),
            Some(pred) => {
                let table = ctx.vtable(vt);
                let workers = morsel::scan_workers(ctx.config.threads, n, morsel::PAR_MIN_ITEMS);
                let parts =
                    morsel::run_morsels(ctx.guard, n, morsel::MORSEL_ROWS, workers, |_, range| {
                        let mut hits: Vec<u32> = Vec::new();
                        for i in range {
                            let row = vset.mapping.rep_row(i) as usize;
                            if pred.eval_bool(table, row) {
                                hits.push(i as u32);
                            }
                        }
                        Ok(hits)
                    })?;
                let hits = morsel::concat(parts);
                BitSet::from_indices(n, hits.into_iter().map(|i| i as usize))
            }
        };
        out.insert(vt, set);
    }
    if let Some(seed) = &step.seed {
        let sg = ctx
            .result_subgraphs
            .get(seed)
            .ok_or_else(|| GraqlError::exec(format!("internal: no result subgraph {seed:?}")))?;
        for (vt, set) in out.iter_mut() {
            match sg.vertices_of(*vt) {
                Some(seeded) if seeded.len() == set.len() => set.intersect_with(seeded),
                Some(_) => {
                    return Err(GraqlError::exec(format!(
                        "result subgraph {seed:?} is stale: the data changed since it \
                         was captured; re-run the query that produced it"
                    )))
                }
                None => set.clear(),
            }
        }
    }
    Ok(out)
}

/// Per-edge-type filters of an edge step (only types with conditions get
/// an entry; absent = every edge passes).
pub fn edge_filters(ctx: &ExecCtx<'_>, step: &CEStep) -> Result<FxHashMap<ETypeId, BitSet>> {
    let mut out = FxHashMap::default();
    for (&et, pred) in &step.local {
        let eset = ctx.graph.eset(et);
        let table = ctx
            .storage
            .get(
                eset.assoc_table
                    .as_deref()
                    .expect("conditions imply an assoc table"),
            )
            .expect("graph views reference existing tables");
        let n = eset.len();
        let hits = (0..n as u32)
            .filter(|&e| pred.eval_bool(table, eset.assoc_rows[e as usize] as usize))
            .map(|e| e as usize);
        out.insert(et, BitSet::from_indices(n, hits));
    }
    Ok(out)
}

/// Does edge `e` of type `et` pass this edge step's filters?
#[inline]
pub fn edge_passes(filters: &FxHashMap<ETypeId, BitSet>, et: ETypeId, e: u32) -> bool {
    filters.get(&et).is_none_or(|s| s.contains(e as usize))
}
