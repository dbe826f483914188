//! Per-step candidate sets: Eq. 4 — `V_φ = σ_φ(V)` evaluated per candidate
//! vertex type, plus seeding from named subgraph results (Fig. 12).

use std::collections::BTreeMap;

use graql_graph::{ETypeId, VTypeId};
use graql_table::{morsel, BitSet};
use graql_types::{GraqlError, Result};
use rustc_hash::FxHashMap;

use crate::compile::{Access, CEStep, CVStep};
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

/// Domains a candidate sweep runs inline below: forking costs more than
/// it saves on a smaller one. Measured on a 2-core host (candidates stage
/// of `VT(<cond>) --e--> VW()` over an identity integer-keyed type,
/// medians of 31, threads 1 and 2 interleaved, forking at every size):
/// threads 2 took 3.6–8.3× as long at 4,096 vertices, 1.4–3.7× at 16,384,
/// 0.94–1.43× at 65,536, 0.83–1.24× at 262,144 and 0.68–0.84× at 524,288
/// for `s = 's5'`, `s != 's5'` and `x < 50` (1.5–7 ns per vertex inline).
/// Every Berlin domain at scale 10,000 (Offers: 40,000) runs inline.
const SWEEP_PAR_MIN: usize = 1 << 18;

/// Computes the local candidate set of a vertex step (domain, local
/// filters, seed restriction) and the number of vertices tested, by each
/// type's [`Access`] path: a key probe tests one vertex; a sweep runs the
/// condition's batch kernel over source-row ranges; the row fallback
/// tests vertex by vertex. Scans are morsel-parallel above a per-path
/// floor; the hit lists concatenate in morsel order, so the resulting
/// bitset is identical to a serial scan.
pub fn local_candidates(ctx: &ExecCtx<'_>, step: &CVStep) -> Result<(Cand, usize)> {
    let (mut out, mut tested) = (Cand::new(), 0);
    for &vt in &step.domain {
        let vset = ctx.graph.vset(vt);
        let (n, table) = (vset.len(), ctx.vtable(vt));
        let rep_row = |i: usize| vset.mapping.rep_row(i) as usize;
        let set = match step.local.get(&vt) {
            None => BitSet::full(n),
            Some(Access::Probe { key, rest }) => {
                tested += 1;
                let hit = vset.lookup(key).map(|i| i as usize);
                BitSet::from_indices(n, hit.filter(|&i| rest.eval_bool(table, rep_row(i))))
            }
            Some(access @ (Access::Sweep(pred) | Access::Rows(pred))) => {
                tested += n;
                let sweep = matches!(access, Access::Sweep(_));
                let floor = if sweep {
                    SWEEP_PAR_MIN
                } else {
                    morsel::PAR_MIN_ITEMS
                };
                let workers = morsel::scan_workers(ctx.config.threads, n, floor);
                let parts =
                    morsel::run_morsels(ctx.guard, n, morsel::MORSEL_ROWS, workers, |_, r| {
                        let mut hits: Vec<u32> = Vec::new();
                        if sweep {
                            pred.eval_range_into(table, r.start as u32, r.end as u32, &mut hits);
                        } else {
                            let pass = |&i: &usize| pred.eval_bool(table, rep_row(i));
                            hits.extend(r.filter(pass).map(|i| i as u32));
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
    Ok((out, tested))
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
