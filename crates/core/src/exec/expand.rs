//! Frontier expansion over the bidirectional edge index: the primitive
//! behind both semi-join culling and regex BFS.

use graql_graph::{Csr, ETypeId, VTypeId};
use graql_parser::ast::Dir;
use graql_table::{morsel, BitSet};
use graql_types::Result;
use rustc_hash::FxHashMap;

use crate::compile::CEStep;
use crate::exec::cand::{edge_passes, Cand};
use crate::exec::ExecCtx;

/// The edge types an edge step may use between `from_vt` (at the earlier
/// path position) and some type in `to_dom` (at the later position), given
/// the step's direction; paired with the CSR to walk from the `from` side
/// and the vertex type reached.
pub fn applicable_edges<'g>(
    ctx: &ExecCtx<'g>,
    estep: &CEStep,
    from_vt: VTypeId,
    to_dom: &Cand,
    forward: bool,
) -> Vec<(ETypeId, &'g Csr, VTypeId)> {
    let etypes: Vec<ETypeId> = match &estep.domain {
        Some(d) => d.clone(),
        None => ctx.graph.etype_ids().collect(),
    };
    // `forward` means we expand from path position i to i+1; the edge's
    // lexical direction (estep.dir) decides which CSR that walk uses.
    let mut out = Vec::new();
    for et in etypes {
        let es = ctx.graph.eset(et);
        let (expected_from, reached, csr) = match (estep.dir, forward) {
            // V_i --e--> V_{i+1}: forward walks src→tgt (fwd CSR).
            (Dir::Out, true) => (es.src_type, es.tgt_type, &ctx.graph.edge_index(et).fwd),
            (Dir::Out, false) => (es.tgt_type, es.src_type, &ctx.graph.edge_index(et).rev),
            // V_i <--e-- V_{i+1}: the edge points from V_{i+1} to V_i.
            (Dir::In, true) => (es.tgt_type, es.src_type, &ctx.graph.edge_index(et).rev),
            (Dir::In, false) => (es.src_type, es.tgt_type, &ctx.graph.edge_index(et).fwd),
        };
        if expected_from == from_vt && to_dom.contains_key(&reached) {
            out.push((et, csr, reached));
        }
    }
    out
}

/// Expands `from` through `estep` into the domain/allowance `to_allowed`,
/// returning reached ∩ allowed. `forward` selects the path direction (see
/// [`applicable_edges`]).
///
/// The per-type frontier walk goes morsel-parallel when the estimated
/// traversed-edge count (catalog mean degrees × frontier size) clears the
/// profitability floor. The output is a *set* per reached type, and
/// bitset union is commutative, so the parallel merge is trivially
/// byte-identical to the serial walk.
pub fn expand(
    ctx: &ExecCtx<'_>,
    from: &Cand,
    estep: &CEStep,
    efilters: &FxHashMap<ETypeId, BitSet>,
    to_allowed: &Cand,
    forward: bool,
) -> Result<Cand> {
    let mut out: Cand = to_allowed
        .iter()
        .map(|(&vt, s)| (vt, BitSet::new(s.len())))
        .collect();
    for (&vt_a, set_a) in from {
        let edges = applicable_edges(ctx, estep, vt_a, to_allowed, forward);
        if edges.is_empty() {
            continue;
        }
        let count = set_a.count();
        let names: Vec<&str> = edges
            .iter()
            .map(|&(et, _, _)| ctx.graph.eset(et).name.as_str())
            .collect();
        let est = ctx.est_traversed_edges(&names, count, matches!(estep.dir, Dir::Out) == forward);
        let workers = morsel::scan_workers(ctx.config.threads, est, morsel::PAR_MIN_ITEMS);
        if workers <= 1 {
            for (et, csr, reached) in &edges {
                let allowed = &to_allowed[reached];
                let dest = out.get_mut(reached).expect("initialized from to_allowed");
                for v in set_a.iter() {
                    let nbrs = csr.neighbors(v as u32);
                    let eids = csr.edge_ids(v as u32);
                    for (&t, &e) in nbrs.iter().zip(eids) {
                        if allowed.contains(t as usize) && edge_passes(efilters, *et, e) {
                            dest.insert(t as usize);
                        }
                    }
                }
            }
        } else {
            let verts: Vec<u32> = set_a.iter().map(|v| v as u32).collect();
            // Few large morsels: each allocates a partial bitset per
            // reached type, so morsel count is bounded, not row-driven.
            let morsel_size = verts.len().div_ceil(workers * 4).max(1);
            let parts =
                morsel::run_morsels(ctx.guard, verts.len(), morsel_size, workers, |_, range| {
                    let mut partial: Cand = to_allowed
                        .iter()
                        .map(|(&vt, s)| (vt, BitSet::new(s.len())))
                        .collect();
                    for &v in &verts[range] {
                        for (et, csr, reached) in &edges {
                            let allowed = &to_allowed[reached];
                            let dest = partial
                                .get_mut(reached)
                                .expect("initialized from to_allowed");
                            let nbrs = csr.neighbors(v);
                            let eids = csr.edge_ids(v);
                            for (&t, &e) in nbrs.iter().zip(eids) {
                                if allowed.contains(t as usize) && edge_passes(efilters, *et, e) {
                                    dest.insert(t as usize);
                                }
                            }
                        }
                    }
                    Ok(partial)
                })?;
            for partial in parts {
                for (vt, set) in partial {
                    out.get_mut(&vt)
                        .expect("initialized from to_allowed")
                        .union_with(&set);
                }
            }
        }
    }
    Ok(out)
}

/// After culling, the concrete matched edges of a hop: edges whose source
/// side is in `cand_i`, target side in `cand_j`, passing the step filters.
/// `cand_i` is the earlier path position.
pub fn matched_edges(
    ctx: &ExecCtx<'_>,
    cand_i: &Cand,
    estep: &CEStep,
    efilters: &FxHashMap<ETypeId, BitSet>,
    cand_j: &Cand,
) -> Vec<(ETypeId, BitSet)> {
    let etypes: Vec<ETypeId> = match &estep.domain {
        Some(d) => d.clone(),
        None => ctx.graph.etype_ids().collect(),
    };
    let mut out = Vec::new();
    for et in etypes {
        let es = ctx.graph.eset(et);
        // Which path side is the edge's src/tgt under this direction?
        let (earlier, later) = match estep.dir {
            Dir::Out => (es.src_type, es.tgt_type),
            Dir::In => (es.tgt_type, es.src_type),
        };
        let (Some(set_i), Some(set_j)) = (cand_i.get(&earlier), cand_j.get(&later)) else {
            continue;
        };
        let mut hit = BitSet::new(es.len());
        for e in 0..es.len() as u32 {
            if !edge_passes(efilters, et, e) {
                continue;
            }
            let (s, t) = es.endpoints(e);
            let (on_i, on_j) = match estep.dir {
                Dir::Out => (s, t),
                Dir::In => (t, s),
            };
            if set_i.contains(on_i as usize) && set_j.contains(on_j as usize) {
                hit.insert(e as usize);
            }
        }
        if !hit.none() {
            out.push((et, hit));
        }
    }
    out
}

/// Iterates the concrete `(edge type, edge id, reached vertex)` extensions
/// of a single bound vertex through an edge step — the enumeration
/// workhorse.
pub fn extensions_of(
    ctx: &ExecCtx<'_>,
    bound: (VTypeId, u32),
    estep: &CEStep,
    efilters: &FxHashMap<ETypeId, BitSet>,
    to_allowed: &Cand,
    forward: bool,
    mut f: impl FnMut(ETypeId, u32, VTypeId, u32),
) {
    let (vt, v) = bound;
    for (et, csr, reached) in applicable_edges(ctx, estep, vt, to_allowed, forward) {
        let allowed = &to_allowed[&reached];
        let nbrs = csr.neighbors(v);
        let eids = csr.edge_ids(v);
        for (&t, &e) in nbrs.iter().zip(eids) {
            if allowed.contains(t as usize) && edge_passes(efilters, et, e) {
                f(et, e, reached, t);
            }
        }
    }
}
