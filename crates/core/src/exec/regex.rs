//! Path regular expressions (§II-B4, Fig. 10): repetition of variant hop
//! sequences, evaluated as reachability over the product of the graph with
//! the group's hop automaton.
//!
//! Binding-level enumeration through an unbounded repetition would be
//! exponential, so groups produce *set* results: the vertices reached
//! after a valid repetition count, and — for subgraph capture — the
//! vertices and edges lying on some valid walk.
//!
//! A product state is (vertex, hop phase `0..m`, repetition count). A
//! finite group counts exactly up to `hi`; an unbounded one saturates the
//! count at `lo`, since every count past `lo` is as valid as `lo`. A sweep
//! keeps one visited [`Cand`] per (phase, count) and expands only the
//! vertices new to it, so each state is expanded once and the sweep ends
//! after at most `m·(c+1)·|V|` state visits (`c` = `lo`, or the finite
//! `hi`): no cap and no stability test.
//!
//! * **Forward** sets hold vertices with a valid prefix, their own hop
//!   condition included. **Backward** sets hold vertices with a valid
//!   suffix to an exit, their own condition *excluded*: a phase-0 vertex is
//!   either the unconditioned group entry or an intermediate boundary that
//!   still carries the last hop's condition, and only the prefix knows
//!   which. A backward step therefore applies the hop condition to the
//!   vertex it leaves, and lands in the unconditioned universe.
//! * **Members**: a vertex at phase `j` lies on a walk of `r` repetitions
//!   iff it is in the forward set `(j, f)` and the backward set `(j, b)`
//!   with `f + b = r` (the backward count is the number of repetitions
//!   entered walking back from the exit). Under saturation `f + b ≥ lo`
//!   still tests `r ≥ lo` exactly: a saturated count is `lo` and bounds
//!   the true one from below.
//! * **Huge finite bounds.** Let `|V|` be the graph's vertex count. The
//!   saturated product has `S = m·(lo+1)·|V|` states. A shortest walk
//!   through a member state, or a member edge, is a shortest prefix plus a
//!   shortest suffix, each visiting a saturated state at most once, so it
//!   has at most `2S − 1` hops: fewer than `2·(lo+1)·|V|` repetitions. A
//!   finite `hi ≥ 2·(lo+1)·|V| + 1` therefore selects exactly what the
//!   unbounded group selects, and is evaluated as unbounded. The bound
//!   comes from the input, so `{0,1000000000}` on a cycle stays cheap.

use std::collections::BTreeMap;

use graql_graph::ETypeId;
use graql_table::BitSet;
use graql_types::Result;
use rustc_hash::FxHashMap;

use crate::compile::CGroup;
use crate::exec::cand::{cand_count, edge_filters, local_candidates, Cand};
use crate::exec::expand::{expand, matched_edges};
use crate::exec::ExecCtx;

/// Visited product states of one sweep, keyed by (phase, count).
type States = BTreeMap<(usize, usize), Cand>;

/// A lowered group ready to sweep.
struct Automaton<'g> {
    group: &'g CGroup,
    /// Per hop: the landing vertex's candidates (domain + hop conditions).
    cands: Vec<Cand>,
    /// Per hop: the edge step's filters.
    filters: Vec<FxHashMap<ETypeId, BitSet>>,
    /// Every vertex: where a backward step may land.
    universe: Cand,
    lo: usize,
    /// `None` for an unbounded group, or a finite bound too large to
    /// select anything the unbounded group does not.
    hi: Option<usize>,
}

impl<'g> Automaton<'g> {
    fn new(ctx: &ExecCtx<'_>, group: &'g CGroup) -> Result<Self> {
        let universe: Cand = ctx
            .graph
            .vtype_ids()
            .map(|vt| (vt, BitSet::full(ctx.graph.vset(vt).len())))
            .collect();
        let lo = group.lo as usize;
        // Past this, a finite bound selects what `*` selects (module doc).
        let max_exact = (lo + 1).saturating_mul(2 * cand_count(&universe));
        Ok(Automaton {
            group,
            cands: group
                .hops
                .iter()
                .map(|(_, v)| Ok(local_candidates(ctx, v)?.0))
                .collect::<Result<_>>()?,
            filters: group
                .hops
                .iter()
                .map(|(e, _)| edge_filters(ctx, e))
                .collect::<Result<_>>()?,
            universe,
            lo,
            hi: group.hi.map(|hi| hi as usize).filter(|&hi| hi <= max_exact),
        })
    }

    /// Whether `reps` repetitions (a saturated total when unbounded) are
    /// valid.
    fn valid(&self, reps: usize) -> bool {
        reps >= self.lo && self.hi.is_none_or(|hi| reps <= hi)
    }

    /// One hop on from state (`phase`, `count`), walking `forward` or
    /// backward: the hop taken and the phase and count it lands in. `None`
    /// when the step would start a repetition past `hi`.
    fn step(&self, phase: usize, count: usize, forward: bool) -> Option<(usize, usize, usize)> {
        if phase == 0 && self.hi == Some(count) {
            return None;
        }
        let m = self.group.hops.len();
        let (hop, to, crosses) = if forward {
            (phase, (phase + 1) % m, phase + 1 == m)
        } else {
            let hop = (phase + m - 1) % m;
            (hop, hop, phase == 0)
        };
        let count = match (crosses, self.hi) {
            (false, _) => count,
            (true, Some(_)) => count + 1,
            (true, None) => (count + 1).min(self.lo),
        };
        Some((hop, to, count))
    }

    /// Every state reachable from `start` at (phase 0, count 0), walking
    /// `forward` from the entry side or backward from the exit side.
    fn sweep(&self, ctx: &ExecCtx<'_>, start: &Cand, forward: bool) -> Result<States> {
        let mut states = States::new();
        let mut todo = vec![((0, 0), start.clone())];
        while !todo.is_empty() {
            // One checkpoint per round; every new state set is charged
            // against the byte budget, so a runaway finite group fails
            // with the typed budget error.
            ctx.guard.check()?;
            for ((phase, count), mut new) in std::mem::take(&mut todo) {
                let seen = states.entry((phase, count)).or_default();
                for (vt, set) in new.iter_mut() {
                    if let Some(s) = seen.get(vt) {
                        set.difference_with(s);
                    }
                }
                let added = cand_count(&new);
                if added == 0 {
                    continue;
                }
                ctx.guard.add_bytes(4 * added as u64)?;
                union_into(seen, &new);
                let Some((hop, to, to_count)) = self.step(phase, count, forward) else {
                    continue;
                };
                let (estep, filters) = (&self.group.hops[hop].0, &self.filters[hop]);
                let next = if forward {
                    expand(ctx, &new, estep, filters, &self.cands[hop], true)?
                } else {
                    // The vertex left behind is the landing of `hop`.
                    let from = intersect(&new, &self.cands[hop]);
                    expand(ctx, &from, estep, filters, &self.universe, false)?
                };
                todo.push(((to, to_count), next));
            }
        }
        Ok(states)
    }
}

fn union_into(dst: &mut Cand, src: &Cand) {
    for (vt, set) in src {
        dst.entry(*vt)
            .and_modify(|s| s.union_with(set))
            .or_insert_with(|| set.clone());
    }
}

fn intersect(a: &Cand, b: &Cand) -> Cand {
    a.iter()
        .filter_map(|(vt, set)| {
            let mut set = set.clone();
            set.intersect_with(b.get(vt)?);
            Some((*vt, set))
        })
        .collect()
}

/// The frontier after any valid repetition count, entered from `start`
/// (walking `forward` along the path). For backward sweeps this is the set
/// of possible group-entry vertices.
pub fn group_frontier(
    ctx: &ExecCtx<'_>,
    start: &Cand,
    group: &CGroup,
    forward: bool,
) -> Result<Cand> {
    let a = Automaton::new(ctx, group)?;
    let mut out = Cand::new();
    for ((phase, count), set) in a.sweep(ctx, start, forward)? {
        if phase == 0 && a.valid(count) {
            union_into(&mut out, &set);
        }
    }
    Ok(out)
}

/// Vertices and edges on *some* valid walk from `entry` to `exit` through
/// the group: the forward states co-reachable backward with a valid total
/// count, and the edges joining consecutive member states.
pub fn group_members(
    ctx: &ExecCtx<'_>,
    entry: &Cand,
    exit: &Cand,
    group: &CGroup,
) -> Result<(Cand, Vec<(ETypeId, BitSet)>)> {
    let a = Automaton::new(ctx, group)?;
    let (fwd, bwd) = (a.sweep(ctx, entry, true)?, a.sweep(ctx, exit, false)?);
    let mut member = States::new();
    let mut members = Cand::new();
    for (&(phase, f), f_set) in &fwd {
        ctx.guard.check()?;
        let mut suffix = Cand::new();
        for ((_, b), b_set) in bwd.range((phase, 0)..(phase + 1, 0)) {
            if a.valid(f + b) {
                union_into(&mut suffix, b_set);
            }
        }
        let m = intersect(f_set, &suffix);
        union_into(&mut members, &m);
        member.insert((phase, f), m);
    }
    let mut edges: BTreeMap<ETypeId, BitSet> = BTreeMap::new();
    for (&(phase, count), from) in &member {
        let Some((hop, to, to_count)) = a.step(phase, count, true) else {
            continue;
        };
        let Some(target) = member.get(&(to, to_count)) else {
            continue;
        };
        // A phase-0 member may be an unconditioned entry; an edge landing
        // there must meet the hop's condition.
        let target = intersect(target, &a.cands[hop]);
        for (et, hit) in matched_edges(ctx, from, &group.hops[hop].0, &a.filters[hop], &target) {
            edges
                .entry(et)
                .and_modify(|s| s.union_with(&hit))
                .or_insert(hit);
        }
    }
    Ok((members, edges.into_iter().collect()))
}
