//! Binding enumeration: depth-first expansion of concrete path matches
//! over the culled candidate sets, in planner-chosen order.
//!
//! Set-level results (Eq. 5) answer "which vertices participate in a
//! match"; bindings answer "what are the matches" — required for table
//! results (Fig. 13: one row per match, duplicates meaningful — Berlin Q2
//! counts them), element-wise labels and cross-step conditions.

use graql_graph::{ETypeId, VTypeId};
use graql_table::{morsel, BitSet};
use graql_types::{GraqlError, Result};
use rustc_hash::FxHashMap;

use graql_parser::ast::{Dir, LabelKind};

use crate::compile::{BindingCond, CLink, CPath};
use crate::exec::cand::Cand;
use crate::exec::expand::extensions_of;
use crate::exec::ExecCtx;

/// One concrete match of a single path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Binding {
    /// Bound vertex instance per vertex step.
    pub v: Vec<(VTypeId, u32)>,
    /// Bound edge instance per link.
    pub e: Vec<(ETypeId, u32)>,
}

/// A constraint checked during enumeration, attached to the step at which
/// all its dependencies are bound.
enum Check<'a> {
    /// `foreach` label: the two steps must bind the *same instance*.
    EqualInstance(usize, usize),
    /// `def` (set) label over a type-matched step: "the type of the label
    /// becomes bound at matching time" (§II-B4) — the reference must bind
    /// the *same vertex type* as the definition.
    EqualType(usize, usize),
    /// Cross-step attribute condition (within this path).
    Cond(&'a BindingCond),
}

/// Evaluates a [`BindingCond`] whose dependencies live in one path.
pub fn eval_cond_in_path(
    ctx: &ExecCtx<'_>,
    cond: &BindingCond,
    path_idx: usize,
    bound: &[Option<(VTypeId, u32)>],
) -> Result<bool> {
    let bound = |addr: crate::compile::StepAddr| {
        debug_assert_eq!(addr.path, path_idx);
        bound[addr.vstep].expect("checks run only when deps are bound")
    };
    let l = cond.lhs.value(ctx, bound)?;
    let r = cond.rhs.value(ctx, bound)?;
    Ok(cond.op.eval(&l, &r))
}

/// Enumerates all bindings of `path` over culled candidates `cands`,
/// invoking `on_binding` for each (row cap from the exec config).
///
/// `order` must be a contiguous binding order (every step adjacent to the
/// already-bound region) — see [`crate::plan::choose_order`].
///
/// When `ExecConfig::threads > 1` and the estimated work clears the
/// profitability floor, the depth-0 start vertices are split into morsels
/// enumerated by parallel workers, each running its own DFS into a local
/// buffer; the buffers concatenate in morsel order, which is exactly the
/// serial DFS emission order, and `on_binding` then sees the identical
/// stream. Row/byte budgets are shared atomics, so limits trip at the
/// same totals as serial execution.
pub fn enumerate_path(
    ctx: &ExecCtx<'_>,
    path: &CPath,
    path_idx: usize,
    cands: &[Cand],
    efilters: &[FxHashMap<ETypeId, BitSet>],
    order: &[usize],
    mut on_binding: impl FnMut(Binding) -> Result<()>,
) -> Result<()> {
    let n = path.vsteps.len();
    assert_eq!(order.len(), n);
    if path.has_groups() {
        return Err(GraqlError::exec(
            "internal: binding enumeration over path regular expressions is not defined",
        ));
    }

    // Position of each step in the order.
    let mut pos_of = vec![0usize; n];
    for (d, &s) in order.iter().enumerate() {
        pos_of[s] = d;
    }

    // Attach checks to the depth at which they become decidable.
    let mut checks_at: Vec<Vec<Check<'_>>> = (0..n).map(|_| Vec::new()).collect();
    for (j, step) in path.vsteps.iter().enumerate() {
        for bc in &step.binding_conds {
            let deps = bc.deps();
            if deps.iter().all(|a| a.path == path_idx) {
                let depth = deps
                    .iter()
                    .map(|a| pos_of[a.vstep])
                    .chain([pos_of[j]])
                    .max()
                    .unwrap_or(0);
                checks_at[depth].push(Check::Cond(bc));
            }
        }
    }
    // Label-reference pairs within this path.
    for (j, step) in path.vsteps.iter().enumerate() {
        if step.label_ref.is_none() {
            continue;
        }
        if let Some((def_vstep, kind)) = step_label_target(path, j) {
            let depth = pos_of[def_vstep].max(pos_of[j]);
            match kind {
                LabelKind::Each => checks_at[depth].push(Check::EqualInstance(def_vstep, j)),
                LabelKind::Set => checks_at[depth].push(Check::EqualType(def_vstep, j)),
            }
        }
    }

    struct Dfs<'c, 'p, F: FnMut(Binding) -> Result<()>> {
        ctx: &'c ExecCtx<'c>,
        path: &'p CPath,
        path_idx: usize,
        cands: &'p [Cand],
        efilters: &'p [FxHashMap<ETypeId, BitSet>],
        order: &'p [usize],
        checks_at: &'p [Vec<Check<'p>>],
        on_binding: F,
        ticker: graql_types::guard::Ticker<'c>,
    }

    impl<F: FnMut(Binding) -> Result<()>> Dfs<'_, '_, F> {
        /// Depth 0: walk a slice of the flattened start list. Each start
        /// is one iteration of what the serial DFS's outermost loop did.
        fn run(
            &mut self,
            starts: &[(VTypeId, u32)],
            vbind: &mut Vec<Option<(VTypeId, u32)>>,
            ebind: &mut Vec<Option<(ETypeId, u32)>>,
        ) -> Result<()> {
            let s = self.order[0];
            for &(vt, v) in starts {
                self.ticker.tick()?;
                vbind[s] = Some((vt, v));
                if self.run_checks(0, vbind)? {
                    self.recurse(1, vbind, ebind)?;
                }
            }
            vbind[s] = None;
            Ok(())
        }

        fn run_checks(&mut self, depth: usize, vbind: &[Option<(VTypeId, u32)>]) -> Result<bool> {
            for chk in &self.checks_at[depth] {
                match chk {
                    Check::EqualInstance(a, b) => {
                        if vbind[*a] != vbind[*b] {
                            return Ok(false);
                        }
                    }
                    Check::EqualType(a, b) => match (vbind[*a], vbind[*b]) {
                        (Some((ta, _)), Some((tb, _))) if ta != tb => return Ok(false),
                        _ => {}
                    },
                    Check::Cond(bc) => {
                        if !eval_cond_in_path(self.ctx, bc, self.path_idx, vbind)? {
                            return Ok(false);
                        }
                    }
                }
            }
            Ok(true)
        }

        fn recurse(
            &mut self,
            depth: usize,
            vbind: &mut Vec<Option<(VTypeId, u32)>>,
            ebind: &mut Vec<Option<(ETypeId, u32)>>,
        ) -> Result<()> {
            let n = self.path.vsteps.len();
            if depth == n {
                self.ctx.guard.add_rows(1)?;
                let b = Binding {
                    v: vbind.iter().map(|x| x.expect("complete binding")).collect(),
                    e: ebind.iter().map(|x| x.expect("complete binding")).collect(),
                };
                return (self.on_binding)(b);
            }
            let s = self.order[depth];
            // Exactly one neighbor of s is already bound (contiguous order).
            let (neighbor, forward) = if s > 0 && vbind[s - 1].is_some() {
                (s - 1, true)
            } else {
                (s + 1, false)
            };
            let link_idx = neighbor.min(s);
            let CLink::Edge(estep) = &self.path.links[link_idx] else {
                return Err(GraqlError::exec("internal: group link in enumeration"));
            };
            let bound = vbind[neighbor].expect("neighbor bound");
            // Collect extensions first (extensions_of borrows ctx, not us).
            let mut exts: Vec<(ETypeId, u32, VTypeId, u32)> = Vec::new();
            extensions_of(
                self.ctx,
                bound,
                estep,
                &self.efilters[link_idx],
                &self.cands[s],
                forward,
                |et, e, vt, v| exts.push((et, e, vt, v)),
            );
            self.ctx.guard.add_bytes(16 * exts.len() as u64)?;
            for (et, e, vt, v) in exts {
                self.ticker.tick()?;
                vbind[s] = Some((vt, v));
                ebind[link_idx] = Some((et, e));
                if self.run_checks(depth, vbind)? {
                    self.recurse(depth + 1, vbind, ebind)?;
                }
            }
            vbind[s] = None;
            ebind[link_idx] = None;
            Ok(())
        }
    }

    // A path with no vertex steps binds the empty match exactly once.
    if n == 0 {
        ctx.guard.add_rows(1)?;
        return on_binding(Binding {
            v: Vec::new(),
            e: Vec::new(),
        });
    }

    // Flatten the depth-0 candidates into one start list: `Cand` is a
    // BTreeMap and bitset iteration is ascending, so this is exactly the
    // serial DFS's outermost iteration order — and the parallel split
    // point.
    let s0 = order[0];
    let starts: Vec<(VTypeId, u32)> = cands[s0]
        .iter()
        .flat_map(|(&vt, set)| set.iter().map(move |v| (vt, v as u32)))
        .collect();

    // Estimated extensions out of depth 0 (catalog mean degree of the
    // first link's edge types when known): the dispatch heuristic for how
    // much enumeration work the starts fan out into.
    let est = if order.len() >= 2 {
        let s1 = order[1];
        if let CLink::Edge(estep) = &path.links[s0.min(s1)] {
            let names: Vec<&str> = match &estep.domain {
                Some(d) => d
                    .iter()
                    .map(|&et| ctx.graph.eset(et).name.as_str())
                    .collect(),
                None => ctx
                    .graph
                    .etype_ids()
                    .map(|et| ctx.graph.eset(et).name.as_str())
                    .collect(),
            };
            ctx.est_traversed_edges(
                &names,
                starts.len(),
                matches!(estep.dir, Dir::Out) == (s1 > s0),
            )
        } else {
            starts.len()
        }
    } else {
        starts.len()
    };
    let workers = morsel::scan_workers(ctx.config.threads, est, morsel::PAR_MIN_ITEMS);

    if workers <= 1 {
        // Serial: stream bindings straight to the caller.
        let mut vbind: Vec<Option<(VTypeId, u32)>> = vec![None; n];
        let mut ebind: Vec<Option<(ETypeId, u32)>> = vec![None; n.saturating_sub(1)];
        let mut dfs = Dfs {
            ctx,
            path,
            path_idx,
            cands,
            efilters,
            order,
            checks_at: &checks_at,
            on_binding: &mut on_binding,
            ticker: ctx.guard.ticker(),
        };
        return dfs.run(&starts, &mut vbind, &mut ebind);
    }

    // Parallel: each morsel of starts runs its own DFS into a local
    // buffer; buffers concatenate in morsel order (= serial emission
    // order) before the caller sees them.
    let morsel_size = starts.len().div_ceil(workers * 8).max(1);
    let parts = morsel::run_morsels(ctx.guard, starts.len(), morsel_size, workers, |_, range| {
        let mut local: Vec<Binding> = Vec::new();
        let mut vbind: Vec<Option<(VTypeId, u32)>> = vec![None; n];
        let mut ebind: Vec<Option<(ETypeId, u32)>> = vec![None; n.saturating_sub(1)];
        let mut dfs = Dfs {
            ctx,
            path,
            path_idx,
            cands,
            efilters,
            order,
            checks_at: &checks_at,
            on_binding: |b: Binding| {
                local.push(b);
                Ok(())
            },
            ticker: ctx.guard.ticker(),
        };
        dfs.run(&starts[range], &mut vbind, &mut ebind)?;
        Ok(local)
    })?;
    for b in parts.into_iter().flatten() {
        on_binding(b)?;
    }
    Ok(())
}

/// If step `j` is a label reference, returns the defining vertex step
/// *within the same path* and the label kind (cross-path definitions
/// return `None`; they are join keys, not in-path checks).
fn step_label_target(path: &CPath, j: usize) -> Option<(usize, LabelKind)> {
    let name = path.vsteps[j].label_ref.as_ref()?;
    for (i, v) in path.vsteps.iter().enumerate() {
        if let Some((kind, n)) = &v.label_def {
            if n == name {
                return Some((i, *kind));
            }
        }
    }
    None
}
