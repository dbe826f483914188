//! Whole-query driver: candidates → culling → (optional) binding
//! enumeration and multi-path joins.

use graql_graph::{ETypeId, VTypeId};
use graql_table::BitSet;
use graql_types::obs::{obs_record, obs_record_rows, obs_start, Stage};
use graql_types::Result;
use rustc_hash::FxHashMap;

use graql_parser::ast::LabelKind;

use crate::compile::{lower, BindingCond, CLink, CQuery, StepAddr};
use crate::exec::cand::{cand_count, edge_filters, local_candidates, Cand};
use crate::exec::enumerate::{enumerate_path, Binding};
use crate::exec::expand::expand;
use crate::exec::regex::group_frontier;
use crate::exec::ExecCtx;
use crate::plan::choose_order;

/// One concrete match across all paths of an and-composition.
#[derive(Debug, Clone)]
pub struct MultiBinding {
    pub per_path: Vec<Binding>,
}

/// The result of running one and-composition.
pub struct QueryRun {
    pub cquery: CQuery,
    /// Culled candidate sets, per path per vertex step.
    pub cands: Vec<Vec<Cand>>,
    /// Edge filters, per path per link (empty map = all pass).
    pub efilters: Vec<Vec<FxHashMap<ETypeId, BitSet>>>,
    /// Joined bindings (present only when requested).
    pub bindings: Option<Vec<MultiBinding>>,
}

impl QueryRun {
    /// The bound instance at `addr` in a multi-binding.
    pub fn instance(b: &MultiBinding, addr: StepAddr) -> (VTypeId, u32) {
        b.per_path[addr.path].v[addr.vstep]
    }
}

/// Lowers and runs a resolved and-composition.
pub fn run_query(ctx: &ExecCtx<'_>, mut cquery: CQuery, need_bindings: bool) -> Result<QueryRun> {
    let span = obs_start(ctx.obs);
    lower(ctx, &mut cquery)?;
    obs_record(ctx.obs, Stage::Compile, span);

    // Local candidates + edge filters.
    let span = obs_start(ctx.obs);
    let mut cands: Vec<Vec<Cand>> = Vec::new();
    let mut efilters: Vec<Vec<FxHashMap<ETypeId, BitSet>>> = Vec::new();
    let mut tested = 0;
    for p in &cquery.paths {
        let mut pc = Vec::new();
        for v in &p.vsteps {
            let (c, t) = local_candidates(ctx, v)?;
            pc.push(c);
            tested += t;
        }
        cands.push(pc);
        let mut pe = Vec::new();
        for l in &p.links {
            match l {
                CLink::Edge(e) => pe.push(edge_filters(ctx, e)?),
                CLink::Group(_) => pe.push(FxHashMap::default()),
            }
        }
        efilters.push(pe);
    }

    // Label restriction (Eq. 6–8): per Eq. 7 a referencing step behaves
    // as if it repeated the defining step's type and condition, so it is
    // restricted by the definition's *local* candidate set (snapshotted
    // before culling — using the culled set would be circular and
    // over-restrict, e.g. Eq. 12's structural query). Same-instance /
    // same-type semantics are enforced at binding time.
    let label_local: FxHashMap<String, Cand> = cquery
        .labels
        .iter()
        .map(|(n, i)| (n.clone(), cands[i.def.path][i.def.vstep].clone()))
        .collect();
    apply_label_restriction(&cquery, &mut cands, &label_local);
    obs_record_rows(
        ctx.obs,
        Stage::Candidates,
        span,
        tested as u64,
        total_count(&cands) as u64,
    );

    // For set-level results the semi-join sweeps ARE the semantics of
    // Eq. 5; only binding-level execution can treat them as an optional
    // pre-filter (enumeration re-checks every hop). The culling ablation
    // flag therefore only applies when bindings are produced.
    if ctx.config.culling || !need_bindings {
        let before = total_count(&cands);
        let span = obs_start(ctx.obs);
        cull_paths(ctx, &cquery, &mut cands, &efilters)?;
        let after = total_count(&cands);
        obs_record_rows(ctx.obs, Stage::Cull, span, before as u64, after as u64);
        if let Some(p) = ctx.obs {
            p.add_candidates(before as u64, after as u64);
        }
    }

    let bindings = if need_bindings {
        let span = obs_start(ctx.obs);
        let b = produce_bindings(ctx, &cquery, &cands, &efilters)?;
        obs_record_rows(
            ctx.obs,
            Stage::Enumerate,
            span,
            total_count(&cands) as u64,
            b.len() as u64,
        );
        Some(b)
    } else {
        None
    };

    Ok(QueryRun {
        cquery,
        cands,
        efilters,
        bindings,
    })
}

/// `cand[ref] ∩= local(def)` for every label reference.
fn apply_label_restriction(
    q: &CQuery,
    cands: &mut [Vec<Cand>],
    label_local: &FxHashMap<String, Cand>,
) {
    for (pi, p) in q.paths.iter().enumerate() {
        for (vi, v) in p.vsteps.iter().enumerate() {
            let Some(name) = &v.label_ref else { continue };
            let Some(def_set) = label_local.get(name) else {
                continue;
            };
            let here = &mut cands[pi][vi];
            for (vt, set) in here.iter_mut() {
                match def_set.get(vt) {
                    Some(d) => set.intersect_with(d),
                    None => set.clear(),
                }
            }
        }
    }
}

/// One forward and one backward semi-join sweep over each path. A path is
/// a chain of binary link relations, and a forward pass followed by a
/// backward one fully reduces a chain (Yannakakis's full reducer for
/// acyclic joins), so a second round could only confirm the first. No
/// state crosses paths: label references are restricted once, before the
/// sweeps, by `apply_label_restriction`.
fn cull_paths(
    ctx: &ExecCtx<'_>,
    q: &CQuery,
    cands: &mut [Vec<Cand>],
    efilters: &[Vec<FxHashMap<ETypeId, BitSet>>],
) -> Result<()> {
    // Fault site at the batch-granularity checkpoint: a Delay here widens
    // the window in which cancel/deadline must land mid-query; an Err
    // injects the same typed abort a tripped guard produces.
    graql_types::failpoint!(
        ctx.guard.faults(),
        "core/exec/batch",
        graql_types::GraqlError::cancelled
    );
    ctx.guard.check()?;
    for (pi, p) in q.paths.iter().enumerate() {
        // Forward sweep.
        for li in 0..p.links.len() {
            ctx.guard.check()?;
            let reached = link_expand(
                ctx,
                &p.links[li],
                &cands[pi][li],
                &efilters[pi][li],
                &cands[pi][li + 1],
                true,
            )?;
            cands[pi][li + 1] = reached;
        }
        // Backward sweep.
        for li in (0..p.links.len()).rev() {
            ctx.guard.check()?;
            let reached = link_expand(
                ctx,
                &p.links[li],
                &cands[pi][li + 1],
                &efilters[pi][li],
                &cands[pi][li],
                false,
            )?;
            cands[pi][li] = reached;
        }
    }
    Ok(())
}

fn total_count(cands: &[Vec<Cand>]) -> usize {
    cands.iter().flat_map(|p| p.iter().map(cand_count)).sum()
}

/// Expands through a link (edge hop or regex group). `from` is at the
/// earlier position when `forward`, at the later position otherwise.
pub fn link_expand(
    ctx: &ExecCtx<'_>,
    link: &CLink,
    from: &Cand,
    efilter: &FxHashMap<ETypeId, BitSet>,
    to_allowed: &Cand,
    forward: bool,
) -> Result<Cand> {
    match link {
        CLink::Edge(e) => expand(ctx, from, e, efilter, to_allowed, forward),
        CLink::Group(g) => {
            let mut reached = group_frontier(ctx, from, g, forward)?;
            // Restrict to the allowed sets on the far side.
            let mut out = Cand::new();
            for (vt, allowed) in to_allowed {
                if let Some(r) = reached.remove(vt) {
                    let mut r = r;
                    r.intersect_with(allowed);
                    out.insert(*vt, r);
                } else {
                    out.insert(*vt, BitSet::new(allowed.len()));
                }
            }
            Ok(out)
        }
    }
}

/// Enumerates each path and joins on shared element-wise labels.
fn produce_bindings(
    ctx: &ExecCtx<'_>,
    q: &CQuery,
    cands: &[Vec<Cand>],
    efilters: &[Vec<FxHashMap<ETypeId, BitSet>>],
) -> Result<Vec<MultiBinding>> {
    // Occurrences of each `foreach` label per path (vstep indices).
    let occurrences = |pi: usize, label: &str| -> Vec<usize> {
        let mut out = Vec::new();
        for (vi, v) in q.paths[pi].vsteps.iter().enumerate() {
            let matches = v
                .label_def
                .as_ref()
                .is_some_and(|(k, n)| *k == LabelKind::Each && n == label)
                || v.label_ref.as_deref() == Some(label)
                    && q.labels
                        .get(label)
                        .is_some_and(|i| i.kind == LabelKind::Each);
            if matches {
                out.push(vi);
            }
        }
        out
    };
    let each_labels: Vec<String> = {
        let mut v: Vec<String> = q
            .labels
            .iter()
            .filter(|(_, i)| i.kind == LabelKind::Each)
            .map(|(n, _)| n.clone())
            .collect();
        v.sort();
        v
    };

    let mut acc: Vec<MultiBinding> = Vec::new();
    for (pi, p) in q.paths.iter().enumerate() {
        let counts: Vec<usize> = cands[pi].iter().map(cand_count).collect();
        let span = obs_start(ctx.obs);
        let order = choose_order(&counts, ctx.config.plan_mode);
        obs_record(ctx.obs, Stage::Plan, span);
        let mut rows: Vec<Binding> = Vec::new();
        enumerate_path(ctx, p, pi, &cands[pi], &efilters[pi], &order, |b| {
            rows.push(b);
            Ok(())
        })?;

        // Within-path multiple occurrences of an Each label whose
        // definition lives in another path: enforce internal equality.
        for label in &each_labels {
            let occ = occurrences(pi, label);
            if occ.len() > 1 {
                rows.retain(|b| occ.windows(2).all(|w| b.v[w[0]] == b.v[w[1]]));
            }
        }

        if pi == 0 {
            acc = rows
                .into_iter()
                .map(|b| MultiBinding { per_path: vec![b] })
                .collect();
            continue;
        }

        // Join keys: Each labels occurring both in the accumulated paths
        // and in this path.
        let shared: Vec<&String> = each_labels
            .iter()
            .filter(|l| {
                let in_acc = (0..pi).any(|ppi| !occurrences(ppi, l).is_empty());
                let here = !occurrences(pi, l).is_empty();
                in_acc && here
            })
            .collect();

        if shared.is_empty() {
            // Cross product (pure set-label sharing), charged against the
            // row budget before it is built.
            ctx.guard
                .add_rows((acc.len() as u64).saturating_mul(rows.len() as u64))?;
            let mut next = Vec::new();
            let mut ticker = ctx.guard.ticker();
            for a in &acc {
                for r in &rows {
                    ticker.tick()?;
                    let mut per_path = a.per_path.clone();
                    per_path.push(r.clone());
                    next.push(MultiBinding { per_path });
                }
            }
            if let Some(p) = ctx.obs {
                p.add_guard_ticks(ticker.checkpoints());
            }
            ctx.guard.add_bytes(32 * next.len() as u64)?;
            acc = next;
            continue;
        }

        // Hash join on the shared label instances.
        let acc_key = |mb: &MultiBinding| -> Vec<(VTypeId, u32)> {
            shared
                .iter()
                .map(|l| {
                    let (ppi, vi) = (0..pi)
                        .find_map(|ppi| occurrences(ppi, l).first().map(|&vi| (ppi, vi)))
                        .expect("label occurs in accumulated paths");
                    mb.per_path[ppi].v[vi]
                })
                .collect()
        };
        let row_key = |b: &Binding| -> Vec<(VTypeId, u32)> {
            shared
                .iter()
                .map(|l| {
                    let vi = *occurrences(pi, l).first().expect("label occurs here");
                    b.v[vi]
                })
                .collect()
        };
        // Build the hash table on the smaller side (exact cardinalities
        // beat any estimate). Emission order is acc-major either way — the
        // swapped path restores it with a pair sort — so the physical
        // choice is invisible in results.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        if acc.len() * 4 < rows.len() {
            let mut index: FxHashMap<Vec<(VTypeId, u32)>, Vec<usize>> = FxHashMap::default();
            for (ai, a) in acc.iter().enumerate() {
                index.entry(acc_key(a)).or_default().push(ai);
            }
            for (ri, r) in rows.iter().enumerate() {
                if let Some(matches) = index.get(&row_key(r)) {
                    for &ai in matches {
                        pairs.push((ai, ri));
                    }
                }
            }
            pairs.sort_unstable();
        } else {
            let mut index: FxHashMap<Vec<(VTypeId, u32)>, Vec<usize>> = FxHashMap::default();
            for (ri, r) in rows.iter().enumerate() {
                index.entry(row_key(r)).or_default().push(ri);
            }
            for (ai, a) in acc.iter().enumerate() {
                if let Some(matches) = index.get(&acc_key(a)) {
                    for &ri in matches {
                        pairs.push((ai, ri));
                    }
                }
            }
        }
        ctx.guard.add_rows(pairs.len() as u64)?;
        let mut next = Vec::with_capacity(pairs.len());
        let mut ticker = ctx.guard.ticker();
        for (ai, ri) in pairs {
            ticker.tick()?;
            let mut per_path = acc[ai].per_path.clone();
            per_path.push(rows[ri].clone());
            next.push(MultiBinding { per_path });
        }
        if let Some(p) = ctx.obs {
            p.add_guard_ticks(ticker.checkpoints());
        }
        ctx.guard.add_bytes(32 * next.len() as u64)?;
        acc = next;
    }

    // Cross-path binding conditions (deps spanning paths).
    let cross_conds: Vec<(usize, BindingCond)> = q
        .paths
        .iter()
        .enumerate()
        .flat_map(|(pi, p)| {
            p.vsteps.iter().flat_map(move |v| {
                v.binding_conds
                    .iter()
                    .filter(move |bc| bc.deps().iter().any(|a| a.path != pi))
                    .map(move |bc| (pi, bc.clone()))
            })
        })
        .collect();
    if !cross_conds.is_empty() {
        let mut out = Vec::new();
        'rows: for mb in acc {
            for (_, bc) in &cross_conds {
                if !eval_cross_cond(ctx, bc, &mb)? {
                    continue 'rows;
                }
            }
            out.push(mb);
        }
        return Ok(out);
    }
    Ok(acc)
}

fn eval_cross_cond(ctx: &ExecCtx<'_>, bc: &BindingCond, mb: &MultiBinding) -> Result<bool> {
    let bound = |a: StepAddr| QueryRun::instance(mb, a);
    Ok(bc
        .op
        .eval(&bc.lhs.value(ctx, bound)?, &bc.rhs.value(ctx, bound)?))
}

#[cfg(test)]
mod tests {
    use graql_parser::ast::{SelectSource, Stmt};
    use graql_types::{QueryGuard, Value};

    use super::*;
    use crate::analyze::resolve::{resolve_select, Resolved};
    use crate::Database;

    /// Runs `script` statement by statement; before each graph select runs,
    /// asserts that a second sweep pair changes none of its culled
    /// candidate sets.
    fn assert_one_round_reduces(db: &mut Database, script: &str) {
        for stmt in graql_parser::parse(script).unwrap().statements {
            if let Stmt::Select(sel) = &stmt {
                if let SelectSource::Graph(_) = sel.source {
                    db.graph().unwrap();
                    let Resolved::Graph(g) = resolve_select(db.catalog(), sel).unwrap() else {
                        unreachable!("a graph source resolves to a graph select")
                    };
                    let ctx = db.exec_ctx(QueryGuard::unlimited()).unwrap();
                    for q in g.branches {
                        let qr = run_query(&ctx, q, false).unwrap();
                        let mut again = qr.cands.clone();
                        cull_paths(&ctx, &qr.cquery, &mut again, &qr.efilters).unwrap();
                        assert!(again == qr.cands, "a second round changed {sel}");
                    }
                }
            }
            db.execute(&stmt).unwrap();
        }
    }

    #[test]
    fn one_sweep_pair_fully_reduces_the_paper_queries() {
        use graql_bsbm::queries;
        let mut db = Database::new();
        db.execute_script(graql_bsbm::schema_ddl()).unwrap();
        db.execute_script(graql_bsbm::graph_ddl()).unwrap();
        for (table, csv) in graql_bsbm::generate(graql_bsbm::Scale::new(120)).tables() {
            db.ingest_str(table, csv).unwrap();
        }
        for (name, value) in [
            ("Product1", Value::str("product0")),
            ("Country1", Value::str("US")),
            ("Country2", Value::str("DE")),
            ("Feature1", Value::str("feature0")),
            ("MaxPrice", Value::Float(5000.0)),
            ("Type1", Value::str("type0")),
        ] {
            db.set_param(name, value);
        }
        let (fig11_full, fig11_ends) = queries::fig11();
        for script in [
            queries::q1(),
            queries::q2(),
            queries::q3(),
            queries::q4(),
            queries::q5(),
            queries::fig9(),
            queries::fig10(),
            fig11_full,
            fig11_ends,
            queries::fig12(),
        ] {
            assert_one_round_reduces(&mut db, script);
        }
    }

    /// A two-node cycle a ⇄ b: chains and repetition groups that wrap
    /// around it.
    #[test]
    fn one_sweep_pair_fully_reduces_paths_over_a_cycle() {
        let mut db = Database::new();
        db.execute_script(
            "create table Nodes(id integer, tag varchar(4))
             create table Links(src integer, dst integer)
             create vertex Node(id) from table Nodes
             create edge next with vertices (Node as A, Node as B)
                 from table Links where Links.src = A.id and Links.dst = B.id",
        )
        .unwrap();
        db.ingest_str("Nodes", "0,a\n1,b\n2,c\n").unwrap();
        db.ingest_str("Links", "0,1\n1,0\n1,2\n").unwrap();
        assert_one_round_reduces(
            &mut db,
            "select * from graph Node(id = 0) --next--> Node() --next--> Node() \
               --next--> Node(id = 2) into subgraph r1\n\
             select * from graph Node() <--next-- Node(id = 1) --next--> Node(tag = 'a') \
               into subgraph r2\n\
             select * from graph Node(id = 0) { --next--> Node() }{3,4} --> Node(id = 0) \
               into subgraph r3\n\
             select * from graph Node(id = 2) <--next-- Node() { <--next-- Node() }+ \
               --> Node(tag = 'a') into subgraph r4",
        );
    }
}
