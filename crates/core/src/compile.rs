//! Compilation of path queries into an executable form.
//!
//! Resolves step names against the graph's type registry (and the query's
//! own labels), narrows variant-step domains through edge endpoint
//! constraints, and compiles step conditions into physical predicates —
//! local ones per candidate type, and cross-step (label-referencing) ones
//! into binding constraints checked during enumeration.

use graql_graph::{ETypeId, Graph, VTypeId};
use graql_parser::ast::{self, Dir, LabelKind, Segment, StepName};
use graql_table::{PhysExpr, Table};
use graql_types::{CmpOp, GraqlError, Result, Value};
use rustc_hash::FxHashMap;

use crate::cond::{compile_single_table, lit_value, Params};
use crate::ddl::Storage;

/// Address of a vertex step within a compiled multi-path query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StepAddr {
    pub path: usize,
    pub vstep: usize,
}

/// A registered label.
#[derive(Debug, Clone)]
pub struct LabelInfo {
    pub kind: LabelKind,
    pub def: StepAddr,
}

/// Operand of a binding-level condition.
#[derive(Debug, Clone)]
pub enum BOperand {
    /// Attribute `name` of the vertex bound at `addr`.
    Attr {
        addr: StepAddr,
        name: String,
    },
    Const(Value),
}

/// A condition spanning steps, evaluated once all referenced steps are
/// bound (element-wise semantics; see DESIGN.md §4.2).
#[derive(Debug, Clone)]
pub struct BindingCond {
    pub op: CmpOp,
    pub lhs: BOperand,
    pub rhs: BOperand,
}

impl BindingCond {
    /// Steps this condition needs bound.
    pub fn deps(&self) -> Vec<StepAddr> {
        let mut out = Vec::new();
        for o in [&self.lhs, &self.rhs] {
            if let BOperand::Attr { addr, .. } = o {
                out.push(*addr);
            }
        }
        out
    }
}

/// A compiled vertex step.
#[derive(Debug, Clone)]
pub struct CVStep {
    /// Candidate vertex types (singleton for concrete steps).
    pub domain: Vec<VTypeId>,
    /// `true` when the surface step was the `[ ]` metavariable.
    pub is_any: bool,
    /// Local filter per domain type (absent = no filter for that type).
    pub local: FxHashMap<VTypeId, PhysExpr>,
    /// Cross-step conditions anchored at this step.
    pub binding_conds: Vec<BindingCond>,
    pub label_def: Option<(LabelKind, String)>,
    /// Set when the step itself is a reference to an earlier label.
    pub label_ref: Option<String>,
    /// Named subgraph seeding this step (Fig. 12).
    pub seed: Option<String>,
    /// Name used in projections and diagnostics.
    pub display: String,
}

/// A compiled edge step.
#[derive(Debug, Clone)]
pub struct CEStep {
    /// Candidate edge types; `None` means unrestricted (`[ ]`).
    pub domain: Option<Vec<ETypeId>>,
    pub dir: Dir,
    /// Local filter per edge type over the associated table.
    pub local: FxHashMap<ETypeId, PhysExpr>,
    pub label_def: Option<(LabelKind, String)>,
    pub display: String,
}

/// A compiled path-regex group (§II-B4): hops repeated `lo..=hi` times.
#[derive(Debug, Clone)]
pub struct CGroup {
    pub hops: Vec<(CEStep, CVStep)>,
    pub lo: u32,
    pub hi: u32,
}

/// Link between consecutive vertex steps.
#[derive(Debug, Clone)]
pub enum CLink {
    Edge(CEStep),
    Group(CGroup),
}

/// A compiled simple path: `vsteps.len() == links.len() + 1`.
#[derive(Debug, Clone)]
pub struct CPath {
    pub vsteps: Vec<CVStep>,
    pub links: Vec<CLink>,
}

impl CPath {
    pub fn has_groups(&self) -> bool {
        self.links.iter().any(|l| matches!(l, CLink::Group(_)))
    }
}

/// Address of an edge step (a link) within a compiled query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkAddr {
    pub path: usize,
    pub link: usize,
}

/// A compiled and-composition: several paths sharing labels.
#[derive(Debug, Clone)]
pub struct CQuery {
    pub paths: Vec<CPath>,
    pub labels: FxHashMap<String, LabelInfo>,
    /// Labels attached to edge steps (projection handles only; edges have
    /// no reference steps).
    pub edge_labels: FxHashMap<String, LinkAddr>,
}

impl CQuery {
    /// Resolves a projection qualifier (label, unique vertex-type name, or
    /// unique display name) to a step address.
    pub fn resolve_step(&self, name: &str) -> Result<StepAddr> {
        if let Some(info) = self.labels.get(name) {
            return Ok(info.def);
        }
        let mut hits = Vec::new();
        for (pi, p) in self.paths.iter().enumerate() {
            for (vi, v) in p.vsteps.iter().enumerate() {
                if v.display == name && v.label_ref.is_none() {
                    hits.push(StepAddr {
                        path: pi,
                        vstep: vi,
                    });
                }
            }
        }
        match hits.len() {
            1 => Ok(hits[0]),
            0 => Err(GraqlError::name(format!("unknown step or label '{name}'"))),
            _ => Err(GraqlError::path(format!(
                "step name '{name}' is ambiguous; label it to disambiguate"
            ))),
        }
    }

    pub fn step(&self, addr: StepAddr) -> &CVStep {
        &self.paths[addr.path].vsteps[addr.vstep]
    }

    /// The edge step at a link address (edge links only).
    pub fn edge_step(&self, addr: LinkAddr) -> Option<&CEStep> {
        match &self.paths[addr.path].links[addr.link] {
            CLink::Edge(e) => Some(e),
            CLink::Group(_) => None,
        }
    }
}

/// Compilation context: the graph types + table schemas + parameters.
pub struct CompileCtx<'a> {
    pub graph: &'a Graph,
    pub storage: &'a Storage,
    pub params: &'a Params,
    /// Cap applied to `*`/`+` quantifiers (and a DoS guard for explicit
    /// `{n,m}` ranges); see [`crate::plan::ExecConfig::regex_cap`].
    pub regex_cap: u32,
}

impl<'a> CompileCtx<'a> {
    /// Source table of a vertex type.
    pub fn vtable(&self, vt: VTypeId) -> &'a Table {
        let name = &self.graph.vset(vt).table;
        self.storage
            .get(name)
            .expect("catalog and storage are consistent")
    }

    /// Associated table of an edge type, if it has attributes.
    pub fn etable(&self, et: ETypeId) -> Option<&'a Table> {
        self.graph.eset(et).assoc_table.as_ref().map(|n| {
            self.storage
                .get(n)
                .map(|t| t.as_ref())
                .expect("catalog and storage are consistent")
        })
    }
}

/// Compiles an and-composition (list of simple paths) into a [`CQuery`].
pub fn compile_query(ctx: &CompileCtx<'_>, paths: &[&ast::PathQuery]) -> Result<CQuery> {
    let mut q = CQuery {
        paths: Vec::new(),
        labels: FxHashMap::default(),
        edge_labels: FxHashMap::default(),
    };
    for (pi, path) in paths.iter().enumerate() {
        let cpath = compile_path(ctx, path, pi, &mut q.labels)?;
        // Register edge labels (vertex and edge labels share a namespace).
        for (li, link) in cpath.links.iter().enumerate() {
            if let CLink::Edge(e) = link {
                if let Some((_, name)) = &e.label_def {
                    if q.labels.contains_key(name) || q.edge_labels.contains_key(name) {
                        return Err(GraqlError::path(format!("label '{name}' defined twice")));
                    }
                    q.edge_labels
                        .insert(name.clone(), LinkAddr { path: pi, link: li });
                }
            }
        }
        q.paths.push(cpath);
    }
    // Label-reference steps inherit the domain of their defining step.
    propagate_label_domains(&mut q)?;
    Ok(q)
}

fn all_vtypes(g: &Graph) -> Vec<VTypeId> {
    g.vtype_ids().collect()
}

fn compile_path(
    ctx: &CompileCtx<'_>,
    path: &ast::PathQuery,
    path_idx: usize,
    labels: &mut FxHashMap<String, LabelInfo>,
) -> Result<CPath> {
    let mut vsteps: Vec<CVStep> = Vec::new();
    let mut links: Vec<CLink> = Vec::new();

    let push_vstep = |vsteps: &mut Vec<CVStep>,
                      step: &ast::VertexStep,
                      labels: &mut FxHashMap<String, LabelInfo>|
     -> Result<()> {
        let addr = StepAddr {
            path: path_idx,
            vstep: vsteps.len(),
        };
        let cv = compile_vertex_step(ctx, step, addr, labels)?;
        if let Some((kind, name)) = &cv.label_def {
            if labels.contains_key(name) {
                return Err(GraqlError::path(format!("label '{name}' defined twice")));
            }
            labels.insert(
                name.clone(),
                LabelInfo {
                    kind: *kind,
                    def: addr,
                },
            );
        }
        vsteps.push(cv);
        Ok(())
    };

    push_vstep(&mut vsteps, &path.head, labels)?;
    for seg in &path.segments {
        match seg {
            Segment::Hop { edge, vertex } => {
                links.push(CLink::Edge(compile_edge_step(ctx, edge)?));
                push_vstep(&mut vsteps, vertex, labels)?;
            }
            Segment::Group {
                hops, quant, exit, ..
            } => {
                let mut chops = Vec::new();
                for (e, v) in hops {
                    if v.label_def.is_some() || e.label_def.is_some() {
                        return Err(GraqlError::path(
                            "labels inside path regular expressions are not supported",
                        ));
                    }
                    if v.seed.is_some() {
                        return Err(GraqlError::path(
                            "seeds inside path groups are not supported",
                        ));
                    }
                    let addr = StepAddr {
                        path: path_idx,
                        vstep: usize::MAX,
                    };
                    let mut cv = compile_vertex_step(ctx, v, addr, labels)?;
                    if cv.label_ref.is_some() {
                        return Err(GraqlError::path(
                            "label references inside path groups are not supported",
                        ));
                    }
                    // Hop conditions compile here (the later pass only
                    // covers top-level steps).
                    if let Some(cond) = &v.cond {
                        if cv.is_any {
                            return Err(GraqlError::path(
                                "conditions are not allowed on variant ([ ]) vertex steps",
                            ));
                        }
                        for vt in cv.domain.clone() {
                            let table = ctx.vtable(vt);
                            check_many_to_one_cols(cond, ctx.graph.vset(vt), table)?;
                            let quals: Vec<&str> = vec![&cv.display];
                            cv.local.insert(
                                vt,
                                compile_single_table(cond, table.schema(), &quals, ctx.params)?,
                            );
                        }
                    }
                    chops.push((compile_edge_step(ctx, e)?, cv));
                }
                let cap = ctx.regex_cap.max(1);
                let (lo, hi) = quant.bounds(cap);
                // Explicit ranges are honored up to the cap (guarding
                // against pathological `{0,1000000000}` requests).
                let hi = hi.min(lo.saturating_add(cap));
                links.push(CLink::Group(CGroup {
                    hops: chops,
                    lo,
                    hi,
                }));
                // The step after a group is its explicit exit, or a
                // synthetic unconstrained step typed like the group's last
                // hop vertex.
                match exit {
                    Some(v) => push_vstep(&mut vsteps, v, labels)?,
                    None => {
                        let last = &links
                            .last()
                            .and_then(|l| match l {
                                CLink::Group(g) => g.hops.last(),
                                _ => None,
                            })
                            .expect("group was just pushed")
                            .1;
                        vsteps.push(CVStep {
                            domain: last.domain.clone(),
                            is_any: true,
                            local: FxHashMap::default(),
                            binding_conds: Vec::new(),
                            label_def: None,
                            label_ref: None,
                            seed: None,
                            display: format!("exit{}", vsteps.len()),
                        });
                    }
                }
            }
        }
    }

    let mut cpath = CPath { vsteps, links };
    narrow_domains(ctx.graph, &mut cpath)?;
    compile_local_conds(ctx, &mut cpath, path, path_idx, labels)?;
    Ok(cpath)
}

fn compile_vertex_step(
    ctx: &CompileCtx<'_>,
    step: &ast::VertexStep,
    _addr: StepAddr,
    labels: &FxHashMap<String, LabelInfo>,
) -> Result<CVStep> {
    let (domain, is_any, label_ref, display) = match &step.name {
        StepName::Any => (all_vtypes(ctx.graph), true, None, "[]".to_string()),
        StepName::Named(n) => {
            if labels.contains_key(n) {
                // A reference to an earlier label: domain resolved later.
                (Vec::new(), false, Some(n.clone()), n.clone())
            } else {
                let vt = ctx.graph.vtype(n).ok_or_else(|| {
                    GraqlError::name(format!("unknown vertex type or label '{n}'"))
                })?;
                (vec![vt], false, None, n.clone())
            }
        }
    };
    Ok(CVStep {
        domain,
        is_any,
        local: FxHashMap::default(),
        binding_conds: Vec::new(), // conditions compiled in a later pass
        label_def: step.label_def.as_ref().map(|l| (l.kind, l.name.clone())),
        label_ref,
        seed: step.seed.clone(),
        display,
    })
}

fn compile_edge_step(ctx: &CompileCtx<'_>, step: &ast::EdgeStep) -> Result<CEStep> {
    let (domain, display) = match &step.name {
        StepName::Any => {
            if step.cond.is_some() {
                // §II-B4: "conditional expressions for variant query steps
                // are not allowed".
                return Err(GraqlError::path(
                    "conditions are not allowed on variant ([ ]) edge steps",
                ));
            }
            (None, "[]".to_string())
        }
        StepName::Named(n) => {
            let et = ctx
                .graph
                .etype(n)
                .ok_or_else(|| GraqlError::name(format!("unknown edge type '{n}'")))?;
            (Some(vec![et]), n.clone())
        }
    };
    let mut local = FxHashMap::default();
    if let Some(cond) = &step.cond {
        let ets = domain.as_ref().expect("variant steps rejected above");
        for &et in ets {
            let table = ctx.etable(et).ok_or_else(|| {
                GraqlError::type_error(format!(
                    "edge type '{display}' has no attributes; conditions are not applicable"
                ))
            })?;
            let quals: Vec<&str> = vec![&display];
            local.insert(
                et,
                compile_single_table(cond, table.schema(), &quals, ctx.params)?,
            );
        }
    }
    Ok(CEStep {
        domain,
        dir: step.dir,
        local,
        label_def: step.label_def.as_ref().map(|l| (l.kind, l.name.clone())),
        display,
    })
}

/// Narrows variant vertex domains through edge endpoint types, iterating
/// to a fixpoint (a variant step between two concrete edges can only hold
/// types those edges connect).
fn narrow_domains(g: &Graph, path: &mut CPath) -> Result<()> {
    loop {
        let mut changed = false;
        for (i, link) in path.links.iter().enumerate() {
            let CLink::Edge(e) = link else { continue };
            let (src_of_link, tgt_of_link) = match e.dir {
                Dir::Out => (i, i + 1),
                Dir::In => (i + 1, i),
            };
            // Skip narrowing around label references (resolved later).
            if path.vsteps[src_of_link].label_ref.is_some()
                || path.vsteps[tgt_of_link].label_ref.is_some()
            {
                continue;
            }
            let etypes: Vec<ETypeId> = match &e.domain {
                Some(d) => d.clone(),
                None => g.etype_ids().collect(),
            };
            let src_dom: Vec<VTypeId> = path.vsteps[src_of_link].domain.clone();
            let tgt_dom: Vec<VTypeId> = path.vsteps[tgt_of_link].domain.clone();
            let feasible: Vec<ETypeId> = etypes
                .iter()
                .copied()
                .filter(|&et| {
                    let es = g.eset(et);
                    src_dom.contains(&es.src_type) && tgt_dom.contains(&es.tgt_type)
                })
                .collect();
            let new_src: Vec<VTypeId> = src_dom
                .iter()
                .copied()
                .filter(|&vt| feasible.iter().any(|&et| g.eset(et).src_type == vt))
                .collect();
            let new_tgt: Vec<VTypeId> = tgt_dom
                .iter()
                .copied()
                .filter(|&vt| feasible.iter().any(|&et| g.eset(et).tgt_type == vt))
                .collect();
            if new_src.len() != src_dom.len() {
                path.vsteps[src_of_link].domain = new_src;
                changed = true;
            }
            if new_tgt.len() != tgt_dom.len() {
                path.vsteps[tgt_of_link].domain = new_tgt;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // A concrete (named) step whose domain emptied means the edge cannot
    // connect the declared types — a static path error.
    for (i, v) in path.vsteps.iter().enumerate() {
        if v.domain.is_empty() && v.label_ref.is_none() {
            return Err(GraqlError::path(format!(
                "step {} ({}) cannot be reached by any edge type in the path",
                i, v.display
            )));
        }
    }
    Ok(())
}

/// Compiles vertex-step conditions: conjuncts over the step's own
/// attributes become per-type physical predicates; conjuncts referencing
/// labels become binding conditions.
fn compile_local_conds(
    ctx: &CompileCtx<'_>,
    cpath: &mut CPath,
    path: &ast::PathQuery,
    path_idx: usize,
    labels: &FxHashMap<String, LabelInfo>,
) -> Result<()> {
    // Collect the surface vertex steps aligned with cpath.vsteps.
    let mut surface: Vec<Option<&ast::VertexStep>> = Vec::new();
    surface.push(Some(&path.head));
    for seg in &path.segments {
        match seg {
            Segment::Hop { vertex, .. } => surface.push(Some(vertex)),
            Segment::Group { exit, .. } => surface.push(exit.as_ref()),
        }
    }
    debug_assert_eq!(surface.len(), cpath.vsteps.len());

    for (vi, (cv, sv)) in cpath.vsteps.iter_mut().zip(&surface).enumerate() {
        let Some(sv) = sv else { continue };
        let Some(cond) = &sv.cond else { continue };
        if cv.is_any {
            // §II-B4 again, vertex flavor.
            return Err(GraqlError::path(
                "conditions are not allowed on variant ([ ]) vertex steps",
            ));
        }
        let addr = StepAddr {
            path: path_idx,
            vstep: vi,
        };
        let mut conjuncts = Vec::new();
        flatten_and(cond, &mut conjuncts);
        let mut local_parts: Vec<&ast::Expr> = Vec::new();
        for c in conjuncts {
            if references_label(c, labels) {
                cv.binding_conds
                    .push(compile_binding_cond(ctx, c, addr, labels)?);
            } else {
                local_parts.push(c);
            }
        }
        if !local_parts.is_empty() {
            let merged = ast::Expr::And(local_parts.into_iter().cloned().collect());
            // Conditions on a label-reference step are rejected below, so
            // an empty domain simply skips the per-type compilation loop.
            let domain = if cv.label_ref.is_some() {
                Vec::new()
            } else {
                cv.domain.clone()
            };
            for vt in domain {
                let table = ctx.vtable(vt);
                let vset = ctx.graph.vset(vt);
                check_many_to_one_cols(&merged, vset, table)?;
                let quals: Vec<&str> = vec![&cv.display];
                cv.local.insert(
                    vt,
                    compile_single_table(&merged, table.schema(), &quals, ctx.params)?,
                );
            }
            if cv.label_ref.is_some() {
                return Err(GraqlError::path(format!(
                    "conditions on label-reference step {:?} are not supported; \
                     put them on the defining step",
                    cv.display
                )));
            }
        }
    }
    Ok(())
}

/// Many-to-one vertex types only expose their key columns (the other
/// attributes are not single-valued per vertex).
fn check_many_to_one_cols(
    expr: &ast::Expr,
    vset: &graql_graph::VertexSet,
    table: &Table,
) -> Result<()> {
    if vset.mapping.is_one_to_one() {
        return Ok(());
    }
    let mut err = None;
    expr.for_each_attr(&mut |_, name| {
        if err.is_none() {
            if let Some(c) = table.schema().index_of(name) {
                if !vset.key_cols.contains(&c) {
                    err = Some(GraqlError::type_error(format!(
                        "attribute '{name}' of many-to-one vertex type {} is not single-valued",
                        vset.name
                    )));
                }
            }
        }
    });
    err.map_or(Ok(()), Err)
}

fn compile_binding_cond(
    ctx: &CompileCtx<'_>,
    expr: &ast::Expr,
    here: StepAddr,
    labels: &FxHashMap<String, LabelInfo>,
) -> Result<BindingCond> {
    let ast::Expr::Cmp { op, lhs, rhs, .. } = expr else {
        return Err(GraqlError::path(
            "label references must appear in simple comparisons (no nested and/or/not)",
        ));
    };
    let comp = |o: &ast::Operand| -> Result<BOperand> {
        Ok(match o {
            ast::Operand::Attr {
                qualifier: Some(q),
                name,
            } => {
                let info = labels
                    .get(q)
                    .ok_or_else(|| GraqlError::name(format!("unknown label '{q}' in condition")))?;
                BOperand::Attr {
                    addr: info.def,
                    name: name.clone(),
                }
            }
            ast::Operand::Attr {
                qualifier: None,
                name,
            } => BOperand::Attr {
                addr: here,
                name: name.clone(),
            },
            ast::Operand::Lit(l) => BOperand::Const(lit_value(l, ctx.params)?),
        })
    };
    Ok(BindingCond {
        op: *op,
        lhs: comp(lhs)?,
        rhs: comp(rhs)?,
    })
}

fn references_label(expr: &ast::Expr, labels: &FxHashMap<String, LabelInfo>) -> bool {
    let mut found = false;
    expr.for_each_attr(&mut |q, _| {
        if let Some(q) = q {
            if labels.contains_key(q) {
                found = true;
            }
        }
    });
    found
}

fn flatten_and<'e>(e: &'e ast::Expr, out: &mut Vec<&'e ast::Expr>) {
    match e {
        ast::Expr::And(parts) => parts.iter().for_each(|p| flatten_and(p, out)),
        other => out.push(other),
    }
}

/// Gives label-reference steps the domain of their defining step, and
/// checks every reference resolves.
fn propagate_label_domains(q: &mut CQuery) -> Result<()> {
    let mut domains: FxHashMap<String, Vec<VTypeId>> = FxHashMap::default();
    for (name, info) in &q.labels {
        domains.insert(
            name.clone(),
            q.paths[info.def.path].vsteps[info.def.vstep].domain.clone(),
        );
    }
    for p in &mut q.paths {
        for v in &mut p.vsteps {
            if let Some(name) = &v.label_ref {
                let dom = domains.get(name).ok_or_else(|| {
                    GraqlError::path(format!("label '{name}' referenced before definition"))
                })?;
                v.domain = dom.clone();
            }
        }
    }
    Ok(())
}

/// Splits a composition into its `or` branches, each an and-flattened list
/// of simple paths. `or` nested under `and` is rejected (not required by
/// any paper construct).
pub fn or_branches(comp: &ast::PathComposition) -> Result<Vec<Vec<&ast::PathQuery>>> {
    fn and_paths<'a>(c: &'a ast::PathComposition, out: &mut Vec<&'a ast::PathQuery>) -> Result<()> {
        match c {
            ast::PathComposition::Single(p) => {
                out.push(p);
                Ok(())
            }
            ast::PathComposition::And(parts) => parts.iter().try_for_each(|p| and_paths(p, out)),
            ast::PathComposition::Or(_) => Err(GraqlError::path(
                "'or' may not be nested under 'and' in a path composition",
            )),
        }
    }
    match comp {
        ast::PathComposition::Or(parts) => parts
            .iter()
            .map(|p| {
                let mut out = Vec::new();
                and_paths(p, &mut out)?;
                Ok(out)
            })
            .collect(),
        other => {
            let mut out = Vec::new();
            and_paths(other, &mut out)?;
            Ok(vec![out])
        }
    }
}

/// Upper bound applied to unbounded (`*`/`+`) regex quantifiers. Frontier
/// expansion also stops early at a fixpoint, so this only matters for
/// pathological graphs with longer simple paths.
pub const REGEX_CAP: u32 = 64;
