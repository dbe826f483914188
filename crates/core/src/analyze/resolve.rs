//! The resolver of selects (paper §III-A): the one place that decides
//! whether a select is legal, from the catalog alone.
//!
//! For a graph select it resolves step names to vertex and edge types,
//! labels to step addresses, narrows variant domains through edge endpoint
//! types, resolves every attribute a condition or projection reads to a
//! column per candidate type, and infers the output schema (star expansion
//! and name uniquifying included). Types are numbered in catalog
//! declaration order, which is the order `build_graph` registers them in,
//! so the result is a [`CQuery`] per `or` branch that
//! [`crate::compile::lower`] only has to lower.
//!
//! For a table select it resolves the source table, the group columns, the
//! aggregates and the `order by` keys to column ids, and names and types
//! the output ([`TableSelect`]).
//!
//! Static analysis runs it in both reporting modes (fail-fast and
//! collecting); execution receives what [`resolve_select`] returns, never
//! the catalog. Checks that only make sense once a path resolved cleanly
//! (domain narrowing, binding conditions, the repetition-group rule) run
//! only when the path or branch produced no error, so one mistake is
//! reported once.

use graql_graph::{ETypeId, VTypeId};
use graql_parser::ast::{self, Dir, InGroup, SelectExpr, SelectTargets, Step, StepName};
use graql_table::ops::{AggFn, AggSpec, SortKey};
use graql_table::{ColumnDef, TableSchema};
use graql_types::{codes, DataType, Diagnostic, Result, Span};
use rustc_hash::FxHashMap;

use super::{attr_err, entity_err, Ctx, DResult};
use crate::catalog::Catalog;
use crate::compile::{
    BOperand, BindingCond, CEStep, CGroup, CLink, CPath, CQuery, CVStep, Cols, LabelInfo, LinkAddr,
    ProjCol, StepAddr,
};
use crate::cond::{single_table, typecheck};

/// A graph select resolved against a catalog.
#[derive(Clone)]
pub struct GraphSelect {
    /// One and-composition per `or` branch, each with its projection.
    pub branches: Vec<CQuery>,
    /// Whether the select produces a table (otherwise a subgraph).
    pub to_table: bool,
    /// The table's schema; `None` for subgraphs, or when a reported
    /// problem left a column unresolved.
    pub schema: Option<TableSchema>,
}

/// A table select resolved against a catalog: the Table-1 operations
/// (§II-C) over column ids, in the order they run.
#[derive(Clone)]
pub struct TableSelect {
    /// The source: a base table or a named `into table` result.
    pub table: String,
    /// The `where` clause (type-checked against the source).
    pub filter: Option<ast::Expr>,
    pub shape: TableShape,
    /// The output: names after aliasing, types after aggregation.
    pub schema: TableSchema,
    pub distinct: bool,
    /// `order by` keys over the output columns.
    pub order_by: Vec<SortKey>,
    pub top: Option<usize>,
}

/// How a table select's output columns come from its filtered source.
#[derive(Clone)]
pub enum TableShape {
    /// `select *`: the source as it is.
    Star,
    /// Source columns, in select-list order.
    Columns(Vec<usize>),
    /// `group by` and aggregates. The kernel lays out the group columns,
    /// then the aggregates; `order` picks the select list from that layout.
    Grouped {
        groups: Vec<usize>,
        aggs: Vec<AggSpec>,
        order: Vec<usize>,
    },
}

/// A select resolved against a catalog.
// Built once per statement and moved, never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum Resolved {
    Graph(GraphSelect),
    Table(TableSelect),
}

/// Resolves a select, stopping at the first error (the form execution
/// uses).
pub fn resolve_select(catalog: &Catalog, sel: &ast::SelectStmt) -> Result<Resolved> {
    let ctx = &mut Ctx::fail_fast();
    match &sel.source {
        ast::SelectSource::Graph(_) => resolve_graph_select(catalog, sel, ctx).map(Resolved::Graph),
        ast::SelectSource::Table(t) => resolve_table_select(catalog, sel, ctx).and_then(|plan| {
            plan.map(Resolved::Table).ok_or_else(|| {
                let m = format!("internal: the columns of table '{t}' are unknown");
                Diagnostic::error(codes::EXEC_OTHER, m, sel.span)
            })
        }),
    }
    .map_err(Diagnostic::into_error)
}

/// Resolves one and-composition of paths with no select around it (the
/// cluster profile), stopping at the first error.
pub fn resolve_paths(catalog: &Catalog, paths: &[&ast::PathQuery]) -> Result<CQuery> {
    resolve_branch(
        catalog,
        paths,
        Span::default(),
        false,
        &mut Ctx::fail_fast(),
    )
    .map_err(Diagnostic::into_error)
}

pub(crate) fn resolve_graph_select(
    cat: &Catalog,
    sel: &ast::SelectStmt,
    ctx: &mut Ctx,
) -> DResult<GraphSelect> {
    let ast::SelectSource::Graph(comp) = &sel.source else {
        return Err(Diagnostic::error(
            codes::EXEC_OTHER,
            "internal: not a graph select",
            sel.span,
        ));
    };
    let misplaced = |m| Diagnostic::error(codes::MISPLACED_CLAUSE, m, sel.span);
    if sel.where_clause.is_some() {
        ctx.emit(misplaced(
            "graph selects place conditions on steps, not in a 'where' clause",
        ))?;
    }
    if sel.has_aggregates() || !sel.group_by.is_empty() {
        ctx.emit(misplaced(
            "aggregates and 'group by' apply to table sources; capture 'into table' first",
        ))?;
    }
    if !sel.order_by.is_empty() || sel.top.is_some() || sel.distinct {
        ctx.emit(misplaced(
            "'order by'/'top'/'distinct' apply to table sources; capture 'into table' first",
        ))?;
    }
    let to_table = matches!(sel.into, Some(ast::IntoClause::Table(_)))
        || (sel.into.is_none() && !matches!(sel.targets, SelectTargets::Star));
    let mut branches = Vec::new();
    let mut oks = Vec::new();
    for paths in or_branches(comp, sel.span)? {
        let before = ctx.errors();
        branches.push(resolve_branch(cat, &paths, sel.span, to_table, ctx)?);
        oks.push(ctx.errors() == before);
    }
    // Each `or` branch projects independently, so every item must resolve
    // in every branch, into the same schema.
    let mut schemas = Vec::new();
    for (q, ok) in branches.iter_mut().zip(oks) {
        let defs = Project { cat, sel, ok }.run(q, to_table, ctx)?;
        schemas.push(match defs {
            Some(defs) if !defs.is_empty() => Some(
                TableSchema::new(uniquify(defs))
                    .map_err(|e| Diagnostic::from_error(&e, sel.span))?,
            ),
            _ => None,
        });
    }
    if schemas.iter().all(Option::is_some) && schemas.windows(2).any(|w| w[0] != w[1]) {
        ctx.emit(Diagnostic::error(
            codes::INCOMPARABLE,
            "'or' branches produce incompatible table schemas",
            sel.span,
        ))?;
    }
    let schema = if schemas.iter().all(Option::is_some) && to_table {
        schemas.swap_remove(0)
    } else {
        None
    };
    Ok(GraphSelect {
        branches,
        to_table,
        schema,
    })
}

/// Resolves a table select. `None`: the output schema is unknown, because
/// the source's columns are (a result whose select reported a problem) or
/// because a reported problem left a column unresolved. A plan returned
/// after a reported problem is good for its schema only.
pub(crate) fn resolve_table_select(
    cat: &Catalog,
    sel: &ast::SelectStmt,
    ctx: &mut Ctx,
) -> DResult<Option<TableSelect>> {
    let ast::SelectSource::Table(table) = &sel.source else {
        return Err(Diagnostic::error(
            codes::EXEC_OTHER,
            "internal: not a table select",
            sel.span,
        ));
    };
    let err = |code, m: String| Diagnostic::error(code, m, sel.span);
    let schema = cat
        .require_any_table(table)
        .map_err(|e| entity_err(&e, sel.span))?;
    if let Some(ast::IntoClause::Subgraph(_)) = sel.into {
        ctx.emit(err(
            codes::WRONG_KIND,
            "attribute/table selections capture 'into table', not 'into subgraph'".into(),
        ))?;
    }
    if schema.is_empty() {
        return Ok(None);
    }
    if let Some(w) = &sel.where_clause {
        typecheck(w, ctx, &mut single_table(schema, &[table]))?;
    }
    let col = |c: &ast::ColRef| -> DResult<usize> {
        match &c.qualifier {
            Some(q) if q != table => Err(err(
                codes::BAD_QUALIFIER,
                format!("unknown qualifier '{q}'; the table is '{table}'"),
            )),
            _ => schema.require(&c.name).map_err(|e| attr_err(&e, sel.span)),
        }
    };
    let mut groups: Vec<usize> = Vec::new();
    for g in &sel.group_by {
        match col(g) {
            Ok(ci) if !groups.contains(&ci) => groups.push(ci),
            Ok(_) => {}
            Err(d) => ctx.emit(d)?,
        }
    }
    let grouped = sel.has_aggregates() || !sel.group_by.is_empty();
    // The output columns; `complete` drops to false when a problem leaves
    // a column's type unknown. `cols` holds source columns, or positions
    // in the group kernel's layout when `grouped`.
    let mut defs: Vec<ColumnDef> = Vec::new();
    let mut cols: Vec<usize> = Vec::new();
    let mut aggs: Vec<AggSpec> = Vec::new();
    let mut complete = true;
    let items = match &sel.targets {
        SelectTargets::Star => {
            if !sel.group_by.is_empty() {
                ctx.emit(err(
                    codes::BAD_AGGREGATE,
                    "'select *' cannot be grouped".into(),
                ))?;
            }
            defs = schema.columns().to_vec();
            &[][..]
        }
        SelectTargets::Items(items) => &items[..],
    };
    for (i, item) in items.iter().enumerate() {
        match &item.expr {
            SelectExpr::Col(c) => {
                let ci = match col(c) {
                    Ok(ci) => ci,
                    Err(d) => {
                        ctx.emit(d)?;
                        complete = false;
                        continue;
                    }
                };
                let gi = groups.iter().position(|&g| g == ci);
                if grouped && gi.is_none() {
                    ctx.emit(err(
                        codes::BAD_AGGREGATE,
                        format!(
                            "column '{}' must appear in 'group by' or inside an aggregate",
                            c.name
                        ),
                    ))?;
                }
                let name = item.alias.clone().unwrap_or_else(|| c.name.clone());
                defs.push(ColumnDef::new(name, schema.column(ci).dtype));
                cols.push(if grouped { gi.unwrap_or(0) } else { ci });
            }
            SelectExpr::Agg(a) => {
                let mut arg = None;
                if let Some(c) = a.arg() {
                    match col(c) {
                        Ok(ci) => {
                            let numeric = matches!(a, ast::AggCall::Sum(_) | ast::AggCall::Avg(_));
                            if numeric && !schema.column(ci).dtype.is_numeric() {
                                ctx.emit(err(
                                    codes::BAD_AGGREGATE,
                                    format!("aggregate over non-numeric column '{}'", c.name),
                                ))?;
                            }
                            arg = Some(ci);
                        }
                        Err(d) => ctx.emit(d)?,
                    }
                }
                let dt = arg.map(|ci| schema.column(ci).dtype);
                let ci = arg.unwrap_or_default();
                let (func, dtype) = match a {
                    ast::AggCall::CountStar => (AggFn::CountStar, Some(DataType::Integer)),
                    ast::AggCall::Count(_) => (AggFn::Count(ci), Some(DataType::Integer)),
                    ast::AggCall::Avg(_) => (AggFn::Avg(ci), Some(DataType::Float)),
                    ast::AggCall::Sum(_) => (AggFn::Sum(ci), dt),
                    ast::AggCall::Min(_) => (AggFn::Min(ci), dt),
                    ast::AggCall::Max(_) => (AggFn::Max(ci), dt),
                };
                let Some(dtype) = dtype else {
                    complete = false;
                    continue;
                };
                let name = item.alias.clone().unwrap_or_else(|| format!("agg_{i}"));
                defs.push(ColumnDef::new(name, dtype));
                cols.push(groups.len() + aggs.len());
                // The kernel's own name for the column: '#' starts no
                // identifier, so it cannot collide with a group column.
                aggs.push(AggSpec::new(func, format!("#{}", aggs.len())));
            }
        }
    }
    if !complete {
        return Ok(None);
    }
    let schema = TableSchema::new(defs).map_err(|e| Diagnostic::from_error(&e, sel.span))?;
    let mut order_by = Vec::new();
    for k in &sel.order_by {
        match schema.index_of(&k.col.name) {
            Some(col) => order_by.push(SortKey { col, desc: k.desc }),
            None => ctx.emit(err(
                codes::UNKNOWN_ATTR,
                format!(
                    "'order by' column '{}' is not in the select output",
                    k.col.name
                ),
            ))?,
        }
    }
    let shape = match &sel.targets {
        SelectTargets::Star => TableShape::Star,
        SelectTargets::Items(_) if grouped => TableShape::Grouped {
            groups,
            aggs,
            order: cols,
        },
        SelectTargets::Items(_) => TableShape::Columns(cols),
    };
    Ok(Some(TableSelect {
        table: table.clone(),
        filter: sel.where_clause.clone(),
        shape,
        schema,
        distinct: sel.distinct,
        order_by,
        top: sel.top.map(|n| n as usize),
    }))
}

/// Splits a composition into its `or` branches, each an and-flattened list
/// of simple paths. `or` nested under `and` is rejected (not required by
/// any paper construct).
fn or_branches(comp: &ast::PathComposition, span: Span) -> DResult<Vec<Vec<&ast::PathQuery>>> {
    fn and_paths<'a>(c: &'a ast::PathComposition, out: &mut Vec<&'a ast::PathQuery>) -> bool {
        match c {
            ast::PathComposition::Single(p) => {
                out.push(p);
                true
            }
            ast::PathComposition::And(parts) => parts.iter().all(|p| and_paths(p, out)),
            ast::PathComposition::Or(_) => false,
        }
    }
    let parts = match comp {
        ast::PathComposition::Or(parts) => parts.iter().collect(),
        other => vec![other],
    };
    parts
        .into_iter()
        .map(|p| {
            let mut out = Vec::new();
            match and_paths(p, &mut out) {
                true => Ok(out),
                false => Err(Diagnostic::error(
                    codes::BAD_PATH,
                    "'or' may not be nested under 'and' in a path composition",
                    span,
                )),
            }
        })
        .collect()
}

fn resolve_branch(
    cat: &Catalog,
    paths: &[&ast::PathQuery],
    span: Span,
    to_table: bool,
    ctx: &mut Ctx,
) -> DResult<CQuery> {
    if paths.len() > 1 {
        // and-composition must share a label (§II-B3).
        let mut defs: Vec<(&str, usize)> = Vec::new();
        let mut names: Vec<(&str, usize)> = Vec::new();
        for (pi, p) in paths.iter().enumerate() {
            for v in p.vertex_steps() {
                if let Some(l) = &v.label_def {
                    defs.push((&l.name, pi));
                }
                if let StepName::Named(n) = &v.name {
                    names.push((n, pi));
                }
            }
        }
        let def_path = |n: &str| defs.iter().rev().find(|d| d.0 == n).map(|d| d.1);
        if !names
            .iter()
            .any(|&(n, pi)| def_path(n).is_some_and(|d| d != pi))
        {
            ctx.emit(Diagnostic::error(
                codes::BAD_PATH,
                "'and' composition requires the paths to share a label (§II-B3)",
                span,
            ))?;
        }
    }
    let before = ctx.errors();
    let mut w = Walk {
        cat,
        q: CQuery::default(),
        pending: Vec::new(),
        spans: Vec::new(),
        hops: Vec::new(),
        group_span: Span::default(),
    };
    for (pi, p) in paths.iter().enumerate() {
        w.path(pi, p, ctx)?;
    }
    let Walk { mut q, pending, .. } = w;
    // Label-reference steps take the (narrowed) domain of their definition.
    for pi in 0..q.paths.len() {
        for vi in 0..q.paths[pi].vsteps.len() {
            if let Some(n) = &q.paths[pi].vsteps[vi].label_ref {
                let dom = q.step(q.labels[n].def).domain.clone();
                q.paths[pi].vsteps[vi].domain = dom;
            }
        }
    }
    if ctx.errors() != before {
        return Ok(q);
    }
    for (here, c, span) in pending {
        let cond = binding_cond(cat, &q, here, c, span);
        match cond {
            Ok(bc) => q.paths[here.path].vsteps[here.vstep].binding_conds.push(bc),
            Err(d) => ctx.emit(d)?,
        }
    }
    let mut has_labels = false;
    for p in paths {
        p.for_each_step(&mut |s, _| has_labels |= s.label_def().is_some());
    }
    if q.paths.iter().any(CPath::has_groups) && (to_table || has_labels || paths.len() > 1) {
        ctx.emit(Diagnostic::error(
            codes::BAD_PATH,
            "path regular expressions produce set results; use 'select * … into subgraph' \
             without labels or table output",
            span,
        ))?;
    }
    Ok(q)
}

/// The vertex type at catalog position `vt`: its name, key and source
/// table schema.
fn vtype(cat: &Catalog, vt: VTypeId) -> (&str, &[String], &TableSchema) {
    let name = &cat.vertex_names()[vt.0 as usize];
    let def = cat.vertex(name).expect("ordered names match the map");
    let schema = cat.table(&def.table).expect("vertex defs reference tables");
    (name, &def.key, schema)
}

/// The one concrete vertex type a step stands for, if it is not a
/// variant (a reference stands for its definition).
fn concrete(q: &CQuery, v: &CVStep) -> Option<VTypeId> {
    match &v.label_ref {
        Some(n) => concrete(q, q.step(q.labels[n].def)),
        None => (!v.is_any && v.domain.len() == 1).then(|| v.domain[0]),
    }
}

/// The many-to-one check: only key columns of such a type are
/// single-valued per vertex.
fn single_valued(cat: &Catalog, vt: VTypeId, attr: &str, span: Span) -> DResult<()> {
    let name = &cat.vertex_names()[vt.0 as usize];
    if cat.is_many_to_one(name) && !vtype(cat, vt).1.iter().any(|k| k == attr) {
        return Err(Diagnostic::error(
            codes::WRONG_KIND,
            format!("attribute '{attr}' of many-to-one vertex type {name} is not single-valued"),
            span,
        ));
    }
    Ok(())
}

/// Resolves a binding condition (a comparison naming a label) anchored at
/// step `here`.
fn binding_cond(
    cat: &Catalog,
    q: &CQuery,
    here: StepAddr,
    c: &ast::Expr,
    span: Span,
) -> DResult<BindingCond> {
    let ast::Expr::Cmp { op, lhs, rhs, span } = c else {
        return Err(Diagnostic::error(
            codes::BAD_LABEL,
            "label references must appear in simple comparisons (no nested and/or/not)",
            span,
        ));
    };
    let operand = |o: &ast::Operand| -> DResult<BOperand> {
        let (qualifier, name) = match o {
            ast::Operand::Lit(l) => return Ok(BOperand::Lit(l.clone())),
            ast::Operand::Attr { qualifier, name } => (qualifier, name),
        };
        let addr = match qualifier.as_ref().and_then(|l| q.labels.get(l)) {
            Some(info) => info.def,
            None => here,
        };
        let mut cols = Vec::new();
        for &vt in &q.step(addr).domain {
            let (tname, _, schema) = vtype(cat, vt);
            let Some(ci) = schema.index_of(name) else {
                return Err(Diagnostic::error(
                    codes::UNKNOWN_ATTR,
                    format!("vertex type {tname} has no attribute {name:?}"),
                    *span,
                ));
            };
            single_valued(cat, vt, name, *span)?;
            cols.push((vt, ci));
        }
        Ok(BOperand::Attr { addr, cols })
    };
    Ok(BindingCond {
        op: *op,
        lhs: operand(lhs)?,
        rhs: operand(rhs)?,
    })
}

/// The walk over one branch's paths, building its [`CQuery`].
struct Walk<'c, 'a> {
    cat: &'c Catalog,
    q: CQuery,
    /// Conjuncts naming a label, resolved once domains are final.
    pending: Vec<(StepAddr, &'a ast::Expr, Span)>,
    /// The current path: its vertex steps' spans, its plain hops (link
    /// index, edge) and the span of the group being walked.
    spans: Vec<Span>,
    hops: Vec<(usize, &'a ast::EdgeStep)>,
    group_span: Span,
}

impl<'a> Walk<'_, 'a> {
    fn path(&mut self, pi: usize, path: &'a ast::PathQuery, ctx: &mut Ctx) -> DResult<()> {
        let before = ctx.errors();
        self.q.paths.push(CPath::default());
        let mut res = Ok(());
        path.for_each_step(&mut |s, g| {
            if res.is_ok() {
                res = self.step(pi, s, g, ctx);
            }
        });
        res?;
        self.close_group(pi);
        // Edge types, endpoint compatibility and conditions of plain hops.
        for (li, e) in std::mem::take(&mut self.hops) {
            let ce = self.edge(e, ctx)?;
            if let (StepName::Named(n), Some([_])) = (&e.name, ce.domain.as_deref()) {
                let def = self.cat.edge(n).expect("resolved above");
                let vsteps = &self.q.paths[pi].vsteps;
                let (from, to) = (
                    concrete(&self.q, &vsteps[li]),
                    concrete(&self.q, &vsteps[li + 1]),
                );
                let (src, tgt) = match e.dir {
                    Dir::Out => (from, to),
                    Dir::In => (to, from),
                };
                let name = |vt: VTypeId| &self.cat.vertex_names()[vt.0 as usize];
                if let Some(vt) = src.map(name).filter(|vt| **vt != def.src_type) {
                    ctx.emit(Diagnostic::error(
                        codes::BAD_ENDPOINT,
                        format!("edge '{n}' starts at '{}', not '{vt}'", def.src_type),
                        e.span,
                    ))?;
                }
                if let Some(vt) = tgt.map(name).filter(|vt| **vt != def.tgt_type) {
                    ctx.emit(Diagnostic::error(
                        codes::BAD_ENDPOINT,
                        format!("edge '{n}' ends at '{}', not '{vt}'", def.tgt_type),
                        e.span,
                    ))?;
                }
            }
            self.q.paths[pi].links[li] = CLink::Edge(ce);
        }
        let spans = std::mem::take(&mut self.spans);
        if ctx.errors() == before {
            self.narrow_domains(pi, &spans, ctx)?;
        }
        Ok(())
    }

    fn step(
        &mut self,
        pi: usize,
        s: Step<'a>,
        g: Option<InGroup<'a>>,
        ctx: &mut Ctx,
    ) -> DResult<()> {
        match (s, g) {
            (Step::Vertex(v), None) => {
                let vstep = self.q.paths[pi].vsteps.len();
                let cv = self.vstep(v, Some(StepAddr { path: pi, vstep }), ctx)?;
                self.q.paths[pi].vsteps.push(cv);
                self.spans.push(v.span);
            }
            (Step::Edge(e), None) => {
                self.close_group(pi);
                let link = self.q.paths[pi].links.len();
                if let Some(l) = &e.label_def {
                    if self.defined(&l.name) {
                        ctx.emit(defined_twice(l))?;
                    } else {
                        let addr = LinkAddr { path: pi, link };
                        self.q.edge_labels.insert(l.name.clone(), addr);
                    }
                }
                // Resolved once the path's vertex steps are known.
                self.hops.push((link, e));
                self.q.paths[pi]
                    .links
                    .push(CLink::Edge(edge_step(e, None, None)));
            }
            (Step::Edge(e), Some(g)) => {
                if g.hop == 0 {
                    self.close_group(pi);
                    self.group_span = g.span;
                    let (lo, hi) = g.quant.bounds();
                    let group = CGroup {
                        hops: Vec::new(),
                        lo,
                        hi,
                    };
                    self.q.paths[pi].links.push(CLink::Group(group));
                }
                let ce = self.edge(e, ctx)?;
                let cv = self.vstep(&g.hops[g.hop].1, None, ctx)?;
                let Some(CLink::Group(cg)) = self.q.paths[pi].links.last_mut() else {
                    unreachable!("a group's hops follow its start")
                };
                cg.hops.push((ce, cv));
            }
            // A group's hop vertex is resolved with its edge, above.
            (Step::Vertex(_), Some(_)) => {}
        }
        Ok(())
    }

    /// After a group without an explicit exit step, the path continues
    /// from a synthetic unconstrained step typed like the group's last hop
    /// vertex.
    fn close_group(&mut self, pi: usize) {
        let p = &mut self.q.paths[pi];
        let Some(CLink::Group(g)) = p.links.last().filter(|_| p.vsteps.len() == p.links.len())
        else {
            return;
        };
        let domain = g
            .hops
            .last()
            .map(|h| h.1.domain.clone())
            .unwrap_or_default();
        let display = format!("exit{}", p.vsteps.len());
        p.vsteps.push(CVStep {
            domain,
            is_any: true,
            cond: None,
            local: Default::default(),
            binding_conds: Vec::new(),
            label_def: None,
            label_ref: None,
            seed: None,
            display,
        });
        self.spans.push(self.group_span);
    }

    fn defined(&self, label: &str) -> bool {
        self.q.labels.contains_key(label) || self.q.edge_labels.contains_key(label)
    }

    /// Resolves an edge step: its type, and its condition against the
    /// type's associated table. An unknown type is reported and leaves the
    /// domain empty.
    fn edge(&self, e: &ast::EdgeStep, ctx: &mut Ctx) -> DResult<CEStep> {
        let StepName::Named(n) = &e.name else {
            if e.cond.is_some() {
                ctx.emit(Diagnostic::error(
                    codes::BAD_LABEL,
                    "conditions are not allowed on variant ([ ]) edge steps",
                    e.span,
                ))?;
            }
            return Ok(edge_step(e, None, None));
        };
        let def = match self.cat.require_edge(n) {
            Ok(def) => def,
            Err(err) => {
                ctx.emit(entity_err(&err, e.span))?;
                return Ok(edge_step(e, Some(Vec::new()), None));
            }
        };
        let et = ETypeId(self.cat.edge_index(n).expect("declared edge") as u32);
        if let Some(cond) = &e.cond {
            match self
                .cat
                .assoc_table(def)
                .and_then(|t| self.cat.any_table(t))
            {
                None => ctx.emit(Diagnostic::error(
                    codes::WRONG_KIND,
                    format!("edge type '{n}' has no attributes; conditions are not applicable"),
                    e.span,
                ))?,
                Some(schema) => typecheck(cond, ctx, &mut single_table(schema, &[n]))?,
            }
        }
        Ok(edge_step(e, Some(vec![et]), e.cond.clone()))
    }

    /// Resolves a vertex step: its type or label, label definition, seed
    /// and condition. `addr` is `None` for a repetition group's hop
    /// vertex, which is not addressable.
    fn vstep(
        &mut self,
        v: &'a ast::VertexStep,
        addr: Option<StepAddr>,
        ctx: &mut Ctx,
    ) -> DResult<CVStep> {
        let cat = self.cat;
        let mut cv = CVStep {
            domain: Vec::new(),
            is_any: false,
            cond: None,
            local: Default::default(),
            binding_conds: Vec::new(),
            label_def: v.label_def.as_ref().map(|l| (l.kind, l.name.clone())),
            label_ref: None,
            seed: v.seed.clone(),
            display: "[]".into(),
        };
        match &v.name {
            StepName::Any => {
                if v.cond.is_some() {
                    ctx.emit(Diagnostic::error(
                        codes::BAD_LABEL,
                        "conditions are not allowed on variant ([ ]) vertex steps",
                        v.span,
                    ))?;
                }
                cv.is_any = true;
                cv.domain = (0..cat.vertex_names().len() as u32).map(VTypeId).collect();
            }
            StepName::Named(n) => {
                cv.display = n.clone();
                if let Some(info) = self.q.labels.get(n) {
                    cv.domain = self.q.step(info.def).domain.clone();
                    cv.label_ref = Some(n.clone());
                } else {
                    match cat.vertex_index(n) {
                        Some(i) => cv.domain = vec![VTypeId(i as u32)],
                        None => {
                            let err = cat.require_vertex(n).expect_err("not a vertex type");
                            ctx.emit(entity_err(&err, v.span))?
                        }
                    }
                }
            }
        }
        if let Some(l) = &v.label_def {
            if self.defined(&l.name) {
                ctx.emit(defined_twice(l))?;
            } else if let Some(addr) = addr {
                let info = LabelInfo {
                    kind: l.kind,
                    def: addr,
                };
                self.q.labels.insert(l.name.clone(), info);
            }
        }
        if let Some(seed) = &v.seed {
            if !cat.has_result_subgraph(seed) {
                let d = match cat.kind_of(seed) {
                    Some(k) => Diagnostic::error(
                        codes::WRONG_KIND,
                        format!("'{seed}' is a {k}, not a result subgraph"),
                        v.span,
                    ),
                    None => Diagnostic::error(
                        codes::UNKNOWN_NAME,
                        format!("unknown result subgraph '{seed}'"),
                        v.span,
                    ),
                };
                ctx.emit(d)?;
            }
            if addr.is_none() {
                ctx.emit(Diagnostic::error(
                    codes::BAD_PATH,
                    "seeds inside path groups are not supported",
                    v.span,
                ))?;
            }
        }
        let Some(cond) = &v.cond else { return Ok(cv) };
        // Type checking against the step's source table (only for
        // concrete steps; a variant label's attributes resolve with its
        // narrowed domain below).
        if let Some(vt) = concrete(&self.q, &cv) {
            self.typecheck_step_cond(cond, vtype(cat, vt).2, &cv.display, ctx)?;
        }
        if cv.is_any {
            return Ok(cv);
        }
        // Conjuncts naming a label become binding conditions; the rest is
        // the step's own filter.
        let mut local: Vec<&'a ast::Expr> = Vec::new();
        match addr {
            None => local.push(cond),
            Some(here) => {
                let mut conjuncts = Vec::new();
                flatten_and(cond, &mut conjuncts);
                for c in conjuncts {
                    let mut labelled = false;
                    c.for_each_attr(&mut |q, _| {
                        labelled |= q.as_ref().is_some_and(|q| self.q.labels.contains_key(q))
                    });
                    match labelled {
                        true => self.pending.push((here, c, v.span)),
                        false => local.push(c),
                    }
                }
            }
        }
        if local.is_empty() {
            return Ok(cv);
        }
        if cv.label_ref.is_some() {
            ctx.emit(Diagnostic::error(
                codes::BAD_LABEL,
                format!(
                    "conditions on label-reference step {:?} are not supported; \
                     put them on the defining step",
                    cv.display
                ),
                v.span,
            ))?;
            return Ok(cv);
        }
        for &vt in &cv.domain {
            for c in &local {
                let mut res = Ok(());
                c.for_each_attr(&mut |q, name| {
                    if res.is_ok() && q.as_deref().is_none_or(|q| q == cv.display) {
                        res = single_valued(cat, vt, name, v.span);
                    }
                });
                if let Err(d) = res {
                    ctx.emit(d)?;
                }
            }
        }
        cv.cond = Some(match addr {
            None => cond.clone(),
            Some(_) => ast::Expr::And(local.into_iter().cloned().collect()),
        });
        Ok(cv)
    }

    /// Type-checks a step condition: unqualified attributes against the
    /// step's own schema, label-qualified attributes against the label's
    /// step schema (when concrete).
    fn typecheck_step_cond(
        &self,
        cond: &ast::Expr,
        schema: &TableSchema,
        display: &str,
        ctx: &mut Ctx,
    ) -> DResult<()> {
        typecheck(cond, ctx, &mut |q, name, span| {
            let schema = match q {
                None => {
                    let ci = schema.require(name).map_err(|_| {
                        Diagnostic::error(
                            codes::UNKNOWN_ATTR,
                            format!("step '{display}' has no attribute '{name}'"),
                            span,
                        )
                    })?;
                    return Ok(Some(schema.column(ci).dtype));
                }
                Some(q) if q == display => schema,
                Some(q) => match self.q.labels.get(q) {
                    None => {
                        return Err(Diagnostic::error(
                            codes::BAD_QUALIFIER,
                            format!("unknown label '{q}' in step condition"),
                            span,
                        ))
                    }
                    Some(info) => match concrete(&self.q, self.q.step(info.def)) {
                        None => return Ok(None), // variant label: resolved later
                        Some(vt) => vtype(self.cat, vt).2,
                    },
                },
            };
            let ci = schema.require(name).map_err(|e| attr_err(&e, span))?;
            Ok(Some(schema.column(ci).dtype))
        })
    }

    /// Narrows variant vertex domains through edge endpoint types,
    /// iterating to a fixpoint (a variant step between two concrete edges
    /// can only hold types those edges connect).
    fn narrow_domains(&mut self, pi: usize, spans: &[Span], ctx: &mut Ctx) -> DResult<()> {
        let cat = self.cat;
        let vid = |n: &str| VTypeId(cat.vertex_index(n).expect("edges join declared types") as u32);
        let ends = |n: &String| {
            let d = cat.edge(n).expect("ordered names match the map");
            (vid(&d.src_type), vid(&d.tgt_type))
        };
        let path = &mut self.q.paths[pi];
        // The (source, target) types of each edge link's candidate edges.
        let link_ends: Vec<Vec<(VTypeId, VTypeId)>> = (path.links.iter())
            .map(|link| match link {
                CLink::Edge(CEStep {
                    domain: Some(d), ..
                }) => d
                    .iter()
                    .map(|et| ends(&cat.edge_names()[et.0 as usize]))
                    .collect(),
                CLink::Edge(_) => cat.edge_names().iter().map(ends).collect(),
                CLink::Group(_) => Vec::new(),
            })
            .collect();
        loop {
            let mut changed = false;
            for (i, link) in path.links.iter().enumerate() {
                let CLink::Edge(e) = link else { continue };
                let (s, t) = match e.dir {
                    Dir::Out => (i, i + 1),
                    Dir::In => (i + 1, i),
                };
                // Skip narrowing around label references (they take their
                // definition's domain).
                if path.vsteps[s].label_ref.is_some() || path.vsteps[t].label_ref.is_some() {
                    continue;
                }
                let (sd, td) = (&path.vsteps[s].domain, &path.vsteps[t].domain);
                let feasible: Vec<(VTypeId, VTypeId)> = (link_ends[i].iter().copied())
                    .filter(|(a, b)| sd.contains(a) && td.contains(b))
                    .collect();
                let new_s: Vec<VTypeId> = sd
                    .iter()
                    .copied()
                    .filter(|&vt| feasible.iter().any(|f| f.0 == vt))
                    .collect();
                let new_t: Vec<VTypeId> = td
                    .iter()
                    .copied()
                    .filter(|&vt| feasible.iter().any(|f| f.1 == vt))
                    .collect();
                if new_s.len() != sd.len() {
                    path.vsteps[s].domain = new_s;
                    changed = true;
                }
                if new_t.len() != path.vsteps[t].domain.len() {
                    path.vsteps[t].domain = new_t;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // A step whose domain emptied cannot be matched by any edge type
        // the path names.
        if let Some(i) = path
            .vsteps
            .iter()
            .position(|v| v.domain.is_empty() && v.label_ref.is_none())
        {
            ctx.emit(Diagnostic::error(
                codes::BAD_ENDPOINT,
                format!(
                    "step {i} ({}) cannot be reached by any edge type in the path",
                    path.vsteps[i].display
                ),
                spans[i],
            ))?;
        }
        Ok(())
    }
}

fn edge_step(e: &ast::EdgeStep, domain: Option<Vec<ETypeId>>, cond: Option<ast::Expr>) -> CEStep {
    CEStep {
        domain,
        dir: e.dir,
        cond,
        local: Default::default(),
        label_def: e.label_def.as_ref().map(|l| (l.kind, l.name.clone())),
        display: match &e.name {
            StepName::Any => "[]".into(),
            StepName::Named(n) => n.clone(),
        },
    }
}

fn defined_twice(l: &ast::LabelDef) -> Diagnostic {
    Diagnostic::error(
        codes::BAD_LABEL,
        format!("label '{}' defined twice", l.name),
        l.span,
    )
}

fn flatten_and<'e>(e: &'e ast::Expr, out: &mut Vec<&'e ast::Expr>) {
    match e {
        ast::Expr::And(parts) => parts.iter().for_each(|p| flatten_and(p, out)),
        other => out.push(other),
    }
}

/// Suffixes repeated output names `_2`, `_3`, … in order.
fn uniquify(defs: Vec<ColumnDef>) -> Vec<ColumnDef> {
    let mut seen: FxHashMap<String, usize> = FxHashMap::default();
    defs.into_iter()
        .map(|d| {
            let n = seen.entry(d.name.clone()).or_insert(0);
            *n += 1;
            match *n {
                1 => d,
                n => ColumnDef::new(format!("{}_{n}", d.name), d.dtype),
            }
        })
        .collect()
}

/// Projection of one `or` branch: resolves each select item to columns
/// and returns the output columns (`None` when a problem left one
/// unresolved). `ok` says the branch resolved without error, so variant
/// domains are narrowed and may be projected from.
struct Project<'c> {
    cat: &'c Catalog,
    sel: &'c ast::SelectStmt,
    ok: bool,
}

impl Project<'_> {
    fn err(&self, code: &'static str, m: impl Into<String>) -> Diagnostic {
        Diagnostic::error(code, m, self.sel.span)
    }

    fn run(
        &self,
        q: &mut CQuery,
        to_table: bool,
        ctx: &mut Ctx,
    ) -> DResult<Option<Vec<ColumnDef>>> {
        let mut defs = Vec::new();
        let mut complete = true;
        let items = match &self.sel.targets {
            SelectTargets::Items(items) => &items[..],
            SelectTargets::Star if to_table && self.ok => {
                complete = self.star(q, &mut defs, ctx)?;
                &[]
            }
            SelectTargets::Star => return Ok(None),
        };
        for item in items {
            let SelectExpr::Col(c) = &item.expr else {
                ctx.emit(self.err(
                    codes::MISPLACED_CLAUSE,
                    "aggregates are not allowed over a graph source",
                ))?;
                complete = false;
                continue;
            };
            if !to_table && c.qualifier.is_some() {
                ctx.emit(self.err(
                    codes::WRONG_KIND,
                    "attribute selections go 'into table'; subgraphs capture whole steps",
                ))?;
                continue;
            }
            let out = item.alias.as_ref().unwrap_or(&c.name);
            let lookup = c.qualifier.as_ref().unwrap_or(&c.name);
            if let Some(&addr) = q.edge_labels.get(lookup) {
                if !to_table {
                    q.proj.push(ProjCol::Edge {
                        addr,
                        cols: Vec::new(),
                    });
                } else if c.qualifier.is_none() {
                    ctx.emit(self.err(
                        codes::WRONG_KIND,
                        "a bare edge label selects edges into a subgraph; \
                         project an attribute (label.attr) for tables",
                    ))?;
                    complete = false;
                } else {
                    match self.edge_attr(q, addr, &c.name, ctx)? {
                        Some((cols, dt)) => {
                            q.proj.push(ProjCol::Edge { addr, cols });
                            defs.push(ColumnDef::new(out, dt));
                        }
                        None => complete = false,
                    }
                }
                continue;
            }
            // Resolve to a step: label first, then unique step name.
            let addr = match q.labels.get(lookup) {
                Some(info) => info.def,
                None => {
                    let mut hits = Vec::new();
                    for (pi, p) in q.paths.iter().enumerate() {
                        for (vi, v) in p.vsteps.iter().enumerate() {
                            if v.display == *lookup && !v.is_any && v.label_ref.is_none() {
                                hits.push(StepAddr {
                                    path: pi,
                                    vstep: vi,
                                });
                            }
                        }
                    }
                    let d = match hits[..] {
                        [addr] => Ok(addr),
                        [] => Err(self.err(
                            codes::UNKNOWN_NAME,
                            format!("unknown step or label '{lookup}'"),
                        )),
                        _ => Err(self.err(
                            codes::BAD_PATH,
                            format!("step name '{lookup}' is ambiguous; label it to disambiguate"),
                        )),
                    };
                    match d {
                        Ok(addr) => addr,
                        Err(d) => {
                            ctx.emit(d)?;
                            complete = false;
                            continue;
                        }
                    }
                }
            };
            if !to_table {
                q.proj.push(ProjCol::Vertex {
                    addr,
                    cols: Vec::new(),
                });
                continue;
            }
            // Inference stops at the first unresolved column.
            let step = q.step(addr);
            let concrete = concrete(q, step);
            if !complete || step.domain.is_empty() || (concrete.is_none() && !self.ok) {
                complete = false;
                continue;
            }
            let resolved = match &c.qualifier {
                Some(_) => self
                    .vertex_attr(step, concrete, &c.name)
                    .map(|(cols, dt)| vec![(cols, ColumnDef::new(out, dt))]),
                None => self.keys(step, out),
            };
            match resolved {
                Ok(cols) => {
                    for (cols, def) in cols {
                        q.proj.push(ProjCol::Vertex { addr, cols });
                        defs.push(def);
                    }
                }
                Err(d) => {
                    ctx.emit(d)?;
                    complete = false;
                }
            }
        }
        Ok(complete.then_some(defs))
    }

    /// `select *` into a table: every attribute of every step (only the
    /// key of a many-to-one type), named `step_attr`. `false` when a step
    /// was variant (reported).
    fn star(&self, q: &mut CQuery, defs: &mut Vec<ColumnDef>, ctx: &mut Ctx) -> DResult<bool> {
        let mut complete = true;
        for (pi, p) in q.paths.iter().enumerate() {
            for (vi, v) in p.vsteps.iter().enumerate() {
                if v.label_ref.is_some() {
                    continue; // the entity already appears at its definition
                }
                let [vt] = v.domain[..] else {
                    ctx.emit(self.err(
                        codes::BAD_PATH,
                        format!(
                            "'select *' into a table requires concrete steps; step {:?} is variant",
                            v.display
                        ),
                    ))?;
                    complete = false;
                    continue;
                };
                let (name, key, schema) = vtype(self.cat, vt);
                let cols: Vec<usize> = match self.cat.is_many_to_one(name) {
                    true => key.iter().filter_map(|k| schema.index_of(k)).collect(),
                    false => (0..schema.columns().len()).collect(),
                };
                for ci in cols {
                    let c = schema.column(ci);
                    let addr = StepAddr {
                        path: pi,
                        vstep: vi,
                    };
                    q.proj.push(ProjCol::Vertex {
                        addr,
                        cols: vec![(vt, ci)],
                    });
                    defs.push(ColumnDef::new(format!("{}_{}", v.display, c.name), c.dtype));
                }
            }
        }
        Ok(complete)
    }

    /// `step.attr`: the attribute's column in every candidate type, of one
    /// comparable type.
    fn vertex_attr(
        &self,
        step: &CVStep,
        concrete: Option<VTypeId>,
        attr: &str,
    ) -> DResult<(Cols<VTypeId>, DataType)> {
        let mut cols = Vec::new();
        let mut dtype: Option<DataType> = None;
        for &vt in &step.domain {
            let (name, _, schema) = vtype(self.cat, vt);
            let Some(ci) = schema.index_of(attr) else {
                return Err(self.err(
                    codes::UNKNOWN_ATTR,
                    match concrete {
                        Some(_) => format!("vertex type {name} has no attribute '{attr}'"),
                        None => format!(
                            "step {:?} (vertex type {name}) has no attribute {attr:?}",
                            step.display
                        ),
                    },
                ));
            };
            single_valued(self.cat, vt, attr, self.sel.span)?;
            let t = schema.column(ci).dtype;
            match dtype {
                Some(prev) if !prev.comparable_with(t) => {
                    return Err(self.err(
                        codes::INCOMPARABLE,
                        format!(
                            "attribute {attr:?} has incompatible types across step {:?}'s \
                             candidate vertex types ({prev} vs {t})",
                            step.display
                        ),
                    ))
                }
                Some(_) => {}
                None => dtype = Some(t),
            }
            cols.push((vt, ci));
        }
        Ok((cols, dtype.expect("non-empty domain")))
    }

    /// A bare step projects its key column(s): `out`, or `out_key` when the
    /// key has several columns.
    fn keys(&self, step: &CVStep, out: &str) -> DResult<Vec<(Cols<VTypeId>, ColumnDef)>> {
        let [vt] = step.domain[..] else {
            return Err(self.err(
                codes::BAD_PATH,
                format!(
                    "cannot project variant step {:?} into a table",
                    step.display
                ),
            ));
        };
        let (_, key, schema) = vtype(self.cat, vt);
        let mut cols = Vec::new();
        for k in key {
            let ci = schema.require(k).map_err(|e| attr_err(&e, self.sel.span))?;
            let name = match key.len() {
                1 => out.to_string(),
                _ => format!("{out}_{k}"),
            };
            cols.push((
                vec![(vt, ci)],
                ColumnDef::new(name, schema.column(ci).dtype),
            ));
        }
        Ok(cols)
    }

    /// `label.attr` of a labeled edge step, through the associated table of
    /// each candidate edge type. `None`: unresolved (reported, or left to
    /// an earlier error).
    fn edge_attr(
        &self,
        q: &CQuery,
        addr: LinkAddr,
        attr: &str,
        ctx: &mut Ctx,
    ) -> DResult<Option<(Cols<ETypeId>, DataType)>> {
        let Some(e) = q.edge_step(addr) else {
            return Ok(None);
        };
        if e.domain.is_none() && !self.ok {
            return Ok(None);
        }
        let all: Vec<ETypeId> = (0..self.cat.edge_names().len() as u32)
            .map(ETypeId)
            .collect();
        let mut cols = Vec::new();
        let mut dtype: Option<DataType> = None;
        for &et in e.domain.as_ref().unwrap_or(&all) {
            let name = &self.cat.edge_names()[et.0 as usize];
            let def = self.cat.edge(name).expect("ordered names match the map");
            let schema = self
                .cat
                .assoc_table(def)
                .and_then(|t| self.cat.any_table(t));
            let Some(schema) = schema else {
                ctx.emit(self.err(
                    codes::WRONG_KIND,
                    format!("edge type {name} has no attributes (no associated table)"),
                ))?;
                return Ok(None);
            };
            let ci = match schema.require(attr) {
                Ok(ci) => ci,
                Err(e) => {
                    ctx.emit(attr_err(&e, self.sel.span))?;
                    return Ok(None);
                }
            };
            let t = schema.column(ci).dtype;
            match dtype {
                Some(prev) if !prev.comparable_with(t) => {
                    ctx.emit(self.err(
                        codes::INCOMPARABLE,
                        format!(
                            "attribute {attr:?} has incompatible types across edge types \
                             ({prev} vs {t})"
                        ),
                    ))?;
                    return Ok(None);
                }
                Some(_) => {}
                None => dtype = Some(t),
            }
            cols.push((et, ci));
        }
        Ok(dtype.map(|dt| (cols, dt)))
    }
}
