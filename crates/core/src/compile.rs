//! Lowering of resolved path queries into their executable form.
//!
//! Compilation is not a resolver. [`crate::analyze::resolve`] decides
//! whether a graph select is legal and resolves every name in it —
//! step types, labels, narrowed domains, attribute columns, projections —
//! against the catalog. This module only lowers that result onto the
//! snapshot it runs against: step conditions become per-type physical
//! predicates with their candidate access path ([`Access`]) and
//! binding-condition literals become values (parameters bind here). The
//! resolver numbers vertex and edge types in catalog declaration order,
//! which is the order `build_graph` registers them in, so its ids are the
//! graph's `VTypeId`/`ETypeId`. Any failure here other than a parameter
//! or a condition over a bound parameter is an `internal:` error.

use graql_graph::{ETypeId, Graph, VTypeId, VertexSet};
use graql_parser::ast::{self, Dir, LabelKind};
use graql_table::{PhysExpr, Table};
use graql_types::{CmpOp, GraqlError, Result, Value};
use rustc_hash::FxHashMap;

use crate::catalog::Catalog;
use crate::cond::{compile_single_table, lit_value};
use crate::exec::ExecCtx;

/// Address of a vertex step within a compiled multi-path query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StepAddr {
    pub path: usize,
    pub vstep: usize,
}

/// Address of an edge step (a link) within a compiled query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkAddr {
    pub path: usize,
    pub link: usize,
}

/// A registered label.
#[derive(Debug, Clone)]
pub struct LabelInfo {
    pub kind: LabelKind,
    pub def: StepAddr,
}

/// The column of an attribute per candidate type of the step holding it.
pub type Cols<T> = Vec<(T, usize)>;

/// The column `cols` resolved for type `id`.
pub fn column_of<T: PartialEq + Copy>(cols: &[(T, usize)], id: T) -> Result<usize> {
    cols.iter()
        .find(|&&(t, _)| t == id)
        .map(|&(_, c)| c)
        .ok_or_else(|| GraqlError::exec("internal: no column resolved for the bound type"))
}

/// Operand of a binding-level condition.
#[derive(Debug, Clone)]
pub enum BOperand {
    /// An attribute of the vertex bound at `addr`.
    Attr {
        addr: StepAddr,
        cols: Cols<VTypeId>,
    },
    /// A literal as written; lowering turns it into a [`BOperand::Const`].
    Lit(ast::Lit),
    Const(Value),
}

impl BOperand {
    /// The operand's value, given the instance bound at a step address.
    pub fn value(
        &self,
        ctx: &ExecCtx<'_>,
        bound: impl Fn(StepAddr) -> (VTypeId, u32),
    ) -> Result<Value> {
        match self {
            BOperand::Const(v) => Ok(v.clone()),
            BOperand::Attr { addr, cols } => {
                let (vt, idx) = bound(*addr);
                ctx.graph
                    .vset(vt)
                    .attr(ctx.vtable(vt), idx, column_of(cols, vt)?)
            }
            BOperand::Lit(_) => Err(GraqlError::exec("internal: binding condition not lowered")),
        }
    }
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
    /// The step's own (label-free) condition, as resolved.
    pub cond: Option<ast::Expr>,
    /// `cond` lowered per domain type, with the path its candidates are
    /// found by (absent = no filter for that type).
    pub local: FxHashMap<VTypeId, Access>,
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

/// How a vertex step finds its candidates of one type, chosen once at
/// lowering (DESIGN.md §4.2).
#[derive(Debug, Clone)]
pub enum Access {
    /// `=` conjuncts fix every key column: the candidate is the vertex
    /// [`VertexSet::lookup`] finds, if `rest` holds on its row.
    Probe { key: Vec<Value>, rest: PhysExpr },
    /// Vertex `i` is source row `i`: the condition sweeps row ranges.
    Sweep(PhysExpr),
    /// The condition is tested vertex by vertex on a source row.
    Rows(PhysExpr),
}

impl Access {
    /// Chooses the path of `pred` over `vset`, whose source is `table`.
    fn choose(vset: &VertexSet, table: &Table, pred: PhysExpr) -> Access {
        let conj = match &pred {
            PhysExpr::And(xs) => xs.as_slice(),
            p => std::slice::from_ref(p),
        };
        // Per key column, the first conjunct that fixes it.
        let found: Option<Vec<(usize, &Value)>> = (vset.key_cols.iter())
            .map(|&c| {
                (conj.iter().enumerate()).find_map(|(i, x)| Some((i, key_const(x, c, table)?)))
            })
            .collect();
        match found {
            Some(found) => {
                let rest =
                    (conj.iter().enumerate()).filter(|(i, _)| found.iter().all(|(j, _)| j != i));
                Access::Probe {
                    key: found.iter().map(|(_, v)| (*v).clone()).collect(),
                    rest: PhysExpr::And(rest.map(|(_, x)| x.clone()).collect()),
                }
            }
            None if vset.is_identity() => Access::Sweep(pred),
            None => Access::Rows(pred),
        }
    }

    /// What `explain` calls the path.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Access::Probe { .. } => "key probe",
            Access::Sweep(_) | Access::Rows(_) => "scan",
        }
    }
}

/// The constant conjunct `x` equates column `c` with, if a non-null one
/// of the type `c` stores (`Str`/varchar, `Int`/integer, `Date`/date).
/// `=` compares an integer with a float through `f64`, where several
/// integer keys can equal one float, so such a pair is left to a scan;
/// so is a float key, which no workload has.
fn key_const<'a>(x: &'a PhysExpr, c: usize, table: &Table) -> Option<&'a Value> {
    let PhysExpr::Cmp(CmpOp::Eq, a, b) = x else {
        return None;
    };
    let ((PhysExpr::Col(col), PhysExpr::Const(v)) | (PhysExpr::Const(v), PhysExpr::Col(col))) =
        (a.as_ref(), b.as_ref())
    else {
        return None;
    };
    // `Column::dtype` and `Value::data_type` both say `Varchar(0)`.
    let stored = v.data_type() == Some(table.column(c).dtype());
    (*col == c && stored && !matches!(v, Value::Float(_))).then_some(v)
}

/// A compiled edge step.
#[derive(Debug, Clone)]
pub struct CEStep {
    /// Candidate edge types; `None` means unrestricted (`[ ]`).
    pub domain: Option<Vec<ETypeId>>,
    pub dir: Dir,
    /// The step's condition, as resolved (over the associated table).
    pub cond: Option<ast::Expr>,
    /// `cond` lowered per edge type.
    pub local: FxHashMap<ETypeId, PhysExpr>,
    pub label_def: Option<(LabelKind, String)>,
    pub display: String,
}

/// A compiled path-regex group (§II-B4): hops repeated `lo..=hi` times.
#[derive(Debug, Clone)]
pub struct CGroup {
    pub hops: Vec<(CEStep, CVStep)>,
    pub lo: u32,
    /// `None` for `*` and `+`.
    pub hi: Option<u32>,
}

/// Link between consecutive vertex steps.
#[derive(Debug, Clone)]
pub enum CLink {
    Edge(CEStep),
    Group(CGroup),
}

/// A compiled simple path: `vsteps.len() == links.len() + 1`.
#[derive(Debug, Clone, Default)]
pub struct CPath {
    pub vsteps: Vec<CVStep>,
    pub links: Vec<CLink>,
}

impl CPath {
    pub fn has_groups(&self) -> bool {
        self.links.iter().any(|l| matches!(l, CLink::Group(_)))
    }
}

/// One projected item of a graph select: a vertex step or a labeled edge
/// step, with the attribute's column per candidate type (empty when the
/// item captures the whole step into a subgraph).
#[derive(Debug, Clone)]
pub enum ProjCol {
    Vertex { addr: StepAddr, cols: Cols<VTypeId> },
    Edge { addr: LinkAddr, cols: Cols<ETypeId> },
}

/// A compiled and-composition: several paths sharing labels.
#[derive(Debug, Clone, Default)]
pub struct CQuery {
    pub paths: Vec<CPath>,
    pub labels: FxHashMap<String, LabelInfo>,
    /// Labels attached to edge steps (projection handles only; edges have
    /// no reference steps).
    pub edge_labels: FxHashMap<String, LinkAddr>,
    /// The select's projection over this composition.
    pub proj: Vec<ProjCol>,
}

impl CQuery {
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

/// Lowers a resolved query onto the snapshot `ctx` reads: the graph must
/// have been built from the catalog the query was resolved against
/// (`check_views`).
pub fn lower(ctx: &ExecCtx<'_>, q: &mut CQuery) -> Result<()> {
    for path in &mut q.paths {
        for v in &mut path.vsteps {
            lower_vstep(ctx, v)?;
        }
        for link in &mut path.links {
            match link {
                CLink::Edge(e) => lower_estep(ctx, e)?,
                CLink::Group(g) => {
                    for (e, v) in &mut g.hops {
                        lower_estep(ctx, e)?;
                        lower_vstep(ctx, v)?;
                    }
                }
            }
        }
    }
    Ok(())
}

fn lower_vstep(ctx: &ExecCtx<'_>, v: &mut CVStep) -> Result<()> {
    if let Some(cond) = &v.cond {
        for &vt in &v.domain {
            let table = ctx.vtable(vt);
            let pred = compile_single_table(cond, table.schema(), &[&v.display], ctx.params)?;
            let access = Access::choose(ctx.graph.vset(vt), table, pred);
            v.local.insert(vt, access);
        }
    }
    for bc in &mut v.binding_conds {
        for o in [&mut bc.lhs, &mut bc.rhs] {
            if let BOperand::Lit(l) = o {
                *o = BOperand::Const(lit_value(l, ctx.params)?);
            }
        }
    }
    Ok(())
}

fn lower_estep(ctx: &ExecCtx<'_>, e: &mut CEStep) -> Result<()> {
    let (Some(cond), Some(domain)) = (&e.cond, &e.domain) else {
        return Ok(());
    };
    for &et in domain {
        let table = ctx
            .graph
            .eset(et)
            .assoc_table
            .as_ref()
            .and_then(|n| ctx.storage.get(n));
        let Some(table) = table else {
            return Err(GraqlError::exec(
                "internal: edge condition without an associated table",
            ));
        };
        let pred = compile_single_table(cond, table.schema(), &[&e.display], ctx.params)?;
        e.local.insert(et, pred);
    }
    Ok(())
}

/// Checks that `graph` numbers its vertex and edge types the way `catalog`
/// does, so ids resolved against the catalog address the graph.
pub(crate) fn check_views(catalog: &Catalog, graph: &Graph) -> Result<()> {
    let names = catalog.vertex_names();
    if names.len() != graph.vtype_ids().count()
        || graph.etype_ids().count() != catalog.edge_names().len()
        || graph
            .vtype_ids()
            .any(|vt| graph.vset(vt).name != names[vt.0 as usize])
    {
        return Err(GraqlError::exec(
            "internal: graph views do not match the catalog",
        ));
    }
    Ok(())
}
