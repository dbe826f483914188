//! Abstract syntax tree for GraQL.
//!
//! The shapes follow the paper's grammar fragments: DDL (Figs. 2–4 and
//! Appendix A), ingest (§II-A2), path queries with labels, variant steps
//! and regexes (§II-B), and select statements with graph or table sources
//! and `into table` / `into subgraph` result capture (§II-C).

use graql_types::CmpOp;
pub use graql_types::Span;

/// A full GraQL script: an ordered sequence of statements (§III, Ω).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Script {
    pub statements: Vec<Stmt>,
}

/// One GraQL statement.
// AST enums are built once per parse and moved, never stored in bulk;
// boxing the large variants would ripple `Box` through every consumer
// for no measurable gain.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    CreateTable(CreateTable),
    CreateVertex(CreateVertex),
    CreateEdge(CreateEdge),
    Ingest(Ingest),
    Select(SelectStmt),
    /// `profile <select>`: run the select with a span recorder armed and
    /// return the measured stage report instead of the result.
    Profile(SelectStmt),
}

/// Surface type names of Appendix A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeName {
    Integer,
    Float,
    Varchar(u32),
    Date,
}

impl TypeName {
    pub fn to_data_type(self) -> graql_types::DataType {
        match self {
            TypeName::Integer => graql_types::DataType::Integer,
            TypeName::Float => graql_types::DataType::Float,
            TypeName::Varchar(n) => graql_types::DataType::Varchar(n),
            TypeName::Date => graql_types::DataType::Date,
        }
    }
}

/// `create table T (col type, …)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: String,
    pub columns: Vec<(String, TypeName)>,
    pub span: Span,
}

/// `create vertex V(key, …) from table T [where cond]` (Eq. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct CreateVertex {
    pub name: String,
    /// Key columns of the vertex type (the unique identifier).
    pub key: Vec<String>,
    pub from_table: String,
    pub where_clause: Option<Expr>,
    pub span: Span,
}

/// One endpoint in a `create edge … with vertices (…)` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeEndpoint {
    /// Vertex type name.
    pub vertex_type: String,
    /// Optional alias (`TypeVtx as A`), needed when both endpoints share a
    /// type (the `subclass` edge of Fig. 3).
    pub alias: Option<String>,
}

/// `create edge E with vertices (S [as A], T [as B]) [from table R,…] where cond`
/// (Eq. 2). Order of the endpoints fixes the edge direction.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateEdge {
    pub name: String,
    pub source: EdgeEndpoint,
    pub target: EdgeEndpoint,
    /// Associated tables. With exactly one, each satisfying row becomes an
    /// edge instance carrying that table's attributes; with zero or
    /// several, edges are the distinct endpoint pairs of the join.
    pub from_tables: Vec<String>,
    pub where_clause: Option<Expr>,
    pub span: Span,
}

/// `ingest table T path.csv`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ingest {
    pub table: String,
    pub path: String,
    pub span: Span,
}

// ---------------------------------------------------------------------------
// Conditions
// ---------------------------------------------------------------------------

/// A boolean condition over attributes, labels and constants.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Not(Box<Expr>),
    Cmp {
        op: CmpOp,
        lhs: Operand,
        rhs: Operand,
        span: Span,
    },
}

/// A scalar operand of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// `name` (attribute of the current step / sole table) or
    /// `qualifier.name` (endpoint alias, table name, vertex type or label).
    Attr {
        qualifier: Option<String>,
        name: String,
    },
    Lit(Lit),
}

/// Literal constants; `Param` is a `%Name%` placeholder bound at execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    Int(i64),
    Float(f64),
    Str(String),
    /// `date 'YYYY-MM-DD'`.
    Date(graql_types::Date),
    Param(String),
}

// ---------------------------------------------------------------------------
// Path queries
// ---------------------------------------------------------------------------

/// Label kinds (§II-B2): `def X:` (set) vs `foreach x:` (element-wise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelKind {
    Set,
    Each,
}

/// A label definition attached to a step.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelDef {
    pub kind: LabelKind,
    pub name: String,
    pub span: Span,
}

/// Name position of a step: a concrete type / label name, or the `[ ]`
/// variant metavariable (§II-B4).
#[derive(Debug, Clone, PartialEq)]
pub enum StepName {
    Named(String),
    Any,
}

/// A vertex step `def X: resQ1.V(cond)` in all its optional glory.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexStep {
    pub label_def: Option<LabelDef>,
    /// `result.` prefix seeding this step from a named prior result
    /// (Fig. 12).
    pub seed: Option<String>,
    /// Vertex type name, label reference, or `[ ]`. Which of the first two
    /// it is gets resolved during analysis, since labels and types share
    /// the namespace syntax.
    pub name: StepName,
    /// Filter condition; `()` parses as `None`. Variant steps must not
    /// carry conditions (checked in analysis, not in the grammar).
    pub cond: Option<Expr>,
    pub span: Span,
}

/// Direction of an edge traversal in path syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// `--edge-->`: follow out-edges (declared direction).
    Out,
    /// `<--edge--`: follow in-edges (reverse direction).
    In,
}

/// An edge step with its traversal direction.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeStep {
    pub label_def: Option<LabelDef>,
    pub name: StepName,
    pub cond: Option<Expr>,
    pub dir: Dir,
    pub span: Span,
}

/// A path continuation following a vertex step.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// `--e--> V` or `<--e-- V`.
    Hop { edge: EdgeStep, vertex: VertexStep },
    /// `{ hop+ }quant [V]`: a path regular expression over variant steps
    /// (Fig. 10). The optional trailing vertex step unifies with the
    /// frontier after repetition (the `VertexB(conditionsB)` terminator).
    Group {
        hops: Vec<(EdgeStep, VertexStep)>,
        quant: Quant,
        exit: Option<VertexStep>,
        span: Span,
    },
}

/// Regular-expression quantifier on a path group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quant {
    /// `*` — zero or more repetitions.
    Star,
    /// `+` — one or more repetitions.
    Plus,
    /// `{n}` / `{n,m}` — bounded repetitions.
    Range(u32, u32),
}

impl Quant {
    /// Repetition bounds `(lo, hi)`; `hi` is `None` for `*` and `+`.
    pub fn bounds(self) -> (u32, Option<u32>) {
        match self {
            Quant::Star => (0, None),
            Quant::Plus => (1, None),
            Quant::Range(a, b) => (a, Some(b)),
        }
    }
}

/// A simple linear path query: head vertex step + segments (Eq. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct PathQuery {
    pub head: VertexStep,
    pub segments: Vec<Segment>,
}

/// Multi-path composition (§II-B3): `and` requires a shared label, `or`
/// unions results. `or` binds looser than `and`.
// AST enums are built once per parse and moved, never stored in bulk;
// boxing the large variants would ripple `Box` through every consumer
// for no measurable gain.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum PathComposition {
    Single(PathQuery),
    And(Vec<PathComposition>),
    Or(Vec<PathComposition>),
}

// ---------------------------------------------------------------------------
// Select statements
// ---------------------------------------------------------------------------

/// A column / attribute reference in a select context.
#[derive(Debug, Clone, PartialEq)]
pub struct ColRef {
    pub qualifier: Option<String>,
    pub name: String,
}

/// Aggregate function call in a projection.
#[derive(Debug, Clone, PartialEq)]
pub enum AggCall {
    CountStar,
    Count(ColRef),
    Sum(ColRef),
    Avg(ColRef),
    Min(ColRef),
    Max(ColRef),
}

/// One projected item.
///
/// A bare identifier parses as an unqualified [`ColRef`]; over a graph
/// source, analysis reinterprets it as a step/label reference (`select V0,
/// Vn from graph …`), while over a table source it is a column name.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectExpr {
    /// `step.attr`, bare `attr` (table context) or bare step name (graph
    /// context).
    Col(ColRef),
    Agg(AggCall),
}

/// Projection item with optional `as` alias.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: SelectExpr,
    pub alias: Option<String>,
}

/// The projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectTargets {
    /// `select *`.
    Star,
    Items(Vec<SelectItem>),
}

/// What the select draws from.
// AST enums are built once per parse and moved, never stored in bulk;
// boxing the large variants would ripple `Box` through every consumer
// for no measurable gain.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum SelectSource {
    /// `from graph <path composition>`.
    Graph(PathComposition),
    /// `from table T`.
    Table(String),
}

/// Result capture (§II-C).
#[derive(Debug, Clone, PartialEq)]
pub enum IntoClause {
    Table(String),
    Subgraph(String),
}

/// `order by` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub col: ColRef,
    pub desc: bool,
}

/// The unified select statement (graph or table source).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub distinct: bool,
    /// `top n`.
    pub top: Option<u64>,
    pub targets: SelectTargets,
    pub source: SelectSource,
    /// `where` over a table source (graph sources place conditions on
    /// steps instead).
    pub where_clause: Option<Expr>,
    pub group_by: Vec<ColRef>,
    pub order_by: Vec<OrderKey>,
    pub into: Option<IntoClause>,
    pub span: Span,
}

impl Stmt {
    /// Source position of the statement (its leading keyword).
    pub fn span(&self) -> Span {
        match self {
            Stmt::CreateTable(s) => s.span,
            Stmt::CreateVertex(s) => s.span,
            Stmt::CreateEdge(s) => s.span,
            Stmt::Ingest(s) => s.span,
            Stmt::Select(s) => s.span,
            Stmt::Profile(s) => s.span,
        }
    }

    /// The select underneath, for `select` and `profile` alike — the
    /// analyzer and linters treat both as reads of the same shape.
    pub fn as_select(&self) -> Option<&SelectStmt> {
        match self {
            Stmt::Select(s) | Stmt::Profile(s) => Some(s),
            _ => None,
        }
    }
}

impl Expr {
    /// Source position of the leftmost comparison in this expression
    /// (unknown for synthesized trees).
    pub fn span(&self) -> Span {
        match self {
            Expr::And(ps) | Expr::Or(ps) => ps.first().map(Expr::span).unwrap_or_default(),
            Expr::Not(inner) => inner.span(),
            Expr::Cmp { span, .. } => *span,
        }
    }

    /// Visits every comparison leaf, left to right, through any nesting
    /// of `and`/`or`/`not`.
    pub fn for_each_cmp<'a>(&'a self, f: &mut impl FnMut(CmpOp, &'a Operand, &'a Operand, Span)) {
        match self {
            Expr::And(ps) | Expr::Or(ps) => ps.iter().for_each(|p| p.for_each_cmp(f)),
            Expr::Not(inner) => inner.for_each_cmp(f),
            Expr::Cmp { op, lhs, rhs, span } => f(*op, lhs, rhs, *span),
        }
    }

    /// Visits every attribute operand as `(qualifier, name)`, left to right.
    pub fn for_each_attr<'a>(&'a self, f: &mut impl FnMut(&'a Option<String>, &'a str)) {
        self.for_each_cmp(&mut |_, lhs, rhs, _| {
            for o in [lhs, rhs] {
                if let Operand::Attr { qualifier, name } = o {
                    f(qualifier, name);
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// The step visitor
// ---------------------------------------------------------------------------

/// One step of a path, as the step visitor yields it.
#[derive(Debug, Clone, Copy)]
pub enum Step<'a> {
    Vertex(&'a VertexStep),
    Edge(&'a EdgeStep),
}

/// The mutable twin of [`Step`].
#[derive(Debug)]
pub enum StepMut<'a> {
    Vertex(&'a mut VertexStep),
    Edge(&'a mut EdgeStep),
}

/// The repetition group a visited step sits in, and which of its hops the
/// step belongs to: a group's first step is the edge of hop 0, its last
/// the vertex of the last hop.
#[derive(Debug, Clone, Copy)]
pub struct InGroup<'a> {
    pub hops: &'a [(EdgeStep, VertexStep)],
    pub quant: Quant,
    pub span: Span,
    pub hop: usize,
}

impl<'a> Step<'a> {
    pub fn name(self) -> &'a StepName {
        match self {
            Step::Vertex(v) => &v.name,
            Step::Edge(e) => &e.name,
        }
    }

    pub fn label_def(self) -> Option<&'a LabelDef> {
        match self {
            Step::Vertex(v) => v.label_def.as_ref(),
            Step::Edge(e) => e.label_def.as_ref(),
        }
    }

    pub fn cond(self) -> Option<&'a Expr> {
        match self {
            Step::Vertex(v) => v.cond.as_ref(),
            Step::Edge(e) => e.cond.as_ref(),
        }
    }
}

impl StepMut<'_> {
    pub fn label_def(&mut self) -> &mut Option<LabelDef> {
        match self {
            StepMut::Vertex(v) => &mut v.label_def,
            StepMut::Edge(e) => &mut e.label_def,
        }
    }

    pub fn cond(&mut self) -> &mut Option<Expr> {
        match self {
            StepMut::Vertex(v) => &mut v.cond,
            StepMut::Edge(e) => &mut e.cond,
        }
    }
}

impl AggCall {
    /// The aggregated column (`None` for `count(*)`).
    pub fn arg(&self) -> Option<&ColRef> {
        match self {
            AggCall::CountStar => None,
            AggCall::Count(c)
            | AggCall::Sum(c)
            | AggCall::Avg(c)
            | AggCall::Min(c)
            | AggCall::Max(c) => Some(c),
        }
    }
}

impl SelectStmt {
    /// True if any projection item is an aggregate.
    pub fn has_aggregates(&self) -> bool {
        match &self.targets {
            SelectTargets::Star => false,
            SelectTargets::Items(items) => {
                items.iter().any(|i| matches!(i.expr, SelectExpr::Agg(_)))
            }
        }
    }

    /// Every name that could reference a step label: step names (a later
    /// step named after a label unifies with it), condition qualifiers,
    /// projection, grouping and ordering columns (qualifier and bare name
    /// alike), and `where` qualifiers.
    pub fn for_each_label_ref<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        fn note_quals<'a>(e: &'a Expr, f: &mut impl FnMut(&'a str)) {
            e.for_each_attr(&mut |q, _| {
                if let Some(q) = q {
                    f(q);
                }
            })
        }
        if let SelectSource::Graph(comp) = &self.source {
            comp.for_each_step(&mut |s, _| {
                if let StepName::Named(n) = s.name() {
                    f(n);
                }
                if let Some(c) = s.cond() {
                    note_quals(c, f);
                }
            });
        }
        let mut note_col = |c: &'a ColRef| {
            if let Some(q) = &c.qualifier {
                f(q);
            }
            f(&c.name);
        };
        if let SelectTargets::Items(items) = &self.targets {
            for item in items {
                match &item.expr {
                    SelectExpr::Col(c) => note_col(c),
                    SelectExpr::Agg(a) => a.arg().into_iter().for_each(&mut note_col),
                }
            }
        }
        self.group_by.iter().for_each(&mut note_col);
        self.order_by.iter().for_each(|k| note_col(&k.col));
        if let Some(w) = &self.where_clause {
            note_quals(w, f);
        }
    }
}

impl PathQuery {
    /// The step visitor: every step in syntactic order (the head, each
    /// hop's edge then vertex, a group's hops, a group's exit), with the
    /// repetition group the step sits in. A group's exit follows the group
    /// and is not inside it.
    pub fn for_each_step<'a>(&'a self, f: &mut impl FnMut(Step<'a>, Option<InGroup<'a>>)) {
        f(Step::Vertex(&self.head), None);
        for seg in &self.segments {
            match seg {
                Segment::Hop { edge, vertex } => {
                    f(Step::Edge(edge), None);
                    f(Step::Vertex(vertex), None);
                }
                Segment::Group {
                    hops,
                    quant,
                    exit,
                    span,
                } => {
                    for (hop, (e, v)) in hops.iter().enumerate() {
                        let g = InGroup {
                            hops,
                            quant: *quant,
                            span: *span,
                            hop,
                        };
                        f(Step::Edge(e), Some(g));
                        f(Step::Vertex(v), Some(g));
                    }
                    if let Some(v) = exit {
                        f(Step::Vertex(v), None);
                    }
                }
            }
        }
    }

    /// [`PathQuery::for_each_step`] with mutable steps, in the same order.
    pub fn for_each_step_mut(&mut self, f: &mut impl FnMut(StepMut<'_>)) {
        f(StepMut::Vertex(&mut self.head));
        for seg in &mut self.segments {
            match seg {
                Segment::Hop { edge, vertex } => {
                    f(StepMut::Edge(edge));
                    f(StepMut::Vertex(vertex));
                }
                Segment::Group { hops, exit, .. } => {
                    for (e, v) in hops {
                        f(StepMut::Edge(e));
                        f(StepMut::Vertex(v));
                    }
                    if let Some(v) = exit {
                        f(StepMut::Vertex(v));
                    }
                }
            }
        }
    }

    /// All vertex steps (head, hop vertices, group hops and group exits)
    /// in syntactic order.
    pub fn vertex_steps(&self) -> Vec<&VertexStep> {
        let mut out = Vec::new();
        self.for_each_step(&mut |s, _| {
            if let Step::Vertex(v) = s {
                out.push(v);
            }
        });
        out
    }
}

impl PathComposition {
    /// All simple paths in the composition, left to right.
    pub fn paths(&self) -> Vec<&PathQuery> {
        let mut out = Vec::new();
        self.for_each_path(&mut |p| out.push(p));
        out
    }

    fn for_each_path<'a>(&'a self, f: &mut impl FnMut(&'a PathQuery)) {
        match self {
            PathComposition::Single(p) => f(p),
            PathComposition::And(cs) | PathComposition::Or(cs) => {
                cs.iter().for_each(|c| c.for_each_path(f))
            }
        }
    }

    /// [`PathQuery::for_each_step`] over every path, left to right.
    pub fn for_each_step<'a>(&'a self, f: &mut impl FnMut(Step<'a>, Option<InGroup<'a>>)) {
        self.for_each_path(&mut |p| p.for_each_step(f));
    }

    /// [`PathQuery::for_each_step_mut`] over every path, left to right.
    pub fn for_each_step_mut(&mut self, f: &mut impl FnMut(StepMut<'_>)) {
        match self {
            PathComposition::Single(p) => p.for_each_step_mut(f),
            PathComposition::And(cs) | PathComposition::Or(cs) => {
                cs.iter_mut().for_each(|c| c.for_each_step_mut(f))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_visitor_order_and_groups() {
        let script = crate::parse(
            "select * from graph A() --e--> B() { --f--> [] <--g-- D() }{1,2} --> E(x > 1)",
        )
        .unwrap();
        let Some(SelectStmt {
            source: SelectSource::Graph(comp),
            ..
        }) = script.statements[0].as_select()
        else {
            panic!("graph select")
        };
        let mut seen = Vec::new();
        comp.for_each_step(&mut |step, group| {
            let name = match step.name() {
                StepName::Named(n) => n.clone(),
                StepName::Any => "[]".into(),
            };
            seen.push((name, group.map(|g| (g.hop, g.hops.len(), g.quant))));
        });
        let q = Some(Quant::Range(1, 2));
        let expect = [
            ("A", None),
            ("e", None),
            ("B", None),
            ("f", q.map(|q| (0, 2, q))),
            ("[]", q.map(|q| (0, 2, q))),
            ("g", q.map(|q| (1, 2, q))),
            ("D", q.map(|q| (1, 2, q))),
            ("E", None),
        ];
        let expect: Vec<_> = expect.iter().map(|(n, g)| (n.to_string(), *g)).collect();
        assert_eq!(seen, expect);

        // The mutable twin visits the same steps in the same order.
        let mut comp = comp.clone();
        let mut n = 0;
        comp.for_each_step_mut(&mut |mut step| {
            n += 1;
            *step.cond() = None;
        });
        assert_eq!(n, expect.len());
        let mut conds = 0;
        comp.for_each_step(&mut |step, _| conds += step.cond().iter().count());
        assert_eq!(conds, 0);
    }
}
