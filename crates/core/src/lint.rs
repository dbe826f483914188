//! The warning and hint rules (`W`/`H` codes): suspicious-but-legal
//! constructs, and hints.
//!
//! They run in collecting mode only ([`crate::analyze::check_script`]),
//! inside the analyzer's one walk over the statements: each statement is
//! checked right after its error checks, against the working catalog as
//! that statement leaves it. They never error and never mutate the
//! catalog. Each rule reports into its own buffer, and `Rules::finish`
//! appends the buffers in rule order after every error.

use graql_parser::ast::{
    self, EdgeStep, Quant, SelectSource, SelectStmt, Step, StepName, Stmt, VertexStep,
};
use graql_types::{codes, Diagnostic, Diagnostics, Span};
use rustc_hash::FxHashMap;

use crate::analysis::dataflow;
use crate::analyze::resolve::GraphSelect;
use crate::catalog::{Catalog, CatalogStats};

/// Mean-degree threshold above which an unbounded repetition over an edge
/// type is flagged as `W0301`.
pub const FANOUT_THRESHOLD: f64 = 4.0;

/// Largest finite repetition bound that needs no query budget (`W0303`).
/// A group is evaluated one repetition count at a time: a bound of `c`
/// keeps up to `m·(c+1)·|V|` product states (`exec::regex`), so a bound in
/// the millions runs for as long as an unbounded one could, and only a
/// deadline or a byte budget stops it. The paper's queries and the Berlin
/// workloads repeat at most 8 times; 64 leaves room for deep hierarchies.
pub const UNGOVERNED_COUNT_LIMIT: u32 = 64;

/// The rules' state across one script's statements.
pub(crate) struct Rules<'s> {
    stats: Option<&'s CatalogStats>,
    /// Three-valued: `Some(false)` means the checker *knows* neither a
    /// deadline nor a byte budget is configured (enabling `W0303`; a row
    /// budget cannot stop a set-level group, which charges no rows),
    /// `Some(true)` means one of them is, `None` means the execution
    /// environment is unknown
    /// (catalog-only checks), which suppresses the lint rather than
    /// guessing.
    governed: Option<bool>,
    /// Index of the statement being checked (at the end: how many were).
    at: usize,
    /// `into` results in definition order (`W0202`, `W0204`).
    results: Vec<ResultDef>,
    /// Result table → hottest edge of the graph select that produced it
    /// (`H0202`).
    producers: FxHashMap<String, (String, f64)>,
    // One buffer per rule, in report order.
    unused_labels: Diagnostics,
    always_false: Diagnostics,
    paths: Diagnostics,
    unordered_top: Diagnostics,
    top_spills: Diagnostics,
    dataflow: Diagnostics,
}

struct ResultDef {
    name: String,
    stmt: usize,
    span: Span,
    /// Read by a later statement (up to and including the one that
    /// redefines it).
    read: bool,
    /// The statement that redefines the name, once one has.
    shadowed_at: Option<Span>,
}

impl<'s> Rules<'s> {
    pub(crate) fn new(stats: Option<&'s CatalogStats>, governed: Option<bool>) -> Self {
        Rules {
            stats,
            governed,
            at: 0,
            results: Vec::new(),
            producers: FxHashMap::default(),
            unused_labels: Diagnostics::new(),
            always_false: Diagnostics::new(),
            paths: Diagnostics::new(),
            unordered_top: Diagnostics::new(),
            top_spills: Diagnostics::new(),
            dataflow: Diagnostics::new(),
        }
    }

    /// Checks the next statement of the script. `plan` is the statement's
    /// resolved graph select, when it is one and reported no error.
    pub(crate) fn check(&mut self, work: &Catalog, stmt: &Stmt, plan: Option<&GraphSelect>) {
        match stmt {
            Stmt::CreateVertex(ast::CreateVertex {
                where_clause: Some(w),
                ..
            })
            | Stmt::CreateEdge(ast::CreateEdge {
                where_clause: Some(w),
                ..
            }) => {
                dataflow::check_predicate(w, None, &mut self.always_false, &mut self.dataflow);
            }
            Stmt::Select(sel) | Stmt::Profile(sel) => self.select(work, sel, plan),
            _ => {}
        }
        self.track_results(stmt);
        self.at += 1;
    }

    /// Appends every rule's findings to `sink`, in rule order.
    pub(crate) fn finish(self, sink: &mut Diagnostics) {
        let results = self.result_findings();
        for rule in [
            self.unused_labels,
            results,
            self.always_false,
            self.paths,
            self.unordered_top,
            self.top_spills,
            self.dataflow,
        ] {
            sink.extend(rule);
        }
    }

    fn select(&mut self, work: &Catalog, sel: &SelectStmt, plan: Option<&GraphSelect>) {
        if let Some(w) = &sel.where_clause {
            dataflow::check_predicate(
                w,
                Some("`where` clause"),
                &mut self.always_false,
                &mut self.dataflow,
            );
        }
        match &sel.source {
            SelectSource::Graph(comp) => {
                self.lint_labels(sel, comp);
                dataflow::check_graph(
                    work,
                    self.stats,
                    comp,
                    plan,
                    sel.span,
                    &mut self.always_false,
                    &mut self.dataflow,
                );
                for path in comp.paths() {
                    self.lint_path(work, path);
                }
                if let (Some(ast::IntoClause::Table(name)), Some(stats)) = (&sel.into, self.stats) {
                    if let Some((edge, deg)) = hottest_edge(comp, stats) {
                        self.producers.insert(name.clone(), (edge.to_string(), deg));
                    }
                }
            }
            SelectSource::Table(t) => {
                if sel.top.is_some() && sel.order_by.is_empty() {
                    self.unordered_top.push(
                        Diagnostic::hint(
                            codes::TOP_WITHOUT_ORDER,
                            "'top' without 'order by' returns an arbitrary subset of rows",
                            sel.span,
                        )
                        .with_note("add 'order by' to make the selection deterministic"),
                    );
                }
                self.lint_top_sort_spill(sel, t);
            }
        }
    }

    // -----------------------------------------------------------------------
    // W0201: unused labels
    // -----------------------------------------------------------------------

    /// Every `def X:` / `foreach x:` label should be referenced somewhere
    /// ([`SelectStmt::for_each_label_ref`], the rewriter's notion of a use).
    fn lint_labels(&mut self, sel: &SelectStmt, comp: &ast::PathComposition) {
        comp.for_each_step(&mut |step, _| {
            let Some(l) = step.label_def() else { return };
            let mut used = false;
            sel.for_each_label_ref(&mut |n| used |= n == l.name);
            if !used {
                self.unused_labels.push(
                    Diagnostic::warning(
                        codes::UNUSED_LABEL,
                        format!("label '{}' is never used", l.name),
                        l.span,
                    )
                    .with_note("remove the label, or reference it in a condition or projection"),
                );
            }
        });
    }

    // -----------------------------------------------------------------------
    // W0202 / W0204: unread and shadowed `into` results
    // -----------------------------------------------------------------------

    fn track_results(&mut self, stmt: &Stmt) {
        let at = self.at;
        for_each_result_read(stmt, &mut |name| {
            for def in &mut self.results {
                if def.name == name && def.shadowed_at.is_none() {
                    def.read = true;
                }
            }
        });
        let Stmt::Select(sel) = stmt else { return };
        let Some(ast::IntoClause::Table(name) | ast::IntoClause::Subgraph(name)) = &sel.into else {
            return;
        };
        if let Some(prev) = self
            .results
            .iter_mut()
            .find(|d| d.name == *name && d.shadowed_at.is_none())
        {
            prev.shadowed_at = Some(sel.span);
        }
        self.results.push(ResultDef {
            name: name.clone(),
            stmt: at,
            span: sel.span,
            read: false,
            shadowed_at: None,
        });
    }

    fn result_findings(&self) -> Diagnostics {
        let mut out = Diagnostics::new();
        for def in self.results.iter().filter(|d| !d.read) {
            let name = &def.name;
            match def.shadowed_at {
                // Overwriting a result that was read in between (including
                // by the overwriting statement itself — refine-in-place) is
                // legitimate; overwriting an unread one loses it silently.
                Some(span) => out.push(
                    Diagnostic::warning(
                        codes::SHADOWED_RESULT,
                        format!("'into {name}' overwrites a result that was never read"),
                        span,
                    )
                    .with_note(format!(
                        "the earlier 'into {name}' result is silently replaced"
                    )),
                ),
                None if def.stmt + 1 < self.at => out.push(
                    Diagnostic::warning(
                        codes::UNREAD_RESULT,
                        format!("result '{name}' is never read by a later statement"),
                        def.span,
                    )
                    .with_note(
                        "only the final statement's result is the script output; \
                         intermediate results should be read or removed",
                    ),
                ),
                None => {}
            }
        }
        out
    }

    // -----------------------------------------------------------------------
    // W0205 / W0301 / W0302 / W0303: path shape and cost lints
    // -----------------------------------------------------------------------

    fn lint_path(&mut self, work: &Catalog, path: &ast::PathQuery) {
        let sink = &mut self.paths;
        let (stats, governed) = (self.stats, self.governed);
        // Adjacent plain hops through a variant step: the arriving edge's
        // endpoint type must match the departing edge's. `junction` holds
        // an arriving edge and the variant step it reached.
        let mut edge: Option<&EdgeStep> = None;
        let mut junction: Option<(&EdgeStep, &VertexStep)> = None;
        path.for_each_step(&mut |step, group| match (step, group) {
            (Step::Edge(depart), None) => {
                if let Some((arrive, mid)) = junction.take() {
                    check_variant_junction(work, arrive, depart, mid.span, sink);
                }
                edge = Some(depart);
            }
            (Step::Vertex(v), None) => {
                junction = edge
                    .take()
                    .filter(|_| matches!(v.name, StepName::Any))
                    .map(|e| (e, v));
            }
            (Step::Edge(_), Some(g)) if g.hop == 0 => {
                // The group hides the frontier type.
                (edge, junction) = (None, None);
                lint_group(work, g, stats, governed, sink);
            }
            (_, Some(_)) => {}
        });
    }

    // -----------------------------------------------------------------------
    // H0202: top n over a sort of a high-fanout traversal result
    // -----------------------------------------------------------------------

    /// `top n … order by` over a table materialized from a high-fanout
    /// traversal: the whole spilled result is sorted just to keep `n`
    /// rows. Bounding or filtering the producer shrinks the sort input
    /// instead.
    fn lint_top_sort_spill(&mut self, sel: &SelectStmt, t: &str) {
        if sel.top.is_none() || sel.order_by.is_empty() {
            return;
        }
        if let Some((edge, deg)) = self.producers.get(t) {
            self.top_spills.push(
                Diagnostic::hint(
                    codes::TOP_SORT_SPILL,
                    format!(
                        "'top' fully sorts '{t}', which is materialized from a \
                         high-fanout traversal over edge '{edge}' (mean degree {deg:.1})"
                    ),
                    sel.span,
                )
                .with_note(
                    "filter or bound the producing graph select so the sort input \
                     stays small",
                ),
            );
        }
    }
}

/// Result names a statement *reads* (as a table source, subgraph seed,
/// or DDL input).
fn for_each_result_read<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a str)) {
    match stmt {
        Stmt::CreateTable(_) => {}
        Stmt::CreateVertex(cv) => f(&cv.from_table),
        Stmt::CreateEdge(ce) => ce.from_tables.iter().for_each(|t| f(t)),
        Stmt::Ingest(ing) => f(&ing.table),
        Stmt::Select(sel) | Stmt::Profile(sel) => match &sel.source {
            SelectSource::Table(t) => f(t),
            SelectSource::Graph(comp) => comp.for_each_step(&mut |step, _| {
                if let Step::Vertex(VertexStep { seed: Some(s), .. }) = step {
                    f(s);
                }
            }),
        },
    }
}

/// The group-level lints of one repetition group.
fn lint_group(
    work: &Catalog,
    g: ast::InGroup<'_>,
    stats: Option<&CatalogStats>,
    governed: Option<bool>,
    sink: &mut Diagnostics,
) {
    if let Quant::Range(0, 0) = g.quant {
        sink.push(
            Diagnostic::warning(
                codes::ZERO_REPETITION,
                "repetition bound {0}: the group is never traversed",
                g.span,
            )
            .with_note("remove the group or raise the bound"),
        );
    }
    let unbounded = matches!(g.quant, Quant::Star | Quant::Plus);
    let huge = g.quant.bounds().1.filter(|&hi| hi > UNGOVERNED_COUNT_LIMIT);
    if (unbounded || huge.is_some()) && governed == Some(false) {
        let message = match huge {
            Some(hi) => format!("repetition bound {hi} with no query budget configured"),
            None => "unbounded repetition with no query budget configured".to_string(),
        };
        sink.push(
            Diagnostic::warning(codes::UNGOVERNED_REPETITION, message, g.span).with_note(
                "a runaway traversal cannot be stopped; configure a deadline \
                 or a max_query_bytes budget",
            ),
        );
    }
    if let (true, Some(st)) = (unbounded, stats) {
        for (e, _) in g.hops {
            let Some((n, deg)) = traversal_degree(e, st) else {
                continue;
            };
            if deg > FANOUT_THRESHOLD {
                sink.push(
                    Diagnostic::warning(
                        codes::UNBOUNDED_HIGH_FANOUT,
                        format!(
                            "unbounded repetition over high-fanout edge \
                             '{n}' (mean degree {deg:.1})"
                        ),
                        e.span,
                    )
                    .with_note(
                        "the frontier can grow exponentially; consider a \
                         bounded quantifier like {1,3}",
                    ),
                );
            }
        }
    }
    // Variant junctions inside the repeated chain…
    for pair in g.hops.windows(2) {
        let ((e1, v1), (e2, _)) = (&pair[0], &pair[1]);
        if matches!(v1.name, StepName::Any) {
            check_variant_junction(work, e1, e2, v1.span, sink);
        }
    }
    // …and across the wrap-around when the group can repeat.
    let repeats = g.quant.bounds().1.is_none_or(|hi| hi >= 2);
    if let (true, Some((e_last, v_last)), Some((e_first, _))) =
        (repeats, g.hops.last(), g.hops.first())
    {
        if matches!(v_last.name, StepName::Any) {
            check_variant_junction(work, e_last, e_first, v_last.span, sink);
        }
    }
}

/// Warns when a variant (`[ ]`) step sits between two concrete edges whose
/// endpoint types cannot unify: no vertex instance can ever match.
fn check_variant_junction(
    work: &Catalog,
    arrive: &EdgeStep,
    depart: &EdgeStep,
    at: Span,
    sink: &mut Diagnostics,
) {
    let (StepName::Named(n1), StepName::Named(n2)) = (&arrive.name, &depart.name) else {
        return;
    };
    let (Some(d1), Some(d2)) = (work.edge(n1), work.edge(n2)) else {
        return;
    };
    let arrive_type = match arrive.dir {
        ast::Dir::Out => &d1.tgt_type,
        ast::Dir::In => &d1.src_type,
    };
    let depart_type = match depart.dir {
        ast::Dir::Out => &d2.src_type,
        ast::Dir::In => &d2.tgt_type,
    };
    if arrive_type != depart_type {
        sink.push(
            Diagnostic::warning(
                codes::UNSATISFIABLE_STEP,
                format!(
                    "variant step can never match: edge '{n1}' arrives at '{arrive_type}' \
                     but edge '{n2}' departs from '{depart_type}'"
                ),
                at,
            )
            .with_note("the step matches no vertex; the query always returns empty"),
        );
    }
}

/// Mean degree, in the traversal direction, of a named edge step whose
/// edge type the catalog statistics store knows.
fn traversal_degree<'a>(e: &'a EdgeStep, stats: &CatalogStats) -> Option<(&'a str, f64)> {
    let StepName::Named(n) = &e.name else {
        return None;
    };
    let (out_deg, in_deg) = stats.mean_degrees(n)?;
    let deg = match e.dir {
        ast::Dir::Out => out_deg,
        ast::Dir::In => in_deg,
    };
    Some((n, deg))
}

/// The highest-degree edge step of a composition, when it is above
/// [`FANOUT_THRESHOLD`] (the last such step on ties).
fn hottest_edge<'a>(
    comp: &'a ast::PathComposition,
    stats: &CatalogStats,
) -> Option<(&'a str, f64)> {
    let mut hottest: Option<(&str, f64)> = None;
    comp.for_each_step(&mut |step, _| {
        if let Step::Edge(e) = step {
            if let Some((n, deg)) = traversal_degree(e, stats) {
                if hottest.is_none_or(|(_, d)| deg.total_cmp(&d).is_ge()) {
                    hottest = Some((n, deg));
                }
            }
        }
    });
    hottest.filter(|&(_, deg)| deg > FANOUT_THRESHOLD)
}
