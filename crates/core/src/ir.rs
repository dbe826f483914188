//! The binary intermediate representation (paper §III): "a GraQL script is
//! parsed and compiled into a high-level binary intermediate
//! representation (IR) that is a convenient mechanism for moving the query
//! script from the front-end portion of the GEMS system to the backend for
//! execution."
//!
//! Hand-rolled tagged binary codec over [`graql_types::codec`] (shared
//! with the wire protocol): little-endian scalars, length-prefixed
//! strings, one tag byte per variant. Round-trip (`decode(encode(s)) ==
//! s`) is property-tested.

use graql_parser::ast::*;
use graql_types::codec::{self, Put};
use graql_types::{CmpOp, Date, GraqlError, Result};

/// Magic + version header so stale blobs fail loudly.
const MAGIC: &[u8; 4] = b"GQIR";
const VERSION: u8 = 1;

/// Encodes a parsed script into its binary IR.
pub fn encode(script: &Script) -> Vec<u8> {
    let mut b = Vec::new();
    b.put_slice(MAGIC);
    b.put_u8(VERSION);
    b.put_u32_le(script.statements.len() as u32);
    for s in &script.statements {
        enc_stmt(&mut b, s);
    }
    b
}

/// Decodes a binary IR blob back into a script.
pub fn decode(mut data: &[u8]) -> Result<Script> {
    let buf = &mut data;
    let (magic, version) = match (codec::take(buf, 4), codec::take_array(buf)) {
        (Some(magic), Some([version])) => (magic, version),
        _ => return Err(GraqlError::ir("truncated IR header")),
    };
    if magic != MAGIC {
        return Err(GraqlError::ir("bad IR magic"));
    }
    if version != VERSION {
        return Err(GraqlError::ir(format!("unsupported IR version {version}")));
    }
    let n = get_u32(buf)? as usize;
    let mut statements = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        statements.push(dec_stmt(buf)?);
    }
    if !buf.is_empty() {
        return Err(GraqlError::ir("trailing bytes after IR script"));
    }
    Ok(Script { statements })
}

// -- low-level helpers -------------------------------------------------------

fn get_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N]> {
    codec::take_array(buf).ok_or_else(|| GraqlError::ir("truncated IR"))
}

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    get_array(buf).map(u8::from_le_bytes)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    get_array(buf).map(u32::from_le_bytes)
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    get_array(buf).map(u64::from_le_bytes)
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    let n = get_u32(buf)? as usize;
    let bytes = codec::take(buf, n).ok_or_else(|| GraqlError::ir("truncated IR string"))?;
    String::from_utf8(bytes.to_vec()).map_err(|_| GraqlError::ir("invalid UTF-8 in IR string"))
}

fn put_opt_str(b: &mut Vec<u8>, s: &Option<String>) {
    match s {
        Some(s) => {
            b.put_u8(1);
            b.put_str(s);
        }
        None => b.put_u8(0),
    }
}

fn get_opt_str(buf: &mut &[u8]) -> Result<Option<String>> {
    Ok(if get_u8(buf)? == 1 {
        Some(get_str(buf)?)
    } else {
        None
    })
}

fn put_opt_expr(b: &mut Vec<u8>, e: &Option<Expr>) {
    match e {
        Some(e) => {
            b.put_u8(1);
            enc_expr(b, e);
        }
        None => b.put_u8(0),
    }
}

fn get_opt_expr(buf: &mut &[u8]) -> Result<Option<Expr>> {
    Ok(if get_u8(buf)? == 1 {
        Some(dec_expr(buf)?)
    } else {
        None
    })
}

// -- statements --------------------------------------------------------------

fn enc_stmt(b: &mut Vec<u8>, s: &Stmt) {
    match s {
        Stmt::CreateTable(t) => {
            b.put_u8(0);
            b.put_str(&t.name);
            b.put_u32_le(t.columns.len() as u32);
            for (n, ty) in &t.columns {
                b.put_str(n);
                match ty {
                    TypeName::Integer => b.put_u8(0),
                    TypeName::Float => b.put_u8(1),
                    TypeName::Varchar(n) => {
                        b.put_u8(2);
                        b.put_u32_le(*n);
                    }
                    TypeName::Date => b.put_u8(3),
                }
            }
        }
        Stmt::CreateVertex(v) => {
            b.put_u8(1);
            b.put_str(&v.name);
            b.put_u32_le(v.key.len() as u32);
            for k in &v.key {
                b.put_str(k);
            }
            b.put_str(&v.from_table);
            put_opt_expr(b, &v.where_clause);
        }
        Stmt::CreateEdge(e) => {
            b.put_u8(2);
            b.put_str(&e.name);
            b.put_str(&e.source.vertex_type);
            put_opt_str(b, &e.source.alias);
            b.put_str(&e.target.vertex_type);
            put_opt_str(b, &e.target.alias);
            b.put_u32_le(e.from_tables.len() as u32);
            for t in &e.from_tables {
                b.put_str(t);
            }
            put_opt_expr(b, &e.where_clause);
        }
        Stmt::Ingest(i) => {
            b.put_u8(3);
            b.put_str(&i.table);
            b.put_str(&i.path);
        }
        Stmt::Select(s) => {
            b.put_u8(4);
            enc_select(b, s);
        }
        Stmt::Profile(s) => {
            b.put_u8(5);
            enc_select(b, s);
        }
    }
}

fn dec_stmt(buf: &mut &[u8]) -> Result<Stmt> {
    Ok(match get_u8(buf)? {
        0 => {
            let name = get_str(buf)?;
            let n = get_u32(buf)? as usize;
            let mut columns = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let cname = get_str(buf)?;
                let ty = match get_u8(buf)? {
                    0 => TypeName::Integer,
                    1 => TypeName::Float,
                    2 => TypeName::Varchar(get_u32(buf)?),
                    3 => TypeName::Date,
                    t => return Err(GraqlError::ir(format!("bad type tag {t}"))),
                };
                columns.push((cname, ty));
            }
            Stmt::CreateTable(CreateTable {
                name,
                columns,
                span: Span::default(),
            })
        }
        1 => {
            let name = get_str(buf)?;
            let n = get_u32(buf)? as usize;
            let mut key = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                key.push(get_str(buf)?);
            }
            let from_table = get_str(buf)?;
            let where_clause = get_opt_expr(buf)?;
            Stmt::CreateVertex(CreateVertex {
                name,
                key,
                from_table,
                where_clause,
                span: Span::default(),
            })
        }
        2 => {
            let name = get_str(buf)?;
            let source = EdgeEndpoint {
                vertex_type: get_str(buf)?,
                alias: get_opt_str(buf)?,
            };
            let target = EdgeEndpoint {
                vertex_type: get_str(buf)?,
                alias: get_opt_str(buf)?,
            };
            let n = get_u32(buf)? as usize;
            let mut from_tables = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                from_tables.push(get_str(buf)?);
            }
            let where_clause = get_opt_expr(buf)?;
            Stmt::CreateEdge(CreateEdge {
                name,
                source,
                target,
                from_tables,
                where_clause,
                span: Span::default(),
            })
        }
        3 => Stmt::Ingest(Ingest {
            table: get_str(buf)?,
            path: get_str(buf)?,
            span: Span::default(),
        }),
        4 => Stmt::Select(dec_select(buf)?),
        5 => Stmt::Profile(dec_select(buf)?),
        t => return Err(GraqlError::ir(format!("bad statement tag {t}"))),
    })
}

// -- expressions --------------------------------------------------------------

fn enc_expr(b: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::And(ps) => {
            b.put_u8(0);
            b.put_u32_le(ps.len() as u32);
            ps.iter().for_each(|p| enc_expr(b, p));
        }
        Expr::Or(ps) => {
            b.put_u8(1);
            b.put_u32_le(ps.len() as u32);
            ps.iter().for_each(|p| enc_expr(b, p));
        }
        Expr::Not(x) => {
            b.put_u8(2);
            enc_expr(b, x);
        }
        Expr::Cmp { op, lhs, rhs, .. } => {
            b.put_u8(3);
            b.put_u8(cmp_tag(*op));
            enc_operand(b, lhs);
            enc_operand(b, rhs);
        }
    }
}

fn dec_expr(buf: &mut &[u8]) -> Result<Expr> {
    Ok(match get_u8(buf)? {
        0 => {
            let n = get_u32(buf)? as usize;
            Expr::And((0..n).map(|_| dec_expr(buf)).collect::<Result<_>>()?)
        }
        1 => {
            let n = get_u32(buf)? as usize;
            Expr::Or((0..n).map(|_| dec_expr(buf)).collect::<Result<_>>()?)
        }
        2 => Expr::Not(Box::new(dec_expr(buf)?)),
        3 => {
            let op = cmp_untag(get_u8(buf)?)?;
            let lhs = dec_operand(buf)?;
            let rhs = dec_operand(buf)?;
            Expr::Cmp {
                op,
                lhs,
                rhs,
                span: Span::default(),
            }
        }
        t => return Err(GraqlError::ir(format!("bad expr tag {t}"))),
    })
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_untag(t: u8) -> Result<CmpOp> {
    Ok(match t {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        _ => return Err(GraqlError::ir(format!("bad cmp tag {t}"))),
    })
}

fn enc_operand(b: &mut Vec<u8>, o: &Operand) {
    match o {
        Operand::Attr { qualifier, name } => {
            b.put_u8(0);
            put_opt_str(b, qualifier);
            b.put_str(name);
        }
        Operand::Lit(l) => {
            b.put_u8(1);
            match l {
                Lit::Int(i) => {
                    b.put_u8(0);
                    b.put_i64_le(*i);
                }
                Lit::Float(f) => {
                    b.put_u8(1);
                    b.put_f64_le(*f);
                }
                Lit::Str(s) => {
                    b.put_u8(2);
                    b.put_str(s);
                }
                Lit::Date(d) => {
                    b.put_u8(3);
                    b.put_i32_le(d.days());
                }
                Lit::Param(p) => {
                    b.put_u8(4);
                    b.put_str(p);
                }
            }
        }
    }
}

fn dec_operand(buf: &mut &[u8]) -> Result<Operand> {
    Ok(match get_u8(buf)? {
        0 => Operand::Attr {
            qualifier: get_opt_str(buf)?,
            name: get_str(buf)?,
        },
        1 => Operand::Lit(match get_u8(buf)? {
            0 => Lit::Int(get_u64(buf)? as i64),
            1 => Lit::Float(f64::from_bits(get_u64(buf)?)),
            2 => Lit::Str(get_str(buf)?),
            3 => Lit::Date(Date(get_u32(buf)? as i32)),
            4 => Lit::Param(get_str(buf)?),
            t => return Err(GraqlError::ir(format!("bad literal tag {t}"))),
        }),
        t => return Err(GraqlError::ir(format!("bad operand tag {t}"))),
    })
}

// -- select statements ---------------------------------------------------------

fn enc_select(b: &mut Vec<u8>, s: &SelectStmt) {
    b.put_u8(s.distinct as u8);
    match s.top {
        Some(n) => {
            b.put_u8(1);
            b.put_u64_le(n);
        }
        None => b.put_u8(0),
    }
    match &s.targets {
        SelectTargets::Star => b.put_u8(0),
        SelectTargets::Items(items) => {
            b.put_u8(1);
            b.put_u32_le(items.len() as u32);
            for it in items {
                match &it.expr {
                    SelectExpr::Col(c) => {
                        b.put_u8(0);
                        enc_colref(b, c);
                    }
                    SelectExpr::Agg(a) => {
                        b.put_u8(1);
                        match a {
                            AggCall::CountStar => b.put_u8(0),
                            AggCall::Count(c) => {
                                b.put_u8(1);
                                enc_colref(b, c);
                            }
                            AggCall::Sum(c) => {
                                b.put_u8(2);
                                enc_colref(b, c);
                            }
                            AggCall::Avg(c) => {
                                b.put_u8(3);
                                enc_colref(b, c);
                            }
                            AggCall::Min(c) => {
                                b.put_u8(4);
                                enc_colref(b, c);
                            }
                            AggCall::Max(c) => {
                                b.put_u8(5);
                                enc_colref(b, c);
                            }
                        }
                    }
                }
                put_opt_str(b, &it.alias);
            }
        }
    }
    match &s.source {
        SelectSource::Table(t) => {
            b.put_u8(0);
            b.put_str(t);
        }
        SelectSource::Graph(p) => {
            b.put_u8(1);
            enc_comp(b, p);
        }
    }
    put_opt_expr(b, &s.where_clause);
    b.put_u32_le(s.group_by.len() as u32);
    for c in &s.group_by {
        enc_colref(b, c);
    }
    b.put_u32_le(s.order_by.len() as u32);
    for k in &s.order_by {
        enc_colref(b, &k.col);
        b.put_u8(k.desc as u8);
    }
    match &s.into {
        None => b.put_u8(0),
        Some(IntoClause::Table(n)) => {
            b.put_u8(1);
            b.put_str(n);
        }
        Some(IntoClause::Subgraph(n)) => {
            b.put_u8(2);
            b.put_str(n);
        }
    }
}

fn dec_select(buf: &mut &[u8]) -> Result<SelectStmt> {
    let distinct = get_u8(buf)? == 1;
    let top = if get_u8(buf)? == 1 {
        Some(get_u64(buf)?)
    } else {
        None
    };
    let targets = match get_u8(buf)? {
        0 => SelectTargets::Star,
        1 => {
            let n = get_u32(buf)? as usize;
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let expr = match get_u8(buf)? {
                    0 => SelectExpr::Col(dec_colref(buf)?),
                    1 => SelectExpr::Agg(match get_u8(buf)? {
                        0 => AggCall::CountStar,
                        1 => AggCall::Count(dec_colref(buf)?),
                        2 => AggCall::Sum(dec_colref(buf)?),
                        3 => AggCall::Avg(dec_colref(buf)?),
                        4 => AggCall::Min(dec_colref(buf)?),
                        5 => AggCall::Max(dec_colref(buf)?),
                        t => return Err(GraqlError::ir(format!("bad agg tag {t}"))),
                    }),
                    t => return Err(GraqlError::ir(format!("bad item tag {t}"))),
                };
                let alias = get_opt_str(buf)?;
                items.push(SelectItem { expr, alias });
            }
            SelectTargets::Items(items)
        }
        t => return Err(GraqlError::ir(format!("bad targets tag {t}"))),
    };
    let source = match get_u8(buf)? {
        0 => SelectSource::Table(get_str(buf)?),
        1 => SelectSource::Graph(dec_comp(buf)?),
        t => return Err(GraqlError::ir(format!("bad source tag {t}"))),
    };
    let where_clause = get_opt_expr(buf)?;
    let n = get_u32(buf)? as usize;
    let mut group_by = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        group_by.push(dec_colref(buf)?);
    }
    let n = get_u32(buf)? as usize;
    let mut order_by = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let col = dec_colref(buf)?;
        let desc = get_u8(buf)? == 1;
        order_by.push(OrderKey { col, desc });
    }
    let into = match get_u8(buf)? {
        0 => None,
        1 => Some(IntoClause::Table(get_str(buf)?)),
        2 => Some(IntoClause::Subgraph(get_str(buf)?)),
        t => return Err(GraqlError::ir(format!("bad into tag {t}"))),
    };
    Ok(SelectStmt {
        distinct,
        top,
        targets,
        source,
        where_clause,
        group_by,
        order_by,
        into,
        span: Span::default(),
    })
}

fn enc_colref(b: &mut Vec<u8>, c: &ColRef) {
    put_opt_str(b, &c.qualifier);
    b.put_str(&c.name);
}

fn dec_colref(buf: &mut &[u8]) -> Result<ColRef> {
    Ok(ColRef {
        qualifier: get_opt_str(buf)?,
        name: get_str(buf)?,
    })
}

// -- path compositions ----------------------------------------------------------

fn enc_comp(b: &mut Vec<u8>, c: &PathComposition) {
    match c {
        PathComposition::Single(p) => {
            b.put_u8(0);
            enc_path(b, p);
        }
        PathComposition::And(ps) => {
            b.put_u8(1);
            b.put_u32_le(ps.len() as u32);
            ps.iter().for_each(|p| enc_comp(b, p));
        }
        PathComposition::Or(ps) => {
            b.put_u8(2);
            b.put_u32_le(ps.len() as u32);
            ps.iter().for_each(|p| enc_comp(b, p));
        }
    }
}

fn dec_comp(buf: &mut &[u8]) -> Result<PathComposition> {
    Ok(match get_u8(buf)? {
        0 => PathComposition::Single(dec_path(buf)?),
        1 => {
            let n = get_u32(buf)? as usize;
            PathComposition::And((0..n).map(|_| dec_comp(buf)).collect::<Result<_>>()?)
        }
        2 => {
            let n = get_u32(buf)? as usize;
            PathComposition::Or((0..n).map(|_| dec_comp(buf)).collect::<Result<_>>()?)
        }
        t => return Err(GraqlError::ir(format!("bad composition tag {t}"))),
    })
}

fn enc_path(b: &mut Vec<u8>, p: &PathQuery) {
    enc_vstep(b, &p.head);
    b.put_u32_le(p.segments.len() as u32);
    for s in &p.segments {
        match s {
            Segment::Hop { edge, vertex } => {
                b.put_u8(0);
                enc_estep(b, edge);
                enc_vstep(b, vertex);
            }
            Segment::Group {
                hops, quant, exit, ..
            } => {
                b.put_u8(1);
                b.put_u32_le(hops.len() as u32);
                for (e, v) in hops {
                    enc_estep(b, e);
                    enc_vstep(b, v);
                }
                match quant {
                    Quant::Star => b.put_u8(0),
                    Quant::Plus => b.put_u8(1),
                    Quant::Range(a, z) => {
                        b.put_u8(2);
                        b.put_u32_le(*a);
                        b.put_u32_le(*z);
                    }
                }
                match exit {
                    Some(v) => {
                        b.put_u8(1);
                        enc_vstep(b, v);
                    }
                    None => b.put_u8(0),
                }
            }
        }
    }
}

fn dec_path(buf: &mut &[u8]) -> Result<PathQuery> {
    let head = dec_vstep(buf)?;
    let n = get_u32(buf)? as usize;
    let mut segments = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        segments.push(match get_u8(buf)? {
            0 => Segment::Hop {
                edge: dec_estep(buf)?,
                vertex: dec_vstep(buf)?,
            },
            1 => {
                let h = get_u32(buf)? as usize;
                let mut hops = Vec::with_capacity(h.min(64));
                for _ in 0..h {
                    hops.push((dec_estep(buf)?, dec_vstep(buf)?));
                }
                let quant = match get_u8(buf)? {
                    0 => Quant::Star,
                    1 => Quant::Plus,
                    2 => Quant::Range(get_u32(buf)?, get_u32(buf)?),
                    t => return Err(GraqlError::ir(format!("bad quant tag {t}"))),
                };
                let exit = if get_u8(buf)? == 1 {
                    Some(dec_vstep(buf)?)
                } else {
                    None
                };
                Segment::Group {
                    hops,
                    quant,
                    exit,
                    span: Span::default(),
                }
            }
            t => return Err(GraqlError::ir(format!("bad segment tag {t}"))),
        });
    }
    Ok(PathQuery { head, segments })
}

fn enc_label(b: &mut Vec<u8>, l: &Option<LabelDef>) {
    match l {
        None => b.put_u8(0),
        Some(l) => {
            b.put_u8(match l.kind {
                LabelKind::Set => 1,
                LabelKind::Each => 2,
            });
            b.put_str(&l.name);
        }
    }
}

fn dec_label(buf: &mut &[u8]) -> Result<Option<LabelDef>> {
    Ok(match get_u8(buf)? {
        0 => None,
        1 => Some(LabelDef {
            kind: LabelKind::Set,
            name: get_str(buf)?,
            span: Span::default(),
        }),
        2 => Some(LabelDef {
            kind: LabelKind::Each,
            name: get_str(buf)?,
            span: Span::default(),
        }),
        t => return Err(GraqlError::ir(format!("bad label tag {t}"))),
    })
}

fn enc_stepname(b: &mut Vec<u8>, n: &StepName) {
    match n {
        StepName::Any => b.put_u8(0),
        StepName::Named(s) => {
            b.put_u8(1);
            b.put_str(s);
        }
    }
}

fn dec_stepname(buf: &mut &[u8]) -> Result<StepName> {
    Ok(match get_u8(buf)? {
        0 => StepName::Any,
        1 => StepName::Named(get_str(buf)?),
        t => return Err(GraqlError::ir(format!("bad step-name tag {t}"))),
    })
}

fn enc_vstep(b: &mut Vec<u8>, v: &VertexStep) {
    enc_label(b, &v.label_def);
    put_opt_str(b, &v.seed);
    enc_stepname(b, &v.name);
    put_opt_expr(b, &v.cond);
}

fn dec_vstep(buf: &mut &[u8]) -> Result<VertexStep> {
    Ok(VertexStep {
        label_def: dec_label(buf)?,
        seed: get_opt_str(buf)?,
        name: dec_stepname(buf)?,
        cond: get_opt_expr(buf)?,
        span: Span::default(),
    })
}

fn enc_estep(b: &mut Vec<u8>, e: &EdgeStep) {
    enc_label(b, &e.label_def);
    enc_stepname(b, &e.name);
    put_opt_expr(b, &e.cond);
    b.put_u8(match e.dir {
        Dir::Out => 0,
        Dir::In => 1,
    });
}

fn dec_estep(buf: &mut &[u8]) -> Result<EdgeStep> {
    Ok(EdgeStep {
        label_def: dec_label(buf)?,
        name: dec_stepname(buf)?,
        cond: get_opt_expr(buf)?,
        span: Span::default(),
        dir: match get_u8(buf)? {
            0 => Dir::Out,
            1 => Dir::In,
            t => return Err(GraqlError::ir(format!("bad direction tag {t}"))),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graql_parser::parse_script;

    fn corpus() -> &'static str {
        "create table Products(id varchar(10), price float, n integer, d date)\n\
         create vertex ProductVtx(id) from table Products where price > 0.5\n\
         create edge subclass with vertices (TypeVtx as A, TypeVtx as B) where A.subclassOf = B.id\n\
         create edge type with vertices (ProductVtx, TypeVtx) from table ProductTypes where ProductTypes.product = ProductVtx.id\n\
         ingest table Products 'products.csv'\n\
         select y.id from graph ProductVtx(id = %Product1%) --feature--> FeatureVtx <--feature-- def y: ProductVtx(id != %Product1%) into table T1\n\
         select top 10 id, count(*) as groupCount from table T1 group by id order by groupCount desc\n\
         select * from graph A(x = 1) { --[]--> [] }{2,5} --> B(d = date '2008-01-01') into subgraph r\n\
         select * from graph (P() --e--> foreach y: Q()) and (y --f--> R()) or (S() <--g-- T())"
    }

    #[test]
    fn round_trip_corpus() {
        let script = parse_script(corpus()).unwrap();
        let blob = encode(&script);
        let back = decode(&blob).unwrap();
        assert_eq!(script, back);
    }

    #[test]
    fn header_is_checked() {
        assert!(decode(b"").is_err());
        assert!(decode(b"XXXX\x01\x00\x00\x00\x00").is_err());
        let mut blob = encode(&parse_script("select * from table T").unwrap()).to_vec();
        blob[4] = 99; // version
        assert!(decode(&blob).is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let blob = encode(&parse_script(corpus()).unwrap());
        for cut in [5, 10, blob.len() / 2, blob.len() - 1] {
            assert!(decode(&blob[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut blob = encode(&parse_script("select * from table T").unwrap()).to_vec();
        blob.push(0);
        assert!(decode(&blob).is_err());
    }

    #[test]
    fn ir_is_compact() {
        let script = parse_script(corpus()).unwrap();
        let blob = encode(&script);
        let text_len = corpus().len();
        // Not a strict requirement, but the binary IR should be in the same
        // ballpark as the source text, not an explosion.
        assert!(
            blob.len() < text_len * 3,
            "IR {} vs text {}",
            blob.len(),
            text_len
        );
    }
}
