//! Catalog statistics over the graph (paper §III-B): instance counts and
//! degree-distribution properties per type, feeding the query planner's
//! traversal-order decisions.

use crate::graph::{ETypeId, Graph, VTypeId};

/// Statistics for one vertex type.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexTypeStats {
    pub vtype: VTypeId,
    pub count: usize,
}

/// Statistics for one edge type: counts, mean/max degrees, and log₂
/// degree histograms in both directions ("statistical properties of the
/// degree distribution of a vertex type with respect to an edge type" —
/// §III-B).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeTypeStats {
    pub etype: ETypeId,
    pub count: usize,
    pub mean_out_degree: f64,
    pub mean_in_degree: f64,
    pub max_out_degree: usize,
    pub max_in_degree: usize,
    /// `out_degree_histogram[b]` = number of source vertices whose
    /// out-degree `d` satisfies `b == bucket(d)` where bucket(0) = 0 and
    /// bucket(d) = ⌊log₂ d⌋ + 1 for d ≥ 1 (buckets: 0, 1, 2–3, 4–7, …).
    pub out_degree_histogram: Vec<usize>,
    /// Same for in-degrees over target vertices.
    pub in_degree_histogram: Vec<usize>,
}

/// Log₂ bucket index of a degree (0 → 0; d ≥ 1 → ⌊log₂ d⌋ + 1).
pub fn degree_bucket(d: usize) -> usize {
    if d == 0 {
        0
    } else {
        (usize::BITS - d.leading_zeros()) as usize
    }
}

fn histogram(degrees: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut h = Vec::new();
    for d in degrees {
        let b = degree_bucket(d);
        if b >= h.len() {
            h.resize(b + 1, 0);
        }
        h[b] += 1;
    }
    h
}

/// Whole-graph statistics snapshot.
#[derive(Debug, Clone, Default)]
pub struct GraphStats {
    pub vertices: Vec<VertexTypeStats>,
    pub edges: Vec<EdgeTypeStats>,
}

impl GraphStats {
    /// Computes statistics for every type, one edge type after another.
    /// Degree scans are the expensive part.
    pub fn compute(g: &Graph) -> GraphStats {
        let vertices = g
            .vtype_ids()
            .map(|vt| VertexTypeStats {
                vtype: vt,
                count: g.vset(vt).len(),
            })
            .collect();
        let edges = g
            .etype_ids()
            .map(|et| {
                let es = g.eset(et);
                let idx = g.edge_index(et);
                let n_src = g.vset(es.src_type).len();
                let n_tgt = g.vset(es.tgt_type).len();
                EdgeTypeStats {
                    etype: et,
                    count: es.len(),
                    mean_out_degree: if n_src == 0 {
                        0.0
                    } else {
                        es.len() as f64 / n_src as f64
                    },
                    mean_in_degree: if n_tgt == 0 {
                        0.0
                    } else {
                        es.len() as f64 / n_tgt as f64
                    },
                    max_out_degree: idx.fwd.max_degree(),
                    max_in_degree: idx.rev.max_degree(),
                    out_degree_histogram: histogram((0..n_src as u32).map(|v| idx.fwd.degree(v))),
                    in_degree_histogram: histogram((0..n_tgt as u32).map(|v| idx.rev.degree(v))),
                }
            })
            .collect();
        GraphStats { vertices, edges }
    }

    pub fn vertex(&self, vt: VTypeId) -> &VertexTypeStats {
        &self.vertices[vt.0 as usize]
    }

    pub fn edge(&self, et: ETypeId) -> &EdgeTypeStats {
        &self.edges[et.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_set::EdgeSet;
    use crate::vertex_set::VertexSet;
    use graql_table::{Table, TableSchema};
    use graql_types::{DataType, Value};

    #[test]
    fn degree_statistics() {
        let mut g = Graph::new();
        let schema = TableSchema::of(&[("id", DataType::Integer)]);
        let t = Table::from_rows(schema, (0..4i64).map(|i| vec![Value::Int(i)])).unwrap();
        let a = g
            .add_vertex_type(VertexSet::build("A", "t", &t, vec![0], None).unwrap())
            .unwrap();
        // 0 has out-degree 3; 1 has in-degree 2.
        g.add_edge_type(EdgeSet::from_pairs(
            "e",
            a,
            a,
            vec![(0, 1), (0, 2), (0, 3), (2, 1)],
        ))
        .unwrap();
        let stats = GraphStats::compute(&g);
        assert_eq!(stats.vertex(a).count, 4);
        let es = stats.edge(g.etype("e").unwrap());
        assert_eq!(es.count, 4);
        assert_eq!(es.max_out_degree, 3);
        assert_eq!(es.max_in_degree, 2);
        assert!((es.mean_out_degree - 1.0).abs() < 1e-12);
        assert!((es.mean_in_degree - 1.0).abs() < 1e-12);
        // Out-degrees: [3, 0, 1, 0] → buckets: 0→{1,3}, 1→{2}, 2 (2–3)→{0}.
        assert_eq!(es.out_degree_histogram, vec![2, 1, 1]);
        // In-degrees: [0, 2, 1, 1] → 0→{0}, 1→{2,3}, 2→{1}.
        assert_eq!(es.in_degree_histogram, vec![1, 2, 1]);
        // Histogram mass equals vertex count.
        assert_eq!(es.out_degree_histogram.iter().sum::<usize>(), 4);
    }

    #[test]
    fn degree_buckets() {
        assert_eq!(degree_bucket(0), 0);
        assert_eq!(degree_bucket(1), 1);
        assert_eq!(degree_bucket(2), 2);
        assert_eq!(degree_bucket(3), 2);
        assert_eq!(degree_bucket(4), 3);
        assert_eq!(degree_bucket(7), 3);
        assert_eq!(degree_bucket(8), 4);
    }

    #[test]
    fn empty_graph_stats() {
        let stats = GraphStats::compute(&Graph::new());
        assert!(stats.vertices.is_empty());
        assert!(stats.edges.is_empty());
    }
}
