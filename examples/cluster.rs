//! The GEMS backend cluster (paper §III): profiles the Berlin Q2 graph
//! phase across increasing node counts and prints the communication
//! volume — the distribution cost the paper's in-memory cluster design
//! reasons about.
//!
//! ```sh
//! cargo run --release --example cluster [-- <products>]
//! ```

use graql::cluster::comm_profile;
use graql::parser::ast::{PathComposition, SelectSource, Stmt};
use graql::prelude::*;

fn main() -> Result<()> {
    let products: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(500);
    let mut db = graql::bsbm::build_database(graql::bsbm::Scale::new(products))?;
    db.set_param("Product1", Value::str("product0"));
    db.graph()?;
    println!(
        "Berlin dataset: {products} products, {} vertices, {} edges\n",
        db.graph_ref().unwrap().n_vertices(),
        db.graph_ref().unwrap().n_edges()
    );

    // The Q2 graph phase as a standalone path query.
    let src = "select y.id from graph \
               ProductVtx (id = %Product1%) --feature--> FeatureVtx() \
               <--feature-- def y: ProductVtx (id != %Product1%) into table T";
    let Stmt::Select(sel) = graql::parser::parse_statement(src)? else {
        unreachable!()
    };
    let SelectSource::Graph(PathComposition::Single(path)) = sel.source else {
        unreachable!()
    };

    println!(
        "{:>5} | {:>9} | {:>10} | {:>8} | {:>9} | {:>12}",
        "nodes", "bindings", "supersteps", "messages", "bytes", "remote ratio"
    );
    println!("{}", "-".repeat(70));
    for nodes in [1usize, 2, 4, 8, 16] {
        let result = comm_profile(&db, &path, nodes)?;
        println!(
            "{:>5} | {:>9} | {:>10} | {:>8} | {:>9} | {:>12.3}",
            nodes,
            result.bindings.len(),
            result.metrics.supersteps(),
            result.metrics.total_messages(),
            result.metrics.total_bytes(),
            result.metrics.remote_ratio(),
        );
    }

    println!("\nThe remote ratio approaches (n-1)/n as the hash partition spreads vertices.");
    Ok(())
}
