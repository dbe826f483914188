//! The paper, end to end: generates a Berlin (BSBM) dataset, declares the
//! Appendix-A schema and Fig. 2/3/4 graph views, and runs every figure's
//! query — Berlin Q1 and Q2, variant steps, path regexes, subgraph
//! capture, seeding, and graph-results-as-tables.
//!
//! ```sh
//! cargo run --release --example berlin [-- <products>]
//! ```

use graql::bsbm::{self, queries, Scale};
use graql::prelude::*;

fn main() -> Result<()> {
    let products: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(500);
    println!("=== building Berlin dataset: {products} products ===");
    let scale = Scale::new(products);
    let mut db = bsbm::build_database(scale)?;
    {
        let g = db.graph()?;
        println!(
            "loaded: {} vertices across {} types, {} edges across {} types\n",
            g.n_vertices(),
            g.n_vertex_types(),
            g.n_edges(),
            g.n_edge_types()
        );
    }

    db.set_param("Product1", Value::str("product0"));

    println!("=== Berlin Q2 (Fig. 6): top products sharing features with product0 ===");
    let outs = db.execute_script(queries::q2())?;
    if let StmtOutput::Table(t) = outs.into_iter().last().unwrap() {
        println!("{}", t.render());
    }

    // Q1 needs a (producer country, reviewer country) pair that actually
    // co-occurs; probe a few combinations and keep the first non-empty.
    let mut c1 = "US".to_string();
    let mut c2 = "DE".to_string();
    'probe: for a in graql::bsbm::gen::COUNTRIES {
        for b in graql::bsbm::gen::COUNTRIES {
            db.set_param("Country1", Value::str(*a));
            db.set_param("Country2", Value::str(*b));
            let outs = db.execute_script(queries::q1())?;
            if let Some(StmtOutput::Table(t)) = outs.last() {
                if t.n_rows() > 0 {
                    c1 = a.to_string();
                    c2 = b.to_string();
                    break 'probe;
                }
            }
        }
    }
    db.set_param("Country1", Value::str(&c1));
    db.set_param("Country2", Value::str(&c2));
    println!("=== Berlin Q1 (Fig. 7): top categories of {c1} products reviewed from {c2} ===");
    let outs = db.execute_script(queries::q1())?;
    if let StmtOutput::Table(t) = outs.into_iter().last().unwrap() {
        println!("{}", t.render());
    }

    println!("=== Fig. 9: subgraph of all reviews and offers of product0 ===");
    db.execute_script(queries::fig9())?;
    print_subgraph(&mut db, "resultsF9")?;

    println!("\n=== Fig. 10: regex over the subclass hierarchy (type ancestors) ===");
    db.execute_script(queries::fig10())?;
    print_subgraph(&mut db, "resultsF10")?;

    println!("\n=== Fig. 11: full vs endpoint subgraph capture ===");
    let (full, endpoints) = queries::fig11();
    db.execute_script(full)?;
    db.execute_script(endpoints)?;
    print_subgraph(&mut db, "resultsG")?;
    print_subgraph(&mut db, "resultsBE")?;

    println!("\n=== Fig. 12: seeding a query from a prior result ===");
    db.execute_script(queries::fig12())?;
    print_subgraph(&mut db, "resQ2")?;

    println!("\n=== Fig. 13: a matching subgraph as a table (first 5 rows) ===");
    db.execute_script(queries::fig13())?;
    if let Some(t) = db.result_table("resultsT") {
        let head = graql::table::ops::top_n(t, 5, &Default::default());
        println!("{} rows total; head:\n{}", t.n_rows(), head.render());
    }

    println!("=== Fig. 4/5: many-to-one country graph ===");
    let out = db.execute_str(
        "select PC.country as from_country, VC.country as to_country from graph \
         def PC: ProducerCountry() --export--> def VC: VendorCountry()",
    )?;
    if let StmtOutput::Table(t) = out {
        println!("{} export country pairs; head:", t.n_rows());
        println!(
            "{}",
            graql::table::ops::top_n(&t, 5, &Default::default()).render()
        );
    }
    Ok(())
}

fn print_subgraph(db: &mut Database, name: &str) -> Result<()> {
    db.graph()?;
    let g = db.graph_ref().expect("built");
    if let Some(sg) = db.result_subgraph(name) {
        println!("{name}: {}", sg.summary(g));
    }
    Ok(())
}
