//! The Table 3 advisor as a small CLI, with every recommendation proved
//! against the exhaustive weak-memory explorer before it is printed.
//!
//! ```sh
//! cargo run --release --example barrier_advisor            # the full table
//! cargo run --release --example barrier_advisor store load # one cell
//! ```

use armbar::prelude::*;
use armbar::wmm::litmus::table3_cell;

fn parse(s: &str) -> Option<AccessType> {
    match s.to_ascii_lowercase().as_str() {
        "load" | "ld" | "l" => Some(AccessType::Load),
        "store" | "st" | "s" => Some(AccessType::Store),
        _ => None,
    }
}

fn show_cell(from: AccessType, to: AccessType) {
    let rec = recommend(OrderReq::pair(from, to));
    println!("order {from} -> {to}:");
    println!("  rationale: {}", rec.rationale);
    for a in &rec.preferred {
        let b = match a {
            Approach::Use(b) => *b,
            Approach::MeasureAgainst { candidate, .. } => *candidate,
        };
        // An approach with no place in this litmus shape (e.g. DATA DEP
        // for load->load) is a recommendation-level alternative only.
        match table3_cell(from, to, b) {
            Some(cell) => {
                let proved = !cell.allowed(MemoryModel::ArmWmm);
                println!(
                    "  preferred: {a}  [explorer: {}]",
                    if proved { "proved" } else { "REFUTED" }
                );
                assert!(
                    proved,
                    "the advisor must never recommend an insufficient approach"
                );
            }
            None => println!("  preferred: {a}"),
        }
    }
    for a in &rec.alternatives {
        println!("  alternative: {a}");
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [from, to] => match (parse(from), parse(to)) {
            (Some(f), Some(t)) => show_cell(f, t),
            _ => eprintln!("usage: barrier_advisor [load|store] [load|store]"),
        },
        _ => {
            for from in [AccessType::Load, AccessType::Store] {
                for to in [AccessType::Load, AccessType::Store] {
                    show_cell(from, to);
                }
            }
        }
    }
}
