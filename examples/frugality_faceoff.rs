//! Frugality face-off: the frugal protocol against the three flooding variants.
//!
//! Runs the comparison behind the paper's Figures 17–20 — the figure file
//! `figures/frugality.quick.toml` — and prints the four tables (bandwidth,
//! events sent, duplicates, parasites) plus the headline ratios. Pass
//! `--paper` for `figures/frugality.toml`, the full 150-node, 30-seed sweep.
//!
//! Run with: `cargo run --release --example frugality_faceoff [-- --paper]`

use manet_sim::{compile_path, run_matrix};

fn main() {
    let paper_scale = std::env::args().any(|a| a == "--paper");
    let file = if paper_scale {
        println!("Running the full paper sweep (150 nodes, 30 seeds) — this takes a while.\n");
        "frugality.toml"
    } else {
        println!("Running the reduced smoke-test sweep (pass --paper for the full one).\n");
        "frugality.quick.toml"
    };
    let path = format!("{}/figures/{file}", env!("CARGO_MANIFEST_DIR"));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tables = compile_path(&path, &[])
        .map_err(|err| err.to_string())
        .and_then(|matrix| run_matrix(&matrix, workers, 1).map_err(|err| err.to_string()));
    let Ok([bandwidth_kb, events_sent, duplicates, parasites]) = tables.as_deref() else {
        eprintln!("{path}: no four tables of Figs. 17-20: {:?}", tables.err());
        return;
    };
    for table in [bandwidth_kb, events_sent, duplicates, parasites] {
        println!("{}", table.to_markdown());
    }
    println!(
        "(Fig. 20 note: at 100% interest every process subscribes to the measured\n\
         topic, so parasite events are structurally impossible and those rows are\n\
         exactly zero — they are not a rounding artifact.)\n"
    );

    // Headline ratios. The paper's frugality claims (50-100x fewer events
    // sent, 50-90x fewer parasites) are about sparse interest, where flooding
    // wastes the most — so quote them on the lowest-interest, most-events row.
    // The bandwidth claim (3x-4.5x) covers the whole sweep; quote it on the
    // densest row, where it is at its most conservative.
    let sparse = headline_row(events_sent, RowChoice::SparsestInterest);
    let dense = headline_row(events_sent, RowChoice::DensestInterest);
    if let (Some(sparse), Some(dense)) = (sparse, dense) {
        let frugal_sent = events_sent.value(&sparse, "frugal").unwrap_or(0.0);
        let flood_sent = events_sent.value(&sparse, "simple-flooding").unwrap_or(0.0);
        let frugal_dup = duplicates.value(&sparse, "frugal").unwrap_or(0.0);
        let flood_dup = duplicates
            .value(&sparse, "interests-aware-flooding")
            .unwrap_or(0.0);
        let frugal_par = parasites.value(&sparse, "frugal").unwrap_or(0.0);
        let flood_par = parasites.value(&sparse, "simple-flooding").unwrap_or(0.0);
        let frugal_bw = bandwidth_kb.value(&dense, "frugal").unwrap_or(0.0);
        let flood_bw = bandwidth_kb.value(&dense, "simple-flooding").unwrap_or(0.0);
        println!("Headline ratios (\"{sparse}\" for frugality, \"{dense}\" for bandwidth):");
        println!(
            "  events sent:  flooding / frugal = {:.0}x   (paper: 50-100x)",
            flood_sent / frugal_sent.max(1e-9)
        );
        println!(
            "  duplicates:   best flooding / frugal = {:.0}x (paper: 50-80x vs interests-aware)",
            flood_dup / frugal_dup.max(1.0)
        );
        println!(
            "  parasites:    flooding / frugal = {:.0}x   (paper: 50-90x)",
            flood_par / frugal_par.max(1.0)
        );
        println!(
            "  bandwidth:    simple flooding / frugal = {:.1}x (paper: 3x-4.5x)",
            flood_bw / frugal_bw.max(1e-9)
        );
    }
}

enum RowChoice {
    /// Lowest subscriber fraction, then most events: where flooding wastes most.
    SparsestInterest,
    /// Highest subscriber fraction, then most events: the most loaded network.
    DensestInterest,
}

/// Picks the headline row among labels of the form `"{events} events / {pct}%"`.
/// Falls back to the last row if no label parses, so the headline block is
/// never silently dropped when the label format drifts.
fn headline_row(table: &manet_sim::DataTable, choice: RowChoice) -> Option<String> {
    table
        .rows()
        .iter()
        .filter_map(|(label, _)| {
            let (events, rest) = label.split_once(" events / ")?;
            let events: u64 = events.trim().parse().ok()?;
            let pct: u64 = rest.trim().strip_suffix('%')?.parse().ok()?;
            Some((label.clone(), events, pct))
        })
        .max_by_key(|&(_, events, pct)| match choice {
            RowChoice::SparsestInterest => (u64::MAX - pct, events),
            RowChoice::DensestInterest => (pct, events),
        })
        .map(|(label, _, _)| label)
        .or_else(|| table.rows().last().map(|(label, _)| label.clone()))
}
