//! Paper-scale spot checks of the reproduced figures against the paper.
//!
//! The full `reproduce --paper` sweep replays every cell of every figure with
//! the paper's 30-seed methodology, which takes 9 minutes with 2 workers on a
//! 2-core host (`figures/README.md`). This binary instead re-measures a
//! *representative subset* of cells at the paper's population and area (150
//! nodes, 25 km² for random waypoint; 15 nodes on the campus map for city
//! section) with a reduced seed count — the `figures/*.spot.toml` files —
//! and prints them side by side with the values the paper reports. Its
//! output is the only paper-figure comparison the repository has: no
//! checked-in `EXPERIMENTS.md` exists yet (generating one from these tables
//! is ROADMAP item 5(c)).
//!
//! Run with: `cargo run --release -p bench --bin validate` (it takes no
//! arguments; any argument is a usage error, exit 2).

use manet_sim::{compile_path, run_matrix};

/// Where the figure files live.
const FIGURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../figures");

/// Each spot check: its file under `figures/`, its heading, and what the
/// paper reports for it.
const SPOT_CHECKS: [(&str, &str, &str); 4] = [
    (
        "fig11.spot.toml",
        "## Fig. 11 spot checks (150 nodes, 25 km2, 80% subscribers, 5 seeds)",
        "Paper reference points: 10 m/s with 180 s validity ~= 0.95; 30 m/s with 90 s validity ~= 0.95.",
    ),
    (
        "fig13.spot.toml",
        "## Fig. 13 spot checks (15 cars, campus map, all publishers, 5 seeds)",
        "Paper reference: 76.9% / 75.1% / 65.5% / 69.9% / 54.0% for 1-5 s.",
    ),
    (
        "fig16.spot.toml",
        "## Fig. 16 spot checks (15 cars, campus map, all publishers, 5 seeds)",
        "Paper reference: 11% at 25 s, 44% at 75 s, 77% at 150 s.",
    ),
    (
        "frugality.spot.toml",
        "## Fig. 17-20 spot checks (150 nodes, 10 m/s, 10 events, 60% subscribers, 2 seeds)",
        "Paper reference: frugal saves 300-450% of the bandwidth, sends 50-100x fewer events,\n\
         receives 70-100x fewer duplicates and 50-90x fewer parasites than the flooding variants.",
    ),
];

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("validate takes no arguments, got {arg:?}");
        std::process::exit(2);
    }
    let t0 = std::time::Instant::now();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# Paper-scale spot checks (reduced seed count)\n");
    for (file, heading, reference) in SPOT_CHECKS {
        let path = format!("{FIGURES}/{file}");
        let tables = compile_path(&path, &[])
            .map_err(|err| err.to_string())
            .and_then(|matrix| run_matrix(&matrix, workers, 1).map_err(|err| err.to_string()));
        match tables {
            Ok(tables) => {
                println!("{heading}\n");
                for table in tables {
                    println!("{}", table.to_markdown());
                }
                println!("{reference}\n");
            }
            Err(err) => eprintln!("{path}: spot check failed: {err}"),
        }
        eprintln!("[{file} done after {:.0?}]", t0.elapsed());
    }
}
