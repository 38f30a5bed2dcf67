//! Paper-scale spot checks of the reproduced figures against the paper.
//!
//! The full `reproduce --paper` sweep replays every cell of every figure with
//! the paper's 30-seed methodology and takes hours. This binary instead
//! re-measures a *representative subset* of cells at the paper's population and
//! area (150 nodes, 25 km² for random waypoint; 15 nodes on the campus map for
//! city section) with a reduced seed count, and prints them side by side with
//! the values the paper reports. Its output is the only paper-figure
//! comparison the repository has: no checked-in `EXPERIMENTS.md` exists yet
//! (generating one from these tables is ROADMAP item 5(c)).
//!
//! Run with: `cargo run --release -p bench --bin validate` (it takes no
//! arguments; any argument is a usage error, exit 2).

use manet_sim::experiments::city::{fig13, fig16, CityConfig};
use manet_sim::experiments::fig11::{self, Fig11Config};
use manet_sim::experiments::frugality::{self, FrugalityConfig};
use manet_sim::experiments::Effort;
use manet_sim::SeedPlan;
use simkit::SimDuration;

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("validate takes no arguments, got {arg:?}");
        std::process::exit(2);
    }
    let t0 = std::time::Instant::now();
    println!("# Paper-scale spot checks (reduced seed count)\n");

    // ------------------------------------------------------------------
    // Fig. 11 — random waypoint reliability, 80 % subscribers.
    // Paper: 10 m/s + 180 s validity => ~95 % reliability; 30 m/s + 90 s => ~95 %.
    // ------------------------------------------------------------------
    let config = Fig11Config {
        speeds: vec![10.0, 30.0],
        validities: vec![SimDuration::from_secs(90), SimDuration::from_secs(180)],
        subscriber_fractions: vec![0.8],
        seeds: SeedPlan::new(1, 5),
        effort: Effort::Paper,
    };
    match fig11::run(&config) {
        Ok(tables) => {
            println!("## Fig. 11 spot checks (150 nodes, 25 km2, 80% subscribers, 5 seeds)\n");
            println!("{}", tables[0].to_markdown());
            println!(
                "Paper reference points: 10 m/s with 180 s validity ~= 0.95; 30 m/s with 90 s validity ~= 0.95.\n"
            );
        }
        Err(err) => eprintln!("fig11 spot check failed: {err}"),
    }
    eprintln!("[fig11 done after {:.0?}]", t0.elapsed());

    // ------------------------------------------------------------------
    // Fig. 13 / 16 — city section at full methodology but 5 seeds.
    // ------------------------------------------------------------------
    let mut city = CityConfig::paper();
    city.seeds = SeedPlan::new(1, 5);
    match fig13(&city) {
        Ok(table) => {
            println!("## Fig. 13 spot checks (15 cars, campus map, all publishers, 5 seeds)\n");
            println!("{}", table.to_markdown());
            println!("Paper reference: 76.9% / 75.1% / 65.5% / 69.9% / 54.0% for 1-5 s.\n");
        }
        Err(err) => eprintln!("fig13 spot check failed: {err}"),
    }
    eprintln!("[fig13 done after {:.0?}]", t0.elapsed());

    let mut city16 = CityConfig::paper();
    city16.seeds = SeedPlan::new(1, 5);
    city16.validities = vec![
        SimDuration::from_secs(25),
        SimDuration::from_secs(75),
        SimDuration::from_secs(150),
    ];
    match fig16(&city16) {
        Ok(table) => {
            println!("## Fig. 16 spot checks (15 cars, campus map, all publishers, 5 seeds)\n");
            println!("{}", table.to_markdown());
            println!("Paper reference: 11% at 25 s, 44% at 75 s, 77% at 150 s.\n");
        }
        Err(err) => eprintln!("fig16 spot check failed: {err}"),
    }
    eprintln!("[fig16 done after {:.0?}]", t0.elapsed());

    // ------------------------------------------------------------------
    // Fig. 17-20 — one paper-scale cell of the frugality comparison.
    // ------------------------------------------------------------------
    let frugality_config = FrugalityConfig {
        subscriber_fractions: vec![0.6],
        event_counts: vec![10],
        protocols: FrugalityConfig::all_protocols(),
        seeds: SeedPlan::new(1, 2),
        effort: Effort::Paper,
        measurement: SimDuration::from_secs(180),
    };
    match frugality::run(&frugality_config) {
        Ok(tables) => {
            println!("## Fig. 17-20 spot checks (150 nodes, 10 m/s, 10 events, 60% subscribers, 2 seeds)\n");
            println!("{}", tables.bandwidth_kb.to_markdown());
            println!("{}", tables.events_sent.to_markdown());
            println!("{}", tables.duplicates.to_markdown());
            println!("{}", tables.parasites.to_markdown());
            println!(
                "Paper reference: frugal saves 300-450% of the bandwidth, sends 50-100x fewer events,\n\
                 receives 70-100x fewer duplicates and 50-90x fewer parasites than the flooding variants.\n"
            );
        }
        Err(err) => eprintln!("frugality spot check failed: {err}"),
    }
    eprintln!("[all spot checks done after {:.0?}]", t0.elapsed());
}
