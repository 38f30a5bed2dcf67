//! Regenerates the tables behind every figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin reproduce -- [EXPERIMENT] [--paper] [--csv]
//! cargo run --release -p bench --bin reproduce -- --scenario FILE.toml \
//!     [--sweep param=v1,v2]... [--seeds N] [--first-seed N] \
//!     [--workers N] [--shards N|auto] [--verbose] [--csv]
//! ```
//!
//! `EXPERIMENT` is one of `fig11`, `fig12`, `fig13`, `fig14`, `fig15`, `fig16`,
//! `fig17`, `fig18`, `fig19`, `fig20`, `frugality` (= fig17–20 in one sweep),
//! `ablation`, or `all` (the default). Without `--paper` the reduced smoke
//! configurations are used (seconds to minutes); with `--paper` the paper's
//! full methodology runs (150 nodes, 30 seeds — hours). `--csv` prints CSV
//! instead of Markdown. Any other flag, or a second experiment, is a usage
//! error (exit 2).
//!
//! `--scenario` switches to the declarative path: the TOML file is compiled
//! into an experiment matrix (see `manet_sim::scenario_compile` for the
//! schema and `examples/*.toml` for worked files), every point runs through
//! the sharded multi-seed runner, and one table is printed with a row per
//! matrix point. `--sweep param=v1,v2` adds a sweep axis from the command
//! line (repeatable; overrides a file axis sweeping the same parameter), and
//! `--seeds` / `--first-seed` override the file's `[seeds]` section.
//! `--shards` defaults to 1, the serial loop: on a 2-core host the
//! repository benchmark measured two shards slower than one on every
//! workload. `--shards auto` splits `available_parallelism()` across the
//! seed workers (the header echoes the resolved count and the split);
//! `--verbose` prints the sharded engine's debug counters — widened windows,
//! fused batches, repartition passes — after each matrix point.

use manet_sim::experiments::{ablation, city, fig11, fig12, frugality};
use manet_sim::{
    compile_path, run_scenario_reports_sharded_with_stats, DataTable, ExperimentPoint, SweepAxis,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Quick,
    Paper,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Markdown,
    Csv,
}

fn print_table(table: &DataTable, format: Format) {
    match format {
        Format::Markdown => println!("{}", table.to_markdown()),
        Format::Csv => {
            println!("# {}", table.title());
            println!("{}", table.to_csv());
        }
    }
}

fn run_fig11(scale: Scale, format: Format) {
    let config = match scale {
        Scale::Paper => fig11::Fig11Config::paper(),
        Scale::Quick => fig11::Fig11Config::quick(),
    };
    match fig11::run(&config) {
        Ok(tables) => tables.iter().for_each(|t| print_table(t, format)),
        Err(err) => eprintln!("fig11 failed: {err}"),
    }
}

fn run_fig12(scale: Scale, format: Format) {
    let config = match scale {
        Scale::Paper => fig12::Fig12Config::paper(),
        Scale::Quick => fig12::Fig12Config::quick(),
    };
    match fig12::run(&config) {
        Ok(table) => print_table(&table, format),
        Err(err) => eprintln!("fig12 failed: {err}"),
    }
}

fn city_config(scale: Scale) -> city::CityConfig {
    match scale {
        Scale::Paper => city::CityConfig::paper(),
        Scale::Quick => city::CityConfig::quick(),
    }
}

fn run_fig13(scale: Scale, format: Format) {
    match city::fig13(&city_config(scale)) {
        Ok(table) => print_table(&table, format),
        Err(err) => eprintln!("fig13 failed: {err}"),
    }
}

fn run_fig14_15(scale: Scale, format: Format, want14: bool, want15: bool) {
    match city::fig14_15(&city_config(scale)) {
        Ok((fig14, fig15)) => {
            if want14 {
                print_table(&fig14, format);
            }
            if want15 {
                print_table(&fig15, format);
            }
        }
        Err(err) => eprintln!("fig14/15 failed: {err}"),
    }
}

fn run_fig16(scale: Scale, format: Format) {
    match city::fig16(&city_config(scale)) {
        Ok(table) => print_table(&table, format),
        Err(err) => eprintln!("fig16 failed: {err}"),
    }
}

fn run_frugality(scale: Scale, format: Format, figures: &[u8]) {
    let config = match scale {
        Scale::Paper => frugality::FrugalityConfig::paper(),
        Scale::Quick => frugality::FrugalityConfig::quick(),
    };
    match frugality::run(&config) {
        Ok(tables) => {
            if figures.contains(&17) {
                print_table(&tables.bandwidth_kb, format);
            }
            if figures.contains(&18) {
                print_table(&tables.events_sent, format);
            }
            if figures.contains(&19) {
                print_table(&tables.duplicates, format);
            }
            if figures.contains(&20) {
                print_table(&tables.parasites, format);
            }
        }
        Err(err) => eprintln!("frugality comparison failed: {err}"),
    }
}

fn run_ablation(scale: Scale, format: Format) {
    let config = match scale {
        Scale::Paper => ablation::AblationConfig::paper(),
        Scale::Quick => ablation::AblationConfig::quick(),
    };
    match ablation::run(&config) {
        Ok(table) => print_table(&table, format),
        Err(err) => eprintln!("ablation failed: {err}"),
    }
}

/// Options of the `--scenario` mode, collected from the command line.
#[derive(Debug)]
struct ScenarioArgs {
    path: String,
    sweeps: Vec<SweepAxis>,
    seeds: Option<u64>,
    first_seed: Option<u64>,
    workers: usize,
    shards: ShardCount,
    verbose: bool,
}

/// The `--shards` flag: an explicit count (default 1), or `auto`, which
/// gives each seed worker an equal slice of `available_parallelism()` —
/// `workers × shards ≈ cores`, the split the sharded runner documents.
#[derive(Debug, Clone, Copy)]
enum ShardCount {
    Auto,
    Fixed(usize),
}

impl ShardCount {
    fn resolve(self, workers: usize) -> usize {
        match self {
            ShardCount::Fixed(shards) => shards,
            ShardCount::Auto => (cores() / workers).max(1),
        }
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Reports a malformed command line and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Parses the arguments that follow `--scenario`. Exits with a diagnostic on
/// a malformed flag, mirroring the unknown-experiment path.
fn parse_scenario_args(args: &[String]) -> ScenarioArgs {
    fn value_of<'a>(args: &'a [String], index: usize, flag: &str) -> &'a str {
        args.get(index + 1)
            .map(String::as_str)
            .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
    }
    fn numeric<T: std::str::FromStr>(text: &str, flag: &str) -> T {
        text.parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag}: `{text}` is not a valid value")))
    }
    /// A count that must be at least 1; `zero` says why.
    fn positive(text: &str, flag: &str, zero: &str) -> usize {
        match numeric(text, flag) {
            0 => usage_error(&format!("{flag}: {zero}")),
            count => count,
        }
    }
    let mut options = ScenarioArgs {
        path: String::new(),
        sweeps: Vec::new(),
        seeds: None,
        first_seed: None,
        workers: cores(),
        shards: ShardCount::Fixed(1),
        verbose: false,
    };
    let mut index = 0;
    while index < args.len() {
        match args[index].as_str() {
            "--scenario" => {
                options.path = value_of(args, index, "--scenario").to_owned();
                index += 2;
            }
            "--sweep" => {
                let spec = value_of(args, index, "--sweep");
                match spec.parse::<SweepAxis>() {
                    Ok(axis) => options.sweeps.push(axis),
                    Err(err) => usage_error(&format!("--sweep: {err}")),
                }
                index += 2;
            }
            "--seeds" => {
                // A table of zeros would read as a measurement.
                let runs = positive(
                    value_of(args, index, "--seeds"),
                    "--seeds",
                    "a seed plan needs at least 1 run",
                );
                options.seeds = Some(runs as u64);
                index += 2;
            }
            "--first-seed" => {
                options.first_seed = Some(numeric(
                    value_of(args, index, "--first-seed"),
                    "--first-seed",
                ));
                index += 2;
            }
            "--workers" => {
                options.workers = positive(
                    value_of(args, index, "--workers"),
                    "--workers",
                    "a run needs at least 1 worker",
                );
                index += 2;
            }
            "--shards" => {
                let value = value_of(args, index, "--shards");
                options.shards = if value == "auto" {
                    ShardCount::Auto
                } else {
                    ShardCount::Fixed(positive(
                        value,
                        "--shards",
                        "a world needs at least 1 shard",
                    ))
                };
                index += 2;
            }
            "--verbose" => {
                options.verbose = true;
                index += 1;
            }
            "--csv" | "--paper" => index += 1,
            other => usage_error(&format!("unknown flag {other:?} in --scenario mode")),
        }
    }
    options
}

/// Parses figure mode's arguments: at most one experiment name (default
/// `all`) plus `--paper` and `--csv`.
fn parse_experiment(args: &[String]) -> String {
    let mut experiment = None;
    for arg in args {
        match arg.as_str() {
            "--paper" | "--csv" => {}
            flag if flag.starts_with("--") => usage_error(&format!(
                "unknown flag {flag:?}; expected --paper, --csv or --scenario"
            )),
            name if experiment.is_none() => experiment = Some(name.to_lowercase()),
            extra => usage_error(&format!(
                "unexpected argument {extra:?}: one experiment per run"
            )),
        }
    }
    experiment.unwrap_or_else(|| "all".to_owned())
}

/// Compiles and runs a scenario file, printing one table with a row per
/// matrix point.
fn run_scenario_file(options: &ScenarioArgs, format: Format) {
    let matrix = match compile_path(&options.path, &options.sweeps) {
        Ok(matrix) => matrix,
        Err(err) => {
            eprintln!("{}: {err}", options.path);
            std::process::exit(1);
        }
    };
    let mut plan = matrix.seeds;
    if let Some(first) = options.first_seed {
        plan.first_seed = first;
    }
    if let Some(runs) = options.seeds {
        plan.runs = runs;
    }
    let shards = options.shards.resolve(options.workers);
    let shards_note = match options.shards {
        ShardCount::Auto => format!(
            " [auto: {} core(s) / {} worker(s)]",
            cores(),
            options.workers
        ),
        ShardCount::Fixed(_) => String::new(),
    };
    eprintln!(
        "# {}: {} matrix point(s), {} seed(s) each, {} worker(s), {} shard(s){}",
        matrix.label,
        matrix.points.len(),
        plan.runs,
        options.workers,
        shards,
        shards_note
    );
    let mut table = DataTable::new(
        format!("Scenario `{}` ({})", matrix.label, options.path),
        "point",
        vec![
            "reliability".into(),
            "ci95".into(),
            "events sent".into(),
            "duplicates/process".into(),
            "parasites/process".into(),
            "bandwidth [kB/process]".into(),
        ],
    );
    for point in &matrix.points {
        let (reports, stats) = match run_scenario_reports_sharded_with_stats(
            &point.scenario,
            plan,
            options.workers,
            shards,
        ) {
            Ok(outcome) => outcome,
            Err(err) => {
                eprintln!("{}: point `{}` failed: {err}", options.path, point.label);
                std::process::exit(1);
            }
        };
        if options.verbose {
            eprintln!(
                "# point `{}`: windows_widened={} batches_fused={} repartitions={} \
                 classify_fanouts={} (summed over {} seed(s))",
                point.label,
                stats.windows_widened,
                stats.batches_fused,
                stats.repartitions,
                stats.classify_fanouts,
                reports.len()
            );
        }
        let mut aggregate = ExperimentPoint::new();
        for report in &reports {
            aggregate.add(report);
        }
        table.push_row(
            point.label.clone(),
            vec![
                aggregate.reliability().mean,
                aggregate.reliability().ci95_half_width(),
                aggregate.events_sent().mean,
                aggregate.duplicates().mean,
                aggregate.parasites().mean,
                aggregate.bandwidth_kb().mean,
            ],
        );
    }
    print_table(&table, format);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--paper") {
        Scale::Paper
    } else {
        Scale::Quick
    };
    let format = if args.iter().any(|a| a == "--csv") {
        Format::Csv
    } else {
        Format::Markdown
    };
    if args.iter().any(|a| a == "--scenario") {
        let options = parse_scenario_args(&args);
        run_scenario_file(&options, format);
        return;
    }
    let experiment = parse_experiment(&args);

    if scale == Scale::Quick {
        eprintln!(
            "# Running at smoke-test scale (reduced population, seeds and durations).\n\
             # Pass --paper for the full Section 5.1 methodology (much slower).\n"
        );
    }

    match experiment.as_str() {
        "fig11" => run_fig11(scale, format),
        "fig12" => run_fig12(scale, format),
        "fig13" => run_fig13(scale, format),
        "fig14" => run_fig14_15(scale, format, true, false),
        "fig15" => run_fig14_15(scale, format, false, true),
        "fig16" => run_fig16(scale, format),
        "fig17" => run_frugality(scale, format, &[17]),
        "fig18" => run_frugality(scale, format, &[18]),
        "fig19" => run_frugality(scale, format, &[19]),
        "fig20" => run_frugality(scale, format, &[20]),
        "frugality" => run_frugality(scale, format, &[17, 18, 19, 20]),
        "ablation" => run_ablation(scale, format),
        "all" => {
            run_fig11(scale, format);
            run_fig12(scale, format);
            run_fig13(scale, format);
            run_fig14_15(scale, format, true, true);
            run_fig16(scale, format);
            run_frugality(scale, format, &[17, 18, 19, 20]);
            run_ablation(scale, format);
        }
        other => usage_error(&format!(
            "unknown experiment {other:?}; expected one of fig11..fig20, frugality, ablation, all"
        )),
    }
}
