//! Regenerates the tables behind every figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin reproduce -- [FIGURE] [--paper] [OPTIONS]
//! cargo run --release -p bench --bin reproduce -- --scenario FILE.toml [OPTIONS]
//!
//! OPTIONS: [--sweep param=v1,v2]... [--seeds N] [--first-seed N]
//!          [--workers N] [--shards N|auto] [--verbose] [--csv]
//! ```
//!
//! `FIGURE` is one of `fig11`, `fig12`, `fig13`, `fig14`, `fig15`, `fig16`,
//! `fig17`, `fig18`, `fig19`, `fig20`, `frugality` (= fig17–20 in one sweep),
//! `ablation`, or `all` (the default). It names files under `figures/`: the
//! `*.quick.toml` twins, which shrink the population, the seeds and the
//! durations so that `all` takes about a second, or with `--paper` the
//! paper's full methodology (150 nodes, 30 seeds; `figures/README.md` has
//! the time of each: 9 minutes for all of them with 2 workers on a 2-core
//! host). `--scenario` runs any scenario file instead (see
//! `manet_sim::scenario_compile` for the schema and `examples/*.toml` for
//! worked files); `--paper` applies only to a figure name.
//!
//! Either way the file is compiled into an experiment matrix, every point
//! runs through the multi-seed runner, and the file's tables are printed (a
//! file without `[[table]]` gets one row per matrix point). `--sweep
//! param=v1,v2` adds a sweep axis (repeatable; it replaces a file axis
//! sweeping the same parameter), `--seeds` / `--first-seed` override the
//! file's `[seeds]`, and `--csv` prints CSV instead of Markdown. A malformed
//! command line exits 2 with a one-line diagnostic; a file that does not
//! compile exits 1 with `file: line:col: message`.
//!
//! `--shards` defaults to 1, the serial loop: on a 2-core host the
//! repository benchmark measured two shards slower than one on every
//! workload. `--shards auto` splits `available_parallelism()` across the
//! seed workers (the header echoes the resolved count and the split);
//! `--verbose` prints the sharded engine's debug counters — widened windows,
//! fused batches, repartition passes — after each matrix point.

use manet_sim::{compile_path, run_matrix, SweepAxis};

/// Where the figure files live.
const FIGURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../figures");

/// Each figure name: the file under `figures/` it runs, and which of the
/// file's tables it prints (all of them when `None`). `all` runs each file
/// once, in this order.
const NAMES: [(&str, &str, Option<usize>); 12] = [
    ("fig11", "fig11", None),
    ("fig12", "fig12", None),
    ("fig13", "fig13", None),
    ("fig14", "fig14_15", Some(0)),
    ("fig15", "fig14_15", Some(1)),
    ("fig16", "fig16", None),
    ("fig17", "frugality", Some(0)),
    ("fig18", "frugality", Some(1)),
    ("fig19", "frugality", Some(2)),
    ("fig20", "frugality", Some(3)),
    ("frugality", "frugality", None),
    ("ablation", "ablation", None),
];

/// The command line: the files to run, each with the table it prints (all
/// when `None`), and how to run them.
#[derive(Debug)]
struct Options {
    files: Vec<(String, Option<usize>)>,
    csv: bool,
    sweeps: Vec<SweepAxis>,
    seeds: Option<u64>,
    first_seed: Option<u64>,
    workers: usize,
    /// `--shards`: a count (default 1), or `None` for `auto`, which gives
    /// each seed worker an equal slice of `available_parallelism()` —
    /// `workers × shards ≈ cores`, the split the sharded runner documents.
    shards: Option<usize>,
    verbose: bool,
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Reports a malformed command line and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Parses the command line. Exits with a diagnostic on a malformed flag,
/// a second figure name, or a figure name and `--scenario` together.
fn parse_args(args: &[String]) -> Options {
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
    let mut options = Options {
        files: Vec::new(),
        csv: false,
        sweeps: Vec::new(),
        seeds: None,
        first_seed: None,
        workers: cores(),
        shards: Some(1),
        verbose: false,
    };
    let (mut figure, mut scenario, mut paper) = (None, None, false);
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        let mut value = || {
            let missing = || usage_error(&format!("{arg} needs a value"));
            args.next().unwrap_or_else(missing)
        };
        match arg {
            "--scenario" => scenario = Some(value().to_owned()),
            "--sweep" => match value().parse() {
                Ok(axis) => options.sweeps.push(axis),
                Err(err) => usage_error(&format!("--sweep: {err}")),
            },
            // A table of zeros would read as a measurement.
            "--seeds" => {
                let runs = positive(value(), arg, "a seed plan needs at least 1 run");
                options.seeds = Some(runs as u64);
            }
            "--first-seed" => options.first_seed = Some(numeric(value(), arg)),
            "--workers" => {
                options.workers = positive(value(), arg, "a run needs at least 1 worker")
            }
            "--shards" => {
                options.shards = match value() {
                    "auto" => None,
                    count => Some(positive(count, arg, "a world needs at least 1 shard")),
                }
            }
            "--verbose" => options.verbose = true,
            "--csv" => options.csv = true,
            "--paper" => paper = true,
            flag if flag.starts_with("--") => usage_error(&format!(
                "unknown flag {flag:?}; expected --paper, --csv, --scenario, --sweep, \
                 --seeds, --first-seed, --workers, --shards or --verbose"
            )),
            name if figure.is_none() => figure = Some(name.to_lowercase()),
            extra => usage_error(&format!(
                "unexpected argument {extra:?}: one figure per run"
            )),
        }
    }
    let scale = if paper { "" } else { ".quick" };
    let file =
        |(file, table): (&str, Option<usize>)| (format!("{FIGURES}/{file}{scale}.toml"), table);
    options.files = match (scenario, figure.as_deref()) {
        (Some(_), Some(figure)) => usage_error(&format!(
            "figure {figure:?} and --scenario both name what to run; give one"
        )),
        (Some(_), None) if paper => {
            usage_error("--paper applies to a figure name, not to --scenario")
        }
        (Some(path), None) => vec![(path, None)],
        (None, None | Some("all")) => {
            let mut files: Vec<&str> = NAMES.iter().map(|(_, file, _)| *file).collect();
            files.dedup();
            files.into_iter().map(|name| file((name, None))).collect()
        }
        (None, Some(figure)) => match NAMES.iter().find(|(name, ..)| *name == figure) {
            Some(&(_, name, table)) => vec![file((name, table))],
            None => usage_error(&format!(
                "unknown figure {figure:?}; expected one of fig11..fig20, frugality, ablation, all"
            )),
        },
    };
    options
}

/// Compiles and runs one file, printing its tables (or only the `only`-th).
fn run_file(options: &Options, path: &str, only: Option<usize>) {
    let failed = |err: &dyn std::fmt::Display| -> ! {
        eprintln!("{path}: {err}");
        std::process::exit(1);
    };
    let mut matrix = compile_path(path, &options.sweeps).unwrap_or_else(|err| failed(&err));
    if let Some(first) = options.first_seed {
        matrix.seeds.first_seed = first;
    }
    if let Some(runs) = options.seeds {
        matrix.seeds.runs = runs;
    }
    let shards = options.shards.unwrap_or((cores() / options.workers).max(1));
    let shards_note = match options.shards {
        None => format!(
            " [auto: {} core(s) / {} worker(s)]",
            cores(),
            options.workers
        ),
        Some(_) => String::new(),
    };
    eprintln!(
        "# {}: {} matrix point(s), {} seed(s) each, {} worker(s), {} shard(s){}",
        matrix.label,
        matrix.points.len(),
        matrix.seeds.runs,
        options.workers,
        shards,
        shards_note
    );
    let tables = run_matrix(&matrix, options.workers, shards, |point, reports, stats| {
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
    })
    .unwrap_or_else(|err| failed(&err));
    let tables = match only {
        Some(only) => &tables[only..=only],
        None => &tables[..],
    };
    for table in tables {
        match options.csv {
            true => println!("# {}\n{}", table.title(), table.to_csv()),
            false => println!("{}", table.to_markdown()),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_args(&args);
    for (path, only) in &options.files {
        run_file(&options, path, *only);
    }
}
