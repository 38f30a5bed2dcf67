//! Regenerates the tables behind every figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin reproduce -- [FIGURE] [--paper] [OPTIONS]
//! cargo run --release -p bench --bin reproduce -- --scenario FILE.toml [OPTIONS]
//!
//! OPTIONS: [--sweep param=v1,v2]... [--seeds N] [--first-seed N]
//!          [--workers N] [--csv]
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
//! Every world runs the serial event loop; `--workers` seed workers (one per
//! core by default) share the machine.

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
}

/// Parses the command line. A malformed flag, a second figure name, or a
/// figure name and `--scenario` together is an error with a one-line
/// diagnostic.
fn parse_args(args: &[String]) -> Result<Options, String> {
    fn numeric<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: `{text}` is not a valid value"))
    }
    /// A count that must be at least 1; `zero` says why.
    fn positive(text: &str, flag: &str, zero: &str) -> Result<usize, String> {
        match numeric(text, flag)? {
            0 => Err(format!("{flag}: {zero}")),
            count => Ok(count),
        }
    }
    let mut options = Options {
        files: Vec::new(),
        csv: false,
        sweeps: Vec::new(),
        seeds: None,
        first_seed: None,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let (mut figure, mut scenario, mut paper) = (None, None, false);
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg {
            "--scenario" => scenario = Some(value()?.to_owned()),
            "--sweep" => {
                let axis = value()?.parse().map_err(|err| format!("--sweep: {err}"))?;
                options.sweeps.push(axis);
            }
            // A table of zeros would read as a measurement.
            "--seeds" => {
                let runs = positive(value()?, arg, "a seed plan needs at least 1 run")?;
                options.seeds = Some(runs as u64);
            }
            "--first-seed" => options.first_seed = Some(numeric(value()?, arg)?),
            "--workers" => {
                options.workers = positive(value()?, arg, "a run needs at least 1 worker")?
            }
            "--csv" => options.csv = true,
            "--paper" => paper = true,
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unknown flag {flag:?}; expected --paper, --csv, --scenario, --sweep, \
                     --seeds, --first-seed or --workers"
                ))
            }
            name if figure.is_none() => figure = Some(name.to_lowercase()),
            extra => return Err(format!("unexpected argument {extra:?}: one figure per run")),
        }
    }
    let scale = if paper { "" } else { ".quick" };
    let file =
        |(file, table): (&str, Option<usize>)| (format!("{FIGURES}/{file}{scale}.toml"), table);
    options.files = match (scenario, figure.as_deref()) {
        (Some(_), Some(figure)) => {
            return Err(format!(
                "figure {figure:?} and --scenario both name what to run; give one"
            ))
        }
        (Some(_), None) if paper => {
            return Err("--paper applies to a figure name, not to --scenario".to_owned())
        }
        (Some(path), None) => vec![(path, None)],
        (None, None | Some("all")) => {
            let mut files: Vec<&str> = NAMES.iter().map(|(_, file, _)| *file).collect();
            files.dedup();
            files.into_iter().map(|name| file((name, None))).collect()
        }
        (None, Some(figure)) => match NAMES.iter().find(|(name, ..)| *name == figure) {
            Some(&(_, name, table)) => vec![file((name, table))],
            None => {
                return Err(format!(
                "unknown figure {figure:?}; expected one of fig11..fig20, frugality, ablation, all"
            ))
            }
        },
    };
    Ok(options)
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
    eprintln!(
        "# {}: {} matrix point(s), {} seed(s) each, {} worker(s)",
        matrix.label,
        matrix.points.len(),
        matrix.seeds.runs,
        options.workers,
    );
    let tables = run_matrix(&matrix, options.workers).unwrap_or_else(|err| failed(&err));
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
    // A malformed command line exits 2 with a one-line diagnostic.
    let options = parse_args(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    for (path, only) in &options.files {
        run_file(&options, path, *only);
    }
}
