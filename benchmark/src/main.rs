//! The repository benchmark.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload and
//! prints its metrics, the last line being the result object the driver
//! reads. Without `--workload` it runs every workload in both modes, each in
//! a process of its own so that peak memory and CPU time belong to one
//! workload, and writes `benchmark/out/results.json`. See `README.md`.

mod host;
mod json;
mod layers;
mod metrics;
mod stats;
mod suite;
mod trace;
mod workload;

use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use stats::{median, percentile, ratio};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{Gate, Rep, Settings, Workload, BENCH_DIR, DEFAULT_SEED, WORKLOADS};

/// How long one run measures unless told otherwise; `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Timed repetitions a run makes at least, whatever its time budget.
const MIN_REPS: usize = 3;

/// Set-up samples a run collects when set-up is cheap: a world of 15 nodes
/// is built in microseconds, and the median of a few such times is noise.
const SETUP_SAMPLES: usize = 101;

/// Time a run may spend on those extra set-ups.
const SETUP_BUDGET_S: f64 = 0.5;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    twice: bool,
    capture: bool,
}

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--twice] [--capture]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        twice: false,
        capture: false,
    };
    let mut seconds = None;
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let parsed: Option<f64> = value()?.parse().ok();
                seconds = Some(
                    parsed
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds takes a non-negative number")?,
                );
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--twice" => parsed.twice = true,
            "--capture" => parsed.capture = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.capture && (parsed.smoke || parsed.seed != DEFAULT_SEED) {
        return Err("--capture records the full-size runs at the default seed only".to_owned());
    }
    // A smoke run makes the fewest repetitions it can, unless told otherwise.
    parsed.seconds = seconds.unwrap_or(if parsed.smoke { 0.0 } else { DEFAULT_SECONDS });
    Ok(parsed)
}

impl Args {
    fn settings(&self) -> Settings {
        Settings {
            seed: self.seed,
            smoke: self.smoke,
        }
    }
}

/// The measured values of one run, by metric name.
type Values = Vec<layers::Metric>;

fn value_of(values: &Values, name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// What one run of one workload produced.
struct RunResult {
    gate: Gate,
    values: Values,
    /// The per-repetition samples behind the metrics that are medians.
    samples: Vec<(&'static str, Vec<f64>)>,
    /// Simulated statistics and shares that are not `BENCHMARK.json` metrics.
    extras: Values,
    repetitions: usize,
}

/// Runs repetitions until `seconds` have passed and at least `min` are done.
fn timed_reps(
    seconds: f64,
    min: usize,
    mut one: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut done = 0;
    while done < min || started.elapsed().as_secs_f64() < seconds {
        one()?;
        done += 1;
    }
    Ok(())
}

fn column(reps: &[Rep], field: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(field).collect()
}

/// Simulated statistics every run prints: they repeat exactly for a seed,
/// so two runs of any two commits that should behave alike compare exactly.
fn simulated_extras(workload: &Workload, rep: &Rep, gate: &Gate) -> Values {
    let mut extras = vec![
        (
            "failed_share",
            ratio(gate.failed as f64, gate.attempted as f64),
        ),
        ("reliability", rep.reliability),
        ("bandwidth_kb_per_node", rep.bandwidth_kb_per_node),
    ];
    if let Some(paper) = workload.paper_reliability {
        extras.push(("paper_abs_err", (rep.reliability - paper).abs()));
    }
    extras
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn run_end_to_end(workload: &Workload, args: &Args) -> Result<RunResult, String> {
    let settings = args.settings();
    let inputs = workload::load(workload, settings)?;
    let mut tracer = Tracer::new();
    tracer.set_enabled(false);
    let mut gate = Gate::new(workload::read_expected(workload, settings, args.capture)?);
    if workload.shards > 1 {
        // The one-shard run of the same inputs is the reference the sharded
        // repetitions are held to.
        let reference = workload::run_rep(workload, settings, 1, &mut tracer)?;
        gate.check("one-shard reference", &reference.runs);
    }
    let mut reps: Vec<Rep> = Vec::new();
    let min_reps = if args.smoke { 2 } else { MIN_REPS };
    timed_reps(args.seconds, min_reps, || {
        let rep = workload::run_rep(workload, settings, workload.shards, &mut tracer)?;
        gate.check(&format!("repetition {}", reps.len()), &rep.runs);
        reps.push(rep);
        Ok(())
    })?;
    if args.capture {
        workload::write_expected(workload, &reps[0])?;
    }

    let mut setup = column(&reps, |r| r.setup_s);
    let extra_started = Instant::now();
    while setup.len() < SETUP_SAMPLES && extra_started.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        setup.push(workload::time_setup(workload, settings, &mut tracer)?);
    }

    let wall = column(&reps, |r| r.wall_s);
    let throughput: Vec<f64> = wall.iter().map(|w| inputs.node_sim_seconds() / w).collect();
    let samples = vec![
        ("wall_s", wall),
        ("cpu_s", column(&reps, |r| r.cpu_s)),
        ("node_sim_s_per_s", throughput),
        ("setup_s", setup),
    ];
    let mut values: Values = samples.iter().map(|(n, v)| (*n, median(v))).collect();
    values.push(("peak_rss_mb", host::peak_rss_mib()));
    Ok(RunResult {
        extras: simulated_extras(workload, &reps[0], &gate),
        gate,
        values,
        samples,
        repetitions: reps.len(),
    })
}

/// Phase times of one traced repetition, from its spans.
struct Phases {
    load_s: f64,
    new_s: f64,
    reset_s: f64,
    resets: u64,
    warmup_s: f64,
    measure_s: f64,
    report_s: f64,
    reports: u64,
    render_s: f64,
    /// Self time of the world-phase spans: what of `wall_s` the trace explains.
    covered_s: f64,
    /// The repetition's `wall_s`.
    wall_s: f64,
}

fn phases(tracer: &Tracer, self_ns: &[u64], rep: &Rep) -> Phases {
    let totals = trace::totals_by_name(tracer.spans(), self_ns, rep.spans.clone());
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    Phases {
        load_s: of(workload::SPAN_LOAD).duration_s,
        new_s: of(workload::SPAN_NEW).duration_s,
        reset_s: of(workload::SPAN_RESET).duration_s,
        resets: of(workload::SPAN_RESET).count,
        warmup_s: of(workload::SPAN_WARMUP).duration_s,
        measure_s: of(workload::SPAN_MEASURE).duration_s,
        report_s: of(workload::SPAN_REPORT).duration_s,
        reports: of(workload::SPAN_REPORT).count,
        render_s: of(workload::SPAN_RENDER).duration_s,
        covered_s: workload::WORLD_PHASES
            .iter()
            .map(|name| of(name).self_s)
            .sum(),
        wall_s: rep.wall_s,
    }
}

/// One timed call of the multi-seed runner, its reports checked like any
/// other repetition's.
fn time_runner(
    inputs: &workload::Inputs,
    workers: usize,
    span: &'static str,
    tracer: &mut Tracer,
    gate: &mut Gate,
) -> Result<f64, String> {
    let started = Instant::now();
    let reports = tracer
        .span(span, || {
            manet_sim::run_scenario_reports_with_workers(
                &inputs.scenario,
                inputs.plan,
                workers,
                |_| {},
            )
        })
        .map_err(|err| err.to_string())?;
    let wall = started.elapsed().as_secs_f64();
    let runs: Vec<_> = reports
        .iter()
        .map(|r| Ok(workload::outcome_of(r)))
        .collect();
    gate.check(span, &runs);
    Ok(wall)
}

/// `--trace 1`: the per-layer metrics, from traced repetitions alternated
/// with untraced ones, single runs of the other configurations the ratios
/// need, and the layer replays.
fn run_per_layer(workload: &Workload, args: &Args, host: &Json) -> Result<RunResult, String> {
    let settings = args.settings();
    let inputs = workload::load(workload, settings)?;
    let mut tracer = Tracer::new();
    let mut gate = Gate::new(workload::read_expected(workload, settings, false)?);

    // The same inputs at the other shard count, traced for its phases. Every
    // workload runs it, so every workload reports the sharding ratios.
    let other_shards = if workload.shards > 1 { 1 } else { 2 };
    let other = workload::run_rep(workload, settings, other_shards, &mut tracer)?;
    gate.check("other shard count", &other.runs);

    // The single runs around this loop take about as long again, so the loop
    // gets the smaller part of the time budget.
    let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    timed_reps(args.seconds * 0.4, 1, || {
        for enabled in [false, true] {
            tracer.set_enabled(enabled);
            let rep = workload::run_rep(workload, settings, workload.shards, &mut tracer)?;
            gate.check(if enabled { "traced" } else { "untraced" }, &rep.runs);
            if enabled { &mut traced } else { &mut plain }.push(rep);
        }
        Ok(())
    })?;

    let runner1 = time_runner(
        &inputs,
        1,
        "manet_sim.runner.workers1",
        &mut tracer,
        &mut gate,
    )?;
    let runner2 = time_runner(
        &inputs,
        2,
        "manet_sim.runner.workers2",
        &mut tracer,
        &mut gate,
    )?;
    let mut values: Values = layers::replay(&inputs, args.smoke, &mut tracer);

    let self_ns = trace::self_times_ns(tracer.spans());
    let per_rep: Vec<Phases> = traced
        .iter()
        .map(|r| phases(&tracer, &self_ns, r))
        .collect();
    let med = |field: fn(&Phases) -> f64| median(&per_rep.iter().map(field).collect::<Vec<_>>());
    let other_phases = phases(&tracer, &self_ns, &other);
    let slices_ms: Vec<f64> = traced
        .iter()
        .flat_map(|rep| &tracer.spans()[rep.spans.clone()])
        .filter(|span| span.name == workload::SPAN_SLICE)
        .map(|span| span.duration_ns() as f64 * 1e-6)
        .collect();

    let plain_wall = median(&column(&plain, |r| r.wall_s));
    let plain_cpu = median(&column(&plain, |r| r.cpu_s));
    let traced_wall = median(&column(&traced, |r| r.wall_s));
    let (warmup_s, measure_s) = (med(|p| p.warmup_s), med(|p| p.measure_s));
    let counts = plain[0].counts;
    let seeds = inputs.plan.runs as f64;
    let ticks = inputs.measured_sim_seconds() / inputs.scenario.mobility_tick.as_secs_f64();

    // The runner steps its worlds on one shard, so that is what it is held to.
    let one_shard_wall = if workload.shards > 1 {
        other.wall_s
    } else {
        plain_wall
    };
    // `one / two`: how many times faster two shards are than one.
    let sharded = |primary: f64, other: f64| {
        let (one, two) = if workload.shards > 1 {
            (other, primary)
        } else {
            (primary, other)
        };
        ratio(one, two)
    };
    // The sharded engine's counters, from the traced two-shard repetition
    // either way, so workloads with the same inputs report the same counts.
    let shard_counts = if workload.shards > 1 {
        traced[0].counts
    } else {
        other.counts
    };

    values.extend([
        ("manet_sim.compile.us", med(|p| p.load_s) * 1e6),
        ("manet_sim.world.new_ms", med(|p| p.new_s) * 1e3),
        (
            "manet_sim.world.reset_ms",
            med(|p| ratio(p.reset_s, p.resets as f64)) * 1e3,
        ),
        ("manet_sim.world.warmup_s", warmup_s),
        ("manet_sim.world.measure_s", measure_s),
        ("manet_sim.world.slice_ms_p50", percentile(&slices_ms, 50.0)),
        ("manet_sim.world.slice_ms_p95", percentile(&slices_ms, 95.0)),
        (
            "manet_sim.world.report_ms",
            med(|p| ratio(p.report_s, p.reports as f64)) * 1e3,
        ),
        ("manet_sim.output.render_us", med(|p| p.render_s) * 1e6),
        (
            "manet_sim.world.ns_per_reception",
            ratio(measure_s * 1e9, counts.frames_received as f64),
        ),
        (
            "manet_sim.world.ns_per_node_tick",
            ratio(
                measure_s * 1e9,
                inputs.scenario.node_count as f64 * ticks * seeds,
            ),
        ),
        (
            "manet_sim.runner.overhead_share",
            ratio(runner1, one_shard_wall + med(|p| p.new_s)) - 1.0,
        ),
        ("manet_sim.runner.workers2_speedup", ratio(runner1, runner2)),
        (
            "manet_sim.shard.speedup",
            sharded(traced_wall, other.wall_s),
        ),
        (
            "manet_sim.shard.cpu_ratio",
            sharded(median(&column(&traced, |r| r.cpu_s)), other.cpu_s),
        ),
        (
            "manet_sim.shard.warmup_speedup",
            sharded(warmup_s, other_phases.warmup_s),
        ),
        (
            "manet_sim.shard.measure_speedup",
            sharded(measure_s, other_phases.measure_s),
        ),
        ("manet_sim.world.frames_sent", counts.frames_sent as f64),
        (
            "manet_sim.world.frames_received",
            counts.frames_received as f64,
        ),
        (
            "manet_sim.world.frames_lost_collision",
            counts.frames_lost_collision as f64,
        ),
        ("manet_sim.world.messages_sent", counts.messages_sent as f64),
        ("manet_sim.world.delivered", counts.delivered as f64),
        (
            "manet_sim.shard.windows_widened",
            shard_counts.windows_widened as f64,
        ),
        (
            "manet_sim.shard.batches_fused",
            shard_counts.batches_fused as f64,
        ),
        (
            "manet_sim.shard.repartitions",
            shard_counts.repartitions as f64,
        ),
        ("manet_sim.report.reliability", plain[0].reliability),
        (
            "manet_sim.report.bandwidth_kb_per_node",
            plain[0].bandwidth_kb_per_node,
        ),
        (
            "harness.trace_overhead_share",
            ratio(traced_wall - plain_wall, plain_wall),
        ),
        (
            "harness.phase_coverage_share",
            med(|p| p.covered_s / p.wall_s),
        ),
    ]);

    let doc = trace::to_json(workload.name, host.clone(), tracer.spans());
    write_output(&format!("trace-{}.json", workload.name), &doc.to_string())?;

    let mut extras = simulated_extras(workload, &plain[0], &gate);
    extras.extend([
        ("untraced_wall_s", plain_wall),
        ("untraced_cpu_s", plain_cpu),
        ("traced_wall_s", traced_wall),
        ("phase_share.reset", med(|p| p.reset_s / p.wall_s)),
        ("phase_share.warmup", med(|p| p.warmup_s / p.wall_s)),
        ("phase_share.measure", med(|p| p.measure_s / p.wall_s)),
        ("phase_share.report", med(|p| p.report_s / p.wall_s)),
        ("slice_samples", slices_ms.len() as f64),
    ]);
    if let Some(p) = stats::highest_supported_percentile(slices_ms.len()) {
        extras.push(("slice_ms_highest_supported_percentile", p));
        extras.push(("slice_ms_at_that_percentile", percentile(&slices_ms, p)));
    }
    Ok(RunResult {
        gate,
        values,
        samples: Vec::new(),
        extras,
        repetitions: traced.len(),
    })
}

/// Writes `text` to `benchmark/out/<file>`, the one place the harness writes.
fn write_output(file: &str, text: &str) -> Result<(), String> {
    let dir = std::path::Path::new(BENCH_DIR).join("out");
    let path = dir.join(file);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// The `metrics` object of a result: every metric of `defs`, in their order.
fn metrics_json(defs: &[MetricDef], values: &Values) -> Json {
    Json::object(defs.iter().map(|def| {
        let value = value_of(values, def.name)
            .unwrap_or_else(|| panic!("the harness did not measure {}", def.name));
        assert!(value.is_finite(), "{} is not a finite number", def.name);
        let fields = [("value", Json::from(value)), ("unit", Json::from(def.unit))];
        (def.name, Json::object(fields))
    }))
}

fn run_one(workload: &Workload, args: &Args) -> Result<bool, String> {
    let host = host::record();
    let (defs, result): (&[MetricDef], RunResult) = if args.trace {
        (&PER_LAYER, run_per_layer(workload, args, &host)?)
    } else {
        (&END_TO_END, run_end_to_end(workload, args)?)
    };
    println!(
        "# {} seed {} trace {}{}",
        workload.name,
        args.seed,
        u8::from(args.trace),
        if args.smoke { " (smoke)" } else { "" }
    );
    for def in defs {
        let spread = result
            .samples
            .iter()
            .find(|(n, _)| *n == def.name)
            .map(|(_, v)| {
                let min = v.iter().copied().fold(f64::INFINITY, f64::min);
                let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                format!("  (min {min:.6} max {max:.6} n={})", v.len())
            })
            .unwrap_or_default();
        println!(
            "{:<44} {:>16.6} {}{spread}",
            def.name,
            value_of(&result.values, def.name).unwrap_or(f64::NAN),
            def.unit
        );
    }
    for (name, value) in &result.extras {
        println!("{name:<44} {value:>16.6}");
    }
    for cause in &result.gate.causes {
        println!("FAILED {cause}");
    }
    let detail = Json::object([
        ("host", host),
        ("repetitions", Json::from(result.repetitions as u64)),
        (
            "extras",
            Json::object(result.extras.iter().map(|(n, v)| (*n, Json::from(*v)))),
        ),
        (
            "samples",
            Json::object(
                result
                    .samples
                    .iter()
                    .map(|(n, v)| (*n, Json::Array(v.iter().map(|x| Json::from(*x)).collect()))),
            ),
        ),
    ]);
    println!("detail {detail}");
    let correct = result.gate.failed == 0;
    println!(
        "{}",
        Json::object([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(result.gate.attempted)),
            ("failed", Json::from(result.gate.failed)),
            ("metrics", metrics_json(defs, &result.values)),
        ])
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => match workload::find(name) {
            Some(workload) => run_one(workload, &args),
            None => Err(format!(
                "unknown workload `{name}` (known: {})",
                WORKLOADS.map(|w| w.name).join(", ")
            )),
        },
        None => suite::run(&args),
    };
    match outcome {
        // A single run that printed its result object has done its job; the
        // object says whether the outputs were correct. The suite has no
        // such reader, so there a failure is the exit code.
        Ok(correct) if correct || args.workload.is_some() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
