//! The named workloads, one repetition of a workload, and the correctness
//! gate every seed-run passes through.

use crate::host::cpu_seconds;
use crate::json::Json;
use crate::stats::fingerprint;
use crate::trace::Tracer;
use manet_sim::{
    compile_str, DataTable, ExperimentPoint, MobilityKind, RunReport, Scenario, SeedPlan, World,
};
use mobility::Area;
use simkit::{SimDuration, SimTime};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// The benchmark's own directory, relative to the repository root, where
/// `run.sh` puts the working directory.
pub const BENCH_DIR: &str = "benchmark";

/// The seed the expected fingerprints were captured at.
pub const DEFAULT_SEED: u64 = 1;

/// Length of one traced slice of the measured period, in simulated time.
const SLICE: SimDuration = SimDuration::from_millis(100);

/// One named workload. Everything about its inputs is in the TOML file;
/// the shard count is an engine setting the scenario schema has no key for.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Stem of the scenario under `workloads/` and of the fingerprints under
    /// `expected/`. Two workloads with the same inputs must produce the same
    /// reports, so they share both files.
    pub inputs: &'static str,
    /// `World::set_shards` value of the timed repetitions.
    pub shards: usize,
    /// The reliability the paper reports for these inputs, where it does.
    pub paper_reliability: Option<f64>,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "paper_rw_150",
        inputs: "paper_rw_150",
        shards: 1,
        paper_reliability: Some(0.95),
    },
    Workload {
        name: "paper_city_15",
        inputs: "paper_city_15",
        shards: 1,
        paper_reliability: Some(0.77),
    },
    Workload {
        name: "frugal_10k",
        inputs: "frugal_10k",
        shards: 1,
        paper_reliability: None,
    },
    Workload {
        name: "flood_10k",
        inputs: "flood_10k",
        shards: 1,
        paper_reliability: None,
    },
    Workload {
        name: "mobile_100k",
        inputs: "mobile_100k",
        shards: 1,
        paper_reliability: None,
    },
    Workload {
        name: "frugal_10k_shards2",
        inputs: "frugal_10k",
        shards: 2,
        paper_reliability: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What a repetition is run with, apart from the workload itself.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// First seed of the seed plan.
    pub seed: u64,
    /// Cut the inputs down so the whole plumbing runs in seconds.
    pub smoke: bool,
}

/// The compiled inputs of a workload: all the program gets to see.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub scenario: Scenario,
    pub plan: SeedPlan,
}

impl Inputs {
    /// Simulated seconds of the measured period (after the warm-up).
    pub fn measured_sim_seconds(&self) -> f64 {
        (self.scenario.duration - self.scenario.warmup).as_secs_f64()
    }

    /// Node·simulated-seconds one repetition advances, warm-up included.
    pub fn node_sim_seconds(&self) -> f64 {
        self.scenario.node_count as f64
            * self.scenario.duration.as_secs_f64()
            * self.plan.runs as f64
    }
}

/// The smoke cut: a hundredth of the seeds and, for the large worlds, a tenth
/// of the nodes on a tenth of the area, which keeps the neighbour count.
fn shrink_for_smoke(inputs: &mut Inputs) {
    inputs.plan.runs = inputs.plan.runs.div_ceil(100);
    let scenario = &mut inputs.scenario;
    if scenario.node_count >= 10_000 {
        scenario.node_count /= 10;
        if let MobilityKind::RandomWaypoint { area, .. } = &mut scenario.mobility {
            let side = 0.1f64.sqrt();
            *area = Area::new(area.width() * side, area.height() * side);
        }
    }
}

/// Reads and compiles the workload's scenario file. The seed plan keeps the
/// file's run count and starts at `settings.seed`.
pub fn load(workload: &Workload, settings: Settings) -> Result<Inputs, String> {
    let path: PathBuf = [BENCH_DIR, "workloads", &format!("{}.toml", workload.inputs)]
        .iter()
        .collect();
    let source = std::fs::read_to_string(&path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    let matrix = compile_str(&source).map_err(|err| format!("{}: {err}", path.display()))?;
    let [point] = matrix.points.as_slice() else {
        return Err(format!(
            "{}: a workload is one scenario, not a sweep",
            path.display()
        ));
    };
    let mut inputs = Inputs {
        scenario: point.scenario.clone(),
        plan: SeedPlan::new(settings.seed, matrix.seeds.runs),
    };
    if settings.smoke {
        shrink_for_smoke(&mut inputs);
    }
    Ok(inputs)
}

/// What the harness keeps of one seed-run that returned a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedOutcome {
    pub fingerprint: u64,
    /// Some event reports more deliveries than it has subscribers.
    pub over_delivered: bool,
}

/// The outcome of a seed-run that returned `report`.
pub fn outcome_of(report: &RunReport) -> SeedOutcome {
    SeedOutcome {
        fingerprint: fingerprint(report),
        over_delivered: report.events.iter().any(|e| e.delivered > e.subscribers),
    }
}

/// Counts summed over the seed-runs of one repetition. They come from the
/// reports and `World::debug_stats`, so they repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub frames_sent: u64,
    pub frames_received: u64,
    pub frames_lost_collision: u64,
    pub messages_sent: u64,
    pub delivered: u64,
    pub windows_widened: u64,
    pub batches_fused: u64,
    pub repartitions: u64,
}

impl Counts {
    fn add(&mut self, report: &RunReport, world: &World) {
        for node in &report.nodes {
            self.frames_sent += node.traffic.frames_sent;
            self.frames_received += node.traffic.frames_received;
            self.frames_lost_collision += node.traffic.frames_lost_collision;
            self.messages_sent += node.messages_sent;
            self.delivered += node.delivered;
        }
        let stats = world.debug_stats();
        self.windows_widened += stats.windows_widened;
        self.batches_fused += stats.batches_fused;
        self.repartitions += stats.repartitions;
    }
}

/// One repetition: set-up, then every seed of the plan on one recycled world.
#[derive(Debug)]
pub struct Rep {
    /// Read + compile the TOML, then the first `World::new`.
    pub setup_s: f64,
    /// All seeds: `World::reset` (every seed but the first) + `run_mut`.
    pub wall_s: f64,
    /// CPU time of the same regions, all threads.
    pub cpu_s: f64,
    /// Per seed, in plan order: the outcome, or why the run failed.
    pub runs: Vec<Result<SeedOutcome, String>>,
    pub counts: Counts,
    /// Mean `RunReport::reliability()` over the seeds that returned.
    pub reliability: f64,
    /// Mean `RunReport::bandwidth_kb_per_process()` over the same.
    pub bandwidth_kb_per_node: f64,
    /// The spans this repetition recorded (empty when tracing is off).
    pub spans: Range<usize>,
}

pub const SPAN_REP: &str = "harness.rep";
pub const SPAN_LOAD: &str = "manet_sim.compile";
pub const SPAN_NEW: &str = "manet_sim.world.new";
pub const SPAN_SEED: &str = "harness.seed";
pub const SPAN_RESET: &str = "manet_sim.world.reset";
pub const SPAN_WARMUP: &str = "manet_sim.world.warmup";
pub const SPAN_MEASURE: &str = "manet_sim.world.measure";
pub const SPAN_SLICE: &str = "manet_sim.world.slice";
pub const SPAN_REPORT: &str = "manet_sim.world.report";
pub const SPAN_RENDER: &str = "manet_sim.output.render";

/// The spans whose self times make up `wall_s` of a traced repetition.
pub const WORLD_PHASES: [&str; 5] = [
    SPAN_RESET,
    SPAN_WARMUP,
    SPAN_MEASURE,
    SPAN_SLICE,
    SPAN_REPORT,
];

/// Runs one seed to its report. With tracing on, the run is split into the
/// warm-up, the measured period and the report; `sliced` further steps the
/// measured period in 100 ms slices. Stepping a world with `run_until`
/// produces the same report as one `run_mut`, which the gate re-checks
/// against the untraced repetitions.
fn run_seed(world: &mut World, tracer: &mut Tracer, sliced: bool) -> RunReport {
    if !tracer.enabled() {
        return world.run_mut();
    }
    let warmup_end = SimTime::ZERO + world.scenario().warmup;
    let end = SimTime::ZERO + world.scenario().duration;
    tracer.span(SPAN_WARMUP, || world.run_until(warmup_end));
    let measure = tracer.open(SPAN_MEASURE);
    if sliced {
        let mut until = warmup_end;
        while until < end {
            until = (until + SLICE).min(end);
            tracer.span(SPAN_SLICE, || world.run_until(until));
        }
    } else {
        world.run_until(end);
    }
    tracer.close(measure);
    tracer.span(SPAN_REPORT, || world.run_mut())
}

/// The set-up every repetition starts with, and `setup_s` times: read and
/// compile the scenario, build the first world.
fn set_up(
    workload: &Workload,
    settings: Settings,
    tracer: &mut Tracer,
) -> Result<(Inputs, World, f64), String> {
    let started = Instant::now();
    let inputs = tracer.span(SPAN_LOAD, || load(workload, settings))?;
    let world = tracer
        .span(SPAN_NEW, || {
            World::new(inputs.scenario.clone(), settings.seed)
        })
        .map_err(|err| format!("{}: {err}", workload.name))?;
    Ok((inputs, world, started.elapsed().as_secs_f64()))
}

/// One more sample of the set-up time.
pub fn time_setup(
    workload: &Workload,
    settings: Settings,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    set_up(workload, settings, tracer).map(|(_, _, elapsed)| elapsed)
}

fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-text panic payload".to_owned());
    format!("panicked: {text}")
}

/// Runs one repetition of `workload` at `shards` shards. A seed-run that
/// panics — in the coordinator or, through the scope join, in a shard worker
/// — is caught here and recorded as failed; the next seed gets a new world.
///
/// # Errors
///
/// Only for what no seed-run can be blamed for: unreadable or invalid inputs.
pub fn run_rep(
    workload: &Workload,
    settings: Settings,
    shards: usize,
    tracer: &mut Tracer,
) -> Result<Rep, String> {
    let first_span = tracer.spans().len();
    tracer.set_seed(settings.seed);
    let rep_span = tracer.open(SPAN_REP);

    let (inputs, first_world, setup_s) = set_up(workload, settings, tracer)?;
    let scenario = &inputs.scenario;
    let mut world = Some(first_world);

    let mut rep = Rep {
        setup_s,
        wall_s: 0.0,
        cpu_s: 0.0,
        runs: Vec::with_capacity(inputs.plan.runs as usize),
        counts: Counts::default(),
        reliability: 0.0,
        bandwidth_kb_per_node: 0.0,
        spans: first_span..first_span,
    };
    let mut point = ExperimentPoint::new();
    for (index, seed) in inputs.plan.seeds().enumerate() {
        tracer.set_seed(seed);
        let seed_span = tracer.open(SPAN_SEED);
        let started = (Instant::now(), cpu_seconds());
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<RunReport, String> {
            let world = match &mut world {
                Some(world) => {
                    if index > 0 {
                        tracer.span(SPAN_RESET, || world.reset(seed));
                    }
                    world
                }
                // The previous seed-run failed and took its world with it.
                empty => {
                    empty.insert(World::new(scenario.clone(), seed).map_err(|err| err.to_string())?)
                }
            };
            world.set_shards(shards);
            Ok(run_seed(world, tracer, index == 0))
        }));
        rep.wall_s += started.0.elapsed().as_secs_f64();
        rep.cpu_s += cpu_seconds() - started.1;
        rep.runs.push(
            match outcome.unwrap_or_else(|payload| Err(panic_cause(payload))) {
                Ok(report) => {
                    let world = world.as_ref().expect("a report came from a world");
                    rep.counts.add(&report, world);
                    tracer.span(SPAN_RENDER, || point.add(&report));
                    Ok(outcome_of(&report))
                }
                Err(cause) => {
                    world = None;
                    Err(format!("seed {seed}: {cause}"))
                }
            },
        );
        // A panic may have left spans open below this one.
        tracer.close_down_to(seed_span);
    }
    rep.reliability = point.reliability().mean;
    rep.bandwidth_kb_per_node = point.bandwidth_kb().mean;
    tracer.span(SPAN_RENDER, || {
        let mut table = DataTable::new(
            workload.name,
            "scenario",
            vec!["reliability".to_owned(), "bandwidth_kb".to_owned()],
        );
        table.push_row(
            scenario.label.clone(),
            vec![rep.reliability, rep.bandwidth_kb_per_node],
        );
        std::hint::black_box(table.to_markdown());
    });
    tracer.close(rep_span);
    rep.spans.end = tracer.spans().len();
    Ok(rep)
}

/// Counts seed-runs and the ones that fail any check.
#[derive(Debug, Default)]
pub struct Gate {
    /// Fingerprints captured on this commit at the default seed.
    expected: Option<Vec<u64>>,
    /// Fingerprints of the first repetition checked; later ones must match.
    reference: Option<Vec<Option<u64>>>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the person reading the output.
    pub causes: Vec<String>,
}

impl Gate {
    pub fn new(expected: Option<Vec<u64>>) -> Self {
        Gate {
            expected,
            ..Gate::default()
        }
    }

    fn fail(&mut self, cause: String) {
        self.failed += 1;
        if self.causes.len() < 8 {
            self.causes.push(cause);
        }
    }

    /// Checks every seed-run of one repetition. `what` names the repetition
    /// in failure messages. A seed-run fails if it returned no report, broke
    /// the delivery invariant, differs from the same seed in the first
    /// repetition checked (which is how a sharded or stepped run is held to
    /// the plain one), or differs from the fingerprint on file.
    pub fn check(&mut self, what: &str, runs: &[Result<SeedOutcome, String>]) {
        let reference = self
            .reference
            .get_or_insert_with(|| {
                runs.iter()
                    .map(|run| run.as_ref().ok().map(|o| o.fingerprint))
                    .collect()
            })
            .clone();
        for (index, run) in runs.iter().enumerate() {
            self.attempted += 1;
            let problem = match run {
                Err(cause) => Some(cause.clone()),
                Ok(outcome) if outcome.over_delivered => {
                    Some("an event has delivered > subscribers".to_owned())
                }
                Ok(outcome) => {
                    let print = outcome.fingerprint;
                    let on_file = self.expected.as_ref().map(|e| e.get(index).copied());
                    if reference.get(index) != Some(&Some(print)) {
                        Some(format!(
                            "fingerprint {print:#018x} differs from the first repetition's"
                        ))
                    } else if on_file.is_some_and(|e| e != Some(print)) {
                        Some(format!(
                            "fingerprint {print:#018x} differs from the expected file"
                        ))
                    } else {
                        None
                    }
                }
            };
            if let Some(problem) = problem {
                self.fail(format!("{what}, run {index}: {problem}"));
            }
        }
    }
}

fn expected_path(workload: &Workload) -> PathBuf {
    [BENCH_DIR, "expected", &format!("{}.json", workload.inputs)]
        .iter()
        .collect()
}

/// The fingerprints on file for `workload`, which hold at the default seed
/// and full size only. A capturing run is about to write them instead.
pub fn read_expected(
    workload: &Workload,
    settings: Settings,
    capturing: bool,
) -> Result<Option<Vec<u64>>, String> {
    if settings.seed != DEFAULT_SEED || settings.smoke || capturing {
        return Ok(None);
    }
    let path = expected_path(workload);
    let malformed = || format!("{}: not an expected-fingerprints file", path.display());
    let text = std::fs::read_to_string(&path)
        .map_err(|err| format!("cannot read {}: {err} (run with --capture)", path.display()))?;
    let doc = Json::parse(&text).map_err(|err| format!("{}: {err}", path.display()))?;
    doc.get("fingerprints")
        .and_then(Json::as_array)
        .ok_or_else(malformed)?
        .iter()
        .map(|item| {
            item.as_str()
                .and_then(|hex| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok())
                .ok_or_else(malformed)
        })
        .collect::<Result<Vec<u64>, String>>()
        .map(Some)
}

/// Writes the fingerprints of `rep` as the expected file of `workload`.
pub fn write_expected(workload: &Workload, rep: &Rep) -> Result<(), String> {
    let fingerprints = rep
        .runs
        .iter()
        .map(|run| match run {
            Ok(outcome) => Ok(Json::from(format!("{:#018x}", outcome.fingerprint))),
            Err(cause) => Err(format!("cannot capture a failed run: {cause}")),
        })
        .collect::<Result<Vec<Json>, String>>()?;
    let doc = Json::object([
        ("inputs", Json::from(workload.inputs)),
        ("seed", Json::from(DEFAULT_SEED)),
        ("reliability", Json::from(rep.reliability)),
        (
            "bandwidth_kb_per_node",
            Json::from(rep.bandwidth_kb_per_node),
        ),
        ("fingerprints", Json::Array(fingerprints)),
    ]);
    let path = expected_path(workload);
    std::fs::write(&path, doc.pretty())
        .map_err(|err| format!("cannot write {}: {err}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(fingerprint: u64) -> Result<SeedOutcome, String> {
        Ok(SeedOutcome {
            fingerprint,
            over_delivered: false,
        })
    }

    #[test]
    fn gate_passes_repetitions_that_agree_with_each_other_and_the_file() {
        let mut gate = Gate::new(Some(vec![1, 2]));
        gate.check("first", &[ok(1), ok(2)]);
        gate.check("second", &[ok(1), ok(2)]);
        assert_eq!((gate.attempted, gate.failed), (4, 0));
    }

    #[test]
    fn gate_counts_each_kind_of_failure_once_per_seed_run() {
        let mut gate = Gate::new(Some(vec![1, 9]));
        // Run 1 differs from the file.
        gate.check("first", &[ok(1), ok(2)]);
        assert_eq!(gate.failed, 1);
        // Run 0 differs from the first repetition; run 1 returned no report.
        gate.check("second", &[ok(5), Err("seed 2: panicked: boom".to_owned())]);
        assert_eq!((gate.attempted, gate.failed), (4, 3));
        let over = Ok(SeedOutcome {
            fingerprint: 1,
            over_delivered: true,
        });
        gate.check("third", &[over, ok(2)]);
        assert_eq!((gate.attempted, gate.failed), (6, 5));
        assert!(gate.causes[1].contains("first repetition"));
        assert!(gate.causes[2].contains("boom"));
    }

    #[test]
    fn a_failed_reference_run_fails_later_runs_of_that_seed_too() {
        let mut gate = Gate::new(None);
        gate.check("first", &[Err("seed 1: panicked".to_owned())]);
        gate.check("second", &[ok(3)]);
        assert_eq!((gate.attempted, gate.failed), (2, 2));
    }

    #[test]
    fn panic_payloads_become_causes() {
        let caught = catch_unwind(|| panic!("worker {} died", 3)).unwrap_err();
        assert_eq!(panic_cause(caught), "panicked: worker 3 died");
    }

    #[test]
    fn smoke_cut_keeps_the_neighbour_density() {
        let settings = Settings {
            seed: DEFAULT_SEED,
            smoke: false,
        };
        // Tests run from the package directory; the harness from the root.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
        let workload = find("frugal_10k").unwrap();
        let full = load(workload, settings).unwrap();
        let smoke = load(
            workload,
            Settings {
                smoke: true,
                ..settings
            },
        )
        .unwrap();
        let density = |inputs: &Inputs| match &inputs.scenario.mobility {
            MobilityKind::RandomWaypoint { area, .. } => {
                inputs.scenario.node_count as f64 / area.surface_m2()
            }
            other => panic!("unexpected mobility {other:?}"),
        };
        assert_eq!(smoke.scenario.node_count, full.scenario.node_count / 10);
        assert!((density(&smoke) / density(&full) - 1.0).abs() < 1e-9);
        assert_eq!(smoke.plan.runs, 1);
    }
}
