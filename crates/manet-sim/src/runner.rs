//! Multi-seed experiment execution.
//!
//! Every data point of the paper is an average over 30 independent simulation
//! runs. [`run_scenario`] executes one scenario over a set of seeds — in
//! parallel on a chunked work-stealing pool, one thread per available core —
//! and aggregates the reports into an [`ExperimentPoint`]. Long sweeps can
//! observe per-seed completion through
//! [`run_scenario_reports_with_workers`]. [`run_matrix`] runs every point
//! of a compiled scenario file and renders the file's tables. Every entry
//! point runs the one seed pool of serial-loop worlds; a single world's event
//! loop is split across cores only through
//! [`World::set_shards`](crate::World::set_shards).

use crate::output::DataTable;
use crate::report::{ExperimentPoint, RunReport};
use crate::scenario::{Scenario, ScenarioError};
use crate::scenario_compile::CompiledMatrix;
use crate::world::WorldArena;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many seeds to use for one experiment point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedPlan {
    /// First seed (seeds are `first_seed..first_seed + runs`).
    pub first_seed: u64,
    /// Number of runs.
    pub runs: u64,
}

impl SeedPlan {
    /// A cheap smoke-test plan (3 runs), what a scenario file without
    /// `[seeds]` runs.
    pub fn quick() -> Self {
        SeedPlan {
            first_seed: 1,
            runs: 3,
        }
    }

    /// A custom plan.
    pub fn new(first_seed: u64, runs: u64) -> Self {
        SeedPlan { first_seed, runs }
    }

    /// The seeds of this plan.
    ///
    /// A plan whose `first_seed` is close enough to `u64::MAX` that
    /// `first_seed + runs` would overflow is truncated at `u64::MAX` instead of
    /// panicking — seed plans can now come from config files, and a hostile or
    /// typo'd plan must not crash the runner.
    pub fn seeds(&self) -> impl Iterator<Item = u64> + '_ {
        self.first_seed..self.first_seed.saturating_add(self.runs)
    }
}

/// Runs `scenario` once per seed of `plan` and aggregates the results.
///
/// Runs execute in parallel on up to `available_parallelism()` threads; the
/// aggregation is deterministic because every run is keyed by its own seed.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the scenario fails validation.
pub fn run_scenario(scenario: &Scenario, plan: SeedPlan) -> Result<ExperimentPoint, ScenarioError> {
    let reports = run_scenario_reports(scenario, plan)?;
    let mut point = ExperimentPoint::new();
    for report in &reports {
        point.add(report);
    }
    Ok(point)
}

/// Progress notification for one completed seed, handed to the callback of
/// [`run_scenario_reports_with_workers`].
#[derive(Debug, Clone, Copy)]
pub struct SeedProgress<'a> {
    /// The seed whose run just finished.
    pub seed: u64,
    /// Number of seeds finished so far (including this one).
    pub completed: usize,
    /// Total number of seeds in the plan.
    pub total: usize,
    /// The report the run produced.
    pub report: &'a RunReport,
}

/// Runs `scenario` once per seed of `plan` and returns every individual report,
/// ordered by seed.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the scenario fails validation.
pub fn run_scenario_reports(
    scenario: &Scenario,
    plan: SeedPlan,
) -> Result<Vec<RunReport>, ScenarioError> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    run_scenario_reports_with_workers(scenario, plan, workers, |_| {})
}

/// Like [`run_scenario_reports`], but with an explicit number of worker
/// threads (clamped to at least 1 and at most one per seed), and invoking
/// `on_seed` after every completed run (from the worker thread that ran it),
/// so long sweeps can stream progress to a UI or log. Reports are identical
/// for every worker count — seeds fully determine runs and each worker
/// recycles its own world arena — which the integration determinism suite
/// pins across 1, 2 and `available_parallelism()` workers.
///
/// Seeds are distributed over a chunked work-stealing pool: each worker
/// repeatedly claims a contiguous chunk of the seed list through one atomic
/// counter, so threads that draw slow seeds (denser layouts, more collisions)
/// steal less work while fast threads keep the pool busy, and contention on
/// the counter stays low even for plans with thousands of seeds.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the scenario fails validation.
pub fn run_scenario_reports_with_workers<F>(
    scenario: &Scenario,
    plan: SeedPlan,
    workers: usize,
    on_seed: F,
) -> Result<Vec<RunReport>, ScenarioError>
where
    F: Fn(SeedProgress<'_>) + Sync,
{
    scenario.validate()?;
    let seeds: Vec<u64> = plan.seeds().collect();
    if seeds.is_empty() {
        return Ok(Vec::new());
    }
    let workers = workers.max(1).min(seeds.len());
    // Chunks small enough that slow seeds cannot serialize the tail of the
    // sweep, large enough that the atomic counter is touched rarely.
    let chunk_size = (seeds.len() / (workers * 4)).max(1);

    let next_chunk = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<RunReport>>> = Mutex::new(vec![None; seeds.len()]);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // One arena per worker: every seed after the first reuses the
                // previous world's allocations — each node's boxed protocol
                // and mobility state (reset in place), the timer wheel's slot
                // buckets and handle slab (cleared, tombstones compacted, so
                // no dead handles leak across seeds), the medium's grid
                // buckets — instead of rebuilding them.
                let mut arena = WorldArena::new();
                loop {
                    let start = next_chunk.fetch_add(chunk_size, Ordering::Relaxed);
                    if start >= seeds.len() {
                        break;
                    }
                    let end = (start + chunk_size).min(seeds.len());
                    for index in start..end {
                        let seed = seeds[index];
                        let world = arena
                            .checkout(scenario, seed)
                            .expect("scenario validated before spawning workers");
                        let report = world.run_mut();
                        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                        on_seed(SeedProgress {
                            seed,
                            completed: done,
                            total: seeds.len(),
                            report: &report,
                        });
                        results.lock()[index] = Some(report);
                    }
                }
            });
        }
    });

    Ok(results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("every seed produces a report"))
        .collect())
}

/// Runs every point of a compiled matrix over its seed plan with `workers`
/// seed workers, and renders the matrix's tables. Each point's reports join
/// its cell's aggregate in seed order, and the points of a cell in matrix
/// order (so a pooled axis in value order).
///
/// # Errors
///
/// Returns a [`ScenarioError`] if a point's scenario fails validation.
pub fn run_matrix(
    matrix: &CompiledMatrix,
    workers: usize,
) -> Result<Vec<DataTable>, ScenarioError> {
    let mut cells = vec![ExperimentPoint::new(); matrix.cells];
    for point in &matrix.points {
        let reports =
            run_scenario_reports_with_workers(&point.scenario, matrix.seeds, workers, |_| {})?;
        reports
            .iter()
            .for_each(|report| cells[point.cell].add(report));
    }
    Ok(matrix.render(&cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        MobilityKind, ProtocolKind, Publication, PublisherChoice, ScenarioBuilder,
    };
    use crate::world::World;
    use frugal::ProtocolConfig;
    use mobility::Area;
    use netsim::RadioConfig;
    use simkit::{SimDuration, SimTime};

    fn tiny_scenario() -> Scenario {
        ScenarioBuilder::new()
            .label("tiny")
            .nodes(6)
            .subscriber_fraction(1.0)
            .protocol(ProtocolKind::Frugal(ProtocolConfig::paper_default()))
            .mobility(MobilityKind::RandomWaypoint {
                area: Area::square(200.0),
                speed_min: 5.0,
                speed_max: 5.0,
                pause: SimDuration::from_secs(1),
            })
            .radio(RadioConfig::ideal(120.0))
            .timing(SimDuration::from_secs(2), SimDuration::from_secs(22))
            .publications(vec![Publication {
                publisher: PublisherChoice::Node(0),
                topic: ".news.local".parse().unwrap(),
                at: SimTime::from_secs(3),
                validity: SimDuration::from_secs(19),
                payload_bytes: 400,
            }])
            .build()
            .unwrap()
    }

    #[test]
    fn seed_plans_enumerate_expected_seeds() {
        assert_eq!(SeedPlan::quick().seeds().count(), 3);
        let custom = SeedPlan::new(10, 4);
        assert_eq!(custom.seeds().collect::<Vec<_>>(), vec![10, 11, 12, 13]);
    }

    #[test]
    fn seed_plan_near_u64_max_saturates_instead_of_panicking() {
        // Regression: `first_seed + runs` used to overflow (debug panic,
        // release wrap) for plans near u64::MAX, which a config file can now
        // supply.
        let plan = SeedPlan::new(u64::MAX - 2, 10);
        assert_eq!(
            plan.seeds().collect::<Vec<_>>(),
            vec![u64::MAX - 2, u64::MAX - 1]
        );
        let at_max = SeedPlan::new(u64::MAX, 5);
        assert_eq!(at_max.seeds().count(), 0);
    }

    #[test]
    fn run_scenario_aggregates_all_seeds() {
        let scenario = tiny_scenario();
        let point = run_scenario(&scenario, SeedPlan::new(1, 4)).unwrap();
        assert_eq!(point.runs(), 4);
        let r = point.reliability();
        assert!(r.mean >= 0.0 && r.mean <= 1.0);
        assert!(
            point.bandwidth_kb().mean > 0.0,
            "heartbeats consume bandwidth"
        );
    }

    #[test]
    fn reports_are_ordered_by_seed_and_deterministic() {
        let scenario = tiny_scenario();
        let a = run_scenario_reports(&scenario, SeedPlan::new(5, 3)).unwrap();
        let b = run_scenario_reports(&scenario, SeedPlan::new(5, 3)).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.iter().map(|r| r.seed).collect::<Vec<_>>(), vec![5, 6, 7]);
        assert_eq!(a, b, "parallel execution must not change results");
    }

    #[test]
    fn progress_callback_sees_every_seed_exactly_once() {
        let scenario = tiny_scenario();
        let seen = Mutex::new(Vec::new());
        let reports =
            run_scenario_reports_with_workers(&scenario, SeedPlan::new(3, 5), 2, |progress| {
                assert_eq!(progress.total, 5);
                assert!(progress.completed >= 1 && progress.completed <= 5);
                assert_eq!(progress.report.seed, progress.seed);
                seen.lock().push(progress.seed);
            })
            .unwrap();
        let mut seen = seen.into_inner();
        seen.sort_unstable();
        assert_eq!(seen, vec![3, 4, 5, 6, 7]);
        assert_eq!(reports.len(), 5);
    }

    #[test]
    fn chunked_pool_matches_sequential_execution_for_many_seeds() {
        // More seeds than workers × chunks so several steal rounds happen.
        let scenario = tiny_scenario();
        let pooled = run_scenario_reports(&scenario, SeedPlan::new(1, 12)).unwrap();
        assert_eq!(
            pooled.iter().map(|r| r.seed).collect::<Vec<_>>(),
            (1..=12).collect::<Vec<_>>()
        );
        for (offset, report) in pooled.iter().enumerate() {
            let solo = World::new(scenario.clone(), 1 + offset as u64)
                .unwrap()
                .run();
            assert_eq!(*report, solo, "pooled seed {} diverged", report.seed);
        }
    }

    #[test]
    fn worker_count_does_not_change_reports() {
        let scenario = tiny_scenario();
        let sequential =
            run_scenario_reports_with_workers(&scenario, SeedPlan::new(1, 6), 1, |_| {}).unwrap();
        for workers in [2usize, 3, 64] {
            let pooled =
                run_scenario_reports_with_workers(&scenario, SeedPlan::new(1, 6), workers, |_| {})
                    .unwrap();
            assert_eq!(pooled, sequential, "{workers} workers diverged");
        }
        // Zero workers is clamped to one rather than hanging.
        let clamped =
            run_scenario_reports_with_workers(&scenario, SeedPlan::new(1, 2), 0, |_| {}).unwrap();
        assert_eq!(clamped.len(), 2);
    }

    #[test]
    fn empty_plan_yields_empty_results() {
        let scenario = tiny_scenario();
        let reports = run_scenario_reports(&scenario, SeedPlan::new(1, 0)).unwrap();
        assert!(reports.is_empty());
        let point = run_scenario(&scenario, SeedPlan::new(1, 0)).unwrap();
        assert_eq!(point.runs(), 0);
    }

    #[test]
    fn invalid_scenarios_are_rejected_up_front() {
        let mut scenario = tiny_scenario();
        scenario.node_count = 0;
        assert!(run_scenario(&scenario, SeedPlan::quick()).is_err());
    }
}
