//! The paper's experiments as tests over the figure files: each paper file
//! under `figures/` holds the settings of Section 5, its `*.quick.toml` twin
//! scales it down, and running a quick file (or a `tests/figures/` file
//! that narrows one to the seeds and cells of a claim) through the one
//! compile → run → table path gives well-formed tables with the paper's
//! qualitative trends.

use frugal::ProtocolConfig;
use manet_sim::{compile_path, run_matrix, CompiledMatrix, DataTable, MobilityKind};
use manet_sim::{ProtocolKind, Scenario};
use simkit::SimDuration;

/// Compiles `file`, a path from the repository root.
fn compile(file: &str) -> CompiledMatrix {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    compile_path(path, &[]).unwrap_or_else(|err| panic!("{file}: {err}"))
}

/// Runs `file` and returns its tables.
fn run(file: &str) -> Vec<DataTable> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_matrix(&compile(file), workers, 1).unwrap()
}

/// The distinct values of `value` over the scenarios of `matrix`, in order.
fn distinct<T: PartialEq>(matrix: &CompiledMatrix, value: impl Fn(&Scenario) -> T) -> Vec<T> {
    let mut values = Vec::new();
    for point in &matrix.points {
        let value = value(&point.scenario);
        if !values.contains(&value) {
            values.push(value);
        }
    }
    values
}

fn frugal(scenario: &Scenario) -> &ProtocolConfig {
    match &scenario.protocol {
        ProtocolKind::Frugal(config) => config,
        other => panic!("{}: not the frugal protocol", other.name()),
    }
}

fn speeds(scenario: &Scenario) -> (f64, f64) {
    match scenario.mobility {
        MobilityKind::RandomWaypoint {
            speed_min,
            speed_max,
            ..
        } => (speed_min, speed_max),
        _ => panic!("not random waypoint"),
    }
}

fn validity(scenario: &Scenario) -> SimDuration {
    scenario.publications[0].validity
}

fn assert_probability(value: Option<f64>) {
    let value = value.unwrap();
    assert!((0.0..=1.0).contains(&value), "{value} is not a probability");
}

mod tests {
    use super::*;

    #[test]
    fn shared_builder_scales_with_effort() {
        for name in ["fig11", "fig12", "ablation"] {
            let quick = compile(&format!("figures/{name}.quick.toml"));
            let paper = compile(&format!("figures/{name}.toml"));
            let (small, full) = (&quick.points[0].scenario, &paper.points[0].scenario);
            assert!(small.node_count < full.node_count, "{name}");
            assert!(small.warmup < full.warmup, "{name}");
            assert_eq!(full.node_count, 150, "{name}");
            assert_eq!(full.warmup, SimDuration::from_secs(600), "{name}");
            for point in quick.points.iter().chain(&paper.points) {
                let scenario = &point.scenario;
                assert_eq!(scenario.publications.len(), 1, "{name}");
                assert_eq!(scenario.duration, scenario.warmup + validity(scenario));
            }
        }
    }
}

mod ablation {
    mod tests {
        use super::super::*;

        #[test]
        fn default_variants_cover_the_design_knobs() {
            let matrix = compile("figures/ablation.toml");
            let variants: Vec<_> = matrix.points.iter().map(|p| frugal(&p.scenario)).collect();
            assert_eq!(variants.len(), 6);
            assert!(variants.iter().any(|v| !v.adapt_to_speed));
            assert!(variants.iter().any(|v| v.bo_jitter_fraction == 0.0));
            assert!(variants.iter().any(|v| v.departed_memory_capacity == 0));
            assert!(variants.iter().any(|v| v.event_table_capacity == 2));
            assert!(variants
                .iter()
                .any(|v| v.hb_upper_bound == SimDuration::from_secs(5)));
            assert_eq!(matrix.seeds.runs, 30);
        }

        #[test]
        fn ablation_produces_one_row_per_variant() {
            let tables = run("figures/ablation.quick.toml");
            assert_eq!(tables.len(), 1);
            assert_eq!(tables[0].rows().len(), 6);
            assert_probability(tables[0].value("paper defaults", "reliability"));
            let bandwidth = tables[0].value("paper defaults", "bandwidth [kB/process]");
            assert!(bandwidth.unwrap() > 0.0);
        }

        #[test]
        fn sparser_heartbeats_do_not_increase_bandwidth() {
            let table = &run("tests/figures/ablation_heartbeats.toml")[0];
            let row = &table.rows()[0].0;
            let dense = table.value(row, "hb 1s").unwrap();
            let sparse = table.value(row, "hb 5s").unwrap();
            assert!(
                sparse < dense,
                "beaconing 5x less often must consume less bandwidth ({sparse} vs {dense})"
            );
        }
    }
}

mod city {
    mod tests {
        use super::super::*;

        #[test]
        fn paper_config_matches_section_5() {
            for file in ["fig13", "fig14_15", "fig16"] {
                let matrix = compile(&format!("figures/{file}.toml"));
                assert_eq!(distinct(&matrix, |s| s.node_count), [15], "{file}");
                let publishers = distinct(&matrix, |s| s.publications[0].publisher);
                assert_eq!(publishers.len(), 15, "{file}");
                assert_eq!(matrix.seeds.runs, 30, "{file}");
            }
            let fig13 = compile("figures/fig13.toml");
            assert_eq!(distinct(&fig13, |s| frugal(s).hb_upper_bound).len(), 5);
            let fig14_15 = compile("figures/fig14_15.toml");
            for matrix in [&fig13, &fig14_15] {
                assert_eq!(distinct(matrix, validity), [SimDuration::from_secs(150)]);
            }
        }

        #[test]
        fn fig13_produces_one_row_per_bound() {
            let tables = run("figures/fig13.quick.toml");
            assert_eq!(tables.len(), 1);
            assert_eq!(tables[0].rows().len(), 2);
            assert_probability(tables[0].value("1", "reliability"));
        }

        #[test]
        fn fig14_15_share_rows_and_report_spread() {
            let tables = run("figures/fig14_15.quick.toml");
            let [reliability, spread] = &tables[..] else {
                panic!("Figs. 14 and 15 are two tables of one run")
            };
            let rows = |table: &DataTable| -> Vec<String> {
                table.rows().iter().map(|(row, _)| row.clone()).collect()
            };
            assert_eq!(rows(reliability), ["20", "100"]);
            assert_eq!(rows(spread), rows(reliability));
            assert_probability(reliability.value("100", "reliability"));
            assert_probability(spread.value("100", "reliability spread"));
        }

        #[test]
        fn fig16_longer_validity_helps() {
            let table = &run("tests/figures/fig16_validity.toml")[0];
            let short = table.value("20", "reliability").unwrap();
            let long = table.value("120", "reliability").unwrap();
            assert!(
                long + 0.1 >= short,
                "the paper's crucial trend: validity drives city-section reliability (short={short}, long={long})"
            );
        }
    }
}

mod fig11 {
    mod tests {
        use super::super::*;

        #[test]
        fn quick_sweep_produces_one_table_per_fraction() {
            let tables = run("figures/fig11.quick.toml");
            assert_eq!(tables.len(), 1);
            assert_eq!(tables[0].rows().len(), 3);
            assert_probability(tables[0].value("10", "validity 30s"));
        }

        #[test]
        fn paper_config_matches_section_5() {
            let matrix = compile("figures/fig11.toml");
            let speeds = distinct(&matrix, speeds);
            assert_eq!(speeds.len(), 7);
            assert!(speeds.iter().all(|(min, max)| min == max));
            assert_eq!(distinct(&matrix, |s| s.subscriber_fraction), [0.2, 0.8]);
            assert_eq!(matrix.seeds.runs, 30);
            assert!(distinct(&matrix, validity).contains(&SimDuration::from_secs(180)));
        }

        #[test]
        fn longer_validity_never_hurts_reliability_much() {
            // Sanity on the headline trend: with the same seed set, a 90 s
            // validity must not do markedly worse than a 30 s validity at
            // 10 m/s.
            let table = &run("tests/figures/fig11_validity.toml")[0];
            let short = table.value("10", "validity 30s").unwrap();
            let long = table.value("10", "validity 90s").unwrap();
            assert!(
                long + 0.15 >= short,
                "longer validity should help dissemination (short={short}, long={long})"
            );
        }
    }
}

mod fig12 {
    mod tests {
        use super::super::*;

        #[test]
        fn paper_config_covers_the_published_grid() {
            let matrix = compile("figures/fig12.toml");
            assert_eq!(distinct(&matrix, speeds), [(1.0, 40.0)]);
            assert_eq!(distinct(&matrix, |s| s.subscriber_fraction).len(), 5);
            assert!(distinct(&matrix, validity).contains(&SimDuration::from_secs(120)));
        }

        #[test]
        fn quick_sweep_produces_the_expected_grid() {
            let tables = run("figures/fig12.quick.toml");
            assert_eq!(tables.len(), 1);
            assert_eq!(tables[0].rows().len(), 2);
            assert_probability(tables[0].value("40", "80% subscribers"));
        }

        #[test]
        fn more_subscribers_do_not_hurt_reliability() {
            // The paper's trend: a denser subscriber population helps
            // dissemination.
            let table = &run("tests/figures/fig12_subscribers.toml")[0];
            let sparse = table.value("90", "20% subscribers").unwrap();
            let dense = table.value("90", "100% subscribers").unwrap();
            assert!(
                dense + 0.15 >= sparse,
                "denser subscriber population should not reduce reliability (sparse={sparse}, dense={dense})"
            );
        }
    }
}

mod frugality {
    mod tests {
        use super::super::*;

        const ROW: &str = "3 events / 80%";

        #[test]
        fn paper_config_matches_section_5() {
            let matrix = compile("figures/frugality.toml");
            let events = distinct(&matrix, |s| s.publications.len());
            assert_eq!(events, [1, 5, 10, 15, 20]);
            assert_eq!(distinct(&matrix, |s| s.protocol.name()).len(), 4);
            let measurement = distinct(&matrix, |s| s.duration - s.warmup);
            assert_eq!(measurement, [SimDuration::from_secs(180)]);
            assert_eq!(matrix.seeds.runs, 30);
        }

        #[test]
        fn comparison_produces_all_four_tables() {
            let tables = run("tests/figures/frugality_3_events.toml");
            let [bandwidth, events_sent, duplicates, parasites] = &tables[..] else {
                panic!("Figs. 17-20 are four tables of one run")
            };
            assert_eq!(bandwidth.rows().len(), 1);
            assert_eq!(events_sent.columns().len(), 4);
            for protocol in ["frugal", "simple-flooding"] {
                assert!(bandwidth.value(ROW, protocol).is_some());
                assert!(duplicates.value(ROW, protocol).is_some());
                assert!(parasites.value(ROW, protocol).is_some());
            }
        }

        #[test]
        fn frugal_sends_fewer_events_than_simple_flooding() {
            let tables = run("tests/figures/frugality_3_events.toml");
            let (events_sent, duplicates) = (&tables[1], &tables[2]);
            let frugal = events_sent.value(ROW, "frugal").unwrap();
            let flooding = events_sent.value(ROW, "simple-flooding").unwrap();
            assert!(
                flooding > frugal * 3.0,
                "the frugality claim must hold even at smoke-test scale (frugal={frugal}, flooding={flooding})"
            );
            let frugal_dup = duplicates.value(ROW, "frugal").unwrap();
            let flooding_dup = duplicates.value(ROW, "simple-flooding").unwrap();
            assert!(
                flooding_dup > frugal_dup,
                "flooding must cause more duplicates (frugal={frugal_dup}, flooding={flooding_dup})"
            );
        }
    }
}
