//! Cross-crate integration tests: the quick figure files regenerate the
//! paper's figures (at smoke-test scale) as well-formed tables, and files
//! under `tests/figures/` that narrow them to the seeds and cells of a claim
//! show the paper's qualitative trends.

use manet_sim::{compile_path, run_matrix, DataTable};

/// Runs `file`, a path from the repository root, and returns its tables.
fn run(file: &str) -> Vec<DataTable> {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let matrix = compile_path(path, &[]).unwrap_or_else(|err| panic!("{file}: {err}"));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_matrix(&matrix, workers).unwrap()
}

#[test]
fn fig11_quick_sweep_has_the_expected_shape() {
    let tables = run("figures/fig11.quick.toml");
    assert_eq!(tables.len(), 1, "one table per subscriber fraction");
    let table = &tables[0];
    assert_eq!(table.rows().len(), 3, "one row per speed");
    assert_eq!(table.columns().len(), 2, "one column per validity");
    for (_, values) in table.rows() {
        for value in values {
            assert!(
                (0.0..=1.0).contains(value),
                "reliability must be a probability"
            );
        }
    }
}

#[test]
fn fig11_mobility_helps_a_sparse_network() {
    // The paper's key qualitative point: static nodes in a sparse network
    // cannot spread the event far, mobility carries it around.
    let table = &run("tests/figures/fig11_mobility.toml")[0];
    let static_r = table.value("0", "validity 90s").unwrap();
    let mobile_r = table.value("20", "validity 90s").unwrap();
    assert!(
        mobile_r >= static_r,
        "mobility must not hurt dissemination (static={static_r}, mobile={mobile_r})"
    );
}

#[test]
fn fig12_quick_sweep_produces_a_full_grid() {
    let table = &run("figures/fig12.quick.toml")[0];
    assert_eq!(table.rows().len(), 2);
    assert_eq!(table.columns().len(), 2);
    assert!(table.value("40", "20% subscribers").is_some());
    assert!(table.value("120", "80% subscribers").is_some());
}

#[test]
fn city_figures_are_generated_with_consistent_rows() {
    let f13 = run("figures/fig13.quick.toml");
    assert_eq!(f13[0].rows().len(), 2);

    let f14_15 = run("figures/fig14_15.quick.toml");
    let (f14, f15) = (&f14_15[0], &f14_15[1]);
    assert_eq!(f14.rows().len(), 2);
    assert_eq!(f15.rows().len(), 2);
    // Spread is a difference of reliabilities, also within [0, 1].
    for (_, values) in f15.rows() {
        assert!((0.0..=1.0).contains(&values[0]));
    }

    let f16 = run("figures/fig16.quick.toml");
    assert_eq!(f16[0].rows().len(), 2);
}

#[test]
fn frugality_tables_show_the_headline_orderings() {
    let tables = run("tests/figures/frugality_4_events.toml");
    let [bandwidth_kb, events_sent, duplicates, parasites] = &tables[..] else {
        panic!("Figs. 17-20 are four tables of one run")
    };
    let row = "4 events / 60%";

    let frugal_sent = events_sent.value(row, "frugal").unwrap();
    let simple_sent = events_sent.value(row, "simple-flooding").unwrap();
    assert!(
        simple_sent > frugal_sent * 5.0,
        "fig 18 ordering: flooding sends far more events ({simple_sent} vs {frugal_sent})"
    );

    let frugal_dup = duplicates.value(row, "frugal").unwrap();
    let interests_dup = duplicates.value(row, "interests-aware-flooding").unwrap();
    assert!(
        interests_dup > frugal_dup,
        "fig 19 ordering: even the best flooding variant causes more duplicates ({interests_dup} vs {frugal_dup})"
    );

    let frugal_bw = bandwidth_kb.value(row, "frugal").unwrap();
    let simple_bw = bandwidth_kb.value(row, "simple-flooding").unwrap();
    assert!(
        simple_bw > frugal_bw,
        "fig 17 ordering: flooding consumes more bandwidth ({simple_bw} vs {frugal_bw})"
    );

    let frugal_par = parasites.value(row, "frugal").unwrap();
    let simple_par = parasites.value(row, "simple-flooding").unwrap();
    assert!(
        simple_par >= frugal_par,
        "fig 20 ordering: flooding delivers at least as many parasites ({simple_par} vs {frugal_par})"
    );
}

#[test]
fn ablation_study_runs_and_ranks_variants() {
    let table = &run("figures/ablation.quick.toml")[0];
    assert_eq!(table.rows().len(), 6, "one row per variant");
    for (_, values) in table.rows() {
        assert!((0.0..=1.0).contains(&values[0]), "reliability column");
        assert!(values[1] > 0.0, "bandwidth column must be positive");
    }
}
