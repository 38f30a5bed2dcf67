//! Command-line contract of `reproduce` and `validate`: what the process
//! prints and how it exits, which no library test can see.

use std::process::{Command, Output};

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .output()
        .expect("the binary runs")
}

/// `reproduce --scenario examples/quickstart.toml ARGS`.
fn reproduce(args: &[&str]) -> Output {
    let quickstart = format!(
        "{}/../../examples/quickstart.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut full = vec!["--scenario", &quickstart];
    full.extend_from_slice(args);
    run(env!("CARGO_BIN_EXE_reproduce"), &full)
}

/// A count of 0 used to print a row of zeros that read as a measurement
/// (`--seeds`), or was silently clamped to 1 (`--workers`).
#[test]
fn zero_seeds_is_a_usage_error() {
    for (flag, diagnostic) in [
        ("--seeds", "--seeds: a seed plan needs at least 1 run\n"),
        ("--workers", "--workers: a run needs at least 1 worker\n"),
    ] {
        let output = reproduce(&[flag, "0"]);
        assert_eq!(output.status.code(), Some(2), "{flag} 0");
        assert!(output.stdout.is_empty(), "{flag} 0: no table is printed");
        assert_eq!(String::from_utf8(output.stderr).unwrap(), diagnostic);
    }
}

/// A seed count of `u64::MAX` used to print the header, then panic with
/// `capacity overflow` when the runner sized its report slots.
#[test]
fn oversized_seed_plan_is_a_usage_error() {
    let output = reproduce(&["--seeds", "18446744073709551615"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "no table is printed");
    assert_eq!(
        String::from_utf8(output.stderr).unwrap(),
        "--seeds: a seed plan runs at most 100000 seeds\n"
    );
}

/// Figure mode used to ignore a misspelt flag or a second experiment and run
/// the smoke-scale figure anyway, and `--scenario` ignored `--paper`, which
/// only picks a figure's file; `--verbose` went with the engine counters it
/// printed, and the shard flag with the runner's shard count (every world
/// runs on one core; seeds run in parallel); `validate` takes no arguments.
#[test]
fn unknown_arguments_are_usage_errors() {
    let reproduce = env!("CARGO_BIN_EXE_reproduce");
    let quickstart = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/quickstart.toml"
    );
    for (binary, args) in [
        (reproduce, &["fig11", "--papr"][..]),
        (reproduce, &["fig11", "fig12"]),
        (reproduce, &["fig11", "--verbose"]),
        (reproduce, &["--scenario", quickstart, "--shards", "2"]),
        (reproduce, &["--scenario", quickstart, "--paper"]),
        (env!("CARGO_BIN_EXE_validate"), &["--paper"]),
    ] {
        let output = run(binary, args);
        assert_eq!(output.status.code(), Some(2), "{binary} {args:?}");
        assert!(
            output.stdout.is_empty(),
            "{binary} {args:?} printed a table"
        );
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert_eq!(stderr.lines().count(), 1, "one-line diagnostic: {stderr}");
    }
}

/// Every figure at smoke scale and every example file prints what it printed
/// before the figures became files under `figures/` (captured then; only the
/// quick Fig. 13 and Fig. 14 titles changed, to the 90 s validity those runs
/// use). `all` holds every table of every quick figure file; the city names
/// check that a name prints its file's tables, or one of them, and every
/// other name prints its tables exactly as `all` does.
#[test]
fn figures_and_examples_reproduce_their_goldens() {
    // From the repository root, as the scenario tables' titles name the file.
    let stdout = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
            .output()
            .expect("the binary runs");
        assert!(output.status.success(), "{args:?}");
        String::from_utf8(output.stdout).unwrap()
    };
    let golden = |name| {
        let path = format!("{}/tests/goldens/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(path).unwrap()
    };
    let example = |name| ["--scenario", name, "--seeds", "2"];
    for (name, args) in [
        ("all.md", &["all"][..]),
        ("all.csv", &["all", "--csv"]),
        ("fig13.md", &["fig13"]),
        ("fig14.md", &["fig14"]),
        ("fig15.md", &["fig15"]),
        ("fig16.md", &["fig16"]),
        ("quickstart.md", &example("examples/quickstart.toml")),
        (
            "quickstart_flooding.md",
            &example("examples/quickstart_flooding.toml"),
        ),
        (
            "paper_random_waypoint.md",
            &example("examples/paper_random_waypoint.toml"),
        ),
        (
            "paper_city_section.md",
            &example("examples/paper_city_section.toml"),
        ),
        (
            "quickstart_sweep.csv",
            &[
                &example("examples/quickstart.toml")[..],
                &["--sweep", "nodes=10,20", "--csv"],
            ]
            .concat(),
        ),
    ] {
        assert_eq!(stdout(args), golden(name), "{args:?}");
    }
    let all = golden("all.md");
    for figure in [
        "fig11",
        "fig12",
        "fig17",
        "fig18",
        "fig19",
        "fig20",
        "frugality",
        "ablation",
    ] {
        let tables = stdout(&[figure]);
        assert!(!tables.is_empty() && all.contains(&tables), "{figure}");
    }
}
