//! Command-line contract of `reproduce --scenario`: what the process prints
//! and how it exits, which no library test can see.

use std::process::Command;

fn reproduce(args: &[&str]) -> std::process::Output {
    let quickstart = format!(
        "{}/../../examples/quickstart.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--scenario", &quickstart])
        .args(args)
        .output()
        .expect("the reproduce binary runs")
}

/// `--seeds 0` used to print a row of zeros that read as a measurement.
#[test]
fn zero_seeds_is_a_usage_error() {
    let output = reproduce(&["--seeds", "0"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "no table is printed");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert_eq!(stderr, "--seeds: a seed plan needs at least 1 run\n");
}
