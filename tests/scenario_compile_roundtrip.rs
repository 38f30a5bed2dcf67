//! Round-trip tests for the declarative scenario compiler.
//!
//! Every `.toml` shipped in `examples/` must compile to a [`Scenario`] equal
//! to its hard-coded builder twin — the config file and the Rust code are two
//! spellings of the same experiment, and these tests keep them from drifting.
//! A golden fingerprint further pins that a compiled scenario *simulates*
//! identically to the hard-coded path, and the malformed-config tests pin the
//! error messages a config author actually sees.

use frugal::{FloodingPolicy, ProtocolConfig};
use manet_sim::{
    compile_path, compile_str, compile_str_with_sweeps, MobilityKind, ProtocolKind, Publication,
    PublisherChoice, Scenario, ScenarioBuilder, SeedPlan, SweepAxis, World,
};
use mobility::Area;
use netsim::RadioConfig;
use simkit::{SimDuration, SimTime};

/// FNV-1a hash of a report's debug representation (same construction as the
/// determinism suite): two reports hash equal iff they are bit-identical.
fn fingerprint(report: &manet_sim::RunReport) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{report:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The frugal scenario of `examples/quickstart.rs`, builder-constructed.
fn quickstart_twin(protocol: ProtocolKind) -> Scenario {
    ScenarioBuilder::new()
        .label("quickstart")
        .protocol(protocol)
        .nodes(20)
        .subscriber_fraction(0.8)
        .mobility(MobilityKind::RandomWaypoint {
            area: Area::square(800.0),
            speed_min: 5.0,
            speed_max: 15.0,
            pause: SimDuration::from_secs(1),
        })
        .radio(RadioConfig::paper_random_waypoint())
        .timing(SimDuration::from_secs(5), SimDuration::from_secs(65))
        .publications(vec![Publication {
            publisher: PublisherChoice::RandomSubscriber,
            topic: ".news.local".parse().unwrap(),
            at: SimTime::from_secs(6),
            validity: SimDuration::from_secs(59),
            payload_bytes: 400,
        }])
        .build()
        .unwrap()
}

fn example(name: &str) -> String {
    format!("{}/examples/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn quickstart_toml_compiles_to_the_builder_twin() {
    let matrix = compile_path(example("quickstart.toml"), &[]).unwrap();
    assert_eq!(matrix.label, "quickstart");
    assert_eq!(matrix.seeds, SeedPlan::new(42, 3));
    assert_eq!(matrix.points.len(), 1);
    let twin = quickstart_twin(ProtocolKind::Frugal(ProtocolConfig::paper_default()));
    assert_eq!(matrix.points[0].scenario, twin);
}

#[test]
fn quickstart_flooding_toml_compiles_to_the_builder_twin() {
    let matrix = compile_path(example("quickstart_flooding.toml"), &[]).unwrap();
    assert_eq!(matrix.points.len(), 1);
    let twin = quickstart_twin(ProtocolKind::Flooding(FloodingPolicy::Simple));
    assert_eq!(matrix.points[0].scenario, twin);
}

#[test]
fn paper_random_waypoint_toml_compiles_to_scenario_builder_new() {
    let matrix = compile_path(example("paper_random_waypoint.toml"), &[]).unwrap();
    assert_eq!(matrix.seeds, SeedPlan::new(1, 30));
    assert_eq!(matrix.points.len(), 1);
    let twin = ScenarioBuilder::new().build().unwrap();
    assert_eq!(matrix.points[0].scenario, twin);
}

#[test]
fn paper_city_section_toml_compiles_to_scenario_builder_city() {
    let matrix = compile_path(example("paper_city_section.toml"), &[]).unwrap();
    assert_eq!(matrix.seeds, SeedPlan::new(1, 30));
    assert_eq!(matrix.points.len(), 1);
    let twin = ScenarioBuilder::city().build().unwrap();
    assert_eq!(matrix.points[0].scenario, twin);
}

/// Golden fingerprint of the compiled quickstart scenario at seed 42. If this
/// moves, either the compiler no longer reproduces the hard-coded scenario or
/// the simulator itself changed behaviour — both must be deliberate.
const QUICKSTART_SEED42_FINGERPRINT: u64 = 0x285d_a779_8f46_f114;

#[test]
fn compiled_quickstart_simulates_identically_to_the_hard_coded_path() {
    let matrix = compile_path(example("quickstart.toml"), &[]).unwrap();
    let compiled = World::new(matrix.points[0].scenario.clone(), 42)
        .unwrap()
        .run();
    let hard_coded = World::new(
        quickstart_twin(ProtocolKind::Frugal(ProtocolConfig::paper_default())),
        42,
    )
    .unwrap()
    .run();
    assert_eq!(compiled, hard_coded);
    assert_eq!(
        fingerprint(&compiled),
        QUICKSTART_SEED42_FINGERPRINT,
        "golden fingerprint moved: fingerprint(&compiled) = {:#018x}",
        fingerprint(&compiled)
    );
}

// ---------------------------------------------------------------------------
// Malformed configs: the error a config author actually sees.
// ---------------------------------------------------------------------------

const MINIMAL_OK: &str = r#"
[scenario]
label = "t"
nodes = 6
subscriber_fraction = 1.0
warmup_s = 1.0
duration_s = 10.0

[protocol]
kind = "frugal"

[mobility]
model = "random-waypoint"
width_m = 200.0
height_m = 200.0
speed_min_mps = 5.0
speed_max_mps = 5.0
pause_s = 1.0

[radio]
preset = "ideal"
range_m = 100.0
"#;

#[test]
fn minimal_document_compiles() {
    let matrix = compile_str(MINIMAL_OK).unwrap();
    assert_eq!(matrix.points.len(), 1);
    assert_eq!(matrix.seeds, SeedPlan::quick());
}

#[test]
fn unknown_key_is_rejected_with_position_and_expectations() {
    let source = MINIMAL_OK.replace("nodes = 6", "nodez = 6");
    let err = compile_str(&source).unwrap_err();
    assert!(
        err.to_string().contains("unknown key `nodez`"),
        "got: {err}"
    );
    assert!(err.to_string().contains("expected one of"), "got: {err}");
    assert!(err.pos.is_some(), "unknown keys must carry a position");
}

#[test]
fn out_of_range_fraction_is_rejected() {
    let source = MINIMAL_OK.replace("subscriber_fraction = 1.0", "subscriber_fraction = 1.5");
    let err = compile_str(&source).unwrap_err();
    assert!(
        err.to_string()
            .contains("`subscriber_fraction` must be within [0, 1], got 1.5"),
        "got: {err}"
    );
}

#[test]
fn zero_nodes_is_rejected() {
    let source = MINIMAL_OK.replace("nodes = 6", "nodes = 0");
    let err = compile_str(&source).unwrap_err();
    assert!(
        err.to_string().contains("`nodes` must be at least 1"),
        "got: {err}"
    );
}

#[test]
fn oversized_node_count_is_a_positioned_error_not_a_panic() {
    let source = MINIMAL_OK.replace("nodes = 6", "nodes = 5000000000");
    let err = compile_str(&source).unwrap_err();
    assert!(
        err.to_string()
            .contains("4:9: [scenario] `nodes` must be a non-negative integer"),
        "got: {err}"
    );
}

#[test]
fn zero_seed_runs_are_rejected() {
    let source = format!("{MINIMAL_OK}\n[seeds]\nruns = 0\n");
    let err = compile_str(&source).unwrap_err();
    assert!(
        err.to_string().contains("`runs` must be at least 1"),
        "got: {err}"
    );
    assert!(err.pos.is_some(), "the key's position is reported");
}

/// A malformed axis, table or `extends` is a positioned error, not a panic.
#[test]
fn malformed_figure_files_are_positioned_errors() {
    let axes = "[[sweep]]\nparam = \"nodes\"\nvalues = [4, 6]\n\
                [[sweep]]\nparam = \"subscriber_fraction\"\nvalues = [0.5, 1.0]\n\
                [[sweep]]\nparam = \"mobility.pause_s\"\nvalues = [1]\npool = true\n\
                [[table]]\ntitle = \"t\"\nrow_header = \"r\"\n";
    let zipped = "[[sweep]]\nparam = [\"radio.range_m\", \"x\"]\nvalues = [[9, 1], [8]]";
    for (tail, fragment) in [
        ("rows = [\"nodez\"]", "unknown axis `nodez`"),
        (
            "rows = [\"nodes\"]\ncolumns = \"subscriber_fraction\"\ncell = \"speed\"",
            "unknown metric `speed`",
        ),
        (
            "rows = [\"nodes\"]\ncolumns = []",
            "`columns` must not be empty",
        ),
        (
            "rows = [\"nodes\"]\ncolumns = [\"ci95\"]",
            "`subscriber_fraction` must be one row, the column",
        ),
        (
            "split = \"mobility.pause_s\"",
            "axis `mobility.pause_s` is pooled into each cell",
        ),
        (
            "[[sweep]]\nparam = \"x\"\nvalues = [1, 2]\nlabels = [\"a\"]",
            "`labels` names 1 cases, but",
        ),
        (zipped, "each value must be a list of 2, one per `param`"),
    ] {
        let err = compile_str(&format!("{MINIMAL_OK}{axes}{tail}\n")).unwrap_err();
        assert!(
            err.message.contains(fragment) && err.pos.is_some(),
            "{fragment}: {err}"
        );
    }
    let err = compile_str(&format!("extends = \"base.toml\"\n{MINIMAL_OK}")).unwrap_err();
    assert!(err.message.contains("only `compile_path` resolves") && err.pos.is_some());
    // A cycle through two files names the file that closes it.
    let cycle = format!("{}/tests/figures/cycle_a.toml", env!("CARGO_MANIFEST_DIR"));
    let err = compile_path(cycle, &[]).unwrap_err();
    assert!(err.message.contains("closes a cycle"), "{err}");
    assert!(err.to_string().contains("cycle_b.toml: 2:11: "), "{err}");
}

/// The schema walk-through of `examples/README.md` is the documentation a
/// config author copies from: it must keep compiling as the schema moves.
#[test]
fn readme_schema_example_compiles() {
    let readme = std::fs::read_to_string(example("README.md")).unwrap();
    let (_, rest) = readme.split_once("```toml\n").expect("a toml block");
    let (block, _) = rest.split_once("```").expect("a closing fence");
    let matrix = compile_str(block).unwrap_or_else(|err| panic!("README example: {err}"));
    assert_eq!(matrix.label, "my-experiment");
    assert_eq!(matrix.points.len(), 3);
}

// ---------------------------------------------------------------------------
// Sweep axes and the sharded engine.
// ---------------------------------------------------------------------------

#[test]
fn cli_sweep_axes_expand_the_matrix() {
    let axes = vec!["nodes=4,6".parse::<SweepAxis>().unwrap()];
    let matrix = compile_str_with_sweeps(MINIMAL_OK, &axes).unwrap();
    assert_eq!(matrix.points.len(), 2);
    assert_eq!(matrix.points[0].label, "nodes=4");
    assert_eq!(matrix.points[0].scenario.node_count, 4);
    assert_eq!(matrix.points[1].label, "nodes=6");
    assert_eq!(matrix.points[1].scenario.node_count, 6);
}

#[test]
fn compiled_scenario_runs_bit_identically_on_two_shards() {
    let matrix = compile_path(example("quickstart.toml"), &[]).unwrap();
    let twin = quickstart_twin(ProtocolKind::Frugal(ProtocolConfig::paper_default()));
    for seed in [42u64, 43] {
        let mut world = World::new(matrix.points[0].scenario.clone(), seed).unwrap();
        world.set_shards(2);
        let direct = World::new(twin.clone(), seed).unwrap().run();
        assert_eq!(world.run(), direct, "seed {seed}");
    }
}
