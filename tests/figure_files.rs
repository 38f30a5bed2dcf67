//! The paper's evaluation as data: every file under `figures/` compiles to
//! the scenarios the hand-written experiment loops ran before the figures
//! became files, and the quick files' shape claims hold, run through the
//! one compile → run → table path.

use manet_sim::{compile_path, run_matrix, DataTable};

/// FNV-1a, as the golden fingerprints use it.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn figure(file: &str) -> String {
    format!("{}/figures/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// Each figure file, the number of scenarios it compiles to, and the hash of
/// their ordered list: one line per scenario, the hex FNV-1a of
/// `"{scenario:?}|{seeds:?}\n"` with the label cleared. Captured from the
/// `paper()` and `quick()` configs of the experiment modules and from
/// `validate`'s four spot checks (the `*.spot.toml` files) by a throwaway
/// program at the commit that replaced them with these files.
const SCENARIO_LISTS: [(&str, usize, u64); 18] = [
    ("fig11.toml", 98, 0xee93_e1ba_74c5_441c),
    ("fig11.quick.toml", 6, 0x0ee4_abf5_704d_871e),
    ("fig11.spot.toml", 4, 0xf2a5_a4f2_c375_9e9b),
    ("fig12.toml", 40, 0xfb65_c967_3f38_637f),
    ("fig12.quick.toml", 4, 0x5314_e49f_5f5d_d7dc),
    ("fig13.toml", 75, 0x1273_e3ba_93ad_50b3),
    ("fig13.quick.toml", 6, 0xefcf_ec39_d79c_d790),
    ("fig13.spot.toml", 75, 0xb0b9_9312_6e6b_6a2d),
    ("fig14_15.toml", 75, 0x4cce_52b1_e313_4250),
    ("fig14_15.quick.toml", 6, 0x73e4_1ce1_ed1d_f01f),
    ("fig16.toml", 90, 0x3909_771b_5aeb_025c),
    ("fig16.quick.toml", 6, 0xce9a_1da7_869b_dde7),
    ("fig16.spot.toml", 45, 0xc2d4_8727_0852_f0ad),
    ("frugality.toml", 100, 0x3e54_78d8_ec36_e878),
    ("frugality.quick.toml", 16, 0xba55_5aed_0998_15f4),
    ("frugality.spot.toml", 4, 0xa0b3_6f63_ca21_494a),
    ("ablation.toml", 6, 0xbdc8_d4c1_4b0e_a890),
    ("ablation.quick.toml", 6, 0xa7bd_4538_726d_b574),
];

#[test]
fn figure_files_compile_to_the_pinned_scenario_lists() {
    let files = std::fs::read_dir(figure(""))
        .unwrap()
        .map(|entry| entry.unwrap().file_name());
    let files = files.filter(|name| name.to_string_lossy().ends_with(".toml"));
    assert_eq!(
        files.count(),
        SCENARIO_LISTS.len(),
        "every figure file is pinned"
    );
    for (file, count, expected) in SCENARIO_LISTS {
        let matrix = compile_path(figure(file), &[]).unwrap_or_else(|err| panic!("{file}: {err}"));
        let mut list = String::new();
        for point in &matrix.points {
            let mut scenario = point.scenario.clone();
            scenario.label.clear();
            let line = format!("{scenario:?}|{:?}\n", matrix.seeds);
            list.push_str(&format!("{:016x}\n", fnv(line.as_bytes())));
        }
        assert_eq!(matrix.points.len(), count, "{file}");
        assert_eq!(fnv(list.as_bytes()), expected, "{file}: {list}");
    }
}

/// Runs `file`, a path from the repository root, and returns its tables.
fn run(file: &str) -> Vec<DataTable> {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let matrix = compile_path(path, &[]).unwrap_or_else(|err| panic!("{file}: {err}"));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_matrix(&matrix, workers).unwrap()
}

/// The shape claims on quick Figs. 14, 18 and 19. The trends on the files
/// under `tests/figures/` are checked by the facade's `experiments` tests
/// and `tests/integration_experiments.rs`.
#[test]
fn paper_trends_hold_on_quick_figure_files() {
    // All subscribers do at least as well as 20 %.
    let fig14 = &run("figures/fig14_15.quick.toml")[0];
    let all = fig14.value("100", "reliability").unwrap();
    let fifth = fig14.value("20", "reliability").unwrap();
    assert!(
        all >= fifth,
        "{}: 100% = {all}, 20% = {fifth}",
        fig14.title()
    );
    // On every row frugal sends fewer events and receives fewer duplicates
    // than each flooding variant.
    for table in &run("figures/frugality.quick.toml")[1..=2] {
        for (row, _) in table.rows() {
            let frugal = table.value(row, "frugal").unwrap();
            for flooding in table.columns().iter().filter(|c| *c != "frugal") {
                let value = table.value(row, flooding).unwrap();
                let cells = format!("{row}/{flooding} = {value}, frugal = {frugal}");
                assert!(value > frugal, "{}: {cells}", table.title());
            }
        }
    }
}
