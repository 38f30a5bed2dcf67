//! Every workload in both modes, each run in a process of its own, so that
//! peak memory and CPU time belong to one workload; and the comparison of two
//! such sets of runs of the same build.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, EXACT_EXTRAS, PER_LAYER};
use crate::workload::WORKLOADS;
use crate::{host, Args};
use std::process::{Command, Stdio};

/// The two result lines of one child run.
struct ChildRun {
    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    result: Json,
    /// The `detail` line: host record and the values that are not metrics.
    detail: Json,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn extra(&self, name: &str) -> Option<f64> {
        self.detail.get("extras")?.get(name)?.as_f64()
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
    }
}

/// Both runs of one workload.
struct WorkloadRuns {
    name: &'static str,
    end_to_end: ChildRun,
    per_layer: ChildRun,
}

fn run_child(args: &Args, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot find myself: {err}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    if args.capture && !trace {
        command.arg("--capture");
    }
    let output = command
        .output()
        .map_err(|err| format!("cannot run {workload}: {err}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        ));
    }
    let lines: Vec<&str> = stdout.lines().collect();
    let malformed = |what: &str| format!("{workload}: child printed no {what}");
    let result = lines.last().ok_or_else(|| malformed("result"))?;
    let detail = lines
        .iter()
        .rev()
        .find_map(|line| line.strip_prefix("detail "))
        .ok_or_else(|| malformed("detail line"))?;
    Ok(ChildRun {
        result: Json::parse(result)?,
        detail: Json::parse(detail)?,
    })
}

fn run_set(args: &Args) -> Result<Vec<WorkloadRuns>, String> {
    WORKLOADS
        .iter()
        .map(|workload| {
            Ok(WorkloadRuns {
                name: workload.name,
                end_to_end: run_child(args, workload.name, false)?,
                per_layer: run_child(args, workload.name, true)?,
            })
        })
        .collect()
}

fn set_json(set: &[WorkloadRuns]) -> Json {
    Json::object(set.iter().map(|runs| {
        let mode = |run: &ChildRun| {
            Json::object([
                ("result", run.result.clone()),
                ("detail", run.detail.clone()),
            ])
        };
        let fields = [
            ("end_to_end", mode(&runs.end_to_end)),
            ("per_layer", mode(&runs.per_layer)),
        ];
        (runs.name, Json::object(fields))
    }))
}

/// The bound of every end-to-end metric, from `BENCHMARK.json`.
fn read_bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|err| format!("cannot read BENCHMARK.json: {err}"))?;
    let doc = Json::parse(&text)?;
    let malformed = || "BENCHMARK.json: malformed end_to_end entry".to_owned();
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(malformed)?
        .iter()
        .map(|entry| {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(malformed)?;
            let bound = entry
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(malformed)?;
            Ok((name.to_owned(), bound))
        })
        .collect()
}

fn summary_table(set: &[WorkloadRuns]) {
    println!("\n## Summary");
    print!("{:<20}", "workload");
    for def in &END_TO_END {
        print!(" {:>18}", format!("{} [{}]", def.name, def.unit));
    }
    println!(" {:>14}", "failed/attempted");
    for runs in set {
        print!("{:<20}", runs.name);
        for def in &END_TO_END {
            print!(
                " {:>18.4}",
                runs.end_to_end.metric(def.name).unwrap_or(f64::NAN)
            );
        }
        let count = |run: &ChildRun, key| run.result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            " {:>7}/{}",
            count(&runs.end_to_end, "failed") + count(&runs.per_layer, "failed"),
            count(&runs.end_to_end, "attempted") + count(&runs.per_layer, "attempted"),
        );
    }
}

/// Prints the difference of every metric between two sets of runs. False if
/// an end-to-end metric moved by more than its bound or an exact value moved
/// at all.
fn compare(first: &[WorkloadRuns], second: &[WorkloadRuns]) -> Result<bool, String> {
    let bounds = read_bounds()?;
    let mut agree = true;
    println!("\n## Second set against first");
    println!(
        "{:<20} {:<44} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "change", "bound"
    );
    let mut row =
        |workload: &str, name: &str, a: Option<f64>, b: Option<f64>, bound: Option<f64>| {
            let (Some(a), Some(b)) = (a, b) else { return };
            let change = if a == b { 0.0 } else { (b - a) / a.abs() };
            let verdict = match bound {
                Some(bound) if change.abs() > bound => "OUTSIDE",
                Some(_) => "within",
                None => "",
            };
            agree &= verdict != "OUTSIDE";
            println!(
                "{workload:<20} {name:<44} {a:>16.6} {b:>16.6} {:>8.2}% {:>7}  {verdict}",
                change * 100.0,
                bound.map_or(String::new(), |b| format!("{:.0}%", b * 100.0)),
            );
        };
    for (one, two) in first.iter().zip(second) {
        for (name, bound) in &bounds {
            row(
                one.name,
                name,
                one.end_to_end.metric(name),
                two.end_to_end.metric(name),
                Some(*bound),
            );
        }
        for name in EXACT_EXTRAS {
            row(
                one.name,
                name,
                one.end_to_end.extra(name),
                two.end_to_end.extra(name),
                Some(0.0),
            );
        }
        for MetricDef { name, exact, .. } in PER_LAYER {
            row(
                one.name,
                name,
                one.per_layer.metric(name),
                two.per_layer.metric(name),
                exact.then_some(0.0),
            );
        }
    }
    Ok(agree)
}

/// Runs the suite once, or twice with the comparison. True if every output
/// was correct and, for two sets, they agree.
pub fn run(args: &Args) -> Result<bool, String> {
    let sets: Vec<Vec<WorkloadRuns>> = (0..if args.twice { 2 } else { 1 })
        .map(|_| run_set(args))
        .collect::<Result<_, _>>()?;
    for set in &sets {
        summary_table(set);
    }
    let doc = Json::object([
        ("host", host::record()),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("smoke", Json::from(args.smoke)),
        (
            "sets",
            Json::Array(sets.iter().map(|set| set_json(set)).collect()),
        ),
    ]);
    crate::write_output("results.json", &doc.pretty())?;

    let correct = sets
        .iter()
        .flatten()
        .all(|runs| runs.end_to_end.correct() && runs.per_layer.correct());
    let agree = match sets.as_slice() {
        [first, second] => compare(first, second)?,
        _ => true,
    };
    Ok(correct && agree)
}
