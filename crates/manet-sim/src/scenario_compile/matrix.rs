//! Sweep axes, matrix expansion and the `[[table]]` layouts a run renders.
//!
//! A `[[sweep]]` axis moves one parameter, or several together (`param` a
//! list, one array of values per case). A value is written into the parsed
//! document in place of the file's own and the point is decoded by the one
//! decoder, so a sweep value may be anything the key takes: a number, a
//! protocol `kind`, a boolean knob, a publisher index. `labels` name the
//! cases in tables; `pool = true` folds an axis into each table cell, whose
//! aggregate then takes the reports of every pooled case in order.
//!
//! A `[[table]]` pivots the matrix into one [`DataTable`]: `rows` are axes
//! (their texts joined with `" / "`), `columns` is an axis whose cells show
//! the `cell` metric or a list of metrics, and `split` makes one table per
//! case of an axis, its text replacing `{}` in the title. Every axis that is
//! not pooled must be a row, the column axis or the split. Layouts are
//! resolved to cell indices here, at compile time.

use super::toml::{Pos, Spanned, Table, Value};
use super::{decode_scenario, section_of, CompileError, Sect};
use crate::output::DataTable;
use crate::report::ExperimentPoint;
use crate::runner::SeedPlan;
use crate::scenario::Scenario;
use std::path::Path;
use std::str::FromStr;

/// Hard cap on the experiment-matrix size, so a typo in a sweep axis cannot
/// silently schedule months of simulation.
pub const MAX_MATRIX_POINTS: usize = 4096;

/// One compiled point of the experiment matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixPoint {
    /// The sweep-axis assignments (`"nodes=20, radio.range_m=100"`, or an
    /// axis's label), or the scenario label when there are no sweep axes.
    pub label: String,
    /// The fully validated scenario for this point.
    pub scenario: Scenario,
    /// The table cell whose aggregate takes this point's reports; points
    /// that differ only in pooled axes share one.
    pub(crate) cell: usize,
}

/// The output of the compiler: every scenario of the experiment matrix, the
/// seed plan they all share and the tables a run renders.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledMatrix {
    /// The base scenario label from `[scenario] label`.
    pub label: String,
    /// The seed plan from `[seeds]` (3 runs from seed 1 when omitted).
    pub seeds: SeedPlan,
    /// One point per sweep-axis combination, in axis-major order (the last
    /// axis changing fastest); a single point when the file declares no
    /// sweeps.
    pub points: Vec<MatrixPoint>,
    /// How many cells the points aggregate into.
    pub(crate) cells: usize,
    /// Each table to render: its headers, and per row the label and the
    /// `(cell, metric)` of each column.
    tables: Vec<(DataTable, Rows)>,
}

type Rows = Vec<(String, Vec<(usize, usize)>)>;

impl CompiledMatrix {
    /// Renders the tables from one aggregate per cell.
    pub(crate) fn render(&self, cells: &[ExperimentPoint]) -> Vec<DataTable> {
        let render = |(table, rows): &(DataTable, Rows)| {
            let mut table = table.clone();
            for (label, row) in rows {
                let values = row.iter().map(|&(cell, m)| (METRICS[m].2)(&cells[cell]));
                table.push_row(label.as_str(), values.collect());
            }
            table
        };
        self.tables.iter().map(render).collect()
    }
}

/// One sweep axis from the command line: a parameter name and the values it
/// takes.
///
/// Parameter names are dotted paths into the scenario schema: a bare
/// `[scenario]` key (`nodes`) or `section.key` (`radio.range_m`); a
/// `publication.*` parameter sets every publication. Values are numbers
/// here; a file's `[[sweep]]` may also give strings and booleans.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// The swept parameter, e.g. `"nodes"` or `"radio.range_m"`.
    pub param: String,
    /// The values the parameter takes, one matrix column per value.
    pub values: Vec<f64>,
}

impl FromStr for SweepAxis {
    type Err = String;

    /// Parses the CLI form `param=v1,v2,v3`.
    fn from_str(arg: &str) -> Result<Self, Self::Err> {
        let (param, values) = arg
            .split_once('=')
            .ok_or_else(|| format!("sweep `{arg}` must have the form param=v1,v2,..."))?;
        let param = param.trim();
        if param.is_empty() {
            return Err(format!("sweep `{arg}` has an empty parameter name"));
        }
        let values: Vec<f64> = values
            .split(',')
            .map(|v| {
                v.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("sweep `{param}`: `{v}` is not a number"))
            })
            .collect::<Result<_, _>>()?;
        Ok(SweepAxis {
            param: param.to_owned(),
            values,
        })
    }
}

/// A value from the command line, which has no source position.
fn cli<T>(value: T) -> Spanned<T> {
    let pos = Pos { line: 0, col: 0 };
    Spanned { pos, value }
}

/// A decoded axis: the parameters it moves together and, per case, one
/// value for each of them.
struct Axis {
    params: Vec<Spanned<String>>,
    cases: Vec<Vec<Spanned<Value>>>,
    labels: Option<Vec<String>>,
    pool: bool,
}

impl Axis {
    /// The name a `[[table]]` calls the axis by: its (first) parameter.
    fn name(&self) -> &str {
        &self.params[0].value
    }

    /// What a table shows for case `i`: its label, or its first value.
    fn text(&self, i: usize) -> String {
        match &self.labels {
            Some(labels) => labels[i].clone(),
            None => fmt_value(&self.cases[i][0].value),
        }
    }

    /// What case `i` adds to a point label: its label, or `param=value` for
    /// each parameter.
    fn part(&self, i: usize) -> String {
        if self.labels.is_some() {
            return self.text(i);
        }
        let pairs = self.params.iter().zip(&self.cases[i]);
        let pairs =
            pairs.map(|(param, value)| format!("{}={}", param.value, fmt_value(&value.value)));
        pairs.collect::<Vec<_>>().join(", ")
    }
}

/// Renders an axis value the way it was written (`20`, not `20.0`).
fn fmt_value(value: &Value) -> String {
    match value {
        Value::Float(f) if f.fract() == 0.0 && f.abs() < 1e15 => format!("{}", *f as i64),
        Value::Float(f) => format!("{f}"),
        Value::Int(i) => format!("{i}"),
        Value::Str(text) => text.clone(),
        Value::Bool(flag) => format!("{flag}"),
        other => other.type_name().to_owned(),
    }
}

/// The strings of `key`, written as one string or a list of them; `None`
/// when the key is absent.
fn strings(section: &Sect<'_>, key: &str) -> Result<Option<Vec<Spanned<String>>>, CompileError> {
    let Some(spanned) = section.table.get(key) else {
        return Ok(None);
    };
    let items = match &spanned.value {
        Value::Array(items) => items.as_slice(),
        _ => std::slice::from_ref(spanned),
    };
    let strings = items.iter().map(|item| match &item.value {
        Value::Str(text) => Ok(Spanned {
            pos: item.pos,
            value: text.clone(),
        }),
        _ => Err(section.type_err(key, "string or list of strings", item)),
    });
    let strings: Vec<_> = strings.collect::<Result<_, _>>()?;
    if strings.is_empty() {
        return Err(section.err_at(spanned.pos, format!("`{key}` must not be empty")));
    }
    Ok(Some(strings))
}

/// Decodes the `[[sweep]]` tables and merges the command line's axes: an
/// extra axis replaces the file axis sweeping its parameter and is appended
/// otherwise.
fn decode_axes(doc: &Sect<'_>, extra: &[SweepAxis]) -> Result<Vec<Axis>, CompileError> {
    let mut axes = Vec::new();
    for section in doc.table_array("sweep")? {
        section.check_unknown(["param", "values", "labels", "pool"])?;
        let params = strings(&section, "param")?.ok_or_else(|| section.missing("param"))?;
        let values = section.req("values")?;
        let Value::Array(values) = &values.value else {
            return Err(section.type_err("values", "array", values));
        };
        let arity = params.len();
        let cases = values.iter().map(|case| match &case.value {
            _ if arity == 1 => Ok(vec![case.clone()]),
            Value::Array(zipped) if zipped.len() == arity => Ok(zipped.clone()),
            _ => {
                let message = format!("each value must be a list of {arity}, one per `param`");
                Err(section.err_at(case.pos, message))
            }
        });
        let cases: Vec<_> = cases.collect::<Result<_, _>>()?;
        let labels = strings(&section, "labels")?;
        if let Some(labels) = labels.as_ref().filter(|labels| labels.len() != cases.len()) {
            let (named, given) = (labels.len(), cases.len());
            let message = format!("`labels` names {named} cases, but `values` has {given}");
            return Err(section.err_at(labels[0].pos, message));
        }
        let labels = labels.map(|labels| labels.into_iter().map(|label| label.value).collect());
        let pool = section.opt_bool("pool")?.unwrap_or(false);
        axes.push(Axis {
            params,
            cases,
            labels,
            pool,
        });
    }
    for extra in extra {
        let number = |v: f64| match v.fract() == 0.0 && v.abs() < 1e15 {
            true => Value::Int(v as i64),
            false => Value::Float(v),
        };
        let cases = extra.values.iter().map(|&v| vec![cli(number(v))]);
        let axis = Axis {
            params: vec![cli(extra.param.clone())],
            cases: cases.collect(),
            labels: None,
            pool: false,
        };
        let sweeps = |file: &&mut Axis| file.params.iter().any(|p| p.value == extra.param);
        match axes.iter_mut().find(sweeps) {
            Some(file) => *file = axis,
            None => axes.push(axis),
        }
    }
    let mut swept: Vec<&str> = Vec::new();
    for axis in &axes {
        if axis.cases.is_empty() {
            let message = format!("sweep `{}`: `values` must not be empty", axis.name());
            return Err(CompileError::at(axis.params[0].pos, message));
        }
        for param in &axis.params {
            if swept.contains(&param.value.as_str()) {
                let message = format!("parameter `{}` is swept by more than one axis", param.value);
                return Err(CompileError::at(param.pos, message));
            }
            swept.push(&param.value);
        }
    }
    Ok(axes)
}

/// The metrics a table cell can show: name in a file, column header, and
/// value on the cell's aggregate.
type Metric = (&'static str, &'static str, fn(&ExperimentPoint) -> f64);

const METRICS: [Metric; 7] = [
    ("reliability", "reliability", |p| p.reliability().mean),
    ("ci95", "ci95", |p| p.reliability().ci95_half_width()),
    ("events_sent", "events sent/process", |p| {
        p.events_sent().mean
    }),
    ("duplicates", "duplicates/process", |p| p.duplicates().mean),
    ("parasites", "parasites/process", |p| p.parasites().mean),
    ("bandwidth_kb", "bandwidth [kB/process]", |p| {
        p.bandwidth_kb().mean
    }),
    ("publisher_spread", "reliability spread", |p| {
        p.publisher_reliability_spread()
    }),
];

/// The columns of the table of a file without `[[table]]`, one row per
/// cell: `(header, metric)`.
const SUMMARY: [(&str, usize); 6] = [
    ("reliability", 0),
    ("ci95", 1),
    ("events sent", 2),
    ("duplicates/process", 3),
    ("parasites/process", 4),
    ("bandwidth [kB/process]", 5),
];

/// A column: its header, the `(axis, case)` it pins, if any, and its metric.
type Column = (String, Option<(usize, usize)>, usize);

/// Resolves one table: its headers, and a row per combination of the
/// `rows` axes (the last fastest) named by `name`, each cell found by its
/// coordinates, with `fixed` pinning the split axis.
fn table(
    axes: &[Axis],
    head: [&str; 2],
    rows: &[usize],
    columns: &[Column],
    fixed: Option<(usize, usize)>,
    name: impl Fn(&[(usize, usize)]) -> String,
) -> (DataTable, Rows) {
    let bases: Vec<usize> = rows.iter().map(|&axis| axes[axis].cases.len()).collect();
    let row = |combination| {
        let digits = digits(&bases, combination);
        let assigned: Vec<(usize, usize)> = rows.iter().copied().zip(digits).collect();
        let cells = columns.iter().map(|(_, column, metric)| {
            let mut coords = vec![0; axes.len()];
            for &(axis, case) in assigned.iter().chain(&fixed).chain(column) {
                coords[axis] = case;
            }
            (cell_of(axes, &coords), *metric)
        });
        (name(&assigned), cells.collect())
    };
    let headers = columns.iter().map(|column| column.0.clone()).collect();
    let rows = (0..bases.iter().product()).map(row).collect();
    (DataTable::new(head[0], head[1], headers), rows)
}

/// A row or point name: `name` of each assigned `(axis, case)` joined with
/// `separator`, or `label` when nothing is assigned.
fn join(
    axes: &[Axis],
    assigned: &[(usize, usize)],
    name: fn(&Axis, usize) -> String,
    separator: &str,
    label: &str,
) -> String {
    let names = assigned.iter().map(|&(axis, case)| name(&axes[axis], case));
    let names = names.collect::<Vec<_>>().join(separator);
    if assigned.is_empty() {
        label.to_owned()
    } else {
        names
    }
}

/// `number` as a mixed-radix numeral over `bases`, the last digit fastest.
fn digits(bases: &[usize], mut number: usize) -> Vec<usize> {
    let mut digits = vec![0; bases.len()];
    for (digit, &base) in digits.iter_mut().zip(bases).rev() {
        *digit = number % base;
        number /= base;
    }
    digits
}

/// The cell of the point whose axis `a` takes case `coords[a]`: the
/// coordinates of the axes that are not pooled, read as a mixed-radix
/// numeral.
fn cell_of(axes: &[Axis], coords: &[usize]) -> usize {
    let unpooled = axes.iter().zip(coords).filter(|(axis, _)| !axis.pool);
    unpooled.fold(0, |cell, (axis, &case)| cell * axis.cases.len() + case)
}

/// Decodes the `[[table]]` layouts; none when the file has no `[[table]]`.
fn decode_tables(
    doc: &Sect<'_>,
    axes: &[Axis],
    label: &str,
) -> Result<Vec<(DataTable, Rows)>, CompileError> {
    let mut layouts = Vec::new();
    for section in doc.table_array("table")? {
        section.check_unknown(["title", "row_header", "rows", "columns", "cell", "split"])?;
        let axis = |name: &str, pos| match axes.iter().position(|axis| axis.name() == name) {
            Some(axis) if !axes[axis].pool => Ok(axis),
            Some(_) => Err(section.err_at(pos, format!("axis `{name}` is pooled into each cell"))),
            None => Err(section.err_at(pos, format!("unknown axis `{name}`"))),
        };
        let metric = |name: &str, pos| {
            let metric = METRICS.iter().position(|metric| metric.0 == name);
            metric.ok_or_else(|| section.err_at(pos, format!("unknown metric `{name}`")))
        };
        let (title, _) = section.req_str("title")?;
        let (row_header, _) = section.req_str("row_header")?;
        let rows = strings(&section, "rows")?.unwrap_or_default();
        let rows: Vec<usize> = rows
            .iter()
            .map(|row| axis(&row.value, row.pos))
            .collect::<Result<_, _>>()?;
        let split = section
            .opt_str("split")?
            .map(|(name, pos)| axis(name, pos))
            .transpose()?;
        let columns = section.req("columns")?;
        let (column_axis, columns): (_, Vec<Column>) = match &columns.value {
            Value::Str(name) => {
                let column = axis(name, columns.pos)?;
                let (cell, pos) = section.req_str("cell")?;
                let metric = metric(cell, pos)?;
                let cases = 0..axes[column].cases.len();
                let text = |case| (axes[column].text(case), Some((column, case)), metric);
                (Some(column), cases.map(text).collect())
            }
            _ => {
                if let Some(cell) = section.table.get("cell") {
                    let message = "`cell` applies only when `columns` names an axis";
                    return Err(section.err_at(cell.pos, message));
                }
                let names = strings(&section, "columns")?.unwrap_or_default();
                let metrics = names.iter().map(|name| {
                    let metric = metric(&name.value, name.pos)?;
                    Ok((METRICS[metric].1.to_owned(), None, metric))
                });
                (None, metrics.collect::<Result<_, CompileError>>()?)
            }
        };
        let used = rows.iter().chain(&split).chain(&column_axis);
        let placed = |axis| used.clone().filter(|&&used| used == axis).count() == 1;
        if let Some(axis) = (0..axes.len()).find(|&axis| !axes[axis].pool && !placed(axis)) {
            let name = axes[axis].name();
            let message = format!("axis `{name}` must be one row, the column axis or the split");
            return Err(section.err_at(section.table.pos, message));
        }
        let name = |assigned: &[_]| join(axes, assigned, Axis::text, " / ", label);
        for case in 0..split.map_or(1, |split| axes[split].cases.len()) {
            let fixed = split.map(|split| (split, case));
            let title = match fixed {
                Some((split, case)) => title.replace("{}", &axes[split].text(case)),
                None => title.to_owned(),
            };
            let head = [title.as_str(), row_header];
            layouts.push(table(axes, head, &rows, &columns, fixed, name));
        }
    }
    Ok(layouts)
}

/// Writes one axis value into the document in place of the file's own: a
/// bare key into `[scenario]`, `section.key` into that section, and
/// `publication.key` into every `[[publication]]`.
fn write(
    doc: &mut Table,
    param: &Spanned<String>,
    value: &Spanned<Value>,
) -> Result<(), CompileError> {
    let (section, key) = param
        .value
        .split_once('.')
        .unwrap_or(("scenario", &param.value));
    let key = Spanned {
        pos: param.pos,
        value: key.to_owned(),
    };
    let target = match section {
        "seeds" | "sweep" | "table" => None,
        _ => doc.get_mut(section).map(|spanned| &mut spanned.value),
    };
    match target {
        Some(Value::Table(section)) => section.insert(key, value.clone()),
        Some(Value::Array(publications)) => {
            for publication in publications {
                if let Value::Table(publication) = &mut publication.value {
                    publication.insert(key.clone(), value.clone());
                }
            }
        }
        _ => {
            let message = format!("`{}` names no scenario section of the file", param.value);
            return Err(CompileError::at(param.pos, message));
        }
    }
    Ok(())
}

/// Compiles the axes, points and tables of a document whose base scenario
/// and seed plan are decoded. Each point is the document with its axis
/// values written in, decoded and validated.
pub(super) fn expand(
    doc: &Sect<'_>,
    base: Scenario,
    seeds: SeedPlan,
    extra: &[SweepAxis],
    path: Option<&Path>,
) -> Result<CompiledMatrix, CompileError> {
    let axes = decode_axes(doc, extra)?;
    let bases: Vec<usize> = axes.iter().map(|axis| axis.cases.len()).collect();
    let total = bases.iter().try_fold(1usize, |acc, &n| acc.checked_mul(n));
    let total = total.unwrap_or(usize::MAX);
    if total > MAX_MATRIX_POINTS {
        return Err(CompileError::nowhere(format!(
            "sweep axes expand to {total} matrix points, more than the {MAX_MATRIX_POINTS} cap"
        )));
    }
    let label = base.label.clone();
    let points = if axes.is_empty() {
        base.validate().map_err(|err| {
            let section = section_of(&err);
            let header = doc.table.get(section.trim_matches(['[', ']']));
            let pos = header.map_or(doc.table.pos, |spanned| spanned.pos);
            CompileError::at(pos, format!("{section} {err}"))
        })?;
        let point = MatrixPoint {
            label: label.clone(),
            scenario: base,
            cell: 0,
        };
        vec![point]
    } else {
        let point = |index| {
            let coords = digits(&bases, index);
            let assigned: Vec<(usize, usize)> = coords.iter().copied().enumerate().collect();
            let name = join(&axes, &assigned, Axis::part, ", ", &label);
            let mut point = doc.table.clone();
            let scenario = axes
                .iter()
                .zip(&coords)
                .flat_map(|(axis, &case)| axis.params.iter().zip(&axis.cases[case]))
                .try_for_each(|(param, value)| write(&mut point, param, value))
                .and_then(|()| decode_scenario(&Sect::new("", &point)))
                .map_err(|err| CompileError {
                    message: format!("sweep {name}: {}", err.message),
                    ..err
                })?;
            scenario.validate().map_err(|err| {
                CompileError::nowhere(format!("{name}: {} {err}", section_of(&err)))
            })?;
            let cell = cell_of(&axes, &coords);
            Ok(MatrixPoint {
                label: name,
                scenario,
                cell,
            })
        };
        (0..total).map(point).collect::<Result<_, CompileError>>()?
    };
    let mut tables = decode_tables(doc, &axes, &label)?;
    let unpooled: Vec<usize> = (0..axes.len()).filter(|&axis| !axes[axis].pool).collect();
    let cells = unpooled
        .iter()
        .map(|&axis| axes[axis].cases.len())
        .product();
    if tables.is_empty() {
        let title = match path {
            Some(path) => format!("Scenario `{label}` ({})", path.display()),
            None => format!("Scenario `{label}`"),
        };
        let columns = SUMMARY.map(|(header, metric)| (header.to_owned(), None, metric));
        let name = |assigned: &[_]| join(&axes, assigned, Axis::part, ", ", &label);
        let head = [title.as_str(), "point"];
        tables.push(table(&axes, head, &unpooled, &columns, None, name));
    }
    Ok(CompiledMatrix {
        label,
        seeds,
        cells,
        points,
        tables,
    })
}
