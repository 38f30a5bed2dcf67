//! Declarative scenario compiler: a TOML file in, an experiment matrix out.
//!
//! Scenarios were hard-coded Rust until this module: every new population,
//! mobility model or protocol knob meant a new builder call site. The
//! compiler turns that into configuration. A scenario file declares the
//! population, the subscriber fraction, the mobility model and its
//! parameters, the radio, the protocol and its frugality knobs, the
//! publication plan, the seed plan — and optional *sweep axes* that expand
//! into a cross-product experiment matrix:
//!
//! ```toml
//! [scenario]
//! label = "quickstart"
//! nodes = 20
//! subscriber_fraction = 0.8
//! warmup_s = 5.0
//! duration_s = 65.0
//!
//! [protocol]
//! kind = "frugal"
//!
//! [mobility]
//! model = "random-waypoint"
//! width_m = 800.0
//! height_m = 800.0
//! speed_min_mps = 5.0
//! speed_max_mps = 15.0
//! pause_s = 1.0
//!
//! [radio]
//! preset = "paper-random-waypoint"
//!
//! [[publication]]
//! publisher = "random-subscriber"
//! at_s = 6.0
//! validity_s = 59.0
//!
//! [seeds]
//! first = 42
//! runs = 3
//!
//! [[sweep]]
//! param = "nodes"
//! values = [10, 20, 40]
//! ```
//!
//! [`compile_str`] compiles this into a [`CompiledMatrix`]: one [`Scenario`]
//! per sweep-axis combination, the [`SeedPlan`] and the tables a run
//! renders, ready for [`crate::runner::run_matrix`]. It parses, decodes the
//! sections straight into a [`Scenario`], then per matrix point writes the
//! axis values into the parsed document, decodes that and runs
//! [`Scenario::validate`]. Every error of the base document carries the
//! `line:col` it was detected at. `reproduce --scenario` is the CLI entry;
//! `examples/*.toml` are compiled twins of the builder's scenarios, pinned
//! equal by the round-trip test suite, and `figures/*.toml` describe the
//! paper's evaluation, one file per figure.
//!
//! Every numeric key is declared once, as a row `(key, unit, setter)` of its
//! section's schema table; a unit is one range rule. Decoding and the
//! unknown-key diagnostic read those tables, and a sweep value is decoded in
//! place of the file value it replaces, so both pass the same check. Rules
//! relating several fields live in [`Scenario::validate`] alone.
//!
//! The front-end is the hand-rolled [`toml`] subset parser rather than a
//! serde derive pipeline: the vendored serde shim has no-op derives, and
//! position-carrying errors need a span-keeping value tree (which the real
//! `toml` crate only offers via `toml_edit`) — see `vendor/serde`.

mod matrix;
pub mod toml;

pub use self::matrix::{CompiledMatrix, MatrixPoint, SweepAxis, MAX_MATRIX_POINTS};
use self::toml::{ParseError, Pos, Spanned, Table, Value};
use crate::runner::SeedPlan;
use crate::scenario::{
    MobilityKind, ProtocolKind, Publication, PublisherChoice, Scenario, ScenarioError,
};
use frugal::{FloodingPolicy, ProtocolConfig};
use mobility::Area;
use netsim::{BitRate, RadioConfig};
use pubsub::Topic;
use simkit::{SimDuration, SimTime};
use std::fmt;
use std::path::{Path, PathBuf};

/// An error produced while compiling a scenario file: what went wrong, and —
/// when it maps to a source location — where.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    /// Source position of the offending key or value, when known.
    pub pos: Option<Pos>,
    /// Human-readable description, prefixed with the section it concerns.
    pub message: String,
}

impl CompileError {
    /// An error at `pos`; a value from the command line has no position
    /// (line 0).
    fn at(pos: Pos, message: impl Into<String>) -> Self {
        CompileError {
            pos: (pos.line > 0).then_some(pos),
            message: message.into(),
        }
    }

    fn nowhere(message: impl Into<String>) -> Self {
        CompileError {
            pos: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(pos) => write!(f, "{pos}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(err: ParseError) -> Self {
        CompileError::at(err.pos, err.message)
    }
}

/// Compiles a scenario file into its experiment matrix.
///
/// # Errors
///
/// Returns a [`CompileError`] carrying the source position of the first
/// syntax error, unknown key, type mismatch or out-of-range value.
pub fn compile_str(source: &str) -> Result<CompiledMatrix, CompileError> {
    compile_str_with_sweeps(source, &[])
}

/// Like [`compile_str`], with extra sweep axes (typically from the command
/// line) merged in: an extra axis replaces the file axis sweeping the same
/// parameter and is appended otherwise.
///
/// # Errors
///
/// Returns a [`CompileError`] on any syntax, schema or sweep error, and on
/// `extends`, which names a file and so needs [`compile_path`].
pub fn compile_str_with_sweeps(
    source: &str,
    extra_axes: &[SweepAxis],
) -> Result<CompiledMatrix, CompileError> {
    let root = toml::parse(source)?;
    if let Some(extends) = root.get("extends") {
        let message = "document: `extends` names a file, which only `compile_path` resolves";
        return Err(CompileError::at(extends.pos, message));
    }
    compile(root, extra_axes, None)
}

/// Reads and compiles a scenario file from disk.
///
/// A file may begin with `extends = "base.toml"`, a path relative to the
/// file itself. It is then laid over that base by name: a section's keys
/// override the base's one by one, and an array of tables
/// (`[[publication]]`, `[[sweep]]`, `[[table]]`) replaces the base's whole
/// array. The base must compile on its own.
///
/// # Errors
///
/// Returns a [`CompileError`] for unreadable files and `extends` cycles as
/// well as for every compile error of [`compile_str_with_sweeps`]; an error
/// inside a base file names that file.
pub fn compile_path(
    path: impl AsRef<Path>,
    extra_axes: &[SweepAxis],
) -> Result<CompiledMatrix, CompileError> {
    let path = path.as_ref();
    compile(load(path, &mut Vec::new())?, extra_axes, Some(path))
}

/// Parses `path` and lays it over the base its `extends` names. `chain`
/// holds the files being loaded, so that a cycle is refused.
fn load(path: &Path, chain: &mut Vec<PathBuf>) -> Result<Table, CompileError> {
    let source = std::fs::read_to_string(path)
        .map_err(|err| CompileError::nowhere(format!("cannot read {}: {err}", path.display())))?;
    let root = toml::parse(&source)?;
    let Some(extends) = root.get("extends") else {
        return Ok(root);
    };
    let Value::Str(name) = &extends.value else {
        return Err(Sect::new("", &root).type_err("extends", "string", extends));
    };
    let base_path = path.with_file_name(name);
    chain.push(path.canonicalize().unwrap_or_else(|_| path.to_owned()));
    let cycle = base_path
        .canonicalize()
        .is_ok_and(|base| chain.contains(&base));
    if cycle {
        let message = format!("document: `extends = \"{name}\"` closes a cycle");
        return Err(CompileError::at(extends.pos, message));
    }
    let base = load(&base_path, chain);
    let base = base.and_then(|base| compile(base.clone(), &[], Some(&base_path)).map(|_| base));
    chain.pop();
    let mut base =
        base.map_err(|err| CompileError::nowhere(format!("{}: {err}", base_path.display())))?;
    base.merge(root);
    Ok(base)
}

/// Compiles a parsed (and merged) document: the base scenario and seed plan
/// here, the axes, tables and points in `matrix.rs`.
fn compile(
    root: Table,
    extra_axes: &[SweepAxis],
    path: Option<&Path>,
) -> Result<CompiledMatrix, CompileError> {
    let doc = Sect::new("", &root);
    doc.check_unknown([
        "extends",
        "scenario",
        "topics",
        "protocol",
        "mobility",
        "radio",
        "publication",
        "seeds",
        "sweep",
        "table",
    ])?;
    let base = decode_scenario(&doc)?;
    let seeds = decode_seeds(&doc)?;
    matrix::expand(&doc, base, seeds, extra_axes, path)
}

// ---------------------------------------------------------------------------
// The schema: one row per numeric key, one range rule per unit.
// ---------------------------------------------------------------------------

/// What a numeric key measures, which is the range its values must lie in.
/// File values and sweep values go through the same [`Unit::check`].
#[derive(Debug, Clone, Copy)]
enum Unit {
    /// A non-negative integer (a size in bytes, a capacity, milliseconds).
    Count,
    /// An integer of at least 1.
    AtLeastOne,
    /// A non-negative, possibly fractional number of seconds.
    Seconds,
    /// Any finite number; [`Scenario::validate`] holds the key's real rule.
    Finite,
    /// A finite number above zero (a length in metres).
    Positive,
    /// A number within `[0, 1]`.
    Fraction,
}

impl Unit {
    /// Checks `value` against the unit's range. The error is the broken rule,
    /// worded to follow the key's name.
    fn check(self, value: f64) -> Result<(), String> {
        // Node ids and the sizes derived from counts are 32-bit.
        let integer = value >= 0.0 && value.fract() == 0.0 && value <= f64::from(u32::MAX);
        let (holds, rule) = match self {
            Unit::AtLeastOne if integer => (value >= 1.0, "at least 1"),
            Unit::Count | Unit::AtLeastOne => {
                (integer, "a non-negative integer of at most 32 bits")
            }
            Unit::Seconds => (value >= 0.0 && value.is_finite(), "non-negative and finite"),
            Unit::Finite => (value.is_finite(), "finite"),
            Unit::Positive => (value > 0.0 && value.is_finite(), "positive and finite"),
            Unit::Fraction => ((0.0..=1.0).contains(&value), "within [0, 1]"),
        };
        let broken = || format!("must be {rule}, got {value}");
        holds.then_some(()).ok_or_else(broken)
    }
}

/// One numeric key of a section that decodes into a `T`: its name, its unit
/// and how a checked value is stored.
type Row<T> = (&'static str, Unit, fn(&mut T, f64));

fn secs(value: f64) -> SimDuration {
    SimDuration::from_secs_f64(value)
}

fn millis(value: f64) -> SimDuration {
    SimDuration::from_millis(value as u64)
}

const SCENARIO: &[Row<Scenario>] = &[
    ("nodes", Unit::AtLeastOne, |s, v| s.node_count = v as usize),
    ("subscriber_fraction", Unit::Fraction, |s, v| {
        s.subscriber_fraction = v
    }),
    ("warmup_s", Unit::Seconds, |s, v| s.warmup = secs(v)),
    ("duration_s", Unit::Seconds, |s, v| s.duration = secs(v)),
    ("mobility_tick_ms", Unit::AtLeastOne, |s, v| {
        s.mobility_tick = millis(v)
    }),
    // Keeps the first N `[[publication]]` tables; `decode_scenario` refuses
    // an N above their count.
    ("publications", Unit::Count, |s, v| {
        s.publications.truncate(v as usize)
    }),
];

const PROTOCOL: &[Row<ProtocolConfig>] = &[
    ("hb_delay_default_ms", Unit::Count, |c, v| {
        c.hb_delay_default = millis(v)
    }),
    ("hb_upper_bound_ms", Unit::Count, |c, v| {
        c.hb_upper_bound = millis(v)
    }),
    ("hb_lower_bound_ms", Unit::Count, |c, v| {
        c.hb_lower_bound = millis(v)
    }),
    ("x", Unit::Finite, |c, v| c.x = v),
    ("hb2bo", Unit::Finite, |c, v| c.hb2bo = v),
    ("hb2ngc", Unit::Finite, |c, v| c.hb2ngc = v),
    ("bo_jitter_fraction", Unit::Finite, |c, v| {
        c.bo_jitter_fraction = v
    }),
    ("event_table_capacity", Unit::Count, |c, v| {
        c.event_table_capacity = v as usize
    }),
    ("departed_memory_capacity", Unit::Count, |c, v| {
        c.departed_memory_capacity = v as usize
    }),
    ("heartbeat_size_bytes", Unit::Count, |c, v| {
        c.heartbeat_size_bytes = v as usize
    }),
    ("message_header_bytes", Unit::Count, |c, v| {
        c.message_header_bytes = v as usize
    }),
];

/// A row assigns only on the models that have its field; [`mobility_keys`]
/// says which those are, and the decoder asks it first.
const MOBILITY: &[Row<MobilityKind>] = &[
    ("width_m", Unit::Positive, |m, v| {
        if let MobilityKind::RandomWaypoint { area, .. } | MobilityKind::Stationary { area } = m {
            *area = Area::new(v, area.height());
        }
    }),
    ("height_m", Unit::Positive, |m, v| {
        if let MobilityKind::RandomWaypoint { area, .. } | MobilityKind::Stationary { area } = m {
            *area = Area::new(area.width(), v);
        }
    }),
    ("speed_min_mps", Unit::Finite, |m, v| {
        if let MobilityKind::RandomWaypoint { speed_min, .. } = m {
            *speed_min = v;
        }
    }),
    ("speed_max_mps", Unit::Finite, |m, v| {
        if let MobilityKind::RandomWaypoint { speed_max, .. } = m {
            *speed_max = v;
        }
    }),
    ("pause_s", Unit::Seconds, |m, v| {
        if let MobilityKind::RandomWaypoint { pause, .. } = m {
            *pause = secs(v);
        }
    }),
    ("length_m", Unit::Positive, |m, v| {
        if let MobilityKind::StationaryLine { length } = m {
            *length = v;
        }
    }),
];

/// The numeric keys of a mobility model. A file must give every one of them.
fn mobility_keys(kind: &MobilityKind) -> &'static [&'static str] {
    match kind {
        MobilityKind::RandomWaypoint { .. } => &[
            "width_m",
            "height_m",
            "speed_min_mps",
            "speed_max_mps",
            "pause_s",
        ],
        MobilityKind::CityCampus => &[],
        MobilityKind::Stationary { .. } => &["width_m", "height_m"],
        MobilityKind::StationaryLine { .. } => &["length_m"],
    }
}

const RADIO: &[Row<RadioConfig>] = &[
    ("range_m", Unit::Positive, |r, v| r.range_m = v),
    ("overhead_bytes", Unit::Count, |r, v| {
        r.overhead_bytes = v as usize
    }),
    ("fringe_loss_probability", Unit::Fraction, |r, v| {
        r.fringe_loss_probability = v
    }),
    ("fringe_start_fraction", Unit::Fraction, |r, v| {
        r.fringe_start_fraction = v
    }),
    ("max_contention_jitter_ms", Unit::Count, |r, v| {
        r.max_contention_jitter = millis(v)
    }),
];

const PUBLICATION: &[Row<Publication>] = &[
    ("at_s", Unit::Seconds, |p, v| p.at = SimTime::ZERO + secs(v)),
    ("validity_s", Unit::Seconds, |p, v| p.validity = secs(v)),
    ("payload_bytes", Unit::Count, |p, v| {
        p.payload_bytes = v as usize
    }),
];

// ---------------------------------------------------------------------------
// Section decoding.
// ---------------------------------------------------------------------------

/// A section of the document: `[name]`, the `index`-th `[[name]]` table
/// (from 1), or the document root (the empty name). Every accessor error
/// names the section and carries the position of the offending key or value.
struct Sect<'a> {
    name: &'static str,
    index: usize,
    table: &'a Table,
}

impl fmt::Display for Sect<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.name, self.index) {
            ("", _) => write!(f, "document:"),
            (name, 0) => write!(f, "[{name}]"),
            (name, index) => write!(f, "[[{name}]] #{index}"),
        }
    }
}

impl<'a> Sect<'a> {
    fn new(name: &'static str, table: &'a Table) -> Self {
        let index = 0;
        Sect { name, index, table }
    }

    fn err_at(&self, pos: Pos, message: impl fmt::Display) -> CompileError {
        CompileError::at(pos, format!("{self} {message}"))
    }

    fn missing(&self, key: &str) -> CompileError {
        self.err_at(self.table.pos, format!("is missing required key `{key}`"))
    }

    fn check_unknown<'k, I>(&self, allowed: I) -> Result<(), CompileError>
    where
        I: IntoIterator<Item = &'k str>,
        I::IntoIter: Clone,
    {
        let allowed = allowed.into_iter();
        let mut keys = self.table.entries().map(|(key, _)| key);
        match keys.find(|key| !allowed.clone().any(|a| a == key.value)) {
            Some(key) => Err(self.err_at(
                key.pos,
                format!(
                    "unknown key `{}` (expected one of: {})",
                    key.value,
                    allowed.collect::<Vec<_>>().join(", ")
                ),
            )),
            None => Ok(()),
        }
    }

    /// A string key whose value is none of the names it selects among.
    fn unknown(&self, pos: Pos, what: &str, got: &str, expected: &str) -> CompileError {
        self.err_at(pos, format!("unknown {what} `{got}` (expected {expected})"))
    }

    fn req(&self, key: &str) -> Result<&'a Spanned<Value>, CompileError> {
        self.table.get(key).ok_or_else(|| self.missing(key))
    }

    fn type_err(&self, key: &str, want: &str, got: &Spanned<Value>) -> CompileError {
        self.err_at(
            got.pos,
            format!("`{key}` must be a {want}, got a {}", got.value.type_name()),
        )
    }

    fn opt_str(&self, key: &str) -> Result<Option<(&'a str, Pos)>, CompileError> {
        let Some(spanned) = self.table.get(key) else {
            return Ok(None);
        };
        match &spanned.value {
            Value::Str(text) => Ok(Some((text, spanned.pos))),
            _ => Err(self.type_err(key, "string", spanned)),
        }
    }

    fn req_str(&self, key: &str) -> Result<(&'a str, Pos), CompileError> {
        self.opt_str(key)?.ok_or_else(|| self.missing(key))
    }

    fn opt_bool(&self, key: &str) -> Result<Option<bool>, CompileError> {
        let spanned = self.table.get(key);
        let flag = spanned.map(|spanned| match spanned.value {
            Value::Bool(flag) => Ok(flag),
            _ => Err(self.type_err(key, "boolean", spanned)),
        });
        flag.transpose()
    }

    /// The value of a numeric key, checked against its unit, when present.
    fn number(&self, key: &str, unit: Unit) -> Result<Option<f64>, CompileError> {
        let Some(spanned) = self.table.get(key) else {
            return Ok(None);
        };
        // Integer units take integers only: `nodes = 6.0` is a type error.
        let integer = matches!(unit, Unit::Count | Unit::AtLeastOne);
        let value = match spanned.value {
            Value::Int(i) => i as f64,
            Value::Float(f) if !integer => f,
            _ if integer => return Err(self.type_err(key, "integer", spanned)),
            _ => return Err(self.type_err(key, "number", spanned)),
        };
        match unit.check(value) {
            Ok(()) => Ok(Some(value)),
            Err(rule) => Err(self.err_at(spanned.pos, format!("`{key}` {rule}"))),
        }
    }

    /// Decodes the section's numeric keys into `target` through the rows of
    /// its schema table, after rejecting every key that is neither a row nor
    /// one of the `other` keys the caller decodes itself.
    fn numbers<T: 'static>(
        &self,
        rows: impl Iterator<Item = &'static Row<T>> + Clone,
        other: &[&str],
        required: &[&str],
        target: &mut T,
    ) -> Result<(), CompileError> {
        self.check_unknown(other.iter().copied().chain(rows.clone().map(|row| row.0)))?;
        for &(key, unit, set) in rows {
            match self.number(key, unit)? {
                Some(value) => set(target, value),
                None if required.contains(&key) => return Err(self.missing(key)),
                None => {}
            }
        }
        Ok(())
    }

    /// `[seeds]` keys span the whole `u64` range, wider than any [`Unit`].
    fn opt_u64(&self, key: &str) -> Result<Option<(u64, Pos)>, CompileError> {
        let Some(spanned) = self.table.get(key) else {
            return Ok(None);
        };
        match spanned.value {
            Value::Int(i) if i >= 0 => Ok(Some((i as u64, spanned.pos))),
            Value::Int(i) => Err(self.err_at(
                spanned.pos,
                format!("`{key}` must be non-negative, got {i}"),
            )),
            _ => Err(self.type_err(key, "non-negative integer", spanned)),
        }
    }

    fn opt_topic(&self, key: &str) -> Result<Option<Topic>, CompileError> {
        let Some((text, pos)) = self.opt_str(key)? else {
            return Ok(None);
        };
        let parsed = text.parse::<Topic>().map(Some);
        parsed.map_err(|err| self.err_at(pos, format!("`{key}` is not a valid topic: {err}")))
    }

    /// The `[name]` sub-table of the document root, when there is one.
    fn opt_section(&self, name: &'static str) -> Result<Option<Sect<'a>>, CompileError> {
        match self.table.get(name) {
            None => Ok(None),
            Some(spanned) => match &spanned.value {
                Value::Table(table) => Ok(Some(Sect::new(name, table))),
                _ => Err(self.type_err(name, "table", spanned)),
            },
        }
    }

    fn req_section(&self, name: &'static str) -> Result<Sect<'a>, CompileError> {
        let missing = || self.err_at(self.table.pos, format!("missing required section [{name}]"));
        self.opt_section(name)?.ok_or_else(missing)
    }

    /// The tables of the root's `[[name]]` array as numbered sections; none
    /// when the document has no such array.
    fn table_array(&self, name: &'static str) -> Result<Vec<Sect<'a>>, CompileError> {
        let Some(spanned) = self.table.get(name) else {
            return Ok(Vec::new());
        };
        let Value::Array(items) = &spanned.value else {
            return Err(self.type_err(name, "list of tables", spanned));
        };
        let numbered = items.iter().zip(1..);
        let sections = numbered.map(|(item, index)| match &item.value {
            Value::Table(table) => Ok(Sect { name, index, table }),
            _ => Err(self.type_err(name, "list of tables", item)),
        });
        sections.collect()
    }
}

fn decode_scenario(root: &Sect<'_>) -> Result<Scenario, CompileError> {
    let section = root.req_section("scenario")?;
    let (label, _) = section.req_str("label")?;
    let (subscriber_topic, event_topic, bystander_topic) = decode_topics(root)?;
    let mut scenario = Scenario {
        label: label.to_owned(),
        protocol: decode_protocol(root)?,
        mobility: decode_mobility(root)?,
        radio: decode_radio(root)?,
        node_count: 0,
        subscriber_fraction: 0.0,
        publications: decode_publications(root, &event_topic)?,
        subscriber_topic,
        bystander_topic,
        event_topic,
        duration: SimDuration::ZERO,
        warmup: SimDuration::ZERO,
        mobility_tick: SimDuration::from_millis(500),
    };
    let available = scenario.publications.len();
    let required = ["nodes", "subscriber_fraction", "warmup_s", "duration_s"];
    section.numbers(SCENARIO.iter(), &["label"], &required, &mut scenario)?;
    if let Some(wanted) = section.table.get("publications") {
        if matches!(wanted.value, Value::Int(n) if n as usize > available) {
            let message = format!("`publications` exceeds the {available} [[publication]] tables");
            return Err(section.err_at(wanted.pos, message));
        }
    }
    Ok(scenario)
}

fn decode_topics(root: &Sect<'_>) -> Result<(Topic, Topic, Topic), CompileError> {
    let topics = root.opt_section("topics")?;
    if let Some(topics) = &topics {
        topics.check_unknown(["subscriber", "event", "bystander"])?;
    }
    let topic = |key: &str, default: &str| -> Result<Topic, CompileError> {
        let given = match &topics {
            Some(topics) => topics.opt_topic(key)?,
            None => None,
        };
        Ok(given.unwrap_or_else(|| default.parse().expect("static default topic")))
    };
    Ok((
        topic("subscriber", ".news")?,
        topic("event", ".news.local")?,
        topic("bystander", ".background.chatter")?,
    ))
}

fn decode_protocol(root: &Sect<'_>) -> Result<ProtocolKind, CompileError> {
    let protocol = root.req_section("protocol")?;
    let (kind, kind_pos) = protocol.req_str("kind")?;
    let policy = match kind {
        "frugal" => {
            let mut config = ProtocolConfig::paper_default();
            let other = ["kind", "adapt_to_speed"];
            protocol.numbers(PROTOCOL.iter(), &other, &[], &mut config)?;
            if let Some(adapt) = protocol.opt_bool("adapt_to_speed")? {
                config.adapt_to_speed = adapt;
            }
            return Ok(ProtocolKind::Frugal(config));
        }
        "simple-flooding" => FloodingPolicy::Simple,
        "interests-aware-flooding" => FloodingPolicy::InterestAware,
        "neighbors-interests-flooding" => FloodingPolicy::NeighborInterest,
        other => {
            let kinds = "frugal, simple-flooding, interests-aware-flooding or \
                         neighbors-interests-flooding";
            return Err(protocol.unknown(kind_pos, "protocol kind", other, kinds));
        }
    };
    if let Some(key) = protocol.table.first_unknown_key(&["kind"]) {
        return Err(protocol.err_at(
            key.pos,
            format!("key `{}` only applies to kind = \"frugal\"", key.value),
        ));
    }
    Ok(ProtocolKind::Flooding(policy))
}

fn decode_mobility(root: &Sect<'_>) -> Result<MobilityKind, CompileError> {
    let mobility = root.req_section("mobility")?;
    let (model, model_pos) = mobility.req_str("model")?;
    // Every numeric key of a model is required, so its rows overwrite each of
    // these starting values.
    let area = Area::square(1.0);
    let mut kind = match model {
        "random-waypoint" => MobilityKind::RandomWaypoint {
            area,
            speed_min: 0.0,
            speed_max: 0.0,
            pause: SimDuration::ZERO,
        },
        "city-campus" => MobilityKind::CityCampus,
        "stationary" => MobilityKind::Stationary { area },
        "stationary-line" => MobilityKind::StationaryLine { length: 0.0 },
        other => {
            let models = "random-waypoint, city-campus, stationary or stationary-line";
            return Err(mobility.unknown(model_pos, "mobility model", other, models));
        }
    };
    let keys = mobility_keys(&kind);
    let rows = MOBILITY.iter().filter(|row| keys.contains(&row.0));
    mobility.numbers(rows, &["model"], keys, &mut kind)?;
    Ok(kind)
}

fn decode_radio(root: &Sect<'_>) -> Result<RadioConfig, CompileError> {
    let radio = root.req_section("radio")?;
    let (preset, preset_pos) = radio.req_str("preset")?;
    let (mut config, required): (_, &[&str]) = match preset {
        "paper-random-waypoint" => (RadioConfig::paper_random_waypoint(), &[]),
        "paper-city-section" => (RadioConfig::paper_city_section(), &[]),
        // The ideal radio has no range of its own: the file must give one.
        "ideal" => (RadioConfig::ideal(0.0), &["range_m"]),
        other => {
            let presets = "paper-random-waypoint, paper-city-section or ideal";
            return Err(radio.unknown(preset_pos, "radio preset", other, presets));
        }
    };
    if let Some((rate, rate_pos)) = radio.opt_str("bit_rate")? {
        config.bit_rate = match rate {
            "1mbps" => BitRate::Mbps1,
            "2mbps" => BitRate::Mbps2,
            "6mbps" => BitRate::Mbps6,
            "11mbps" => BitRate::Mbps11,
            other => {
                let rates = "1mbps, 2mbps, 6mbps or 11mbps";
                return Err(radio.unknown(rate_pos, "bit rate", other, rates));
            }
        };
    }
    radio.numbers(RADIO.iter(), &["preset", "bit_rate"], required, &mut config)?;
    Ok(config)
}

fn decode_publications(
    root: &Sect<'_>,
    event_topic: &Topic,
) -> Result<Vec<Publication>, CompileError> {
    let mut publications = Vec::new();
    for section in root.table_array("publication")? {
        let topic = section.opt_topic("topic")?;
        let mut publication = Publication {
            publisher: decode_publisher(&section)?,
            topic: topic.unwrap_or_else(|| event_topic.clone()),
            at: SimTime::ZERO,
            validity: SimDuration::ZERO,
            payload_bytes: 400,
        };
        let (other, required) = (["publisher", "topic"], ["at_s", "validity_s"]);
        section.numbers(PUBLICATION.iter(), &other, &required, &mut publication)?;
        publications.push(publication);
    }
    Ok(publications)
}

fn decode_publisher(section: &Sect<'_>) -> Result<PublisherChoice, CompileError> {
    let spanned = section.req("publisher")?;
    match &spanned.value {
        Value::Str(text) => match text.as_str() {
            "random-subscriber" => Ok(PublisherChoice::RandomSubscriber),
            "random-any" => Ok(PublisherChoice::RandomAny),
            other => {
                let publishers = "random-subscriber, random-any or a node index";
                Err(section.unknown(spanned.pos, "publisher", other, publishers))
            }
        },
        Value::Int(i) if *i >= 0 => Ok(PublisherChoice::Node(*i as usize)),
        Value::Int(i) => Err(section.err_at(
            spanned.pos,
            format!("`publisher` node index must be non-negative, got {i}"),
        )),
        _ => Err(section.type_err("publisher", "string or node index", spanned)),
    }
}

fn decode_seeds(root: &Sect<'_>) -> Result<SeedPlan, CompileError> {
    let Some(seeds) = root.opt_section("seeds")? else {
        return Ok(SeedPlan::quick());
    };
    seeds.check_unknown(["first", "runs"])?;
    let first = seeds.opt_u64("first")?.map_or(1, |(v, _)| v);
    let runs = match seeds.opt_u64("runs")? {
        // No runs would print a row of zeros that reads as a measurement.
        Some((0, pos)) => return Err(seeds.err_at(pos, "`runs` must be at least 1")),
        Some((runs, pos)) if runs > SeedPlan::MAX_RUNS => {
            let max = SeedPlan::MAX_RUNS;
            return Err(seeds.err_at(pos, format!("`runs` must be at most {max}, got {runs}")));
        }
        Some((runs, _)) => runs,
        None => 3,
    };
    Ok(SeedPlan::new(first, runs))
}

/// The section a failed [`Scenario::validate`] rule concerns, as its header
/// is written: it opens the message and, for the base document, its position
/// in the file is the error's.
fn section_of(err: &ScenarioError) -> &'static str {
    match err {
        ScenarioError::SubscriberTopicDoesNotCoverEventTopic => "[topics]",
        ScenarioError::BadProtocolConfig(_) => "[protocol]",
        ScenarioError::BadSpeedRange(..) | ScenarioError::BadLineLength(_) => "[mobility]",
        ScenarioError::BadRadioRange(_) => "[radio]",
        ScenarioError::PublicationAfterEnd | ScenarioError::PublisherOutOfRange { .. } => {
            "[[publication]]"
        }
        _ => "[scenario]",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
[scenario]
label = \"minimal\"
nodes = 6
subscriber_fraction = 1.0
warmup_s = 2.0
duration_s = 22.0

[protocol]
kind = \"frugal\"

[mobility]
model = \"random-waypoint\"
width_m = 200.0
height_m = 200.0
speed_min_mps = 5.0
speed_max_mps = 5.0
pause_s = 1.0

[radio]
preset = \"ideal\"
range_m = 120.0

[[publication]]
publisher = 0
at_s = 3.0
validity_s = 19.0
";

    fn patch(base: &str, from: &str, to: &str) -> String {
        assert!(base.contains(from), "patch source must contain `{from}`");
        base.replace(from, to)
    }

    #[test]
    fn minimal_document_compiles() {
        let compiled = compile_str(MINIMAL).unwrap();
        assert_eq!(compiled.label, "minimal");
        assert_eq!(compiled.seeds, SeedPlan::quick());
        assert_eq!(compiled.points.len(), 1);
        let scenario = &compiled.points[0].scenario;
        assert_eq!(compiled.points[0].label, "minimal");
        assert_eq!(scenario.node_count, 6);
        assert_eq!(scenario.subscriber_fraction, 1.0);
        assert_eq!(scenario.warmup, SimDuration::from_secs(2));
        assert_eq!(scenario.duration, SimDuration::from_secs(22));
        assert_eq!(scenario.mobility_tick, SimDuration::from_millis(500));
        assert_eq!(
            scenario.protocol,
            ProtocolKind::Frugal(ProtocolConfig::paper_default())
        );
        assert_eq!(scenario.radio, RadioConfig::ideal(120.0));
        assert_eq!(scenario.subscriber_topic, ".news".parse().unwrap());
        assert_eq!(scenario.event_topic, ".news.local".parse().unwrap());
        assert_eq!(scenario.publications.len(), 1);
        let publication = &scenario.publications[0];
        assert_eq!(publication.publisher, PublisherChoice::Node(0));
        assert_eq!(publication.topic, ".news.local".parse().unwrap());
        assert_eq!(publication.at, SimTime::from_secs(3));
        assert_eq!(publication.validity, SimDuration::from_secs(19));
        assert_eq!(publication.payload_bytes, 400);
        assert!(matches!(
            scenario.mobility,
            MobilityKind::RandomWaypoint { .. }
        ));
    }

    #[test]
    fn protocol_knobs_and_overrides_decode() {
        let source = patch(
            MINIMAL,
            "kind = \"frugal\"",
            "kind = \"frugal\"\nhb_upper_bound_ms = 5000\nevent_table_capacity = 4\nadapt_to_speed = false",
        );
        let compiled = compile_str(&source).unwrap();
        let ProtocolKind::Frugal(config) = &compiled.points[0].scenario.protocol else {
            panic!("frugal scenario")
        };
        assert_eq!(config.hb_upper_bound, SimDuration::from_secs(5));
        assert_eq!(config.event_table_capacity, 4);
        assert!(!config.adapt_to_speed);
        // Everything not overridden keeps the paper default.
        assert_eq!(config.x, 40.0);
    }

    #[test]
    fn flooding_kinds_decode_and_reject_frugal_knobs() {
        for (kind, policy) in [
            ("simple-flooding", FloodingPolicy::Simple),
            ("interests-aware-flooding", FloodingPolicy::InterestAware),
            (
                "neighbors-interests-flooding",
                FloodingPolicy::NeighborInterest,
            ),
        ] {
            let source = patch(MINIMAL, "kind = \"frugal\"", &format!("kind = \"{kind}\""));
            let compiled = compile_str(&source).unwrap();
            assert_eq!(
                compiled.points[0].scenario.protocol,
                ProtocolKind::Flooding(policy)
            );
        }
        let source = patch(
            MINIMAL,
            "kind = \"frugal\"",
            "kind = \"simple-flooding\"\nx = 3.0",
        );
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message.contains("only applies to kind = \"frugal\""),
            "{err}"
        );
        assert!(err.pos.is_some());
    }

    #[test]
    fn unknown_keys_are_rejected_with_positions() {
        let source = patch(MINIMAL, "nodes = 6", "nodez = 6");
        let err = compile_str(&source).unwrap_err();
        assert!(err.message.contains("unknown key `nodez`"), "{err}");
        let pos = err.pos.unwrap();
        assert_eq!(pos.line, 3);
        // The missing required key is also reported.
        let source = patch(MINIMAL, "nodes = 6\n", "");
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message.contains("missing required key `nodes`"),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_values_are_rejected_with_positions() {
        let source = patch(
            MINIMAL,
            "subscriber_fraction = 1.0",
            "subscriber_fraction = 1.5",
        );
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message
                .contains("`subscriber_fraction` must be within [0, 1], got 1.5"),
            "{err}"
        );
        assert_eq!(err.pos.unwrap().line, 4);

        let source = patch(MINIMAL, "nodes = 6", "nodes = 0");
        let err = compile_str(&source).unwrap_err();
        assert!(err.message.contains("`nodes` must be at least 1"), "{err}");
        assert_eq!(err.pos.unwrap().line, 3);
    }

    #[test]
    fn publisher_out_of_range_is_rejected() {
        let source = patch(MINIMAL, "publisher = 0", "publisher = 6");
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message
                .contains("publisher index 6 is out of range for 6 nodes"),
            "{err}"
        );
    }

    #[test]
    fn bad_section_kinds_are_rejected() {
        let err = compile_str(&patch(
            MINIMAL,
            "model = \"random-waypoint\"",
            "model = \"teleport\"",
        ))
        .unwrap_err();
        assert!(
            err.message.contains("unknown mobility model `teleport`"),
            "{err}"
        );
        let err =
            compile_str(&patch(MINIMAL, "preset = \"ideal\"", "preset = \"cable\"")).unwrap_err();
        assert!(
            err.message.contains("unknown radio preset `cable`"),
            "{err}"
        );
        let err =
            compile_str(&patch(MINIMAL, "kind = \"frugal\"", "kind = \"gossip\"")).unwrap_err();
        assert!(
            err.message.contains("unknown protocol kind `gossip`"),
            "{err}"
        );
        let err = compile_str(&patch(MINIMAL, "[radio]", "[rodeo]")).unwrap_err();
        assert!(err.message.contains("unknown key `rodeo`"), "{err}");
        let err = compile_str("").unwrap_err();
        assert!(
            err.message.contains("missing required section [scenario]"),
            "{err}"
        );
    }

    #[test]
    fn seeds_and_sweeps_decode() {
        let source = format!(
            "{MINIMAL}\n[seeds]\nfirst = 7\nruns = 4\n\n\
             [[sweep]]\nparam = \"nodes\"\nvalues = [4, 8]\n\n\
             [[sweep]]\nparam = \"radio.range_m\"\nvalues = [100.0, 150.0, 200.0]\n"
        );
        let compiled = compile_str(&source).unwrap();
        assert_eq!(compiled.seeds, SeedPlan::new(7, 4));
        assert_eq!(compiled.points.len(), 6);
        // Last axis fastest; labels carry the assignments.
        assert_eq!(compiled.points[0].label, "nodes=4, radio.range_m=100");
        assert_eq!(compiled.points[1].label, "nodes=4, radio.range_m=150");
        assert_eq!(compiled.points[3].label, "nodes=8, radio.range_m=100");
        assert_eq!(compiled.points[3].scenario.node_count, 8);
        assert_eq!(compiled.points[3].scenario.radio.range_m, 100.0);
        // The base scenario is untouched by sweeps.
        assert_eq!(compiled.points[0].scenario.label, "minimal");
    }

    #[test]
    fn sweep_errors_are_reported() {
        let source = format!("{MINIMAL}\n[[sweep]]\nparam = \"warp\"\nvalues = [1]\n");
        let err = compile_str(&source).unwrap_err();
        // A point is decoded like the file, so the decoder names the key.
        assert!(
            err.message
                .contains("sweep warp=1: [scenario] unknown key `warp`"),
            "{err}"
        );
        assert!(err.pos.is_some());

        let source = format!("{MINIMAL}\n[[sweep]]\nparam = \"nodes\"\nvalues = []\n");
        let err = compile_str(&source).unwrap_err();
        assert!(err.message.contains("`values` must not be empty"), "{err}");

        let source = format!("{MINIMAL}\n[[sweep]]\nparam = \"nodes\"\nvalues = [2.5]\n");
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message.contains("sweep nodes=2.5")
                && err.message.contains("`nodes` must be a integer"),
            "{err}"
        );

        let source = format!(
            "{MINIMAL}\n[[sweep]]\nparam = \"nodes\"\nvalues = [1]\n\n\
             [[sweep]]\nparam = \"nodes\"\nvalues = [2]\n"
        );
        let err = compile_str(&source).unwrap_err();
        assert!(err.message.contains("more than one axis"), "{err}");

        // A sweep value out of its key's range names the point.
        let source =
            format!("{MINIMAL}\n[[sweep]]\nparam = \"subscriber_fraction\"\nvalues = [0.5, 2.0]\n");
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message
                .contains("`subscriber_fraction` must be within [0, 1], got 2"),
            "{err}"
        );
    }

    #[test]
    fn cli_axes_merge_and_override() {
        let source = format!("{MINIMAL}\n[[sweep]]\nparam = \"nodes\"\nvalues = [4, 8]\n");
        let override_axis: SweepAxis = "nodes=2,3,5".parse().unwrap();
        let extra_axis: SweepAxis = "publication.payload_bytes=100,800".parse().unwrap();
        let compiled = compile_str_with_sweeps(&source, &[override_axis, extra_axis]).unwrap();
        assert_eq!(compiled.points.len(), 6);
        assert_eq!(
            compiled.points[0].label,
            "nodes=2, publication.payload_bytes=100"
        );
        assert_eq!(compiled.points[5].scenario.node_count, 5);
        assert_eq!(
            compiled.points[5].scenario.publications[0].payload_bytes,
            800
        );
    }

    #[test]
    fn sweep_axis_cli_parsing() {
        let axis: SweepAxis = "radio.range_m=100,150.5".parse().unwrap();
        assert_eq!(axis.param, "radio.range_m");
        assert_eq!(axis.values, vec![100.0, 150.5]);
        assert!("no-equals".parse::<SweepAxis>().is_err());
        assert!("x=1,banana".parse::<SweepAxis>().is_err());
        assert!("=1".parse::<SweepAxis>().is_err());
    }

    #[test]
    fn matrix_size_is_capped() {
        let values: Vec<String> = (1..=70).map(|v| v.to_string()).collect();
        let values = values.join(", ");
        let source = format!(
            "{MINIMAL}\n[[sweep]]\nparam = \"nodes\"\nvalues = [{values}]\n\n\
             [[sweep]]\nparam = \"publication.payload_bytes\"\nvalues = [{values}]\n"
        );
        let err = compile_str(&source).unwrap_err();
        assert!(err.message.contains("4900 matrix points"), "{err}");
    }

    #[test]
    fn frugal_sweeps_reject_flooding_scenarios() {
        let source = patch(MINIMAL, "kind = \"frugal\"", "kind = \"simple-flooding\"");
        let source = format!(
            "{source}\n[[sweep]]\nparam = \"protocol.hb_upper_bound_ms\"\nvalues = [1000]\n"
        );
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message.contains("only applies to kind = \"frugal\""),
            "{err}"
        );
    }

    #[test]
    fn integer_keys_take_32_bit_integers_only() {
        // Used to reach the grid and panic with "node count exceeds u32".
        let err = compile_str(&patch(MINIMAL, "nodes = 6", "nodes = 5000000000")).unwrap_err();
        assert!(
            err.message
                .contains("`nodes` must be a non-negative integer")
                && err.message.contains("got 5000000000"),
            "{err}"
        );
        assert_eq!(err.pos.unwrap().line, 3);

        let err = compile_str(&patch(MINIMAL, "nodes = 6", "nodes = 6.0")).unwrap_err();
        assert!(
            err.message
                .contains("`nodes` must be a integer, got a float"),
            "{err}"
        );
        assert_eq!(err.pos.unwrap().line, 3);
    }

    #[test]
    fn zero_mobility_tick_and_zero_runs_are_positioned() {
        let source = patch(MINIMAL, "nodes = 6", "nodes = 6\nmobility_tick_ms = 0");
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message
                .contains("`mobility_tick_ms` must be at least 1"),
            "{err}"
        );
        assert_eq!(err.pos.unwrap().line, 4);

        let err = compile_str(&format!("{MINIMAL}\n[seeds]\nruns = 0\n")).unwrap_err();
        assert!(err.message.contains("`runs` must be at least 1"), "{err}");
        assert_eq!(err.pos.unwrap().line, 29);
    }

    /// Used to compile, then panic with `capacity overflow` when the runner
    /// sized its report slots.
    #[test]
    fn runs_above_the_seed_plan_limit_are_positioned() {
        let err =
            compile_str(&format!("{MINIMAL}\n[seeds]\nruns = 9223372036854775807\n")).unwrap_err();
        assert!(
            err.message
                .contains("`runs` must be at most 100000, got 9223372036854775807"),
            "{err}"
        );
        assert_eq!(err.pos.unwrap().line, 29);
    }

    #[test]
    fn base_document_validate_failures_point_at_their_section() {
        let err = compile_str(&patch(MINIMAL, "publisher = 0", "publisher = 6")).unwrap_err();
        assert!(err.message.starts_with("[[publication]] publisher index 6"));
        assert_eq!(err.pos.unwrap().line, 23, "{err}");

        let source = patch(MINIMAL, "kind = \"frugal\"", "kind = \"frugal\"\nx = 0.0");
        let err = compile_str(&source).unwrap_err();
        assert!(err.message.starts_with("[protocol] x must be positive"));
        assert_eq!(err.pos.unwrap().line, 8, "{err}");

        let source = patch(MINIMAL, "speed_min_mps = 5.0", "speed_min_mps = 9.0");
        let err = compile_str(&source).unwrap_err();
        assert!(err.message.starts_with("[mobility] speeds must satisfy"));
        assert_eq!(err.pos.unwrap().line, 11, "{err}");
    }

    #[test]
    fn zero_minimum_speed_is_accepted_as_the_builder_does() {
        let source = patch(MINIMAL, "speed_min_mps = 5.0", "speed_min_mps = 0");
        let scenario = compile_str(&source).unwrap().points.remove(0).scenario;
        let MobilityKind::RandomWaypoint { speed_min, .. } = scenario.mobility else {
            panic!("random-waypoint scenario")
        };
        assert_eq!(speed_min, 0.0);
    }

    #[test]
    fn every_numeric_key_is_sweepable() {
        let source = format!(
            "{MINIMAL}\n[[sweep]]\nparam = \"protocol.heartbeat_size_bytes\"\nvalues = [8]\n\n\
             [[sweep]]\nparam = \"protocol.message_header_bytes\"\nvalues = [12]\n\n\
             [[sweep]]\nparam = \"radio.overhead_bytes\"\nvalues = [34]\n\n\
             [[sweep]]\nparam = \"radio.max_contention_jitter_ms\"\nvalues = [7]\n"
        );
        let scenario = compile_str(&source).unwrap().points.remove(0).scenario;
        let ProtocolKind::Frugal(config) = &scenario.protocol else {
            panic!("frugal scenario")
        };
        assert_eq!(config.heartbeat_size_bytes, 8);
        assert_eq!(config.message_header_bytes, 12);
        assert_eq!(scenario.radio.overhead_bytes, 34);
        assert_eq!(
            scenario.radio.max_contention_jitter,
            SimDuration::from_millis(7)
        );

        // A sweep value is decoded where the file's value would be, so every
        // row of every schema table sweeps, and a key a model does not have
        // is refused as in a file.
        let axis: SweepAxis = "mobility.length_m=1".parse().unwrap();
        let err = compile_str_with_sweeps(MINIMAL, &[axis]).unwrap_err();
        assert!(err.message.contains("unknown key `length_m`"), "{err}");
    }

    #[test]
    fn unknown_publication_sweeps_are_rejected_without_publications() {
        let (source, _) = MINIMAL.split_once("[[publication]]").unwrap();
        let axis: SweepAxis = "publication.bogus=1".parse().unwrap();
        let err = compile_str_with_sweeps(source, &[axis]).unwrap_err();
        let fragment = "`publication.bogus` names no scenario section of the file";
        assert!(err.message.contains(fragment), "{err}");
        // A known one has nothing to set either: its points would not differ.
        let axis: SweepAxis = "publication.payload_bytes=1".parse().unwrap();
        let err = compile_str_with_sweeps(source, &[axis]).unwrap_err();
        assert!(err.message.contains("names no scenario section"), "{err}");
        // With publications, an unknown key is the decoder's unknown key.
        let axis: SweepAxis = "publication.bogus=1".parse().unwrap();
        let err = compile_str_with_sweeps(MINIMAL, &[axis]).unwrap_err();
        assert!(err.message.contains("unknown key `bogus`"), "{err}");
    }

    #[test]
    fn compiled_scenarios_actually_run() {
        let compiled = compile_str(MINIMAL).unwrap();
        let report = crate::world::World::new(compiled.points[0].scenario.clone(), 1)
            .unwrap()
            .run();
        assert_eq!(report.seed, 1);
    }

    #[test]
    fn compile_path_reports_missing_files() {
        let err = compile_path("/nonexistent/scenario.toml", &[]).unwrap_err();
        assert!(err.message.contains("cannot read"), "{err}");
        assert!(err.pos.is_none());
    }

    #[test]
    fn error_display_includes_position() {
        let err = CompileError::at(Pos { line: 3, col: 7 }, "[scenario] boom");
        assert_eq!(err.to_string(), "3:7: [scenario] boom");
        let err = CompileError::nowhere("boom");
        assert_eq!(err.to_string(), "boom");
    }
}
