//! In-memory spans around the calls into each layer, written out as JSON
//! when the run ends.
//!
//! The harness records spans from outside the program: a span opens before a
//! call into a layer's public function and closes after it returns. A span's
//! self time is its duration minus the durations of its direct children, so
//! the self times of a tree add up to the root's duration.

use crate::json::Json;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// Index of a span in [`Tracer::spans`].
pub type SpanId = u32;

/// `parent` of a root span.
pub const NO_PARENT: SpanId = SpanId::MAX;

/// One closed or still-open span. Times are nanoseconds since the tracer was
/// created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub seed: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans as a stack: a span opened while another is open is its child.
/// While disabled it records nothing, so the same harness code runs the
/// untraced repetitions.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    seed: u64,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            seed: 0,
            enabled: true,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "cannot switch tracing inside a span");
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The seed stamped on the spans opened from now on.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Returns [`NO_PARENT`]
    /// while disabled.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        let id = self.spans.len() as SpanId;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            seed: self.seed,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        if id == NO_PARENT {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in the reverse order they open");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Closes `id` and every span still open inside it, which is how a span
    /// is ended after a panic unwound through its children.
    pub fn close_down_to(&mut self, id: SpanId) {
        while id != NO_PARENT && self.open.contains(&id) {
            let top = *self.open.last().expect("`id` is open");
            self.close(top);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the durations of direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = &mut own[span.parent as usize];
            *parent = parent.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Duration, self time and number of the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub duration_s: f64,
    pub self_s: f64,
    pub count: u64,
}

/// Totals per span name over `range` of `spans`, given the self times of all
/// of `spans` (parents index into the whole slice, so self times are computed
/// once over it).
pub fn totals_by_name(
    spans: &[Span],
    self_ns: &[u64],
    range: Range<usize>,
) -> BTreeMap<&'static str, NameTotal> {
    let mut by_name: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (span, own) in spans[range.clone()].iter().zip(&self_ns[range]) {
        let total = by_name.entry(span.name).or_default();
        total.duration_s += span.duration_ns() as f64 * 1e-9;
        total.self_s += *own as f64 * 1e-9;
        total.count += 1;
    }
    by_name
}

/// The trace file: a header and one object per span.
pub fn to_json(workload: &str, host: Json, spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    let rows = spans
        .iter()
        .zip(own)
        .enumerate()
        .map(|(id, (span, own))| {
            Json::object([
                ("id", Json::from(id as u64)),
                ("name", Json::from(span.name)),
                ("start_ns", Json::from(span.start_ns)),
                ("end_ns", Json::from(span.end_ns)),
                ("self_ns", Json::from(own)),
                (
                    "parent",
                    match span.parent {
                        NO_PARENT => Json::Null,
                        parent => Json::from(u64::from(parent)),
                    },
                ),
                ("workload", Json::from(workload)),
                ("seed", Json::from(span.seed)),
            ])
        })
        .collect();
    Json::object([
        ("workload", Json::from(workload)),
        ("host", host),
        ("spans", Json::Array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            seed: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("rep", 0, 100, NO_PARENT),
            span("warmup", 10, 30, 0),
            span("measure", 30, 90, 0),
            span("slice", 30, 50, 2),
            span("slice", 50, 85, 2),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 5, 20, 35]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn totals_per_name_cover_only_the_requested_range() {
        let spans = [
            span("slice", 0, 7, NO_PARENT),
            span("measure", 10, 70, NO_PARENT),
            span("slice", 10, 30, 1),
            span("slice", 30, 65, 1),
        ];
        let own = self_times_ns(&spans);
        let totals = totals_by_name(&spans, &own, 1..4);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-15;
        assert!(close(totals["slice"].duration_s, 55e-9) && totals["slice"].count == 2);
        assert!(close(totals["measure"].duration_s, 60e-9));
        assert!(close(totals["measure"].self_s, 5e-9));
    }

    #[test]
    fn tracer_nests_spans_by_open_order() {
        let mut tracer = Tracer::new();
        tracer.set_seed(7);
        let outer = tracer.open("outer");
        tracer.span("inner", || ());
        tracer.close(outer);
        tracer.span("sibling", || ());
        let spans = tracer.spans();
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, NO_PARENT);
        assert!(spans.iter().all(|s| s.seed == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new();
        tracer.set_enabled(false);
        assert_eq!(tracer.span("ignored", || 5), 5);
        assert!(tracer.spans().is_empty());
        tracer.set_enabled(true);
        tracer.span("kept", || ());
        assert_eq!(tracer.spans().len(), 1);
    }

    #[test]
    fn trace_file_lists_every_span_with_its_parent_and_self_time() {
        let spans = [span("rep", 0, 10, NO_PARENT), span("seed", 2, 6, 0)];
        let text = to_json("w", Json::Null, &spans).to_string();
        assert!(text.contains(r#""name":"seed","start_ns":2,"end_ns":6,"self_ns":4,"parent":0"#));
        assert!(text.contains(r#""self_ns":6,"parent":null,"workload":"w","seed":1"#));
    }
}
