//! Structured, deterministic tracing.
//!
//! A [`Tracer`] collects typed, sim-time-stamped [`TraceEvent`]s from every
//! layer of a run: the engine itself (event dispatch, queue depth), the
//! underlay (per-link traffic, routing decisions), and the overlay
//! substrates (floods, lookup hops, piece exchanges, collection calls).
//! Because every field of every event is a pure function of the run's
//! configuration and seed, **two runs of the same experiment with the same
//! seed must serialize to byte-identical JSONL** — which makes the trace
//! both a debugging artifact and a far finer-grained determinism check
//! than comparing end-of-run reports (`cargo run -p xtask -- trace diff`
//! localizes the *first* diverging event).
//!
//! Design rules:
//!
//! * **No-op by default.** [`Tracer::disabled`] (the `Default`) answers
//!   every [`Tracer::is_enabled`] query with one branch and allocates
//!   nothing; instrumentation sites build their fields inside a closure
//!   that is never called on the disabled path.
//! * **Bounded memory.** [`Tracer::streaming`] writes every event through
//!   to a JSONL file and retains nothing; a line the file refused is
//!   counted in [`Tracer::dropped`], and a run that dropped any fails.
//! * **No wall clock.** Events carry [`SimTime`] only. The single
//!   sanctioned wall-clock boundary is [`WallTimer`] below, which exists
//!   for the run report's `wall_secs` and the engine's opt-in profiler
//!   and is structurally excluded from the trace stream (there is no API
//!   to put a wall-clock reading into a `TraceEvent`); the determinism
//!   lint rejects `lint:allow(wallclock)` escapes anywhere outside this
//!   file.

pub mod registry;

use crate::time::SimTime;
use std::fmt;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Causal provenance carried by a trace event (and propagated with
/// scheduled messages through the engine's event queue).
///
/// * `span` — the id of the span the event belongs to, allocated by
///   [`Tracer::alloc_span`]. Span ids come from a deterministic monotone
///   counter (never the sim RNG), so they are byte-identical per seed and
///   allocating one never perturbs the random stream.
/// * `cause` — the `seq` of an earlier trace event that caused this one
///   (e.g. recovery events point at the `fault.epoch` that triggered
///   them; a re-sourced `download` points at its `download.retry`).
///
/// Events serialize these as the optional JSONL keys `"s"` and `"cs"`,
/// placed between `"t"` and `"l"` and omitted when absent, so span-free
/// traces keep their exact pre-provenance byte layout.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Provenance {
    /// Span id the event belongs to, if any.
    pub span: Option<u64>,
    /// `seq` of the causing event, if any.
    pub cause: Option<u64>,
}

impl Provenance {
    /// The empty provenance: no span, no cause.
    pub const ROOT: Provenance = Provenance {
        span: None,
        cause: None,
    };
}

/// Verbosity of a trace event, ordered from most to least important.
///
/// `Off < Info < Debug < Trace`: a tracer at `Debug` admits `Info` and
/// `Debug` events and rejects `Trace` ones.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum TraceLevel {
    /// Nothing is recorded.
    #[default]
    Off,
    /// Run-level milestones (role census, run end, swarm completion).
    Info,
    /// Per-decision events (floods, lookups, transfers, piece completions).
    Debug,
    /// Per-event firehose (engine dispatch, per-candidate choices).
    Trace,
}

impl TraceLevel {
    /// Stable lower-case name used in the JSONL encoding.
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Info => "info",
            TraceLevel::Debug => "debug",
            TraceLevel::Trace => "trace",
        }
    }

    /// Parses the JSONL encoding back; `None` for unknown names.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "info" => Some(TraceLevel::Info),
            "debug" => Some(TraceLevel::Debug),
            "trace" => Some(TraceLevel::Trace),
            _ => None,
        }
    }
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed field value. The variants cover everything the instrumentation
/// sites record; floats serialize via Rust's shortest-roundtrip formatter,
/// which is deterministic for identical bits.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (must be finite to serialize as a JSON number; non-finite
    /// values serialize as the strings `"NaN"` / `"inf"` / `"-inf"`).
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Appends the value's JSON encoding to `out` (non-finite floats
    /// become the strings `"NaN"` / `"inf"` / `"-inf"`). Public so trace
    /// tooling can render parsed fields exactly as they were serialized.
    // lint:allow(alloc) — number-to-string formatting inside the serializer; bounded per value, no retained allocation
    pub fn write_json_value(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v:?}"));
                } else if v.is_nan() {
                    out.push_str("\"NaN\"");
                } else if *v > 0.0 {
                    out.push_str("\"inf\"");
                } else {
                    out.push_str("\"-inf\"");
                }
            }
            Value::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

/// Escapes `s` as JSON string content into `out`.
// lint:allow(alloc) — the `\uXXXX` control-char arm formats through a temporary; control chars never appear in trace names
pub(crate) fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", u32::from(c)));
            }
            c => out.push(c),
        }
    }
}

/// Ordered key/value fields of an event under construction. Keys keep
/// their insertion order in the serialized output, so instrumentation
/// sites fully control the byte layout of their events.
#[derive(Clone, Default, Debug)]
pub struct Fields(Vec<(&'static str, Value)>);

impl Fields {
    /// Appends an unsigned integer field.
    pub fn u64(&mut self, key: &'static str, v: u64) -> &mut Self {
        self.0.push((key, Value::U64(v)));
        self
    }

    /// Appends a signed integer field.
    pub fn i64(&mut self, key: &'static str, v: i64) -> &mut Self {
        self.0.push((key, Value::I64(v)));
        self
    }

    /// Appends a float field.
    pub fn f64(&mut self, key: &'static str, v: f64) -> &mut Self {
        self.0.push((key, Value::F64(v)));
        self
    }

    /// Appends a string field.
    pub fn str(&mut self, key: &'static str, v: impl Into<String>) -> &mut Self {
        self.0.push((key, Value::Str(v.into())));
        self
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, key: &'static str, v: bool) -> &mut Self {
        self.0.push((key, Value::Bool(v)));
        self
    }
}

/// One structured trace event.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceEvent {
    /// Global emission sequence number (0-based, gap-free).
    pub seq: u64,
    /// Simulated time of the event.
    pub t: SimTime,
    /// Span id the event belongs to (JSONL key `"s"`), if any.
    pub span: Option<u64>,
    /// `seq` of the event that caused this one (JSONL key `"cs"`), if any.
    pub cause: Option<u64>,
    /// Verbosity the event was emitted at.
    pub level: TraceLevel,
    /// Emitting component (`"engine"`, `"net"`, `"gnutella"`, …).
    pub component: String,
    /// Event kind within the component (`"dispatch"`, `"flood.query"`, …).
    pub kind: String,
    /// Ordered key/value payload.
    pub fields: Vec<(String, Value)>,
}

impl TraceEvent {
    /// Serializes the event as one JSONL line (no trailing newline).
    // lint:allow(alloc) — constructs the returned line; the streaming hot path uses `write_json_into` with a reused buffer
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 16 * self.fields.len());
        self.write_json_into(&mut out);
        out
    }

    /// Appends the event's JSONL encoding (no trailing newline) to `out`.
    /// The streaming sink serializes through this with a reused buffer so
    /// a per-event write allocates nothing beyond number formatting.
    // lint:allow(alloc) — integer-to-string formatting inside the serializer; bounded per event, no retained allocation
    pub fn write_json_into(&self, out: &mut String) {
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"t\":");
        out.push_str(&self.t.as_micros().to_string());
        if let Some(s) = self.span {
            out.push_str(",\"s\":");
            out.push_str(&s.to_string());
        }
        if let Some(cs) = self.cause {
            out.push_str(",\"cs\":");
            out.push_str(&cs.to_string());
        }
        out.push_str(",\"l\":\"");
        out.push_str(self.level.name());
        out.push_str("\",\"c\":\"");
        escape_into(&self.component, out);
        out.push_str("\",\"k\":\"");
        escape_into(&self.kind, out);
        out.push_str("\",\"f\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(k, out);
            out.push_str("\":");
            v.write_json_value(out);
        }
        out.push_str("}}");
    }
}

/// Where enabled tracers store events.
#[derive(Debug)]
enum Sink {
    /// Record nothing; every `is_enabled` query is `false`.
    Disabled,
    /// Unbounded in-memory buffer (quick experiment runs, tests).
    Buffer(Vec<TraceEvent>),
    /// Write-through JSONL stream: every admitted event is serialized and
    /// written immediately, nothing is retained in memory (O(1) memory
    /// for arbitrarily long runs).
    Stream(BufWriter<std::fs::File>),
}

/// The structured trace collector. See the module docs for the contract.
#[derive(Debug)]
pub struct Tracer {
    sink: Sink,
    level: TraceLevel,
    seq: u64,
    dropped: u64,
    next_span: u64,
    prov: Provenance,
    /// Reused serialization buffer for the streaming sink's per-event
    /// write (kept across events so the hot path does not allocate).
    scratch_line: String,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    fn with_sink(sink: Sink, level: TraceLevel) -> Tracer {
        Tracer {
            sink,
            level,
            seq: 0,
            dropped: 0,
            next_span: 0,
            prov: Provenance::ROOT,
            scratch_line: String::new(),
        }
    }

    /// The no-op tracer: records nothing, costs one branch per query.
    pub fn disabled() -> Tracer {
        Tracer::with_sink(Sink::Disabled, TraceLevel::Off)
    }

    /// An unbounded in-memory tracer admitting events up to `level`.
    pub fn buffered(level: TraceLevel) -> Tracer {
        Tracer::with_sink(Sink::Buffer(Vec::new()), level)
    }

    /// A write-through streaming tracer: every admitted event is
    /// serialized and appended to the JSONL file at `path` as it is
    /// emitted, retaining nothing in memory. Because serialization is the
    /// same [`TraceEvent::to_json`] the buffered sink drains through, a
    /// streamed trace is **byte-identical** to the buffered trace of the
    /// same seed. Call [`Tracer::flush`] (or drop the tracer) to flush
    /// the final buffer block.
    pub fn streaming(path: &Path, level: TraceLevel) -> io::Result<Tracer> {
        let file = std::fs::File::create(path)?;
        Ok(Tracer::with_sink(Sink::Stream(BufWriter::new(file)), level))
    }

    /// Allocates a fresh span id from the deterministic monotone counter.
    ///
    /// Ids are allocated independently of level filtering and sink state,
    /// so call sites may allocate unconditionally: the id sequence is a
    /// pure function of the (deterministic) call order, never of the
    /// tracer configuration or the sim RNG stream.
    pub fn alloc_span(&mut self) -> u64 {
        let id = self.next_span;
        self.next_span += 1;
        id
    }

    /// The ambient provenance stamped onto every emitted event.
    pub fn provenance(&self) -> Provenance {
        self.prov
    }

    /// Replaces the ambient provenance (span and cause together).
    pub fn set_provenance(&mut self, prov: Provenance) {
        self.prov = prov;
    }

    /// Sets only the ambient span, keeping the current cause.
    pub fn set_span(&mut self, span: Option<u64>) {
        self.prov.span = span;
    }

    /// Sets only the ambient cause, keeping the current span.
    pub fn set_cause(&mut self, cause: Option<u64>) {
        self.prov.cause = cause;
    }

    /// Clears the ambient provenance back to [`Provenance::ROOT`].
    pub fn clear_provenance(&mut self) {
        self.prov = Provenance::ROOT;
    }

    /// Whether the tracer is recording at all.
    pub fn is_active(&self) -> bool {
        !matches!(self.sink, Sink::Disabled)
    }

    /// Whether an event at `level` would be recorded. This is the
    /// hot-path gate: on a disabled tracer it is a single `matches!`
    /// branch.
    #[inline]
    pub fn is_enabled(&self, level: TraceLevel) -> bool {
        self.is_active() && level != TraceLevel::Off && level <= self.level
    }

    /// Emits one event. `build` is only invoked (and fields are only
    /// allocated) when `level` is enabled.
    ///
    /// Returns the `seq` of the admitted event (`None` when filtered or
    /// disabled) so call sites can anchor later events to it via
    /// [`Tracer::set_cause`] — e.g. the `fault.epoch` seq becomes the
    /// cause of every recovery event the epoch triggers.
    #[inline]
    // lint:allow(alloc) — the retained TraceEvent record is the product; the disabled path returns first
    pub fn emit(
        &mut self,
        t: SimTime,
        component: &'static str,
        level: TraceLevel,
        kind: &'static str,
        build: impl FnOnce(&mut Fields),
    ) -> Option<u64> {
        if !self.is_enabled(level) {
            return None;
        }
        // Debug-build schema guard: events from registered components must
        // use a kind declared in the central registry (the static mirror
        // of this check is the `xtask analyze` registry pass). Scratch
        // components used by tests stay exempt. Sits after the enabled
        // gate so the disabled path keeps its one-branch cost.
        #[cfg(debug_assertions)]
        if registry::is_registered_component(component)
            && !registry::trace_kind_declared(component, kind)
        {
            // lint:allow(panic) — debug-only schema guard
            panic!(
                "trace kind {component:?}/{kind:?} is not declared in \
                 uap_sim::trace::registry::TRACE_KINDS; add a TraceKindSpec entry and a \
                 docs/OBSERVABILITY.md row (see docs/STATIC_ANALYSIS.md)"
            );
        }
        let mut fields = Fields::default();
        build(&mut fields);
        let ev = TraceEvent {
            seq: self.seq,
            t,
            span: self.prov.span,
            cause: self.prov.cause,
            level,
            component: component.to_owned(),
            kind: kind.to_owned(),
            fields: fields
                .0
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        };
        let seq = self.seq;
        self.seq += 1;
        match &mut self.sink {
            Sink::Disabled => {}
            Sink::Buffer(buf) => buf.push(ev),
            Sink::Stream(out) => {
                // Serialize into the tracer's reused line buffer — the
                // write-through path allocates nothing beyond number
                // formatting, whatever the run length.
                self.scratch_line.clear();
                ev.write_json_into(&mut self.scratch_line);
                self.scratch_line.push('\n');
                if out.write_all(self.scratch_line.as_bytes()).is_err() {
                    // Stream write failures count as drops; the run keeps
                    // going and whoever finishes it reads `dropped`.
                    self.dropped += 1;
                }
            }
        }
        Some(seq)
    }

    /// Flushes a streaming sink's buffered block to disk; a no-op for
    /// every other sink.
    pub fn flush(&mut self) -> io::Result<()> {
        match &mut self.sink {
            Sink::Stream(out) => out.flush(),
            _ => Ok(()),
        }
    }

    /// Number of events currently retained (always 0 for the streaming
    /// sink, which retains nothing).
    pub fn len(&self) -> usize {
        match &self.sink {
            Sink::Disabled | Sink::Stream(_) => 0,
            Sink::Buffer(buf) => buf.len(),
        }
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever emitted (including dropped ones).
    pub fn emitted(&self) -> u64 {
        self.seq
    }

    /// Events the streaming sink failed to write (0 for buffered/disabled
    /// tracers).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first (empty for the streaming sink — its
    /// events are already on disk).
    pub fn events(&self) -> Vec<&TraceEvent> {
        match &self.sink {
            Sink::Disabled | Sink::Stream(_) => Vec::new(),
            Sink::Buffer(buf) => buf.iter().collect(),
        }
    }

    /// Serializes all retained events as JSONL (one event per line,
    /// trailing newline after each).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes the retained events as JSONL.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(self.to_jsonl().as_bytes())
    }
}

/// Parses one JSONL line produced by [`TraceEvent::to_json`] back into an
/// event. Returns `Err` with a position-annotated message on malformed
/// input. `xtask trace` builds its `summary`/`diff` views on this.
pub fn parse_jsonl_line(line: &str) -> Result<TraceEvent, String> {
    let mut p = Parser { s: line, i: 0 };
    p.skip_ws();
    if p.peek() != Some(b'{') {
        return Err("top level is not an object".into());
    }
    let pairs = p.object(Parser::member)?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    let mut ev = TraceEvent {
        seq: 0,
        t: SimTime::ZERO,
        span: None,
        cause: None,
        level: TraceLevel::Off,
        component: String::new(),
        kind: String::new(),
        fields: Vec::new(),
    };
    for (k, v) in pairs {
        match (k.as_str(), v) {
            ("seq", Json::Scalar(Value::U64(n))) => ev.seq = n,
            ("t", Json::Scalar(Value::U64(n))) => ev.t = SimTime::from_micros(n),
            ("s", Json::Scalar(Value::U64(n))) => ev.span = Some(n),
            ("cs", Json::Scalar(Value::U64(n))) => ev.cause = Some(n),
            ("l", Json::Scalar(Value::Str(s))) => {
                ev.level = TraceLevel::parse(&s).ok_or_else(|| format!("unknown level {s:?}"))?
            }
            ("c", Json::Scalar(Value::Str(s))) => ev.component = s,
            ("k", Json::Scalar(Value::Str(s))) => ev.kind = s,
            ("f", Json::Fields(fs)) => ev.fields = fs,
            (other, _) => return Err(format!("unexpected key {other:?}")),
        }
    }
    Ok(ev)
}

/// A member of a trace line's top-level object: a scalar or — what `f`
/// holds — one object of scalars. Nothing nests deeper, so neither does
/// the parser, whatever the line.
enum Json {
    Scalar(Value),
    Fields(Vec<(String, Value)>),
}

struct Parser<'a> {
    s: &'a str,
    /// Byte offset into `s`, always on a char boundary.
    i: usize,
}

impl Parser<'_> {
    /// The byte at the cursor.
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn member(&mut self) -> Result<Json, String> {
        self.skip_ws();
        if self.peek() == Some(b'{') {
            Ok(Json::Fields(self.object(Parser::scalar)?))
        } else {
            Ok(Json::Scalar(self.scalar()?))
        }
    }

    /// A scalar, which is all the writer puts below `f`: an object there
    /// is an error at its `{`.
    fn scalar(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            Some(b'{') => Err(format!("nested object at {}", self.i)),
            other => Err(format!("unexpected {:?} at {}", other, self.i)),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.s.as_bytes()[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("expected {lit} at {}", self.i))
        }
    }

    /// An object whose member values `value` parses.
    fn object<T>(
        &mut self,
        value: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<(String, T)>, String> {
        self.i += 1; // consume '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(pairs);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at {}", self.i));
            }
            self.i += 1;
            let val = value(self)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(pairs);
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at {}", self.i));
        }
        self.i += 1;
        let mut out = String::new();
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                _ => {
                    // Multi-byte UTF-8: copy the whole char.
                    let rest = self.s.get(self.i..).ok_or("offset inside a char")?;
                    let ch = rest.chars().next().ok_or("truncated input")?;
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
        Err("unterminated string".into())
    }

    /// A number as the writer typed it: digits are a `u64`, `-`digits an
    /// `i64`, anything else (or wider) an `f64`. Integers never pass
    /// through `f64`, which would round everything above 2^53.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        // ASCII throughout, so both ends are char boundaries.
        let token = &self.s[start..self.i];
        if let Ok(n) = token.parse::<u64>() {
            Ok(Value::U64(n))
        } else if let Ok(n) = token.parse::<i64>() {
            Ok(Value::I64(n))
        } else {
            token
                .parse::<f64>()
                .map(Value::F64)
                .map_err(|e| e.to_string())
        }
    }
}

/// The **only** sanctioned wall-clock boundary in simulation-path code.
///
/// Used by `exp` to stamp the run report's `wall_secs` and by opt-in
/// engine stage timing. Readings
/// from this timer must never be fed into a [`Tracer`] or into the
/// determinism-compared sections of a run report — traces and reports
/// stay byte-identical across runs, and `xtask trace diff` skips
/// `"wall…"` keys precisely so this boundary stays visible but inert.
/// The determinism lint (`cargo run -p xtask -- lint`) rejects
/// `lint:allow(wallclock)` anywhere outside this file, so every
/// wall-clock read in the workspace flows through here.
#[derive(Debug)]
pub struct WallTimer {
    start: std::time::Instant, // lint:allow(wallclock) — the documented boundary
}

impl WallTimer {
    /// Starts the timer.
    #[allow(clippy::new_without_default)]
    pub fn start() -> WallTimer {
        WallTimer {
            start: std::time::Instant::now(), // lint:allow(wallclock) — the documented boundary
        }
    }

    /// Seconds elapsed since [`WallTimer::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        t: u64,
        c: &'static str,
        l: TraceLevel,
        k: &'static str,
    ) -> (SimTime, &'static str, TraceLevel, &'static str) {
        (SimTime::from_micros(t), c, l, k)
    }

    #[test]
    fn disabled_tracer_records_nothing_and_skips_builders() {
        let mut t = Tracer::disabled();
        let mut built = false;
        t.emit(SimTime::ZERO, "x", TraceLevel::Info, "k", |_| built = true);
        assert!(!built, "field builder ran on the disabled path");
        assert_eq!(t.len(), 0);
        assert_eq!(t.emitted(), 0);
        assert!(!t.is_enabled(TraceLevel::Info));
    }

    #[test]
    fn level_filtering_admits_up_to_the_tracer_level() {
        let mut t = Tracer::buffered(TraceLevel::Info);
        assert!(t.is_enabled(TraceLevel::Info));
        assert!(!t.is_enabled(TraceLevel::Debug));
        assert!(!t.is_enabled(TraceLevel::Off));

        for (time, c, l, k) in [
            ev(1, "other", TraceLevel::Info, "a"),
            ev(2, "other", TraceLevel::Debug, "b"), // filtered
            ev(3, "chatty", TraceLevel::Info, "c"),
            ev(4, "chatty", TraceLevel::Trace, "d"), // filtered
        ] {
            t.emit(time, c, l, k, |_| {});
        }
        let kinds: Vec<&str> = t.events().iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["a", "c"]);
        // seq numbers only count admitted events (gap-free stream).
        assert_eq!(t.events()[1].seq, 1);
    }

    #[test]
    fn jsonl_round_trip_preserves_everything() {
        let mut t = Tracer::buffered(TraceLevel::Trace);
        t.emit(
            SimTime::from_millis(5),
            "gnutella",
            TraceLevel::Debug,
            "flood.query",
            |f| {
                f.u64("host", 17)
                    .i64("delta", -3)
                    .f64("ratio", 0.25)
                    .f64("whole", 2.0)
                    .str("cat", "intra \"quoted\"\n\u{e9}\u{1f600}")
                    .bool("ok", true)
                    // Integers beyond f64's 53-bit mantissa, as
                    // Kademlia's full-range key prefixes are.
                    .u64("key", u64::MAX)
                    .u64("odd", (1 << 53) + 1)
                    .i64("floor", i64::MIN);
            },
        );
        let line = t.to_jsonl();
        let line = line.trim_end();
        let back = parse_jsonl_line(line).expect("round trip parse");
        let orig = t.events()[0];
        assert_eq!(back.seq, orig.seq);
        assert_eq!(back.t, orig.t);
        assert_eq!(back.level, orig.level);
        assert_eq!(back.component, orig.component);
        assert_eq!(back.kind, orig.kind);
        assert_eq!(back.fields, orig.fields);
        // And re-serialization is byte-identical.
        assert_eq!(back.to_json(), line);
    }

    #[test]
    fn field_order_is_preserved_in_output() {
        let mut t = Tracer::buffered(TraceLevel::Info);
        t.emit(SimTime::ZERO, "c", TraceLevel::Info, "k", |f| {
            f.u64("zulu", 1).u64("alpha", 2);
        });
        let line = t.to_jsonl();
        let zulu = line.find("zulu").expect("zulu present");
        let alpha = line.find("alpha").expect("alpha present");
        assert!(zulu < alpha, "insertion order must win over lexical order");
    }

    #[test]
    fn same_emission_sequence_serializes_identically() {
        let run = || {
            let mut t = Tracer::buffered(TraceLevel::Debug);
            for i in 0..20u64 {
                t.emit(
                    SimTime::from_micros(i * 7),
                    "net",
                    TraceLevel::Debug,
                    "transfer",
                    |f| {
                        f.u64("from", i)
                            .u64("to", i + 1)
                            .f64("frac", i as f64 / 3.0);
                    },
                );
            }
            t.to_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn non_finite_floats_serialize_as_strings() {
        let mut t = Tracer::buffered(TraceLevel::Info);
        t.emit(SimTime::ZERO, "c", TraceLevel::Info, "k", |f| {
            f.f64("nan", f64::NAN).f64("inf", f64::INFINITY);
        });
        let line = t.to_jsonl();
        assert!(line.contains("\"nan\":\"NaN\""));
        assert!(line.contains("\"inf\":\"inf\""));
        // Still parses.
        parse_jsonl_line(line.trim_end()).expect("parseable");
    }

    #[test]
    fn emit_returns_the_admitted_seq_and_none_when_filtered() {
        let mut t = Tracer::buffered(TraceLevel::Info);
        assert_eq!(
            t.emit(SimTime::ZERO, "c", TraceLevel::Info, "a", |_| {}),
            Some(0)
        );
        assert_eq!(
            t.emit(SimTime::ZERO, "c", TraceLevel::Debug, "b", |_| {}),
            None
        );
        assert_eq!(
            t.emit(SimTime::ZERO, "c", TraceLevel::Info, "c", |_| {}),
            Some(1)
        );
        let mut d = Tracer::disabled();
        assert_eq!(
            d.emit(SimTime::ZERO, "c", TraceLevel::Info, "a", |_| {}),
            None
        );
    }

    #[test]
    fn span_ids_are_a_deterministic_monotone_counter() {
        let mut t = Tracer::buffered(TraceLevel::Info);
        assert_eq!(t.alloc_span(), 0);
        assert_eq!(t.alloc_span(), 1);
        // Allocation is independent of sink state and level filtering.
        let mut d = Tracer::disabled();
        assert_eq!(d.alloc_span(), 0);
        assert_eq!(d.alloc_span(), 1);
    }

    #[test]
    fn span_and_cause_round_trip_through_jsonl() {
        let mut t = Tracer::buffered(TraceLevel::Debug);
        t.set_provenance(Provenance {
            span: Some(3),
            cause: Some(17),
        });
        t.emit(SimTime::from_micros(9), "c", TraceLevel::Debug, "k", |f| {
            f.u64("x", 1);
        });
        t.clear_provenance();
        t.emit(
            SimTime::from_micros(10),
            "c",
            TraceLevel::Debug,
            "k2",
            |_| {},
        );
        let lines = t.to_jsonl();
        let mut it = lines.lines();
        let first = it.next().expect("first line");
        assert!(
            first.contains("\"t\":9,\"s\":3,\"cs\":17,\"l\":"),
            "span/cause keys sit between t and l: {first}"
        );
        let back = parse_jsonl_line(first).expect("parse");
        assert_eq!(back.span, Some(3));
        assert_eq!(back.cause, Some(17));
        assert_eq!(back.to_json(), first, "re-serialization is byte-identical");
        // Provenance-free events omit the keys entirely.
        let second = it.next().expect("second line");
        assert!(!second.contains("\"s\":") && !second.contains("\"cs\":"));
        let back2 = parse_jsonl_line(second).expect("parse");
        assert_eq!((back2.span, back2.cause), (None, None));
    }

    #[test]
    fn non_finite_floats_inside_span_events_still_round_trip() {
        let mut t = Tracer::buffered(TraceLevel::Debug);
        t.set_span(Some(5));
        t.emit(SimTime::ZERO, "c", TraceLevel::Debug, "span.open", |f| {
            f.str("span_kind", "x")
                .f64("nan", f64::NAN)
                .f64("ninf", f64::NEG_INFINITY);
        });
        let line = t.to_jsonl();
        let line = line.trim_end();
        assert!(line.contains("\"s\":5"));
        assert!(line.contains("\"nan\":\"NaN\""));
        assert!(line.contains("\"ninf\":\"-inf\""));
        let back = parse_jsonl_line(line).expect("parse");
        assert_eq!(back.span, Some(5));
        assert_eq!(back.to_json(), line);
    }

    #[test]
    fn an_object_below_f_is_an_error_however_deep() {
        // The writer emits scalars below `f`, so the parser does not
        // recurse: nesting depth must cost an `Err`, not stack.
        let err = parse_jsonl_line(r#"{"f":{"a":{}}}"#).expect_err("nested object");
        assert_eq!(err, "nested object at 10");
        let deep = format!(
            r#"{{"f":{}1{}}}"#,
            r#"{"a":"#.repeat(100_000),
            "}".repeat(100_000)
        );
        let err = parse_jsonl_line(&deep).expect_err("deep nesting");
        assert_eq!(err, "nested object at 10");
        // One level under any other key is no event either.
        assert!(parse_jsonl_line(r#"{"seq":{"a":1}}"#).is_err());
        let ok = parse_jsonl_line(r#"{"seq":3,"f":{"a":1,"b":"x"}}"#).expect("flat fields");
        assert_eq!((ok.seq, ok.fields.len()), (3, 2));
    }

    #[test]
    fn streaming_sink_bytes_match_the_buffered_sink() {
        let dir = std::env::temp_dir();
        let path = dir.join("uap_trace_streaming_byte_identity.jsonl");
        let emit_all = |t: &mut Tracer| {
            let span = t.alloc_span();
            t.set_span(Some(span));
            let open = t.emit(SimTime::ZERO, "c", TraceLevel::Debug, "span.open", |f| {
                f.str("span_kind", "x");
            });
            t.set_cause(open);
            for i in 0..10u64 {
                t.emit(SimTime::from_micros(i), "c", TraceLevel::Debug, "k", |f| {
                    f.u64("i", i).f64("frac", i as f64 / 3.0);
                });
            }
            t.emit(
                SimTime::from_micros(10),
                "c",
                TraceLevel::Debug,
                "span.close",
                |f| {
                    f.str("span_kind", "x");
                },
            );
            t.clear_provenance();
        };
        let mut buffered = Tracer::buffered(TraceLevel::Debug);
        emit_all(&mut buffered);
        let mut streaming = Tracer::streaming(&path, TraceLevel::Debug).expect("create");
        emit_all(&mut streaming);
        streaming.flush().expect("flush");
        assert_eq!(streaming.len(), 0, "streaming sink retains nothing");
        assert_eq!(streaming.emitted(), buffered.emitted());
        let streamed = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(streamed, buffered.to_jsonl(), "byte-identical output");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wall_timer_is_monotonic_and_outside_the_trace() {
        let w = WallTimer::start();
        let e1 = w.elapsed_secs();
        let e2 = w.elapsed_secs();
        assert!(e2 >= e1);
        assert!(e1 >= 0.0);
    }
}
