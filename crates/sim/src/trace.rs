//! Structured, deterministic tracing.
//!
//! A [`Tracer`] records typed, sim-time-stamped events from every layer of
//! a run: the underlay (per-link traffic, fault epochs, routing repairs)
//! and the overlay substrates (floods, lookup hops, piece exchanges,
//! collection calls). [`Tracer::emit`] renders each event once, as its
//! JSONL line, straight into the sink; [`TraceEvent`] is the read side,
//! built only by [`parse_jsonl_line`].
//! Because every field of every event is a pure function of the run's
//! configuration and seed, **two runs of the same experiment with the same
//! seed must serialize to byte-identical JSONL** — which makes the trace
//! both a debugging artifact and a far finer-grained determinism check
//! than comparing end-of-run reports (`exp trace diff` localizes the
//! *first* diverging event).
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
//!   to put a wall-clock reading into a [`Fields`]). Clippy bans
//!   `Instant::now` workspace-wide, and the root package's
//!   `disallowed_escapes_sit_at_audited_boundaries` test rejects the
//!   escape anywhere outside this file.

pub mod registry;

use crate::time::SimTime;
use registry::TraceKind;
use std::fmt::{self, Write as _};
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
/// Events carry these as the optional JSONL keys `"s"` and `"cs"`,
/// between `"t"` and `"l"` and left out when absent.
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
/// `Off < Info < Debug`: a tracer at `Info` admits `Info` events and
/// rejects `Debug` ones.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum TraceLevel {
    /// Nothing is recorded.
    #[default]
    Off,
    /// Run-level milestones (role census, run end, swarm completion).
    Info,
    /// Per-decision events (floods, lookups, transfers, piece completions).
    Debug,
}

impl TraceLevel {
    /// Stable lower-case name used in the JSONL encoding.
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Info => "info",
            TraceLevel::Debug => "debug",
        }
    }

    /// Parses the JSONL encoding back; `None` for unknown names.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "info" => Some(TraceLevel::Info),
            "debug" => Some(TraceLevel::Debug),
            _ => None,
        }
    }
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A field value read back from a trace line. The writer renders the
/// same scalars straight into the line through [`Fields`]; both go
/// through one float renderer and one string escaper.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer: no writer renders one, but a line that carries a
    /// negative integer still parses.
    I64(i64),
    /// Float (non-finite values are the strings `"NaN"` / `"inf"` /
    /// `"-inf"` on the line).
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Appends the value's JSON encoding to `out`, byte for byte as
    /// [`Fields`] renders it. Public so trace tooling can render parsed
    /// fields exactly as they were written.
    pub fn write_json_value(&self, out: &mut String) {
        match self {
            Value::U64(v) => write_int(out, v),
            Value::I64(v) => write_int(out, v),
            Value::F64(v) => write_f64(out, *v),
            Value::Str(s) => write_quoted(out, s),
            Value::Bool(b) => write_bool(out, *b),
        }
    }
}

fn write_int(out: &mut String, v: impl fmt::Display) {
    let _ = write!(out, "{v}");
}

/// A float via Rust's shortest-roundtrip formatter, which is deterministic
/// for identical bits; a non-finite one as the string `"NaN"`, `"inf"` or
/// `"-inf"`.
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

fn write_bool(out: &mut String, v: bool) {
    out.push_str(if v { "true" } else { "false" });
}

fn write_quoted(out: &mut String, s: &str) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Escapes `s` as JSON string content into `out`: `"`, `\` and the
/// control characters below U+0020 are escaped, every other char is
/// copied as is, in runs.
pub(crate) fn escape_into(s: &str, out: &mut String) {
    // Every byte escaped is ASCII, so both ends of each run are char
    // boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "", // `\u00XX`, below
            _ => continue,
        };
        out.push_str(s.get(run..i).unwrap_or_default());
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escaped);
        }
        run = i + 1;
    }
    out.push_str(s.get(run..).unwrap_or_default());
}

/// The payload of the event being emitted. Each call appends one
/// `"key":value` pair to the event's JSONL line, in call order, so
/// instrumentation sites fully control the byte layout of their events.
#[derive(Debug)]
pub struct Fields<'a>(&'a mut String);

impl Fields<'_> {
    /// Appends `"key":`, after a comma unless the line still ends in the
    /// `{` that opens `f` (no value the writer renders ends in one).
    fn key(&mut self, key: &str) -> &mut String {
        if !self.0.ends_with('{') {
            self.0.push(',');
        }
        write_quoted(self.0, key);
        self.0.push(':');
        self.0
    }

    /// Appends an unsigned integer field.
    pub fn u64(&mut self, key: &'static str, v: u64) -> &mut Self {
        write_int(self.key(key), v);
        self
    }

    /// Appends a float field.
    pub fn f64(&mut self, key: &'static str, v: f64) -> &mut Self {
        write_f64(self.key(key), v);
        self
    }

    /// Appends a string field.
    pub fn str(&mut self, key: &'static str, v: &str) -> &mut Self {
        write_quoted(self.key(key), v);
        self
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, key: &'static str, v: bool) -> &mut Self {
        write_bool(self.key(key), v);
        self
    }
}

/// One trace event as [`parse_jsonl_line`] reads it back from its line.
/// The writer never builds one: [`Tracer::emit`] renders the line itself.
#[derive(Clone, PartialEq, Debug, Default)]
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
    /// Emitting component (`"net"`, `"gnutella"`, `"kademlia"`, …).
    pub component: String,
    /// Event kind within the component (`"transfer"`, `"flood.query"`, …).
    pub kind: String,
    /// Ordered key/value payload.
    pub fields: Vec<(String, Value)>,
}

/// Where enabled tracers put the lines they render.
#[derive(Debug)]
enum Sink {
    /// Record nothing; every `is_enabled` query is `false`.
    Disabled,
    /// In-memory JSONL (quick experiment runs, tests): each event is
    /// rendered straight onto its end.
    Buffer(String),
    /// Write-through JSONL stream: each event is rendered into the
    /// tracer's reused line and written at once, so nothing is retained
    /// (O(1) memory for arbitrarily long runs).
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
    /// The streaming sink's line, reused across events so the hot path
    /// does not allocate.
    line: String,
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
            line: String::new(),
        }
    }

    /// The no-op tracer: records nothing, costs one branch per query.
    pub fn disabled() -> Tracer {
        Tracer::with_sink(Sink::Disabled, TraceLevel::Off)
    }

    /// An unbounded in-memory tracer admitting events up to `level`.
    pub fn buffered(level: TraceLevel) -> Tracer {
        Tracer::with_sink(Sink::Buffer(String::new()), level)
    }

    /// A write-through streaming tracer: every admitted event is appended
    /// to the JSONL file at `path` as it is emitted, retaining nothing in
    /// memory. [`Tracer::emit`] renders the line the same way for either
    /// sink, so a streamed trace is the buffered trace of the same seed.
    /// Call [`Tracer::flush`] (or drop the tracer) to flush the final
    /// buffer block.
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

    /// Emits one event of `kind` at the level the kind declares, rendered
    /// once as its JSONL line: `build` appends the fields straight into
    /// that line, and is only invoked when the level is enabled.
    ///
    /// Returns the `seq` of the admitted event (`None` when filtered or
    /// disabled) so call sites can anchor later events to it via
    /// [`Tracer::set_cause`] — e.g. the `fault.epoch` seq becomes the
    /// cause of every recovery event the epoch triggers.
    #[inline]
    pub fn emit(
        &mut self,
        t: SimTime,
        kind: TraceKind,
        build: impl FnOnce(&mut Fields),
    ) -> Option<u64> {
        if !self.is_enabled(kind.level()) {
            return None;
        }
        build(&mut Fields(self.begin_line(t, kind)));
        Some(self.end_line())
    }

    /// Renders an admitted event's header, up to the `{` that opens `f`,
    /// onto the line the sink writes: the buffer itself, or the cleared
    /// stream line. `"s"` and `"cs"` sit between `"t"` and `"l"` and are
    /// left out when absent.
    fn begin_line(&mut self, t: SimTime, kind: TraceKind) -> &mut String {
        let line = match &mut self.sink {
            Sink::Buffer(text) => text,
            Sink::Disabled | Sink::Stream(_) => {
                self.line.clear();
                &mut self.line
            }
        };
        let _ = write!(line, "{{\"seq\":{},\"t\":{}", self.seq, t.as_micros());
        if let Some(s) = self.prov.span {
            let _ = write!(line, ",\"s\":{s}");
        }
        if let Some(cs) = self.prov.cause {
            let _ = write!(line, ",\"cs\":{cs}");
        }
        let _ = write!(line, ",\"l\":\"{}\",\"c\":", kind.level().name());
        write_quoted(line, kind.component());
        line.push_str(",\"k\":");
        write_quoted(line, kind.kind());
        line.push_str(",\"f\":{");
        line
    }

    /// Closes the line [`Tracer::begin_line`] opened, writes it through a
    /// streaming sink, and returns its seq.
    fn end_line(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        match &mut self.sink {
            Sink::Disabled => {}
            Sink::Buffer(text) => text.push_str("}}\n"),
            Sink::Stream(out) => {
                self.line.push_str("}}\n");
                if out.write_all(self.line.as_bytes()).is_err() {
                    // Stream write failures count as drops; the run keeps
                    // going and whoever finishes it reads `dropped`.
                    self.dropped += 1;
                }
            }
        }
        seq
    }

    /// Flushes a streaming sink's buffered block to disk; a no-op for
    /// every other sink.
    pub fn flush(&mut self) -> io::Result<()> {
        match &mut self.sink {
            Sink::Stream(out) => out.flush(),
            _ => Ok(()),
        }
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

    /// The buffered sink's JSONL, one line per event, each ending in a
    /// newline (empty for every other sink).
    pub fn to_jsonl(&self) -> String {
        match &self.sink {
            Sink::Buffer(text) => text.clone(),
            Sink::Disabled | Sink::Stream(_) => String::new(),
        }
    }

    /// The buffered sink's events, oldest first, read back from its JSONL
    /// through [`parse_jsonl_line`] (empty for every other sink: a
    /// streamed trace is already on disk). Every line the writer renders
    /// parses; the tests pin both sides.
    pub fn events(&self) -> Vec<TraceEvent> {
        let Sink::Buffer(text) = &self.sink else {
            return Vec::new();
        };
        text.lines()
            .filter_map(|line| parse_jsonl_line(line).ok())
            .collect()
    }
}

/// Parses one JSONL line written by [`Tracer::emit`] back into an event.
/// Returns `Err` with a position-annotated message on malformed input.
/// [`Tracer::events`] and `exp trace` read every event through this.
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
    let mut ev = TraceEvent::default();
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
        let rest = self.s.as_bytes().get(self.i..).unwrap_or_default();
        if rest.starts_with(lit.as_bytes()) {
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
/// stay byte-identical across runs, and `exp trace diff` skips
/// `"wall…"` keys precisely so this boundary stays visible but inert.
/// Clippy bans `Instant::now` workspace-wide (`clippy.toml`), and the
/// one escape, on [`WallTimer::start`], is allowed only in this file, so
/// every wall-clock read in the workspace flows through here.
#[derive(Debug)]
pub struct WallTimer {
    start: std::time::Instant,
}

impl WallTimer {
    /// Starts the timer.
    #[expect(
        clippy::disallowed_methods,
        reason = "the documented wall-clock boundary"
    )]
    pub fn start() -> WallTimer {
        WallTimer {
            start: std::time::Instant::now(),
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

    /// A scratch kind: undeclared, so only this crate's tests can build it.
    const fn kind(c: &'static str, l: TraceLevel, k: &'static str) -> TraceKind {
        TraceKind::scratch(c, l, k)
    }

    #[test]
    fn disabled_tracer_records_nothing_and_skips_builders() {
        let mut t = Tracer::disabled();
        let mut built = false;
        t.emit(SimTime::ZERO, kind("x", TraceLevel::Info, "k"), |_| {
            built = true
        });
        assert!(!built, "field builder ran on the disabled path");
        assert_eq!(t.to_jsonl(), "");
        assert_eq!(t.emitted(), 0);
        assert!(!t.is_enabled(TraceLevel::Info));
    }

    #[test]
    fn level_filtering_admits_up_to_the_tracer_level() {
        let mut t = Tracer::buffered(TraceLevel::Info);
        assert!(t.is_enabled(TraceLevel::Info));
        assert!(!t.is_enabled(TraceLevel::Debug));
        assert!(!t.is_enabled(TraceLevel::Off));

        for (time, k) in [
            (1, kind("other", TraceLevel::Info, "a")),
            (2, kind("other", TraceLevel::Debug, "b")), // filtered
            (3, kind("chatty", TraceLevel::Info, "c")),
            (4, kind("chatty", TraceLevel::Debug, "d")), // filtered
        ] {
            t.emit(SimTime::from_micros(time), k, |_| {});
        }
        let evs = t.events();
        let kinds: Vec<&str> = evs.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["a", "c"]);
        // seq numbers only count admitted events (gap-free stream).
        assert_eq!(evs[1].seq, 1);
    }

    #[test]
    fn jsonl_round_trip_preserves_everything() {
        let mut t = Tracer::buffered(TraceLevel::Debug);
        t.emit(
            SimTime::from_millis(5),
            registry::GNUTELLA_FLOOD_QUERY,
            |f| {
                f.u64("host", 17)
                    .f64("ratio", 0.25)
                    .f64("whole", 2.0)
                    .str("cat", "intra \"quoted\"\n\u{e9}\u{1f600}")
                    .bool("ok", true)
                    // Integers beyond f64's 53-bit mantissa, as
                    // Kademlia's full-range key prefixes are.
                    .u64("key", u64::MAX)
                    .u64("odd", (1 << 53) + 1);
            },
        );
        let jsonl = t.to_jsonl();
        let line = jsonl.trim_end();
        let back = parse_jsonl_line(line).expect("round trip parse");
        assert_eq!(
            (back.seq, back.t, back.span, back.cause, back.level),
            (0, SimTime::from_millis(5), None, None, TraceLevel::Debug)
        );
        assert_eq!(
            (back.component.as_str(), back.kind.as_str()),
            ("gnutella", "flood.query")
        );
        let fields = [
            ("host", Value::U64(17)),
            ("ratio", Value::F64(0.25)),
            ("whole", Value::F64(2.0)),
            (
                "cat",
                Value::Str("intra \"quoted\"\n\u{e9}\u{1f600}".into()),
            ),
            ("ok", Value::Bool(true)),
            ("key", Value::U64(u64::MAX)),
            ("odd", Value::U64((1 << 53) + 1)),
        ];
        assert_eq!(back.fields, fields.map(|(k, v)| (k.to_owned(), v)));
        // `Value` renders each field back to the bytes `Fields` wrote.
        let mut f = String::from("{");
        for (k, v) in &back.fields {
            write_quoted(&mut f, k);
            f.push(':');
            v.write_json_value(&mut f);
            f.push(',');
        }
        f.pop();
        assert!(line.ends_with(&format!(",\"f\":{f}}}}}")), "{line}");
    }

    #[test]
    fn a_negative_integer_parses_though_no_writer_renders_one() {
        let ev = parse_jsonl_line(
            r#"{"seq":0,"f":{"d":-3,"floor":-9223372036854775808,"below":-9223372036854775809}}"#,
        )
        .expect("parses");
        let want = [
            ("d", Value::I64(-3)),
            ("floor", Value::I64(i64::MIN)),
            ("below", Value::F64(-9_223_372_036_854_775_809.0)),
        ];
        assert_eq!(ev.fields, want.map(|(k, v)| (k.to_owned(), v)));
    }

    /// The line format, byte for byte: every field type the writer has,
    /// `s` and `cs` between `t` and `l`, a provenance-free line and an
    /// empty `f`. Round trips cannot catch a writer that drifts in step
    /// with the parser; these literals can.
    #[test]
    fn lines_are_pinned_byte_for_byte() {
        let mut t = Tracer::buffered(TraceLevel::Debug);
        t.set_provenance(Provenance {
            span: Some(3),
            cause: Some(17),
        });
        t.emit(SimTime::from_micros(9), registry::NET_TRANSFER, |f| {
            f.u64("zero", 0)
                .u64("max", u64::MAX)
                .f64("ratio", 0.1)
                .f64("whole", 2.0)
                .f64("tiny", 1e-7)
                .f64("nan", f64::NAN)
                .f64("inf", f64::INFINITY)
                .f64("ninf", f64::NEG_INFINITY)
                .bool("yes", true)
                .bool("no", false);
        });
        t.set_provenance(Provenance {
            span: None,
            cause: Some(0),
        });
        t.emit(SimTime::from_secs(2), registry::GNUTELLA_SPAN_OPEN, |f| {
            f.str("s", "q\"b\\n\nt\t\r\u{1}\u{1f}é😀");
        });
        t.clear_provenance();
        t.emit(SimTime::ZERO, kind("run", TraceLevel::Info, "end"), |_| {});
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines,
            [
                concat!(
                    r#"{"seq":0,"t":9,"s":3,"cs":17,"l":"debug","c":"net","k":"transfer","f":{"#,
                    r#""zero":0,"max":18446744073709551615,"ratio":0.1,"whole":2.0,"#,
                    r#""tiny":1e-7,"nan":"NaN","inf":"inf","ninf":"-inf","yes":true,"no":false}}"#
                ),
                concat!(
                    r#"{"seq":1,"t":2000000,"cs":0,"l":"debug","c":"gnutella","k":"span.open","#,
                    r#""f":{"s":"q\"b\\n\nt\t\r\u0001\u001fé😀"}}"#
                ),
                r#"{"seq":2,"t":0,"l":"info","c":"run","k":"end","f":{}}"#,
            ]
        );
    }

    #[test]
    fn field_order_is_preserved_in_output() {
        let mut t = Tracer::buffered(TraceLevel::Info);
        t.emit(SimTime::ZERO, kind("c", TraceLevel::Info, "k"), |f| {
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
                t.emit(SimTime::from_micros(i * 7), registry::NET_TRANSFER, |f| {
                    f.u64("from", i)
                        .u64("to", i + 1)
                        .f64("frac", i as f64 / 3.0);
                });
            }
            t.to_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn non_finite_floats_serialize_as_strings() {
        let mut t = Tracer::buffered(TraceLevel::Info);
        t.emit(SimTime::ZERO, kind("c", TraceLevel::Info, "k"), |f| {
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
            t.emit(SimTime::ZERO, kind("c", TraceLevel::Info, "a"), |_| {}),
            Some(0)
        );
        assert_eq!(
            t.emit(SimTime::ZERO, kind("c", TraceLevel::Debug, "b"), |_| {}),
            None
        );
        assert_eq!(
            t.emit(SimTime::ZERO, kind("c", TraceLevel::Info, "c"), |_| {}),
            Some(1)
        );
        let mut d = Tracer::disabled();
        assert_eq!(
            d.emit(SimTime::ZERO, kind("c", TraceLevel::Info, "a"), |_| {}),
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
        t.emit(
            SimTime::from_micros(9),
            kind("c", TraceLevel::Debug, "k"),
            |f| {
                f.u64("x", 1);
            },
        );
        t.clear_provenance();
        t.emit(
            SimTime::from_micros(10),
            kind("c", TraceLevel::Debug, "k2"),
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
        // Provenance-free events omit the keys entirely.
        let second = it.next().expect("second line");
        assert!(!second.contains("\"s\":") && !second.contains("\"cs\":"));
        let back2 = parse_jsonl_line(second).expect("parse");
        assert_eq!((back2.span, back2.cause), (None, None));
    }

    #[test]
    fn non_finite_floats_inside_span_events_still_parse() {
        let mut t = Tracer::buffered(TraceLevel::Debug);
        t.set_span(Some(5));
        t.emit(
            SimTime::ZERO,
            kind("c", TraceLevel::Debug, "span.open"),
            |f| {
                f.str("span_kind", "x")
                    .f64("nan", f64::NAN)
                    .f64("ninf", f64::NEG_INFINITY);
            },
        );
        let jsonl = t.to_jsonl();
        let line = jsonl.trim_end();
        assert!(line.contains("\"s\":5"));
        assert!(line.contains("\"nan\":\"NaN\""));
        assert!(line.contains("\"ninf\":\"-inf\""));
        let back = parse_jsonl_line(line).expect("parse");
        assert_eq!(back.span, Some(5));
        assert_eq!(
            back.fields.get(1..),
            Some(
                &[
                    ("nan".to_owned(), Value::Str("NaN".into())),
                    ("ninf".to_owned(), Value::Str("-inf".into())),
                ][..]
            )
        );
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
            let open = t.emit(
                SimTime::ZERO,
                kind("c", TraceLevel::Debug, "span.open"),
                |f| {
                    f.str("span_kind", "x");
                },
            );
            t.set_cause(open);
            for i in 0..10u64 {
                t.emit(
                    SimTime::from_micros(i),
                    kind("c", TraceLevel::Debug, "k"),
                    |f| {
                        f.u64("i", i).f64("frac", i as f64 / 3.0);
                    },
                );
            }
            t.emit(
                SimTime::from_micros(10),
                kind("c", TraceLevel::Debug, "span.close"),
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
        assert_eq!(streaming.to_jsonl(), "", "streaming sink retains nothing");
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
