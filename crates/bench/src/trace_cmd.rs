//! `exp trace <diff|spans|explain|check>` — the trace readers.
//!
//! * `trace diff <a> <b>` — line-by-line comparison of two trace or
//!   `RunReport` JSON files that reports the **first divergence**. Lines
//!   whose key starts with `"wall` (the RunReport's `wall_secs`) are
//!   exempt on both sides — wall time is the one value allowed to differ
//!   between same-seed runs. When the diverging lines parse as trace
//!   events, the diagnostic names each side's seq / sim-time /
//!   component / kind, which localizes a determinism break to the exact
//!   event where two runs' histories fork (see `docs/OBSERVABILITY.md`).
//!
//! * `trace spans <file.jsonl>` — per-span-kind duration statistics
//!   (count, p50/p95/p99, max) over the causal spans in the trace, plus
//!   a critical-path breakdown per `experiment/phase` segment: which
//!   span kind the phase's modeled time went to.
//!
//! * `trace explain <file.jsonl> <seq>` — walks the `cs` cause links
//!   from the given event back to its root and prints the whole chain
//!   (e.g. download ← retry ← fault epoch).
//!
//! * `trace check <file.jsonl>` — the census of one JSONL trace written
//!   by a `--trace` run (per-component / per-kind event counts, the
//!   simulated time span, the event rate), then the integrity verdict:
//!   the k-th event line carries seq k (a missing seq is a line the file
//!   lost; a repeated or out-of-order one, a line written twice or
//!   moved), every event is a kind the registry declares, at its
//!   declared level, every cause references an earlier seq that exists
//!   in the trace, span ids are opened before use, and
//!   span.open/span.close are balanced.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use uap_sim::trace::{parse_jsonl_line, registry};
use uap_sim::{TraceEvent, TraceLevel, Value};

/// Outcome of a [`diff`] comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiffResult {
    /// Every compared line matched.
    Identical {
        /// Lines compared.
        lines: usize,
        /// Wall-clock lines exempted from comparison.
        skipped: usize,
    },
    /// The files differ; `line` is 1-indexed.
    Divergence {
        /// First diverging line number.
        line: usize,
        /// That line in the first file (None = file ended).
        a: Option<String>,
        /// That line in the second file (None = file ended).
        b: Option<String>,
    },
}

/// True for report lines exempt from determinism comparison: the leaf
/// key starts with `wall` (e.g. `  "wall_secs": 1.23`).
fn is_wall_line(line: &str) -> bool {
    line.trim_start().starts_with("\"wall")
}

/// Compares two files line by line; see the module docs for the wall
/// exemption. Returns the first divergence, if any.
pub fn diff(a: &str, b: &str) -> DiffResult {
    let (mut la, mut lb) = (a.lines(), b.lines());
    let (mut line, mut skipped) = (0, 0);
    loop {
        line += 1;
        match (la.next(), lb.next()) {
            (None, None) => {
                return DiffResult::Identical {
                    lines: line - 1,
                    skipped,
                }
            }
            (Some(x), Some(y)) if is_wall_line(x) && is_wall_line(y) => skipped += 1,
            (x, y) if x == y => {}
            (x, y) => {
                let (a, b) = (x.map(str::to_owned), y.map(str::to_owned));
                return DiffResult::Divergence { line, a, b };
            }
        }
    }
}

/// Renders a [`DiffResult`] for the terminal, decoding trace-event lines
/// into `seq/t/component/kind` context when they parse.
pub fn render_diff(labels: (&str, &str), r: &DiffResult) -> String {
    let mut out = String::new();
    match r {
        DiffResult::Identical { lines, skipped } => {
            let _ = writeln!(
                out,
                "identical: {lines} line(s) compared, {skipped} wall-clock line(s) exempt"
            );
        }
        DiffResult::Divergence { line, a, b } => {
            let _ = writeln!(out, "first divergence at line {line}:");
            for (label, side) in [(labels.0, a), (labels.1, b)] {
                match side {
                    None => {
                        let _ = writeln!(out, "  {label}: <end of file>");
                    }
                    Some(text) => {
                        let _ = writeln!(out, "  {label}: {text}");
                        if let Ok(ev) = parse_jsonl_line(text) {
                            let _ = writeln!(
                                out,
                                "    = seq {} at t={}us, component `{}`, kind `{}`",
                                ev.seq,
                                ev.t.as_micros(),
                                ev.component,
                                ev.kind
                            );
                        }
                    }
                }
            }
        }
    }
    out
}

/// Parses every line of a JSONL trace (blank lines skipped), failing on
/// the first malformed line.
fn parse_trace(content: &str) -> Result<Vec<TraceEvent>, String> {
    let mut evs = Vec::new();
    for (i, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        evs.push(parse_jsonl_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(evs)
}

fn field_u64(ev: &TraceEvent, key: &str) -> Option<u64> {
    ev.fields.iter().find_map(|(k, v)| match v {
        Value::U64(n) if k == key => Some(*n),
        _ => None,
    })
}

fn field_str<'a>(ev: &'a TraceEvent, key: &str) -> Option<&'a str> {
    ev.fields.iter().find_map(|(k, v)| match v {
        Value::Str(s) if k == key => Some(s.as_str()),
        _ => None,
    })
}

/// Nearest-rank quantile of an ascending-sorted, non-empty slice.
#[expect(
    clippy::cast_possible_truncation,
    reason = "q ≤ 1, so ceil(q · n) ≤ n, a usize"
)]
#[expect(clippy::indexing_slicing, reason = "rank in 1..=n = sorted.len()")]
fn quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Per-span-kind duration statistics plus a per-phase critical-path
/// breakdown. A span's duration is the `dur_us` field on its
/// `span.close` when present (synchronous drivers close at the open's
/// sim time and report modeled latency explicitly), else the sim-time
/// delta between close and open. Spans are attributed to the
/// `experiment/phase` segment they were **opened** in.
pub fn spans(content: &str) -> Result<String, String> {
    let evs = parse_trace(content)?;
    struct Open {
        label: String,
        t_us: u64,
        phase: usize,
    }
    let mut phases: Vec<String> = vec!["(no phase)".to_string()];
    let mut cur_phase = 0usize;
    let mut open: BTreeMap<u64, Open> = BTreeMap::new();
    // label -> sorted-later durations; (phase idx, label) -> (total, count)
    let mut durations: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut phase_totals: BTreeMap<(usize, String), (u64, u64)> = BTreeMap::new();
    let mut unmatched_closes = 0u64;
    for ev in &evs {
        if ev.component == "experiment" && ev.kind == "phase" {
            phases.push(field_str(ev, "name").unwrap_or("?").to_string());
            cur_phase = phases.len() - 1;
            continue;
        }
        match ev.kind.as_str() {
            "span.open" => {
                let Some(id) = ev.span else { continue };
                let kind = field_str(ev, "span_kind").unwrap_or("?");
                open.insert(
                    id,
                    Open {
                        label: format!("{}/{kind}", ev.component),
                        t_us: ev.t.as_micros(),
                        phase: cur_phase,
                    },
                );
            }
            "span.close" => {
                let matched = ev.span.and_then(|id| open.remove(&id));
                let Some(o) = matched else {
                    unmatched_closes += 1;
                    continue;
                };
                let dur = field_u64(ev, "dur_us")
                    .unwrap_or_else(|| ev.t.as_micros().saturating_sub(o.t_us));
                durations.entry(o.label.clone()).or_default().push(dur);
                let slot = phase_totals.entry((o.phase, o.label)).or_insert((0, 0));
                slot.0 = slot.0.saturating_add(dur);
                slot.1 += 1;
            }
            _ => {}
        }
    }
    let mut out = String::new();
    if durations.is_empty() && open.is_empty() {
        let _ = writeln!(out, "no spans in trace ({} event(s))", evs.len());
        return Ok(out);
    }
    let _ = writeln!(out, "span durations (modeled time, us):");
    let _ = writeln!(
        out,
        "  {:<24} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "span kind", "count", "p50", "p95", "p99", "max"
    );
    for (label, durs) in &mut durations {
        durs.sort_unstable();
        let _ = writeln!(
            out,
            "  {label:<24} {:>7} {:>12} {:>12} {:>12} {:>12}",
            durs.len(),
            quantile(durs, 0.50),
            quantile(durs, 0.95),
            quantile(durs, 0.99),
            durs.last().copied().unwrap_or(0)
        );
    }
    let _ = writeln!(out, "critical path by phase (total modeled span time):");
    for (i, phase) in phases.iter().enumerate() {
        let mut rows: Vec<(&String, u64, u64)> = phase_totals
            .iter()
            .filter(|((p, _), _)| *p == i)
            .map(|((_, label), &(total, count))| (label, total, count))
            .collect();
        if rows.is_empty() {
            continue;
        }
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let phase_sum = rows.iter().map(|r| r.1).fold(0, u64::saturating_add);
        let _ = writeln!(out, "  {phase}:");
        for (label, total, count) in rows {
            let pct = if phase_sum > 0 {
                total as f64 / phase_sum as f64 * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "    {label:<22} {total:>14}us  {pct:>5.1}%  ({count} span(s))"
            );
        }
    }
    if !open.is_empty() {
        let _ = writeln!(out, "{} span(s) still open at end of trace", open.len());
    }
    if unmatched_closes > 0 {
        let _ = writeln!(
            out,
            "{unmatched_closes} span.close event(s) without a matching open \
             (truncated trace?)"
        );
    }
    Ok(out)
}

/// Walks the `cs` cause links from `seq` back to the chain's root and
/// renders the chain root-first.
pub fn explain(content: &str, seq: u64) -> Result<String, String> {
    let evs = parse_trace(content)?;
    let by_seq: BTreeMap<u64, &TraceEvent> = evs.iter().map(|e| (e.seq, e)).collect();
    let start = by_seq
        .get(&seq)
        .ok_or_else(|| format!("seq {seq} not found in trace ({} event(s))", evs.len()))?;
    let mut chain: Vec<&TraceEvent> = vec![start];
    let mut missing_cause: Option<u64> = None;
    let mut cur = *start;
    while let Some(cs) = cur.cause {
        if chain.len() > evs.len() {
            return Err(format!(
                "cause chain from seq {seq} does not terminate (cycle?)"
            ));
        }
        match by_seq.get(&cs) {
            Some(parent) => {
                chain.push(parent);
                cur = parent;
            }
            None => {
                missing_cause = Some(cs);
                break;
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "causal chain for seq {seq}: {} link(s) to root",
        chain.len() - 1
    );
    if let Some(cs) = missing_cause {
        let _ = writeln!(
            out,
            "  … cause seq {cs} is not in the trace (lost line?) — chain incomplete"
        );
    }
    for (depth, ev) in chain.iter().rev().enumerate() {
        let indent = "   ".repeat(depth);
        let arrow = if depth == 0 { "root:" } else { "└─" };
        let span = ev.span.map(|s| format!("  span={s}")).unwrap_or_default();
        let fields: Vec<String> = ev
            .fields
            .iter()
            .map(|(k, v)| {
                let mut s = format!("{k}=");
                v.write_json_value(&mut s);
                s
            })
            .collect();
        let _ = writeln!(
            out,
            "  {indent}{arrow} seq {} t={}us {}/{}{span}  {{{}}}",
            ev.seq,
            ev.t.as_micros(),
            ev.component,
            ev.kind,
            fields.join(", ")
        );
    }
    Ok(out)
}

/// The census of a parsed trace: totals, sim-time span, event rate, and
/// per-component / per-kind counts.
fn census(evs: &[TraceEvent]) -> String {
    let times = evs.iter().map(|e| e.t.as_micros());
    let (Some(t_min), Some(t_max)) = (times.clone().min(), times.max()) else {
        return "empty trace (0 events)\n".to_string();
    };
    let mut by_component: BTreeMap<&str, u64> = BTreeMap::new();
    let mut by_kind: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for ev in evs {
        *by_component.entry(&ev.component).or_insert(0) += 1;
        *by_kind.entry((&ev.component, &ev.kind)).or_insert(0) += 1;
    }
    let mut out = String::new();
    let total = evs.len();
    let span_us = t_max - t_min;
    let _ = writeln!(
        out,
        "{total} event(s) over {:.3} simulated second(s) (t = {t_min}us .. {t_max}us)",
        span_us as f64 / 1e6
    );
    if span_us > 0 {
        let _ = writeln!(
            out,
            "rate: {:.1} events per simulated second",
            total as f64 / (span_us as f64 / 1e6)
        );
    }
    let _ = writeln!(out, "by component:");
    for (c, n) in &by_component {
        let _ = writeln!(out, "  {c:<12} {n}");
    }
    let _ = writeln!(out, "by kind:");
    let mut kinds: Vec<(&(&str, &str), &u64)> = by_kind.iter().collect();
    kinds.sort_by(|x, y| y.1.cmp(x.1).then_with(|| x.0.cmp(y.0)));
    for ((c, k), n) in kinds {
        let _ = writeln!(out, "  {:<28} {n}", format!("{c}/{k}"));
    }
    out
}

/// One parse of a JSONL trace, two results: its [`census`], and the
/// integrity verdict. The writer numbers its lines 0.. in order, so the
/// k-th event line must carry seq k: a missing seq — at the head or
/// anywhere inside — is a line the file lost, and a seq on two lines or
/// after a larger one is a line repeated or moved; every event's
/// `(c, k)` must be a declared
/// [`registry::TRACE_KINDS`] entry emitted at its declared level; every
/// `cs` must reference an earlier seq that exists in the trace, every
/// span-bearing event must belong to an opened span,
/// span.open/span.close must balance per span id, and no span.close may
/// carry a `dur_us` of 2^60 or more. The verdict is a
/// one-line summary, or the violation list. A malformed line fails the
/// verdict with an empty census.
pub fn check(content: &str) -> (String, Result<String, String>) {
    let evs = match parse_trace(content) {
        Ok(evs) => evs,
        Err(e) => return (String::new(), Err(e)),
    };
    (census(&evs), integrity(&evs))
}

fn integrity(evs: &[TraceEvent]) -> Result<String, String> {
    if evs.is_empty() {
        return Ok("causal integrity ok: empty trace\n".to_string());
    }
    // The k-th event line must carry seq k: no seq missing, none on two
    // lines, and none after a larger one.
    let mut problems: Vec<String> = Vec::new();
    let mut lines_of: BTreeMap<u64, u64> = BTreeMap::new();
    let mut latest: Option<u64> = None;
    for ev in evs {
        let lines = lines_of.entry(ev.seq).or_insert(0);
        *lines += 1;
        if let Some(prev) = latest.filter(|&prev| *lines == 1 && ev.seq < prev) {
            problems.push(format!(
                "seq {} follows seq {prev}: the trace's lines are out of order",
                ev.seq
            ));
        }
        latest = latest.max(Some(ev.seq));
    }
    let mut next = 0; // the seq the next line present should carry
    for (&seq, &n) in &lines_of {
        if n > 1 {
            problems.push(format!(
                "seq {seq} is on {n} lines: the trace repeats a line"
            ));
        }
        if seq > next {
            problems.push(match (next, seq - next) {
                (0, _) => format!("first seq is {seq}, not 0: the trace lost its head"),
                (_, 1) => format!("seq {next} is missing: the trace lost a line"),
                (_, n) => format!(
                    "seqs {next} to {} are missing: the trace lost {n} lines",
                    seq - 1
                ),
            });
        }
        next = seq + 1;
    }
    let declared: BTreeMap<(&str, &str), TraceLevel> = registry::TRACE_KINDS
        .iter()
        .map(|k| ((k.component(), k.kind()), k.level()))
        .collect();
    let mut cause_links = 0u64;
    let mut opened: BTreeMap<u64, u64> = BTreeMap::new(); // span id -> open count
    let mut closed: BTreeMap<u64, u64> = BTreeMap::new();
    let mut span_events = 0u64;
    for ev in evs {
        let (c, k) = (ev.component.as_str(), ev.kind.as_str());
        match declared.get(&(c, k)) {
            None => problems.push(format!("seq {}: {c}/{k} is not a declared kind", ev.seq)),
            Some(&level) if level != ev.level => problems.push(format!(
                "seq {}: {c}/{k} at level {}, declared {level}",
                ev.seq, ev.level
            )),
            Some(_) => {}
        }
        if let Some(cs) = ev.cause {
            cause_links += 1;
            if cs >= ev.seq {
                problems.push(format!(
                    "seq {}: cause {cs} does not precede the event",
                    ev.seq
                ));
            } else if !lines_of.contains_key(&cs) {
                problems.push(format!("seq {}: cause {cs} is not in the trace", ev.seq));
            }
        }
        match ev.kind.as_str() {
            "span.open" => match ev.span {
                Some(id) => *opened.entry(id).or_insert(0) += 1,
                None => problems.push(format!("seq {}: span.open without a span id", ev.seq)),
            },
            "span.close" => {
                match ev.span {
                    Some(id) => *closed.entry(id).or_insert(0) += 1,
                    None => problems.push(format!("seq {}: span.close without a span id", ev.seq)),
                }
                // 2^60 µs is 36 000 years: a saturated sum, not a duration.
                if let Some(d) = field_u64(ev, "dur_us").filter(|&d| d >= 1 << 60) {
                    problems.push(format!("seq {}: span.close dur_us {d} ≥ 2^60", ev.seq));
                }
            }
            _ => {
                if let Some(id) = ev.span {
                    span_events += 1;
                    if !opened.contains_key(&id) {
                        problems.push(format!(
                            "seq {}: event in span {id} before any span.open",
                            ev.seq
                        ));
                    }
                }
            }
        }
    }
    for (id, n) in &opened {
        if *n > 1 {
            problems.push(format!("span {id}: opened {n} times"));
        }
        match closed.get(id).copied().unwrap_or(0) {
            1 => {}
            0 => problems.push(format!("span {id}: opened but never closed")),
            n => problems.push(format!("span {id}: closed {n} times")),
        }
    }
    for id in closed.keys() {
        if !opened.contains_key(id) {
            problems.push(format!("span {id}: closed but never opened"));
        }
    }
    if problems.is_empty() {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "causal integrity ok: {} event(s), {cause_links} cause link(s), {} span(s) \
             balanced, {span_events} span-member event(s)",
            evs.len(),
            opened.len()
        );
        Ok(out)
    } else {
        Err(format!(
            "causal-integrity violation(s):\n{}",
            problems.join("\n")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uap_sim::trace::registry;
    use uap_sim::{SimTime, TraceLevel, Tracer};

    #[test]
    fn nearest_rank_pins_small_n_edge_cases() {
        // The smallest sample with at least ceil(q·n) samples at or below
        // it. These exact answers are the p50/p95/p99 columns of
        // `exp trace spans`.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(quantile(&[7], q), 7, "n=1, q={q}");
        }
        assert_eq!(quantile(&[10, 20], 0.5), 10); // ceil(0.5·2) = 1 → 1st
        assert_eq!(quantile(&[10, 20], 0.51), 20); // ceil(1.02) = 2 → 2nd
        assert_eq!(quantile(&[10, 20], 0.99), 20);
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(quantile(&ten, 0.50), 5);
        assert_eq!(quantile(&ten, 0.90), 9);
        assert_eq!(quantile(&ten, 0.95), 10); // ceil(9.5) = 10
        assert_eq!(quantile(&ten, 0.99), 10);
    }

    proptest! {
        /// A quantile is always one of the samples, and ordered in q.
        #[test]
        fn quantiles_are_samples_and_monotone(
            mut samples in prop::collection::vec(0u64..1_000_000, 1..100),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            samples.sort_unstable();
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let (v_lo, v_hi) = (quantile(&samples, lo), quantile(&samples, hi));
            prop_assert!(v_lo <= v_hi);
            prop_assert!(samples.contains(&v_lo));
            prop_assert!(samples.contains(&v_hi));
        }
    }

    fn sample_trace() -> String {
        let mut t = Tracer::buffered(TraceLevel::Debug);
        t.emit(SimTime::from_secs(1), registry::NET_TRANSFER, |f| {
            f.u64("bytes", 100);
        });
        t.emit(SimTime::from_secs(2), registry::NET_TRANSFER, |f| {
            f.u64("bytes", 200);
        });
        t.emit(SimTime::from_secs(3), registry::GNUTELLA_JOIN, |f| {
            f.u64("host", 7);
        });
        t.to_jsonl()
    }

    #[test]
    fn identical_traces_diff_clean() {
        let a = sample_trace();
        assert_eq!(
            diff(&a, &a),
            DiffResult::Identical {
                lines: 3,
                skipped: 0
            }
        );
    }

    #[test]
    fn divergence_reports_first_line_with_event_context() {
        let a = sample_trace();
        let b = a.replacen("\"bytes\":200", "\"bytes\":999", 1);
        let r = diff(&a, &b);
        let DiffResult::Divergence { line, .. } = &r else {
            panic!("expected divergence");
        };
        assert_eq!(*line, 2);
        let rendered = render_diff(("a.jsonl", "b.jsonl"), &r);
        assert!(rendered.contains("first divergence at line 2"));
        assert!(rendered.contains("component `net`, kind `transfer`"));
    }

    #[test]
    fn truncated_file_diverges_at_the_missing_line() {
        let a = sample_trace();
        let b: String = a.lines().take(2).map(|l| format!("{l}\n")).collect();
        let r = diff(&a, &b);
        assert_eq!(
            r,
            DiffResult::Divergence {
                line: 3,
                a: Some(a.lines().nth(2).map(str::to_owned).expect("3 lines")),
                b: None,
            }
        );
        assert!(render_diff(("a", "b"), &r).contains("<end of file>"));
    }

    #[test]
    fn wall_lines_are_exempt_on_both_sides() {
        let a = "{\n  \"seed\": 1,\n  \"wall_secs\": 1.5\n}\n";
        let b = "{\n  \"seed\": 1,\n  \"wall_secs\": 9.9\n}\n";
        assert_eq!(
            diff(a, b),
            DiffResult::Identical {
                lines: 4,
                skipped: 1
            }
        );
        // A wall line against a non-wall line is still a divergence.
        let c = "{\n  \"seed\": 2,\n  \"wall_secs\": 1.5\n}\n";
        assert!(matches!(diff(a, c), DiffResult::Divergence { line: 2, .. }));
    }

    #[test]
    fn check_census_counts_components_and_kinds() {
        let (census, verdict) = check(&sample_trace());
        assert!(census.contains("3 event(s)"));
        assert!(census.contains("net          2"));
        assert!(census.contains("gnutella     1"));
        assert!(census.contains("net/transfer"));
        assert!(census.contains("2.000 simulated second(s)"));
        assert!(verdict
            .expect("sound")
            .starts_with("causal integrity ok: 3 event(s)"));
    }

    #[test]
    fn check_rejects_malformed_lines() {
        let (census, verdict) = check("not json\n");
        assert_eq!(census, "");
        assert!(verdict.expect_err("must fail").starts_with("line 1:"));
    }

    #[test]
    fn empty_trace_checks() {
        let (census, verdict) = check("");
        assert!(census.contains("empty trace"));
        assert_eq!(verdict.as_deref(), Ok("causal integrity ok: empty trace\n"));
    }

    /// A trace with one complete causal chain: fault.epoch (root) →
    /// span.open → retry (caused by the fault) → download (caused by the
    /// retry) → span.close carrying `dur_us`.
    fn chained_trace() -> String {
        let mut t = Tracer::buffered(TraceLevel::Debug);
        let fault = t.emit(SimTime::from_secs(1), registry::NET_FAULT_EPOCH, |f| {
            f.u64("links_down", 3);
        });
        let span = t.alloc_span();
        t.set_span(Some(span));
        t.emit(SimTime::from_secs(2), registry::GNUTELLA_SPAN_OPEN, |f| {
            f.str("span_kind", "query");
        });
        t.set_cause(fault);
        let retry = t.emit(
            SimTime::from_secs(2),
            registry::GNUTELLA_DOWNLOAD_RETRY,
            |f| {
                f.u64("attempt", 1);
            },
        );
        t.set_cause(retry);
        t.emit(SimTime::from_secs(2), registry::GNUTELLA_DOWNLOAD, |f| {
            f.u64("bytes", 9);
        });
        t.emit(SimTime::from_secs(2), registry::GNUTELLA_SPAN_CLOSE, |f| {
            f.str("span_kind", "query").u64("dur_us", 1500);
        });
        t.clear_provenance();
        t.to_jsonl()
    }

    #[test]
    fn spans_reports_durations_and_phase_breakdown() {
        let mut t = Tracer::buffered(TraceLevel::Debug);
        t.emit(SimTime::ZERO, registry::EXPERIMENT_PHASE, |f| {
            f.str("name", "alpha");
        });
        for (i, dur) in [100u64, 200, 300].iter().enumerate() {
            let span = t.alloc_span();
            t.set_span(Some(span));
            t.emit(
                SimTime::from_secs(i as u64),
                registry::GNUTELLA_SPAN_OPEN,
                |f| {
                    f.str("span_kind", "query");
                },
            );
            let d = *dur;
            t.emit(
                SimTime::from_secs(i as u64),
                registry::GNUTELLA_SPAN_CLOSE,
                move |f| {
                    f.str("span_kind", "query").u64("dur_us", d);
                },
            );
            t.clear_provenance();
        }
        // One sim-time-delta span with no dur_us field.
        let span = t.alloc_span();
        t.set_span(Some(span));
        t.emit(
            SimTime::from_secs(10),
            registry::BITTORRENT_SPAN_OPEN,
            |f| {
                f.str("span_kind", "peer");
            },
        );
        t.emit(
            SimTime::from_secs(14),
            registry::BITTORRENT_SPAN_CLOSE,
            |f| {
                f.str("span_kind", "peer").bool("done", true);
            },
        );
        t.clear_provenance();
        let s = spans(&t.to_jsonl()).expect("valid trace");
        assert!(s.contains("gnutella/query"), "{s}");
        assert!(s.contains("bittorrent/peer"), "{s}");
        // p50 of [100, 200, 300] (nearest rank) = 200; max = 300.
        assert!(s.contains("200"), "{s}");
        assert!(s.contains("300"), "{s}");
        // The peer span's duration is the close-open sim-time delta (4s).
        assert!(s.contains("4000000"), "{s}");
        assert!(s.contains("alpha:"), "{s}");
    }

    /// `check` refuses such durations, but `spans` still reads the file:
    /// its phase totals saturate rather than overflow.
    #[test]
    fn spans_saturate_phase_totals() {
        let mut t = Tracer::buffered(TraceLevel::Debug);
        for _ in 0..2 {
            let span = t.alloc_span();
            t.set_span(Some(span));
            t.emit(SimTime::ZERO, registry::GNUTELLA_SPAN_OPEN, |f| {
                f.str("span_kind", "query");
            });
            t.emit(SimTime::ZERO, registry::GNUTELLA_SPAN_CLOSE, |f| {
                f.str("span_kind", "query").u64("dur_us", u64::MAX - 1);
            });
            t.clear_provenance();
        }
        let s = spans(&t.to_jsonl()).expect("valid trace");
        assert!(s.contains(&format!("{}us", u64::MAX)), "{s}");
    }

    #[test]
    fn spans_handles_spanless_traces() {
        let s = spans(&sample_trace()).expect("ok");
        assert!(s.contains("no spans in trace"));
    }

    #[test]
    fn explain_walks_the_chain_to_its_root() {
        let trace = chained_trace();
        // The `download` event is seq 3 (0-based emission order).
        let s = explain(&trace, 3).expect("chain resolves");
        assert!(
            s.contains("causal chain for seq 3: 2 link(s) to root"),
            "{s}"
        );
        let root_pos = s.find("net/fault.epoch").expect("root in output");
        let retry_pos = s.find("gnutella/download.retry").expect("retry in output");
        let dl_pos = s.find("gnutella/download ").expect("download in output");
        assert!(
            root_pos < retry_pos && retry_pos < dl_pos,
            "root-first order:\n{s}"
        );
        assert!(s.contains("span=0"), "{s}");
    }

    #[test]
    fn explain_rejects_unknown_seq() {
        let err = explain(&chained_trace(), 999).expect_err("must fail");
        assert!(err.contains("seq 999 not found"));
    }

    #[test]
    fn check_passes_a_complete_chain_and_catches_violations() {
        let trace = chained_trace();
        let ok = check(&trace).1.expect("chain is sound");
        assert!(ok.contains("causal integrity ok"), "{ok}");
        assert!(ok.contains("3 cause link(s)"), "{ok}");
        assert!(ok.contains("1 span(s) balanced"), "{ok}");
        // A forward cause reference must fail.
        let bad = trace.replacen("\"cs\":0", "\"cs\":99", 1);
        let err = check(&bad).1.expect_err("forward cause");
        assert!(err.contains("does not precede"), "{err}");
        // Removing the span.close line must fail the balance check.
        let unbalanced: String = trace
            .lines()
            .filter(|l| !l.contains("span.close"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = check(&unbalanced).1.expect_err("unclosed span");
        assert!(err.contains("opened but never closed"), "{err}");
    }

    #[test]
    fn check_rejects_undeclared_kinds_and_wrong_levels() {
        let trace = sample_trace();
        let undeclared = trace.replacen("\"k\":\"transfer\"", "\"k\":\"teleport\"", 1);
        let err = check(&undeclared).1.expect_err("undeclared kind");
        assert!(
            err.ends_with(":\nseq 0: net/teleport is not a declared kind"),
            "{err}"
        );
        let misleveled = trace.replacen("\"l\":\"debug\"", "\"l\":\"info\"", 1);
        let err = check(&misleveled).1.expect_err("wrong level");
        assert!(
            err.ends_with(":\nseq 0: net/transfer at level info, declared debug"),
            "{err}"
        );
    }

    /// `trace` without the lines whose 0-based index is in `lost`.
    fn without(trace: &str, lost: &[usize]) -> String {
        let kept = trace.lines().enumerate().filter(|(i, _)| !lost.contains(i));
        kept.map(|(_, l)| format!("{l}\n")).collect()
    }

    #[test]
    fn check_rejects_a_trace_that_lost_its_head() {
        // Drop the first two lines (fault.epoch root and span.open) and
        // keep seqs intact: no sink produces this, only a damaged file.
        let (census, verdict) = check(&without(&chained_trace(), &[0, 1]));
        assert!(census.starts_with("3 event(s)"), "{census}");
        let err = verdict.expect_err("a lost head is a violation");
        assert!(err.contains("first seq is 2, not 0"), "{err}");
    }

    #[test]
    fn check_rejects_a_trace_that_lost_a_middle_line() {
        let full = chained_trace();
        assert!(check(&full).1.is_ok());
        // The download (seq 3) is nobody's cause and sits inside an open
        // span: only its seq says the line is gone.
        let (census, verdict) = check(&without(&full, &[3]));
        assert!(census.starts_with("4 event(s)"), "{census}");
        let err = verdict.expect_err("a lost line is a violation");
        assert!(
            err.ends_with(":\nseq 3 is missing: the trace lost a line"),
            "{err}"
        );
        let err = check(&without(&full, &[2, 3]))
            .1
            .expect_err("two lost lines");
        assert!(
            err.contains("seqs 2 to 3 are missing: the trace lost 2 lines"),
            "{err}"
        );
    }

    /// The lines of `trace` at the 0-based indices `at`, in that order.
    fn pick(trace: &str, at: &[usize]) -> String {
        let lines: Vec<&str> = trace.lines().collect();
        at.iter().map(|&i| format!("{}\n", lines[i])).collect()
    }

    #[test]
    fn check_rejects_a_line_written_twice() {
        let trace = sample_trace();
        assert!(check(&pick(&trace, &[0, 1, 2])).1.is_ok());
        let err = check(&pick(&trace, &[0, 1, 1, 2]))
            .1
            .expect_err("a repeated line is a violation");
        assert!(
            err.ends_with(":\nseq 1 is on 2 lines: the trace repeats a line"),
            "{err}"
        );
        let err = check(&pick(&trace, &[0, 1, 2, 0, 0]))
            .1
            .expect_err("a repeated line is a violation");
        assert!(
            err.ends_with(":\nseq 0 is on 3 lines: the trace repeats a line"),
            "{err}"
        );
    }

    #[test]
    fn check_rejects_lines_out_of_order() {
        let trace = sample_trace();
        let err = check(&pick(&trace, &[0, 2, 1]))
            .1
            .expect_err("swapped lines are a violation");
        assert!(
            err.ends_with(":\nseq 1 follows seq 2: the trace's lines are out of order"),
            "{err}"
        );
        // Each seq that arrives after a larger one is named.
        let err = check(&pick(&trace, &[2, 1, 0]))
            .1
            .expect_err("reversed lines are a violation");
        assert!(
            err.ends_with(
                ":\nseq 1 follows seq 2: the trace's lines are out of order\n\
                 seq 0 follows seq 2: the trace's lines are out of order"
            ),
            "{err}"
        );
    }

    #[test]
    fn check_rejects_a_span_closed_with_a_duration_of_2_pow_60() {
        let trace = chained_trace();
        let at = |dur: u64| trace.replacen("\"dur_us\":1500", &format!("\"dur_us\":{dur}"), 1);
        assert!(check(&at((1 << 60) - 1)).1.is_ok());
        for dur in [1u64 << 60, u64::MAX / 4, u64::MAX] {
            let err = check(&at(dur))
                .1
                .expect_err("a sentinel duration is a violation");
            let want = format!(":\nseq 4: span.close dur_us {dur} ≥ 2^60");
            assert!(err.ends_with(&want), "{err}");
        }
    }
}
