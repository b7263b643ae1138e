//! Property-based tests for the simulation engine's core invariants.

use proptest::prelude::*;
use uap_sim::trace::parse_jsonl_line;
use uap_sim::{EventQueue, SimRng, SimTime, Zipf};

/// A line the writer could have produced, with every escape it uses.
const TRACE_LINE: &str = r#"{"seq":7,"t":1500,"s":3,"cs":2,"l":"debug","c":"net","k":"transfer","f":{"who":"a\"b\\c\n\r\t\u00e9","n":-4,"x":1.5e3,"ok":true}}"#;

proptest! {
    /// The event queue delivers in (time, insertion) order for ANY input.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut out = Vec::new();
        while let Some((t, i)) = q.pop() {
            out.push((t, i));
        }
        prop_assert_eq!(out.len(), times.len());
        for w in out.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }

    /// Zipf PMF sums to 1 and sampling stays in range for any (n, s).
    #[test]
    fn zipf_is_a_distribution(n in 1usize..500, s in 0.0f64..3.0, seed in any::<u64>()) {
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|r| z.pmf(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// sample_indices returns distinct, in-range indices of the right count.
    #[test]
    fn sample_indices_invariants(n in 0usize..300, k in 0usize..400, seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let s = rng.sample_indices(n, k);
        prop_assert_eq!(s.len(), k.min(n));
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), s.len());
        prop_assert!(s.iter().all(|&i| i < n));
    }

    /// Hostile wire bytes (ROADMAP 6c): whatever a trace file holds, a
    /// line of it parses to `Ok` or `Err`. Raw bytes read lossily, bytes
    /// drawn from the characters JSON gives meaning to, and a valid line
    /// with one byte overwritten and the tail cut off — which is where
    /// truncated escapes and half strings come from.
    #[test]
    fn parse_jsonl_line_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        at in any::<usize>(),
        with in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let _ = parse_jsonl_line(&String::from_utf8_lossy(&bytes));
        const ALPHABET: &[u8] = br#"{{}}"":,\\u09afnrtE+-. "#;
        let json_like: Vec<u8> = bytes.iter().map(|&b| ALPHABET[b as usize % ALPHABET.len()]).collect();
        let _ = parse_jsonl_line(&String::from_utf8_lossy(&json_like));
        let mut line = TRACE_LINE.as_bytes().to_vec();
        line[at % TRACE_LINE.len()] = with;
        line.truncate(cut % (TRACE_LINE.len() + 1));
        let _ = parse_jsonl_line(&String::from_utf8_lossy(&line));
    }
}

/// The inputs a recursive parser dies on, and every way to cut an escape
/// short: all are errors, none a panic or a stack overflow.
#[test]
fn parse_jsonl_line_rejects_deep_nesting_and_truncated_escapes() {
    assert!(parse_jsonl_line(TRACE_LINE).is_ok());
    let deep = 100_000;
    for open in ["{", "[", "{\"f\":", "{\"f\":{\"a\":", "{\"f\":{\"a\":["] {
        let nested = format!("{open}{}", "{".repeat(deep));
        assert!(parse_jsonl_line(&nested).is_err(), "{open}");
        let closed = format!("{nested}{}", "}".repeat(deep));
        assert!(parse_jsonl_line(&closed).is_err(), "{open} closed");
    }
    for tail in [
        "\\",
        "\\u",
        "\\u0",
        "\\u00e",
        "\\u00\"}",
        "\\uzzzz\"}",
        "\\x\"}",
        "\u{e9}",
    ] {
        let line = format!("{{\"k\":\"{tail}");
        assert!(parse_jsonl_line(&line).is_err(), "{line}");
    }
    // A lone surrogate is not a char: replaced, not a panic.
    let ev = parse_jsonl_line(r#"{"k":"\ud800"}"#).expect("well-formed line");
    assert_eq!(ev.kind, "\u{fffd}");
}
