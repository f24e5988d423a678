//! Seeded fuzz suite for the serving plane's untrusted-input surfaces:
//! the campaign-spec parser, the shared JSON parser underneath it, and
//! the HTTP request reader. Malformed input must come back as a typed,
//! one-line error — never a panic. All "randomness" is `vpsim-rng`'s
//! `SmallRng` with fixed seeds, so every case reproduces exactly.

// `SmallRng::choose` returns `&T`, so `&str` tables need a deref that
// type inference cannot supply through the coercion clippy suggests.
#![allow(clippy::explicit_auto_deref)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use vpsim_harness::CampaignSpec;
use vpsim_rng::SmallRng;
use vpsim_serve::http;

const ITERATIONS: usize = 600;

fn must_not_panic<T>(case: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|_| panic!("{case}: panicked on malformed input instead of returning Err"))
}

/// Random JSON-ish bytes: a mix of structural characters, keywords,
/// numbers and raw garbage, occasionally seeded with real spec
/// fragments so the parser gets deep before failing.
fn fuzz_document(rng: &mut SmallRng) -> String {
    const FRAGMENTS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\\",
        "null",
        "true",
        "false",
        "\"name\"",
        "\"trials\"",
        "\"seed\"",
        "\"cells\"",
        "\"defense\"",
        "\"chaos_level\"",
        "\"category\"",
        "\"channel\"",
        "\"predictor\"",
        "\"train_test\"",
        "\"timing_window\"",
        "\"lvp\"",
        "-",
        "0",
        "1e309",
        "18446744073709551615",
        "184467440737095516160",
        "-0.0",
        "1.5e-7",
        "\"\\u0000\"",
        "\"\\ud800\"",
        "\u{7f}",
        "é",
        "𝄞",
        " ",
        "\t",
        "\n",
    ];
    let len = rng.gen_range(0..40usize);
    let mut doc = String::new();
    for _ in 0..len {
        doc.push_str(*rng.choose(FRAGMENTS));
    }
    doc
}

/// A structurally-valid spec where each field is independently either
/// valid or replaced with a hostile value — so the generator exercises
/// both the accept path (round-trip check) and every rejection path.
fn fuzz_spec(rng: &mut SmallRng) -> String {
    fn field<'a>(rng: &mut SmallRng, valid: &'a [&'a str], hostile: &'a [&'a str]) -> &'a str {
        if rng.gen_bool(0.3) {
            *rng.choose(hostile)
        } else {
            *rng.choose(valid)
        }
    }
    let name = field(
        rng,
        &["ok-name", "a.b_c", "x-1"],
        &[
            "",
            "a b",
            "../../etc/passwd",
            "x/../y",
            "..",
            "ünïcode",
            "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
        ],
    );
    let trials = field(
        rng,
        &["1", "50", "100000"],
        &[
            "0",
            "-1",
            "100001",
            "99999999999999999999",
            "1.5",
            "null",
            "\"many\"",
        ],
    );
    let seed = field(
        rng,
        &["0", "77", "18446744073709551615"],
        &["-7", "1e20", "\"abc\""],
    );
    let chaos = field(rng, &["0", "4"], &["5", "255", "-1", "true"]);
    let category = field(
        rng,
        &["train_test", "test_hit"],
        &["nonsense", "", "TRAIN_TEST"],
    );
    let channel = field(
        rng,
        &["timing_window", "persistent", "volatile"],
        &["slack", ""],
    );
    let predictor = field(rng, &["lvp", "vtage", "fcm"], &["crystal_ball", ""]);
    let rtype = field(
        rng,
        &["2", "16", "1024"],
        &["1", "0", "1025", "\"history\"", "-3"],
    );
    format!(
        r#"{{"name":"{name}","trials":{trials},"seed":{seed},"chaos_level":{chaos},
            "defense":{{"r_type":{rtype}}},
            "cells":[{{"category":"{category}","channel":"{channel}","predictor":"{predictor}"}}]}}"#
    )
}

#[test]
fn fuzzed_json_documents_error_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0x5e21_0001);
    for i in 0..ITERATIONS {
        let doc = fuzz_document(&mut rng);
        let case = format!("json doc #{i} ({doc:?})");
        if let Err(e) = must_not_panic(&case, || vpsim_json::parse(&doc)) {
            let msg = e.to_string();
            assert!(
                !msg.is_empty() && !msg.contains('\n'),
                "{case}: error must be one clean line, got {msg:?}"
            );
        }
    }
}

#[test]
fn fuzzed_campaign_specs_error_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0x5e21_0002);
    let mut rejected = 0usize;
    let mut accepted = 0usize;
    for i in 0..ITERATIONS {
        let doc = if rng.gen_bool(0.5) {
            fuzz_spec(&mut rng)
        } else {
            fuzz_document(&mut rng)
        };
        let case = format!("spec #{i} ({doc:?})");
        match must_not_panic(&case, || CampaignSpec::parse(&doc)) {
            Ok(spec) => {
                accepted += 1;
                // Whatever the parser accepts must round-trip.
                let round = CampaignSpec::parse(&spec.to_json())
                    .unwrap_or_else(|e| panic!("{case}: accepted spec failed round-trip: {e}"));
                assert_eq!(round, spec, "{case}: lossy round-trip");
            }
            Err(e) => {
                rejected += 1;
                let msg = e.to_string();
                assert!(
                    !msg.is_empty() && !msg.contains('\n'),
                    "{case}: error must be one clean line, got {msg:?}"
                );
            }
        }
    }
    assert!(
        rejected > ITERATIONS / 2,
        "mostly-invalid input expected ({rejected})"
    );
    assert!(
        accepted > 0,
        "the generator should also produce some valid specs"
    );
}

/// Random HTTP request heads: fuzzed method/target/version plus hostile
/// header lines (oversized, colon-free, NUL-laden, huge counts).
#[test]
fn fuzzed_http_requests_error_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0x5e21_0003);
    for i in 0..ITERATIONS {
        let method: &str = *rng.choose(&["GET", "POST", "DELETE", "G\u{0}T", "", "get"]);
        let target: &str = *rng.choose(&["/", "/campaigns", "nope", "//", "/%00", ""]);
        let version: &str = *rng.choose(&["HTTP/1.1", "HTTP/1.0", "HTTP/9.9", "SMTP", ""]);
        let mut raw = format!("{method} {target} {version}\r\n");
        for _ in 0..rng.gen_range(0..6usize) {
            let header: &str = *rng.choose(&[
                "host: x",
                "content-length: 4",
                "content-length: -1",
                "content-length: 99999999999999999999",
                "content-length: wat",
                "broken header",
                ": empty",
                "a b: c",
                "x: \u{7f}\u{1}",
            ]);
            raw.push_str(header);
            raw.push_str("\r\n");
        }
        if rng.gen_bool(0.7) {
            raw.push_str("\r\n");
        }
        if rng.gen_bool(0.3) {
            raw.push_str("some body bytes");
        }
        let case = format!("http request #{i} ({raw:?})");
        let result = must_not_panic(&case, || {
            http::read_request(&mut std::io::BufReader::new(raw.as_bytes()))
        });
        if let Err(e) = result {
            let msg = e.to_string();
            assert!(
                !msg.is_empty() && !msg.contains('\n'),
                "{case}: error must be one clean line, got {msg:?}"
            );
        }
    }
}

/// Oversized inputs: megabyte header lines and deeply nested JSON must
/// be rejected by the caps, not blow the stack or the heap.
#[test]
fn oversized_inputs_are_capped() {
    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(http::MAX_LINE * 2));
    let result = must_not_panic("oversized request line", || {
        http::read_request(&mut std::io::BufReader::new(long_line.as_bytes()))
    });
    assert!(result.is_err());

    let deep = format!("{}1{}", "[".repeat(20_000), "]".repeat(20_000));
    let result = must_not_panic("deep json", || vpsim_json::parse(&deep));
    let err = result.unwrap_err().to_string();
    assert!(
        err.contains("nesting deeper than"),
        "depth cap should trip: {err}"
    );

    let huge_trials = r#"{"name":"x","trials":18446744073709551616,
        "cells":[{"category":"train_test","channel":"timing_window","predictor":"lvp"}]}"#;
    let result = must_not_panic("overflow trials", || CampaignSpec::parse(huge_trials));
    assert!(result.is_err(), "u64 overflow must be a parse error");
}

/// A request body at the daemon's size cap that is one long string
/// (ASCII, multi-byte scalars and escapes) parses to that string, and
/// escaping the parsed string rebuilds the document byte for byte.
#[test]
fn max_body_string_document_round_trips() {
    let mut rng = SmallRng::seed_from_u64(0x6a50);
    let mut value = String::new();
    let mut doc_len = "{\"name\":\"\"}".len();
    while doc_len < http::MAX_BODY - 8 {
        let c = *rng.choose(&['a', 'Z', '7', ' ', 'é', '€', '𝄞', '"', '\\', '\n', '\u{1}']);
        value.push(c);
        doc_len += vpsim_json::escaped(c.encode_utf8(&mut [0; 4])).len();
    }
    let doc = format!("{{\"name\":\"{}\"}}", vpsim_json::escaped(&value));
    assert!((http::MAX_BODY - 8..=http::MAX_BODY).contains(&doc.len()));
    let parsed = vpsim_json::parse(&doc).expect("a capped string document parses");
    let name = parsed.get("name").and_then(|v| v.as_str());
    assert_eq!(name, Some(value.as_str()));
    let rebuilt = format!("{{\"name\":\"{}\"}}", vpsim_json::escaped(name.unwrap()));
    assert_eq!(rebuilt, doc);
}
