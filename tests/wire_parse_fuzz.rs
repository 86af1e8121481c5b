//! Property: `core::wire::parse_request` is total.
//!
//! The daemon runs this parser on every request line a client sends, so
//! the line is untrusted: garbage, truncated writes, corrupted bytes, and
//! frames built to exhaust the parser. The contract is that every input
//! comes back as either a parsed [`RequestFrame`] or a [`WireError`] with
//! a non-empty message, never a panic or a stack overflow, and in time
//! linear in its length. Inputs are built from raw byte vectors, the
//! golden request fixtures, and fixed nesting depths (the vendored
//! proptest stub has no string strategies, so strings are assembled by
//! hand).
//!
//! [`RequestFrame`]: microgrid_opt::core::wire::RequestFrame
//! [`WireError`]: microgrid_opt::core::wire::WireError

use std::time::{Duration, Instant};

use proptest::prelude::*;

use microgrid_opt::core::wire::{parse_request, ErrorCode, Request};
use microgrid_opt::server::ServerConfig;

/// One committed request frame per protocol shape: the mutation baseline.
const FIXTURES: &str = include_str!("fixtures/wire/requests.jsonl");

fn fixture_lines() -> Vec<&'static str> {
    FIXTURES.lines().filter(|l| !l.trim().is_empty()).collect()
}

/// The parser's totality contract for one input: `Ok` or an error with a
/// non-empty message, reached without unwinding.
fn assert_total(input: &str) {
    if let Err(e) = parse_request(input) {
        assert!(
            !e.message.is_empty(),
            "empty error for input {input:?}: the message must say what is wrong"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes (lossily decoded, as the daemon decodes a line that
    /// is not UTF-8) parse or error, never panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255u8, 0..200)) {
        let input = String::from_utf8_lossy(&bytes).into_owned();
        assert_total(&input);
    }

    /// Single-byte corruption of a golden request parses or errors, never
    /// panics.
    #[test]
    fn single_byte_corruption_never_panics(
        line in 0usize..64,
        pos in 0usize..1 << 16,
        byte in 0u8..=255u8,
    ) {
        let lines = fixture_lines();
        let mut bytes = lines[line % lines.len()].as_bytes().to_vec();
        let at = pos % bytes.len();
        bytes[at] = byte;
        let input = String::from_utf8_lossy(&bytes).into_owned();
        assert_total(&input);
    }

    /// Frame fragments spliced in any order (unbalanced brackets,
    /// duplicate keys, escapes cut mid-sequence, bare numbers) reach the
    /// error paths of both the JSON layer and the strict envelope checks.
    #[test]
    fn spliced_fragments_never_panic(
        pieces in prop::collection::vec(
            prop::sample::select(vec![
                r#"{"v":1,"id":"a","req":"Ping"}"#,
                r#"{"v":1,"#,
                r#""id":"a","#,
                r#""req":"#,
                r#"{"Study":{"fleet":{"Preset":"paper-tiny"},"#,
                r#""budget":{"population_size":8,"max_trials":24,"seed":1}}}"#,
                r#"{"Cancel":"a"}"#,
                "\\u12",
                "\\q",
                "[[{{",
                "]]}}",
                "\"",
                "1e",
                "-",
                "null",
                ",",
                ":",
                " ",
            ]),
            1..10,
        ),
    ) {
        assert_total(&pieces.concat());
    }
}

/// Every strict prefix of every golden request is rejected as a
/// malformed frame: a client's truncated write must surface as a
/// structured error, not a panic or a silent accept.
#[test]
fn every_strict_prefix_of_a_golden_request_is_malformed() {
    for line in fixture_lines() {
        parse_request(line).expect("golden requests parse");
        for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
            let err = parse_request(&line[..cut])
                .expect_err("strict prefixes of a frame are never frames");
            assert_eq!(err.code, ErrorCode::MalformedFrame, "{:?}", &line[..cut]);
            assert!(!err.message.is_empty());
        }
    }
}

/// Nesting from 1 to 200,000 levels, closed, unclosed and inside a
/// frame's `req`, is a `MalformedFrame` (no such line is a request), and
/// past 128 levels it is the parser's nesting cap that rejects it.
/// Without the cap the parser recursed once per level and overflowed
/// the stack long before 200,000.
#[test]
fn any_nesting_depth_is_a_structured_error() {
    for depth in [
        1usize, 2, 3, 64, 127, 128, 129, 130, 256, 1_000, 10_000, 100_000, 200_000,
    ] {
        let arrays = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = format!("{}1{}", r#"{"a":"#.repeat(depth), "}".repeat(depth));
        let unclosed = "[".repeat(depth);
        let in_req = format!(r#"{{"v":1,"id":"n","req":{arrays}}}"#);
        for (shape, line, levels) in [
            ("arrays", &arrays, depth),
            ("objects", &objects, depth),
            ("unclosed", &unclosed, depth),
            ("in_req", &in_req, depth + 1),
        ] {
            let err = parse_request(line).expect_err("a nested value is never a request frame");
            assert_eq!(
                err.code,
                ErrorCode::MalformedFrame,
                "{shape} at depth {depth}"
            );
            assert!(!err.message.is_empty());
            assert_eq!(
                err.message.contains("recursion limit"),
                levels > 128,
                "{shape} at depth {depth}: {}",
                err.message
            );
        }
    }
}

/// Decoding is linear in the line. A request just under the daemon's
/// default frame bound, almost all of it one `id` string, parses in
/// 10–12 ms in the debug build on a 2-core Xeon VM (2 ms in release). A
/// parser that re-validates the rest of the line for every character
/// took 25 s on the same line in a release build on the same VM. The 1-s
/// bound sits about 80× above the linear parser and 25× below the
/// quadratic one.
#[test]
fn a_frame_sized_id_parses_in_linear_time() {
    let max = ServerConfig::default().max_frame_bytes;
    let envelope = r#"{"v":1,"id":"","req":"Ping"}"#.len();
    let id = "x".repeat(max - envelope - 1);
    let line = format!(r#"{{"v":1,"id":"{id}","req":"Ping"}}"#);
    assert!(line.len() < max);

    let t0 = Instant::now();
    let frame = parse_request(&line).expect("a long id is still a valid frame");
    let took = t0.elapsed();
    assert_eq!(frame.id, id);
    assert_eq!(frame.req, Request::Ping);
    assert!(
        took < Duration::from_secs(1),
        "a {}-byte request took {took:?} to parse",
        line.len()
    );
}
