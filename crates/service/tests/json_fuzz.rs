//! Malformed-input battery for the service's wire-facing JSON parser
//! and the request loop around it.
//!
//! The parser fronts a network daemon, so its contract is strict:
//! **every** input — truncated, mutated, deeply nested, duplicated keys,
//! lone surrogates, non-finite numbers, raw garbage — must come back as
//! `Ok(value)` or a typed `Err(message)`, never a panic, and the session
//! serving it must survive to answer the next request. The generators
//! here are deterministic (the proptest shim seeds per test name), so a
//! failing case reproduces exactly.

use mpmc_service::json::{self, Json};
use proptest::prelude::*;

/// Builds an arbitrary JSON document from a word stream. Structure and
/// scalars are decoded from the words, depth is bounded by `fuel`, so
/// the same words always yield the same document.
fn build_json(words: &[u64], at: &mut usize, fuel: usize) -> Json {
    let mut next = || {
        let w = words.get(*at).copied().unwrap_or(0);
        *at += 1;
        w
    };
    let pick = next();
    match if fuel == 0 { pick % 4 } else { pick % 6 } {
        0 => Json::Null,
        1 => Json::Bool(next() % 2 == 0),
        2 => {
            // Finite doubles only: the renderer maps non-finite to null.
            let x = f64::from_bits(next());
            Json::Num(if x.is_finite() { x } else { (next() % 1000) as f64 - 500.0 })
        }
        3 => {
            let w = next();
            let len = (w % 12) as usize;
            let s: String = (0..len)
                .map(|i| {
                    // A spread of awkward characters: quotes, escapes,
                    // controls, multi-byte.
                    const ALPHABET: [char; 12] =
                        ['a', '"', '\\', '\n', '\t', '\u{1}', 'é', '😀', ' ', '{', '}', '0'];
                    ALPHABET[((w >> (i % 8)) as usize + i) % ALPHABET.len()]
                })
                .collect();
            Json::Str(s)
        }
        4 => {
            let n = (next() % 4) as usize;
            Json::Arr((0..n).map(|_| build_json(words, at, fuel - 1)).collect())
        }
        _ => {
            let n = (next() % 4) as usize;
            Json::Obj((0..n).map(|i| (format!("k{i}"), build_json(words, at, fuel - 1))).collect())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary text never panics the parser: it parses or errors.
    #[test]
    fn arbitrary_text_parses_or_errors(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
        let text = String::from_utf8_lossy(&bytes);
        match json::parse(&text) {
            Ok(v) => {
                // Whatever parsed must re-render and re-parse.
                prop_assert!(json::parse(&v.render()).is_ok());
            }
            Err(msg) => prop_assert!(!msg.is_empty(), "error messages must say something"),
        }
    }

    /// Structured documents survive a render/parse round trip exactly.
    #[test]
    fn generated_documents_roundtrip(words in proptest::collection::vec(0u64..u64::MAX, 1..48)) {
        let mut at = 0;
        let doc = build_json(&words, &mut at, 4);
        let rendered = doc.render();
        let back = json::parse(&rendered)
            .unwrap_or_else(|e| panic!("own rendering must parse: {e}\n{rendered}"));
        prop_assert_eq!(&back, &doc);
        // Render of the parse is byte-identical (canonical form).
        prop_assert_eq!(back.render(), rendered);
    }

    /// Truncating a valid document at any char boundary parses or
    /// errors — never panics, never hangs.
    #[test]
    fn truncations_never_panic(
        words in proptest::collection::vec(0u64..u64::MAX, 1..32),
        cut in 0usize..512,
    ) {
        let mut at = 0;
        let rendered = build_json(&words, &mut at, 3).render();
        let mut cut = cut.min(rendered.len());
        while !rendered.is_char_boundary(cut) {
            cut -= 1;
        }
        let _ = json::parse(&rendered[..cut]);
    }

    /// Splicing arbitrary bytes into a valid document parses or errors.
    #[test]
    fn mutations_never_panic(
        words in proptest::collection::vec(0u64..u64::MAX, 1..32),
        pos in 0usize..512,
        noise in proptest::collection::vec(0u8..=255, 1..12),
    ) {
        let mut at = 0;
        let rendered = build_json(&words, &mut at, 3).render();
        let mut pos = pos.min(rendered.len());
        while !rendered.is_char_boundary(pos) {
            pos -= 1;
        }
        let mutated =
            format!("{}{}{}", &rendered[..pos], String::from_utf8_lossy(&noise), &rendered[pos..]);
        if let Ok(v) = json::parse(&mutated) {
            prop_assert!(json::parse(&v.render()).is_ok());
        }
    }

    /// Nesting beyond the depth cap is rejected; within it, accepted.
    #[test]
    fn depth_cap_is_exact(depth in 1usize..96, square in 0u8..2) {
        let (open, close) = if square == 0 { ("[", "]") } else { ("{\"k\":", "}") };
        let text = open.repeat(depth) + "null" + &close.repeat(depth);
        let parsed = json::parse(&text);
        if depth <= 64 {
            prop_assert!(parsed.is_ok(), "depth {depth} should parse");
        } else {
            prop_assert!(parsed.is_err(), "depth {depth} must be rejected");
        }
    }

    /// Duplicate keys are rejected wherever they appear.
    #[test]
    fn duplicate_keys_rejected(n in 2usize..6, dup_at in 0usize..6) {
        let dup_at = dup_at % n;
        let fields: Vec<String> = (0..n)
            .map(|i| format!("\"k{}\":{i}", if i == dup_at { 0 } else { i }))
            .collect();
        let text = format!("{{{}}}", fields.join(","));
        // Field i uses key "k0" when i == dup_at, so keys collide
        // exactly when dup_at != 0 (field 0 already owns "k0").
        if dup_at == 0 {
            prop_assert!(json::parse(&text).is_ok(), "{text}");
        } else {
            prop_assert!(json::parse(&text).is_err(), "{text} must be rejected");
        }
    }

    /// \uXXXX escapes: lone or malformed surrogates are typed errors,
    /// paired ones decode.
    #[test]
    fn surrogate_escapes_never_panic(hi in 0u32..0xFFFF, lo in 0u32..0xFFFF) {
        let lone = format!("\"\\u{hi:04x}\"");
        let paired = format!("\"\\u{hi:04x}\\u{lo:04x}\"");
        for text in [lone, paired] {
            if let Ok(v) = json::parse(&text) {
                let s = v.as_str().expect("string literal").to_string();
                prop_assert!(json::parse(&Json::str(s).render()).is_ok());
            }
        }
    }

    /// Non-finite numeric spellings never parse to a number.
    #[test]
    fn non_finite_numbers_rejected(exp in 300u32..4000) {
        for text in
            [format!("1e{exp}"), format!("-1e{exp}"), "nan".into(), "inf".into(), "-inf".into()]
        {
            match json::parse(&text) {
                Err(_) => {}
                Ok(v) => {
                    let x = v.as_f64().expect("numeric literal");
                    prop_assert!(x.is_finite(), "{text} parsed non-finite {x}");
                }
            }
        }
    }
}

mod service_survival {
    use super::*;
    use cmpsim::machine::MachineConfig;
    use mpmc_model::power::PowerModel;
    use mpmc_service::{PredictionService, ServeOptions};

    fn service() -> PredictionService {
        let machine = MachineConfig::two_core_workstation();
        let power = PowerModel::from_parts(10.0, vec![2e-7, 1e-6, 3e-6, 1e-7, 1e-7]).unwrap();
        let opts = ServeOptions { workers: 1, cache_capacity: 16, ..ServeOptions::default() };
        PredictionService::with_options(machine, power, opts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Raw garbage on the wire — including invalid UTF-8 and bare
        /// newlines — gets typed error responses and the session
        /// survives to answer a trailing ping.
        #[test]
        fn garbage_lines_get_typed_errors_and_session_survives(
            bytes in proptest::collection::vec(0u8..=255, 0..160),
        ) {
            let mut input = bytes.clone();
            input.push(b'\n');
            input.extend_from_slice(b"{\"id\":777,\"op\":\"ping\"}\n");
            let svc = service();
            let mut out = Vec::new();
            svc.run_stdio(&input[..], &mut out).expect("stdio session must not error");
            let text = String::from_utf8(out).expect("responses are valid UTF-8");
            let lines: Vec<&str> = text.lines().collect();
            prop_assert!(!lines.is_empty());
            for line in &lines {
                let resp = json::parse(line)
                    .unwrap_or_else(|e| panic!("response must be well-formed JSON: {e}\n{line}"));
                if resp.get("ok") == Some(&Json::Bool(false)) {
                    let err = resp.get("error").expect("failures carry an error object");
                    let code = err.get("code").and_then(Json::as_f64).expect("numeric code");
                    prop_assert!(
                        (2.0..=12.0).contains(&code),
                        "code {code} outside the taxonomy"
                    );
                    prop_assert!(err.get("kind").and_then(Json::as_str).is_some());
                }
            }
            // The trailing ping always gets through.
            let last = json::parse(lines.last().unwrap()).unwrap();
            prop_assert_eq!(last.get("id").and_then(Json::as_f64), Some(777.0));
            prop_assert_eq!(last.get("ok"), Some(&Json::Bool(true)));
        }
    }
}
