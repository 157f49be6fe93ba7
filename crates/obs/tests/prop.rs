//! Never-panic properties for `Json::parse`, which reads untrusted
//! input (`bench-matrix --check` baseline files): on any input it
//! returns `Ok` or a typed `JsonParseError`, and never panics or
//! overflows the stack.

use std::panic::catch_unwind;

use darklight_obs::json::MAX_PARSE_DEPTH;
use darklight_obs::Json;
use proptest::prelude::*;

/// Fragments that are each meaningful to the parser, so random
/// sequences reach deep into its states instead of failing on byte 0.
const TOKENS: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    " ",
    "\"k\"",
    "\"",
    "\\",
    "\\u00e9",
    "\\u",
    "0",
    "-",
    "12",
    "1.5",
    "e",
    "E+",
    "-3",
    "18446744073709551616",
    "null",
    "true",
    "fals",
    "é",
    "\u{0}",
];

fn token_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..TOKENS.len(), 0..200)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

/// Whether `input` parses, failing the case (rather than the process)
/// if the parser panics.
fn parses(input: &str) -> Result<bool, String> {
    catch_unwind(|| Json::parse(input).is_ok())
        .map_err(|_| format!("Json::parse panicked on {input:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let input = String::from_utf8_lossy(&bytes);
        parses(&input)?;
    }

    #[test]
    fn token_soup_never_panics(input in token_soup()) {
        parses(&input)?;
    }

    /// Balanced nestings of arrays and objects parse exactly when they
    /// stay within the depth limit, and every truncation is an error.
    #[test]
    fn nesting_parses_within_the_limit_only(
        kinds in proptest::collection::vec(any::<bool>(), 0..(2 * MAX_PARSE_DEPTH)),
        cut in 0usize..10_000,
    ) {
        let mut doc = String::new();
        for &array in &kinds {
            doc.push_str(if array { "[" } else { "{\"k\":" });
        }
        doc.push('0');
        for &array in kinds.iter().rev() {
            doc.push(if array { ']' } else { '}' });
        }
        prop_assert_eq!(parses(&doc)?, kinds.len() <= MAX_PARSE_DEPTH);
        if !kinds.is_empty() {
            // Every proper prefix of a non-scalar document is incomplete.
            let truncated = &doc[..cut % doc.len()];
            prop_assert!(!parses(truncated)?, "{truncated:?} parsed");
        }
    }
}
