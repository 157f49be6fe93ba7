//! Never-panic properties for the governor's user-facing parsers,
//! `MemoryBudget::parse` (`--mem-budget`, `DARKLIGHT_MEM_BUDGET`) and
//! `parse_duration` (`--deadline`): on any string they return `Ok` or a
//! typed `GovernError`, and never panic.

use std::panic::catch_unwind;

use darklight_govern::{parse_duration, MemoryBudget};
use proptest::prelude::*;

/// Fragments of well- and ill-formed sizes and durations: digits that
/// overflow `u64`, fractions, signs, and every unit spelling nearby.
const TOKENS: &[&str] = &[
    "0",
    "1",
    "7",
    "512",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    ".",
    ".5",
    "-",
    "+",
    " ",
    "\t",
    "_",
    "e3",
    "B",
    "b",
    "k",
    "K",
    "KB",
    "KiB",
    "M",
    "MB",
    "MiB",
    "G",
    "GB",
    "GiB",
    "T",
    "TiB",
    "P",
    "ms",
    "s",
    "m",
    "h",
    "d",
    "w",
    "µs",
    "é",
    "\u{0}",
];

fn token_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..TOKENS.len(), 0..8)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

/// Runs both parsers on `input`, failing the case if either panics or
/// rejects it without saying why.
fn parse_both(input: &str) -> Result<(), String> {
    let budget = catch_unwind(|| MemoryBudget::parse(input).map_err(|e| e.to_string()))
        .map_err(|_| format!("MemoryBudget::parse panicked on {input:?}"))?;
    let duration = catch_unwind(|| parse_duration(input).map_err(|e| e.to_string()))
        .map_err(|_| format!("parse_duration panicked on {input:?}"))?;
    for err in [budget.err(), duration.err()].into_iter().flatten() {
        if err.is_empty() {
            return Err(format!("empty error message for {input:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_strings_never_panic(input in "\\PC{0,24}") {
        parse_both(&input)?;
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..24)) {
        parse_both(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn size_and_duration_shaped_strings_never_panic(input in token_soup()) {
        parse_both(&input)?;
    }
}
