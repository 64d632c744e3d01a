//! # anton-bench — benchmark harness for the Anton 3 network reproduction
//!
//! One binary per table and figure of the paper (see `src/bin/`), plus
//! Criterion micro-benchmarks (see `benches/`). Each binary prints the
//! same rows/series the paper reports and emits machine-readable JSON on
//! request (`--json`), which EXPERIMENTS.md is generated from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;

/// Prints a serializable result as pretty JSON when `--json` was passed,
/// returning whether it did.
pub fn maybe_json<T: Serialize>(value: &T) -> bool {
    if std::env::args().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(value).expect("serializable result")
        );
        true
    } else {
        false
    }
}

/// The value of a `--flag VALUE` argument, if present; panics when the
/// flag is the last argument.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return Some(
                args.next()
                    .unwrap_or_else(|| panic!("{flag} takes a value")),
            );
        }
    }
    None
}

/// A standard paper-vs-measured comparison line.
pub fn compare(label: &str, paper: &str, measured: &str) {
    println!("  {label:<44} paper: {paper:<18} measured: {measured}");
}
