//! Typed command-line values for the bench binaries. A malformed value is
//! a usage error — a message on stderr and exit code 2 — never a silent
//! fallback to a default.

use std::fmt::Display;
use std::str::FromStr;

/// Report a usage error for binary `bin` and exit with code 2.
pub fn usage_error(bin: &str, msg: impl Display) -> ! {
    eprintln!("{bin}: {msg}");
    std::process::exit(2)
}

/// Parse `text`, the value of `what`, or exit 2 naming both.
pub fn parse_or_exit<T>(bin: &str, what: &str, text: &str) -> T
where
    T: FromStr,
    T::Err: Display,
{
    text.parse()
        .unwrap_or_else(|e| usage_error(bin, format_args!("bad {what} {text:?}: {e}")))
}

/// The value given to the flag `argv[i]`, or exit 2 when the flag is last
/// or directly followed by another flag.
pub fn flag_value<'a>(bin: &str, argv: &'a [String], i: usize) -> &'a str {
    match argv.get(i + 1) {
        Some(v) if !v.starts_with("--") => v,
        _ => usage_error(bin, format_args!("{} needs a value", argv[i])),
    }
}
