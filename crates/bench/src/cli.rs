//! Typed command-line arguments for the `experiments` binary. A malformed
//! argument is a usage error — a message on stderr and exit code 2 — never
//! a panic or a silent fallback to a default.
//!
//! An experiment takes its flags and positionals out of an [`Args`] and
//! then calls [`Args::finish`], which rejects whatever is left, before it
//! does any work. Take flags before positionals: a positional is the first
//! remaining argument that does not start with `--`.

use std::error::Error;
use std::fmt::Display;
use std::str::FromStr;

/// What an experiment returns; an error exits with code 1.
pub type Outcome = Result<(), Box<dyn Error>>;

/// The process's arguments after the program name.
pub fn process_args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// The not-yet-consumed arguments of one command, with the name and usage
/// line its errors print.
pub struct Args {
    cmd: String,
    usage: &'static str,
    rest: Vec<String>,
}

impl Args {
    /// `argv` for the command `cmd` (e.g. `experiments table1`), whose
    /// arguments are summarised by `usage` (e.g. `[N]`).
    pub fn new(cmd: impl Into<String>, usage: &'static str, argv: Vec<String>) -> Self {
        Args {
            cmd: cmd.into(),
            usage,
            rest: argv,
        }
    }

    /// Report a usage error and exit with code 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("{}: {msg}", self.cmd);
        eprintln!("usage: {} {}", self.cmd, self.usage);
        std::process::exit(2)
    }

    /// Parse `text`, the value of `what`, or exit 2 naming both.
    fn parse<T>(&self, what: &str, text: &str) -> T
    where
        T: FromStr,
        T::Err: Display,
    {
        text.parse()
            .unwrap_or_else(|e| self.fail(format_args!("bad {what} {text:?}: {e}")))
    }

    /// Take the switch `flag`; true when it was given.
    pub fn flag(&mut self, flag: &str) -> bool {
        let Some(i) = self.find(flag) else {
            return false;
        };
        self.rest.remove(i);
        true
    }

    /// Take `flag VALUE` and parse the value; `None` when the flag is absent.
    pub fn value<T>(&mut self, flag: &str) -> Option<T>
    where
        T: FromStr,
        T::Err: Display,
    {
        self.value_with(flag, str::parse)
    }

    /// Take `flag VALUE` and convert the value with `parse`; `None` when the
    /// flag is absent. Exits 2 when the flag is last, is directly followed
    /// by another flag, or `parse` fails.
    pub fn value_with<T, E: Display>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Option<T> {
        let i = self.find(flag)?;
        let text = match self.rest.get(i + 1) {
            Some(v) if !v.starts_with("--") => self.rest.remove(i + 1),
            _ => self.fail(format_args!("{flag} needs a value")),
        };
        self.rest.remove(i);
        let value =
            parse(&text).unwrap_or_else(|e| self.fail(format_args!("bad {flag} {text:?}: {e}")));
        Some(value)
    }

    /// Take the next positional argument, `what`, and parse it; `None` when
    /// no positional is left.
    pub fn positional<T>(&mut self, what: &str) -> Option<T>
    where
        T: FromStr,
        T::Err: Display,
    {
        let i = self.rest.iter().position(|a| !a.starts_with("--"))?;
        let text = self.rest.remove(i);
        Some(self.parse(what, &text))
    }

    /// Exit 2 if any argument was not taken.
    pub fn finish(&self) {
        match self.rest.first() {
            None => {}
            Some(a) if a.starts_with("--") => self.fail(format_args!("unknown flag {a:?}")),
            Some(a) => self.fail(format_args!("unexpected argument {a:?}")),
        }
    }

    /// Index of `flag`, exiting 2 when it is given more than once.
    fn find(&self, flag: &str) -> Option<usize> {
        let mut hits = self.rest.iter().enumerate().filter(|(_, a)| *a == flag);
        let (i, _) = hits.next()?;
        if hits.next().is_some() {
            self.fail(format_args!("{flag} given more than once"));
        }
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::new("t", "", argv.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn flags_values_and_positionals_are_taken_in_any_order() {
        let mut a = args(&["7", "--n", "5", "--smoke", "x"]);
        assert!(a.flag("--smoke"));
        assert!(!a.flag("--full"));
        assert_eq!(a.value::<u32>("--n"), Some(5));
        assert_eq!(a.value::<u32>("--lanes"), None);
        assert_eq!(a.positional::<u32>("count"), Some(7));
        assert_eq!(a.positional::<String>("name").as_deref(), Some("x"));
        assert_eq!(a.positional::<u32>("more"), None);
        a.finish();
    }

    #[test]
    fn a_negative_number_is_a_value_not_a_flag() {
        let mut a = args(&["--tolerance", "-0.5", "-3"]);
        assert_eq!(a.value::<f64>("--tolerance"), Some(-0.5));
        assert_eq!(a.positional::<i32>("offset"), Some(-3));
        a.finish();
    }
}
