//! Shared flag parsing for the Concealer binaries (`concealer-server`,
//! `concealer-router`).
//!
//! Before this crate each binary carried its own hand-rolled `while`
//! loop over `std::env::args()`, and the copies had already drifted on
//! details (error wording, `--flag=value` support). [`Args`] is the one
//! copy: a cursor over the argument list that understands both
//! `--flag value` and `--flag=value` spellings, parses typed values
//! with uniform diagnostics, and exits with the binary's usage string
//! on any misuse.
//!
//! Deliberately dependency-free — it is linked into every binary,
//! including the ones CI builds in seconds-matter loops.
//!
//! ```no_run
//! use concealer_cli::Args;
//!
//! let mut args = Args::new("demo", "demo [--port N] [--verbose]");
//! let mut port: u16 = 0;
//! let mut verbose = false;
//! while let Some(flag) = args.next_flag() {
//!     match flag.as_str() {
//!         "--port" => port = args.parse("--port"),
//!         "--verbose" => verbose = true,
//!         "--help" | "-h" => args.help(),
//!         other => args.unknown(other),
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A cursor over a binary's command-line flags.
///
/// Construct with [`Args::new`] (real processes) or [`Args::from_vec`]
/// (tests), then drive the loop with [`Args::next_flag`] and pull
/// values with [`Args::value`] / [`Args::parse`]. Every misuse path —
/// missing value, unparsable value, `=value` on a flag that takes none,
/// unknown flag — prints `program: message` plus the usage string to
/// stderr and exits with status 2, the conventional usage-error code.
#[derive(Debug)]
pub struct Args {
    program: &'static str,
    usage: &'static str,
    /// The `value` half of a `--flag=value` argument, held until the
    /// caller asks for it (or until the next flag proves the caller
    /// never would, which is a usage error).
    pending: Option<(String, String)>,
    iter: std::vec::IntoIter<String>,
}

impl Args {
    /// Wrap the process's real arguments (program name skipped).
    #[must_use]
    pub fn new(program: &'static str, usage: &'static str) -> Args {
        Args::from_vec(program, usage, std::env::args().skip(1).collect())
    }

    /// Wrap an explicit argument list (tests and embedding).
    #[must_use]
    pub fn from_vec(program: &'static str, usage: &'static str, argv: Vec<String>) -> Args {
        Args {
            program,
            usage,
            pending: None,
            iter: argv.into_iter(),
        }
    }

    /// Advance to the next flag. `--flag=value` is split: the flag name
    /// is returned and the value is held for the next [`Args::value`] /
    /// [`Args::parse`] call. Returns `None` when the arguments are
    /// exhausted.
    pub fn next_flag(&mut self) -> Option<String> {
        if let Some((flag, _)) = self.pending.take() {
            // The previous flag carried `=value` but its match arm never
            // asked for a value — a boolean flag given one.
            self.fail(&format!("{flag} does not take a value"));
        }
        let arg = self.iter.next()?;
        if let Some((flag, value)) = arg.split_once('=').filter(|_| arg.starts_with("--")) {
            let flag = flag.to_string();
            self.pending = Some((flag.clone(), value.to_string()));
            Some(flag)
        } else {
            Some(arg)
        }
    }

    /// The string value of `flag`: the `=value` half if the flag was
    /// spelled `--flag=value`, otherwise the next argument. Exits with
    /// a usage error if neither exists.
    pub fn value(&mut self, flag: &str) -> String {
        if let Some((_, value)) = self.pending.take() {
            return value;
        }
        match self.iter.next() {
            Some(value) => value,
            None => self.fail(&format!("{flag} needs a value")),
        }
    }

    /// [`Args::value`] parsed via [`std::str::FromStr`], exiting with a
    /// usage error naming the flag if parsing fails.
    pub fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let raw = self.value(flag);
        match raw.parse() {
            Ok(value) => value,
            Err(_) => self.fail(&format!("invalid value {raw:?} for {flag}")),
        }
    }

    /// [`Args::value`] run through a caller-supplied parser, exiting
    /// with the parser's message as a usage error on `Err`. For value
    /// grammars richer than `FromStr` (`--shard INDEX/TOTAL`).
    pub fn parse_with<T>(
        &mut self,
        flag: &str,
        parser: impl FnOnce(&str) -> Result<T, String>,
    ) -> T {
        let raw = self.value(flag);
        match parser(&raw) {
            Ok(value) => value,
            Err(msg) => self.fail(&msg),
        }
    }

    /// Report a usage error: `program: message` plus the usage line on
    /// stderr, exit status 2.
    pub fn fail(&self, message: &str) -> ! {
        eprintln!("{}: {message}", self.program);
        eprintln!("usage: {}", self.usage);
        std::process::exit(2)
    }

    /// Report an unknown flag (the wildcard arm of the match loop).
    pub fn unknown(&self, flag: &str) -> ! {
        self.fail(&format!("unknown flag {flag}"))
    }

    /// Print the usage line on stdout and exit 0 (`--help`).
    pub fn help(&self) -> ! {
        println!("usage: {}", self.usage);
        std::process::exit(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::from_vec(
            "test",
            "test [flags]",
            argv.iter().map(|s| s.to_string()).collect(),
        )
    }

    #[test]
    fn space_separated_values() {
        let mut a = args(&["--port", "7171", "--verbose"]);
        assert_eq!(a.next_flag().as_deref(), Some("--port"));
        assert_eq!(a.parse::<u16>("--port"), 7171);
        assert_eq!(a.next_flag().as_deref(), Some("--verbose"));
        assert_eq!(a.next_flag(), None);
    }

    #[test]
    fn equals_separated_values() {
        let mut a = args(&["--port=7171", "--store=/tmp/x"]);
        assert_eq!(a.next_flag().as_deref(), Some("--port"));
        assert_eq!(a.parse::<u16>("--port"), 7171);
        assert_eq!(a.next_flag().as_deref(), Some("--store"));
        assert_eq!(a.value("--store"), "/tmp/x");
        assert_eq!(a.next_flag(), None);
    }

    #[test]
    fn equals_value_may_itself_contain_equals() {
        let mut a = args(&["--opt=k=v"]);
        assert_eq!(a.next_flag().as_deref(), Some("--opt"));
        assert_eq!(a.value("--opt"), "k=v");
    }

    #[test]
    fn short_flags_are_not_split() {
        // Only `--long=value` splits; a bare value containing '=' (or a
        // short flag) passes through untouched.
        let mut a = args(&["-h"]);
        assert_eq!(a.next_flag().as_deref(), Some("-h"));
        assert_eq!(a.next_flag(), None);
    }

    #[test]
    fn parse_with_applies_custom_grammar() {
        let mut a = args(&["--shard=1/4"]);
        assert_eq!(a.next_flag().as_deref(), Some("--shard"));
        let shard = a.parse_with("--shard", |s| {
            s.split_once('/')
                .ok_or_else(|| "bad shard".to_string())
                .and_then(|(i, t)| {
                    Ok((
                        i.parse::<u32>().map_err(|_| "bad index".to_string())?,
                        t.parse::<u32>().map_err(|_| "bad total".to_string())?,
                    ))
                })
        });
        assert_eq!(shard, (1, 4));
    }
}
