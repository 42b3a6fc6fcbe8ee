//! Command-line parsing shared by the workspace binaries
//! (`deepsecure_serve`, `loadgen`, `circuit_lint`, `table_budget`).
//!
//! [`Args`] is a typed cursor over the argument list. A binary's parser is
//! a `while let Some(flag) = args.next_flag()?` loop whose arms pull each
//! flag's value through [`Args::value`], [`Args::parsed`] or
//! [`Args::positive`] — every error names the flag — or through the
//! parsers of the typed flags several binaries share (`--threads`,
//! `--chunk-gates`, `--seed`, `--chaos`), so those read and fail
//! the same way everywhere.
//!
//! The binary's usage text is the list of flags it accepts:
//! [`Args::next_flag`] rejects a flag the text does not mention before any
//! parser arm sees it, so a flag cannot be parsed and undocumented.

use std::str::FromStr;

use deepsecure_ot::ChaosSpec;

/// A cursor over one binary's arguments.
#[derive(Debug)]
pub struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
    usage: &'static str,
}

impl<'a> Args<'a> {
    /// Starts at the first of `args`; `usage` is appended to usage errors.
    #[must_use]
    pub fn new(args: &'a [String], usage: &'static str) -> Args<'a> {
        Args {
            rest: args.iter(),
            usage,
        }
    }

    /// The next flag, or `None` at the end of the line.
    ///
    /// # Errors
    ///
    /// Fails with [`Args::unknown`] unless the usage text mentions the
    /// flag as a word of its own.
    pub fn next_flag(&mut self) -> Result<Option<&'a str>, String> {
        let Some(flag) = self.rest.next() else {
            return Ok(None);
        };
        let word = |c: char| c.is_ascii_alphanumeric() || c == '-';
        let documented =
            flag.starts_with("--") && self.usage.split(|c| !word(c)).any(|w| w == flag);
        if documented {
            Ok(Some(flag))
        } else {
            Err(self.unknown(flag))
        }
    }

    /// The error for a flag this binary (or this role of it) does not
    /// take, carrying the usage text.
    #[must_use]
    pub fn unknown(&self, flag: &str) -> String {
        format!("unknown flag {flag:?}\n{}", self.usage)
    }

    /// The value following `flag`.
    ///
    /// # Errors
    ///
    /// Fails, with the usage text, when the line ends first.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        let usage = self.usage;
        self.rest
            .next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{usage}"))
    }

    /// The value of `flag` parsed as a `T` that satisfies `ok`; `what`
    /// completes "`flag` takes …" in the error.
    ///
    /// # Errors
    ///
    /// Fails on a missing, malformed or rejected value.
    pub fn parsed_if<T: FromStr>(
        &mut self,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse()
            .ok()
            .filter(ok)
            .ok_or_else(|| format!("{flag} takes {what}, got {v:?}"))
    }

    /// [`Args::parsed_if`] with nothing to reject.
    pub fn parsed<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, String> {
        self.parsed_if(flag, what, |_| true)
    }

    /// [`Args::parsed_if`] for a `what` that must be greater than zero.
    pub fn positive<T>(&mut self, flag: &str, what: &str) -> Result<T, String>
    where
        T: FromStr + PartialOrd + Default,
    {
        self.parsed_if(flag, &format!("a positive {what}"), |n| *n > T::default())
    }

    /// The comma-separated value of `flag`, each item parsed as a `T`.
    ///
    /// # Errors
    ///
    /// Fails on a missing value or a malformed item.
    pub fn list<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<Vec<T>, String> {
        let v = self.value(flag)?;
        v.split(',')
            .map(|item| item.trim().parse().ok())
            .collect::<Option<_>>()
            .ok_or_else(|| format!("{flag} takes comma-separated {what}, got {v:?}"))
    }
}

/// The flags several binaries share, so each reads and fails the same way
/// everywhere (errors as for [`Args::parsed`]).
impl Args<'_> {
    /// `--threads N`: worker threads, `0` = one per core.
    pub fn threads(&mut self) -> Result<usize, String> {
        self.parsed("--threads", "a count (0 = auto)")
    }

    /// `--chunk-gates N`: non-free gates per table chunk, `0` = one
    /// whole-cycle chunk.
    pub fn chunk_gates(&mut self) -> Result<usize, String> {
        self.parsed("--chunk-gates", "a non-free gate count")
    }

    /// `--seed S`.
    pub fn seed(&mut self) -> Result<u64, String> {
        self.parsed("--seed", "a number")
    }

    /// `--chaos SEED:PROFILE`: the deterministic fault schedule.
    pub fn chaos(&mut self) -> Result<ChaosSpec, String> {
        ChaosSpec::parse(&self.value("--chaos")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "usage: demo [--n N] [--rate R] [--sizes N[,N...]] [--threads N]\n\
                         [--chunk-gates N] [--seed S] [--chaos SEED:PROFILE]";

    /// Parses the words of `line` with every typed accessor of the cursor.
    fn parse(line: &str) -> Result<(), String> {
        let line: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let mut args = Args::new(&line, USAGE);
        while let Some(flag) = args.next_flag()? {
            match flag {
                "--n" => drop(args.positive::<usize>(flag, "count")?),
                "--rate" => drop(args.parsed_if(flag, "a finite rate", |r: &f64| r.is_finite())?),
                "--sizes" => drop(args.list::<usize>(flag, "counts")?),
                "--threads" => drop(args.threads()?),
                "--chunk-gates" => drop(args.chunk_gates()?),
                "--seed" => drop(args.seed()?),
                "--chaos" => drop(args.chaos()?),
                other => return Err(args.unknown(other)),
            }
        }
        Ok(())
    }

    #[test]
    fn well_formed_lines_parse() {
        parse("").unwrap();
        parse("--n 3 --rate 0.5 --sizes 0,1024,8192 --threads 0 --chunk-gates 4096").unwrap();
        parse("--seed 7 --chaos 7:delays").unwrap();
    }

    #[test]
    fn every_error_names_its_flag() {
        // (line, what the message must contain, whether it carries usage)
        let cases = [
            ("--n", "--n needs a value", true),
            ("--chaos", "--chaos needs a value", true),
            ("--n x", "--n takes a positive count, got \"x\"", false),
            ("--n 0", "--n takes a positive count, got \"0\"", false),
            ("--n -2", "--n takes a positive count", false),
            (
                "--rate inf",
                "--rate takes a finite rate, got \"inf\"",
                false,
            ),
            (
                "--sizes 1,,2",
                "--sizes takes comma-separated counts",
                false,
            ),
            (
                "--threads many",
                "--threads takes a count (0 = auto)",
                false,
            ),
            (
                "--chunk-gates 1k",
                "--chunk-gates takes a non-free gate count",
                false,
            ),
            ("--seed -1", "--seed takes a number", false),
            ("--chaos nonsense", "nonsense", false),
            ("--bogus", "unknown flag \"--bogus\"", true),
            // In the usage text, but not as a flag of its own.
            ("SEED", "unknown flag \"SEED\"", true),
            ("--chunk", "unknown flag \"--chunk\"", true),
        ];
        for (line, want, with_usage) in cases {
            let err = parse(line).unwrap_err();
            assert!(err.contains(want), "{line:?}: {err}");
            assert_eq!(err.contains("usage: demo"), with_usage, "{line:?}: {err}");
        }
    }
}
