//! Every binary's flag parser against its own usage text, black-box.
//!
//! The parsers (`deepsecure::cli`) fail before any model is trained or any
//! socket opened, so each probe is one millisecond-scale process. A flag
//! the usage text does not mention is rejected by construction
//! (`Args::next_flag`); this file checks the other direction — everything
//! the text mentions parses — and that the `--lint` entry point removed in
//! favour of `circuit_lint --model` stays gone.

use std::collections::BTreeSet;
use std::process::Command;

/// Runs `exe args…` and returns `(succeeded, stderr)`.
fn run(exe: &str, args: &[&str]) -> (bool, String) {
    let out = Command::new(exe).args(args).output().expect("spawning");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The usage text `exe` prints for a flag it does not know.
fn usage_of(exe: &str) -> String {
    let (ok, err) = run(exe, &["--no-such-flag"]);
    assert!(
        !ok && err.contains("unknown flag \"--no-such-flag\""),
        "{err}"
    );
    assert!(err.contains("usage:"), "no usage text in: {err}");
    err
}

/// The `--flags` a usage text mentions.
fn flags_in(usage: &str) -> BTreeSet<&str> {
    usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.starts_with("--") && w.len() > 2 && *w != "--no-such-flag")
        .collect()
}

/// Whether `exe flag`, with nothing after it, gets past the unknown-flag
/// check. It then stops at the flag's missing value or at the binary's
/// required-argument check — never at real work.
fn recognised(exe: &str, flag: &str) -> bool {
    let (ok, err) = run(exe, &[flag]);
    assert!(!ok || flag == "--help", "{exe} {flag} ran: {err}");
    !err.contains(&format!("unknown flag {flag:?}"))
}

#[test]
fn every_documented_flag_parses_for_its_role() {
    // (binary, flags its usage text mentions that it must reject)
    let cases: [(&str, &[&str]); 4] = [
        (env!("CARGO_BIN_EXE_deepsecure_serve"), &[]),
        (env!("CARGO_BIN_EXE_loadgen"), &[]),
        (env!("CARGO_BIN_EXE_circuit_lint"), &[]),
        // Its text quotes the `circuit_lint` command that feeds it.
        (env!("CARGO_BIN_EXE_table_budget"), &["--model", "--json"]),
    ];
    for (exe, rejected) in cases {
        let usage = usage_of(exe);
        let flags = flags_in(&usage);
        assert!(flags.len() >= 2, "{exe}: no flags found in {usage}");
        for flag in flags {
            assert_eq!(
                recognised(exe, flag),
                !rejected.contains(&flag),
                "{exe} {flag}"
            );
        }
        // The lint fork is gone from the parser (and, `--lint` not being
        // among `flags`, from the text).
        assert!(!recognised(exe, "--lint"), "{exe} --lint");
    }
}

#[test]
fn value_errors_name_the_flag() {
    let loadgen = env!("CARGO_BIN_EXE_loadgen");
    let cases: [(&str, &[&str], &str); 7] = [
        (loadgen, &["--clients"], "--clients needs a value"),
        (
            loadgen,
            &["--clients", "0"],
            "--clients takes a positive count",
        ),
        (loadgen, &["--rate", "inf"], "--rate takes arrivals/s > 0"),
        (loadgen, &["--chaos", "7"], "7"),
        (loadgen, &["--threads", "many"], "--threads takes a count"),
        (
            env!("CARGO_BIN_EXE_deepsecure_serve"),
            &["--queue-cap", "0"],
            "--queue-cap takes a positive count",
        ),
        (
            env!("CARGO_BIN_EXE_circuit_lint"),
            &["--chunk-gates", "1,x"],
            "--chunk-gates takes comma-separated non-free gate counts",
        ),
    ];
    for (exe, args, want) in cases {
        let (ok, err) = run(exe, args);
        assert!(!ok && err.contains(want), "{exe} {args:?}: {err}");
    }
}
