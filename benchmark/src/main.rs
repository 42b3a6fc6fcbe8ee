//! `dsbench` — DeepSecure's end-to-end and per-layer benchmark.
//!
//! ```text
//! dsbench [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! dsbench selfcheck [--seed N] [--seconds S]
//! ```
//!
//! With one `--workload` the last line of standard output is the result
//! object `BENCHMARK.json`'s driver reads; with all workloads it is the
//! full report (host block, every row with its n). See `README.md`.

mod host;
mod ladder;
mod report;
mod rows;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use host::Host;
use report::{contract_line, full_json, print_table, WorkloadResult, E2E, EXACT};
use workload::{RunOpts, Spec, WORKLOADS};

/// `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 12.0;
const DEFAULT_SEED: u64 = 11;
/// The second seed `selfcheck` uses: exact counts must not depend on it.
const OTHER_SEED: u64 = 12;

/// Where trace files and reports go: `benchmark/out/`, git-ignored.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Cli {
    selfcheck: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        selfcheck: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "selfcheck" => cli.selfcheck = true,
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" {
                    cli.workload = Some(name);
                }
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                cli.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn find_spec(name: &str) -> Result<&'static Spec, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })
}

/// Runs every workload once and prints each table as it finishes.
fn run_set(opts: &RunOpts, host: &Host) -> Vec<WorkloadResult> {
    WORKLOADS
        .iter()
        .map(|spec| {
            let res = rows::run(spec, opts, host);
            print_table(&res);
            res
        })
        .collect()
}

fn report_json(host: &Host, opts: &RunOpts, sets: &[WorkloadResult]) -> String {
    let workloads: Vec<String> = sets.iter().map(full_json).collect();
    format!(
        "{{\"host\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"workloads\":[{}]}}",
        host.json(),
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.smoke,
        workloads.join(",")
    )
}

/// Two untraced sets on one build and seed must agree within each gated
/// metric's bound, exact counts must be bit-identical, and a third set on
/// another seed must report the same exact counts and no failure.
fn selfcheck(cli: &Cli, host: &Host) -> bool {
    let set = |seed: u64, label: &str| {
        println!("# selfcheck: set {label} (seed {seed})");
        let opts = RunOpts {
            seed,
            seconds: cli.seconds,
            trace: false,
            smoke: cli.smoke,
        };
        run_set(&opts, host)
    };
    let a = set(cli.seed, "A");
    let b = set(cli.seed, "B");
    let c = set(OTHER_SEED, "C");
    let mut pass = true;
    println!("# selfcheck: A vs B, relative difference per (metric, workload)");
    for (ra, rb) in a.iter().zip(&b) {
        for def in E2E {
            let (va, vb) = (
                ra.value(def.name).unwrap_or(0.0),
                rb.value(def.name).unwrap_or(0.0),
            );
            let rel = if va == 0.0 {
                f64::INFINITY
            } else {
                (vb - va).abs() / va.abs()
            };
            let exact = EXACT.contains(&def.name);
            let ok = if exact {
                va.to_bits() == vb.to_bits()
            } else {
                rel <= def.bound
            };
            pass &= ok;
            println!(
                "   {:<18} {:<20} A {:>14.6} B {:>14.6} {} diff {:>7.3}% (bound {}) {}",
                ra.name,
                def.name,
                va,
                vb,
                def.unit,
                rel * 100.0,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.1}%", def.bound * 100.0)
                },
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    println!("# selfcheck: exact counts across sets and seeds");
    for ((ra, rb), rc) in a.iter().zip(&b).zip(&c) {
        for name in EXACT {
            let vals = [ra.value(name), rb.value(name), rc.value(name)];
            let ok = vals[0].is_some()
                && vals
                    .iter()
                    .all(|v| v.map(f64::to_bits) == vals[0].map(f64::to_bits));
            pass &= ok;
            println!(
                "   {:<18} {:<22} {:?} {}",
                ra.name,
                name,
                vals.map(|v| v.unwrap_or(f64::NAN)),
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    for res in a.iter().chain(&b).chain(&c) {
        if !res.correct || res.failed != 0 {
            pass = false;
            println!(
                "   {}: failed {} of {} — FAIL",
                res.name, res.failed, res.attempted
            );
        }
    }
    println!("# selfcheck: {}", if pass { "PASS" } else { "FAIL" });
    pass
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("dsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let single = match cli.workload.as_deref().map(find_spec) {
        Some(Ok(spec)) => Some(spec),
        Some(Err(e)) => {
            eprintln!("dsbench: {e}");
            return ExitCode::from(2);
        }
        None => None,
    };
    let host = Host::probe();
    println!("# host {}", host.json());
    println!(
        "# end-to-end metrics: {}",
        E2E.iter()
            .map(|d| format!(
                "{} [{}] {} is better, bound {:.1}%",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound * 100.0
            ))
            .collect::<Vec<_>>()
            .join("; ")
    );
    if cli.selfcheck {
        return if selfcheck(&cli, &host) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let opts = RunOpts {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let (correct, last_line) = match single {
        Some(spec) => {
            let res = rows::run(spec, &opts, &host);
            print_table(&res);
            (res.correct, contract_line(&res, cli.trace))
        }
        None => {
            let set = run_set(&opts, &host);
            let json = report_json(&host, &opts, &set);
            let path = out_dir().join(if cli.trace { "layers.json" } else { "e2e.json" });
            let written =
                std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &json));
            match written {
                Ok(()) => println!("# report: {}", path.display()),
                Err(e) => eprintln!("dsbench: could not write {}: {e}", path.display()),
            }
            (set.iter().all(|r| r.correct), json)
        }
    };
    println!("{last_line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("dsbench: wrong or failed outputs — see the lines above");
        ExitCode::FAILURE
    }
}
