//! The benchmark's guard against drifting from its description: runs
//! `dsbench --smoke` and checks that every workload and metric
//! `BENCHMARK.json` names comes out with a unit and a finite value.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and dsbench's own output.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            match self.s[self.i] {
                b'"' => break,
                b'\\' => {
                    self.i += 1;
                    out.push(match self.s[self.i] {
                        b'n' => b'\n',
                        b't' => b'\t',
                        c => c,
                    });
                }
                c => out.push(c),
            }
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(out).expect("JSON strings are UTF-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(map);
                }
                loop {
                    self.ws();
                    let key = self.string();
                    self.eat(b':');
                    map.insert(key, self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(map);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|e| panic!("number {text:?}: {e}")),
                )
            }
        }
    }
}

fn parse(text: &str) -> Json {
    Parser {
        s: text.as_bytes(),
        i: 0,
    }
    .value()
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map
                .get(key)
                .unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("{key:?} looked up in {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Runs `dsbench --smoke` with `extra` and parses its last line.
fn smoke(extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_dsbench"))
        .arg("--smoke")
        .args(extra)
        .output()
        .expect("run dsbench");
    let stdout = String::from_utf8(out.stdout).expect("dsbench prints UTF-8");
    assert!(
        out.status.success(),
        "dsbench --smoke {extra:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(
        stdout
            .lines()
            .last()
            .expect("dsbench printed a result line"),
    )
}

fn assert_metrics(metrics: &Json, wanted: &[(String, String)], context: &str) {
    let Json::Obj(map) = metrics else {
        panic!("{context}: metrics is not an object");
    };
    for (name, unit) in wanted {
        let m = map
            .get(name)
            .unwrap_or_else(|| panic!("{context}: metric {name} missing from the output"));
        assert_eq!(m.get("unit").str(), unit, "{context}: unit of {name}");
        match m.get("value") {
            Json::Num(v) => assert!(v.is_finite(), "{context}: {name} = {v}"),
            other => panic!("{context}: {name} has no numeric value: {other:?}"),
        }
    }
    assert_eq!(
        map.len(),
        wanted.len(),
        "{context}: metrics beyond BENCHMARK.json's list"
    );
}

#[test]
fn smoke_output_matches_benchmark_json() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let spec =
        parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json"));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads.len(), 4);
    for w in spec.get("workloads").arr() {
        let why = w.get("why").str();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {:?}",
            w.get("name")
        );
    }
    let e2e = names(spec.get("end_to_end"));
    let layers = names(spec.get("per_layer"));
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    // The all-workloads command, tracing off: every workload, every
    // end-to-end metric, a host block.
    let report = smoke(&[]);
    let host = report.get("host");
    for key in [
        "nproc",
        "cpu_model",
        "rustc",
        "profile",
        "calibration_ns_per_iter",
    ] {
        host.get(key);
    }
    let ran: Vec<&str> = report
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(ran, workloads, "workloads run vs BENCHMARK.json");
    for w in report.get("workloads").arr() {
        let name = w.get("name").str();
        assert_eq!(w.get("correct"), &Json::Bool(true), "{name}");
        assert_eq!(w.get("failed"), &Json::Num(0.0), "{name}");
        assert_metrics(w.get("metrics"), &e2e, name);
    }

    // The driver's per-workload form, traced: exactly the per-layer rows.
    for name in &workloads {
        let line = smoke(&["--workload", name, "--trace", "1"]);
        assert_eq!(line.get("correct"), &Json::Bool(true), "{name} traced");
        assert_metrics(line.get("metrics"), &layers, &format!("{name} traced"));
        let trace = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{name}.trace.json"));
        let events =
            parse(&std::fs::read_to_string(&trace).expect("the traced run writes a trace file"));
        assert!(
            events
                .get("traceEvents")
                .arr()
                .iter()
                .any(|e| e.get("name").str() == "bench.op"),
            "{name}: no bench.op span in {}",
            trace.display()
        );
    }
}
