//! Self-test of the benchmark: runs every workload at tiny size and checks
//! that each metric `BENCHMARK.json` names is emitted with its unit.
//!
//! ```text
//! cargo test --release --manifest-path ganbench/Cargo.toml
//! ```

use crate::harness::{self, Outcome};
use crate::{run_workload, Ctx, Scale, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// Serialises tests: the pool's thread cap, the kernel-cache directory and
/// the obs counters the gate reads are process-wide.
pub static SERIAL: Mutex<()> = Mutex::new(());

/// A tiny-size context for `workload`, with its run directory inside the
/// benchmark package.
pub fn tiny_ctx(workload: Workload, trace: bool) -> Ctx {
    let run_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".ganbench_run")
        .join(format!("selftest-{}", std::process::id()));
    Ctx { workload, seed: 3, seconds: 0.5, trace, scale: Scale::tiny(), run_dir }
}

/// Minimal JSON value, enough for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, found {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected an array, found {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing characters after JSON value");
    v
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
        assert_eq!(self.s.get(self.i), Some(&c), "expected '{}' at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else { panic!("object key is not a string") };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                let start = self.i + 1;
                let end = start + self.s[start..].iter().position(|&c| c == b'"').expect("string");
                self.i = end + 1;
                Json::Str(String::from_utf8(self.s[start..end].to_vec()).expect("utf-8"))
            }
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
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .arr()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

/// Checks a rendered result line against the declared metrics.
fn check_line(line: &str, metrics: &[(String, String)], what: &str) {
    let result = parse(line);
    let Json::Obj(top) = &result else { panic!("{what}: result is not an object") };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{what}: result keys");
    assert_eq!(result.get("correct"), &Json::Bool(true), "{what}: {line}");
    assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0), "{what}");
    let Json::Obj(emitted) = result.get("metrics") else { panic!("{what}: metrics") };
    assert_eq!(emitted.len(), metrics.len(), "{what}: metric count");
    for (name, unit) in metrics {
        let m = emitted.get(name).unwrap_or_else(|| panic!("{what}: {name} not emitted"));
        assert_eq!(m.get("unit").str(), unit, "{what}: unit of {name}");
        assert!(matches!(m.get("value"), Json::Num(v) if v.is_finite()), "{what}: {name}");
    }
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"));
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    // The declared lists and the benchmark's own tables agree exactly.
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(end_to_end, table(harness::END_TO_END));
    assert_eq!(per_layer, table(harness::PER_LAYER));
    let names: Vec<&str> =
        spec.get("workloads").arr().iter().map(|w| w.get("name").str()).collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    for workload in Workload::ALL {
        for trace in [false, true] {
            let ctx = tiny_ctx(workload, trace);
            let _cleanup = crate::RunDir(ctx.run_dir.clone());
            let out: Outcome = run_workload(&ctx);
            let (list, which) = if trace {
                (&per_layer, harness::PER_LAYER)
            } else {
                (&end_to_end, harness::END_TO_END)
            };
            check_line(&out.render(which).1, list, &format!("{} trace={trace}", workload.name()));
        }
    }
}

#[test]
fn json_parser_round_trips_result_lines() {
    let v = parse(r#"{"a": [1, -2.5e3, true, null], "b": {"c": "d"}}"#);
    assert_eq!(v.get("a").arr().len(), 4);
    assert_eq!(v.get("b").get("c").str(), "d");
    assert_eq!(v.get("a").arr()[1], Json::Num(-2500.0));
}
