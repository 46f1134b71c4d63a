//! Smoke-size self-test: every workload, untraced and traced, prints
//! every metric `BENCHMARK.json` names, with its unit, both as a
//! `metric` line and in the final JSON line, and passes its checks.

use std::collections::BTreeMap;
use std::process::Command;

/// A JSON value: just enough of the format for `BENCHMARK.json` and the
/// benchmark's result line.
#[derive(Debug)]
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
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key:?}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            _ => panic!("not a number: {self:?}"),
        }
    }
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
        assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
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
                    let Json::Str(k) = self.value() else { panic!("object key") };
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
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [("true", Json::Bool(true)), ("false", Json::Bool(false))]
                    .into_iter()
                    .chain([("null", Json::Null)])
                {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i);
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?}")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes");
    v
}

fn named(spec: &Json, list: &str) -> Vec<(String, String)> {
    let Json::Arr(items) = spec.get(list) else { panic!("{list} is not an array") };
    items
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_capbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
        .arg("--smoke")
        .output()
        .expect("run capbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(stdout: &str, metrics: &[(String, String)], nonzero: bool) {
    let last = stdout.lines().last().expect("output");
    let result = parse(last);
    let Json::Obj(keys) = &result else { panic!("result is not an object") };
    assert_eq!(
        keys.keys().map(String::as_str).collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"]
    );
    assert!(matches!(result.get("correct"), Json::Bool(true)), "{stdout}");
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);
    let Json::Obj(got) = result.get("metrics") else { panic!("metrics is not an object") };
    assert_eq!(got.len(), metrics.len(), "exactly the named metrics");
    for (name, unit) in metrics {
        let m = result.get("metrics").get(name);
        assert_eq!(m.get("unit").str(), unit, "{name}");
        let value = m.get("value").num();
        assert!(value.is_finite(), "{name} = {value}");
        if nonzero {
            assert!(value > 0.0, "{name} = {value}");
        }
        let line = stdout
            .lines()
            .find(|l| l.starts_with("metric ") && l.split_whitespace().nth(1) == Some(name))
            .unwrap_or_else(|| panic!("no metric line for {name}"));
        assert_eq!(line.split_whitespace().nth(3), Some(unit.as_str()), "{line}");
    }
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = parse(&text);
    let end_to_end = named(&spec, "end_to_end");
    let per_layer = named(&spec, "per_layer");
    let Json::Arr(workloads) = spec.get("workloads") else { panic!("workloads") };
    for w in workloads {
        let name = w.get("name").str();
        check(&run(name, "0"), &end_to_end, true);
        check(&run(name, "1"), &per_layer, false);
    }
}
