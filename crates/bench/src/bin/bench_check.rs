//! `bench_check` — validate the committed `BENCH_*.json` trajectory files.
//!
//! Usage: `cargo run -p capsim-bench --bin bench_check -- FILE...`
//!
//! Each file must parse as a JSON object of string / number / bool values
//! plus, at most one level deep, arrays of such flat objects (the only
//! nesting our bench bins emit). Files whose names start with a prefix in
//! [`ARTIFACTS`] must also pass that artifact's rules; other `BENCH_*`
//! files only need to parse. Exits non-zero listing every problem found,
//! so CI catches a bin that wrote garbage.

use std::collections::BTreeMap;

/// The value shapes our hand-rolled bench JSON actually contains.
#[derive(Debug, PartialEq)]
enum Val {
    Num(f64),
    Bool(bool),
    Str(String),
    /// An array of flat objects — the fleet scaling curve. Arrays never
    /// nest further.
    Arr(Vec<BTreeMap<String, Val>>),
}

fn skip_ws(s: &[char], mut i: usize) -> usize {
    while i < s.len() && s[i].is_whitespace() {
        i += 1;
    }
    i
}

fn parse_string(s: &[char], mut i: usize) -> Result<(String, usize), String> {
    if s.get(i) != Some(&'"') {
        return Err(format!("expected '\"' at offset {i}"));
    }
    i += 1;
    let mut out = String::new();
    while let Some(&c) = s.get(i) {
        match c {
            '"' => return Ok((out, i + 1)),
            '\\' => {
                let esc = *s.get(i + 1).ok_or("dangling escape")?;
                out.push(match esc {
                    'n' => '\n',
                    't' => '\t',
                    other => other,
                });
                i += 2;
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    Err("unterminated string".into())
}

/// Parse one scalar / array value starting at `i`. `depth` guards the
/// one level of nesting we allow: arrays of flat objects at the top
/// level only.
fn parse_value(s: &[char], mut i: usize, depth: u32) -> Result<(Val, usize), String> {
    match s.get(i) {
        Some(&'"') => {
            let (v, next) = parse_string(s, i)?;
            Ok((Val::Str(v), next))
        }
        Some(&'t') if s[i..].starts_with(&['t', 'r', 'u', 'e']) => Ok((Val::Bool(true), i + 4)),
        Some(&'f') if s[i..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            Ok((Val::Bool(false), i + 5))
        }
        Some(&'[') if depth == 0 => {
            let mut items = Vec::new();
            i = skip_ws(s, i + 1);
            if s.get(i) == Some(&']') {
                return Ok((Val::Arr(items), i + 1));
            }
            loop {
                let (obj, next) = parse_object(s, i, depth + 1)?;
                items.push(obj);
                i = skip_ws(s, next);
                match s.get(i) {
                    Some(&',') => i = skip_ws(s, i + 1),
                    Some(&']') => return Ok((Val::Arr(items), i + 1)),
                    other => return Err(format!("expected ',' or ']' in array, got {other:?}")),
                }
            }
        }
        Some(&'[') => Err("nested arrays are not a bench shape".into()),
        Some(&c) if c == '-' || c.is_ascii_digit() => {
            let start = i;
            while i < s.len()
                && (s[i].is_ascii_digit() || matches!(s[i], '-' | '+' | '.' | 'e' | 'E'))
            {
                i += 1;
            }
            let lit: String = s[start..i].iter().collect();
            Ok((Val::Num(lit.parse::<f64>().map_err(|_| format!("bad number {lit:?}"))?), i))
        }
        other => Err(format!("unexpected value start {other:?}")),
    }
}

/// Parse one `{...}` object starting at `i`; returns the map and the
/// position just past the closing brace.
fn parse_object(
    s: &[char],
    mut i: usize,
    depth: u32,
) -> Result<(BTreeMap<String, Val>, usize), String> {
    let mut map = BTreeMap::new();
    i = skip_ws(s, i);
    if s.get(i) != Some(&'{') {
        return Err(format!("expected '{{' at offset {i}"));
    }
    i = skip_ws(s, i + 1);
    if s.get(i) == Some(&'}') {
        return Ok((map, i + 1));
    }
    loop {
        let (key, next) = parse_string(s, i)?;
        i = skip_ws(s, next);
        if s.get(i) != Some(&':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i = skip_ws(s, i + 1);
        let (val, next) = parse_value(s, i, depth)?;
        i = next;
        if map.insert(key.clone(), val).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        i = skip_ws(s, i);
        match s.get(i) {
            Some(&',') => i = skip_ws(s, i + 1),
            Some(&'}') => return Ok((map, i + 1)),
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

/// Parse a whole bench JSON document (a flat object, with the fleet
/// curve's one allowed level of array nesting). Returns a description of
/// the first syntax problem on malformed input.
fn parse_flat_object(text: &str) -> Result<BTreeMap<String, Val>, String> {
    let s: Vec<char> = text.chars().collect();
    let (map, i) = parse_object(&s, 0, 0)?;
    if skip_ws(&s, i) != s.len() {
        return Err("trailing content after object".into());
    }
    Ok(map)
}

/// What one key of a bench artifact must hold.
enum Rule {
    /// A number greater than zero.
    Positive,
    /// Any number.
    Number,
    /// The boolean `true`; the text says what `false` means.
    True(&'static str),
    /// Exactly zero; the text says what a non-zero count means.
    Zero(&'static str),
    /// A non-empty string.
    Text,
    /// A non-empty array of `what`, each row checked against `row`, and
    /// holding at least one `required` row when given.
    Rows { what: &'static str, row: &'static [(&'static str, Rule)], required: Option<RequiredRow> },
}

/// A row an array must contain: one whose `key` equals `value`.
struct RequiredRow {
    key: &'static str,
    value: &'static str,
    label: &'static str,
}

use Rule::{Number, Positive, Rows, Text, True, Zero};

/// The known artifacts: file-name prefix and the rules its keys obey.
const ARTIFACTS: &[(&str, &[(&str, Rule)])] = &[
    (
        "BENCH_hotpath",
        &[
            ("accesses_per_sec", Positive),
            ("machine_loads_per_sec", Positive),
            ("ticks_per_sec", Positive),
        ],
    ),
    (
        "BENCH_fleet",
        &[
            ("nodes", Positive),
            ("speedup", Positive),
            ("deterministic", True("fleet determinism broken")),
            (
                "curve",
                Rows {
                    what: "scaling points",
                    row: &[
                        ("nodes", Positive),
                        ("threads", Positive),
                        ("shards", Positive),
                        ("node_epochs_per_sec", Positive),
                    ],
                    required: None,
                },
            ),
        ],
    ),
    (
        "BENCH_obs",
        &[
            ("loads_per_sec_obs_off", Positive),
            ("loads_per_sec_obs_on", Positive),
            ("overhead_pct", Number),
            ("within_budget", True("obs overhead over budget")),
        ],
    ),
    (
        "BENCH_chaos",
        &[
            ("soak_scenarios_per_sec", Positive),
            ("guardrail_overhead_pct", Number),
            ("invariant_violations", Zero("chaos run red")),
            ("within_budget", True("guardrail overhead over budget")),
        ],
    ),
    (
        "BENCH_policy",
        &[
            ("deterministic", True("RL training replay diverged")),
            ("invariant_violations", Zero("a policy broke chaos invariants")),
            (
                "frontier",
                Rows {
                    what: "per-policy points",
                    row: &[("policy", Text), ("energy_j", Positive), ("avg_freq_mhz", Positive)],
                    required: None,
                },
            ),
        ],
    ),
    (
        "BENCH_traffic",
        &[
            ("throughput_rps", Positive),
            ("p99_ms", Positive),
            ("energy_j", Positive),
            ("deterministic", True("emergency replay diverged")),
            ("invariant_violations", Zero("emergency broke invariants")),
            (
                "ladder",
                Rows {
                    what: "cap rungs",
                    row: &[("budget_w_per_node", Positive), ("p99_ms", Positive)],
                    required: None,
                },
            ),
            (
                "frontier",
                Rows {
                    what: "per-policy points",
                    row: &[("policy", Text), ("energy_j", Positive), ("slo_viol_per_kj", Number)],
                    required: Some(RequiredRow {
                        key: "policy",
                        value: "slo",
                        label: "tail-aware policy",
                    }),
                },
            ),
            (
                "retry_storm",
                Rows {
                    what: "closed-loop points",
                    row: &[("retries", Positive), ("failover", Number)],
                    required: None,
                },
            ),
            (
                "backpressure",
                Rows {
                    what: "per-mode points",
                    row: &[
                        ("mode", Text),
                        ("energy_j", Positive),
                        ("slo_viol_per_kj", Number),
                        ("rate_multiplier", Number),
                    ],
                    required: Some(RequiredRow {
                        key: "mode",
                        value: "aimd_brownout",
                        label: "robustness stack",
                    }),
                },
            ),
        ],
    ),
];

/// Check `val` (the value at `field`, if present) against `rule`.
fn check_value(path: &str, field: &str, rule: &Rule, val: Option<&Val>, errors: &mut Vec<String>) {
    let Some(val) = val else {
        errors.push(format!("{path}: missing required key {field:?}"));
        return;
    };
    let problem = match (rule, val) {
        (Positive, Val::Num(v)) if *v > 0.0 => return,
        (Positive, Val::Num(v)) => format!("must be positive, got {v}"),
        (Number, Val::Num(_)) => return,
        (True(_), Val::Bool(true)) => return,
        (True(why), Val::Bool(false)) => format!("is false — {why}"),
        (True(_), other) => format!("must be a bool, got {other:?}"),
        (Zero(_), Val::Num(v)) if *v == 0.0 => return,
        (Zero(why), Val::Num(v)) => format!("must be 0, got {v} — {why}"),
        (Positive | Number | Zero(_), other) => format!("must be a number, got {other:?}"),
        (Text, Val::Str(s)) if !s.is_empty() => return,
        (Text, other) => format!("must be a non-empty string, got {other:?}"),
        (Rows { .. }, Val::Arr(rows)) if rows.is_empty() => "must not be empty".into(),
        (Rows { row, required, .. }, Val::Arr(rows)) => {
            for (i, r) in rows.iter().enumerate() {
                for (key, rule) in row.iter() {
                    check_value(path, &format!("{field}[{i}].{key}"), rule, r.get(*key), errors);
                }
            }
            let Some(req) = required else { return };
            if rows.iter().any(|r| matches!(r.get(req.key), Some(Val::Str(s)) if s == req.value)) {
                return;
            }
            format!("must include the {:?} ({}) row", req.value, req.label)
        }
        (Rows { what, .. }, other) => format!("must be an array of {what}, got {other:?}"),
    };
    errors.push(format!("{path}: {field} {problem}"));
}

/// Check one file; push human-readable problems into `errors`.
fn check_file(path: &str, errors: &mut Vec<String>) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            errors.push(format!("{path}: unreadable: {e}"));
            return;
        }
    };
    let map = match parse_flat_object(&text) {
        Ok(m) => m,
        Err(e) => {
            errors.push(format!("{path}: parse error: {e}"));
            return;
        }
    };
    let name = path.rsplit('/').next().unwrap_or(path);
    if let Some((_, rules)) = ARTIFACTS.iter().find(|(prefix, _)| name.starts_with(prefix)) {
        for (key, rule) in rules.iter() {
            check_value(path, key, rule, map.get(*key), errors);
        }
    }
}

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: bench_check FILE...");
        std::process::exit(2);
    }
    let mut errors = Vec::new();
    for f in &files {
        check_file(f, &mut errors);
    }
    if errors.is_empty() {
        println!("bench_check: {} file(s) ok", files.len());
    } else {
        for e in &errors {
            eprintln!("bench_check: {e}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_our_bench_shapes() {
        let m = parse_flat_object(
            "{\n  \"a\": 1.5,\n  \"b\": true,\n  \"c\": \"full\",\n  \"d\": -3\n}\n",
        )
        .unwrap();
        assert_eq!(m.get("a"), Some(&Val::Num(1.5)));
        assert_eq!(m.get("b"), Some(&Val::Bool(true)));
        assert_eq!(m.get("c"), Some(&Val::Str("full".into())));
        assert_eq!(m.get("d"), Some(&Val::Num(-3.0)));
        assert!(parse_flat_object("{}").unwrap().is_empty());

        // The fleet scaling curve: an array of flat objects.
        let m = parse_flat_object(
            "{\"curve\": [{\"nodes\": 256, \"rate\": 1.5}, {\"nodes\": 1000, \"rate\": 2.0}], \
             \"after\": true}",
        )
        .unwrap();
        let Some(Val::Arr(points)) = m.get("curve") else { panic!("curve parses as array") };
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].get("nodes"), Some(&Val::Num(1000.0)));
        assert_eq!(m.get("after"), Some(&Val::Bool(true)));
        let m = parse_flat_object("{\"curve\": []}").unwrap();
        assert_eq!(m.get("curve"), Some(&Val::Arr(vec![])));
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse_flat_object("").is_err());
        assert!(parse_flat_object("{\"a\": }").is_err());
        assert!(parse_flat_object("{\"a\": 1,}").is_err());
        assert!(parse_flat_object("{\"a\": 1} junk").is_err());
        assert!(parse_flat_object("{\"a\": 1, \"a\": 2}").is_err());
        assert!(parse_flat_object("{\"a\": [1, 2]}").is_err(), "arrays hold objects only");
        assert!(parse_flat_object("{\"a\": [{\"b\": [{}]}]}").is_err(), "no nested arrays");
        assert!(parse_flat_object("{\"a\": [{\"b\": 1}").is_err());
    }

    #[test]
    fn known_artifacts_need_their_keys() {
        let dir = std::env::temp_dir().join("capsim_bench_check_test");
        std::fs::create_dir_all(&dir).unwrap();
        let obs = dir.join("BENCH_obs.json");
        std::fs::write(&obs, "{\"loads_per_sec_obs_off\": 1}").unwrap();
        let mut errors = Vec::new();
        check_file(obs.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("within_budget")));

        let chaos = dir.join("BENCH_chaos.json");
        std::fs::write(
            &chaos,
            "{\"soak_scenarios_per_sec\": 2.5, \"guardrail_overhead_pct\": 0.4, \
             \"invariant_violations\": 1, \"within_budget\": true}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(chaos.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("invariant_violations")), "{errors:?}");

        let fleet = dir.join("BENCH_fleet.json");
        std::fs::write(
            &fleet,
            "{\"nodes\": 10000, \"speedup\": 1.0, \"deterministic\": true, \
             \"curve\": [{\"nodes\": 256, \"threads\": 1, \"shards\": 1, \
             \"node_epochs_per_sec\": 250.0}]}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(fleet.to_str().unwrap(), &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        std::fs::write(
            &fleet,
            "{\"nodes\": 10000, \"speedup\": 1.0, \"deterministic\": true, \
             \"curve\": [{\"nodes\": 256, \"threads\": 1, \"shards\": 0, \
             \"node_epochs_per_sec\": 250.0}]}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(fleet.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("curve[0].shards")), "{errors:?}");
        std::fs::write(&fleet, "{\"nodes\": 1, \"speedup\": 1.0, \"deterministic\": false}")
            .unwrap();
        let mut errors = Vec::new();
        check_file(fleet.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("deterministic is false")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("curve")), "{errors:?}");

        let policy = dir.join("BENCH_policy.json");
        std::fs::write(
            &policy,
            "{\"deterministic\": true, \"invariant_violations\": 0, \
             \"frontier\": [{\"policy\": \"ladder\", \"energy_j\": 1.5, \
             \"avg_freq_mhz\": 2000.0}]}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(policy.to_str().unwrap(), &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        std::fs::write(
            &policy,
            "{\"deterministic\": false, \"invariant_violations\": 2, \
             \"frontier\": [{\"policy\": \"rl\", \"energy_j\": -1, \"avg_freq_mhz\": 2000.0}]}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(policy.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("deterministic is false")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("invariant_violations")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("frontier[0].energy_j")), "{errors:?}");
        std::fs::write(&policy, "{\"deterministic\": true, \"invariant_violations\": 0}").unwrap();
        let mut errors = Vec::new();
        check_file(policy.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("frontier")), "{errors:?}");

        let traffic = dir.join("BENCH_traffic.json");
        std::fs::write(
            &traffic,
            "{\"throughput_rps\": 5e6, \"p99_ms\": 1.87, \"energy_j\": 17.5, \
             \"deterministic\": true, \"invariant_violations\": 0, \
             \"ladder\": [{\"budget_w_per_node\": 118, \"p99_ms\": 1.88}], \
             \"frontier\": [{\"policy\": \"governor\", \"energy_j\": 5.8, \
             \"slo_viol_per_kj\": 161285.0}, {\"policy\": \"slo\", \"energy_j\": 5.7, \
             \"slo_viol_per_kj\": 150001.0}], \
             \"retry_storm\": [{\"retries\": 120, \"failover\": 43}], \
             \"backpressure\": [{\"mode\": \"retry_only\", \"energy_j\": 5.8, \
             \"slo_viol_per_kj\": 161285.0, \"rate_multiplier\": 1.0}, \
             {\"mode\": \"aimd_brownout\", \"energy_j\": 5.5, \
             \"slo_viol_per_kj\": 98000.0, \"rate_multiplier\": 0.25}]}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(traffic.to_str().unwrap(), &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        std::fs::write(
            &traffic,
            "{\"throughput_rps\": 5e6, \"p99_ms\": 1.87, \"energy_j\": 17.5, \
             \"deterministic\": false, \"invariant_violations\": 3, \
             \"ladder\": [], \
             \"frontier\": [{\"policy\": \"\", \"energy_j\": 5.8}], \
             \"retry_storm\": [{\"retries\": 0}], \
             \"backpressure\": [{\"mode\": \"retry_only\", \"energy_j\": -2, \
             \"slo_viol_per_kj\": 161285.0}]}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(traffic.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("deterministic is false")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("invariant_violations")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("ladder must not be empty")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("frontier[0].policy")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("slo_viol_per_kj")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("must include the \"slo\"")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("retry_storm[0].retries")), "{errors:?}");
        assert!(
            errors.iter().any(|e| e.contains("retry_storm[0]") && e.contains("failover")),
            "{errors:?}"
        );
        assert!(errors.iter().any(|e| e.contains("backpressure[0].energy_j")), "{errors:?}");
        assert!(
            errors.iter().any(|e| e.contains("backpressure[0]") && e.contains("rate_multiplier")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("must include the \"aimd_brownout\"")),
            "{errors:?}"
        );
        std::fs::write(
            &traffic,
            "{\"throughput_rps\": 5e6, \"p99_ms\": 1.87, \"energy_j\": 17.5, \
             \"deterministic\": true, \"invariant_violations\": 0, \
             \"ladder\": [{\"budget_w_per_node\": 118, \"p99_ms\": 1.88}], \
             \"frontier\": [{\"policy\": \"slo\", \"energy_j\": 5.7, \
             \"slo_viol_per_kj\": 150001.0}], \
             \"retry_storm\": [{\"retries\": 120, \"failover\": 43}]}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(traffic.to_str().unwrap(), &mut errors);
        assert!(
            errors.iter().any(|e| e.contains("missing required key \"backpressure\"")),
            "{errors:?}"
        );

        let unknown = dir.join("BENCH_custom.json");
        std::fs::write(&unknown, "{\"anything\": 1}").unwrap();
        let mut errors = Vec::new();
        check_file(unknown.to_str().unwrap(), &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn committed_artifacts_pass() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut names = Vec::new();
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let mut errors = Vec::new();
                check_file(path.to_str().unwrap(), &mut errors);
                assert!(errors.is_empty(), "{errors:?}");
                names.push(name);
            }
        }
        for (prefix, _) in ARTIFACTS {
            assert!(names.iter().any(|n| n.starts_with(prefix)), "no committed {prefix}*.json");
        }
    }
}
