//! The `ogsa-bench` binary end to end: subcommand dispatch, and the key
//! paths of the artifacts the fast virtual-time gates write.

use std::collections::BTreeSet;
use std::process::Command;

use ogsa_bench::{figures, GATES};

const BIN: &str = env!("CARGO_BIN_EXE_ogsa-bench");

/// Every key path in a JSON document: object keys join with `.`, array
/// elements append `[]` (`rows[].stack`).
fn key_paths(json: &str) -> BTreeSet<String> {
    let (mut paths, mut open, mut value) = (BTreeSet::new(), Vec::<String>::new(), String::new());
    let mut chars = json.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let mut s = String::new();
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => s.extend(chars.next()),
                        '"' => break,
                        c => s.push(c),
                    }
                }
                if chars.peek() == Some(&':') {
                    value = match open.last().map(String::as_str) {
                        Some("") | None => s,
                        Some(object) => format!("{object}.{s}"),
                    };
                    paths.insert(value.clone());
                }
            }
            '{' => open.push(value.clone()),
            '[' => {
                value.push_str("[]");
                open.push(value.clone());
            }
            '}' | ']' => drop(open.pop()),
            ',' if open.last().is_some_and(|p| p.ends_with("[]")) => {
                value = open.last().unwrap().clone()
            }
            _ => {}
        }
    }
    paths
}

fn assert_keys(dir: &std::path::Path, file: &str, rows: &[&str], row_keys: &[&str], top: &[&str]) {
    let json = std::fs::read_to_string(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    let paths = key_paths(&json);
    let mut want: Vec<String> = top.iter().map(|k| k.to_string()).collect();
    for row in rows {
        want.push(row.to_string());
        want.extend(row_keys.iter().map(|k| format!("{row}[].{k}")));
    }
    for key in want {
        assert!(paths.contains(&key), "{file} lost key path {key}");
    }
}

#[test]
fn key_path_walker_sees_nested_objects_and_arrays() {
    let paths = key_paths(r#"{"a":1,"b":{"c":"x,}"},"d":[{"e":true},{"f":[1,2]}],"g":[]}"#);
    let want = ["a", "b", "b.c", "d", "d[].e", "d[].f", "g"];
    assert_eq!(paths, want.iter().map(|k| k.to_string()).collect());
}

#[test]
fn unknown_subcommand_fails_and_lists_the_valid_ones() {
    for args in [&["no-such-gate"][..], &["figures", "fig5"]] {
        let out = Command::new(BIN).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let gates = GATES.iter().map(|(gate, _)| *gate);
        for name in gates.chain(figures::NAMES.split('|')).chain(["figures"]) {
            assert!(stderr.contains(name), "usage misses {name}: {stderr}");
        }
    }
}

#[test]
fn virtual_time_gates_write_their_pinned_key_paths() {
    let dir = std::env::temp_dir().join(format!("ogsa-bench-cli-{}", std::process::id()));
    for gate in ["bench", "throughput"] {
        let out = Command::new(BIN).arg(gate).arg(&dir).output().unwrap();
        assert!(out.status.success(), "{gate} gate failed: {out:?}");
    }
    let breakdown = [
        "operation",
        "stack",
        "total_ms",
        "messages",
        "components_ms",
        "components_ms.db",
        "components_ms.dispatch",
        "components_ms.service",
        "components_ms.soap",
        "components_ms.wire",
    ];
    assert_keys(
        &dir,
        "BENCH_counter.json",
        &["sections.none", "sections.x509"],
        &breakdown,
        &[
            "benchmark",
            "iterations",
            "sections",
            "sections.none[].components_ms.delivery",
            "sections.x509[].components_ms.security",
            "demand_lifecycle",
            "demand_lifecycle.brokered_messages",
            "demand_lifecycle.direct_messages",
            "demand_lifecycle.events",
            "demand_lifecycle.factor",
            "invariant_violations",
        ],
    );
    assert_keys(
        &dir,
        "BENCH_gridbox.json",
        &["rows"],
        &breakdown,
        &[
            "benchmark",
            "policy",
            "iterations",
            "rows[].components_ms.security",
        ],
    );
    assert_keys(
        &dir,
        "BENCH_throughput.json",
        &["rows"],
        &[
            "workload",
            "stack",
            "clients",
            "shards",
            "requests",
            "makespan_ms",
            "max_client_demand_ms",
            "max_shard_busy_ms",
            "rps",
        ],
        &["benchmark", "iterations", "model", "invariant_violations"],
    );
    assert!(dir.join("BENCH_trace.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
