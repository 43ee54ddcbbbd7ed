//! The benchmark's own tests: the smoke mode (every workload at a tiny
//! size, untraced and traced: metric names, units and output verification)
//! and the agreement between the metric tables and `BENCHMARK.json`
//! (names, units and directions).

use std::path::Path;
use std::process::Command;

fn perfbench(arg: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_oociso-perfbench"))
        .arg(arg)
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "perfbench {arg} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn smoke_mode_verifies_every_workload() {
    let out = perfbench("--smoke");
    assert_eq!(
        out.lines().filter(|l| l.starts_with("smoke ")).count(),
        8,
        "{out}"
    );
    assert!(
        !out.contains("correct=false") && !out.contains("metrics=false"),
        "{out}"
    );
}

#[test]
fn benchmark_json_lists_the_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let end = json[start..].find(']').expect("section closes") + start;
        json[start..end].to_string()
    };
    let mapping = perfbench("--mapping");
    let mut seen = 0;
    for line in mapping.lines() {
        let cols: Vec<&str> = line.split(" | ").collect();
        let (kind, name, unit, better) = match cols.as_slice() {
            [kind, name, unit, better, ..] if *kind == "end_to_end" || *kind == "per_layer" => {
                (*kind, *name, *unit, *better)
            }
            _ => continue,
        };
        let entry = format!(r#"{{"name": "{name}", "unit": "{unit}", "better": "{better}""#);
        assert!(section(kind).contains(&entry), "{kind} lacks {entry}");
        seen += 1;
    }
    let declared = json.matches(r#""unit": "#).count();
    assert_eq!(
        seen, declared,
        "BENCHMARK.json declares metrics the tables lack"
    );
}
