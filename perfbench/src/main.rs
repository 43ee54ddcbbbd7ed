//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <extract_sweep|cold_miss|warm_storm|scrub|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --mapping
//! ```
//!
//! One run sets up the dataset (RM proxy 96×96×90, step 250, 2 nodes,
//! metacell k = 9), runs the workload with request sequences drawn from
//! `--seed`, verifies
//! every output against an in-process reference, and prints a ledger record
//! (commit, host, cores, dataset, parameters, server options, traced or not)
//! followed by the result line: with `--trace 0` every end-to-end metric,
//! with `--trace 1` every per-layer metric from a replay of a sample of the
//! operations. Outputs go to stdout; spans and the appended ledger go to
//! `perfbench/out/`. Exits non-zero when any output fails verification.

mod layers;
mod replay;
mod setup;
mod stats;
mod trace;
mod workloads;

use layers::{LayerInputs, END_TO_END, PER_LAYER};
use setup::{Scale, METACELL_K, NODES, STEP};
use stats::{median, percentile, Json};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Outcome, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --smoke | --mapping",
        NAMES.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(usage());
    }
    Ok(args)
}

/// Where spans, the ledger and scratch databases go.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit of the checkout, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    match sha.trim() {
        "" => "unknown".to_string(),
        s => s.to_string(),
    }
}

fn host() -> Json {
    let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("", |v| v.trim_start_matches([' ', '\t', ':']));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("hostname", Json::str(hostname.trim())),
        ("cpu", Json::str(cpu)),
        ("nproc", Json::Int(nproc as u64)),
    ])
}

/// Every end-to-end metric as `(name, value, samples)`.
fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64, usize)> {
    let lat: Vec<f64> = o.ops.iter().map(|op| op.latency_ms).collect();
    let first: Vec<f64> = o.ops.iter().map(|op| op.first_ms).collect();
    let n = o.ops.len();
    let w = &o.windows;
    // throughput per window, median over windows
    let rate = |count: fn(&workloads::OpSample) -> u64| {
        let per: Vec<f64> = (0..w.walls_s.len())
            .map(|i| {
                let total: u64 = o.ops.iter().filter(|op| op.window == i).map(count).sum();
                total as f64 / w.walls_s[i]
            })
            .collect();
        median(&per)
    };
    let value = |name: &str| match name {
        "setup_s" => (median(&o.setup_s), o.setup_s.len()),
        "p50_ms" => (percentile(&lat, 0.5), n),
        "p90_ms" => (percentile(&lat, 0.9), n),
        "first_p50_ms" => (percentile(&first, 0.5), n),
        "first_p90_ms" => (percentile(&first, 0.9), n),
        "mtris" => (rate(|op| op.triangles) / 1e6, w.walls_s.len()),
        "rps" => (rate(|op| op.requests), w.walls_s.len()),
        "peak_rss_mb" => (median(&w.peak_rss_mb), w.peak_rss_mb.len()),
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    END_TO_END
        .iter()
        .map(|&(name, ..)| {
            let (v, samples) = value(name);
            (name, v, samples)
        })
        .collect()
}

/// Per-window operation count, median latency, wall and peak RSS: how
/// evenly the run went.
fn windows_json(o: &Outcome) -> Json {
    let w = &o.windows;
    Json::Arr(
        (0..w.walls_s.len())
            .map(|i| {
                let lat: Vec<f64> = o
                    .ops
                    .iter()
                    .filter(|op| op.window == i)
                    .map(|op| op.latency_ms)
                    .collect();
                Json::obj([
                    ("ops", Json::Int(lat.len() as u64)),
                    ("p50_ms", Json::Num(median(&lat))),
                    ("wall_s", Json::Num(w.walls_s[i])),
                    ("peak_rss_mb", Json::Num(w.peak_rss_mb[i])),
                ])
            })
            .collect(),
    )
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .expect("every metric has a unit")
}

fn metric_obj(metrics: &[(&'static str, f64, usize)], with_samples: bool) -> Json {
    Json::obj(metrics.iter().map(|&(name, value, samples)| {
        let mut fields = vec![
            ("value", Json::Num(value)),
            ("unit", Json::str(unit_of(name))),
        ];
        if with_samples {
            fields.push(("samples", Json::Int(samples as u64)));
        }
        (name, Json::obj(fields))
    }))
}

/// The result of one workload run: the ledger record, the contract line,
/// and whether every output verified.
struct Record {
    ledger: Json,
    result: Json,
    correct: bool,
}

fn run_workload(
    name: &str,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> io::Result<Record> {
    let out = out_dir();
    let work = out.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work)?;
    let outcome = workloads::run(name, &work, scale, seed, seconds, traced);
    let _ = std::fs::remove_dir_all(&work);
    let o = outcome?;
    let attempted = o.ops.len() as u64;
    let failed = o.failed();
    let e2e = end_to_end(&o);
    let windows = windows_json(&o);
    for (metric, value, samples) in &e2e {
        eprintln!(
            "{name:<14} {metric:<14} {value:>12.4} {:<7} (n={samples})",
            unit_of(metric)
        );
    }
    let mut correct = failed == 0 && attempted > 0;
    let mut ledger = vec![
        ("schema", Json::str("oociso-perfbench/1")),
        ("commit", Json::str(commit())),
        ("host", host()),
        (
            "dataset",
            Json::obj([
                ("field", Json::str("rm_proxy")),
                (
                    "dims",
                    Json::Arr(
                        [scale.dims.nx, scale.dims.ny, scale.dims.nz]
                            .map(|d| Json::Int(d as u64))
                            .into(),
                    ),
                ),
                ("step", Json::Int(STEP.into())),
                ("nodes", Json::Int(NODES as u64)),
                ("metacell_k", Json::Int(METACELL_K as u64)),
                ("volume_seed", Json::Int(setup::VOLUME_SEED)),
            ]),
        ),
        ("workload", Json::str(name)),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(traced)),
        ("params", o.params),
        (
            "server",
            o.server.map_or(Json::str("in-process"), |c| c.describe()),
        ),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        (
            "failed_frac",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ),
        ("windows", windows),
    ];
    let result_metrics: Vec<_> = match &o.replay {
        None => {
            ledger.push(("end_to_end", metric_obj(&e2e, true)));
            e2e.into_iter().filter(|m| layers::bounded(m.0)).collect()
        }
        Some((summary, spans)) => {
            // a traced run's end-to-end numbers are kept apart, never used
            // as the end-to-end metrics
            ledger.push(("traced_end_to_end", metric_obj(&e2e, true)));
            let layer = layers::per_layer(&LayerInputs {
                replay: summary,
                reports: &o.reports,
                counters: &o.counters,
                late_ms: &o.late_ms,
            });
            for (metric, value) in &layer {
                eprintln!("{name:<14} {metric:<28} {value:>14.4} {}", unit_of(metric));
            }
            let by_layer = summary.by_layer_ms();
            let mut ranked: Vec<_> = by_layer.iter().collect();
            ranked.sort_by(|a, b| b.1.total_cmp(a.1));
            eprintln!(
                "{name:<14} self time per operation (ms): {}",
                ranked
                    .iter()
                    .map(|(l, v)| format!("{l} {v:.3}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            ledger.push((
                "layer_self_ms",
                Json::obj(by_layer.into_iter().map(|(k, v)| (k, Json::Num(v)))),
            ));
            ledger.push((
                "replay",
                Json::obj([
                    ("ops", Json::Int(summary.ops as u64)),
                    ("faithful", Json::Bool(summary.faithful)),
                ]),
            ));
            if !summary.faithful {
                eprintln!("{name}: the replay did not reproduce the measured outputs");
                correct = false;
            }
            spans.write_jsonl(&out.join(format!("spans-{name}-seed{seed}.jsonl")))?;
            layer
                .into_iter()
                .map(|(k, v)| (k, v, summary.ops))
                .collect()
        }
    };
    ledger.push(("correct", Json::Bool(correct)));
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", metric_obj(&result_metrics, false)),
    ]);
    Ok(Record {
        ledger: Json::obj(ledger),
        result,
        correct,
    })
}

/// Run every workload briefly at a tiny size, untraced and traced, and
/// check each result's metric names, units and verification.
fn smoke() -> io::Result<bool> {
    let scale = Scale::smoke();
    let mut ok = true;
    for name in NAMES {
        for traced in [false, true] {
            let rec = run_workload(name, &scale, 7, 0.3, traced)?;
            let text = rec.result.render();
            let expected: Vec<(&str, &str)> = if traced {
                PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
            } else {
                END_TO_END
                    .iter()
                    .filter(|m| m.3)
                    .map(|m| (m.0, m.1))
                    .collect()
            };
            let names_ok = expected.iter().all(|(n, u)| {
                text.contains(&format!(r#""{n}":{{"value":"#))
                    && text.contains(&format!(r#""unit":"{u}""#))
            });
            println!(
                "smoke {name} traced={traced}: correct={} metrics={names_ok}",
                rec.correct
            );
            ok &= rec.correct && names_ok;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let status = match argv.first().map(String::as_str) {
        Some("--smoke") => smoke(),
        Some("--mapping") => {
            print!("{}", layers::mapping_text());
            Ok(true)
        }
        _ => match parse_args(&argv) {
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
            Ok(args) => run(&args),
        },
    };
    match status {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> io::Result<bool> {
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => NAMES.to_vec(),
        one => vec![one],
    };
    std::fs::create_dir_all(out_dir())?;
    let mut all_correct = true;
    let mut stdout = io::stdout().lock();
    for name in names {
        let rec = run_workload(name, &Scale::full(), args.seed, args.seconds, args.trace)?;
        let line = rec.ledger.render();
        let mut ledger = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out_dir().join("ledger.jsonl"))?;
        writeln!(ledger, "{line}")?;
        writeln!(stdout, "{line}")?;
        writeln!(stdout, "{}", rec.result.render())?;
        all_correct &= rec.correct;
    }
    stdout.flush()?;
    Ok(all_correct)
}
