//! `exp_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name and unit, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero when any answer was wrong.

use exp_bench::harness::Config;
use exp_bench::metrics;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: exp_bench --workload <hub_browse|fed_browse|ingest|active_ops> \
[--seed N] [--seconds S] [--trace 0|1]\n       exp_bench --smoke [--seed N]\n       exp_bench --print-benchmark-json";

/// Where trace files and the ingest directories go: `out/` beside this
/// package's manifest (cargo sets the variable for `cargo run`; the
/// compile-time value covers a binary started by hand).
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 30.0,
        trace: false,
        shrink: 1,
        out_dir: out_dir(),
    };
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or("");
        let ok = match a.as_str() {
            "--workload" => {
                workload = Some(value().to_string());
                true
            }
            "--seed" => value().parse().map(|v| cfg.seed = v).is_ok(),
            "--seconds" => value()
                .parse()
                .map(|v: f64| cfg.seconds = v)
                .is_ok_and(|()| cfg.seconds > 0.0),
            "--trace" => match value() {
                "0" => true,
                "1" => {
                    cfg.trace = true;
                    true
                }
                _ => false,
            },
            "--smoke" => {
                smoke = true;
                true
            }
            "--print-benchmark-json" => {
                print!("{}", benchmark_json());
                return ExitCode::SUCCESS;
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument {a:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    }

    if smoke {
        let mut all_ok = true;
        for (_, _, o) in exp_bench::smoke(cfg.seed, cfg.out_dir) {
            print!("{}", o.text);
            println!("{}", o.json_line());
            all_ok &= o.correct;
        }
        return if all_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let Some(name) = workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let Some(o) = exp_bench::run_workload(&name, &cfg) else {
        eprintln!("unknown workload {name:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    print!("{}", o.text);
    println!("{}", o.json_line());
    if o.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json`, generated from the catalogue so the two cannot
/// drift (a test compares the committed file with this).
fn benchmark_json() -> String {
    let workloads: Vec<String> = metrics::WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = metrics::END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = metrics::per_layer()
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.word()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--locked\", \"--quiet\", \
         \"--manifest-path\", \"exp_bench/Cargo.toml\", \"--\"],\n  \"paths\": [\"exp_bench\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        metrics::RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
