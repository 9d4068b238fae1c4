//! End-to-end checks of the harness at 1/50 size: what `--smoke` runs.

use exp_bench::harness::{Config, Outcome};
use exp_bench::json::parse;
use exp_bench::metrics;
use std::path::PathBuf;

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()))
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .1
}

#[test]
fn smoke_runs_every_workload_correctly_and_repeats_for_a_seed() {
    let dir = out_dir("smoke");
    let first = exp_bench::smoke(5, dir.clone());
    assert_eq!(first.len(), 2 * metrics::WORKLOADS.len());
    for (name, traced, o) in &first {
        assert!(o.correct, "{name} traced={traced}:\n{}", o.text);
        assert_eq!(o.failed, 0, "{name}");
        assert!(o.attempted >= 1, "{name}");

        // The summary line parses back and names exactly the catalogue.
        let line = parse(&o.json_line()).expect("summary is JSON");
        let m = line.get("metrics").expect("metrics object");
        let want: Vec<String> = if *traced {
            metrics::per_layer()
                .into_iter()
                .map(|(n, _, _)| n)
                .collect()
        } else {
            metrics::END_TO_END
                .iter()
                .map(|m| m.name.to_string())
                .collect()
        };
        let have: Vec<&String> = o.metrics.iter().map(|(n, _, _)| n).collect();
        assert_eq!(have, want.iter().collect::<Vec<_>>(), "{name}");
        for n in &want {
            assert!(
                m.get(n).and_then(|v| v.get("value")).is_some(),
                "{name}: {n}"
            );
        }
        if !*traced {
            for e in metrics::END_TO_END {
                assert!(value(o, e.name) > 0.0, "{name}: {} must never be 0", e.name);
            }
        }
    }

    // Each workload does what its row claims.
    let traced = |w: &str| &first.iter().find(|(n, t, _)| *n == w && *t).unwrap().2;
    let hub = traced("hub_browse");
    for n in [
        "easia-med.stage_rows_per_op",
        "easia-med.rows_shipped_per_op",
        "sim_s_per_op",
    ] {
        assert_eq!(value(hub, n), 0.0, "hub_browse {n}");
    }
    assert!(value(hub, "easia-db.exec_us") > 0.0);
    assert!(value(hub, "easia-web.render_us") > 0.0);
    assert!(value(hub, "easia-datalink.tokens_per_op") > 0.0);
    let fed = traced("fed_browse");
    assert!(value(fed, "easia-med.stage_rows_per_op") > 0.0);
    assert!(value(fed, "easia-med.gather_merge_us") > 0.0);
    assert!(value(fed, "easia-core.prefetch_hit_ratio") > 0.0);
    assert!(value(fed, "sim_s_per_op") > 0.0 && value(fed, "wan_bytes_per_op") > 0.0);
    let ing = traced("ingest");
    assert!(value(ing, "fsyncs_per_commit") > 0.0 && value(ing, "fsyncs_per_commit") < 1.0);
    assert!(value(ing, "wal_bytes_per_user_byte") > 1.0);
    assert!(value(ing, "recovery_s") > 0.0);
    assert!(value(ing, "easia-db.commit_us") > 0.0);
    let ops = traced("active_ops");
    assert_eq!(value(ops, "easia-med.rows_shipped_per_op"), 0.0);
    assert!(value(ops, "easia-ops.job_us") > 0.0);
    assert!(value(ops, "easia-ops.cache_hit_ratio") > 0.0);
    assert!(value(ops, "easia-sci.slice_us") > 0.0);
    for n in [
        "easia-crypto.sha256_mb_per_s",
        "easia-fs.read_us",
        "easia-pack.compress_mb_per_s",
        "easia-ops.vm_minstr_per_s",
        "easia-xml.parse_mb_per_s",
        "easia-datalink.link_us",
    ] {
        assert!(value(ops, n) > 0.0, "probe {n}");
    }

    // Same seed: same script, same answers, traced or not.
    let again = exp_bench::smoke(5, dir.clone());
    for ((name, _, a), (_, _, b)) in first.iter().zip(&again) {
        assert_eq!(a.script_digest, b.script_digest, "{name}");
        assert_eq!(a.answers_digest, b.answers_digest, "{name}");
    }
    for pair in first.chunks(2) {
        assert_eq!(
            pair[0].2.answers_digest, pair[1].2.answers_digest,
            "{}",
            pair[0].0
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn script_digest_follows_the_seed() {
    let dir = out_dir("digest");
    let digest = |name: &str, seed: u64| {
        let cfg = Config {
            seed,
            seconds: 0.1,
            trace: false,
            shrink: 50,
            out_dir: dir.clone(),
        };
        let build = exp_bench::workloads::build(name).expect("workload");
        build(&cfg).script_digest()
    };
    for (name, _) in metrics::WORKLOADS {
        assert_eq!(digest(name, 7), digest(name, 7), "{name}: same seed");
        assert_ne!(digest(name, 7), digest(name, 8), "{name}: different seed");
    }
    let _ = std::fs::remove_dir_all(dir);
}
