//! End-to-end check of the `repro_all` orchestrator: the binary must
//! exit cleanly, its `--json` report must parse and cover every
//! experiment it was asked for, and the `--verify` sign-off section must
//! record zero counter-examples. This is the same contract CI's
//! reproduction job enforces on the release binary over every
//! experiment in `bench::experiments::ALL`. `--only` must narrow the run
//! to the named experiments. `cnt_variants` must reject bad arguments before it runs its sweep.

use std::process::Command;

#[test]
fn report_parses_and_covers_every_experiment_but_table2() {
    // Table II alone takes about a minute in a debug build; CI's release
    // run checks it byte for byte against repro_results.json.
    let expected: Vec<&str> = bench::experiments::ALL
        .iter()
        .map(|&(name, _)| name)
        .filter(|&n| n != "table2")
        .collect();
    let out_path =
        std::env::temp_dir().join(format!("printed_ml_repro_all_{}.json", std::process::id()));
    // Isolate the default-on artifact cache: the test must not seed the
    // repo-relative store with debug-run artifacts.
    let cache_dir =
        std::env::temp_dir().join(format!("printed_ml_repro_all_cache_{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .env("PRINTED_ML_CACHE_DIR", &cache_dir)
        .args(["--threads", "2", "--verify"])
        .args(expected.iter().flat_map(|&n| ["--only", n]))
        .arg("--json")
        .arg(&out_path)
        .output()
        .expect("run repro_all");
    std::fs::remove_dir_all(&cache_dir).ok();
    assert!(
        output.status.success(),
        "repro_all failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    let body = std::fs::read_to_string(&out_path).expect("read report");
    std::fs::remove_file(&out_path).ok();
    let report: serde_json::Value = serde_json::from_str(&body).expect("parse report");
    assert_eq!(report.get("threads").and_then(|v| v.as_u64()), Some(2));
    let experiments = report
        .get("experiments")
        .and_then(|v| v.as_array())
        .expect("experiments array");
    let names: Vec<&str> = experiments
        .iter()
        .map(|e| e.get("name").and_then(|v| v.as_str()).expect("name"))
        .collect();
    assert_eq!(names, expected, "experiment list drifted");
    for e in experiments {
        // The deprecated per-experiment `seconds` mirror is gone; timing
        // lives in the `report` span tree.
        assert!(e.get("seconds").is_none(), "deprecated key is back: {e}");
        let tables = e.get("tables").and_then(|v| v.as_array()).expect("tables");
        assert!(!tables.is_empty(), "experiment produced no tables");
    }
    assert!(
        report.get("optimizer").is_none(),
        "deprecated optimizer section is back"
    );
    assert!(report.get("smoke").is_none(), "removed smoke flag is back");

    // The --verify sign-off section: every equivalence check passed and
    // both throughput metrics were recorded.
    let verify = report.get("verify").expect("verify section");
    assert_eq!(
        verify.get("counter_examples").and_then(|v| v.as_u64()),
        Some(0),
        "sign-off found counter-examples: {verify}"
    );
    let equivalence = verify
        .get("equivalence")
        .and_then(|v| v.as_array())
        .expect("equivalence records");
    assert!(!equivalence.is_empty());
    let fault_grading = verify
        .get("fault_grading")
        .and_then(|v| v.as_array())
        .expect("fault grading records");
    assert!(!fault_grading.is_empty());
    for key in ["vectors_per_sec", "faults_per_sec"] {
        let rate = verify.get(key).and_then(|v| v.as_f64()).expect(key);
        assert!(rate > 0.0, "{key} not recorded");
    }
}

#[test]
fn unknown_flags_are_rejected() {
    for flag in ["--frobnicate", "--smoke"] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro_all"))
            .arg(flag)
            .output()
            .expect("run repro_all");
        assert_eq!(output.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage"), "{flag}: {stderr}");
    }
}

#[test]
fn only_runs_the_named_experiments_in_canonical_order() {
    let out_path =
        std::env::temp_dir().join(format!("printed_ml_repro_only_{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(["--no-cache", "--only", "fig3", "--only", "table1"])
        .arg("--json")
        .arg(&out_path)
        .output()
        .expect("run repro_all");
    assert!(
        output.status.success(),
        "repro_all failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let body = std::fs::read_to_string(&out_path).expect("read report");
    std::fs::remove_file(&out_path).ok();
    let report: serde_json::Value = serde_json::from_str(&body).expect("parse report");
    let names: Vec<&str> = report
        .get("experiments")
        .and_then(|v| v.as_array())
        .expect("experiments array")
        .iter()
        .map(|e| e.get("name").and_then(|v| v.as_str()).expect("name"))
        .collect();
    assert_eq!(names, ["table1", "fig3"]);
}

#[test]
fn unknown_experiments_are_rejected() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(["--only", "table9"])
        .output()
        .expect("run repro_all");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage"), "{stderr}");
    assert!(stderr.contains("table9"), "{stderr}");
}

#[test]
fn cnt_variants_rejects_bad_arguments_before_running() {
    for args in [&["--bogus"][..], &["--json"][..]] {
        let output = Command::new(env!("CARGO_BIN_EXE_cnt_variants"))
            .args(args)
            .output()
            .expect("run cnt_variants");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed a table");
    }
}
