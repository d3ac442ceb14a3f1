//! End-to-end tests of the `printed-ml` command-line interface.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `printed-ml args` over an artifact store of its own, a fresh
/// temporary directory removed afterwards, so no test reads or writes
/// the user's store (`bench/out/cache/` or `PRINTED_ML_CACHE_DIR`).
fn cli(args: &[&str]) -> Output {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let store = std::env::temp_dir().join(format!(
        "printed-ml-cli-store-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_printed-ml"))
        .args(args)
        .env("PRINTED_ML_CACHE_DIR", &store)
        .output()
        .expect("spawn printed-ml");
    let _ = std::fs::remove_dir_all(&store);
    out
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = cli(args);
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn no_args_prints_usage() {
    let (stdout, _, ok) = run(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn list_names_all_seven_datasets() {
    let (stdout, _, ok) = run(&["list"]);
    assert!(ok);
    for name in [
        "arrhythmia",
        "cardio",
        "gasid",
        "har",
        "pendigits",
        "redwine",
        "whitewine",
    ] {
        assert!(stdout.contains(name), "missing {name}:\n{stdout}");
    }
}

#[test]
fn report_prints_ppa_and_power_verdict() {
    let (stdout, _, ok) = run(&[
        "report",
        "--app",
        "har",
        "--depth",
        "2",
        "--arch",
        "bespoke-parallel",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("model: DT-2"));
    assert!(stdout.contains("power:"));
    assert!(stdout.contains("EGT"));
}

#[test]
fn generate_writes_verilog_and_testbench() {
    let dir = std::env::temp_dir().join(format!("printed-ml-cli-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let v = dir.join("t.v");
    let tb = dir.join("tb.v");
    let (stdout, _, ok) = run(&[
        "generate",
        "--app",
        "har",
        "--depth",
        "2",
        "--verilog",
        v.to_str().unwrap(),
        "--testbench",
        tb.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    let vtext = std::fs::read_to_string(&v).unwrap();
    assert!(vtext.contains("module bespoke_parallel_tree"));
    let tbtext = std::fs::read_to_string(&tb).unwrap();
    assert!(tbtext.contains("module tb;"));
    assert!(tbtext.contains("PASS"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_dataset_fails_with_a_helpful_error() {
    let (_, stderr, ok) = run(&["report", "--app", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown dataset"));
    assert!(stderr.contains("available"));
}

#[test]
fn unknown_arch_fails() {
    let (_, stderr, ok) = run(&["report", "--app", "har", "--arch", "magic"]);
    assert!(!ok);
    assert!(stderr.contains("unknown tree architecture"));
}

#[test]
fn svm_report_works() {
    let (stdout, _, ok) = run(&["report", "--app", "redwine", "--svm", "--arch", "analog"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("SVM-R"));
    assert!(stdout.contains("analog"));
}

#[test]
fn variation_reports_each_sigma() {
    let (stdout, _, ok) = run(&[
        "variation",
        "--app",
        "har",
        "--depth",
        "2",
        "--sigmas",
        "0.05,0.2",
        "--trials",
        "8",
        "--rows",
        "30",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("model: DT-2"));
    assert!(stdout.contains("worst agreement"));
    assert!(stdout.contains("0.05"));
    assert!(stdout.contains("0.2"));
}

#[test]
fn svm_variation_works() {
    let (stdout, _, ok) = run(&[
        "variation",
        "--app",
        "redwine",
        "--svm",
        "--sigmas",
        "0.1",
        "--trials",
        "4",
        "--rows",
        "20",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("SVM-R"));
    assert!(stdout.contains("0.1"));
}

#[test]
fn variation_rejects_a_bad_sigma_list() {
    let (_, stderr, ok) = run(&["variation", "--app", "har", "--sigmas", "0.1,oops"]);
    assert!(!ok);
    assert!(stderr.contains("bad sigma"));
}

#[test]
fn sweep_covers_all_architectures() {
    let (stdout, _, ok) = run(&["sweep", "--app", "har", "--depth", "2"]);
    assert!(ok);
    for arch in [
        "conv-serial",
        "conv-parallel",
        "bespoke-serial",
        "bespoke-parallel",
        "lookup-opt",
        "analog",
    ] {
        assert!(stdout.contains(arch), "missing {arch}:\n{stdout}");
    }
}

/// Runs `args`, expects exit code 1 without a panic, returns stderr.
fn rejected(args: &[&str]) -> String {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    stderr
}

#[test]
fn analog_tree_outside_egt_fails_cleanly() {
    let stderr = rejected(&[
        "report", "--app", "har", "--arch", "analog", "--tech", "cnt",
    ]);
    assert!(stderr.contains("EGT"), "{stderr}");
}

#[test]
fn analog_svm_outside_egt_fails_cleanly() {
    let stderr = rejected(&[
        "report", "--app", "redwine", "--svm", "--arch", "analog", "--tech", "tsmc40",
    ]);
    assert!(stderr.contains("EGT"), "{stderr}");
}

#[test]
fn variation_rejects_sigmas_past_the_limit() {
    // Past sigma 10, exp(sigma * z) can overflow or vanish, and the SVM
    // engine would panic on a NaN or zero crossbar weight ratio.
    for sigma in ["200", "1000", "inf", "1e300", "NaN", "10.5"] {
        let stderr = rejected(&["variation", "--app", "redwine", "--svm", "--sigmas", sigma]);
        assert!(stderr.contains("bad sigma"), "{sigma}: {stderr}");
    }
    // Trees take any finite sigma, but not a non-finite or negative one.
    for sigma in ["inf", "-inf", "NaN", "-0.5"] {
        let stderr = rejected(&["variation", "--app", "redwine", "--sigmas", sigma]);
        assert!(stderr.contains("bad sigma"), "{sigma}: {stderr}");
    }
}

#[test]
fn variation_runs_at_the_largest_accepted_sigmas() {
    // SVMs take sigma up to 10. A tree clamps every perturbed resistance
    // to the transistor's range, so it takes any finite sigma.
    for args in [
        &["--svm", "--sigmas", "10"][..],
        &["--sigmas", "50,1e300"][..],
    ] {
        let mut argv = vec!["variation", "--app", "redwine", "--trials", "20"];
        argv.extend_from_slice(args);
        let (stdout, stderr, ok) = run(&argv);
        assert!(ok, "{args:?}: {stderr}");
        assert!(stdout.contains("worst agreement"), "{args:?}: {stdout}");
    }
}

#[test]
fn depth_outside_one_to_sixteen_is_rejected_before_training() {
    // These used to panic in the ROM builder (0), index past the parallel
    // tree's decisions (64), abort (100), or price a serial tree from a
    // wrapped shift (64).
    for (depth, arch) in [
        ("0", "conv-serial"),
        ("17", "conv-parallel"),
        ("64", "conv-parallel"),
        ("64", "conv-serial"),
        ("100", "conv-serial"),
        ("-1", "bespoke-parallel"),
    ] {
        let stderr = rejected(&["report", "--app", "har", "--depth", depth, "--arch", arch]);
        assert!(stderr.contains("bad depth"), "{depth}: {stderr}");
    }
}

#[test]
fn depth_bounds_are_accepted() {
    for depth in ["1", "16"] {
        let (stdout, stderr, ok) = run(&["report", "--app", "har", "--depth", depth, "--no-cache"]);
        assert!(ok, "{depth}: {stderr}");
        assert!(stdout.contains(&format!("DT-{depth}")), "{stdout}");
    }
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    // The flag each command does not take is the fourth argument.
    for args in [
        &["report", "--app", "har", "--bogus", "3"][..],
        &["report", "--app", "har", "--dpeth", "8"],
        &["sweep", "--app", "redwine", "--svm"],
        &["variation", "--app", "har", "--tech", "egt"],
        &["generate", "--app", "har", "--tech", "egt"],
    ] {
        let stderr = rejected(args);
        assert!(
            stderr.contains(args[3]) && stderr.contains(args[0]),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn sweep_takes_a_technology() {
    let (stdout, stderr, ok) = run(&["sweep", "--app", "har", "--depth", "2", "--tech", "cnt"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("CNT"), "{stdout}");
}

#[test]
fn serial_testbench_clocks_the_trained_depth() {
    // A depth-16 request on har trains a depth-10 tree; the bespoke
    // serial engine decides in 10 cycles, and its state must be
    // re-initialized before each vector.
    let tb = std::env::temp_dir().join(format!("printed-ml-serial-tb-{}.v", std::process::id()));
    let (stdout, stderr, ok) = run(&[
        "generate",
        "--app",
        "har",
        "--depth",
        "16",
        "--arch",
        "bespoke-serial",
        "--testbench",
        tb.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}{stderr}");
    let text = std::fs::read_to_string(&tb).unwrap();
    let _ = std::fs::remove_file(&tb);
    assert_eq!(text.matches("repeat (10) @(posedge clk);").count(), 8);
    assert!(!text.contains("repeat (16)"));
    assert!(text.contains("    dut.q"), "no register re-init");
}

/// Writes the testbench of `generate <args>` to a temp file and returns it.
fn testbench(tag: &str, args: &[&str]) -> String {
    let tb = std::env::temp_dir().join(format!("printed-ml-tb-{tag}-{}.v", std::process::id()));
    let mut argv = vec![
        "generate",
        "--no-cache",
        "--testbench",
        tb.to_str().unwrap(),
    ];
    argv.extend_from_slice(args);
    let (stdout, stderr, ok) = run(&argv);
    assert!(ok, "{stdout}{stderr}");
    let text = std::fs::read_to_string(&tb).unwrap();
    let _ = std::fs::remove_file(&tb);
    text
}

#[test]
fn testbench_values_fit_their_ports() {
    for (tag, args) in [
        (
            "conv-svm",
            &["--app", "redwine", "--svm", "--arch", "conv"][..],
        ),
        ("tree", &["--app", "redwine", "--depth", "4"][..]),
    ] {
        let text = testbench(tag, args);
        let mut literals = 0;
        for line in text.lines() {
            // `name = W'dV;`, the stimulus assignments.
            let Some((name, literal)) = line.trim().split_once(" = ") else {
                continue;
            };
            let Some((width, value)) = literal.trim_end_matches(';').split_once("'d") else {
                continue;
            };
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
            let width: u32 = width.parse().unwrap();
            let value: u128 = value.parse().unwrap();
            assert!(
                value < 1u128 << width,
                "{tag}: `{}` overflows its port",
                line.trim()
            );
            literals += 1;
        }
        assert!(literals > 8, "{tag}: only {literals} stimulus literals");
    }
}

#[test]
fn svm_testbench_clocks_one_cycle_at_any_depth() {
    let args = |depth| {
        [
            "--app", "redwine", "--svm", "--arch", "conv", "--depth", depth,
        ]
    };
    let shallow = testbench("svm-d1", &args("1"));
    let deep = testbench("svm-d4", &args("4"));
    assert!(shallow == deep, "--depth changed the SVM testbench");
    assert_eq!(shallow.matches("repeat (1) @(posedge clk);").count(), 8);
    assert_eq!(shallow.matches("repeat (").count(), 8);
}
