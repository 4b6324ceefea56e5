//! Integration tests for the CLI exit-code contract.
//!
//! The contract (documented in `print_usage` and USAGE.md):
//!
//! * 0  — success, including `obs diff --timing-warn-only` findings.
//! * 1  — generic runtime error, or an `obs diff` timing regression.
//! * 2  — `obs diff` hard key-loss ONLY (a metric/span present in the
//!        baseline is missing from the new report).
//! * 64 — usage error (`EX_USAGE`): unknown/missing arguments, or a
//!        report/trace input that cannot be read or parsed.
//!
//! The regression this pins down: a missing or unparseable report file
//! used to exit 2, indistinguishable from a real telemetry key-loss —
//! a typo'd path in CI would read as a structural regression.

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use stmaker_obs::Recorder;

const BIN: &str = env!("CARGO_BIN_EXE_stmaker-cli");

/// Per-test scratch directory under the target tmpdir.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("stmaker_exit_codes_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Builds a minimal report with one span/counter/gauge/histogram; the
/// span mean is `span_ms`, so two reports with different values diff as
/// a timing regression.
fn report_json(span_ms: u64) -> String {
    let obs = Recorder::enabled();
    obs.span_observed("summarize", Duration::from_millis(span_ms));
    obs.add("batch.summaries_ok", 10);
    obs.gauge("exec.threads", 1.0);
    obs.observe_ms("summarize", 1.0);
    obs.report().to_json_pretty()
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(BIN).args(args).output().expect("spawn stmaker-cli");
    let code = out.status.code().expect("exit code");
    (
        code,
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn diff_of_identical_reports_exits_zero() {
    let dir = scratch("identical");
    let path = dir.join("r.json");
    std::fs::write(&path, report_json(10)).expect("write report");
    let p = path.to_str().expect("utf8 path");
    let (code, stdout, _) = run(&["obs", "diff", p, p]);
    assert_eq!(code, 0, "stdout: {stdout}");
    assert!(stdout.contains("no regressions"), "{stdout}");
}

#[test]
fn timing_regression_exits_one_and_warn_only_exits_zero() {
    let dir = scratch("timing");
    let base = dir.join("base.json");
    let new = dir.join("new.json");
    std::fs::write(&base, report_json(10)).expect("write base");
    std::fs::write(&new, report_json(200)).expect("write new");
    let (b, n) = (base.to_str().expect("utf8"), new.to_str().expect("utf8"));

    let (code, stdout, stderr) = run(&["obs", "diff", b, n, "--min-base-ms", "0"]);
    assert_eq!(code, 1, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stderr.contains("timing regression"), "{stderr}");

    let (code, _, stderr) = run(&["obs", "diff", b, n, "--min-base-ms", "0", "--timing-warn-only"]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stderr.contains("warnings"), "{stderr}");
}

#[test]
fn hard_key_loss_exits_two() {
    let dir = scratch("keyloss");
    let base = dir.join("base.json");
    let new = dir.join("new.json");
    std::fs::write(&base, report_json(10)).expect("write base");
    // The new report never records the counter the baseline had.
    let obs = Recorder::enabled();
    obs.span_observed("summarize", Duration::from_millis(10));
    obs.gauge("exec.threads", 1.0);
    obs.observe_ms("summarize", 1.0);
    std::fs::write(&new, obs.report().to_json_pretty()).expect("write new");

    let (code, stdout, stderr) =
        run(&["obs", "diff", base.to_str().expect("utf8"), new.to_str().expect("utf8")]);
    assert_eq!(code, 2, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("HARD"), "{stdout}");
    assert!(stderr.contains("structural regression"), "{stderr}");
}

#[test]
fn missing_report_file_is_a_usage_error_not_a_key_loss() {
    let dir = scratch("missing");
    let real = dir.join("real.json");
    std::fs::write(&real, report_json(10)).expect("write report");
    let ghost = dir.join("no_such_file.json");
    let (code, _, stderr) =
        run(&["obs", "diff", real.to_str().expect("utf8"), ghost.to_str().expect("utf8")]);
    assert_eq!(code, 64, "stderr: {stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn unparseable_report_file_is_a_usage_error() {
    let dir = scratch("garbage");
    let good = dir.join("good.json");
    let bad = dir.join("bad.json");
    std::fs::write(&good, report_json(10)).expect("write good");
    std::fs::write(&bad, "this is not a report {{{").expect("write bad");
    let (code, _, stderr) =
        run(&["obs", "diff", good.to_str().expect("utf8"), bad.to_str().expect("utf8")]);
    assert_eq!(code, 64, "stderr: {stderr}");
    assert!(stderr.contains("bad.json"), "{stderr}");
}

#[test]
fn diff_argument_mistakes_exit_sixty_four() {
    let dir = scratch("args");
    let path = dir.join("r.json");
    std::fs::write(&path, report_json(10)).expect("write report");
    let p = path.to_str().expect("utf8");

    // Wrong path count.
    let (code, _, stderr) = run(&["obs", "diff", p]);
    assert_eq!(code, 64, "{stderr}");
    // Flag without a value.
    let (code, _, stderr) = run(&["obs", "diff", p, p, "--threshold"]);
    assert_eq!(code, 64, "{stderr}");
    // Unparseable flag value.
    let (code, _, stderr) = run(&["obs", "diff", p, p, "--threshold", "banana"]);
    assert_eq!(code, 64, "{stderr}");
    // Unknown obs subcommand.
    let (code, _, stderr) = run(&["obs", "frobnicate"]);
    assert_eq!(code, 64, "{stderr}");
}

#[test]
fn obs_top_input_mistakes_exit_sixty_four() {
    let dir = scratch("top");
    let (code, _, stderr) = run(&["obs", "top"]);
    assert_eq!(code, 64, "{stderr}");

    let ghost = dir.join("no_trace.json");
    let (code, _, stderr) = run(&["obs", "top", ghost.to_str().expect("utf8")]);
    assert_eq!(code, 64, "{stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");

    let bad = dir.join("bad_trace.json");
    std::fs::write(&bad, "not a trace").expect("write bad trace");
    let (code, _, stderr) = run(&["obs", "top", bad.to_str().expect("utf8")]);
    assert_eq!(code, 64, "{stderr}");

    let worse = bad.to_str().expect("utf8");
    let (code, _, stderr) = run(&["obs", "top", worse, "--depth", "none"]);
    assert_eq!(code, 64, "{stderr}");
}

#[test]
fn runtime_errors_stay_exit_one() {
    // `serve` pointed at a directory with no world.json is a runtime
    // failure, not a usage error: the arguments parsed fine.
    let dir = scratch("serve");
    let (code, _, stderr) = run(&["serve", "--dir", dir.to_str().expect("utf8")]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn model_from_another_world_is_a_runtime_error() {
    // Seeds 1 and 2 build worlds with different landmark counts; a model
    // keyed to one must be refused against the other with a hint, not
    // reinterpreted.
    let dir = scratch("foreign_model");
    let (a, b) = (dir.join("a"), dir.join("b"));
    let (a, b) = (a.to_str().expect("utf8"), b.to_str().expect("utf8"));
    let model = format!("{a}/model.json");
    for (world, seed) in [(a, "1"), (b, "2")] {
        let (code, _, stderr) = run(&["gen", "--dir", world, "--trips", "1", "--seed", seed]);
        assert_eq!(code, 0, "{stderr}");
    }
    let (code, _, stderr) = run(&["train", "--dir", a, "--out", &model, "--n-train", "5"]);
    assert_eq!(code, 0, "{stderr}");
    let (code, stdout, stderr) =
        run(&["summarize", "--dir", b, "--trip", "trip_000.csv", "--model", &model]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    let expect = format!(
        "error: model {model} was trained against a different world (119 landmarks vs this \
         world's 120); retrain with `train` or point --dir at the world the model came from"
    );
    assert!(stderr.contains(&expect), "{stderr}");
}

#[test]
fn unknown_options_are_usage_errors() {
    // `--route-cache` was removed when the route cache became always-on; a
    // script still passing it must hear about it rather than run.
    for (flag, value) in [("--bogus", "3"), ("--route-cache", "64")] {
        let (code, stdout, stderr) = run(&["demo", flag, value]);
        assert_eq!(code, 64, "{flag}: {stderr}");
        assert!(stdout.is_empty(), "{flag}: {stdout}");
        assert!(stderr.contains(&format!("unknown option {flag}")), "{stderr}");
    }
}
