//! Telemetry-emitting pipeline run: summarizes a small corpus with an
//! enabled `stmaker-obs` recorder and writes the aggregated report —
//! the same JSON schema as the CLI's `--metrics-json` — to
//! `BENCH_obs.json` (override with `STMAKER_OBS_OUT`). It is the only
//! producer of that committed baseline, which CI's `obs diff` gate
//! compares fresh runs against; `cargo xtask obs-schema BENCH_obs.json`
//! validates the result.

use stmaker::{standard_features, FeatureWeights, SummarizerConfig};
use stmaker_eval::{ExperimentScale, Harness};
use stmaker_obs::{Recorder, TraceClock};
use stmaker_trajectory::RawTrajectory;

fn main() {
    let mut scale = ExperimentScale::quick();
    scale.n_train = 120;
    scale.n_test = 80;
    let h = Harness::new(scale);

    // Journal-backed so the run can also emit a Chrome trace
    // (STMAKER_TRACE_OUT) alongside the aggregate report.
    let obs = Recorder::enabled_with_journal(stmaker_obs::DEFAULT_JOURNAL_CAPACITY);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let summarizer = h.train_summarizer(
        features,
        weights,
        SummarizerConfig::default().with_recorder(obs.clone()),
    );

    let mut ok = 0usize;
    for trip in &h.test {
        if summarizer.summarize(&trip.raw).is_ok() {
            ok += 1;
        }
    }
    // Exercise the k-constrained DP path too, so partition.dp_cells
    // reflects both Algorithm 1 variants.
    for (i, trip) in h.test.iter().take(20).enumerate() {
        let k = 1 + i % 4;
        let _ = summarizer.summarize_k(&trip.raw, k);
    }
    // A batch run populates the batch-only series: per-trip replayed
    // spans, merged worker counters, and the top-K slowest-trip
    // exemplars.
    let batch: Vec<RawTrajectory> = h.test.iter().take(40).map(|t| t.raw.clone()).collect();
    let batch_ok = summarizer.summarize_batch(&batch).iter().filter(|r| r.is_ok()).count();
    println!(
        "summarized {ok}/{} trips (+20 k-constrained runs, +{batch_ok}/{} batch)",
        h.test.len(),
        batch.len()
    );

    let report = obs.report();
    println!("\n{}", stmaker_obs::stats::render(&report));
    let path = std::env::var("STMAKER_OBS_OUT").unwrap_or_else(|_| "BENCH_obs.json".to_owned());
    match report.write_json(&path) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
    if let Ok(trace_path) = std::env::var("STMAKER_TRACE_OUT") {
        match std::fs::write(&trace_path, obs.chrome_trace(TraceClock::Logical)) {
            Ok(()) => println!("wrote {trace_path}"),
            Err(e) => eprintln!("warning: cannot write {trace_path}: {e}"),
        }
    }
}
