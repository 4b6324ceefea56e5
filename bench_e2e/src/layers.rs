//! Per-layer probes for traced runs. Each probe calls one layer's public
//! entry point from the benchmark, inside a span, over the workload's own
//! inputs; nothing inside the program is instrumented.

use stmaker::{SpatialStats, StreamConfig, StreamingSummarizer, Summarizer, SummarizerConfig};
use stmaker_calibration::{calibrate_view, calibrate_view_traced};
use stmaker_exec::Executor;
use stmaker_generator::World;
use stmaker_mapmatch::MapMatcher;
use stmaker_obs::{Recorder, SpanNode};
use stmaker_routes::PopularRoutes;
use stmaker_trajectory::{RawPoint, RawTrajectory};

use crate::common::{self, mean, nproc, RunResult, ServeRun};
use crate::oracle::{result_matches, Expected};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Streamed trips replayed per traced run (each replay re-runs the
/// pipeline on every prefix, so this bounds the probe's time).
const STREAM_TRIPS: usize = 24;

/// Mean duration of the spans called `name`, in seconds.
fn span_secs(tracer: &Tracer, name: &str) -> f64 {
    mean(&tracer.durations_us(name)) / 1e6
}

/// Set-up layers: world build, training, popular-route mining, STC model
/// write and read, and summarizer assembly. World build, training and
/// the STC calls were traced by the set-up itself; this adds the two
/// probes the set-up does not make on its own.
pub fn setup(
    r: &mut RunResult,
    tracer: &Tracer,
    world: &World,
    corpus: &[RawTrajectory],
    stc: &[u8],
) {
    let cfg = SummarizerConfig::default();
    let symbolics: Vec<_> = corpus
        .iter()
        .filter_map(|t| calibrate_view(t.view(), &world.registry, cfg.calibration).ok())
        .collect();
    let exec = Executor::new(nproc());
    let (routes, _) = tracer
        .time("routes.popular_build", || PopularRoutes::build_with(&symbolics, cfg.popular, &exec));
    std::hint::black_box(routes);
    let model = stmaker_io::read_model_stc(stc).expect("model bytes round-trip");
    let (s, _) =
        tracer.time("core.assemble", || common::assemble(world, model, Recorder::disabled()));
    std::hint::black_box(s);

    r.metric("generator.world_build_s", span_secs(tracer, "generator.world_build"), "s");
    r.metric("core.train_s", span_secs(tracer, "core.train"), "s");
    r.metric("routes.popular_build_s", span_secs(tracer, "routes.popular_build"), "s");
    r.metric("io.model_stc_write_ms", span_secs(tracer, "io.model_stc_write") * 1e3, "ms");
    r.metric("io.model_stc_read_ms", span_secs(tracer, "io.model_stc_read") * 1e3, "ms");
    r.metric("core.assemble_ms", span_secs(tracer, "core.assemble") * 1e3, "ms");
}

/// Pipeline layers per trip — CSV decode, calibration (with the spatial
/// index's work counts), HMM map matching, extraction and the
/// partition/select/render tail — and the batch executor's busy ratio,
/// over the workload's query trips. Every summary is checked against the
/// reference.
pub fn pipeline(
    r: &mut RunResult,
    tracer: &Tracer,
    world: &World,
    summarizer: &Summarizer<'_>,
    bodies: &[String],
    oracle: &[Expected],
) {
    let cfg = summarizer.config();
    let matcher = MapMatcher::with_index(&world.net, cfg.matching, cfg.spatial_index);
    let (mut decode_us, mut calibrate_us, mut match_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut extract_us, mut tail_us, mut single_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut nodes, mut refined, mut landmarks) = (Vec::new(), Vec::new(), Vec::new());
    let mut decoded: Vec<Vec<RawPoint>> = Vec::with_capacity(bodies.len());
    for (i, body) in bodies.iter().enumerate() {
        let id = Some(i as u64);
        let trip = tracer.span("bench.trip", None, id);
        let parent = Some(trip.id());
        let timed = |name: &'static str, f: &mut dyn FnMut()| {
            let span = tracer.span(name, parent, id);
            let t0 = std::time::Instant::now();
            f();
            drop(span);
            t0.elapsed().as_secs_f64() * 1e6
        };
        let mut pts = Vec::new();
        decode_us.push(timed("io.csv_decode", &mut || pts = common::decode(body)));
        let Ok(raw) = RawTrajectory::try_new(pts.clone()) else {
            decoded.push(pts);
            continue;
        };
        let mut stats = SpatialStats::default();
        let mut calibrated = false;
        let cal = timed("calibration.calibrate", &mut || {
            if let Ok(sym) =
                calibrate_view_traced(raw.view(), &world.registry, cfg.calibration, &mut stats)
            {
                landmarks.push(sym.size() as f64);
                calibrated = true;
            }
        });
        calibrate_us.push(cal);
        nodes.push(stats.nodes_visited as f64);
        refined.push(stats.candidates_refined as f64);
        match_us.push(timed("mapmatch.match_hmm", &mut || {
            std::hint::black_box(matcher.match_hmm(raw.points()));
        }));
        if calibrated {
            let mut prepared = None;
            let prep = timed("core.prepare", &mut || prepared = summarizer.prepare(&raw).ok());
            extract_us.push(prep - cal);
            if let Some(p) = prepared {
                tail_us.push(timed("core.summarize_prepared", &mut || {
                    std::hint::black_box(summarizer.summarize_prepared(&p, None).ok());
                }));
            }
        }
        let mut one = None;
        single_us.push(timed("core.summarize_points", &mut || {
            one = Some(summarizer.summarize_points(&pts));
        }));
        r.check(one.is_some_and(|got| result_matches(&oracle[i], &got)));
        decoded.push(pts);
    }
    let (batch, batch_s) =
        tracer.time("exec.summarize_batch", || summarizer.summarize_batch_points(&decoded));
    for (got, want) in batch.iter().zip(oracle) {
        r.check(result_matches(want, got));
    }
    let threads = Executor::new(cfg.threads).threads() as f64;
    let busy = single_us.iter().sum::<f64>() / 1e6 / (threads * batch_s);

    r.metric("io.csv_decode_us", mean(&decode_us), "us");
    r.metric("calibration.calibrate_us", mean(&calibrate_us), "us");
    r.metric("geo.nodes_visited_per_trip", mean(&nodes), "count");
    r.metric("geo.candidates_refined_per_trip", mean(&refined), "count");
    r.metric("calibration.landmarks_per_trip", mean(&landmarks), "count");
    r.metric("mapmatch.match_hmm_us", mean(&match_us), "us");
    r.metric("core.extract_us", mean(&extract_us), "us");
    r.metric("core.summarize_prepared_us", mean(&tail_us), "us");
    r.metric("exec.batch_busy_ratio", busy, "ratio");
}

/// Total calls of every span called `name`, at any depth.
fn calls(nodes: &[SpanNode], name: &str) -> u64 {
    nodes.iter().map(|n| u64::from(n.name == name) * n.calls + calls(&n.children, name)).sum()
}

/// The `/ingest` replay, in-process: for every chunk of up to
/// [`STREAM_TRIPS`] trips, the session so far is replayed through a fresh
/// streaming summarizer exactly as the server does per request. Reports
/// the pipeline runs per replay and the replay time.
pub fn streaming(
    r: &mut RunResult,
    tracer: &Tracer,
    world: &World,
    stc: &[u8],
    sessions: &[Vec<Vec<RawPoint>>],
) {
    let recorder = Recorder::enabled();
    let model = stmaker_io::read_model_stc(stc).expect("model bytes round-trip");
    let summarizer = common::assemble(world, model, recorder.clone());
    let (mut runs, mut replay_ms) = (Vec::new(), Vec::new());
    for (si, chunks) in sessions.iter().take(STREAM_TRIPS).enumerate() {
        let mut session: Vec<RawPoint> = Vec::new();
        for (ci, chunk) in chunks.iter().enumerate() {
            session.extend_from_slice(chunk);
            recorder.reset();
            let span = tracer.span("streaming.replay", None, Some((si * 1000 + ci) as u64));
            let t0 = std::time::Instant::now();
            let mut stream = StreamingSummarizer::try_new(&summarizer, StreamConfig::default())
                .expect("default stream config is valid");
            for p in &session {
                let _ = stream.try_push(*p);
            }
            if ci + 1 == chunks.len() {
                std::hint::black_box(stream.finish().ok());
            } else {
                std::hint::black_box(stream.current().map(|s| s.text.len()));
            }
            replay_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            drop(span);
            runs.push(calls(&recorder.report().spans, "summarize") as f64);
        }
    }
    r.metric("streaming.summaries_per_request", mean(&runs), "count");
    r.metric("streaming.replay_ms_p50", median(&replay_ms).unwrap_or(0.0), "ms");
}

/// Server and load-generator layers from one traced serving run: the
/// server's own `serve.request_ms` histogram read over `GET /metrics`
/// after each phase (its mean, and its sum over the saturation phase:
/// requests in service on average), the server's CPU during saturation,
/// refusals, and the generator's connect time, lateness and tail.
pub fn serving(r: &mut RunResult, run: &ServeRun) {
    let hist = |rep: &Option<stmaker_obs::Report>| {
        rep.as_ref().and_then(|m| m.histograms.get("serve.request_ms").cloned())
    };
    let (open_h, sat_h) = (hist(&run.after_open), hist(&run.after_sat));
    // The histogram's quantiles are bucket bounds (powers of two), too
    // coarse to show a change; its exact mean is reported instead.
    let mean_ms = open_h.as_ref().map_or(0.0, |h| h.mean);
    let busy_ms = match (&open_h, &sat_h) {
        (Some(a), Some(b)) => b.sum - a.sum,
        _ => 0.0,
    };
    let all = run.open.iter().chain(&run.closed_wrong);
    let rejected = all.filter(|o| o.status == 429 || o.status == 503).count();
    let col = |f: fn(&crate::loadgen::Outcome) -> f64| run.open.iter().map(f).collect::<Vec<_>>();
    r.metric("server.request_ms_mean", mean_ms, "ms");
    r.metric("server.busy_cores", run.sat_server_cpu_s / run.sat_wall_s, "cores");
    r.metric("server.inflight_mean", busy_ms / (run.sat_wall_s * 1e3), "count");
    r.metric("server.rejected", rejected as f64, "count");
    r.metric("loadgen.connect_ms_p50", median(&col(|o| o.connect_ms)).unwrap_or(0.0), "ms");
    r.metric("loadgen.late_ms_p99", percentile(&col(|o| o.late_ms), 99.0).unwrap_or(0.0), "ms");
    r.metric("loadgen.p99_ms", percentile(&col(|o| o.latency_ms), 99.0).unwrap_or(0.0), "ms");
}
