//! The workloads. Each builds its inputs from the seed, sets the program
//! up, measures, and checks every answer against a reference.
//!
//! An untraced run reports the end-to-end metrics. A traced run sets up
//! once, probes every layer over the workload's inputs (see `layers`),
//! runs the measured phase twice, untraced then traced, for half the time
//! each (the difference is the tracing overhead), and then serves the
//! workload's trips from a loopback server for the serving layers.

use std::time::{Duration, Instant};

use stmaker::Summarizer;
use stmaker_generator::{TripConfig, World, WorldConfig};
use stmaker_io::write_model_stc;
use stmaker_server::Server;
use stmaker_trajectory::{RawPoint, RawTrajectory};

use crate::common::{
    self, bind_server, csv_bodies, decode, mean, nproc, peak_rss_mb, serve_phases, stream_chunks,
    train, RunResult, ServeRun, SetupClock, SETUP_REPS,
};
use crate::layers;
use crate::loadgen::{poisson_arrivals, ClosedPlan, OpenPlan, Request, SplitMix64};
use crate::oracle::{expected_of, result_matches, summarize_response_ok, Expected};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::Tracer;

/// Stream time each `/ingest` chunk covers in the streaming probe, like a
/// fleet unit's send interval.
const CHUNK_S: i64 = 120;

/// How a run is driven.
#[derive(Clone, Copy)]
pub struct Opts<'t> {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Option<&'t Tracer>,
}

impl Opts<'_> {
    /// Seeds for independent input streams.
    fn sub_seed(&self, salt: u64) -> u64 {
        SplitMix64::new(self.seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
    }
}

/// Pass rates and latency samples of one measured phase.
#[derive(Default)]
struct Phase {
    /// Trips per second of each batch pass.
    rates: Vec<f64>,
    latencies_ms: Vec<f64>,
}

impl Phase {
    fn throughput(&self) -> f64 {
        median(&self.rates).unwrap_or(0.0)
    }
}

/// References for `bodies` from sequential in-process calls, and the mean
/// landmarks per calibrated trip.
fn references(s: &Summarizer<'_>, bodies: &[String]) -> (Vec<Expected>, f64) {
    let mut landmarks = Vec::new();
    let oracle = bodies
        .iter()
        .map(|b| {
            let r = s.summarize_points(&decode(b));
            if let Ok(sum) = &r {
                landmarks.push(sum.symbolic_len as f64);
            }
            expected_of(r)
        })
        .collect();
    (oracle, mean(&landmarks))
}

fn points_per_trip(trips: &[RawTrajectory]) -> f64 {
    mean(&trips.iter().map(|t| t.points().len() as f64).collect::<Vec<_>>())
}

/// The end-to-end metrics every workload reports.
fn report_e2e(r: &mut RunResult, setup_s: &[f64], phase: &Phase) {
    r.metric("setup_s", median(setup_s).unwrap_or(0.0), "s");
    r.metric("ok_ratio", r.ok_ratio(), "ratio");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("sat_ops_per_s", phase.throughput(), "1/s");
    r.property("batch_passes", phase.rates.len());
    r.metric("p50_ms", median(&phase.latencies_ms).unwrap_or(0.0), "ms");
    r.metric("p90_ms", percentile(&phase.latencies_ms, 90.0).unwrap_or(0.0), "ms");
    let n = phase.latencies_ms.len();
    r.property("latency_samples", n);
    r.property("tail_percentile_supported", highest_supported_percentile(n).unwrap_or(0.0));
}

/// Tracing overhead: traced against untraced end-to-end numbers.
fn report_overhead(r: &mut RunResult, untraced: &Phase, traced: &Phase) {
    let p50 = |p: &Phase| median(&p.latencies_ms).unwrap_or(0.0);
    r.metric("trace.p50_overhead_pct", (p50(traced) / p50(untraced) - 1.0) * 100.0, "%");
    r.metric(
        "trace.throughput_overhead_pct",
        (1.0 - traced.throughput() / untraced.throughput()) * 100.0,
        "%",
    );
}

/// Decoded `/ingest` chunks of `trips`, as the streaming probe replays them.
fn decoded_chunks(trips: &[RawTrajectory]) -> Vec<Vec<Vec<RawPoint>>> {
    trips.iter().map(|t| stream_chunks(t, CHUNK_S).iter().map(|c| decode(c)).collect()).collect()
}

// ---------------------------------------------------------------------------
// batch_city, batch_short

/// Trips in one batch pass.
const BATCH_QUERIES: usize = 512;
/// Candidate trips drawn per query trip; the query trips are picked from
/// them by length (see [`stratified_picks`]).
const POOL_FACTOR: usize = 8;
/// Trips timed one call each after each batch pass.
const LATENCY_SLICE: usize = 64;
/// Seed of every workload's training corpus. It is fixed, so `--seed`
/// picks only the query trips and set-up time does not vary with the
/// seed's draw.
const CORPUS_SEED: u64 = 0x5EED_C0DE;
/// City of `batch_short` (`WorldConfig::small`).
const SMALL_CITY_SEED: u64 = 77;
const SHORT_TRAIN: usize = 4000;

/// One offline-batch workload: a city, how many historical trips set-up
/// trains on, and how the query trips are sampled.
struct BatchSpec {
    world: WorldConfig,
    n_train: usize,
    queries: TripConfig,
}

struct BatchInputs {
    corpus: Vec<RawTrajectory>,
    queries: Vec<RawTrajectory>,
    bodies: Vec<String>,
    /// Seed of each batch pass's trip order.
    order_seed: u64,
}

impl BatchInputs {
    /// The query trips are drawn from the seed with a fixed length profile.
    /// A trip's cost follows its point count, which is heavy-tailed (on
    /// the default city the longest 1% of trips do 11% of the work), so
    /// 512 plain draws differ by ±10% in total work from seed to seed.
    fn new(world: &World, spec: &BatchSpec, o: &Opts<'_>) -> Self {
        let corpus = common::trips(world, TripConfig::default(), spec.n_train, CORPUS_SEED);
        let pool = common::trips(world, spec.queries, POOL_FACTOR * BATCH_QUERIES, o.sub_seed(12));
        let lengths: Vec<usize> = pool.iter().map(|t| t.points().len()).collect();
        let mut picks = stratified_picks(&lengths, BATCH_QUERIES);
        SplitMix64::new(o.sub_seed(13)).shuffle(&mut picks);
        let queries: Vec<RawTrajectory> = picks.into_iter().map(|i| pool[i].clone()).collect();
        let bodies = csv_bodies(&queries);
        Self { corpus, queries, bodies, order_seed: o.sub_seed(14) }
    }

    /// The trip order of batch pass `pass`. Each pass has its own, because
    /// the executor hands out trips in a few large chunks (64 trips each at
    /// two threads) and the last chunks decide how long the threads wait
    /// for each other: one fixed order would make that wait a constant of
    /// the seed.
    fn pass_order(&self, pass: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.bodies.len()).collect();
        SplitMix64::new(self.order_seed ^ pass as u64).shuffle(&mut order);
        order
    }
}

/// Indices of `n` of the items whose sizes are `lengths`: the items are
/// ranked by size (ties by index) and cut into `n` equal strata, and the
/// middle item of each stratum is picked. The picks follow the pool's size
/// distribution, so that their total varies far less between pools than
/// that of `n` plain draws.
fn stratified_picks(lengths: &[usize], n: usize) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..lengths.len()).collect();
    ranked.sort_by_key(|&i| (lengths[i], i));
    let n = n.min(ranked.len());
    (0..n).map(|k| ranked[(2 * k + 1) * ranked.len() / (2 * n)]).collect()
}

/// Long trips on the default city (`WorldConfig::default()`, ~120 points
/// per trip): calibration, map matching and extraction dominate.
pub fn batch_city(o: Opts<'_>) -> RunResult {
    let spec =
        BatchSpec { world: WorldConfig::default(), n_train: 3000, queries: TripConfig::default() };
    batch(o, &spec)
}

/// Short, sparsely sampled trips on the small city (~16 points per trip):
/// the per-trip fixed costs (decode, validation, executor dispatch,
/// partition, selection and rendering) take a large share, calibration
/// little.
pub fn batch_short(o: Opts<'_>) -> RunResult {
    let spec = BatchSpec {
        world: WorldConfig::small(SMALL_CITY_SEED),
        n_train: SHORT_TRAIN,
        queries: TripConfig { sample_interval_s: (20, 40), ..TripConfig::default() },
    };
    batch(o, &spec)
}

/// Offline batch: `summarize_batch_points` at `nproc` threads over CSV
/// bodies, with a slice of trips summarized one call per trip by `nproc`
/// concurrent callers after each pass, for single-trip latency.
fn batch(o: Opts<'_>, spec: &BatchSpec) -> RunResult {
    let threads = nproc();
    let mut clock = SetupClock::new(o.tracer);
    let world = clock.call("generator.world_build", || World::generate(spec.world.clone()));
    let inputs = BatchInputs::new(&world, spec, &o);
    let summarizer = clock.call("core.train", || train(&world, &inputs.corpus, threads));
    let mut setup_s = vec![clock.secs];

    let (oracle, landmarks) = references(&summarizer, &inputs.bodies);
    let mut r = RunResult::default();
    r.property("points_per_trip", points_per_trip(&inputs.queries));
    r.property("landmarks_per_trip", landmarks);
    r.property("trips_per_batch_pass", BATCH_QUERIES);
    r.property("training_trips", spec.n_train);
    let Some(t) = o.tracer else {
        // The other set-ups run one after each segment of the measured
        // phase, so their median samples the host's speed over the whole
        // run, as the phase's own median does. On a shared 2-vCPU VM the
        // same training took from 0.52 to 1.06 s within one 40 s run,
        // drifting over tens of seconds: set-ups run back to back would
        // all land in one stretch of it.
        let mut phase = Phase::default();
        let segment = o.seconds / (SETUP_REPS - 1) as f64;
        for _ in 1..SETUP_REPS {
            batch_phase(&mut r, &mut phase, &summarizer, &inputs, &oracle, segment, None);
            setup_s.push(set_up_again(spec, &inputs.corpus, threads));
        }
        report_e2e(&mut r, &setup_s, &phase);
        return r;
    };
    let (stc, _) = t.time("io.model_stc_write", || write_model_stc(summarizer.model()));
    let (model, _) = t.time("io.model_stc_read", || stmaker_io::read_model_stc(&stc));
    drop(model);
    layers::setup(&mut r, t, &world, &inputs.corpus, &stc);
    layers::pipeline(&mut r, t, &world, &summarizer, &inputs.bodies, &oracle);
    layers::streaming(&mut r, t, &world, &stc, &decoded_chunks(&inputs.queries));
    let half = o.seconds / 2.0;
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    batch_phase(&mut r, &mut untraced, &summarizer, &inputs, &oracle, half, None);
    batch_phase(&mut r, &mut traced, &summarizer, &inputs, &oracle, half, Some(t));
    report_overhead(&mut r, &untraced, &traced);
    // The batch path has no server; the serving layers are probed with
    // this workload's trips posted to `/summarize` at a share of the batch
    // rate (see `probe_rate`).
    let server = bind_server(&mut SetupClock::new(None), &world, &stc);
    let requests = summarize_requests(&inputs.bodies);
    let rate = probe_rate(untraced.throughput());
    let plans = summarize_plans(&o, rate, (half / 2.0).min(PROBE_OPEN_MAX_S), inputs.bodies.len());
    let sat = Duration::from_secs_f64(half / 4.0);
    let run = summarize_run(&mut r, &server, &requests, &oracle, plans, sat, Some(t));
    r.property("probe_rate", rate);
    r.property("probe_requests_open_loop", run.open.len());
    r.property("probe_requests_closed_loop", run.closed_ok + run.closed_wrong.len());
    let sat_rps = run.closed_ok as f64 / run.sat_wall_s;
    r.property("probe_sat_rps", sat_rps);
    r.property("probe_load_share", rate / sat_rps);
    layers::serving(&mut r, &run);
    r
}

/// One set-up as the measured summarizer's was (world build, then
/// training on the same corpus), for its time alone.
fn set_up_again(spec: &BatchSpec, corpus: &[RawTrajectory], threads: usize) -> f64 {
    let mut clock = SetupClock::new(None);
    let world = clock.call("generator.world_build", || World::generate(spec.world.clone()));
    drop(clock.call("core.train", || train(&world, corpus, threads)));
    clock.secs
}

/// Runs batch passes for `seconds`, adding their rates and latencies to
/// `phase`.
fn batch_phase(
    r: &mut RunResult,
    phase: &mut Phase,
    s: &Summarizer<'_>,
    inputs: &BatchInputs,
    oracle: &[Expected],
    seconds: f64,
    tracer: Option<&Tracer>,
) {
    let bodies = &inputs.bodies;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let order = inputs.pass_order(phase.rates.len());
        let pass = tracer.map(|t| t.span("exec.batch_pass", None, None));
        let parent = pass.as_ref().map(crate::trace::Span::id);
        let t0 = Instant::now();
        let points: Vec<Vec<RawPoint>> = order
            .iter()
            .map(|&i| {
                let _span = tracer.map(|t| t.span("io.csv_decode", parent, Some(i as u64)));
                decode(&bodies[i])
            })
            .collect();
        let out = {
            let _span = tracer.map(|t| t.span("exec.summarize_batch", parent, None));
            s.summarize_batch_points(&points)
        };
        phase.rates.push(bodies.len() as f64 / t0.elapsed().as_secs_f64());
        drop(pass);
        for (got, &i) in out.iter().zip(&order) {
            r.check(result_matches(&oracle[i], got));
        }
        // The slice runs on `nproc` callers at once, so the CPUs stay as
        // busy as in the batch pass and single-trip latency is measured on
        // a loaded machine.
        let first = phase.rates.len() * LATENCY_SLICE;
        let slice: Vec<usize> = (first..first + LATENCY_SLICE).map(|k| k % bodies.len()).collect();
        let callers = nproc();
        let timed: Vec<Vec<(usize, f64, bool)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers)
                .map(|c| {
                    let slice = &slice;
                    scope.spawn(move || {
                        slice
                            .iter()
                            .skip(c)
                            .step_by(callers)
                            .map(|&i| {
                                let id = Some(i as u64);
                                let span =
                                    tracer.map(|t| t.span("core.summarize_points", None, id));
                                let t0 = Instant::now();
                                let got = s.summarize_points(&decode(&bodies[i]));
                                let ms = t0.elapsed().as_secs_f64() * 1e3;
                                drop(span);
                                (i, ms, result_matches(&oracle[i], &got))
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("latency caller panicked")).collect()
        });
        for (_, ms, ok) in timed.into_iter().flatten() {
            phase.latencies_ms.push(ms);
            r.check(ok);
        }
    }
}

// ---------------------------------------------------------------------------
// The serving probe of a traced run

/// Share of the batch rate the serving probe's open loop runs at.
const PROBE_SHARE: f64 = 0.25;
/// Ceiling on the probe's rate, requests/s.
const PROBE_MAX_RATE: f64 = 1000.0;
/// Ceiling on the probe's open loop, seconds. With [`PROBE_MAX_RATE`] it
/// caps the open loop at ~8,000 connections (one per request).
const PROBE_OPEN_MAX_S: f64 = 8.0;
/// Requests the closed loop sends at most. With the open loop's that is
/// ~16,000 connections per traced run, well inside the 28,000 ephemeral
/// ports a closed connection holds in `TIME_WAIT` for a minute.
const PROBE_CLOSED_REQUESTS: usize = 8_000;

/// The serving probe's open-loop rate, requests/s: a quarter of the
/// untraced batch rate (trips/s at `nproc` threads, at or above what the
/// server sustains for the same trips), capped at [`PROBE_MAX_RATE`], so
/// the probe sees a loaded server, not an idle one. On a 2-vCPU VM this
/// was ~500 requests/s for `batch_city` (~30% of the ~1,700 requests/s it
/// saturated at) and the cap for `batch_short` (~14% of ~7,300). Each
/// traced run records the share as `probe_load_share`.
fn probe_rate(batch_trips_per_s: f64) -> f64 {
    (PROBE_SHARE * batch_trips_per_s).clamp(1.0, PROBE_MAX_RATE)
}

fn summarize_requests(bodies: &[String]) -> Vec<Request> {
    bodies.iter().map(|b| Request::post("/summarize", b.as_bytes())).collect()
}

/// The open-loop plan (Poisson arrivals, each drawing a trip from the
/// pool, in one queue that every sender takes from) and the closed-loop
/// plan (each sender walks the pool from its own offset).
fn summarize_plans(o: &Opts<'_>, rate: f64, open_s: f64, pool: usize) -> (OpenPlan, ClosedPlan) {
    let senders = nproc();
    let mut rng = SplitMix64::new(o.sub_seed(3));
    let arrivals = poisson_arrivals(o.sub_seed(4), rate, open_s);
    let queue = arrivals.into_iter().map(|due| (due, rng.below(pool))).collect();
    let open = OpenPlan { queue, senders };
    // The phase stops on time or when the plan runs out.
    let per_sender = PROBE_CLOSED_REQUESTS / senders;
    let closed = (0..senders)
        .map(|c| (0..per_sender).map(|k| (c * pool / senders + k) % pool).collect())
        .collect();
    (open, closed)
}

/// Serves `/summarize` for one latency and one saturation phase, checking
/// each answer on arrival.
fn summarize_run(
    r: &mut RunResult,
    server: &Server<'_>,
    requests: &[Request],
    oracle: &[Expected],
    plans: (OpenPlan, ClosedPlan),
    sat: Duration,
    tracer: Option<&Tracer>,
) -> ServeRun {
    let check =
        |req: usize, status: u16, body: &[u8]| summarize_response_ok(&oracle[req], status, body);
    let run = serve_phases(server, requests, &plans.0, &plans.1, sat, &check, tracer);
    for o in run.open.iter().chain(&run.closed_wrong) {
        r.check(o.ok);
    }
    for _ in 0..run.closed_ok {
        r.check(true);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(seed: u64) -> Opts<'static> {
        Opts { seed, seconds: 4.0, tracer: None }
    }

    #[test]
    fn summarize_plans_are_fixed_by_the_seed() {
        let a = summarize_plans(&opts(7), PROBE_MAX_RATE, 2.0, BATCH_QUERIES);
        assert_eq!(a, summarize_plans(&opts(7), PROBE_MAX_RATE, 2.0, BATCH_QUERIES));
        assert_ne!(a.0, summarize_plans(&opts(8), PROBE_MAX_RATE, 2.0, BATCH_QUERIES).0);
        let queue = &a.0.queue;
        assert!(queue.windows(2).all(|w| w[0].0 <= w[1].0), "due order");
        assert!(queue.iter().all(|&(_, req)| req < BATCH_QUERIES));
    }

    #[test]
    fn stratified_picks_follow_the_size_ranking() {
        // Sizes 0..16 in scrambled order: strata of four, middle picks.
        let lengths: Vec<usize> = (0..16).map(|i| (i * 7) % 16).collect();
        let picks = stratified_picks(&lengths, 4);
        let sizes: Vec<usize> = picks.iter().map(|&i| lengths[i]).collect();
        assert_eq!(sizes, [2, 6, 10, 14]);
        // Ties rank by index, so the picks are fixed by the sizes alone.
        assert_eq!(stratified_picks(&[5, 5, 5, 5], 2), [1, 3]);
        assert_eq!(stratified_picks(&[3, 1], 4), [1, 0]);
    }

    #[test]
    fn pass_orders_are_fixed_by_the_seed_and_differ_by_pass() {
        let inputs = |order_seed| BatchInputs {
            corpus: Vec::new(),
            queries: Vec::new(),
            bodies: vec![String::new(); 64],
            order_seed,
        };
        let (a, b) = (inputs(5), inputs(5));
        assert_eq!(a.pass_order(3), b.pass_order(3));
        assert_ne!(a.pass_order(3), a.pass_order(4));
        assert_ne!(a.pass_order(3), inputs(6).pass_order(3));
        let mut sorted = a.pass_order(0);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn probe_rate_is_a_share_of_the_batch_rate_capped() {
        assert_eq!(probe_rate(1600.0), 400.0);
        assert_eq!(probe_rate(15_000.0), PROBE_MAX_RATE);
        assert_eq!(probe_rate(0.0), 1.0);
    }
}
