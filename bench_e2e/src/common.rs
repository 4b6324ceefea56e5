//! Pieces every workload shares: set-up timing, input generation, the
//! serving stack, and the run's result.

use std::time::{Duration, Instant};

use stmaker::{standard_features, FeatureWeights, Recorder, Summarizer, SummarizerConfig};
use stmaker_generator::{TripConfig, TripGenerator, World};
use stmaker_io::write_trajectory_csv;
use stmaker_obs::Report;
use stmaker_server::{ServeConfig, Server};
use stmaker_trajectory::{RawPoint, RawTrajectory};

use crate::loadgen::{self, Check, OpenPlan, Outcome, Request};
use crate::trace::Tracer;

/// Set-up repetitions per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Worker threads the host offers (the batch executor's and the load
/// generator's width).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) of this process, or of the calling thread
/// with `thread = true`, in seconds, from `/proc` (10 ms ticks).
pub fn cpu_secs(thread: bool) -> f64 {
    let path = if thread { "/proc/thread-self/stat" } else { "/proc/self/stat" };
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest.split_whitespace().map(|x| x.parse().unwrap_or(0.0)).collect();
    match (f.get(11), f.get(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor ran something else while this VM's CPUs wanted to run.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Sums the time spent in the program's set-up calls, tracing each one
/// when a tracer is given. The benchmark's own work between the calls
/// (input generation, references) is not counted.
pub struct SetupClock<'t> {
    tracer: Option<&'t Tracer>,
    pub secs: f64,
}

impl<'t> SetupClock<'t> {
    pub fn new(tracer: Option<&'t Tracer>) -> Self {
        Self { tracer, secs: 0.0 }
    }

    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.tracer.map(|t| t.span(name, None, None));
        let t0 = Instant::now();
        let r = f();
        self.secs += t0.elapsed().as_secs_f64();
        drop(span);
        r
    }
}

/// `n` generated trips under `cfg`, fixed by `seed`.
pub fn trips(world: &World, cfg: TripConfig, n: usize, seed: u64) -> Vec<RawTrajectory> {
    TripGenerator::new(world, cfg).generate_corpus(n, seed).into_iter().map(|t| t.raw).collect()
}

/// Trips as the CSV bodies a client would send.
pub fn csv_bodies(trips: &[RawTrajectory]) -> Vec<String> {
    trips.iter().map(write_trajectory_csv).collect()
}

/// Trains on `corpus` with the standard features at `threads` workers.
pub fn train<'w>(world: &'w World, corpus: &[RawTrajectory], threads: usize) -> Summarizer<'w> {
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let cfg = SummarizerConfig::default().with_threads(threads);
    Summarizer::train(&world.net, &world.registry, corpus, features, weights, cfg)
}

/// A summarizer over an existing model, default settings plus `recorder`.
pub fn assemble<'w>(
    world: &'w World,
    model: stmaker::TrainedModel,
    recorder: Recorder,
) -> Summarizer<'w> {
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let cfg = SummarizerConfig::default().with_recorder(recorder);
    Summarizer::try_from_model(&world.net, &world.registry, model, features, weights, cfg)
        .expect("model was trained on this world")
}

/// Binds a loopback server the way `stmaker-cli serve` sets one up:
/// default pipeline settings with the recorder on, default workers and
/// queue, the model handed over as STC1 bytes.
pub fn bind_server<'w>(clock: &mut SetupClock<'_>, world: &'w World, stc: &[u8]) -> Server<'w> {
    let model = clock.call("io.model_stc_read", || {
        stmaker_io::read_model_stc(stc).expect("model bytes round-trip")
    });
    clock.call("server.bind", || {
        let cfg = SummarizerConfig::default().with_recorder(Recorder::enabled());
        Server::bind(&world.net, &world.registry, model, cfg, ServeConfig::default())
            .expect("bind loopback")
    })
}

/// Splits a trip into the chunks a vehicle would upload: one per
/// `every_s` of stream time, measured from the first sample. Each chunk is
/// a CSV body with its header.
pub fn stream_chunks(trip: &RawTrajectory, every_s: i64) -> Vec<String> {
    let pts = trip.points();
    let t0 = pts.first().map_or(0, |p| p.t.0);
    let mut chunks: Vec<String> = Vec::new();
    let mut current = None;
    for p in pts {
        let k = (p.t.0 - t0) / every_s;
        if current != Some(k) {
            chunks.push("latitude,longitude,timestamp\n".to_owned());
            current = Some(k);
        }
        let body = chunks.last_mut().expect("a chunk was opened above");
        body.push_str(&format!("{:.6},{:.6},{}\n", p.point.lat, p.point.lon, p.t.0));
    }
    chunks
}

/// Decodes a CSV body the way the server's lenient readers do.
pub fn decode(body: &str) -> Vec<RawPoint> {
    stmaker_io::read_raw_points_csv(body).unwrap_or_default()
}

/// What both serving phases produced.
pub struct ServeRun {
    pub open: Vec<Outcome>,
    /// Closed-loop answers that were wrong.
    pub closed_wrong: Vec<Outcome>,
    /// Closed-loop answers that were right (only counted).
    pub closed_ok: usize,
    pub sat_wall_s: f64,
    /// CPU the server used during saturation: the process's CPU time less
    /// the load generator's, in seconds.
    pub sat_server_cpu_s: f64,
    /// `/metrics` after the open loop stopped.
    pub after_open: Option<Report>,
    /// `/metrics` after the closed loop stopped.
    pub after_sat: Option<Report>,
}

/// Stops the server when dropped, so a panicking load generator cannot
/// leave `Server::run` blocking the scope forever.
struct ShutdownGuard<'a, 'w>(&'a Server<'w>);

impl Drop for ShutdownGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Runs `server` for one latency phase (open loop over `open_plan`) and
/// then one saturation phase (closed loop over `closed_plan` for `sat`),
/// checking answers with `check` as they arrive, reading
/// `/metrics` after each phase, then drains the server.
pub fn serve_phases(
    server: &Server<'_>,
    requests: &[Request],
    open_plan: &OpenPlan,
    closed_plan: &[Vec<usize>],
    sat: Duration,
    check: Check<'_>,
    tracer: Option<&Tracer>,
) -> ServeRun {
    std::thread::scope(|s| {
        s.spawn(|| server.run());
        let _guard = ShutdownGuard(server);
        let addr = server.local_addr();
        let open = loadgen::open_loop(addr, requests, open_plan, check, tracer);
        let after_open = scrape(addr);
        let cpu0 = cpu_secs(false);
        let c = loadgen::closed_loop(addr, requests, closed_plan, sat, check, tracer);
        let sat_server_cpu_s = cpu_secs(false) - cpu0 - c.cpu_s;
        let after_sat = scrape(addr);
        ServeRun {
            open,
            closed_wrong: c.wrong,
            closed_ok: c.ok,
            sat_wall_s: c.wall_s,
            sat_server_cpu_s,
            after_open,
            after_sat,
        }
    })
}

/// `GET /metrics`, parsed.
fn scrape(addr: std::net::SocketAddr) -> Option<Report> {
    let reply = loadgen::exchange(addr, &Request::get("/metrics"), None, None, 0);
    let text = std::str::from_utf8(&reply.body).ok()?;
    (reply.status == 200).then(|| Report::from_json(text).ok()).flatten()
}

/// A run's verdict and numbers.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Workload properties, as JSON values.
    pub properties: Vec<(&'static str, String)>,
}

impl RunResult {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a workload property; a later value replaces an earlier one.
    pub fn property(&mut self, name: &'static str, value: impl ToString) {
        self.properties.retain(|(k, _)| *k != name);
        self.properties.push((name, value.to_string()));
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// Mean of `v` (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
