//! HTTP serving-layer load benchmark: N client threads hammering a live
//! `stmaker-server` on a loopback socket, with the byte-identity
//! guarantee the server is sold on asserted on **every** response.
//!
//! The workload mirrors the serving story (DESIGN.md §15): a fixed trip
//! corpus posted repeatedly to `POST /summarize` from concurrent
//! clients, plus one `POST /summarize_batch` sweep through the exec
//! pool. Every body that comes back over the wire must equal what the
//! CLI path (`Summarizer::summarize_points` + trailing newline) prints
//! for the same CSV — the server adds transport, never content.
//!
//! Latency percentiles are **not** measured by this harness: they come
//! from the server's own `serve.request_ms` histogram (the request
//! timer inside `handle_conn`), so the committed numbers are the same
//! ones `GET /metrics` serves in production. The bench only adds
//! wall-clock throughput across all clients.
//!
//! Results land — as gauges in the shared `stmaker-obs` report schema,
//! alongside the server's own `serve.*` counters and histograms — in
//! `BENCH_serve.json` (override with `STMAKER_OBS_OUT`);
//! `cargo xtask obs-schema BENCH_serve.json` validates them.
//! `STMAKER_BENCH_SMOKE=1` shrinks the corpus and client count for CI.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use stmaker::{standard_features, FeatureWeights, Recorder, Summarizer, SummarizerConfig};
use stmaker_generator::{TripConfig, TripGenerator, World, WorldConfig};
use stmaker_io::{read_trajectory_csv, write_trajectory_csv};
use stmaker_server::{ServeConfig, Server};

fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).expect("write head");
    s.write_all(body).expect("write body");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read response");
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("response head");
    let status: u16 = std::str::from_utf8(&raw[..head_end])
        .expect("ascii head")
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, raw[head_end + 4..].to_vec())
}

fn main() {
    let smoke = std::env::var("STMAKER_BENCH_SMOKE").is_ok();
    let (n_train, n_trips, clients, passes) = if smoke { (60, 4, 2, 2) } else { (200, 8, 4, 20) };

    let world = World::generate(WorldConfig::small(77));
    let gen = TripGenerator::new(&world, TripConfig::default());
    let trip_csvs: Vec<String> = gen
        .generate_corpus(n_trips, 2002)
        .into_iter()
        .map(|t| write_trajectory_csv(&t.raw))
        .collect();
    let corpus: Vec<_> = gen.generate_corpus(n_train, 1001).into_iter().map(|t| t.raw).collect();

    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let model = Summarizer::train(
        &world.net,
        &world.registry,
        &corpus,
        features,
        weights,
        SummarizerConfig::default(),
    )
    .into_model();

    // CLI-path reference: what `stmaker-cli summarize` prints for each
    // trip CSV. The wire bytes must match these exactly.
    let reference: Vec<Option<String>> = {
        let features = standard_features();
        let weights = FeatureWeights::uniform(&features);
        let model_twin = Summarizer::train(
            &world.net,
            &world.registry,
            &corpus,
            features,
            weights,
            SummarizerConfig::default(),
        )
        .into_model();
        let features = standard_features();
        let weights = FeatureWeights::uniform(&features);
        let s = Summarizer::try_from_model(
            &world.net,
            &world.registry,
            model_twin,
            features,
            weights,
            SummarizerConfig::default(),
        )
        .expect("registry matches");
        trip_csvs
            .iter()
            .map(|csv| {
                let points = read_trajectory_csv(csv).expect("fixture parses").points().to_vec();
                s.summarize_points(&points).ok().map(|sum| format!("{}\n", sum.text))
            })
            .collect()
    };
    assert!(reference.iter().any(Option::is_some), "corpus must yield summarizable trips");

    let obs = Recorder::enabled();
    let host_cpus =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    obs.gauge("bench.host_cpus", host_cpus as f64); // cast-ok: CPU count

    let base_cfg = SummarizerConfig::default().with_recorder(obs.clone());
    let server = Server::bind(&world.net, &world.registry, model, base_cfg, ServeConfig::default())
        .expect("bind loopback");

    let batch_body: String = trip_csvs.join("\n");
    let mut wall_ms = 0.0;
    std::thread::scope(|s| {
        s.spawn(|| server.run());
        let addr = server.local_addr();
        // lint: wallclock — benchmark harness: wall time is the measured quantity by design
        let t0 = Instant::now();
        std::thread::scope(|clients_scope| {
            for _client in 0..clients {
                clients_scope.spawn(|| {
                    for _pass in 0..passes {
                        for (csv, expect) in trip_csvs.iter().zip(&reference) {
                            let (status, body) =
                                request(addr, "POST", "/summarize", csv.as_bytes());
                            match expect {
                                Some(text) => {
                                    assert_eq!(status, 200);
                                    assert_eq!(
                                        std::str::from_utf8(&body).expect("utf-8 body"),
                                        text,
                                        "wire bytes must match the CLI path"
                                    );
                                }
                                None => assert_eq!(status, 422),
                            }
                        }
                    }
                });
            }
        });
        let (status, body) = request(addr, "POST", "/summarize_batch", batch_body.as_bytes());
        assert_eq!(status, 200);
        let got = String::from_utf8(body).expect("utf-8 batch");
        for (line, expect) in got.lines().zip(&reference) {
            match expect {
                Some(text) => assert_eq!(format!("{line}\n"), *text, "batch line must match"),
                None => assert!(line.starts_with("error:"), "{line}"),
            }
        }
        wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        server.shutdown();
    });

    let total_requests = clients * passes * trip_csvs.len() + 1;
    let throughput = if wall_ms > 0.0 {
        total_requests as f64 / (wall_ms / 1e3) // cast-ok: request count
    } else {
        0.0
    };

    // Percentiles come from the server's own request histogram — the
    // exact numbers `GET /metrics` would serve.
    let report = obs.report();
    let hist = report.histograms.get("serve.request_ms").expect("serve.request_ms histogram");
    assert!(
        hist.count >= total_requests as u64, // cast-ok: request count
        "server must have timed every request: {} < {total_requests}",
        hist.count
    );
    obs.gauge("bench.serve.clients", clients as f64); // cast-ok: client count
    obs.gauge("bench.serve.passes", passes as f64); // cast-ok: pass count
    obs.gauge("bench.serve.corpus", trip_csvs.len() as f64); // cast-ok: corpus size
    obs.gauge("bench.serve.requests", total_requests as f64); // cast-ok: request count
    obs.gauge("bench.serve.wall_ms", wall_ms);
    obs.gauge("bench.serve.throughput_rps", throughput);
    obs.gauge("bench.serve.p50_ms", hist.p50);
    obs.gauge("bench.serve.p95_ms", hist.p95);
    obs.gauge("bench.serve.p99_ms", hist.p99);
    println!(
        "{total_requests} requests from {clients} client(s): {throughput:.0} req/s, \
         p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms (server-side histogram)",
        hist.p50, hist.p95, hist.p99,
    );
    println!("byte-identity: every wire response == CLI path ✓");

    let report = obs.report();
    println!("\n{}", stmaker_obs::stats::render(&report));
    // cargo runs benches with cwd = the package root; default to the
    // workspace root so the committed report is what gets refreshed.
    let path = std::env::var("STMAKER_OBS_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_owned()
    });
    match report.write_json(&path) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}
