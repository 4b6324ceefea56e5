//! Benchmark crate: each `benches/` target is a `harness = false` binary
//! that writes its measurements as a `stmaker-obs` report (`BENCH_*.json`).
