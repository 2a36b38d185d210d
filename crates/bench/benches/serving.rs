//! Open-loop serving load: offered bursts at several concurrency levels,
//! measuring end-to-end request latency (p50/p99) and sustained throughput.
//!
//! Custom harness (not criterion): serving throughput is a property of the
//! whole server — admission, worker registry — not of one closure, so the
//! driver spawns client threads that submit raw-source requests without
//! waiting (open loop within the burst) and then drains all handles. One
//! `BENCH_JSON` line per cell keeps the
//! output compatible with `scripts/bench_smoke.sh`, which appends it to
//! `BENCH_serving.json`; `median_ns` carries the p50 latency, like any
//! other bench row. The f32/int8 c16 cells (one server per precision)
//! are the only per-precision serving numbers in the repo — no
//! `benchmark/` workload runs a reduced-precision server.
//!
//! The `wire/*` cells time the JSON crossings of one `serve-wire` round
//! trip on their own, single-threaded.

use orbit2::serving::{ServeRequest, ServeResponse};
use orbit2_climate::{DownscalingDataset, LatLonGrid, Normalizer, VariableSet};
use orbit2_model::{ModelConfig, ReslimModel, WeightPrecision};
use orbit2_serve::{tcp, Handle, Region, Server, ServerConfig, ServerReply};
use orbit2_tensor::Tensor;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const REQUESTS_PER_CLIENT: usize = 6;
/// Trials per concurrency cell; the best-throughput trial is
/// reported. Open-loop runs on a shared box are noisy — the best trial is
/// the least-perturbed view of what the server can sustain.
const TRIALS: usize = 3;
/// Trials per 126M cell: the model is ~200x the bench models, so its cells
/// trade sample count for a model big enough to stream weights.
const TRIALS_126M: usize = 2;
/// Timed runs per `wire/*` cell, after three warm-ups; the median is reported.
const WIRE_ITERS: usize = 21;

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn run_level(server: &Server, inputs: &[Tensor], clients: usize) -> (Vec<u64>, f64) {
    run_load(server, inputs, clients, REQUESTS_PER_CLIENT)
}

/// Run `client(c)` on a thread of its own for each of `clients` clients and
/// return their request latencies, sorted, with the requests per second
/// over the whole run.
fn run_clients(clients: usize, client: impl Fn(usize) -> Vec<u64> + Sync) -> (Vec<u64>, f64) {
    let wall = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients).map(|c| scope.spawn({
            let client = &client;
            move || client(c)
        })).collect();
        threads.into_iter().flat_map(|t| t.join().expect("client thread panicked")).collect()
    });
    let rps = latencies.len() as f64 / wall.elapsed().as_secs_f64();
    latencies.sort_unstable();
    (latencies, rps)
}

fn raw_request(id: u64, input: &Tensor) -> ServeRequest {
    ServeRequest::raw(id, input.shape().to_vec(), input.data().to_vec())
}

fn run_load(server: &Server, inputs: &[Tensor], clients: usize, requests_per_client: usize) -> (Vec<u64>, f64) {
    let next_id = AtomicU64::new(1);
    run_clients(clients, |c| {
        // Open loop within the burst: submit everything, then drain.
        let handles: Vec<Handle> = (0..requests_per_client)
            .map(|r| {
                let id = next_id.fetch_add(1, Ordering::Relaxed);
                server.submit(raw_request(id, &inputs[(c + r) % inputs.len()]))
            })
            .collect();
        handles.into_iter().map(|h| h.wait().expect("bench request succeeds").micros).collect()
    })
}

/// Median wall time of `run`, printed as one `BENCH_JSON` row.
fn time_cell(name: &str, mut run: impl FnMut()) {
    let mut nanos: Vec<u64> = (0..WIRE_ITERS + 3)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_nanos() as u64
        })
        .skip(3)
        .collect();
    nanos.sort_unstable();
    let median = nanos[nanos.len() / 2];
    println!("BENCH_JSON {{\"bench\":\"{name}\",\"median_ns\":{median}}}");
    println!("{name}: {:.3} ms", median as f64 / 1e6);
}

/// The float text of `serve-wire`'s round trip: a `[7,32,64]` request and
/// its `[3,128,256]` reply (98,304 values), the values a real field has.
fn wire_cells() {
    let ds =
        DownscalingDataset::new(LatLonGrid::conus(128, 256), VariableSet::daymet_like(), 4, 2, 3);
    let sample = ds.sample(0);
    let field: Vec<f32> = sample.target.data().to_vec();
    let text = serde_json::to_string(&field).unwrap();
    time_cell("wire/print_f32/98304", || drop(black_box(serde_json::to_string(black_box(&field)))));
    time_cell("wire/parse_f32/98304", || {
        drop(black_box(serde_json::from_str::<Vec<f32>>(black_box(&text))))
    });

    let resp = ServeResponse {
        id: 7,
        shape: sample.target.shape().to_vec(),
        data: field,
        micros: 9_000,
    };
    let result = Ok(resp);
    let reply = tcp::response_line(7, &result);
    time_cell("wire/response_line/3x128x256", || {
        drop(black_box(tcp::response_line(7, black_box(&result))))
    });
    time_cell("wire/reply_parse/3x128x256", || drop(black_box(ServerReply::parse(black_box(&reply)))));

    let req = raw_request(7, &sample.input);
    let line = serde_json::to_string(&req).unwrap();
    time_cell("wire/request_line/7x32x64", || drop(black_box(serde_json::to_string(black_box(&req)))));
    time_cell("wire/request_parse/7x32x64", || {
        drop(black_box(serde_json::from_str::<ServeRequest>(black_box(&line))))
    });
}

fn main() {
    wire_cells();

    let ds =
        DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 8, 3);
    let norm = Normalizer::fit(&ds, 4);
    let inputs: Vec<Tensor> = (0..4).map(|i| ds.sample(i).input).collect();

    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 2);
    let cfg = ServerConfig { queue_capacity: 4096, ..ServerConfig::default() };
    let server = Server::start(model, norm.clone(), Vec::<Region>::new(), cfg);
    // Warm up allocator pools and code paths outside the timed region.
    let _ = run_level(&server, &inputs, 2);
    for &clients in &[1usize, 4, 16] {
        measure_cell(&format!("serving/c{clients}"), TRIALS, || run_level(&server, &inputs, clients));
    }

    // Per-precision serving: the same c=16 burst against servers deployed
    // at each weight precision, on the paper's 126M model
    // (embed 1024: ~0.5 GB of f32 weights, far past every cache level) —
    // reduced-precision weights pay exactly when the weight working set
    // exceeds cache and every forward streams it. The tiny/small bench
    // models' weights are cache-resident and show no delta (see
    // BENCH_inference.json `session_*` rows for the same split), which is
    // itself the honest result: `--precision` buys throughput in
    // proportion to how weight-stream-bound the deployment is. The burst
    // is one request per client to keep the 126M cells affordable. The
    // `serving/f32|int8/c16` row pair records what the flag buys a
    // latency-sensitive deployment.
    for precision in WeightPrecision::ALL {
        let model = ReslimModel::new(ModelConfig::paper_126m().with_channels(7, 3), 2);
        let cfg = ServerConfig { queue_capacity: 4096, precision, ..ServerConfig::default() };
        let server = Server::start(model, norm.clone(), Vec::<Region>::new(), cfg);
        let _ = run_load(&server, &inputs, 2, 1);
        let label = precision.label();
        measure_cell(&format!("serving/{label}/c16"), TRIALS_126M, || run_load(&server, &inputs, 16, 1));
    }
}

/// Run `load` `trials` times and print the best trial as one `BENCH_JSON`
/// row plus a human-readable summary line.
fn measure_cell(name: &str, trials: usize, load: impl Fn() -> (Vec<u64>, f64)) {
    let mut best: Option<(Vec<u64>, f64)> = None;
    for _ in 0..trials {
        let trial = load();
        if best.as_ref().is_none_or(|(_, b)| trial.1 > *b) {
            best = Some(trial);
        }
    }
    let (latencies, rps) = best.expect("at least one trial");
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    println!(
        "BENCH_JSON {{\"bench\":\"{name}\",\"median_ns\":{},\
         \"p50_us\":{p50},\"p99_us\":{p99},\"rps\":{rps:.2}}}",
        p50 * 1_000,
    );
    println!("{name}: p50 {p50} us, p99 {p99} us, {rps:.1} req/s");
}
