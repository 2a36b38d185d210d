//! The `orbit2-serve` binary: a newline-delimited-JSON downscaling server
//! over localhost TCP.
//!
//! ```text
//! orbit2-serve [--addr 127.0.0.1:7878] [--grid 32x64] [--samples 32]
//!              [--tiles N] [--halo H] [--queue N] [--seed N]
//!              [--precision f32|int8] [--default-deadline-ms N]
//! ```
//!
//! `--precision` is the deployment's weight precision: the server builds
//! its one session at it, and a request whose `"precision"` names another
//! is refused with `bad_request`. `--default-deadline-ms` applies a server-side deadline to every
//! request that does not carry its own `deadline_ms` field; expired work
//! is shed before it runs and the request fails with the typed
//! `deadline_exceeded` error. Setting `ORBIT2_SERVE_FAULT_PLAN` arms
//! deterministic fault injection on the serve path (see DESIGN.md §10).
//!
//! The server hosts two synthetic regions, `conus` and `global`, over a
//! Daymet-like variable set (7 inputs, 3 outputs) with a 4x refinement
//! model. Try it:
//!
//! ```text
//! printf '{"id":1,"region":"conus","time":0}\n' | nc 127.0.0.1 7878
//! ```

use orbit2::inference::{check_tiling, validate_input};
use orbit2_climate::{DownscalingDataset, LatLonGrid, Normalizer, VariableSet};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{ModelConfig, ReslimModel, WeightPrecision};
use orbit2_serve::{Region, Server, ServerConfig};
use orbit2_tensor::Tensor;
use std::net::TcpListener;
use std::sync::Arc;

/// Refinement factor of the hosted model: a `--grid` side is this many
/// coarse input cells per fine output cell.
const FACTOR: usize = 4;

struct Args {
    addr: String,
    grid: (usize, usize),
    samples: usize,
    tiles: usize,
    halo: usize,
    queue: usize,
    seed: u64,
    precision: WeightPrecision,
    default_deadline_ms: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            grid: (32, 64),
            samples: 32,
            tiles: 1,
            halo: 2,
            queue: 256,
            seed: 17,
            precision: WeightPrecision::F32,
            default_deadline_ms: None,
        }
    }
}

const USAGE: &str = "usage: orbit2-serve [--addr HOST:PORT] [--grid HxW] [--samples N] \
[--tiles N] [--halo H] [--queue N] [--seed N] [--precision f32|int8] \
[--default-deadline-ms N]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--grid" => {
                let v = value("--grid")?;
                let (h, w) = v
                    .split_once('x')
                    .ok_or_else(|| format!("--grid wants HxW, got {v}"))?;
                args.grid = (
                    h.parse().map_err(|e| format!("--grid height: {e}"))?,
                    w.parse().map_err(|e| format!("--grid width: {e}"))?,
                );
            }
            "--samples" => args.samples = parse_num(&value("--samples")?, "--samples")?,
            "--tiles" => args.tiles = parse_num(&value("--tiles")?, "--tiles")?,
            "--halo" => args.halo = parse_num(&value("--halo")?, "--halo")?,
            "--queue" => args.queue = parse_num(&value("--queue")?, "--queue")?,
            "--precision" => {
                let v = value("--precision")?;
                args.precision = WeightPrecision::parse(&v).ok_or_else(|| {
                    format!("--precision wants {}, got {v}", WeightPrecision::choices())
                })?;
            }
            "--seed" => args.seed = parse_num(&value("--seed")?, "--seed")? as u64,
            "--default-deadline-ms" => {
                args.default_deadline_ms =
                    Some(parse_num(&value("--default-deadline-ms")?, "--default-deadline-ms")?
                        as u64)
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let (h, w) = args.grid;
    if h == 0 || w == 0 || h % FACTOR != 0 || w % FACTOR != 0 {
        return Err(format!(
            "--grid {h}x{w}: both sides must be positive multiples of the refinement factor {FACTOR}"
        ));
    }
    let side = (args.tiles as f64).sqrt().round() as usize;
    if args.tiles == 0 || side * side != args.tiles {
        return Err(format!(
            "--tiles {}: the tile count must be a perfect square (1, 4, 9, ...)",
            args.tiles
        ));
    }
    if args.samples == 0 {
        return Err("--samples 0: each region must hold at least one sample".into());
    }
    if args.queue == 0 {
        return Err("--queue 0: the queue must hold at least one request".into());
    }
    Ok(args)
}

/// Refuse a `--grid` / `--tiles` / `--halo` combination under which every
/// request would be a `bad_request`: the coarse grid must be a valid model
/// input and, when tiled, so must each tile.
fn check_servable(model: &ReslimModel, args: &Args, tile: Option<TileSpec>) -> Result<(), String> {
    let (h, w) = (args.grid.0 / FACTOR, args.grid.1 / FACTOR);
    validate_input(model, &Tensor::zeros(vec![model.cfg.in_channels, h, w]))
        .map_err(|e| format!("--grid {}x{}: {e}", args.grid.0, args.grid.1))?;
    match tile {
        Some(spec) => check_tiling(model, h, w, spec)
            .map_err(|e| format!("--tiles {} --halo {}: {e}", args.tiles, args.halo)),
        None => Ok(()),
    }
}

fn parse_num(v: &str, name: &str) -> Result<usize, String> {
    v.parse().map_err(|e| format!("{name}: {e}"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let variables = VariableSet::daymet_like();
    let cfg = ModelConfig::tiny().with_channels(variables.inputs.len(), variables.outputs.len());
    let model = ReslimModel::new(cfg, args.seed + 2);
    let tile = (args.tiles > 1).then(|| TileSpec::square(args.tiles, args.halo));
    if let Err(e) = check_servable(&model, &args, tile) {
        eprintln!("{e}");
        std::process::exit(2);
    }

    let (h, w) = args.grid;
    let conus = DownscalingDataset::new(
        LatLonGrid::conus(h, w),
        variables.clone(),
        FACTOR,
        args.samples,
        args.seed,
    );
    let global = DownscalingDataset::new(
        LatLonGrid::global(h, w),
        variables,
        FACTOR,
        args.samples,
        args.seed + 1,
    );
    let normalizer = Normalizer::fit(&conus, args.samples.clamp(1, 8));

    let server_cfg = ServerConfig {
        tile,
        queue_capacity: args.queue,
        precision: args.precision,
        default_deadline_ms: args.default_deadline_ms,
        // None arms injection from ORBIT2_SERVE_FAULT_PLAN when set.
        fault_plan: None,
    };
    let server = Arc::new(Server::start(
        model,
        normalizer,
        vec![
            Region { name: "conus".into(), dataset: conus },
            Region { name: "global".into(), dataset: global },
        ],
        server_cfg,
    ));

    let listener = match TcpListener::bind(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    let bound = listener.local_addr().map(|a| a.to_string()).unwrap_or(args.addr);
    println!(
        "orbit2-serve listening on {bound} (regions: conus, global; coarse grid {}x{}; \
         queue {}; precision {}; default deadline {})",
        h / FACTOR,
        w / FACTOR,
        args.queue,
        args.precision.label(),
        match args.default_deadline_ms {
            Some(ms) => format!("{ms}ms"),
            None => "none".into(),
        },
    );
    if let Err(e) = orbit2_serve::serve(server, listener) {
        eprintln!("listener error: {e}");
        std::process::exit(1);
    }
}
