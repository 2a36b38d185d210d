//! The ORBIT-2-rs end-to-end benchmark. See `benchmark/README.md`.
//!
//! Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload, as the driver of `BENCHMARK.json` calls it. The last line of
//!   standard output is the result as one JSON object.
//! * no `--trace` — the suite: every selected workload in a subprocess of
//!   its own, untraced then traced, every metric printed by name, and
//!   `results.json` written to the output directory.
//! * `compare A.json B.json` — two `results.json` files, row by row.

mod infer;
mod procfs;
mod report;
mod scene;
mod serve;
mod stats;
mod suite;
mod tiles;
mod timed_exec;
mod trace;
mod train;
mod workload;

use scene::Mode;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Kind, Spec};

/// Environment switches that change what the program under test does. A
/// benchmark run with one of them set would measure a different program.
const FORBIDDEN_ENV: [&str; 4] = [
    "ORBIT2_DISABLE_SIMD",
    "ORBIT2_DISABLE_POOL",
    "ORBIT2_FAULT_PLAN",
    "ORBIT2_SERVE_FAULT_PLAN",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--workload`: one workload, or all when absent (suite only).
    pub workload: Option<String>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: length of a run's timed windows.
    pub seconds: f64,
    /// `--trace`: present only in single-run mode.
    pub trace: Option<bool>,
    /// `--smoke`: a 20th of the default window, same checks.
    pub smoke: bool,
    /// `--traced-only`: the suite skips the untraced runs.
    pub traced_only: bool,
    /// `--repeats`: untraced runs per workload in the suite, seeds
    /// `seed..seed+repeats`.
    pub repeats: usize,
    /// `--out`: where results, spans and scratch files go.
    pub out_dir: PathBuf,
}

/// Default window, equal to `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        traced_only: false,
        repeats: 1,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut seconds_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--repeats" => a.repeats = value()?.parse().map_err(|e| format!("--repeats: {e}"))?,
            "--out" => a.out_dir = PathBuf::from(value()?),
            "--smoke" => a.smoke = true,
            "--traced-only" => a.traced_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.smoke && !seconds_given {
        a.seconds = DEFAULT_SECONDS / 20.0;
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {}", a.seconds));
    }
    if a.repeats == 0 {
        return Err("--repeats must be at least 1".into());
    }
    if let Some(w) = &a.workload {
        if Spec::named(w).is_none() {
            let names: Vec<&str> = workload::ALL.iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown workload {w}; the workloads are {}",
                names.join(", ")
            ));
        }
    }
    Ok(a)
}

/// One run of one workload; prints the contract line last.
fn single_run(args: &Args, traced: bool) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--trace needs --workload")?;
    let spec = Spec::named(name).expect("validated by parse_args");
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let mode = Mode {
        seed: args.seed,
        seconds: args.seconds,
        traced,
        // Three set-ups make `setup_s` a median; a smoke run only checks.
        setups: if args.smoke { 1 } else { 3 },
        out_dir: args.out_dir.clone(),
    };
    let spans = args.out_dir.join(format!("{name}.spans.jsonl"));
    let result = match (spec.kind, traced) {
        (Kind::Serve, false) => scene::run_untraced::<serve::ServeScene>(spec, &mode),
        (Kind::Serve, true) => scene::run_traced::<serve::ServeScene>(spec, &mode, &spans),
        (Kind::Tiles, false) => scene::run_untraced::<tiles::TilesScene>(spec, &mode),
        (Kind::Tiles, true) => scene::run_traced::<tiles::TilesScene>(spec, &mode, &spans),
        (Kind::Train, false) => scene::run_untraced::<train::TrainScene>(spec, &mode),
        (Kind::Train, true) => scene::run_traced::<train::TrainScene>(spec, &mode, &spans),
    };
    let defs = scene::defs_for(traced);
    let detail = args.out_dir.join(suite::detail_file(name, traced));
    let text = serde_json::to_string_pretty(&result.detail(defs)).expect("a value tree serializes");
    std::fs::write(&detail, text).map_err(|e| format!("writing {}: {e}", detail.display()))?;
    println!("{}", result.contract_line(defs));
    Ok(result.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match suite::compare(&argv[1..]) {
            Ok(agree) => ExitCode::from(u8::from(!agree)),
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("benchmark: {var} is set; it changes the program under test. Unset it.");
        return ExitCode::from(2);
    }
    let outcome = parse_args(&argv).and_then(|args| match args.trace {
        Some(traced) => single_run(&args, traced),
        None => suite::run(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a correctness check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args("--workload serve-wire --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-wire"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, Some(true)));
    }

    #[test]
    fn smoke_shortens_the_window_unless_seconds_is_given() {
        assert_eq!(args("--smoke").unwrap().seconds, DEFAULT_SECONDS / 20.0);
        assert_eq!(args("--smoke --seconds 3").unwrap().seconds, 3.0);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--frobnicate").is_err());
    }
}
