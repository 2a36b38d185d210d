//! The suite (every workload in a subprocess of its own, every metric
//! printed, `results.json` written) and `compare` (two `results.json`
//! files against the bounds in `BENCHMARK.json`).
//!
//! A subprocess per run keeps `peak_rss_mb`, the buffer pools and the
//! rayon worker registry per workload: nothing one workload allocated or
//! warmed is there when the next one starts.

use crate::report::{object, Better, Def, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workload::{self, Spec};
use crate::Args;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// File a single run leaves its detailed record in, inside the out dir.
pub fn detail_file(workload: &str, traced: bool) -> String {
    format!(
        "{workload}.{}.json",
        if traced { "traced" } else { "untraced" }
    )
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| v.as_object()?.get(*key))
}

fn num(v: &Value, path: &[&str]) -> Option<f64> {
    field(v, path)?.as_f64()
}

/// Run this executable once for `spec`, and read back its detailed record.
fn child(args: &Args, spec: &Spec, seed: u64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", spec.name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .args(args.smoke.then_some("--smoke"))
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("starting the {} run: {e}", spec.name))?;
    // Exit code 1 is a failed check: its record is still worth printing.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("the {} run ended with {status}", spec.name));
    }
    read_json(&args.out_dir.join(detail_file(spec.name, traced)))
}

fn print_metrics(record: &Value, defs: &[Def]) {
    for d in defs {
        let at = |k: &str| num(record, &["metrics", d.name, k]);
        let (Some(value), Some(n)) = (at("value"), at("n")) else {
            continue;
        };
        let quartiles = match (at("q1"), at("q3")) {
            (Some(q1), Some(q3)) if n >= 2.0 => format!("  [q1 {q1:.6}, q3 {q3:.6}]"),
            _ => String::new(),
        };
        let off_path = if n == 0.0 {
            "  (layer not on this workload's path)"
        } else {
            ""
        };
        println!(
            "    {:<36} {:>16.6} {:<8} n={n}{quartiles}{off_path}",
            d.name, value, d.unit
        );
    }
}

fn print_counts(record: &Value) {
    let c = |k| num(record, &[k]).unwrap_or(f64::NAN);
    let correct = field(record, &["correct"]) == Some(&Value::Bool(true));
    println!(
        "    attempted {} / succeeded {} / failed {}   outputs {}",
        c("attempted"),
        c("succeeded"),
        c("failed"),
        if correct { "correct" } else { "WRONG" }
    );
    if let Some(facts) = field(record, &["facts"]).and_then(Value::as_object) {
        for (k, v) in facts {
            println!("    {k} = {}", serde_json::to_string(v).unwrap_or_default());
        }
    }
}

/// Per end-to-end metric: the median over the untraced runs, the runs
/// themselves, and their quartiles. With two runs or more it also prints
/// each metric's run-to-run spread, the number the bounds are judged by.
fn summarise(untraced: &[Value]) -> Value {
    if untraced.len() >= 2 {
        println!(
            "  end to end over {} seeds: median, and interquartile spread over it",
            untraced.len()
        );
    }
    let rows = END_TO_END.iter().filter_map(|d| {
        let runs: Vec<f64> = untraced
            .iter()
            .filter_map(|r| num(r, &["metrics", d.name, "value"]))
            .collect();
        if runs.is_empty() {
            return None;
        }
        let s = stats::Summary::of(&runs);
        if runs.len() >= 2 {
            let spread = stats::spread(&runs).map_or("n/a".into(), |x| format!("{x:.4}"));
            println!(
                "    {:<36} {:>16.6} {:<8} spread {spread}",
                d.name, s.median, d.unit
            );
        }
        let row = object([
            ("value", Value::Number(s.median)),
            ("unit", Value::String(d.unit.into())),
            ("q1", Value::Number(s.q1)),
            ("q3", Value::Number(s.q3)),
            (
                "runs",
                Value::Array(runs.into_iter().map(Value::Number).collect()),
            ),
        ]);
        Some((d.name.to_string(), row))
    });
    Value::Object(rows.collect())
}

/// The suite. Returns whether every run's outputs were correct.
pub fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let selected: Vec<&Spec> = match &args.workload {
        Some(name) => vec![Spec::named(name).expect("validated by parse_args")],
        None => workload::ALL.iter().collect(),
    };
    println!(
        "ORBIT-2-rs benchmark: seed {}, {} s windows, nproc {}{}",
        args.seed,
        args.seconds,
        crate::scene::nproc(),
        if args.smoke { ", smoke" } else { "" }
    );
    let mut all_correct = true;
    let mut workloads = BTreeMap::new();
    for spec in selected {
        println!("\n== {} ==\n   {}", spec.name, spec.why);
        let mut entry = BTreeMap::new();
        if !args.traced_only {
            let mut untraced = Vec::new();
            for rep in 0..args.repeats {
                let seed = args.seed + rep as u64;
                let record = child(args, spec, seed, false)?;
                println!("  end to end (untraced run, seed {seed})");
                print_counts(&record);
                print_metrics(&record, &END_TO_END);
                all_correct &= field(&record, &["correct"]) == Some(&Value::Bool(true));
                untraced.push(record);
            }
            entry.insert("end_to_end".to_string(), summarise(&untraced));
            entry.insert("untraced".to_string(), Value::Array(untraced));
        }
        let record = child(args, spec, args.seed, true)?;
        println!("  per layer (traced run, seed {})", args.seed);
        print_counts(&record);
        print_metrics(&record, &PER_LAYER);
        all_correct &= field(&record, &["correct"]) == Some(&Value::Bool(true));
        entry.insert("traced".to_string(), record);
        workloads.insert(spec.name.to_string(), Value::Object(entry));
    }
    let results = object([
        ("seed", Value::Number(args.seed as f64)),
        ("seconds", Value::Number(args.seconds)),
        ("repeats", Value::Number(args.repeats as f64)),
        ("nproc", Value::Number(crate::scene::nproc() as f64)),
        ("smoke", Value::Bool(args.smoke)),
        ("workloads", Value::Object(workloads)),
    ]);
    let path = args.out_dir.join("results.json");
    let text = serde_json::to_string_pretty(&results).expect("a value tree serializes");
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nresults: {}", path.display());
    Ok(all_correct)
}

/// Where one row of a comparison lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Within,
    /// B is worse than A by more than the bound.
    Outside,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the difference cannot be told from noise.
    Unresolved,
}

/// Share of `a` by which `b` is worse (negative when it is better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judge one row. `spread` is the larger of the two sides' interquartile
/// spreads, when the files carry enough runs to have one.
pub fn judge(a: f64, b: f64, better: Better, bound: f64, spread: Option<f64>) -> Verdict {
    if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by(a, b, better) > bound {
        Verdict::Outside
    } else {
        Verdict::Within
    }
}

fn bounds(benchmark_json: &Value) -> BTreeMap<String, f64> {
    field(benchmark_json, &["end_to_end"])
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter_map(|m| {
            Some((
                field(m, &["name"])?.as_str()?.to_string(),
                num(m, &["bound"])?,
            ))
        })
        .collect()
}

fn run_spread(results: &Value, workload: &str, metric: &str) -> Option<f64> {
    let runs: Vec<f64> = field(
        results,
        &["workloads", workload, "end_to_end", metric, "runs"],
    )?
    .as_array()?
    .iter()
    .filter_map(Value::as_f64)
    .collect();
    // Quartiles of fewer than four runs say little about spread.
    (runs.len() >= 4).then(|| stats::spread(&runs)).flatten()
}

/// `compare A.json B.json [BENCHMARK.json]`: one row per (end-to-end
/// metric, workload). Returns whether no row is outside its bound.
pub fn compare(argv: &[String]) -> Result<bool, String> {
    let [a_path, b_path, rest @ ..] = argv else {
        return Err("usage: compare A.json B.json [BENCHMARK.json]".into());
    };
    let bench_path = rest.first().map_or("BENCHMARK.json", String::as_str);
    let (a, b) = (read_json(Path::new(a_path))?, read_json(Path::new(b_path))?);
    let bounds = bounds(&read_json(Path::new(bench_path))?);
    println!("A = {a_path}\nB = {b_path}\nratio = B / A; bound from {bench_path}\n");
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "A", "B", "ratio", "bound", "spread"
    );
    let mut agree = true;
    for spec in &workload::ALL {
        for d in &END_TO_END {
            let at = |r: &Value| num(r, &["workloads", spec.name, "end_to_end", d.name, "value"]);
            let (Some(va), Some(vb)) = (at(&a), at(&b)) else {
                continue;
            };
            let bound = *bounds
                .get(d.name)
                .ok_or(format!("no bound for {} in {bench_path}", d.name))?;
            let spread = [
                run_spread(&a, spec.name, d.name),
                run_spread(&b, spec.name, d.name),
            ]
            .into_iter()
            .flatten()
            .reduce(f64::max);
            let verdict = judge(va, vb, d.better, bound, spread);
            agree &= verdict != Verdict::Outside;
            println!(
                "{:<14} {:<12} {:>14.6} {:>14.6} {:>8.4} {:>7.3} {:>8}  {}",
                spec.name,
                d.name,
                va,
                vb,
                vb / va,
                bound,
                spread.map_or("n/a".to_string(), |s| format!("{s:.4}")),
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Outside => "outside",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let fact = |r: &Value, k: &str| {
            let runs = field(r, &["workloads", spec.name, "untraced"])?.as_array()?;
            Some(serde_json::to_string(field(runs.first()?, &["facts", k])?).unwrap_or_default())
        };
        if let (Some(la), Some(lb)) = (fact(&a, "final_loss_bits"), fact(&b, "final_loss_bits")) {
            let steps = (fact(&a, "steps"), fact(&b, "steps"));
            println!(
                "{:<14} final_loss bits A {la} B {lb} (steps {:?} / {:?}): {}",
                spec.name,
                steps.0.unwrap_or_default(),
                steps.1.unwrap_or_default(),
                if la == lb { "bit-equal" } else { "DIFFERENT" }
            );
        }
    }
    println!(
        "\nspread = interquartile distance over the median of a side's runs, the larger side;"
    );
    println!(
        "n/a below four runs a side (use --repeats). unresolved = spread wider than the bound."
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worse_by(10.0, 9.0, Better::Higher) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn judge_rows() {
        use Verdict::*;
        // 5% slower against a 7% bound.
        assert_eq!(judge(100.0, 105.0, Better::Lower, 0.07, None), Within);
        assert_eq!(judge(100.0, 108.0, Better::Lower, 0.07, None), Outside);
        // Faster is never outside.
        assert_eq!(judge(100.0, 50.0, Better::Lower, 0.07, Some(0.01)), Within);
        assert_eq!(judge(10.0, 9.0, Better::Higher, 0.07, Some(0.02)), Outside);
        // A spread wider than the bound hides any difference.
        assert_eq!(
            judge(100.0, 130.0, Better::Lower, 0.07, Some(0.09)),
            Unresolved
        );
    }

    #[test]
    fn bounds_are_read_by_metric_name() {
        let v: Value = serde_json::from_str(
            r#"{"end_to_end":[{"name":"setup_s","bound":0.25},{"name":"ops_per_s","bound":0.07}]}"#,
        )
        .unwrap();
        let b = bounds(&v);
        assert_eq!(b["setup_s"], 0.25);
        assert_eq!(b["ops_per_s"], 0.07);
    }
}
