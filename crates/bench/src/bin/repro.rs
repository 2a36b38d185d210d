//! `repro` — regenerate every table and figure of the ORBIT-2 paper.
//!
//! ```text
//! repro table1 | table2a | table2b | table3 | table4 | fig6a | fig6b |
//!       fig7 | fig8 | all [--quick]
//! ```
//!
//! Training-based experiments (table4, fig7, fig8) honour `ORBIT2_STEPS`
//! for their optimizer budget; `--quick` caps everything for smoke runs.

use orbit2_bench::{fig6, fig7, fig8, halo, setup, step_budget, table1, table2, table3, table4};
use std::path::PathBuf;

const USAGE: &str =
    "usage: repro [table1|table2a|table2b|table3|table4|fig6a|fig6b|fig7|fig8|halo|all] [--quick]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with("--") && *a != "--quick") {
        eprintln!("unknown flag `{flag}`\n{USAGE}");
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let which = args.iter().find(|a| !a.starts_with("--")).map(String::as_str).unwrap_or("all");
    let steps = if quick { 10 } else { step_budget(120) };
    let samples = if quick { 16 } else { 60 };

    match which {
        "table1" => print!("{}", table1::render()),
        "table2a" => {
            print!("{}", table2::render_2a_simulated());
            println!();
            print!("{}", table2::render_2a_measured());
        }
        "table2b" => print!("{}", table2::render_2b()),
        "table3" => {
            print!("{}", table3::render());
            println!();
            print!("{}", table3::render_landscape());
        }
        "table4" => run_table4(steps, samples),
        "fig6a" => {
            print!("{}", fig6::render_6a_simulated());
            println!();
            print!("{}", fig6::render_6a_measured());
        }
        "fig6b" => print!("{}", fig6::render_6b()),
        "fig7" => run_fig7(steps, samples),
        "fig8" => print!("{}", fig8::render(&fig8::run(steps, samples))),
        "halo" => print!("{}", halo::render(&halo::run(steps))),
        "all" => {
            print!("{}", table1::render());
            banner("Table II(a)");
            print!("{}", table2::render_2a_simulated());
            print!("{}", table2::render_2a_measured());
            banner("Table II(b)");
            print!("{}", table2::render_2b());
            banner("Table III");
            print!("{}", table3::render());
            print!("{}", table3::render_landscape());
            banner("Table IV");
            run_table4(steps, samples);
            banner("Fig 6(a)");
            print!("{}", fig6::render_6a_simulated());
            print!("{}", fig6::render_6a_measured());
            banner("Fig 6(b)");
            print!("{}", fig6::render_6b());
            banner("Fig 7");
            run_fig7(steps, samples);
            banner("Fig 8");
            print!("{}", fig8::render(&fig8::run(steps, samples)));
            banner("Halo ablation");
            print!("{}", halo::render(&halo::run(steps)));
        }
        other => {
            eprintln!("unknown experiment `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn banner(title: &str) {
    println!("\n==================== {title} ====================\n");
}

fn run_table4(steps: usize, samples: usize) {
    let result = table4::run(steps, samples);
    print!("{}", table4::render(&result));
}

fn run_fig7(steps: usize, samples: usize) {
    // Train both capacities once and reuse for 7(a) and 7(b).
    let ds = setup::us_dataset(samples, 77);
    let (tiny, _) = setup::train_model(setup::tiny_model(7), &ds, steps, 2e-3);
    let (small, _) = setup::train_model(setup::small_model(7), &ds, steps, 2e-3);
    let cmp = fig7::spectra((&tiny.model, &tiny.normalizer), (&small.model, &small.normalizer), &ds);
    print!("{}", fig7::render_7a(&cmp));
    let dir = PathBuf::from("target/repro");
    match fig7::render_7b((&small.model, &small.normalizer), &ds, &dir) {
        Ok(art) => print!("{art}"),
        Err(e) => eprintln!("fig7b rendering failed: {e}"),
    }
}
