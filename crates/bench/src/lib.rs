//! # orbit2-bench
//!
//! The benchmark harness: one driver per table/figure of the paper's
//! evaluation section, run by the `repro` binary, which prints
//! paper-format rows next to the paper's reported values. The criterion
//! benches (`kernels`, `inference`, `serving`) time the CPU kernels, the
//! forward and the server; `scripts/bench_smoke.sh` runs them.
//!
//! Experiments that need training accept a step budget; the defaults keep
//! a full `repro all` run in the minutes range on a laptop-class CPU and
//! can be raised via the `ORBIT2_STEPS` environment variable for tighter
//! reproduction.

pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fmt;
pub mod halo;
pub mod setup;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

/// Step budget for training experiments: `ORBIT2_STEPS` or the default.
pub fn step_budget(default: usize) -> usize {
    std::env::var("ORBIT2_STEPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}
