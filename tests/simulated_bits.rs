//! Committed digests of the simulator's numbers: every value behind the
//! simulated sections of `repro table2a`, `table2b`, `table3` (both
//! sections), `fig6a` and `fig6b` — each `SeqLenRow`, `ScalingPoint` and
//! `arch_comparison` tuple, the cost model's speedups, the ring
//! sequence-parallel `max_sequence` and `swin_max_tokens`.
//!
//! `tests/scaling_consistency.rs` checks how these models relate to one
//! another; this file pins what they print. Each digest is FNV-1a over the
//! bits of every value (`f64::to_bits`, integers widened to `u64`, `bool`
//! as 0/1). A refactor of the simulator must leave every digest as it is;
//! update one only in a change that says why its numbers moved.

use orbit2_model::ModelConfig;
use orbit2_sim::cost::{compression_speedup, speedup, tiling_speedup};
use orbit2_sim::planner::{arch_comparison, max_sequence_row, strong_scaling, Arch, SeqLenRow, SequenceAccounting};
use orbit2_sim::seq_parallel::SeqParallelConfig;
use orbit2_sim::swin::swin_max_tokens;
use orbit2_sim::topology::ClusterSpec;

/// FNV-1a (64-bit) over the little-endian bytes of each pushed word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, v: f64) {
        self.u(v.to_bits());
    }

    fn row(&mut self, r: &SeqLenRow) {
        self.u(r.arch as u64);
        self.u(r.params);
        for v in [r.compression, r.tiles, r.gpus, r.out_shape[0], r.out_shape[1], r.out_shape[2]] {
            self.u(v as u64);
        }
        self.u(r.max_seq);
        self.f(r.resolution_km);
        self.u(r.oom as u64);
    }
}

fn accounting(out_h: usize, out_w: usize) -> SequenceAccounting {
    SequenceAccounting { out_h, out_w, out_c: 3, patch: 2, factor: 4 }
}

#[test]
fn table2a_simulated() {
    let cluster = ClusterSpec::frontier();
    let mut h = Fnv::new();
    for acc in [accounting(128, 256), accounting(720, 1440)] {
        h.u(acc.nominal_seq_len());
        let (vit_t, vit_oom, reslim_t, speedup) = arch_comparison(&ModelConfig::paper_9_5m(), &acc, 128, &cluster);
        h.f(vit_t);
        h.u(vit_oom as u64);
        h.f(reslim_t);
        h.f(speedup);
    }
    assert_eq!(h.0, 0x4e2c_4008_3a49_1a80, "table2a digest {:#018x}", h.0);
}

#[test]
fn table2b_speedups() {
    let mut h = Fnv::new();
    for c in [8, 16, 32] {
        h.f(compression_speedup(c));
    }
    for tiles in [4, 16, 36] {
        h.f(tiling_speedup(tiles));
    }
    assert_eq!(h.0, 0x4fea_dbdb_e50a_f5e1, "table2b digest {:#018x}", h.0);
}

#[test]
fn table3_rows() {
    let cluster = ClusterSpec::frontier();
    let (small, big) = (ModelConfig::paper_9_5m(), ModelConfig::paper_10b());
    let rows = [
        (Arch::BaselineVit, &small, 1, 1, 8),
        (Arch::BaselineVit, &big, 1, 1, 8),
        (Arch::Reslim, &small, 1, 1, 8),
        (Arch::Reslim, &small, 1, 1, 32),
        (Arch::Reslim, &small, 4, 16, 8),
        (Arch::Reslim, &small, 4, 16, 128),
        (Arch::Reslim, &big, 1, 1, 8),
        (Arch::Reslim, &big, 4, 16, 8),
        (Arch::Reslim, &big, 4, 16, 512),
    ];
    let mut h = Fnv::new();
    for (arch, cfg, compression, tiles, gpus) in rows {
        h.row(&max_sequence_row(cfg, arch, compression, tiles, gpus, &cluster));
    }
    assert_eq!(h.0, 0xf0db_5b32_fe95_d158, "table3 digest {:#018x}", h.0);
}

#[test]
fn table3_landscape() {
    let cluster = ClusterSpec::frontier();
    let mut h = Fnv::new();
    let seqp = SeqParallelConfig { model: ModelConfig::paper_9_5m(), ranks: 16, params: 9_500_000 };
    h.u(seqp.max_sequence(&cluster));
    h.u(swin_max_tokens(8, 96, 2, cluster.gpu.mem_bytes));
    h.row(&max_sequence_row(&ModelConfig::paper_9_5m(), Arch::Reslim, 4, 16, 128, &cluster));
    assert_eq!(h.0, 0xd2ef_fad3_ae0f_b129, "landscape digest {:#018x}", h.0);
}

#[test]
fn fig6a_simulated() {
    let mut h = Fnv::new();
    for gpus in [8, 64, 256, 1024, 2048] {
        h.f(speedup(16, 1, gpus, 8));
    }
    assert_eq!(h.0, 0x776e_63b7_9fa7_72fa, "fig6a digest {:#018x}", h.0);
}

#[test]
fn fig6b_strong_scaling() {
    let cluster = ClusterSpec::frontier();
    let mut h = Fnv::new();
    for cfg in [ModelConfig::paper_9_5m(), ModelConfig::paper_126m(), ModelConfig::paper_1b(), ModelConfig::paper_10b()]
    {
        for p in strong_scaling(&cfg, &[512, 2048, 8192, 32_768], &cluster) {
            h.u(p.nodes as u64);
            h.u(p.gpus as u64);
            h.f(p.per_sample_s);
            h.f(p.efficiency);
            h.f(p.sustained_flops);
        }
    }
    assert_eq!(h.0, 0xcf6b_131c_9f67_f599, "fig6b digest {:#018x}", h.0);
}
