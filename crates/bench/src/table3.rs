//! Table III: maximum sequence length scaling across architectures, model
//! sizes, compression, tiles and GPU count — fully simulated (these
//! configurations need up to 512 Frontier GPUs).

use crate::fmt::{count, Table};
use orbit2::planner::{max_sequence_row, Arch};
use orbit2_cluster::topology::ClusterSpec;
use orbit2_model::ModelConfig;

/// The nine configuration rows of the paper's Table III, plus the paper's
/// reported value for side-by-side comparison.
fn rows() -> Vec<(&'static str, Arch, ModelConfig, usize, usize, usize, &'static str)> {
    vec![
        ("ViT 9.5M", Arch::BaselineVit, ModelConfig::paper_9_5m(), 1, 1, 8, "25K"),
        ("ViT 10B", Arch::BaselineVit, ModelConfig::paper_10b(), 1, 1, 8, "OOM"),
        ("Reslim 9.5M", Arch::Reslim, ModelConfig::paper_9_5m(), 1, 1, 8, "298M"),
        ("Reslim 9.5M", Arch::Reslim, ModelConfig::paper_9_5m(), 1, 1, 32, "466M"),
        ("Reslim 9.5M", Arch::Reslim, ModelConfig::paper_9_5m(), 4, 16, 8, "1.1B"),
        ("Reslim 9.5M", Arch::Reslim, ModelConfig::paper_9_5m(), 4, 16, 128, "4.2B"),
        ("Reslim 10B", Arch::Reslim, ModelConfig::paper_10b(), 1, 1, 8, "18M"),
        ("Reslim 10B", Arch::Reslim, ModelConfig::paper_10b(), 4, 16, 8, "74M"),
        ("Reslim 10B", Arch::Reslim, ModelConfig::paper_10b(), 4, 16, 512, "671M"),
    ]
}

/// The sequence-scaling landscape of the paper's Sec. II/V-B: TILES vs the
/// two prior approaches it displaces (ring sequence parallelism, capped at
/// 188K tokens, and Swin-style hierarchies, capped at 147K).
pub fn render_landscape() -> String {
    use orbit2_parallel::{swin_max_tokens, SeqParallelConfig};
    let cluster = ClusterSpec::frontier();
    let mut t = Table::new(&["Approach", "Max tokens (sim)", "Literature", "Limiting mechanism"]);
    let seqp = SeqParallelConfig { ranks: 16, layers: 6, embed_dim: 256, heads: 4, params: 9_500_000 };
    t.row(vec![
        "ring sequence parallelism (16 GPUs)".into(),
        count(seqp.max_sequence(&cluster)),
        "188K [22]".into(),
        "global attention: gathered K/V + quadratic compute".into(),
    ]);
    t.row(vec![
        "Swin-style hierarchy (1 GPU)".into(),
        count(swin_max_tokens(8, 96, 2, cluster.gpu.mem_bytes)),
        "147K [27]".into(),
        "depth/params grow with resolution".into(),
    ]);
    let flagship = max_sequence_row(&ModelConfig::paper_9_5m(), Arch::Reslim, 4, 16, 128, &cluster);
    t.row(vec![
        "Reslim + TILES (128 GPUs)".into(),
        count(flagship.max_seq),
        "4.2B (paper)".into(),
        "local attention per tile: linear in tokens".into(),
    ]);
    format!("Sequence-scaling landscape (paper Sec. II / V-B):\n{}", t.render())
}

/// Render the simulated Table III.
pub fn render() -> String {
    let cluster = ClusterSpec::frontier();
    let mut t = Table::new(&[
        "Architecture", "Compression", "Tiles", "GPUs", "Max seq (sim)", "Output", "Res (km)", "Paper",
    ]);
    for (name, arch, cfg, compression, tiles, gpus, paper) in rows() {
        let row = max_sequence_row(&cfg, arch, compression, tiles, gpus, &cluster);
        t.row(vec![
            name.into(),
            format!("{compression}x"),
            tiles.to_string(),
            gpus.to_string(),
            if row.oom { "OOM".into() } else { count(row.max_seq) },
            if row.oom {
                "-".into()
            } else {
                format!("[{}, {}, {}]", row.out_shape[0], row.out_shape[1], row.out_shape[2])
            },
            if row.oom { "-".into() } else { format!("{:.1}", row.resolution_km) },
            paper.into(),
        ]);
    }
    format!("Table III [simulated memory model]:\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_covers_all_rows() {
        let s = render();
        assert!(s.contains("OOM"));
        assert!(s.contains("Reslim 10B"));
        assert_eq!(s.matches("Reslim 9.5M").count(), 4);
    }

    #[test]
    fn landscape_orders_tiles_far_ahead() {
        let s = render_landscape();
        assert!(s.contains("188K"));
        assert!(s.contains("147K"));
        assert!(s.contains("Reslim + TILES"));
        // TILES row must report billions while the others stay below ~10M.
        assert!(s.contains("B"), "expected a billions entry:\n{s}");
    }

    #[test]
    fn ordering_matches_paper_within_each_family() {
        // Within the 9.5M Reslim family, each successive configuration must
        // unlock a longer sequence, mirroring the paper's monotone column.
        let cluster = ClusterSpec::frontier();
        let mut prev = 0u64;
        for (_, arch, cfg, c, tl, g, _) in rows().into_iter().skip(2).take(4) {
            let row = max_sequence_row(&cfg, arch, c, tl, g, &cluster);
            assert!(row.max_seq > prev, "sequence must grow down the table");
            prev = row.max_seq;
        }
    }
}
