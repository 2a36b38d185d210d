//! Exascale planning on the simulated Frontier: regenerate the paper's
//! Table III (maximum sequence lengths) and Fig. 6(b) (strong scaling to
//! 32,768 GPUs) without owning a supercomputer.
//!
//! ```sh
//! cargo run --release --example exascale_scaling
//! ```

use orbit2_model::ModelConfig;
use orbit2_sim::planner::{max_sequence_row, strong_scaling, Arch};
use orbit2_sim::topology::ClusterSpec;

fn main() {
    let cluster = ClusterSpec::frontier();
    println!(
        "simulated cluster: {} nodes x {} GPUs, {} GB HBM each, {:.0} TF BF16 peak per GPU\n",
        cluster.num_nodes,
        cluster.gpus_per_node,
        cluster.gpu.mem_bytes >> 30,
        cluster.gpu.peak_bf16_flops / 1e12
    );

    println!("--- Table III: maximum sequence length ---");
    let rows = [
        ("ViT    9.5M", Arch::BaselineVit, ModelConfig::paper_9_5m(), 1, 1, 8),
        ("ViT    10B ", Arch::BaselineVit, ModelConfig::paper_10b(), 1, 1, 8),
        ("Reslim 9.5M", Arch::Reslim, ModelConfig::paper_9_5m(), 1, 1, 8),
        ("Reslim 9.5M", Arch::Reslim, ModelConfig::paper_9_5m(), 4, 16, 128),
        ("Reslim 10B ", Arch::Reslim, ModelConfig::paper_10b(), 4, 16, 512),
    ];
    for (name, arch, cfg, compression, tiles, gpus) in rows {
        let row = max_sequence_row(&cfg, arch, compression, tiles, gpus, &cluster);
        if row.oom {
            println!("{name}  c={compression}x tiles={tiles} gpus={gpus:>4}: OOM");
        } else {
            println!(
                "{name}  c={compression}x tiles={tiles:>2} gpus={gpus:>4}: {:>12} tokens, output [{}, {}, {}], {:.1} km",
                row.max_seq, row.out_shape[0], row.out_shape[1], row.out_shape[2], row.resolution_km
            );
        }
    }

    println!("\n--- Fig 6(b): strong scaling, 64 -> 4096 nodes ---");
    for (name, cfg) in [
        ("9.5M", ModelConfig::paper_9_5m()),
        ("126M", ModelConfig::paper_126m()),
        ("1B  ", ModelConfig::paper_1b()),
        ("10B ", ModelConfig::paper_10b()),
    ] {
        let series = strong_scaling(&cfg, &[512, 2048, 8192, 32_768], &cluster);
        print!("{name}: ");
        for p in &series {
            print!("{} nodes {:.1e}s/sample ({:.0}%)  ", p.nodes, p.per_sample_s, p.efficiency * 100.0);
        }
        println!();
    }
}
