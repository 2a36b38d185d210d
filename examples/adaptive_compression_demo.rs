//! Adaptive spatial compression demo (the paper's Fig. 3): build the
//! quad-tree over a synthetic field's Canny edge density and show how
//! feature-rich regions get fine patches while smooth regions collapse.
//!
//! ```sh
//! cargo run --release --example adaptive_compression_demo
//! ```

use orbit2_climate::synth::{gaussian_random_field, GrfSpec};
use orbit2_imaging::pgm::ascii_art;
use orbit2_imaging::quadtree::{QuadTree, QuadTreeParams};
use orbit2_sim::cost::{compression_speedup, tiling_speedup};

fn main() {
    let (h, w) = (64usize, 64usize);
    // A field with a sharp front: smooth background + a step edge.
    let smooth = gaussian_random_field(h, w, GrfSpec { slope: 3.5 }, 42);
    let field: Vec<f32> = smooth
        .iter()
        .enumerate()
        .map(|(i, &v)| v + if (i % w) > w / 2 && (i / w) > h / 3 { 3.0 } else { 0.0 })
        .collect();

    println!("input field ({}x{}):", h, w);
    println!("{}", ascii_art(&field, h, w, 64));

    let uniform = QuadTree::uniform(h, w, 2);
    println!("uniform 2x2 patching: {} tokens", uniform.token_count());

    for threshold in [0.01f32, 0.05, 0.15] {
        let qt = QuadTree::build(&field, h, w, QuadTreeParams { density_threshold: threshold, ..Default::default() });
        assert!(qt.is_exact_partition());
        let areas: Vec<usize> = qt.patches.iter().map(|p| p.area()).collect();
        println!(
            "threshold {:>5.2}: {:>4} patches (compression {:>5.1}x vs uniform), patch sizes {}..{} px",
            threshold,
            qt.token_count(),
            qt.compression_vs_uniform(2),
            areas.iter().min().unwrap(),
            areas.iter().max().unwrap(),
        );
    }

    // What the compression buys at training time (Table II(b) model).
    println!("\npredicted training speedups (calibrated cost model):");
    for c in [4usize, 8, 16, 32] {
        println!("  {c:>2}x compression -> {:.1}x speedup", compression_speedup(c));
    }
    for t in [4usize, 16, 36] {
        println!("  {t:>2} tiles        -> {:.1}x speedup", tiling_speedup(t));
    }
}
