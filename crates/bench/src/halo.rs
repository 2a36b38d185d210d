//! Halo-width ablation (paper Sec. III-B: "the halo width is determined
//! empirically. Larger halos improve accuracy but increase computation,
//! while smaller halos reduce cost but risk accuracy loss").
//!
//! Measured with real kernels: tiled inference at several halo widths,
//! reporting (a) the deviation from the untiled reference — the accuracy
//! cost of missing context — and (b) the padded-area overhead — the
//! compute cost of the halo.

use crate::fmt::Table;
use crate::setup::{small_dataset, tiny_model, train_model};
use orbit2::eval::evaluate_model;
use orbit2_climate::Split;
use orbit2_imaging::tiles::{tile_grid, TileSpec};

/// One halo setting's outcome.
#[derive(Debug, Clone, Copy)]
pub struct HaloPoint {
    /// Halo width in input pixels.
    pub halo: usize,
    /// Held-out tmin RMSE of tiled inference at this halo width.
    pub rmse: f64,
    /// Mean padded-area / core-area compute overhead.
    pub overhead: f64,
}

/// Run the ablation: train once, evaluate tiled inference at increasing
/// halo widths against the ground truth.
pub fn run(steps: usize) -> Vec<HaloPoint> {
    let ds = small_dataset(24, 21);
    let (trainer, _) = train_model(tiny_model(4), &ds, steps, 2e-3);
    let test_idx = ds.indices(Split::Test);
    let (h, w) = (ds.coarse_grid().h, ds.coarse_grid().w);
    [0usize, 1, 2, 4]
        .iter()
        .map(|&halo| {
            let spec = TileSpec { tiles_y: 2, tiles_x: 2, halo };
            let reports = evaluate_model(&trainer.model, &trainer.normalizer, &ds, &test_idx, Some(spec), 1.0)
                .expect("valid test split");
            let rmse = reports[0].report.rmse; // tmin
            let grid = tile_grid(h, w, spec);
            let overhead = grid.iter().map(|g| g.halo_overhead()).sum::<f64>() / grid.len() as f64;
            HaloPoint { halo, rmse, overhead }
        })
        .collect()
}

/// Render the ablation table.
pub fn render(points: &[HaloPoint]) -> String {
    let mut t = Table::new(&["Halo (px)", "tmin RMSE (held out)", "Compute overhead"]);
    for p in points {
        t.row(vec![p.halo.to_string(), format!("{:.4}", p.rmse), format!("{:.2}x", p.overhead)]);
    }
    format!(
        "Halo-width ablation [trained model, 2x2 tiles] (paper Sec. III-B: larger halos\n\
         improve accuracy but increase computation):\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_cost_tradeoff_holds() {
        let points = run(40);
        assert_eq!(points.len(), 4);
        // Some nonzero halo must beat (or at least match) the zero-halo
        // accuracy: border tokens need neighbour context.
        let zero = points[0].rmse;
        let best_with_halo = points[1..].iter().map(|p| p.rmse).fold(f64::INFINITY, f64::min);
        assert!(best_with_halo <= zero * 1.02, "a halo should not hurt accuracy: zero {zero}, best {best_with_halo}");
        // Compute overhead grows strictly with halo width.
        for pair in points.windows(2) {
            assert!(pair[1].overhead > pair[0].overhead);
        }
        // Zero halo has zero overhead.
        assert!((points[0].overhead - 1.0).abs() < 1e-9);
        // All finite.
        assert!(points.iter().all(|p| p.rmse.is_finite()));
    }
}
