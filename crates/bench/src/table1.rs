//! Table I: the dataset inventory.

use crate::fmt::Table;
use orbit2_climate::catalog::{paper_catalog, DatasetRole};

/// Render Table I from the catalog, with computed storage sizes.
pub fn render() -> String {
    let mut out = String::from("Table I: datasets for pretraining, fine-tuning and inference\n");
    let mut t = Table::new(&[
        "Dataset",
        "Region",
        "Res (km)",
        "In Vars",
        "Out Vars",
        "Sample (in -> out)",
        "Pairs",
        "Size (GB)",
        "Role",
    ]);
    for e in paper_catalog() {
        let role = match e.role {
            DatasetRole::Pretraining => "pretrain",
            DatasetRole::FineTuning => "fine-tune",
            DatasetRole::InferenceEvaluation => "inference",
        };
        t.row(vec![
            e.name.to_string(),
            e.region.to_string(),
            format!("{:.0} -> {:.0}", e.res_in_km, e.res_out_km),
            e.input_vars.to_string(),
            e.output_vars.to_string(),
            format!("{:?} -> {:?}", e.in_dims, e.out_dims),
            e.sample_pairs.to_string(),
            format!("{:.0}", e.size_gb()),
            role.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n(Sizes are f32 estimates; the paper stores mixed products, e.g. 6,328 GB for the large ERA5 set.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_all_rows() {
        let s = super::render();
        assert!(s.contains("ERA5 -> IMERG"));
        assert!(s.contains("PRISM"));
        // 4 role cells; the title also mentions "pretraining".
        assert_eq!(s.matches("pretrain ").count(), 4);
    }
}
