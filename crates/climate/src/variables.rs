//! Physical variable inventory mirroring the paper's Table I channel
//! structure: 5 static fields, 12 atmospheric variables (humidity, wind and
//! temperature at 200/500/850 hPa), 6 surface variables, and 3 output
//! variables (minimum temperature, maximum temperature, total precipitation
//! — the DAYMET triple).

use serde::{Deserialize, Serialize};

/// The broad class a channel belongs to (drives generation and coupling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VariableKind {
    /// Time-invariant fields (topography, land mask, coordinates, soil).
    Static,
    /// Pressure-level atmospheric state.
    Atmospheric,
    /// Near-surface state.
    Surface,
}

/// A single named channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Variable {
    /// Short identifier, e.g. `"t850"`.
    pub name: String,
    /// Class of the variable.
    pub kind: VariableKind,
    /// Spectral slope of the underlying random field (higher = smoother).
    pub spectral_slope: f64,
    /// Standard deviation of the fluctuating part (physical units).
    pub sigma: f32,
    /// Climatological mean (physical units).
    pub mean: f32,
    /// Strength of coupling to topography (units per km of elevation).
    pub topo_coupling: f32,
}

impl Variable {
    fn new(name: &str, kind: VariableKind, slope: f64, sigma: f32, mean: f32, topo: f32) -> Self {
        Self { name: name.into(), kind, spectral_slope: slope, sigma, mean, topo_coupling: topo }
    }
}

/// The full channel layout of a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariableSet {
    /// Input channels, in order.
    pub inputs: Vec<Variable>,
    /// Output (target) channels, in order.
    pub outputs: Vec<Variable>,
}

impl VariableSet {
    /// The ERA5-style 23-input / 3-output layout of the paper's pretraining
    /// datasets (5 static + 12 atmospheric + 6 surface → tmin/tmax/prcp).
    pub fn era5_like() -> Self {
        use VariableKind::*;
        let mut inputs = Vec::with_capacity(23);
        // 5 static fields.
        inputs.push(Variable::new("topography", Static, 3.2, 1.0, 0.5, 0.0));
        inputs.push(Variable::new("land_mask", Static, 2.5, 0.5, 0.5, 0.0));
        inputs.push(Variable::new("soil_type", Static, 2.8, 1.0, 0.0, 0.2));
        inputs.push(Variable::new("lat_coord", Static, 10.0, 1.0, 0.0, 0.0));
        inputs.push(Variable::new("lon_coord", Static, 10.0, 1.0, 0.0, 0.0));
        // 12 atmospheric: q, u, v, t at 200/500/850 hPa.
        for level in ["200", "500", "850"] {
            inputs.push(Variable::new(&format!("q{level}"), Atmospheric, 2.6, 1.5, 5.0, -0.8));
            inputs.push(Variable::new(&format!("u{level}"), Atmospheric, 2.8, 8.0, 5.0, 0.0));
            inputs.push(Variable::new(&format!("v{level}"), Atmospheric, 2.8, 8.0, 0.0, 0.0));
            inputs.push(Variable::new(&format!("t{level}"), Atmospheric, 3.0, 6.0, 260.0, -6.5));
        }
        // 6 surface variables.
        let surface = [
            Variable::new("t2m", Surface, 3.0, 8.0, 288.0, -6.5),
            Variable::new("tmin_in", Surface, 3.0, 8.0, 283.0, -6.5),
            Variable::new("tmax_in", Surface, 3.0, 8.0, 293.0, -6.5),
            Variable::new("prcp_in", Surface, 2.2, 1.0, 0.0, 1.5),
            Variable::new("sp", Surface, 3.4, 10.0, 1013.0, -110.0),
            Variable::new("w10m", Surface, 2.6, 3.0, 4.0, 0.5),
        ];
        inputs.extend(surface);
        let outputs = vec![
            Variable::new("tmin", Surface, 3.0, 8.0, 283.0, -6.5),
            Variable::new("tmax", Surface, 3.0, 8.0, 293.0, -6.5),
            Variable::new("prcp", Surface, 2.2, 1.0, 0.0, 1.5),
        ];
        Self { inputs, outputs }
    }

    /// The PRISM/DAYMET-style 7-input / 3-output layout used for US-focused
    /// pretraining (Table I rows 3–4).
    pub fn daymet_like() -> Self {
        let era5 = Self::era5_like();
        // 7 inputs: topography, land mask + 5 surface observables.
        let pick = ["topography", "land_mask", "t2m", "tmin_in", "tmax_in", "prcp_in", "w10m"];
        let inputs = era5
            .inputs
            .iter()
            .filter(|v| pick.contains(&v.name.as_str()))
            .cloned()
            .collect();
        Self { inputs, outputs: era5.outputs }
    }

    /// Number of input channels.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of output channels.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Index of an output channel by name.
    pub fn output_index(&self, name: &str) -> Option<usize> {
        self.outputs.iter().position(|v| v.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn era5_layout_matches_table1() {
        let vs = VariableSet::era5_like();
        assert_eq!(vs.num_inputs(), 23);
        assert_eq!(vs.num_outputs(), 3);
        let statics = vs.inputs.iter().filter(|v| v.kind == VariableKind::Static).count();
        let atmos = vs.inputs.iter().filter(|v| v.kind == VariableKind::Atmospheric).count();
        let surface = vs.inputs.iter().filter(|v| v.kind == VariableKind::Surface).count();
        assert_eq!((statics, atmos, surface), (5, 12, 6));
    }

    #[test]
    fn daymet_layout_matches_table1() {
        let vs = VariableSet::daymet_like();
        assert_eq!(vs.num_inputs(), 7);
        assert_eq!(vs.num_outputs(), 3);
    }

    #[test]
    fn channel_lookup() {
        let vs = VariableSet::era5_like();
        assert_eq!(vs.output_index("prcp"), Some(2));
        assert_eq!(vs.output_index("nope"), None);
    }

    #[test]
    fn temperature_variables_cool_with_altitude() {
        let vs = VariableSet::era5_like();
        for v in vs.inputs.iter().chain(&vs.outputs) {
            if v.name.starts_with('t') && v.name != "topography" {
                assert!(v.topo_coupling < 0.0, "{} should have lapse-rate cooling", v.name);
            }
            if v.name.starts_with("prcp") {
                assert!(v.topo_coupling > 0.0, "{} should be orographically enhanced", v.name);
            }
        }
    }
}
