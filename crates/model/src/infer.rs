//! The tape-free inference context.
//!
//! [`InferenceSession`] is the deployment counterpart of [`crate::Binder`]:
//! it implements [`Exec`] directly on pooled tensors, so a forward pass
//! records no tape nodes, stores no pre-activations, and accumulates no
//! backward closures. Weights are taken from the model's `ParamStore` once
//! at session creation, and a linear layer reads its weight as the tape's
//! `matmul_bias_act` does, bit for bit:
//!
//! * **in an f32 session**, by the tape's own rule
//!   ([`IN_PLACE_MAX_ROWS`](orbit2_tensor::fused::IN_PLACE_MAX_ROWS)): in
//!   place for a short product, through a `W^T` pack built for the call for
//!   a long one. The weight is the store's tensor, a COW handle, so an f32
//!   session holds each weight once, at any sequence length;
//! * **in an int8 session**, through a resident pack ([`PackedWeight`])
//!   built at prepare: the pack is the session's only int8 copy of the
//!   weight, and every other reader of the parameter reads the store's f32.
//!
//! So a session is the parameter store plus, at int8, its packs: every
//! value [`Exec::param`] returns shares storage with the store's tensor.
//!
//! A session is `Send + Sync`: the TILES inference driver shares one
//! session across its rayon tile workers, and nothing in it is built after
//! prepare, so no worker ever writes to it.
//!
//! The one precision axis is the resident *weight* storage
//! ([`WeightPrecision`]); activations are always f32 tensors.

use crate::exec::{Exec, RowGroups};
use orbit2_autograd::ParamStore;
use orbit2_tensor::attention::multi_head_attention;
use orbit2_tensor::conv::{conv2d, upsample_conv2d, ConvGeom};
use orbit2_tensor::fused::{layer_norm_rows, matmul_bias_act_cached, Activation, WeightPrecision};
use orbit2_tensor::qgemm::PackedWeight;
use orbit2_tensor::resize::{resize, ResizeMode};
use orbit2_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A value flowing through a tape-free forward pass: an f32 tensor plus,
/// for a weight an int8 session packed, its resident pack.
///
/// Cloning is cheap (a COW tensor handle and a reference count).
/// Intermediate results carry no pack; only values returned by
/// [`Exec::param`] on an int8 session do, which is exactly where
/// [`Exec::linear_act`] looks for it.
#[derive(Clone, Debug)]
pub struct SessionValue {
    tensor: Tensor,
    pack: Option<Arc<PackedWeight>>,
}

impl SessionValue {
    fn plain(tensor: Tensor) -> Self {
        SessionValue { tensor, pack: None }
    }

    /// The value as a tensor (a COW handle clone, no data copy).
    fn tensor(&self) -> Tensor {
        self.tensor.clone()
    }

    /// Unwrap into the tensor.
    pub fn into_tensor(self) -> Tensor {
        self.tensor
    }
}

/// Tape-free execution context holding session-resident weights (and, at
/// int8, their packs).
pub struct InferenceSession {
    values: BTreeMap<String, SessionValue>,
}

impl InferenceSession {
    /// Take a parameter store for inference at `precision`. Every
    /// parameter's value is the store's tensor, a COW handle. At `Int8` each
    /// weight the pack gate admits (2-d, enough output features for the
    /// packed microkernel) is also packed here, and only
    /// [`linear_act`](Exec::linear_act) reads the pack. Every other reader
    /// (an unpacked GEMM shape, a `slice_axis` of `embed.var`, a bias, a
    /// norm gain, a conv kernel) reads the store's f32: quantizing what no
    /// GEMM streams would cost quality for zero bytes saved on the hot path.
    pub(crate) fn prepare(store: &ParamStore, precision: WeightPrecision) -> Self {
        let values = store
            .iter()
            .map(|(name, t)| {
                let pack = match precision {
                    WeightPrecision::F32 => None,
                    WeightPrecision::Int8 => PackedWeight::pack(t, WeightPrecision::Int8).map(Arc::new),
                };
                (name.clone(), SessionValue { tensor: t.clone(), pack })
            })
            .collect();
        Self { values }
    }
}

impl Exec for InferenceSession {
    type Value = SessionValue;

    fn param(&self, name: &str) -> SessionValue {
        self.values.get(name).unwrap_or_else(|| panic!("unknown parameter {name}")).clone()
    }

    fn constant(&self, t: Tensor) -> SessionValue {
        SessionValue::plain(t)
    }

    fn tensor(&self, v: &SessionValue) -> Tensor {
        v.tensor()
    }

    fn shape(&self, v: &SessionValue) -> Vec<usize> {
        v.tensor.shape().to_vec()
    }

    fn add(&self, a: &SessionValue, b: &SessionValue) -> SessionValue {
        SessionValue::plain(a.tensor.add(&b.tensor))
    }

    fn mul(&self, a: &SessionValue, b: &SessionValue) -> SessionValue {
        SessionValue::plain(a.tensor.mul(&b.tensor))
    }

    fn scale(&self, a: &SessionValue, s: f32) -> SessionValue {
        SessionValue::plain(a.tensor.mul_scalar(s))
    }

    fn gelu(&self, a: &SessionValue) -> SessionValue {
        SessionValue::plain(a.tensor.gelu())
    }

    fn matmul(&self, a: &SessionValue, b: &SessionValue) -> SessionValue {
        SessionValue::plain(a.tensor.matmul(&b.tensor))
    }

    fn matmul_nt(&self, a: &SessionValue, b: &SessionValue) -> SessionValue {
        SessionValue::plain(a.tensor.matmul_nt(&b.tensor))
    }

    fn softmax_last(&self, a: &SessionValue) -> SessionValue {
        SessionValue::plain(a.tensor.softmax_last())
    }

    fn slice_axis(&self, a: &SessionValue, axis: usize, start: usize, len: usize) -> SessionValue {
        SessionValue::plain(a.tensor.slice_axis(axis, start, len))
    }

    fn concat(&self, parts: &[SessionValue], axis: usize) -> SessionValue {
        let refs: Vec<&Tensor> = parts.iter().map(|p| &p.tensor).collect();
        SessionValue::plain(Tensor::concat(&refs, axis))
    }

    fn gather_rows(&self, a: &SessionValue, indices: Vec<usize>) -> SessionValue {
        SessionValue::plain(a.tensor.gather_rows(&indices))
    }

    fn reshape(&self, a: &SessionValue, shape: Vec<usize>) -> SessionValue {
        SessionValue::plain(a.tensor.reshape(shape))
    }

    /// A weight an int8 session packed runs through its pack; any other
    /// weight is read by the tape's rule.
    fn linear_act(
        &self,
        x: &SessionValue,
        w: &SessionValue,
        bias: Option<&SessionValue>,
        act: Activation,
    ) -> SessionValue {
        let bias = bias.map(|b| &b.tensor);
        SessionValue::plain(matmul_bias_act_cached(&x.tensor, &w.tensor, w.pack.as_deref(), bias, act))
    }

    fn layer_norm(&self, x: &SessionValue, gamma: &SessionValue, beta: &SessionValue, eps: f32) -> SessionValue {
        let v = &x.tensor;
        let d = v.shape()[v.ndim() - 1];
        let rows = v.len() / d;
        let (norm, _inv_std) = layer_norm_rows(v.data(), rows, d, eps);
        let norm_t = Tensor::from_vec(v.shape().to_vec(), norm);
        SessionValue::plain(norm_t.mul(&gamma.tensor).add(&beta.tensor))
    }

    fn conv2d(&self, x: &SessionValue, w: &SessionValue, bias: Option<&SessionValue>, geom: ConvGeom) -> SessionValue {
        SessionValue::plain(conv2d(&x.tensor, &w.tensor, bias.map(|b| &b.tensor), geom))
    }

    fn resize_bilinear(&self, x: &SessionValue, out_h: usize, out_w: usize) -> SessionValue {
        SessionValue::plain(resize(&x.tensor, out_h, out_w, ResizeMode::Bilinear))
    }

    fn pool_rows(&self, x: &SessionValue, groups: &RowGroups) -> SessionValue {
        SessionValue::plain(x.tensor.pool_rows(groups))
    }

    fn unpool_rows(&self, x: &SessionValue, groups: &RowGroups, total_rows: usize) -> SessionValue {
        SessionValue::plain(x.tensor.unpool_rows(groups, total_rows))
    }

    /// One blocked kernel in place of the per-head composition, bit for bit
    /// (the contract in [`crate::exec`]'s header).
    fn attention(&self, q: &SessionValue, k: &SessionValue, v: &SessionValue, heads: usize) -> SessionValue {
        SessionValue::plain(multi_head_attention(&q.tensor, &k.tensor, &v.tensor, heads))
    }

    /// One banded kernel in place of `resize_bilinear → conv2d`, bit for bit
    /// (the contract in [`crate::exec`]'s header).
    fn upsample_conv(
        &self,
        x: &SessionValue,
        out_h: usize,
        out_w: usize,
        w: &SessionValue,
        bias: Option<&SessionValue>,
        geom: ConvGeom,
    ) -> SessionValue {
        let bias = bias.map(|b| &b.tensor);
        SessionValue::plain(upsample_conv2d(&x.tensor, out_h, out_w, &w.tensor, bias, geom))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit2_tensor::random::randn;

    fn assert_send_sync<T: Send + Sync>() {}

    /// Packs the session holds.
    fn resident_packs(session: &InferenceSession) -> usize {
        session.values.values().filter(|v| v.pack.is_some()).count()
    }

    #[test]
    fn session_is_shareable_across_threads() {
        assert_send_sync::<InferenceSession>();
        assert_send_sync::<SessionValue>();
    }

    #[test]
    fn session_pack_lifetime() {
        use crate::{ModelConfig, ReslimModel};
        let model = ReslimModel::new(ModelConfig::tiny().with_channels(2, 1), 3);
        // The gate reads shapes only: 2-d, at least 8 output features.
        let packable = model.params.iter().filter(|(_, t)| PackedWeight::packable(t)).count();
        assert!(packable > 0 && packable < model.params.len());
        // An int8 session packs every one of them at prepare.
        assert_eq!(resident_packs(&model.session_at(WeightPrecision::Int8)), packable);
        // An f32 session packs nothing at prepare, nor in a forward whose
        // longest product is 64 rows (16x16 at patch 2), nor in one of 72.
        let session = model.session();
        assert_eq!(resident_packs(&session), 0, "an f32 prepare packs nothing");
        for (w, tokens, seed) in [(16, 64, 4), (18, 72, 5)] {
            let _ = model.forward(&session, &randn(&[2, 16, w], seed), 1.0);
            assert_eq!(resident_packs(&session), 0, "a {tokens}-token forward packs nothing");
        }
    }

    #[test]
    fn tensor_of_a_session_value_is_a_handle_not_a_copy() {
        let session = InferenceSession::prepare(&ParamStore::new(), WeightPrecision::F32);
        let v = session.constant(randn(&[64, 64], 4));
        let before = orbit2_tensor::pool::stats();
        let t = session.tensor(&v);
        assert_eq!(orbit2_tensor::pool::stats(), before, "no allocation, no copy");
        assert_eq!(t.data().as_ptr(), v.tensor.data().as_ptr(), "same storage");
    }

    #[test]
    #[should_panic(expected = "unknown parameter")]
    fn unknown_param_panics_like_store() {
        let session = InferenceSession::prepare(&ParamStore::new(), WeightPrecision::F32);
        let _ = session.param("nope");
    }

    #[test]
    fn an_int8_session_allocates_no_f32_tensor() {
        use crate::{ModelConfig, ReslimModel};
        let model = ReslimModel::new(ModelConfig::tiny().with_channels(2, 1), 3);
        let before = orbit2_tensor::pool::stats();
        let session = model.session_at(WeightPrecision::Int8);
        assert_eq!(orbit2_tensor::pool::stats(), before, "the packs are the only new storage");
        assert!(resident_packs(&session) > 0);
    }

    #[test]
    fn every_session_value_is_the_store_tensor() {
        use crate::{ModelConfig, ReslimModel};
        let model = ReslimModel::new(ModelConfig::tiny().with_channels(2, 1), 3);
        for precision in WeightPrecision::ALL {
            let session = model.session_at(precision);
            for (name, t) in model.params.iter() {
                let v = session.param(name);
                let same = v.tensor.data().as_ptr() == t.data().as_ptr();
                assert!(same, "{name} at {}: not the store's tensor", precision.label());
            }
        }
    }

    #[test]
    fn an_int8_session_reads_a_packed_variable_embedding_as_f32() {
        use crate::{ModelConfig, ReslimModel};
        // At 23 input channels `embed.var` is [23, D]: packable, and read by
        // `slice_axis` in tokenization, never by a GEMM.
        let model = ReslimModel::new(ModelConfig::tiny().with_channels(23, 1), 5);
        let store = model.params.get("embed.var");
        let session = model.session_at(WeightPrecision::Int8);
        let var = session.param("embed.var");
        assert!(var.pack.is_some(), "embed.var is packed at 23 channels");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for ci in [0, 11, 22] {
            let row = session.tensor(&session.slice_axis(&var, 0, ci, 1));
            assert_eq!(bits(&row), bits(&store.slice_axis(0, ci, 1)), "embed.var row {ci}");
        }
    }
}
