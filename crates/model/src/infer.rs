//! The tape-free inference context.
//!
//! [`InferenceSession`] is the deployment counterpart of [`crate::Binder`]:
//! it implements [`Exec`] directly on pooled tensors, so a forward pass
//! records no tape nodes, stores no pre-activations, and accumulates no
//! backward closures. Weights are taken from the model's `ParamStore` once
//! at session creation; every linear weight additionally gets its `W^T`
//! packed into microkernel strips right there ([`PackedWeight`]) and the
//! pack stays resident for the session's lifetime — the per-call pack that
//! `matmul_bias_act` pays on the tape path disappears entirely.
//!
//! A session is `Send + Sync`: the TILES inference driver shares one
//! session across its rayon tile workers, so the pack cost is paid once
//! per *model*, not once per tile or per sample.
//!
//! The one precision axis is the resident *weight* storage
//! ([`SessionPrecision`]); activations are always f32 tensors.

use crate::exec::{Exec, RowGroups};
use orbit2_autograd::ParamStore;
use orbit2_tensor::attention::multi_head_attention;
use orbit2_tensor::conv::{conv2d, ConvGeom};
use orbit2_tensor::fused::{layer_norm_rows, matmul_bias_act_cached, Activation};
use orbit2_tensor::qgemm::PackedWeight;
use orbit2_tensor::resize::{resize, ResizeMode};
use orbit2_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Storage precision of a session's resident weights — re-exported from the
/// tensor crate so model-level callers need not name the kernel layer.
pub use orbit2_tensor::fused::WeightPrecision as SessionPrecision;

/// A value flowing through a tape-free forward pass: an f32 tensor plus,
/// for session-resident weights, the shared `W^T` pack.
///
/// Cloning is cheap (a COW tensor handle plus an `Arc` bump for the pack).
/// Intermediate results carry no pack; only values returned by
/// [`Exec::param`] on a session do, which is exactly where
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
    pub fn tensor(&self) -> Tensor {
        self.tensor.clone()
    }

    /// Unwrap into the tensor.
    pub fn into_tensor(self) -> Tensor {
        self.tensor
    }
}

/// Tape-free execution context holding session-resident weights and packs.
pub struct InferenceSession {
    values: BTreeMap<String, SessionValue>,
    precision: SessionPrecision,
}

impl InferenceSession {
    /// Snapshot a parameter store for inference, packing every eligible
    /// linear weight (2-d, enough output features for the packed
    /// microkernel) exactly once. Biases, layer-norm gains and conv
    /// kernels are held unpacked — no GEMM ever consumes them as `B`.
    pub fn prepare(store: &ParamStore) -> Self {
        Self::prepare_at(store, SessionPrecision::F32)
    }

    /// [`prepare`](Self::prepare) at a reduced weight precision.
    ///
    /// The resident tensor for every parameter is the *dequantized* value of
    /// whatever the packs hold, so eligible GEMMs (through the pack) and
    /// every other path (fallback GEMM shapes, convs, layer norms, biases)
    /// see identical weight values:
    ///
    /// * `Bf16` rounds **every** parameter through [`Tensor::to_bf16`] —
    ///   the whole weight set is bf16 end to end, and the per-layer `u16`
    ///   packs are exactly those rounded values ([`crate::infer`]'s packs
    ///   round-trip bit-identically).
    /// * `Int8` quantizes only the packable 2-d linear weights (per-output-
    ///   channel symmetric codes); biases, norm gains and conv kernels stay
    ///   f32 — no kernel consumes int8 for them, so quantizing would cost
    ///   quality for zero bytes saved on the hot path.
    pub fn prepare_at(store: &ParamStore, precision: SessionPrecision) -> Self {
        let values = store
            .iter()
            .map(|(name, t)| {
                let value = match precision {
                    SessionPrecision::F32 => {
                        let pack = PackedWeight::pack(t, precision).map(Arc::new);
                        SessionValue { tensor: t.clone(), pack }
                    }
                    SessionPrecision::Bf16 => {
                        let rounded = t.to_bf16();
                        let pack = PackedWeight::pack(&rounded, precision).map(Arc::new);
                        SessionValue { tensor: rounded, pack }
                    }
                    SessionPrecision::Int8 => match PackedWeight::pack(t, precision) {
                        Some(pack) => {
                            let tensor = pack.dequantized().expect("int8 pack dequantizes");
                            SessionValue { tensor, pack: Some(Arc::new(pack)) }
                        }
                        None => SessionValue::plain(t.clone()),
                    },
                };
                (name.clone(), value)
            })
            .collect();
        Self { values, precision }
    }

    /// The weight precision this session was prepared at.
    pub fn precision(&self) -> SessionPrecision {
        self.precision
    }

    /// Number of weights with a resident pack.
    pub fn packed_weights(&self) -> usize {
        self.values.values().filter(|v| v.pack.is_some()).count()
    }
}

impl Exec for InferenceSession {
    type Value = SessionValue;

    fn param(&self, name: &str) -> SessionValue {
        self.values
            .get(name)
            .unwrap_or_else(|| panic!("unknown parameter {name}"))
            .clone()
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

    fn linear_act(
        &self,
        x: &SessionValue,
        w: &SessionValue,
        bias: Option<&SessionValue>,
        act: Activation,
    ) -> SessionValue {
        let y = matmul_bias_act_cached(
            &x.tensor,
            &w.tensor,
            w.pack.as_deref(),
            bias.map(|b| &b.tensor),
            act,
        );
        SessionValue::plain(y)
    }

    fn layer_norm(
        &self,
        x: &SessionValue,
        gamma: &SessionValue,
        beta: &SessionValue,
        eps: f32,
    ) -> SessionValue {
        let v = &x.tensor;
        let d = v.shape()[v.ndim() - 1];
        let rows = v.len() / d;
        let (norm, _inv_std) = layer_norm_rows(v.data(), rows, d, eps);
        let norm_t = Tensor::from_vec(v.shape().to_vec(), norm);
        SessionValue::plain(norm_t.mul(&gamma.tensor).add(&beta.tensor))
    }

    fn conv2d(
        &self,
        x: &SessionValue,
        w: &SessionValue,
        bias: Option<&SessionValue>,
        geom: ConvGeom,
    ) -> SessionValue {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit2_tensor::random::randn;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn session_is_shareable_across_threads() {
        assert_send_sync::<InferenceSession>();
        assert_send_sync::<SessionValue>();
    }

    #[test]
    fn prepare_packs_linear_weights_only() {
        let mut store = ParamStore::new();
        store.insert("mlp.w1", randn(&[64, 32], 1)); // packable linear weight
        store.insert("ln.g", Tensor::ones(vec![32])); // 1-d: never packed
        store.insert("conv.w", randn(&[8, 4, 3, 3], 2)); // 4-d: never packed
        store.insert("embed.res", randn(&[4, 32], 3)); // n < LANES: never packed
        // The gate reads shapes only: the same packs in either SIMD mode.
        assert_eq!(InferenceSession::prepare(&store).packed_weights(), 1);
    }

    #[test]
    fn tensor_of_a_session_value_is_a_handle_not_a_copy() {
        let session = InferenceSession::prepare(&ParamStore::new());
        let v = session.constant(randn(&[64, 64], 4));
        let before = orbit2_tensor::pool::stats();
        let t = session.tensor(&v);
        assert_eq!(orbit2_tensor::pool::stats(), before, "no allocation, no copy");
        assert_eq!(t.data().as_ptr(), v.tensor.data().as_ptr(), "same storage");
    }

    #[test]
    #[should_panic(expected = "unknown parameter")]
    fn unknown_param_panics_like_store() {
        let session = InferenceSession::prepare(&ParamStore::new());
        let _ = session.param("nope");
    }

    #[test]
    fn bf16_session_rounds_every_parameter() {
        let mut store = ParamStore::new();
        store.insert("mlp.w1", randn(&[64, 32], 1));
        store.insert("ln.g", randn(&[32], 2));
        store.insert("conv.w", randn(&[8, 4, 3, 3], 3));
        let session = InferenceSession::prepare_at(&store, SessionPrecision::Bf16);
        assert_eq!(session.precision(), SessionPrecision::Bf16);
        for name in ["mlp.w1", "ln.g", "conv.w"] {
            let got = session.param(name);
            let expect = store.get(name).to_bf16();
            got.tensor().assert_close(&expect, 0.0);
        }
        // The 2-d linear weight is packed regardless of SIMD mode (the
        // quantized values must not depend on it); others never pack.
        assert_eq!(session.packed_weights(), 1);
    }

    #[test]
    fn int8_session_resident_tensor_matches_pack() {
        use orbit2_tensor::fused::WeightPrecision;
        let mut store = ParamStore::new();
        store.insert("mlp.w1", randn(&[64, 32], 1));
        store.insert("bias", randn(&[64], 2));
        let session = InferenceSession::prepare_at(&store, SessionPrecision::Int8);
        let w = session.param("mlp.w1");
        let pw = PackedWeight::pack(store.get("mlp.w1"), WeightPrecision::Int8).unwrap();
        w.tensor().assert_close(&pw.dequantized().unwrap(), 0.0);
        // Non-packable parameters stay f32 untouched in an int8 session.
        session.param("bias").tensor().assert_close(store.get("bias"), 0.0);
    }
}
