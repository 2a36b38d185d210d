//! The tape-free inference context.
//!
//! [`InferenceSession`] is the deployment counterpart of [`crate::Binder`]:
//! it implements [`Exec`] directly on pooled tensors, so a forward pass
//! records no tape nodes, stores no pre-activations, and accumulates no
//! backward closures. Weights are taken from the model's `ParamStore` once
//! at session creation, and a linear layer reads its weight one of two
//! ways, each bit-identical to the tape's `matmul_bias_act`:
//!
//! * **in place**: in an f32 session, a product of at most
//!   [`IN_PLACE_MAX_ROWS`] rows streams the `[n, k]` weight where it lies
//!   ([`matmul_bias_act_in_place`]). The weight is the store's tensor, a
//!   COW handle, so a session serving short sequences holds each weight
//!   once;
//! * **through a resident `W^T` pack** ([`PackedWeight`]): every longer
//!   product, and every product of an int8 session. An int8 session packs
//!   at prepare, since its pack is the only int8 copy of the weight. An f32
//!   session builds its packs the first time a long product needs them,
//!   all at once behind one `OnceLock`, and keeps them for its lifetime.
//!
//! A session is `Send + Sync`: the TILES inference driver shares one
//! session across its rayon tile workers, so a pack is paid once per
//! *model*, not once per tile or per sample. `downscale_with` asks for the
//! packs on its own thread before it forks the tiles
//! ([`ReslimModel::prepare_session`](crate::ReslimModel::prepare_session)):
//! a pack built on a tile worker lands in that worker's malloc arena and
//! stays resident there (DESIGN.md §9).
//!
//! The one precision axis is the resident *weight* storage
//! ([`SessionPrecision`]); activations are always f32 tensors.

use crate::exec::{Exec, RowGroups};
use orbit2_autograd::ParamStore;
use orbit2_tensor::attention::multi_head_attention;
use orbit2_tensor::conv::{conv2d, upsample_conv2d, ConvGeom};
use orbit2_tensor::fused::{
    layer_norm_rows, matmul_bias_act_cached, matmul_bias_act_in_place, Activation, IN_PLACE_MAX_ROWS,
};
use orbit2_tensor::qgemm::PackedWeight;
use orbit2_tensor::resize::{resize, ResizeMode};
use orbit2_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Storage precision of a session's resident weights — re-exported from the
/// tensor crate so model-level callers need not name the kernel layer.
pub use orbit2_tensor::fused::WeightPrecision as SessionPrecision;

/// A value flowing through a tape-free forward pass: an f32 tensor plus,
/// for a session weight the pack gate admits, its slot in the session's
/// `W^T` pack set.
///
/// Cloning is cheap (a COW tensor handle). Intermediate results carry no
/// slot; only values returned by [`Exec::param`] on a session do, which is
/// exactly where [`Exec::linear_act`] looks for it.
#[derive(Clone, Debug)]
pub struct SessionValue {
    tensor: Tensor,
    slot: Option<usize>,
}

impl SessionValue {
    fn plain(tensor: Tensor) -> Self {
        SessionValue { tensor, slot: None }
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

/// Tape-free execution context holding session-resident weights and packs.
pub struct InferenceSession {
    values: BTreeMap<String, SessionValue>,
    precision: SessionPrecision,
    /// The `W^T` packs by slot: set at prepare in an int8 session,
    /// built by the first caller of [`Self::packs`] in an f32 one.
    packs: OnceLock<Vec<PackedWeight>>,
}

impl InferenceSession {
    /// Snapshot a parameter store for inference at f32. Every linear weight
    /// the pack gate admits (2-d, enough output features for the packed
    /// microkernel) gets a slot, and nothing is packed until a product
    /// longer than [`IN_PLACE_MAX_ROWS`] rows needs it. Biases, layer-norm
    /// gains and conv kernels never pack — no GEMM consumes them as `B`.
    pub(crate) fn prepare(store: &ParamStore) -> Self {
        Self::prepare_at(store, SessionPrecision::F32)
    }

    /// [`prepare`](Self::prepare) at either weight precision. `Int8` packs
    /// every slot right here: its pack is the session's only int8 copy of
    /// the weight.
    ///
    /// `Int8` quantizes only the packable 2-d linear weights (per-output-
    /// channel symmetric codes), and the resident tensor of each is the
    /// pack's *dequantized* value, so eligible GEMMs (through the pack) and
    /// every other reader (fallback GEMM shapes, `slice_axis` reads) see
    /// identical weight values. Biases, norm gains and conv kernels stay
    /// f32: no kernel consumes int8 for them, so quantizing would cost
    /// quality for zero bytes saved on the hot path.
    pub(crate) fn prepare_at(store: &ParamStore, precision: SessionPrecision) -> Self {
        let mut values = BTreeMap::new();
        let mut packs = Vec::new();
        let mut slots = 0;
        for (name, t) in store.iter() {
            let (tensor, pack) = match precision {
                SessionPrecision::F32 => (t.clone(), None),
                SessionPrecision::Int8 => match PackedWeight::pack(t, precision) {
                    Some(pack) => (pack.dequantized().expect("int8 pack dequantizes"), Some(pack)),
                    None => (t.clone(), None),
                },
            };
            // Slots go out in name order, the order `packs` walks `values`
            // in when it builds an f32 set.
            let slot = PackedWeight::packable(t).then_some(slots);
            slots += usize::from(slot.is_some());
            packs.extend(pack);
            values.insert(name.clone(), SessionValue { tensor, slot });
        }
        let packs = match precision {
            SessionPrecision::F32 => OnceLock::new(),
            SessionPrecision::Int8 => OnceLock::from(packs),
        };
        Self { values, precision, packs }
    }

    /// Get the session ready for products of up to `rows` rows: if those
    /// read the `W^T` packs, build them now, on the calling thread
    /// ([`ReslimModel::prepare_session`](crate::ReslimModel::prepare_session)).
    pub(crate) fn prepare_rows(&self, rows: usize) {
        if rows > IN_PLACE_MAX_ROWS {
            self.packs();
        }
    }

    /// The `W^T` packs; in an f32 session the first caller builds them all.
    fn packs(&self) -> &[PackedWeight] {
        self.packs.get_or_init(|| {
            let weights = self.values.values().filter(|v| v.slot.is_some());
            weights
                .enumerate()
                .map(|(i, v)| {
                    debug_assert_eq!(v.slot, Some(i), "slots follow name order");
                    PackedWeight::pack(&v.tensor, self.precision).expect("a slot's weight packs")
                })
                .collect()
        })
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

    /// An f32 session's short products read the weight in place; any other
    /// product of a slotted weight runs through its pack, and a weight with
    /// no slot is packed per call, as the tape packs it.
    fn linear_act(
        &self,
        x: &SessionValue,
        w: &SessionValue,
        bias: Option<&SessionValue>,
        act: Activation,
    ) -> SessionValue {
        let (x, bias) = (&x.tensor, bias.map(|b| &b.tensor));
        let in_place = self.precision == SessionPrecision::F32 && x.shape()[0] <= IN_PLACE_MAX_ROWS;
        let y = match w.slot {
            Some(_) if in_place => matmul_bias_act_in_place(x, &w.tensor, bias, act),
            slot => matmul_bias_act_cached(x, &w.tensor, slot.map(|s| &self.packs()[s]), bias, act),
        };
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
        session.packs.get().map_or(0, Vec::len)
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
        assert_eq!(resident_packs(&model.session_at(SessionPrecision::Int8)), packable);
        // An f32 session packs nothing at prepare, nor in a forward whose
        // longest product is 64 rows (16x16 at patch 2).
        let session = model.session();
        assert_eq!(resident_packs(&session), 0, "an f32 prepare packs nothing");
        let _ = model.forward(&session, &randn(&[2, 16, 16], 4), 1.0);
        assert_eq!(resident_packs(&session), 0, "a short forward reads every weight in place");
        // The first 72-token forward packs each weight once; nothing after
        // it builds another.
        let long = randn(&[2, 16, 18], 5);
        let _ = model.forward(&session, &long, 1.0);
        assert_eq!(resident_packs(&session), packable, "one pack per packable weight");
        let built = session.packs.get().map(|p| p.as_ptr());
        let _ = model.forward(&session, &long, 1.0);
        session.prepare_rows(10_000);
        assert_eq!(session.packs.get().map(|p| p.as_ptr()), built, "a second long forward builds none");
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
