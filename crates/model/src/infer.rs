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
//! ## Activation precision
//!
//! Orthogonal to the resident *weight* precision, a session prepared with
//! [`SessionActivation::Bf16`] streams its **activations** as `u16` BF16
//! words ([`Bf16Tensor`]): [`SessionValue`] carries either storage, and a
//! per-op policy table ([`SessionOp::class`]) decides what each op does with
//! its output. The uniform semantic is *widen → f32 compute → narrow*: an
//! op widens BF16 inputs exactly (every BF16 value is f32-representable),
//! computes in f32, and rounds the result back to BF16 words — except for
//! the ops the policy pins to f32 output (the image-space resamplers) and
//! the pure data movers, which preserve their input's storage. The
//! memory-bound ops never materialize the f32 middle step: the bf16 GEMM
//! ([`orbit2_tensor::qgemm`]), layer norm, softmax, GELU, residual add and
//! scale all read/write words directly and are bit-identical to the
//! widen-compute-narrow semantic by construction (see
//! [`orbit2_tensor::bf16_act`]).

use crate::exec::{Exec, RowGroups};
use orbit2_autograd::ParamStore;
use orbit2_tensor::bf16_act::{
    add_bf16, gelu_bf16, layer_norm_rows_bf16, scale_bf16, softmax_rows_bf16, Bf16Tensor,
};
use orbit2_tensor::conv::{conv2d, ConvGeom};
use orbit2_tensor::fused::{layer_norm_rows, matmul_bias_act_cached, Activation, PackedWeight};
use orbit2_tensor::matmul::packed_eligible;
use orbit2_tensor::qgemm;
use orbit2_tensor::resize::{resize, ResizeMode};
use orbit2_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Storage precision of a session's resident weights — re-exported from the
/// tensor crate so model-level callers need not name the kernel layer.
pub use orbit2_tensor::fused::WeightPrecision as SessionPrecision;

/// Storage precision of the activations flowing through a session —
/// re-exported like [`SessionPrecision`].
pub use orbit2_tensor::fused::ActivationPrecision as SessionActivation;

/// Activation storage behind a [`SessionValue`].
#[derive(Clone, Debug)]
enum Storage {
    F32(Tensor),
    Bf16(Bf16Tensor),
}

/// A value flowing through a tape-free forward pass: f32 or BF16 activation
/// storage plus, for session-resident weights, the shared `W^T` pack.
///
/// Cloning is cheap (a COW tensor handle or an `Arc` bump, plus an `Arc`
/// bump for the pack). Intermediate results carry no pack; only values
/// returned by [`Exec::param`] on a session do, which is exactly where
/// [`Exec::linear_act`] looks for it. Parameters are always `F32` storage —
/// weight precision lives in the packs, not in this enum.
#[derive(Clone, Debug)]
pub struct SessionValue {
    storage: Storage,
    pack: Option<Arc<PackedWeight>>,
}

impl SessionValue {
    fn plain(tensor: Tensor) -> Self {
        SessionValue { storage: Storage::F32(tensor), pack: None }
    }

    fn narrow(words: Bf16Tensor) -> Self {
        SessionValue { storage: Storage::Bf16(words), pack: None }
    }

    /// The value as an f32 tensor: a COW clone for f32 storage, an exact
    /// widening for BF16 storage.
    pub fn tensor(&self) -> Tensor {
        match &self.storage {
            Storage::F32(t) => t.clone(),
            Storage::Bf16(b) => b.widen(),
        }
    }

    /// Unwrap into an f32 tensor (widening BF16 storage exactly).
    pub fn into_tensor(self) -> Tensor {
        match self.storage {
            Storage::F32(t) => t,
            Storage::Bf16(b) => b.widen(),
        }
    }

    /// True when the value is held as BF16 words.
    pub fn is_bf16(&self) -> bool {
        matches!(self.storage, Storage::Bf16(_))
    }

    fn shape(&self) -> &[usize] {
        match &self.storage {
            Storage::F32(t) => t.shape(),
            Storage::Bf16(b) => b.shape(),
        }
    }
}

/// The ops a session executes, named for the activation-precision policy
/// table ([`SessionOp::class`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOp {
    /// [`Exec::constant`] — entry of fresh data into the session.
    Constant,
    /// Elementwise/broadcast adds (residual connections).
    Add,
    /// Elementwise/broadcast multiply.
    Mul,
    /// Multiply by a scalar.
    Scale,
    /// GELU activation.
    Gelu,
    /// Plain matmul.
    Matmul,
    /// `a @ b^T`.
    MatmulNt,
    /// Row softmax.
    SoftmaxLast,
    /// Axis slice.
    SliceAxis,
    /// Axis concatenation.
    Concat,
    /// Row gather.
    GatherRows,
    /// Metadata reshape.
    Reshape,
    /// Fused linear (the GEMM path).
    LinearAct,
    /// Layer norm with affine.
    LayerNorm,
    /// 2-d convolution.
    Conv2d,
    /// Bilinear resize.
    ResizeBilinear,
    /// Token-compression pooling.
    PoolRows,
    /// Token-decompression unpooling.
    UnpoolRows,
}

/// What a bf16-activation session does with an op's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Output narrows to BF16 words — the bandwidth win.
    Narrow,
    /// Output stays f32 regardless of input storage: numerically sensitive
    /// ops where rounding the result measurably moves R²/SSIM.
    PinnedF32,
    /// Output keeps the input's storage — pure data movement that neither
    /// rounds nor widens values.
    Preserve,
}

impl SessionOp {
    /// The per-op activation-precision policy.
    ///
    /// Compute ops narrow; the image-space resamplers ([`Conv2d`]
    /// (Self::Conv2d), [`ResizeBilinear`](Self::ResizeBilinear)) are pinned
    /// to f32 output — they sit on the decode and residual paths where every
    /// output pixel is a weighted blend of neighbors, and rounding those
    /// blends is where tiled SSIM degrades first; the data movers
    /// (slice/concat/gather/reshape) preserve storage since narrowing
    /// already-narrow data is the identity and widening costs bandwidth for
    /// nothing.
    pub fn class(self) -> OpClass {
        match self {
            SessionOp::Conv2d | SessionOp::ResizeBilinear => OpClass::PinnedF32,
            SessionOp::SliceAxis
            | SessionOp::Concat
            | SessionOp::GatherRows
            | SessionOp::Reshape => OpClass::Preserve,
            _ => OpClass::Narrow,
        }
    }
}

/// Tape-free execution context holding session-resident weights and packs.
pub struct InferenceSession {
    values: BTreeMap<String, SessionValue>,
    precision: SessionPrecision,
    activation: SessionActivation,
}

impl InferenceSession {
    /// Snapshot a parameter store for inference, packing every eligible
    /// linear weight (2-d, enough output features for the packed
    /// microkernel) exactly once. Biases, layer-norm gains and conv
    /// kernels are held unpacked — no GEMM ever consumes them as `B`.
    pub fn prepare(store: &ParamStore) -> Self {
        Self::prepare_at(store, SessionPrecision::F32)
    }

    /// [`prepare`](Self::prepare) at a reduced weight precision, activations
    /// staying f32.
    pub fn prepare_at(store: &ParamStore, precision: SessionPrecision) -> Self {
        Self::prepare_with(store, precision, SessionActivation::F32)
    }

    /// Snapshot a parameter store at a weight precision *and* an activation
    /// precision.
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
    ///
    /// Parameters always enter ops at full resident precision regardless of
    /// `activation` (they are `F32` storage); the activation knob governs
    /// only the values flowing *between* ops.
    pub fn prepare_with(
        store: &ParamStore,
        precision: SessionPrecision,
        activation: SessionActivation,
    ) -> Self {
        let values = store
            .iter()
            .map(|(name, t)| {
                let value = match precision {
                    SessionPrecision::F32 => {
                        let pack = PackedWeight::pack(t).map(Arc::new);
                        SessionValue { storage: Storage::F32(t.clone()), pack }
                    }
                    SessionPrecision::Bf16 => {
                        let rounded = t.to_bf16();
                        let pack = PackedWeight::pack_at(&rounded, precision).map(Arc::new);
                        SessionValue { storage: Storage::F32(rounded), pack }
                    }
                    SessionPrecision::Int8 => match PackedWeight::pack_at(t, precision) {
                        Some(pack) => {
                            let tensor = pack.dequantized().expect("int8 pack dequantizes");
                            SessionValue {
                                storage: Storage::F32(tensor),
                                pack: Some(Arc::new(pack)),
                            }
                        }
                        None => SessionValue::plain(t.clone()),
                    },
                };
                (name.clone(), value)
            })
            .collect();
        Self { values, precision, activation }
    }

    /// The weight precision this session was prepared at.
    pub fn precision(&self) -> SessionPrecision {
        self.precision
    }

    /// The activation precision this session streams at.
    pub fn activation(&self) -> SessionActivation {
        self.activation
    }

    /// Number of weights with a resident pack.
    pub fn packed_weights(&self) -> usize {
        self.values.values().filter(|v| v.pack.is_some()).count()
    }

    /// Apply the policy table to a freshly computed f32 result: narrow it
    /// when this is a bf16-activation session and the op's class says so.
    fn finish(&self, op: SessionOp, t: Tensor) -> SessionValue {
        match (self.activation, op.class()) {
            (SessionActivation::Bf16, OpClass::Narrow) => {
                SessionValue::narrow(Bf16Tensor::from_tensor(&t))
            }
            _ => SessionValue::plain(t),
        }
    }

    /// Data-mover output: keep the input's storage. `like_bf16` is the input
    /// storage; the narrow is lossless because `t` holds bf16-valued data.
    fn preserve(&self, like_bf16: bool, t: Tensor) -> SessionValue {
        if like_bf16 {
            SessionValue::narrow(Bf16Tensor::from_tensor(&t))
        } else {
            SessionValue::plain(t)
        }
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
        self.finish(SessionOp::Constant, t)
    }

    fn tensor(&self, v: &SessionValue) -> Tensor {
        v.tensor()
    }

    fn shape(&self, v: &SessionValue) -> Vec<usize> {
        v.shape().to_vec()
    }

    fn add(&self, a: &SessionValue, b: &SessionValue) -> SessionValue {
        if let (Storage::Bf16(ba), Storage::Bf16(bb)) = (&a.storage, &b.storage) {
            if ba.shape() == bb.shape() {
                let sum = add_bf16(ba.words(), bb.words());
                return SessionValue::narrow(Bf16Tensor::from_words(ba.shape().to_vec(), sum));
            }
        }
        self.finish(SessionOp::Add, a.tensor().add(&b.tensor()))
    }

    fn mul(&self, a: &SessionValue, b: &SessionValue) -> SessionValue {
        self.finish(SessionOp::Mul, a.tensor().mul(&b.tensor()))
    }

    fn scale(&self, a: &SessionValue, s: f32) -> SessionValue {
        if let Storage::Bf16(b) = &a.storage {
            let out = scale_bf16(b.words(), s);
            return SessionValue::narrow(Bf16Tensor::from_words(b.shape().to_vec(), out));
        }
        self.finish(SessionOp::Scale, a.tensor().mul_scalar(s))
    }

    fn gelu(&self, a: &SessionValue) -> SessionValue {
        if let Storage::Bf16(b) = &a.storage {
            let out = gelu_bf16(b.words());
            return SessionValue::narrow(Bf16Tensor::from_words(b.shape().to_vec(), out));
        }
        self.finish(SessionOp::Gelu, a.tensor().gelu())
    }

    fn matmul(&self, a: &SessionValue, b: &SessionValue) -> SessionValue {
        self.finish(SessionOp::Matmul, a.tensor().matmul(&b.tensor()))
    }

    fn matmul_nt(&self, a: &SessionValue, b: &SessionValue) -> SessionValue {
        self.finish(SessionOp::MatmulNt, a.tensor().matmul_nt(&b.tensor()))
    }

    fn softmax_last(&self, a: &SessionValue) -> SessionValue {
        if let Storage::Bf16(b) = &a.storage {
            let inner = *b.shape().last().expect("softmax on 0-d value");
            let mut words = b.words().to_vec();
            softmax_rows_bf16(&mut words, inner);
            return SessionValue::narrow(Bf16Tensor::from_words(b.shape().to_vec(), words));
        }
        self.finish(SessionOp::SoftmaxLast, a.tensor().softmax_last())
    }

    fn slice_axis(&self, a: &SessionValue, axis: usize, start: usize, len: usize) -> SessionValue {
        self.preserve(a.is_bf16(), a.tensor().slice_axis(axis, start, len))
    }

    fn concat(&self, parts: &[SessionValue], axis: usize) -> SessionValue {
        let tensors: Vec<Tensor> = parts.iter().map(|p| p.tensor()).collect();
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let all_bf16 = !parts.is_empty() && parts.iter().all(SessionValue::is_bf16);
        self.preserve(all_bf16, Tensor::concat(&refs, axis))
    }

    fn gather_rows(&self, a: &SessionValue, indices: Vec<usize>) -> SessionValue {
        self.preserve(a.is_bf16(), a.tensor().gather_rows(&indices))
    }

    fn reshape(&self, a: &SessionValue, shape: Vec<usize>) -> SessionValue {
        match &a.storage {
            Storage::Bf16(b) => SessionValue::narrow(b.reshape(shape)),
            Storage::F32(t) => SessionValue::plain(t.reshape(shape)),
        }
    }

    fn linear_act(
        &self,
        x: &SessionValue,
        w: &SessionValue,
        bias: Option<&SessionValue>,
        act: Activation,
    ) -> SessionValue {
        // BF16 activations against a resident reduced pack stream words on
        // both sides of the GEMM — no f32 copy of A or C ever exists. The
        // eligibility gate is the same `packed_eligible` the f32 cached path
        // uses, so per-sample and batched rows take the same branch exactly
        // when `exec::linear_rows`' branch-parity check says they may stack.
        if let Storage::Bf16(xa) = &x.storage {
            if xa.ndim() == 2 {
                let (m, kx) = (xa.shape()[0], xa.shape()[1]);
                let bt = bias.map(|b| b.tensor());
                let bd = bt.as_ref().map(|b| b.data());
                match w.pack.as_deref() {
                    Some(PackedWeight::Bf16(pw))
                        if kx == pw.k() && packed_eligible(m, kx, pw.n()) =>
                    {
                        let mut out = vec![0u16; m * pw.n()];
                        qgemm::gemm_bf16_act_fused(xa.words(), m, kx, pw, bd, act, &mut out);
                        return SessionValue::narrow(Bf16Tensor::from_words(
                            vec![m, pw.n()],
                            out,
                        ));
                    }
                    Some(PackedWeight::I8(pw))
                        if kx == pw.k() && packed_eligible(m, kx, pw.n()) =>
                    {
                        let mut out = vec![0u16; m * pw.n()];
                        qgemm::gemm_i8_act_fused(xa.words(), m, kx, pw, bd, act, &mut out);
                        return SessionValue::narrow(Bf16Tensor::from_words(
                            vec![m, pw.n()],
                            out,
                        ));
                    }
                    _ => {}
                }
            }
        }
        let xt = x.tensor();
        let wt = w.tensor();
        let bt = bias.map(|b| b.tensor());
        let y = matmul_bias_act_cached(&xt, &wt, w.pack.as_deref(), bt.as_ref(), act);
        self.finish(SessionOp::LinearAct, y)
    }

    fn layer_norm(
        &self,
        x: &SessionValue,
        gamma: &SessionValue,
        beta: &SessionValue,
        eps: f32,
    ) -> SessionValue {
        if let Storage::Bf16(b) = &x.storage {
            // The single-code-path bf16 kernel *defines* the bf16-activation
            // layer norm (the f32 kernel's statistics are SIMD-mode
            // dependent; this one is not), with the affine fused into the
            // narrow-write pass.
            let d = *b.shape().last().expect("layer_norm on 0-d value");
            let rows = b.len() / d;
            let (g, be) = (gamma.tensor(), beta.tensor());
            let out = layer_norm_rows_bf16(b.words(), rows, d, eps, g.data(), be.data());
            return SessionValue::narrow(Bf16Tensor::from_words(b.shape().to_vec(), out));
        }
        let v = x.tensor();
        let last = v.ndim() - 1;
        let d = v.shape()[last];
        let rows = v.len() / d;
        let (norm, _inv_std) = layer_norm_rows(v.data(), rows, d, eps);
        let norm_t = Tensor::from_vec(v.shape().to_vec(), norm);
        self.finish(SessionOp::LayerNorm, norm_t.mul(&gamma.tensor()).add(&beta.tensor()))
    }

    fn conv2d(
        &self,
        x: &SessionValue,
        w: &SessionValue,
        bias: Option<&SessionValue>,
        geom: ConvGeom,
    ) -> SessionValue {
        let (xt, wt) = (x.tensor(), w.tensor());
        let bt = bias.map(|b| b.tensor());
        self.finish(SessionOp::Conv2d, conv2d(&xt, &wt, bt.as_ref(), geom))
    }

    fn resize_bilinear(&self, x: &SessionValue, out_h: usize, out_w: usize) -> SessionValue {
        self.finish(
            SessionOp::ResizeBilinear,
            resize(&x.tensor(), out_h, out_w, ResizeMode::Bilinear),
        )
    }

    fn pool_rows(&self, x: &SessionValue, groups: &RowGroups) -> SessionValue {
        self.finish(SessionOp::PoolRows, x.tensor().pool_rows(groups))
    }

    fn unpool_rows(&self, x: &SessionValue, groups: &RowGroups, total_rows: usize) -> SessionValue {
        self.finish(SessionOp::UnpoolRows, x.tensor().unpool_rows(groups, total_rows))
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
        let session = InferenceSession::prepare(&store);
        let expected = if orbit2_tensor::simd::enabled() { 1 } else { 0 };
        assert_eq!(session.packed_weights(), expected);
        assert_eq!(session.activation(), SessionActivation::F32);
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
        use orbit2_tensor::fused::{PackedWeight, WeightPrecision};
        let mut store = ParamStore::new();
        store.insert("mlp.w1", randn(&[64, 32], 1));
        store.insert("bias", randn(&[64], 2));
        let session = InferenceSession::prepare_at(&store, SessionPrecision::Int8);
        let w = session.param("mlp.w1");
        let pw = PackedWeight::pack_at(store.get("mlp.w1"), WeightPrecision::Int8).unwrap();
        w.tensor().assert_close(&pw.dequantized().unwrap(), 0.0);
        // Non-packable parameters stay f32 untouched in an int8 session.
        session.param("bias").tensor().assert_close(store.get("bias"), 0.0);
    }

    #[test]
    fn policy_table_pins_resamplers_and_preserves_movers() {
        for op in [
            SessionOp::Add,
            SessionOp::LinearAct,
            SessionOp::LayerNorm,
            SessionOp::SoftmaxLast,
            SessionOp::Gelu,
            SessionOp::PoolRows,
            SessionOp::Constant,
        ] {
            assert_eq!(op.class(), OpClass::Narrow, "{op:?}");
        }
        assert_eq!(SessionOp::Conv2d.class(), OpClass::PinnedF32);
        assert_eq!(SessionOp::ResizeBilinear.class(), OpClass::PinnedF32);
        for op in
            [SessionOp::SliceAxis, SessionOp::Concat, SessionOp::GatherRows, SessionOp::Reshape]
        {
            assert_eq!(op.class(), OpClass::Preserve, "{op:?}");
        }
    }

    #[test]
    fn bf16_session_ops_follow_policy() {
        let mut store = ParamStore::new();
        store.insert("w", randn(&[32, 16], 1));
        store.insert("conv.w", randn(&[2, 3, 3, 3], 2));
        let session =
            InferenceSession::prepare_with(&store, SessionPrecision::F32, SessionActivation::Bf16);
        assert_eq!(session.activation(), SessionActivation::Bf16);

        // Constants narrow on entry (that IS the activation quantization).
        let c = session.constant(randn(&[4, 16], 3));
        assert!(c.is_bf16());
        // Round-trip through f32 is exact once narrowed.
        let again = session.constant(c.tensor());
        assert_eq!(c.tensor().data(), again.tensor().data());

        // Compute ops narrow...
        assert!(session.add(&c, &c).is_bf16());
        assert!(session.gelu(&c).is_bf16());
        assert!(session.scale(&c, 0.5).is_bf16());
        assert!(session.softmax_last(&c).is_bf16());
        let w = session.param("w");
        assert!(!w.is_bf16(), "params stay f32 storage");
        assert!(session.linear_act(&c, &w, None, Activation::Identity).is_bf16());

        // ...data movers preserve...
        assert!(session.slice_axis(&c, 0, 0, 2).is_bf16());
        assert!(session.reshape(&c, vec![16, 4]).is_bf16());
        assert!(session.gather_rows(&c, vec![0, 1]).is_bf16());
        assert!(session.concat(&[c.clone(), c], 0).is_bf16());

        // ...and the resamplers pin to f32.
        let img = session.constant(randn(&[1, 3, 8, 8], 4));
        let cw = session.param("conv.w");
        assert!(!session.conv2d(&img, &cw, None, ConvGeom::same(3)).is_bf16());
        assert!(!session.resize_bilinear(&img, 16, 16).is_bf16());
    }

    #[test]
    fn f32_session_never_narrows() {
        let store = ParamStore::new();
        let session = InferenceSession::prepare(&store);
        let c = session.constant(randn(&[4, 16], 5));
        assert!(!c.is_bf16());
        assert!(!session.add(&c, &c).is_bf16());
        assert!(!session.softmax_last(&c).is_bf16());
    }

    #[test]
    fn bf16_linear_native_path_matches_widened_fallback() {
        use orbit2_tensor::bf16_act::Bf16Tensor;
        // Both weight precisions with a bf16 activation input: the native
        // words-in/words-out GEMM must agree bitwise with widening the input
        // and narrowing the f32 result (the uniform op semantic).
        let mut store = ParamStore::new();
        store.insert("w", randn(&[48, 40], 11));
        store.insert("b", randn(&[48], 12));
        for wp in [SessionPrecision::Bf16, SessionPrecision::Int8] {
            let session =
                InferenceSession::prepare_with(&store, wp, SessionActivation::Bf16);
            let x = session.constant(randn(&[9, 40], 13));
            assert!(x.is_bf16());
            let w = session.param("w");
            let b = session.param("b");
            let y = session.linear_act(&x, &w, Some(&b), Activation::Gelu);
            let y_ref = matmul_bias_act_cached(
                &x.tensor(),
                &w.tensor(),
                w.pack.as_deref(),
                Some(&b.tensor()),
                Activation::Gelu,
            );
            let expect = Bf16Tensor::from_tensor(&y_ref);
            let got = Bf16Tensor::from_tensor(&y.tensor());
            assert_eq!(got.words(), expect.words(), "{wp:?}");
        }
    }
}
