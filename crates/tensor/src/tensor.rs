//! The dense `f32` tensor type.

use crate::pool::Buffer;
use crate::shape::{numel, Shape, ShapeHandle};
use std::fmt;
use std::sync::Arc;

/// Elements [`Tensor::all_finite`] checks between early exits.
const FINITE_BLOCK: usize = 1024;

/// A dense, row-major tensor of `f32` with copy-on-write storage.
///
/// Both the shape and the element buffer live behind `Arc`s: cloning a
/// tensor, reshaping, or capturing one in an autograd closure costs two
/// reference-count bumps. The first mutation of shared storage
/// ([`Tensor::data_mut`] and the `*_` in-place ops) triggers exactly one
/// copy via `Arc::make_mut`; uniquely-owned tensors mutate in place for
/// free. Buffers are drawn from and recycled to a thread-local pool
/// ([`crate::pool`]).
///
/// All kernels in this crate operate on contiguous storage; views are
/// materialized explicitly (e.g. [`Tensor::transpose2`]) which keeps every hot
/// loop a linear scan — the access pattern the perf-book guide favours.
#[derive(Clone)]
pub struct Tensor {
    shape: ShapeHandle,
    data: Arc<Buffer>,
}

impl Tensor {
    /// Build a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            numel(&shape),
            data.len(),
            "shape {:?} wants {} elements, got {}",
            shape,
            numel(&shape),
            data.len()
        );
        Self { shape: Arc::new(shape), data: Arc::new(Buffer::from_vec(data)) }
    }

    /// Like [`Tensor::from_vec`] but reusing an existing shape handle, so
    /// same-shaped results (elementwise ops, gradients) share one shape
    /// allocation.
    pub(crate) fn from_shape_handle(shape: ShapeHandle, data: Vec<f32>) -> Self {
        assert_eq!(numel(&shape), data.len(), "shape {:?} does not match data length", shape);
        Self { shape, data: Arc::new(Buffer::from_vec(data)) }
    }

    /// Build from a pooled [`Buffer`] and a shape handle.
    pub fn from_buffer(shape: ShapeHandle, buffer: Buffer) -> Self {
        assert_eq!(numel(&shape), buffer.len(), "shape {:?} does not match buffer length", shape);
        Self { shape, data: Arc::new(buffer) }
    }

    /// All-zero tensor (pool-allocated).
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        Self { shape: Arc::new(shape), data: Arc::new(Buffer::zeroed(n)) }
    }

    /// All-one tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled tensor (pool-allocated).
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        Self { shape: Arc::new(shape), data: Arc::new(Buffer::filled(n, value)) }
    }

    /// 0-d scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self { shape: Arc::new(vec![]), data: Arc::new(Buffer::from_vec(vec![value])) }
    }

    /// `[0, 1, ..., n-1]` as a 1-d tensor.
    pub fn arange(n: usize) -> Self {
        let mut data = crate::pool::alloc_uninit(n);
        for (i, x) in data.iter_mut().enumerate() {
            *x = i as f32;
        }
        Self { shape: Arc::new(vec![n]), data: Arc::new(Buffer::from_vec(data)) }
    }

    /// The shape (axis extents, outermost first).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Shared handle to the shape; pass to `Tensor::from_shape_handle` /
    /// [`Tensor::from_buffer`] to build same-shaped tensors without
    /// reallocating the extents.
    pub fn shape_handle(&self) -> ShapeHandle {
        Arc::clone(&self.shape)
    }

    /// True when `self` and `other` share the same underlying element
    /// buffer (i.e. a write to one would COW-fault). The aliasing tests'
    /// oracle.
    #[cfg(test)]
    pub(crate) fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Number of axes.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major storage.
    ///
    /// Copy-on-write point: when the buffer is shared with other tensors
    /// this clones it (one pooled allocation + memcpy); when uniquely owned
    /// it is free.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consume the tensor, returning its storage. Copies only when the
    /// buffer is shared.
    pub fn into_vec(self) -> Vec<f32> {
        match Arc::try_unwrap(self.data) {
            Ok(buf) => buf.into_vec(),
            Err(shared) => shared.as_slice().to_vec(),
        }
    }

    /// Value of a 0-d or single-element tensor.
    ///
    /// # Panics
    /// Panics when the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on tensor with {} elements", self.data.len());
        self.data[0]
    }

    /// Element at a multi-dimensional coordinate.
    pub fn at(&self, coord: &[usize]) -> f32 {
        self.data[crate::shape::ravel(coord, &self.shape)]
    }

    /// Reinterpret with a new shape of identical element count. The storage
    /// is shared, not copied.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            numel(&shape),
            self.data.len(),
            "reshape {:?} -> {:?} changes element count",
            self.shape,
            shape
        );
        Self { shape: Arc::new(shape), data: Arc::clone(&self.data) }
    }

    /// Like [`Tensor::reshape`] but consumes `self`.
    pub fn into_reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(numel(&shape), self.data.len(), "reshape changes element count");
        self.shape = Arc::new(shape);
        self
    }

    /// Apply `f` elementwise, producing a new (pool-allocated) tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Self {
        let mut out = Buffer::uninit(self.len());
        for (o, &x) in out.iter_mut().zip(self.data.iter()) {
            *o = f(x);
        }
        Self { shape: self.shape.clone(), data: Arc::new(out) }
    }

    /// In-place scalar multiply: `self *= s`.
    pub fn scale_(&mut self, s: f32) {
        for x in self.data_mut() {
            *x *= s;
        }
    }

    /// Combine two same-shaped tensors elementwise.
    ///
    /// For broadcasting semantics use the arithmetic ops in [`crate::ops`].
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape, other.shape, "zip requires identical shapes");
        let mut out = Buffer::uninit(self.len());
        for ((o, &a), &b) in out.iter_mut().zip(self.data.iter()).zip(other.data.iter()) {
            *o = f(a, b);
        }
        Self { shape: self.shape.clone(), data: Arc::new(out) }
    }

    /// True when every element is finite.
    ///
    /// Branch-free inside blocks of `FINITE_BLOCK` elements, so the scan
    /// vectorizes; a non-finite element stops it at the end of its block.
    pub fn all_finite(&self) -> bool {
        self.data.chunks(FINITE_BLOCK).all(|b| b.iter().fold(true, |ok, x| ok & x.is_finite()))
    }

    /// Maximum absolute elementwise difference against `other`.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape, other.shape);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// Assert elementwise closeness with absolute tolerance; for tests.
    pub fn assert_close(&self, other: &Self, tol: f32) {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        let d = self.max_abs_diff(other);
        assert!(d <= tol, "tensors differ by {d} > tol {tol}");
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.shape, &other.shape) || *self.shape == *other.shape)
            && (Arc::ptr_eq(&self.data, &other.data)
                || self.data.as_slice() == other.data.as_slice())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data.as_slice())
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, .., {:.4}] ({} elems)",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1],
                self.data.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.at(&[0, 2]), 3.0);
        assert_eq!(t.at(&[1, 0]), 4.0);
        assert_eq!(t.ndim(), 2);
        assert_eq!(t.len(), 6);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_bad_len_panics() {
        Tensor::from_vec(vec![2, 2], vec![1.0; 3]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6).reshape(vec![2, 3]);
        assert_eq!(t.at(&[1, 1]), 4.0);
        let back = t.into_reshape(vec![6]);
        assert_eq!(back.data(), &[0., 1., 2., 3., 4., 5.]);
    }

    #[test]
    fn reshape_shares_storage() {
        let t = Tensor::arange(6);
        let r = t.reshape(vec![2, 3]);
        assert!(t.shares_storage(&r));
    }

    #[test]
    fn clone_is_cow() {
        let a = Tensor::from_vec(vec![3], vec![1., 2., 3.]);
        let mut b = a.clone();
        assert!(a.shares_storage(&b));
        b.data_mut()[0] = 99.0;
        assert!(!a.shares_storage(&b));
        assert_eq!(a.data(), &[1., 2., 3.], "original must be untouched by clone mutation");
        assert_eq!(b.data(), &[99., 2., 3.]);
    }

    #[test]
    fn scale_in_place() {
        let mut t = Tensor::from_vec(vec![3], vec![1., -2., 4.]);
        t.scale_(0.5);
        assert_eq!(t.data(), &[0.5, -1., 2.]);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(vec![3], vec![1., 2., 3.]);
        let b = a.map(|x| x * 2.0);
        assert_eq!(b.data(), &[2., 4., 6.]);
        let c = a.zip(&b, |x, y| y - x);
        assert_eq!(c.data(), &[1., 2., 3.]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(7.5).item(), 7.5);
    }

    #[test]
    fn all_finite_finds_every_non_finite_value_anywhere() {
        // Two whole blocks and a partial one.
        let len = 2 * FINITE_BLOCK + 37;
        let finite: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin() * 1e3).collect();
        assert!(Tensor::from_vec(vec![len], finite.clone()).all_finite());
        // The first element, inside a vector, a block's last element, a
        // later block's first, and the last element of the partial block.
        let at = [0, 5, FINITE_BLOCK - 1, FINITE_BLOCK, 2 * FINITE_BLOCK + 3, len - 1];
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -f32::NAN] {
            for &i in &at {
                let mut v = finite.clone();
                v[i] = bad;
                assert!(!Tensor::from_vec(vec![len], v).all_finite(), "{bad} at {i}");
            }
        }
        // Shorter than one vector and shorter than one block.
        assert!(!Tensor::from_vec(vec![3], vec![1.0, f32::NAN, 2.0]).all_finite());
        assert!(!Tensor::from_vec(vec![100], (0..100).map(|i| if i == 99 { f32::INFINITY } else { 0.0 }).collect()).all_finite());
        assert!(Tensor::from_vec(vec![0], vec![]).all_finite());
    }

    #[test]
    fn all_finite_accepts_extreme_finite_values() {
        let extremes = [f32::MAX, f32::MIN, f32::MIN_POSITIVE, f32::from_bits(1), -f32::from_bits(0x007f_ffff), -0.0, 0.0];
        let v: Vec<f32> = extremes.iter().copied().cycle().take(FINITE_BLOCK + 11).collect();
        assert!(Tensor::from_vec(vec![v.len()], v).all_finite());
    }
}
