//! Shape and stride arithmetic shared by every kernel in the crate.
//!
//! Tensors are dense and row-major (C order). Broadcasting follows the NumPy
//! rules: trailing axes are aligned, and an axis broadcasts when either side
//! is 1.

/// A tensor shape: the extent of each axis, outermost first.
pub(crate) type Shape = Vec<usize>;

/// Shared, immutable handle to a shape. Tensors hand these out so derived
/// tensors of identical shape (elementwise results, gradients) share one
/// allocation instead of re-`to_vec`-ing the extents on every op.
pub(crate) type ShapeHandle = std::sync::Arc<Shape>;

/// Row-major strides (in elements) for a dense tensor of the given shape:
/// the stride of the last axis is 1; a zero-dim shape yields an empty vec.
/// The tests' oracle for [`broadcast_index`].
#[cfg(test)]
pub(crate) fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0; shape.len()];
    let mut acc = 1usize;
    for (i, &dim) in shape.iter().enumerate().rev() {
        strides[i] = acc;
        acc = acc.saturating_mul(dim);
    }
    strides
}

/// Total number of elements for a shape.
pub(crate) fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Broadcast two shapes together per NumPy rules.
///
/// Returns `None` when the shapes are incompatible (some axis differs and
/// neither side is 1).
pub(crate) fn broadcast_shapes(a: &[usize], b: &[usize]) -> Option<Shape> {
    let n = a.len().max(b.len());
    let mut out = vec![0usize; n];
    for i in 0..n {
        let da = if i < n - a.len() { 1 } else { a[i - (n - a.len())] };
        let db = if i < n - b.len() { 1 } else { b[i - (n - b.len())] };
        out[i] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return None;
        };
    }
    Some(out)
}

/// Convert a multi-dimensional coordinate to a flat row-major index.
pub(crate) fn ravel(coord: &[usize], shape: &[usize]) -> usize {
    debug_assert_eq!(coord.len(), shape.len());
    let mut idx = 0usize;
    for (c, d) in coord.iter().zip(shape.iter()) {
        debug_assert!(c < d, "coordinate {c} out of bounds for axis of size {d}");
        idx = idx * d + c;
    }
    idx
}

#[cfg(test)]
/// Map a flat row-major index in `out_shape` to the flat index in a tensor of
/// `src_shape` being broadcast to `out_shape`: the per-element definition of
/// broadcasting, kept as the oracle the run-based walker in `ops.rs` is
/// tested against.
///
/// `src_shape` must be broadcast-compatible with (and no longer than)
/// `out_shape`.
pub(crate) fn broadcast_index(flat: usize, out_shape: &[usize], src_shape: &[usize], src_strides: &[usize]) -> usize {
    let offset = out_shape.len() - src_shape.len();
    let mut rem = flat;
    let mut idx = 0usize;
    // Walk axes outermost-first, peeling coordinates off `flat`.
    let mut axis_size = numel(out_shape);
    for (i, &dim) in out_shape.iter().enumerate() {
        axis_size /= dim;
        let coord = rem / axis_size;
        rem %= axis_size;
        if i >= offset {
            let s = i - offset;
            if src_shape[s] != 1 {
                idx += coord * src_strides[s];
            }
        }
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_for(&[5]), vec![1]);
        assert_eq!(strides_for(&[]), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[2, 1, 4], &[3, 1]), Some(vec![2, 3, 4]));
        assert_eq!(broadcast_shapes(&[2, 3], &[4]), None);
        assert_eq!(broadcast_shapes(&[], &[2, 2]), Some(vec![2, 2]));
    }

    #[test]
    fn ravel_is_row_major() {
        let shape = [3usize, 4, 5];
        let mut flat = 0;
        for i in 0..3 {
            for j in 0..4 {
                for k in 0..5 {
                    assert_eq!(ravel(&[i, j, k], &shape), flat);
                    flat += 1;
                }
            }
        }
        assert_eq!(flat, numel(&shape));
    }

    #[test]
    fn broadcast_index_row_vector() {
        // [2,3] broadcast of a [3] row vector: column index selects element.
        let src_shape = [3usize];
        let st = strides_for(&src_shape);
        let out_shape = [2usize, 3];
        let got: Vec<usize> = (0..6).map(|f| broadcast_index(f, &out_shape, &src_shape, &st)).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn broadcast_index_column_vector() {
        let src_shape = [2usize, 1];
        let st = strides_for(&src_shape);
        let out_shape = [2usize, 3];
        let got: Vec<usize> = (0..6).map(|f| broadcast_index(f, &out_shape, &src_shape, &st)).collect();
        assert_eq!(got, vec![0, 0, 0, 1, 1, 1]);
    }
}
