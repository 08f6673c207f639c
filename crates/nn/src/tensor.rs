//! Dense `f32` tensors with NCHW conventions.

/// A dense row-major tensor of up to four dimensions.
///
/// Convolutional layers interpret 4-D tensors as `[N, C, H, W]`; linear
/// layers interpret 2-D tensors as `[N, features]`.
///
/// ```
/// use ganopc_nn::Tensor;
/// let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.at(&[1, 2]), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// An all-zero tensor.
    ///
    /// # Panics
    ///
    /// Panics on an empty shape or any zero dimension.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = check_shape(shape);
        Tensor { shape: shape.to_vec(), data: vec![0.0; len] }
    }

    /// A tensor filled with `value`.
    pub fn filled(shape: &[usize], value: f32) -> Self {
        let len = check_shape(shape);
        Tensor { shape: shape.to_vec(), data: vec![value; len] }
    }

    /// Wraps a buffer.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` disagrees with the shape product.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let len = check_shape(shape);
        assert_eq!(data.len(), len, "tensor buffer size mismatch");
        Tensor { shape: shape.to_vec(), data }
    }

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor has no elements (never for valid
    /// tensors).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of the flat buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the flat buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element by multi-index.
    ///
    /// # Panics
    ///
    /// Panics on rank or bound violations.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Writes an element by multi-index.
    ///
    /// # Panics
    ///
    /// Panics on rank or bound violations.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.flat_index(index);
        self.data[i] = value;
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "tensor rank mismatch");
        let mut flat = 0usize;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            assert!(ix < dim, "index {ix} out of bounds for dim {i} (size {dim})");
            flat = flat * dim + ix;
        }
        flat
    }

    /// Interprets as `[N, C, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 4-D.
    pub fn dims4(&self) -> (usize, usize, usize, usize) {
        assert_eq!(self.shape.len(), 4, "expected a 4-D tensor, got {:?}", self.shape);
        (self.shape[0], self.shape[1], self.shape[2], self.shape[3])
    }

    /// Interprets as `[N, F]`.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D.
    pub fn dims2(&self) -> (usize, usize) {
        assert_eq!(self.shape.len(), 2, "expected a 2-D tensor, got {:?}", self.shape);
        (self.shape[0], self.shape[1])
    }

    /// Reshapes without copying.
    ///
    /// # Panics
    ///
    /// Panics when the element counts disagree.
    pub fn reshape(mut self, shape: &[usize]) -> Tensor {
        let len = check_shape(shape);
        assert_eq!(len, self.data.len(), "reshape changes element count");
        self.shape = shape.to_vec();
        self
    }

    /// Resizes in place to `shape`, reusing the existing buffer capacity.
    /// Contents are unspecified afterwards — every caller is expected to
    /// overwrite the buffer. Once a tensor has been resized to its largest
    /// shape, further `resize` calls never touch the allocator.
    ///
    /// # Panics
    ///
    /// Panics on an empty shape or any zero dimension.
    pub fn resize(&mut self, shape: &[usize]) {
        let len = check_shape(shape);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(len, 0.0);
    }

    /// Reinterprets the shape in place without touching the data — the
    /// buffer-reusing counterpart of [`Tensor::reshape`].
    ///
    /// # Panics
    ///
    /// Panics when the element counts disagree.
    pub fn set_shape(&mut self, shape: &[usize]) {
        let len = check_shape(shape);
        assert_eq!(len, self.data.len(), "reshape changes element count");
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Copies shape and contents from `src`, reusing this tensor's capacity.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.resize(&src.shape);
        self.data.copy_from_slice(&src.data);
    }

    /// In-place `self *= s`.
    pub fn scale_assign(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Sum of elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f32 {
        // A compare, not `f32::max`: under `-C target-cpu=native` (AVX-512)
        // rustc 1.95 inlined an `f32::max` fold over a 3-element tensor into
        // a two-lane path that skipped the third element unless a lane was
        // NaN (`tests::arithmetic`). Same result for every input: `m` is
        // never NaN.
        self.data.iter().fold(0.0f32, |m, &v| if v.abs() > m { v.abs() } else { m })
    }

    /// Concatenates tensors along the channel axis (dim 1) into `self`,
    /// resizing it in place — builds the `(Z_t, M)` pair input of the
    /// GAN-OPC discriminator.
    ///
    /// # Panics
    ///
    /// Panics unless all tensors are 4-D and agree on `N, H, W`, or when
    /// `self` aliases one of the parts (enforced by borrow rules).
    pub fn concat_channels_into(&mut self, parts: &[&Tensor]) {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let (n, _, h, w) = parts[0].dims4();
        let total_c: usize = parts
            .iter()
            .map(|p| {
                let (pn, pc, ph, pw) = p.dims4();
                assert_eq!((pn, ph, pw), (n, h, w), "concat dims mismatch");
                pc
            })
            .sum();
        self.resize(&[n, total_c, h, w]);
        let plane = h * w;
        for ni in 0..n {
            let mut c0 = 0usize;
            for p in parts {
                let pc = p.shape()[1];
                let src = &p.data[ni * pc * plane..(ni + 1) * pc * plane];
                let dst_start = (ni * total_c + c0) * plane;
                self.data[dst_start..dst_start + pc * plane].copy_from_slice(src);
                c0 += pc;
            }
        }
    }

    /// Copies channels `[c0, c0 + count)` of a 4-D tensor into `out`
    /// (resized in place) — the inverse of
    /// [`Tensor::concat_channels_into`] for one channel group.
    ///
    /// # Panics
    ///
    /// Panics when the channel range is out of bounds.
    pub fn extract_channels_into(&self, c0: usize, count: usize, out: &mut Tensor) {
        let (n, c, h, w) = self.dims4();
        assert!(count > 0 && c0 + count <= c, "channel range {c0}..{} out of {c}", c0 + count);
        out.resize(&[n, count, h, w]);
        let plane = h * w;
        for ni in 0..n {
            let src_start = (ni * c + c0) * plane;
            let dst_start = ni * count * plane;
            out.data[dst_start..dst_start + count * plane]
                .copy_from_slice(&self.data[src_start..src_start + count * plane]);
        }
    }
}

fn check_shape(shape: &[usize]) -> usize {
    assert!(!shape.is_empty(), "tensor shape cannot be empty");
    assert!(shape.iter().all(|&d| d > 0), "zero-sized tensor dimension in {shape:?}");
    shape.iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul_into, matmul_nt_into, matmul_tn_into};

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_vec(&[2, 2, 2], (0..8).map(|i| i as f32).collect());
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[1, 0, 1]), 5.0);
        assert_eq!(t.at(&[1, 1, 1]), 7.0);
        assert_eq!(t.len(), 8);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_out_of_bounds() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn at_wrong_rank() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[0]);
    }

    #[test]
    fn arithmetic() {
        let a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let mut c = a.clone();
        c.scale_assign(2.0);
        assert_eq!(c.as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 2.0);
        c.scale_assign(-0.5);
        assert_eq!(c.max_abs(), 3.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect());
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    #[should_panic(expected = "reshape changes element count")]
    fn reshape_rejects_bad_count() {
        let _ = Tensor::zeros(&[2, 3]).reshape(&[4, 2]);
    }

    #[test]
    fn concat_and_split_roundtrip() {
        let a = Tensor::from_vec(&[2, 1, 2, 2], (0..8).map(|i| i as f32).collect());
        let b = Tensor::from_vec(&[2, 2, 2, 2], (100..116).map(|i| i as f32).collect());
        let mut cat = Tensor::zeros(&[1]);
        cat.concat_channels_into(&[&a, &b]);
        assert_eq!(cat.shape(), &[2, 3, 2, 2]);
        // Batch 0 channel 0 comes from a, channels 1-2 from b.
        assert_eq!(cat.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(cat.at(&[0, 1, 0, 0]), 100.0);
        assert_eq!(cat.at(&[1, 0, 0, 0]), 4.0);
        assert_eq!(cat.at(&[1, 2, 1, 1]), 115.0);
        let mut part = Tensor::zeros(&[1]);
        cat.extract_channels_into(0, 1, &mut part);
        assert_eq!(part, a);
        cat.extract_channels_into(1, 2, &mut part);
        assert_eq!(part, b);
    }

    #[test]
    fn matmul_reference() {
        // [2x3] · [3x2]
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut c = vec![f32::NAN; 4];
        matmul_into(&mut c, &a, &b, 2, 3, 2);
        assert_eq!(c, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transposed_variants_agree() {
        let m = 3;
        let k = 4;
        let n = 2;
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.3).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut c = vec![f32::NAN; m * n];
        matmul_into(&mut c, &a, &b, m, k, n);
        // Build Aᵀ stored [k×m] and check the TN layout reproduces C.
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let mut c2 = vec![f32::NAN; m * n];
        matmul_tn_into(&mut c2, &at, &b, m, k, n);
        assert_eq!(c2, c);
        // Build Bᵀ stored [n×k] and check the NT layout reproduces C.
        let mut bt = vec![0.0f32; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        c2.fill(f32::NAN);
        matmul_nt_into(&mut c2, &a, &bt, m, k, n);
        for (x, y) in c.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "zero-sized tensor dimension")]
    fn zero_dim_rejected() {
        let _ = Tensor::zeros(&[2, 0, 2]);
    }
}
