//! 2-D convolution and transposed convolution.
//!
//! Both layers lower to GEMM via im2col/col2im per batch sample; the
//! per-sample work is independent, so forward and backward fan the samples
//! out over [`crate::pool`]. Weight and bias gradients land in per-sample
//! scratch vectors owned by the layer and are reduced sequentially in
//! sample order, which keeps training bit-identical across thread counts.
//! Column matrices and gradient partials all live in layer-owned scratch
//! reused across steps, so the `_into` entry points perform no steady-state
//! heap allocation.

use super::{col2im_into, conv_out_size, deconv_out_size, im2col_into, Layer, Param};
use crate::gemm::{matmul_into, matmul_nt_into, matmul_tn_into};
use crate::{init, pool, Tensor};

/// Grows `bufs` to one scratch vector per batch sample, preserving already
/// allocated capacity.
fn per_sample_scratch(bufs: &mut Vec<Vec<f32>>, n: usize) {
    if bufs.len() < n {
        bufs.resize_with(n, Vec::new);
    }
}

/// Sizes a scratch vector to exactly `len` elements, reusing its capacity.
/// Contents are unspecified — every caller overwrites the buffer (the GEMM
/// `_into` kernels zero-fill their destination themselves).
fn fit(buf: &mut Vec<f32>, len: usize) {
    buf.resize(len, 0.0);
}

/// 2-D convolution over `[N, C, H, W]` tensors.
///
/// Weight layout is `[out_ch, in_ch, k, k]`; He-normal initialized from the
/// given seed; bias starts at zero. Stride/padding follow the usual
/// deep-learning (flooring) conventions.
///
/// ```
/// use ganopc_nn::{layers::{Conv2d, Layer}, Tensor};
/// let mut conv = Conv2d::new(3, 8, 4, 2, 1, 42); // halves H and W
/// let y = conv.forward(&Tensor::zeros(&[1, 3, 16, 16]), true);
/// assert_eq!(y.shape(), &[1, 8, 8, 8]);
/// ```
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    weight: Param,
    bias: Param,
    /// Cached per-batch-item column matrices from the last forward (reused
    /// as scratch across steps).
    cache_cols: Vec<Vec<f32>>,
    /// Per-batch-item scratch for the backward column gradients.
    scratch_dcols: Vec<Vec<f32>>,
    /// Per-batch-item scratch for the weight-gradient partials.
    scratch_dw: Vec<Vec<f32>>,
    /// Per-batch-item scratch for the bias-gradient partials.
    scratch_db: Vec<Vec<f32>>,
    cache_in_shape: Option<(usize, usize, usize, usize)>,
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// # Panics
    ///
    /// Panics on zero channels, kernel or stride.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        assert!(in_ch > 0 && out_ch > 0 && k > 0 && stride > 0, "degenerate conv geometry");
        Conv2d {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            weight: Param::new(init::he_normal(&[out_ch, in_ch, k, k], seed)),
            bias: Param::new(Tensor::zeros(&[out_ch])),
            cache_cols: Vec::new(),
            scratch_dcols: Vec::new(),
            scratch_dw: Vec::new(),
            scratch_db: Vec::new(),
            cache_in_shape: None,
        }
    }

    /// Output shape for a given input shape.
    pub fn output_shape(&self, n: usize, h: usize, w: usize) -> [usize; 4] {
        [
            n,
            self.out_ch,
            conv_out_size(h, self.k, self.stride, self.pad),
            conv_out_size(w, self.k, self.stride, self.pad),
        ]
    }

    /// Adds each per-sample weight/bias partial into the parameter
    /// gradients, in sample order (thread-count-independent bits).
    fn reduce_partials(&mut self, n: usize) {
        for (dw, db) in self.scratch_dw.iter().take(n).zip(self.scratch_db.iter().take(n)) {
            for (g, d) in self.weight.grad.as_mut_slice().iter_mut().zip(dw) {
                *g += d;
            }
            for (g, d) in self.bias.grad.as_mut_slice().iter_mut().zip(db) {
                *g += d;
            }
        }
    }
}

impl Layer for Conv2d {
    // lint: hot-path
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, _train: bool) {
        let (n, c, h, w) = input.dims4();
        assert_eq!(c, self.in_ch, "Conv2d expects {} input channels, got {c}", self.in_ch);
        let oh = conv_out_size(h, self.k, self.stride, self.pad);
        let ow = conv_out_size(w, self.k, self.stride, self.pad);
        let ckk = self.in_ch * self.k * self.k;
        let plane = oh * ow;
        let (k, stride, pad, out_ch) = (self.k, self.stride, self.pad, self.out_ch);
        out.resize(&[n, out_ch, oh, ow]);
        per_sample_scratch(&mut self.cache_cols, n);
        let weight = self.weight.value.as_slice();
        let bias = self.bias.value.as_slice();
        let input_data = input.as_slice();
        let cols_v = pool::DisjointMut::new(&mut self.cache_cols[..n]);
        let out_v = pool::DisjointMut::new(out.as_mut_slice());
        pool::run_chunks(n, |samples| {
            for ni in samples {
                // SAFETY: run_chunks sample ranges partition 0..n, so this
                // chunk exclusively owns sample ni's scratch and output plane.
                let (cols, dst) = unsafe {
                    (
                        cols_v.index_mut(ni),
                        out_v.slice_mut(ni * out_ch * plane..(ni + 1) * out_ch * plane),
                    )
                };
                let img = &input_data[ni * c * h * w..][..c * h * w];
                im2col_into(cols, img, c, h, w, k, stride, pad);
                matmul_into(dst, weight, cols, out_ch, ckk, plane);
                for (drow, &b) in dst.chunks_mut(plane).zip(bias) {
                    for v in drow {
                        *v += b;
                    }
                }
            }
        });
        self.cache_in_shape = Some((n, c, h, w));
    }

    // lint: hot-path
    fn backward_into(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        // PANIC: Layer contract — backward runs only after forward cached state.
        let (n, c, h, w) = self.cache_in_shape.expect("backward before forward");
        let (gn, gc, oh, ow) = grad_out.dims4();
        assert_eq!((gn, gc), (n, self.out_ch), "grad_out batch/channel mismatch");
        let ckk = self.in_ch * self.k * self.k;
        let plane = oh * ow;
        let (k, stride, pad, out_ch) = (self.k, self.stride, self.pad, self.out_ch);
        per_sample_scratch(&mut self.scratch_dw, n);
        per_sample_scratch(&mut self.scratch_db, n);
        let weight = self.weight.value.as_slice();
        let grad_out_data = grad_out.as_slice();
        let cache_cols = &self.cache_cols;
        // dW_ni = gO · colsᵀ ; cols is [ckk × plane], gO is [oc × plane];
        // db_ni = Σ_spatial gO. Partials land in per-sample scratch.
        let sample_params = |ni: usize, dw: &mut Vec<f32>, db: &mut Vec<f32>| {
            let go = &grad_out_data[ni * out_ch * plane..][..out_ch * plane];
            let cols = &cache_cols[ni];
            fit(dw, out_ch * ckk);
            matmul_nt_into(dw, go, cols, out_ch, plane, ckk);
            db.clear();
            db.extend(go.chunks_exact(plane).map(|row| row.iter().sum::<f32>()));
        };
        let dw_v = pool::DisjointMut::new(&mut self.scratch_dw[..n]);
        let db_v = pool::DisjointMut::new(&mut self.scratch_db[..n]);
        match grad_in {
            Some(gi_t) => {
                gi_t.resize(&[n, c, h, w]);
                per_sample_scratch(&mut self.scratch_dcols, n);
                let dcols_v = pool::DisjointMut::new(&mut self.scratch_dcols[..n]);
                let gi_v = pool::DisjointMut::new(gi_t.as_mut_slice());
                let plane_in = c * h * w;
                pool::run_chunks(n, |samples| {
                    for ni in samples {
                        // SAFETY: run_chunks sample ranges partition 0..n, so
                        // this chunk exclusively owns sample ni's scratch
                        // slots and grad_in plane.
                        let (dcols, dw, db, gi) = unsafe {
                            (
                                dcols_v.index_mut(ni),
                                dw_v.index_mut(ni),
                                db_v.index_mut(ni),
                                gi_v.slice_mut(ni * plane_in..(ni + 1) * plane_in),
                            )
                        };
                        sample_params(ni, dw, db);
                        // d cols = Wᵀ · gO; W stored [oc × ckk]; fold back onto
                        // the input grid directly in this sample's grad_in slice.
                        let go = &grad_out_data[ni * out_ch * plane..][..out_ch * plane];
                        fit(dcols, ckk * plane);
                        matmul_tn_into(dcols, weight, go, ckk, out_ch, plane);
                        col2im_into(gi, dcols, c, h, w, k, stride, pad);
                    }
                });
            }
            // Discard path (first layer): parameter gradients only.
            None => {
                pool::run_chunks(n, |samples| {
                    for ni in samples {
                        // SAFETY: run_chunks sample ranges partition 0..n, so
                        // this chunk exclusively owns sample ni's scratch slots.
                        let (dw, db) = unsafe { (dw_v.index_mut(ni), db_v.index_mut(ni)) };
                        sample_params(ni, dw, db);
                    }
                });
            }
        }
        self.reduce_partials(n);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn describe(&self) -> String {
        format!(
            "Conv2d({}→{}, k={}, s={}, p={})",
            self.in_ch, self.out_ch, self.k, self.stride, self.pad
        )
    }
}

/// 2-D transposed convolution ("deconvolution", the decoder upsampling
/// operation of Fig. 3/4 in the paper).
///
/// Weight layout is `[in_ch, out_ch, k, k]` (mirroring the usual
/// transposed-conv convention); output size is `(in−1)·s − 2p + k`.
///
/// ```
/// use ganopc_nn::{layers::{ConvTranspose2d, Layer}, Tensor};
/// let mut up = ConvTranspose2d::new(8, 4, 4, 2, 1, 7); // doubles H and W
/// let y = up.forward(&Tensor::zeros(&[1, 8, 8, 8]), true);
/// assert_eq!(y.shape(), &[1, 4, 16, 16]);
/// ```
pub struct ConvTranspose2d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    weight: Param,
    bias: Param,
    /// Persistent copy of the last forward input (reused across steps).
    cache_input: Option<Tensor>,
    /// Per-batch-item scratch for the forward column matrices.
    scratch_cols: Vec<Vec<f32>>,
    /// Per-batch-item scratch for the backward column gradients.
    scratch_gcols: Vec<Vec<f32>>,
    /// Per-batch-item scratch for the weight-gradient partials.
    scratch_dw: Vec<Vec<f32>>,
    /// Per-batch-item scratch for the bias-gradient partials.
    scratch_db: Vec<Vec<f32>>,
}

impl ConvTranspose2d {
    /// Creates a transposed-convolution layer.
    ///
    /// # Panics
    ///
    /// Panics on zero channels, kernel or stride.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        assert!(in_ch > 0 && out_ch > 0 && k > 0 && stride > 0, "degenerate deconv geometry");
        ConvTranspose2d {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            weight: Param::new(init::he_normal(&[in_ch, out_ch, k, k], seed)),
            bias: Param::new(Tensor::zeros(&[out_ch])),
            cache_input: None,
            scratch_cols: Vec::new(),
            scratch_gcols: Vec::new(),
            scratch_dw: Vec::new(),
            scratch_db: Vec::new(),
        }
    }

    /// Output shape for a given input shape.
    pub fn output_shape(&self, n: usize, h: usize, w: usize) -> [usize; 4] {
        [
            n,
            self.out_ch,
            deconv_out_size(h, self.k, self.stride, self.pad),
            deconv_out_size(w, self.k, self.stride, self.pad),
        ]
    }

    /// Adds each per-sample weight/bias partial into the parameter
    /// gradients, in sample order (thread-count-independent bits).
    fn reduce_partials(&mut self, n: usize) {
        for (dw, db) in self.scratch_dw.iter().take(n).zip(self.scratch_db.iter().take(n)) {
            for (g, d) in self.weight.grad.as_mut_slice().iter_mut().zip(dw) {
                *g += d;
            }
            for (g, d) in self.bias.grad.as_mut_slice().iter_mut().zip(db) {
                *g += d;
            }
        }
    }
}

impl Layer for ConvTranspose2d {
    // lint: hot-path
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, _train: bool) {
        let (n, c, ih, iw) = input.dims4();
        assert_eq!(c, self.in_ch, "ConvTranspose2d expects {} channels, got {c}", self.in_ch);
        let oh = deconv_out_size(ih, self.k, self.stride, self.pad);
        let ow = deconv_out_size(iw, self.k, self.stride, self.pad);
        let okk = self.out_ch * self.k * self.k;
        let in_plane = ih * iw;
        let out_plane = oh * ow;
        let (k, stride, pad, in_ch, out_ch) =
            (self.k, self.stride, self.pad, self.in_ch, self.out_ch);
        out.resize(&[n, out_ch, oh, ow]);
        per_sample_scratch(&mut self.scratch_cols, n);
        let weight = self.weight.value.as_slice();
        let bias = self.bias.value.as_slice();
        let input_data = input.as_slice();
        let cols_v = pool::DisjointMut::new(&mut self.scratch_cols[..n]);
        let out_v = pool::DisjointMut::new(out.as_mut_slice());
        pool::run_chunks(n, |samples| {
            for ni in samples {
                // SAFETY: run_chunks sample ranges partition 0..n, so this
                // chunk exclusively owns sample ni's scratch and output plane.
                let (cols, dst) = unsafe {
                    (
                        cols_v.index_mut(ni),
                        out_v.slice_mut(ni * out_ch * out_plane..(ni + 1) * out_ch * out_plane),
                    )
                };
                let x = &input_data[ni * c * in_plane..][..c * in_plane];
                // cols [okk × in_plane] = Wᵀ · x, with W stored [in_ch × okk].
                fit(cols, okk * in_plane);
                matmul_tn_into(cols, weight, x, okk, in_ch, in_plane);
                // Scatter back onto the (larger) output grid: transposed conv
                // is the adjoint of a conv from [oh×ow] down to [ih×iw].
                col2im_into(dst, cols, out_ch, oh, ow, k, stride, pad);
                for (drow, &b) in dst.chunks_mut(out_plane).zip(bias) {
                    for v in drow {
                        *v += b;
                    }
                }
            }
        });
        match &mut self.cache_input {
            Some(t) => t.copy_from(input),
            // ALLOC: one-time cache init on the first forward; later
            // steps reuse the buffer via copy_from.
            None => self.cache_input = Some(input.clone()),
        }
    }

    // lint: hot-path
    fn backward_into(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        // PANIC: Layer contract — backward runs only after forward cached state.
        let input = self.cache_input.as_ref().expect("backward before forward");
        let (n, c, ih, iw) = input.dims4();
        let (_gn, _gc, oh, ow) = grad_out.dims4();
        let okk = self.out_ch * self.k * self.k;
        let in_plane = ih * iw;
        let out_plane = oh * ow;
        let (k, stride, pad, in_ch, out_ch) =
            (self.k, self.stride, self.pad, self.in_ch, self.out_ch);
        per_sample_scratch(&mut self.scratch_gcols, n);
        per_sample_scratch(&mut self.scratch_dw, n);
        per_sample_scratch(&mut self.scratch_db, n);
        let weight = self.weight.value.as_slice();
        let grad_out_data = grad_out.as_slice();
        let input_data = input.as_slice();
        // Adjoint of the forward scatter: gather with im2col, then
        // dW_ni [in_ch × okk] = x · gcolsᵀ and db_ni = Σ_spatial gO. The
        // column gradients are needed for dW even on the discard path.
        let sample_params =
            |ni: usize, gcols: &mut Vec<f32>, dw: &mut Vec<f32>, db: &mut Vec<f32>| {
                let go = &grad_out_data[ni * out_ch * out_plane..][..out_ch * out_plane];
                im2col_into(gcols, go, out_ch, oh, ow, k, stride, pad);
                debug_assert_eq!(gcols.len(), okk * in_plane);
                let x = &input_data[ni * c * in_plane..][..c * in_plane];
                fit(dw, in_ch * okk);
                matmul_nt_into(dw, x, gcols, in_ch, in_plane, okk);
                db.clear();
                db.extend(go.chunks_exact(out_plane).map(|row| row.iter().sum::<f32>()));
            };
        let gcols_v = pool::DisjointMut::new(&mut self.scratch_gcols[..n]);
        let dw_v = pool::DisjointMut::new(&mut self.scratch_dw[..n]);
        let db_v = pool::DisjointMut::new(&mut self.scratch_db[..n]);
        match grad_in {
            Some(gi_t) => {
                gi_t.resize(&[n, c, ih, iw]);
                let gi_v = pool::DisjointMut::new(gi_t.as_mut_slice());
                pool::run_chunks(n, |samples| {
                    for ni in samples {
                        // SAFETY: run_chunks sample ranges partition 0..n, so
                        // this chunk exclusively owns sample ni's scratch
                        // slots and grad_in plane.
                        let (gcols, dw, db, gi) = unsafe {
                            (
                                gcols_v.index_mut(ni),
                                dw_v.index_mut(ni),
                                db_v.index_mut(ni),
                                gi_v.slice_mut(ni * c * in_plane..(ni + 1) * c * in_plane),
                            )
                        };
                        sample_params(ni, gcols, dw, db);
                        // grad_in [in_ch × in_plane] = W · gcols.
                        matmul_into(gi, weight, gcols, in_ch, okk, in_plane);
                    }
                });
            }
            // Discard path (first layer): parameter gradients only.
            None => {
                pool::run_chunks(n, |samples| {
                    for ni in samples {
                        // SAFETY: run_chunks sample ranges partition 0..n, so
                        // this chunk exclusively owns sample ni's scratch slots.
                        let (gcols, dw, db) = unsafe {
                            (gcols_v.index_mut(ni), dw_v.index_mut(ni), db_v.index_mut(ni))
                        };
                        sample_params(ni, gcols, dw, db);
                    }
                });
            }
        }
        self.reduce_partials(n);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn describe(&self) -> String {
        format!(
            "ConvTranspose2d({}→{}, k={}, s={}, p={})",
            self.in_ch, self.out_ch, self.k, self.stride, self.pad
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::gradcheck;
    use super::*;

    #[test]
    fn conv_identity_kernel_passthrough() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 0);
        conv.weight.value = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let x = init::uniform(&[1, 1, 4, 4], -1.0, 1.0, 3);
        let y = conv.forward(&x, true);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv_known_3x3_sum_kernel() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 0);
        conv.weight.value = Tensor::filled(&[1, 1, 3, 3], 1.0);
        let x = Tensor::filled(&[1, 1, 3, 3], 1.0);
        let y = conv.forward(&x, true);
        // Center pixel sums 9 ones; corners see only 4.
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
        assert_eq!(y.at(&[0, 0, 0, 1]), 6.0);
    }

    #[test]
    fn conv_bias_applied_per_channel() {
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, 1);
        conv.weight.value = Tensor::from_vec(&[2, 1, 1, 1], vec![0.0, 0.0]);
        conv.bias.value = Tensor::from_vec(&[2], vec![1.5, -2.0]);
        let y = conv.forward(&Tensor::zeros(&[1, 1, 2, 2]), true);
        assert_eq!(y.at(&[0, 0, 1, 1]), 1.5);
        assert_eq!(y.at(&[0, 1, 0, 0]), -2.0);
    }

    #[test]
    fn conv_gradients_check_out() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 5);
        let x = init::uniform(&[2, 2, 5, 5], -1.0, 1.0, 8);
        gradcheck::check_input_gradient(&mut conv, &x, 0.03);
        gradcheck::check_param_gradients(&mut conv, &x, 0.03);
    }

    #[test]
    fn strided_conv_gradients_check_out() {
        let mut conv = Conv2d::new(1, 2, 4, 2, 1, 6);
        let x = init::uniform(&[1, 1, 8, 8], -1.0, 1.0, 9);
        gradcheck::check_input_gradient(&mut conv, &x, 0.03);
        gradcheck::check_param_gradients(&mut conv, &x, 0.03);
    }

    #[test]
    fn deconv_upsamples_shape() {
        let mut up = ConvTranspose2d::new(2, 1, 4, 2, 1, 3);
        let x = Tensor::zeros(&[2, 2, 4, 4]);
        let y = up.forward(&x, true);
        assert_eq!(y.shape(), &[2, 1, 8, 8]);
    }

    #[test]
    fn deconv_gradients_check_out() {
        let mut up = ConvTranspose2d::new(2, 2, 4, 2, 1, 4);
        let x = init::uniform(&[1, 2, 4, 4], -1.0, 1.0, 10);
        gradcheck::check_input_gradient(&mut up, &x, 0.03);
        gradcheck::check_param_gradients(&mut up, &x, 0.03);
    }

    #[test]
    fn deconv_is_adjoint_of_conv() {
        // With shared weights, ⟨conv(x), y⟩ == ⟨x, deconv(y)⟩ when deconv's
        // [in,out] axes mirror conv's [out,in] — the defining relationship.
        let k = 3;
        let (s, p) = (1usize, 1usize);
        let mut conv = Conv2d::new(1, 1, k, s, p, 11);
        let mut deconv = ConvTranspose2d::new(1, 1, k, s, p, 12);
        deconv.weight.value = conv.weight.value.clone().reshape(&[1, 1, k, k]);
        deconv.bias.value = Tensor::zeros(&[1]);
        conv.bias.value = Tensor::zeros(&[1]);
        let x = init::uniform(&[1, 1, 6, 6], -1.0, 1.0, 13);
        let y = init::uniform(&[1, 1, 6, 6], -1.0, 1.0, 14);
        let cx = conv.forward(&x, true);
        let dy = deconv.forward(&y, true);
        let lhs: f64 =
            cx.as_slice().iter().zip(y.as_slice()).map(|(&a, &b)| a as f64 * b as f64).sum();
        let rhs: f64 =
            x.as_slice().iter().zip(dy.as_slice()).map(|(&a, &b)| a as f64 * b as f64).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn discard_path_matches_param_grads() {
        // backward_into(None) must accumulate exactly the gradients the
        // full backward produces, just without the input gradient.
        let x = init::uniform(&[2, 2, 6, 6], -1.0, 1.0, 15);
        let mut a = Conv2d::new(2, 3, 3, 1, 1, 16);
        let mut b = Conv2d::new(2, 3, 3, 1, 1, 16);
        let ya = a.forward(&x, true);
        let _ = b.forward(&x, true);
        let g = init::uniform(ya.shape(), -1.0, 1.0, 17);
        let _ = a.backward(&g);
        b.backward_into(&g, None);
        assert_eq!(a.weight.grad, b.weight.grad);
        assert_eq!(a.bias.grad, b.bias.grad);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn conv_backward_requires_forward() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 0);
        let _ = conv.backward(&Tensor::zeros(&[1, 1, 4, 4]));
    }

    #[test]
    fn output_shape_helpers() {
        let conv = Conv2d::new(3, 16, 4, 2, 1, 0);
        assert_eq!(conv.output_shape(2, 32, 32), [2, 16, 16, 16]);
        let up = ConvTranspose2d::new(16, 3, 4, 2, 1, 0);
        assert_eq!(up.output_shape(2, 16, 16), [2, 3, 32, 32]);
    }
}
