//! Fully connected layer.

use super::{Layer, Param};
use crate::gemm::{matmul_into, matmul_nt_into, matmul_tn_into};
use crate::{init, Tensor};

/// A fully connected layer `y = x·Wᵀ + b` over `[N, in]` tensors.
///
/// Weight layout is `[out, in]` (each row maps the input to one output
/// feature), Xavier-uniform initialized.
///
/// ```
/// use ganopc_nn::{layers::{Layer, Linear}, Tensor};
/// let mut fc = Linear::new(4, 2, 1);
/// let y = fc.forward(&Tensor::zeros(&[3, 4]), true);
/// assert_eq!(y.shape(), &[3, 2]);
/// ```
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    /// Persistent copy of the last forward input (reused across steps).
    cache_input: Option<Tensor>,
    /// Scratch for the weight-gradient product, reused across steps.
    scratch_dw: Vec<f32>,
}

impl Linear {
    /// Creates a fully connected layer.
    ///
    /// # Panics
    ///
    /// Panics on zero feature counts.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        assert!(in_features > 0 && out_features > 0, "degenerate linear geometry");
        Linear {
            in_features,
            out_features,
            weight: Param::new(init::xavier_uniform(&[out_features, in_features], seed)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cache_input: None,
            scratch_dw: Vec::new(),
        }
    }
}

impl Layer for Linear {
    // lint: hot-path
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, _train: bool) {
        let (n, f) = input.dims2();
        assert_eq!(f, self.in_features, "Linear expects {} features, got {f}", self.in_features);
        out.resize(&[n, self.out_features]);
        // y [n × out] = x [n × in] · Wᵀ, W stored [out × in].
        matmul_nt_into(
            out.as_mut_slice(),
            input.as_slice(),
            self.weight.value.as_slice(),
            n,
            self.in_features,
            self.out_features,
        );
        for row in out.as_mut_slice().chunks_exact_mut(self.out_features) {
            for (v, &b) in row.iter_mut().zip(self.bias.value.as_slice()) {
                *v += b;
            }
        }
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
        let (n, _) = input.dims2();
        let (gn, go) = grad_out.dims2();
        assert_eq!((gn, go), (n, self.out_features), "grad_out shape mismatch");
        // dW [out × in] += gOᵀ [out × n] · x [n × in].
        self.scratch_dw.resize(self.out_features * self.in_features, 0.0);
        matmul_tn_into(
            &mut self.scratch_dw,
            grad_out.as_slice(),
            input.as_slice(),
            self.out_features,
            n,
            self.in_features,
        );
        for (g, d) in self.weight.grad.as_mut_slice().iter_mut().zip(&self.scratch_dw) {
            *g += d;
        }
        for row in grad_out.as_slice().chunks_exact(self.out_features) {
            for (g, &v) in self.bias.grad.as_mut_slice().iter_mut().zip(row) {
                *g += v;
            }
        }
        // dx [n × in] = gO [n × out] · W [out × in] — skipped on discard.
        if let Some(gi) = grad_in {
            gi.resize(&[n, self.in_features]);
            matmul_into(
                gi.as_mut_slice(),
                grad_out.as_slice(),
                self.weight.value.as_slice(),
                n,
                self.out_features,
                self.in_features,
            );
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn describe(&self) -> String {
        format!("Linear({}→{})", self.in_features, self.out_features)
    }
}

#[cfg(test)]
mod tests {
    use super::super::gradcheck;
    use super::*;

    #[test]
    fn known_affine_map() {
        let mut fc = Linear::new(2, 2, 0);
        fc.weight.value = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        fc.bias.value = Tensor::from_vec(&[2], vec![10.0, 20.0]);
        let y = fc.forward(&Tensor::from_vec(&[1, 2], vec![1.0, 1.0]), true);
        assert_eq!(y.as_slice(), &[13.0, 27.0]);
    }

    #[test]
    fn gradients_check_out() {
        let mut fc = Linear::new(5, 3, 2);
        let x = init::uniform(&[4, 5], -1.0, 1.0, 3);
        gradcheck::check_input_gradient(&mut fc, &x, 0.02);
        gradcheck::check_param_gradients(&mut fc, &x, 0.02);
    }

    #[test]
    #[should_panic(expected = "expects 5 features")]
    fn rejects_wrong_width() {
        let mut fc = Linear::new(5, 3, 2);
        let _ = fc.forward(&Tensor::zeros(&[1, 4]), true);
    }
}
