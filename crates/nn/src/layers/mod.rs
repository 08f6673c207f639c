//! Layers with manual forward/backward passes.
//!
//! Each layer has one forward body, [`Layer::forward_into`], which caches
//! whatever its backward pass needs, and one backward body,
//! [`Layer::backward_into`], which consumes that cache, writes the gradient
//! with respect to the layer input and accumulates parameter gradients into
//! its [`Param`]s (an element-wise layer's two bodies are its in-place
//! passes; see [`Layer`]). The allocating [`Layer::forward`]/
//! [`Layer::backward`] are provided wrappers over them. Gradients
//! accumulate across calls until [`Sequential::zero_grads`] (mini-batch
//! accumulation, paper Algorithms 1 and 2 lines 9–10).

mod activations;
mod batchnorm;
mod conv;
mod convcore;
mod flatten;
mod linear;

pub use activations::{LeakyRelu, Relu, Sigmoid};
pub use batchnorm::BatchNorm2d;
pub use conv::{Conv2d, ConvTranspose2d};
pub use flatten::Flatten;
pub use linear::Linear;

pub(crate) use convcore::{col2im_into, conv_out_size, deconv_out_size, im2col_into};

use crate::{NnError, Tensor};

/// A trainable parameter: its value and the accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wraps an initialized value with a zero gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.as_mut_slice().fill(0.0);
    }
}

/// A differentiable network layer.
///
/// Layers are stateful: the forward pass caches activations for the next
/// backward pass. Implementors write only the buffer-reusing
/// [`Layer::forward_into`]/[`Layer::backward_into`] bodies; the allocating
/// [`Layer::forward`]/[`Layer::backward`] wrap them. An element-wise layer
/// writes its one body as [`Layer::forward_inplace`]/
/// [`Layer::backward_inplace`] instead, and its `_into` methods copy into
/// the destination and run it there. A backward pass without a preceding
/// forward pass panics.
pub trait Layer: Send {
    /// Computes the layer output into `out`, resizing it in place. `out`
    /// must not alias `input`. `train` selects training behaviour (e.g.
    /// batch statistics in [`BatchNorm2d`]). Once `out` and the layer's
    /// caches have their shapes, the pass performs no heap allocation.
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool);

    /// Back-propagates `grad_out`, accumulating parameter gradients. When
    /// `grad_in` is `Some`, the input gradient is written into it (resized
    /// in place; must not alias `grad_out`). `None` is the discard path:
    /// the layer skips computing the input gradient entirely (the first
    /// layer of a network feeds data, not another layer).
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has been run.
    fn backward_into(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>);

    /// Allocating wrapper over [`Layer::forward_into`]: returns the output.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::zeros(&[1]);
        self.forward_into(input, &mut out, train);
        out
    }

    /// Allocating wrapper over [`Layer::backward_into`]: returns the
    /// gradient with respect to the layer input.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has been run.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut grad_in = Tensor::zeros(&[1]);
        self.backward_into(grad_out, Some(&mut grad_in));
        grad_in
    }

    /// In-place forward for element-wise layers: transforms `x` directly,
    /// returning `true`, or returns `false` (touching nothing) when the
    /// layer cannot run in place. [`Sequential`] uses this to fuse
    /// activation application into the preceding layer's output buffer.
    fn forward_inplace(&mut self, _x: &mut Tensor, _train: bool) -> bool {
        false
    }

    /// In-place counterpart of [`Layer::forward_inplace`] for the gradient:
    /// transforms `g` directly and returns `true`, or returns `false` when
    /// unsupported.
    fn backward_inplace(&mut self, _g: &mut Tensor) -> bool {
        false
    }

    /// Visits every trainable parameter (values and gradients), in a stable
    /// order.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Visits non-trainable state buffers (e.g. batch-norm running
    /// statistics) that must survive checkpointing, in a stable order.
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&mut Vec<f32>)) {}

    /// Short human-readable layer description for architecture summaries.
    fn describe(&self) -> String;
}

/// An ordered stack of layers trained end-to-end.
///
/// ```
/// use ganopc_nn::{layers::{Linear, Relu, Sequential}, Tensor};
/// let mut net = Sequential::new();
/// net.push(Linear::new(4, 8, 1));
/// net.push(Relu::new());
/// net.push(Linear::new(8, 1, 2));
/// let y = net.forward(&Tensor::zeros(&[3, 4]), true);
/// assert_eq!(y.shape(), &[3, 1]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Two persistent transit buffers ping-ponged between layers by
    /// [`Sequential::forward_into`] / [`Sequential::backward_into`]. Sized
    /// lazily on first use and reused across steps; each layer owns its own
    /// backward caches, so the tape is free for the gradient pass as soon
    /// as the forward pass ends.
    tape: Vec<Tensor>,
}

impl Sequential {
    /// An empty stack.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the stack holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the full forward pass — an allocating wrapper over
    /// [`Sequential::forward_into`].
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::zeros(&[1]);
        self.forward_into(input, &mut out, train);
        out
    }

    /// Back-propagates through the whole stack, returning the gradient with
    /// respect to the network input (needed to chain the discriminator's
    /// gradient into the generator and the litho gradient into the
    /// decoder) — an allocating wrapper over [`Sequential::backward_into`].
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has been run.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut grad_in = Tensor::zeros(&[1]);
        self.backward_into(grad_out, Some(&mut grad_in));
        grad_in
    }

    /// Buffer-reusing forward pass: runs the stack through the persistent
    /// two-slot tape and writes the network output into `out` (resized in
    /// place). Element-wise layers transform the current tape slot in place
    /// via [`Layer::forward_inplace`]; everything else ping-pongs between
    /// the two slots. After the first call has sized the tape, the pass
    /// performs no heap allocation.
    pub fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        let n = self.layers.len();
        if n == 0 {
            out.copy_from(input);
            return;
        }
        self.ensure_tape();
        // `cur` tracks which tape slot holds the running activation; `None`
        // means the caller's input is still the source (first layer only,
        // which therefore never runs in place).
        let mut cur: Option<usize> = None;
        for i in 0..n {
            let last = i + 1 == n;
            match cur {
                None if last => self.layers[i].forward_into(input, out, train),
                None => {
                    self.layers[i].forward_into(input, &mut self.tape[0], train);
                    cur = Some(0);
                }
                Some(t) if last => {
                    let (a, b) = self.tape.split_at_mut(1);
                    let src = if t == 0 { &a[0] } else { &b[0] };
                    self.layers[i].forward_into(src, out, train);
                }
                Some(t) => {
                    if self.layers[i].forward_inplace(&mut self.tape[t], train) {
                        continue;
                    }
                    let (src, dst) = tape_pair(&mut self.tape, t);
                    self.layers[i].forward_into(src, dst, train);
                    cur = Some(1 - t);
                }
            }
        }
    }

    /// Buffer-reusing backward pass through the same persistent tape.
    /// `grad_in = Some(buf)` receives the input gradient (resized in
    /// place); `None` lets the first layer skip computing it entirely —
    /// the discard path for networks whose input is data, not another
    /// network.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has been run.
    pub fn backward_into(&mut self, grad_out: &Tensor, mut grad_in: Option<&mut Tensor>) {
        let n = self.layers.len();
        if n == 0 {
            if let Some(dst) = grad_in {
                dst.copy_from(grad_out);
            }
            return;
        }
        self.ensure_tape();
        let mut cur: Option<usize> = None;
        for i in (0..n).rev() {
            let first = i == 0;
            match cur {
                None if first => self.layers[i].backward_into(grad_out, grad_in.take()),
                None => {
                    self.layers[i].backward_into(grad_out, Some(&mut self.tape[0]));
                    cur = Some(0);
                }
                Some(t) if first => {
                    let (a, b) = self.tape.split_at_mut(1);
                    let src = if t == 0 { &a[0] } else { &b[0] };
                    self.layers[i].backward_into(src, grad_in.take());
                }
                Some(t) => {
                    if self.layers[i].backward_inplace(&mut self.tape[t]) {
                        continue;
                    }
                    let (src, dst) = tape_pair(&mut self.tape, t);
                    self.layers[i].backward_into(src, Some(dst));
                    cur = Some(1 - t);
                }
            }
        }
    }

    /// Backward pass that discards the input gradient — shorthand for
    /// [`Sequential::backward_into`] with `grad_in = None`.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has been run.
    pub fn backward_discard(&mut self, grad_out: &Tensor) {
        self.backward_into(grad_out, None);
    }

    fn ensure_tape(&mut self) {
        if self.tape.is_empty() {
            self.tape = vec![Tensor::zeros(&[1]), Tensor::zeros(&[1])];
        }
    }

    /// Visits every parameter of every layer in order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Global L2 norm of all accumulated gradients.
    pub fn grad_norm(&mut self) -> f32 {
        let mut acc = 0.0f64;
        self.visit_params(&mut |p| {
            for &g in p.grad.as_slice() {
                acc += (g as f64) * (g as f64);
            }
        });
        acc.sqrt() as f32
    }

    /// Rescales all gradients so their global L2 norm does not exceed
    /// `max_norm` (standard GAN-stabilizing gradient clipping). Returns the
    /// pre-clip norm.
    ///
    /// # Panics
    ///
    /// Panics unless `max_norm > 0`.
    pub fn clip_gradients(&mut self, max_norm: f32) -> f32 {
        assert!(max_norm > 0.0, "max_norm must be positive");
        let norm = self.grad_norm();
        if norm > max_norm {
            let scale = max_norm / norm;
            self.visit_params(&mut |p| {
                for g in p.grad.as_mut_slice() {
                    *g *= scale;
                }
            });
        }
        norm
    }

    /// Total trainable scalar count.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }

    /// Visits every non-trainable state buffer of every layer in order.
    pub fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }

    /// Extracts a snapshot of all parameter values *and* state buffers
    /// (batch-norm running statistics), so a restored network reproduces
    /// evaluation-mode outputs exactly.
    pub fn export_params(&mut self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.push(p.value.clone()));
        self.visit_buffers(&mut |b| out.push(Tensor::from_vec(&[b.len()], b.clone())));
        out
    }

    /// Loads a snapshot produced by [`Sequential::export_params`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LoadMismatch`] when the snapshot layout differs
    /// from the network.
    pub fn import_params(&mut self, params: &[Tensor]) -> Result<(), NnError> {
        let mut idx = 0usize;
        let mut err: Option<String> = None;
        self.visit_params(&mut |p| {
            if err.is_some() {
                return;
            }
            match params.get(idx) {
                Some(t) if t.shape() == p.value.shape() => p.value = t.clone(),
                Some(t) => {
                    err = Some(format!(
                        "param {idx}: expected shape {:?}, got {:?}",
                        p.value.shape(),
                        t.shape()
                    ))
                }
                None => err = Some(format!("snapshot ends at param {idx}")),
            }
            idx += 1;
        });
        self.visit_buffers(&mut |b| {
            if err.is_some() {
                return;
            }
            match params.get(idx) {
                Some(t) if t.len() == b.len() => b.copy_from_slice(t.as_slice()),
                Some(t) => {
                    err =
                        Some(format!("buffer {idx}: expected length {}, got {}", b.len(), t.len()))
                }
                None => err = Some(format!("snapshot ends at buffer {idx}")),
            }
            idx += 1;
        });
        if err.is_none() && idx != params.len() {
            err = Some(format!("snapshot has {} entries, network has {idx}", params.len()));
        }
        match err {
            Some(msg) => Err(NnError::LoadMismatch(msg)),
            None => Ok(()),
        }
    }

    /// Multi-line architecture summary (layer descriptions + param counts).
    pub fn summary(&mut self) -> String {
        let mut lines = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            lines.push(format!("{i:>3}  {}", layer.describe()));
        }
        lines.push(format!("total parameters: {}", self.param_count()));
        lines.join("\n")
    }
}

/// Splits the two-slot tape into `(source, destination)` around the slot
/// currently holding the activation/gradient.
fn tape_pair(tape: &mut [Tensor], src: usize) -> (&Tensor, &mut Tensor) {
    let (a, b) = tape.split_at_mut(1);
    if src == 0 {
        (&a[0], &mut b[0])
    } else {
        (&b[0], &mut a[0])
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential").field("layers", &self.layers.len()).finish()
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by layer tests.
    use super::*;

    /// Checks `d loss / d input` of a layer against central differences,
    /// where `loss = Σ output ⊙ weights` for a fixed random weighting.
    pub fn check_input_gradient<L: Layer>(layer: &mut L, input: &Tensor, tol: f32) {
        let out = layer.forward(input, true);
        // Fixed weighting makes the scalar loss sensitive to every output.
        let weights: Vec<f32> =
            (0..out.len()).map(|i| ((i * 2654435761) % 17) as f32 / 8.0 - 1.0).collect();
        let loss = |o: &Tensor| -> f64 {
            o.as_slice().iter().zip(&weights).map(|(&v, &w)| v as f64 * w as f64).sum()
        };
        let grad_out = Tensor::from_vec(out.shape(), weights.clone());
        let grad_in = layer.backward(&grad_out);

        let eps = 1e-2f32;
        for probe in 0..input.len().min(24) {
            let i = (probe * 7919) % input.len();
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;
            let lp = loss(&layer.forward(&plus, true));
            let lm = loss(&layer.forward(&minus, true));
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let an = grad_in.as_slice()[i];
            let denom = fd.abs().max(an.abs()).max(0.3);
            assert!((fd - an).abs() / denom < tol, "input grad at {i}: fd {fd} vs analytic {an}");
        }
    }

    /// Checks parameter gradients against central differences.
    pub fn check_param_gradients<L: Layer>(layer: &mut L, input: &Tensor, tol: f32) {
        let out = layer.forward(input, true);
        let weights: Vec<f32> =
            (0..out.len()).map(|i| ((i * 2654435761) % 17) as f32 / 8.0 - 1.0).collect();
        let grad_out = Tensor::from_vec(out.shape(), weights.clone());
        // Fresh grads, one backward.
        layer.visit_params(&mut |p| p.zero_grad());
        let _ = layer.backward(&grad_out);
        let mut analytic: Vec<Tensor> = Vec::new();
        layer.visit_params(&mut |p| analytic.push(p.grad.clone()));

        let loss = |layer: &mut L, x: &Tensor| -> f64 {
            let o = layer.forward(x, true);
            o.as_slice().iter().zip(&weights).map(|(&v, &w)| v as f64 * w as f64).sum()
        };
        let eps = 1e-2f32;
        let mut n_params = 0usize;
        layer.visit_params(&mut |_| n_params += 1);
        #[allow(clippy::needless_range_loop)]
        for pi in 0..n_params {
            let len = analytic[pi].len();
            for probe in 0..len.min(12) {
                let i = (probe * 104729) % len;
                let mutate = |layer: &mut L, delta: f32| {
                    let mut idx = 0;
                    layer.visit_params(&mut |p| {
                        if idx == pi {
                            p.value.as_mut_slice()[i] += delta;
                        }
                        idx += 1;
                    });
                };
                mutate(layer, eps);
                let lp = loss(layer, input);
                mutate(layer, -2.0 * eps);
                let lm = loss(layer, input);
                mutate(layer, eps); // restore
                let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
                let an = analytic[pi].as_slice()[i];
                let denom = fd.abs().max(an.abs()).max(0.3);
                assert!(
                    (fd - an).abs() / denom < tol,
                    "param {pi} grad at {i}: fd {fd} vs analytic {an}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn sequential_forward_backward_shapes() {
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 4, 3, 2, 1, 1));
        net.push(Relu::new());
        net.push(Conv2d::new(4, 8, 3, 2, 1, 2));
        net.push(Flatten::new());
        net.push(Linear::new(8 * 4 * 4, 1, 3));
        net.push(Sigmoid::new());
        let x = init::uniform(&[2, 1, 16, 16], 0.0, 1.0, 5);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[2, 1]);
        let gin = net.backward(&Tensor::filled(&[2, 1], 1.0));
        assert_eq!(gin.shape(), x.shape());
    }

    #[test]
    fn zero_grads_resets_accumulation() {
        let mut net = Sequential::new();
        net.push(Linear::new(3, 2, 1));
        let x = init::uniform(&[4, 3], -1.0, 1.0, 2);
        let y = net.forward(&x, true);
        let _ = net.backward(&Tensor::filled(y.shape(), 1.0));
        let mut any_nonzero = false;
        net.visit_params(&mut |p| any_nonzero |= p.grad.max_abs() > 0.0);
        assert!(any_nonzero);
        net.zero_grads();
        net.visit_params(&mut |p| assert_eq!(p.grad.max_abs(), 0.0));
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut net = Sequential::new();
        net.push(Linear::new(2, 2, 9));
        let x = init::uniform(&[1, 2], -1.0, 1.0, 3);
        let g = Tensor::filled(&[1, 2], 1.0);
        net.forward(&x, true);
        net.backward(&g);
        let mut once = Vec::new();
        net.visit_params(&mut |p| once.push(p.grad.clone()));
        net.forward(&x, true);
        net.backward(&g);
        let mut twice = Vec::new();
        net.visit_params(&mut |p| twice.push(p.grad.clone()));
        for (a, b) in once.iter().zip(&twice) {
            for (x1, x2) in a.as_slice().iter().zip(b.as_slice()) {
                assert!((x2 - 2.0 * x1).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn gradient_clipping_bounds_norm() {
        let mut net = Sequential::new();
        net.push(Linear::new(4, 4, 3));
        let x = init::uniform(&[8, 4], -1.0, 1.0, 1);
        let y = net.forward(&x, true);
        net.backward(&Tensor::filled(y.shape(), 10.0));
        let before = net.grad_norm();
        assert!(before > 1.0);
        let reported = net.clip_gradients(1.0);
        assert!((reported - before).abs() < 1e-4);
        assert!((net.grad_norm() - 1.0).abs() < 1e-3);
        // Clipping below the norm is a no-op.
        let unchanged = net.clip_gradients(5.0);
        assert!((unchanged - 1.0).abs() < 1e-3);
        assert!((net.grad_norm() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn export_import_roundtrip() {
        let mut net = Sequential::new();
        net.push(Linear::new(3, 3, 11));
        let snapshot = net.export_params();
        let x = init::uniform(&[2, 3], -1.0, 1.0, 4);
        let before = net.forward(&x, false);
        // Perturb, then restore.
        net.visit_params(&mut |p| {
            for v in p.value.as_mut_slice() {
                *v += 1.0;
            }
        });
        assert_ne!(net.forward(&x, false), before);
        net.import_params(&snapshot).unwrap();
        assert_eq!(net.forward(&x, false), before);
    }

    #[test]
    fn import_rejects_wrong_layout() {
        let mut net = Sequential::new();
        net.push(Linear::new(3, 3, 11));
        let err = net.import_params(&[Tensor::zeros(&[2, 2])]);
        assert!(matches!(err, Err(NnError::LoadMismatch(_))));
        let err2 = net.import_params(&[]);
        assert!(matches!(err2, Err(NnError::LoadMismatch(_))));
    }

    #[test]
    fn summary_lists_layers_and_params() {
        let mut net = Sequential::new();
        net.push(Linear::new(4, 2, 0));
        net.push(Relu::new());
        let s = net.summary();
        assert!(s.contains("Linear"), "{s}");
        assert!(s.contains("total parameters: 10"), "{s}");
    }
}
