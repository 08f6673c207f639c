//! The lithography forward model and its adjoint (ILT) gradient.

use crate::optics::OpticalConfig;
use crate::socs::SocsKernels;
use crate::{Field, LithoError};
use ganopc_fft::spectrum::{self, Split};
use ganopc_fft::{Complex, RealFft2d};
use ganopc_nn::pool;
use ganopc_obs as obs;
use std::cell::RefCell;

/// One stored kernel component's buffers: its convolved field in tile
/// layout (`p_k` for a real part, `q_k` for an imaginary one), then its
/// weighted Eq. (14) adjoint half-spectrum in split planes.
#[derive(Default)]
struct KernelSlot {
    field: Vec<f32>,
    adjoint: Vec<f32>,
}

/// A thread's litho scratch: one slot per stored kernel component, then the
/// per-call buffers. Frames are in [`RealFft2d`]'s tile layout and spectra
/// in its split planes, so every move between them is one of the
/// transform's own.
struct Scratch {
    kernels: Vec<KernelSlot>,
    /// The mask's half-spectrum.
    mask: Vec<f32>,
    /// The intensity; the gradient overwrites it with the residual `Z − Z_t`.
    image: Vec<f32>,
    /// The gradient's chain factor `g`.
    g: Vec<f32>,
    /// The adjoint sum over kernels.
    sum: Vec<f32>,
}

thread_local! {
    /// This thread's litho scratch. Every buffer is owned here across calls
    /// and only grows (on a thread's first call, or for a larger model), so
    /// warm aerial and gradient evaluations neither allocate nor zero-fill.
    /// Thread-local because pre-training runs whole gradient evaluations
    /// concurrently on crew workers, each needing its own; the component
    /// jobs a call fans out write the calling thread's slots.
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            kernels: Vec::new(),
            mask: Vec::new(),
            image: Vec::new(),
            g: Vec::new(),
            sum: Vec::new(),
        })
    };
}

/// Spectrum row `ky` of split planes `hw` bins wide.
#[inline]
fn row(planes: Split<'_>, ky: usize, hw: usize) -> Split<'_> {
    (&planes.0[ky * hw..][..hw], &planes.1[ky * hw..][..hw])
}

/// `out[l] = g[l] · f[l]` over one tile row: the adjoint stage's `g ⊙ p`.
// lint: hot-path
fn mul_lanes(out: &mut [f32], g: &[f32], f: &[f32]) {
    for ((o, &gi), &fi) in out.iter_mut().zip(g).zip(f) {
        *o = gi * fi;
    }
}

/// `acc[i] += v[i]` bin by bin: one component's turn in the adjoint sum.
// lint: hot-path
fn add_lanes(acc: &mut [f32], v: &[f32]) {
    for (a, &c) in acc.iter_mut().zip(v) {
        *a += c;
    }
}

/// `Σ d²` in f64 over a residual frame in tile layout, in pixel order:
/// pixel `(y, 2j)` is lane `y` of row `j` of the real plane, and
/// `(y, 2j + 1)` the same place in the imaginary plane.
// lint: hot-path
fn pixel_order_error(resid: &[f32], h: usize) -> f64 {
    let (d_even, d_odd) = resid.split_at(resid.len() / 2);
    let mut error = 0.0f64;
    for y in 0..h {
        for (&a, &b) in d_even[y..].iter().step_by(h).zip(d_odd[y..].iter().step_by(h)) {
            error += (a as f64) * (a as f64);
            error += (b as f64) * (b as f64);
        }
    }
    error
}

/// A component's magnitude must clear this fraction of its kernel's peak to
/// be stored; below it the component is f64→f32 rounding residue of an
/// analytically-zero part (the eigenvector flip parity at nominal focus) and
/// is dropped outright.
const COMPONENT_DROP_RATIO: f32 = 1e-6;

/// The parts of a kernel with taps `taps` that the model stores, real part
/// first: those with some tap above [`COMPONENT_DROP_RATIO`] of the
/// kernel's peak `max(|re|, |im|)`. At nominal focus every SOCS kernel keeps
/// exactly one.
fn stored_parts(taps: &[Complex]) -> impl Iterator<Item = fn(&Complex) -> f32> + '_ {
    // A compare, not an `f32::max` fold, for the reason `Tensor::max_abs`
    // gives.
    let peak = taps.iter().fold(0.0f32, |m, c| {
        let v = c.re.abs().max(c.im.abs());
        if v > m {
            v
        } else {
            m
        }
    });
    let cutoff = peak * COMPONENT_DROP_RATIO;
    let parts: [fn(&Complex) -> f32; 2] = [|c| c.re, |c| c.im];
    parts.into_iter().filter(move |part| !taps.iter().all(|c| part(c).abs() <= cutoff))
}

/// The stored components of `stack` on `rfft`'s frame, in stack order: per
/// kernel, `(w_k, split half-spectrum)` of each of its [`stored_parts`].
/// Each part is a real frame holding the taps with the center tap at the
/// origin, wrapped cyclically, so its spectrum is Hermitian and it
/// convolves a real mask through the real-FFT engine. The stack's kernel
/// size must be odd and no larger than the frame, as [`LithoModel::new`]
/// and the cache ensure.
fn component_spectra(stack: &SocsKernels, rfft: &RealFft2d) -> Vec<(f32, Vec<f32>)> {
    let (h, w, slen) = (rfft.height(), rfft.width(), rfft.spectrum_len());
    let (size, half) = (stack.kernel_size(), stack.kernel_size() / 2);
    let mut components = Vec::new();
    for k in stack.kernels() {
        for part in stored_parts(&k.taps) {
            let mut frame = vec![0.0f32; h * w];
            for (ky, row) in k.taps.chunks_exact(size).enumerate() {
                let dy = (ky + h - half) % h;
                for (kx, tap) in row.iter().enumerate() {
                    frame[dy * w + (kx + w - half) % w] = part(tap);
                }
            }
            let mut planes = vec![0.0f32; 2 * slen];
            let (dst_re, dst_im) = planes.split_at_mut(slen);
            rfft.forward_with(
                |tile| tile.pack(&frame),
                |re, im| {
                    dst_re.copy_from_slice(re);
                    dst_im.copy_from_slice(im);
                },
            );
            components.push((k.weight, planes));
        }
    }
    components
}

/// A planned lithography simulator for one frame size.
///
/// Holds the SOCS kernel stack as a flat list of stored components, each a
/// frame-sized packed half-spectrum, the real-FFT plan, the calibrated
/// resist threshold `I_th` and the sigmoid steepness `α` of Eq. (12). Its scratch is per thread and persistent, so
/// after a warm-up call on each entry point, aerial-image and gradient
/// evaluations perform zero heap allocation.
///
/// ```
/// use ganopc_litho::{Field, LithoModel};
/// # fn main() -> Result<(), ganopc_litho::LithoError> {
/// let model = LithoModel::iccad2013_like(64)?;
/// let wafer = model.print_nominal(&Field::zeros(64, 64));
/// assert_eq!(wafer.sum(), 0.0); // dark mask prints nothing
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LithoModel {
    cfg: OpticalConfig,
    height: usize,
    width: usize,
    rfft: RealFft2d,
    /// Number of SOCS kernels `N_h` in the stack.
    num_kernels: usize,
    /// `(w_k, split half-spectrum)` per stored kernel component, from
    /// [`component_spectra`].
    components: Vec<(f32, Vec<f32>)>,
    threshold: f32,
    sigmoid_alpha: f32,
    dose_delta: f32,
}

impl LithoModel {
    /// Steepness `α` of the relaxed resist model (Eq. (12)). The paper does
    /// not publish its value; 50 on a unit-normalized intensity scale gives
    /// a resist transition ≈ 4 % of the open-field intensity wide.
    pub const DEFAULT_SIGMOID_ALPHA: f32 = 50.0;
    /// Dose excursion for the process-variability band (paper: ±2 %).
    pub const DEFAULT_DOSE_DELTA: f32 = 0.02;

    /// Builds a model on a square `size × size` frame emulating the
    /// ICCAD-2013 setup: the frame represents a 2048 nm clip, so the pixel
    /// pitch is `2048 / size` nm.
    ///
    /// # Errors
    ///
    /// Propagates [`LithoModel::new`] errors.
    pub fn iccad2013_like(size: usize) -> Result<Self, LithoError> {
        let pixel_nm = 2048.0 / size as f64;
        let cfg = OpticalConfig::default_32nm(pixel_nm);
        LithoModel::new(cfg, size, size)
    }

    /// Cached variant of [`LithoModel::iccad2013_like`] (see
    /// [`LithoModel::new_cached`]).
    ///
    /// # Errors
    ///
    /// Propagates [`LithoModel::new`] errors.
    pub fn iccad2013_like_cached(size: usize) -> Result<Self, LithoError> {
        let pixel_nm = 2048.0 / size as f64;
        let cfg = OpticalConfig::default_32nm(pixel_nm);
        LithoModel::new_cached(cfg, size, size)
    }

    /// Like [`LithoModel::new`] but loads the SOCS kernel stack through the
    /// on-disk cache ([`crate::cache`]), skipping the TCC eigendecomposition
    /// when this configuration has been derived before.
    ///
    /// # Errors
    ///
    /// Same as [`LithoModel::new`].
    pub fn new_cached(cfg: OpticalConfig, height: usize, width: usize) -> Result<Self, LithoError> {
        Self::build(cfg, height, width, true)
    }

    /// Builds a model for an arbitrary configuration and frame.
    ///
    /// Kernel supports larger than the frame are clamped (kept odd). The
    /// resist threshold is calibrated so that an isolated 80 nm line prints
    /// at its drawn width (see `calibrate_threshold`).
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::InvalidFrame`] for non-power-of-two frames and
    /// [`LithoError::Calibration`] when threshold calibration cannot bracket
    /// the line edge (degenerate configurations).
    pub fn new(cfg: OpticalConfig, height: usize, width: usize) -> Result<Self, LithoError> {
        Self::build(cfg, height, width, false)
    }

    fn build(
        mut cfg: OpticalConfig,
        height: usize,
        width: usize,
        cached: bool,
    ) -> Result<Self, LithoError> {
        cfg.validate().map_err(LithoError::InvalidFrame)?;
        if !ganopc_fft::is_power_of_two(height) || !ganopc_fft::is_power_of_two(width) {
            return Err(LithoError::InvalidFrame(format!(
                "frame {height}x{width} must have power-of-two sides"
            )));
        }
        let max_k = height.min(width) - 1;
        if cfg.kernel_size > max_k {
            cfg.kernel_size = if max_k.is_multiple_of(2) { max_k - 1 } else { max_k };
        }
        if cfg.kernel_size < 3 {
            return Err(LithoError::InvalidFrame(format!(
                "frame {height}x{width} too small for any kernel support"
            )));
        }
        let stack = if cached {
            crate::cache::load_or_derive(&cfg, &crate::cache::default_cache_dir())
        } else {
            SocsKernels::from_config(&cfg)
        };
        let rfft = RealFft2d::new(height, width)?;
        let components = component_spectra(&stack, &rfft);
        let mut model = LithoModel {
            cfg,
            height,
            width,
            rfft,
            num_kernels: stack.len(),
            components,
            threshold: 0.3,
            sigmoid_alpha: Self::DEFAULT_SIGMOID_ALPHA,
            dose_delta: Self::DEFAULT_DOSE_DELTA,
        };
        model.threshold = model.calibrate_threshold()?;
        Ok(model)
    }

    /// Chooses `I_th` as the aerial intensity at the drawn edge of an
    /// isolated 80 nm (minimum-CD) vertical line, so minimum features print
    /// on size. Mirrors how constant-threshold resist models are calibrated
    /// against a reference structure.
    fn calibrate_threshold(&self) -> Result<f32, LithoError> {
        let cd_px = (80.0 / self.cfg.pixel_nm).max(1.0);
        let cx = self.width as f64 / 2.0;
        let (x0, x1) = (cx - cd_px / 2.0, cx + cd_px / 2.0);
        let mut mask = Field::zeros(self.height, self.width);
        for y in 0..self.height {
            for x in 0..self.width {
                // Area-weighted coverage of the line over this pixel column.
                let lo = (x as f64).max(x0);
                let hi = ((x + 1) as f64).min(x1);
                let cov = (hi - lo).max(0.0);
                if cov > 0.0 {
                    mask.set(y, x, cov as f32);
                }
            }
        }
        let aerial = self.aerial_image(&mask);
        // Intensity profile along the middle row; sample at the drawn edge.
        let row = self.height / 2;
        let edge = x1 - 0.5; // pixel-center coordinate of the right edge
        let xe0 = edge.floor() as usize;
        let xe1 = (xe0 + 1).min(self.width - 1);
        let t = (edge - xe0 as f64) as f32;
        let i_edge = aerial.get(row, xe0) * (1.0 - t) + aerial.get(row, xe1) * t;
        let peak = aerial.get(row, self.width / 2);
        if !(i_edge.is_finite() && i_edge > 0.0 && i_edge < peak) {
            return Err(LithoError::Calibration(format!(
                "edge intensity {i_edge} outside (0, peak={peak})"
            )));
        }
        Ok(i_edge)
    }

    /// Frame `(height, width)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.height, self.width)
    }

    /// The optical configuration the model was built with.
    #[inline]
    pub fn config(&self) -> &OpticalConfig {
        &self.cfg
    }

    /// The calibrated resist threshold `I_th`.
    #[inline]
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The resist-sigmoid steepness `α` (Eq. (12)).
    #[inline]
    pub fn sigmoid_alpha(&self) -> f32 {
        self.sigmoid_alpha
    }

    /// Overrides the resist-sigmoid steepness.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha > 0`.
    pub fn set_sigmoid_alpha(&mut self, alpha: f32) {
        assert!(alpha > 0.0, "sigmoid steepness must be positive");
        self.sigmoid_alpha = alpha;
    }

    /// The PVB dose excursion (fraction, default 0.02).
    #[inline]
    pub fn dose_delta(&self) -> f32 {
        self.dose_delta
    }

    /// Simulation pixel pitch, nm.
    #[inline]
    pub fn pixel_nm(&self) -> f64 {
        self.cfg.pixel_nm
    }

    /// Number of SOCS kernels in use.
    #[inline]
    pub fn num_kernels(&self) -> usize {
        self.num_kernels
    }

    fn check_shape(&self, field: &Field) -> Result<(), LithoError> {
        if field.shape() != (self.height, self.width) {
            return Err(LithoError::ShapeMismatch {
                expected: (self.height, self.width),
                actual: field.shape(),
            });
        }
        Ok(())
    }

    /// Component `c`'s half-spectrum as split planes.
    #[inline]
    fn spectrum(&self, c: usize) -> Split<'_> {
        let planes = &self.components[c].1;
        planes.split_at(planes.len() / 2)
    }

    /// Runs `f` on this thread's scratch, grown to this model: one slot per
    /// stored component, split spectrum planes for the mask and the adjoint
    /// sum, and tile-layout frames for the intensity and `g`. The slots' own
    /// buffers grow in the jobs that first write them.
    fn with_scratch<R>(&self, f: impl FnOnce(&mut Scratch) -> R) -> R {
        let (n, slen) = (self.height * self.width, self.rfft.spectrum_len());
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            if scratch.kernels.len() < self.components.len() {
                // ALLOC: one-time growth of the persistent per-thread slot
                // list (one entry per stored component, ~24).
                scratch.kernels.resize_with(self.components.len(), KernelSlot::default);
            }
            // Resizing to an unchanged length touches nothing.
            scratch.mask.resize(2 * slen, 0.0);
            scratch.sum.resize(2 * slen, 0.0);
            scratch.image.resize(n, 0.0);
            scratch.g.resize(n, 0.0);
            f(&mut scratch)
        })
    }

    /// Packed half-spectrum of a real mask into split planes, reused across
    /// components.
    // lint: hot-path
    fn mask_spectrum(&self, mask: &Field, spectrum: &mut [f32]) {
        let (dst_re, dst_im) = spectrum.split_at_mut(self.rfft.spectrum_len());
        self.rfft.forward_with(
            |tile| tile.pack(mask.as_slice()),
            |re, im| {
                dst_re.copy_from_slice(re);
                dst_im.copy_from_slice(im);
            },
        );
    }

    /// Per-component convolved fields from the mask's half-spectrum: the
    /// real and imaginary parts `p_k`, `q_k` of `A_k = M ⊗ h_k`, each one
    /// inverse transform entered by the spectral product `M̂ ⊙ R_k` (or
    /// `M̂ ⊙ I_k`) whose row pass runs in the slot's own field. Component
    /// indices fan out over the shared worker pool (capped by
    /// `GANOPC_THREADS`) through the allocation-free [`pool::run_chunks`]
    /// path; slot `c` receives component `c`, so downstream reductions walk
    /// the slots in stack order regardless of the worker count.
    // lint: hot-path
    fn convolved_fields_into(&self, mask: Split<'_>, slots: &mut [KernelSlot]) {
        let (n, hw) = (self.height * self.width, self.rfft.half_width());
        let slots = pool::DisjointMut::new(&mut slots[..self.components.len()]);
        pool::run_chunks(self.components.len(), |components| {
            for c in components {
                // SAFETY: run_chunks component ranges partition the slot
                // list, so slot c is written by exactly this chunk.
                let field = &mut unsafe { slots.index_mut(c) }.field;
                let comp = self.spectrum(c);
                // ALLOC: one-time growth of this slot's persistent field.
                field.resize(n, 0.0);
                self.rfft.inverse_into(
                    |ky, re, im| {
                        spectrum::mul_split((re, im), row(mask, ky, hw), row(comp, ky, hw));
                    },
                    field,
                );
            }
        });
    }

    /// Writes the intensity `Σ_k w_k (p_k² + q_k²)` of the tile-layout
    /// frame elements `first .. first + out.len()` into `out`. Each pixel
    /// starts from zero and adds the components in stack order, so its bits
    /// do not depend on how the frame was split into ranges.
    // lint: hot-path
    fn intensity_rows(&self, slots: &[KernelSlot], first: usize, out: &mut [f32]) {
        out.fill(0.0);
        for ((w, _), slot) in self.components.iter().zip(slots) {
            for (acc, &v) in out.iter_mut().zip(&slot.field[first..]) {
                *acc += w * v * v;
            }
        }
    }

    /// Aerial image `I = Σ_k w_k |M ⊗ h_k|²` at nominal dose (Eq. (2)).
    ///
    /// # Panics
    ///
    /// Panics if `mask` does not match the model frame (use
    /// [`LithoModel::aerial_image_into`] for a fallible variant).
    pub fn aerial_image(&self, mask: &Field) -> Field {
        // The intensity buffer is the returned Field's storage — the only
        // allocation on this path.
        let mut intensity = vec![0.0f32; self.height * self.width];
        // PANIC: documented above — the fallible variant is aerial_image_into.
        self.aerial_image_into(mask, &mut intensity).expect("mask shape mismatch");
        Field::from_vec(self.height, self.width, intensity)
    }

    /// Writes the aerial image into a caller-owned buffer (overwritten, not
    /// accumulated). Once warm this performs zero heap allocation —
    /// the entry point for PVB-metric callers that re-evaluate intensity per
    /// process corner and for [`LithoModel::process_window`].
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] when `mask` has the wrong shape
    /// and [`LithoError::Fft`] when `intensity` has the wrong length.
    // lint: hot-path
    pub fn aerial_image_into(&self, mask: &Field, intensity: &mut [f32]) -> Result<(), LithoError> {
        let _sp = obs::span(obs::Span::LithoAerial);
        obs::counter_add(obs::Counter::LithoAerialCalls, 1);
        self.check_shape(mask)?;
        let n = self.height * self.width;
        if intensity.len() != n {
            return Err(LithoError::Fft(ganopc_fft::FftError::SizeMismatch {
                expected: n,
                actual: intensity.len(),
            }));
        }
        let (h, slen) = (self.height, self.rfft.spectrum_len());
        self.with_scratch(|scratch| {
            let Scratch { kernels, mask: mask_spec, image, .. } = scratch;
            self.mask_spectrum(mask, mask_spec);
            self.convolved_fields_into(mask_spec.split_at(slen), kernels);
            // The tile-layout frame is `width` rows of `height` lanes.
            let (slots, out) = (&*kernels, pool::DisjointMut::new(&mut image[..]));
            pool::run_chunks(self.width, |rows| {
                let (first, end) = (rows.start * h, rows.end * h);
                // SAFETY: run_chunks row ranges partition the frame, so these
                // pixels are written by exactly this chunk.
                let out = unsafe { out.slice_mut(first..end) };
                self.intensity_rows(slots, first, out);
            });
            self.rfft.unpack(image, intensity);
        });
        Ok(())
    }

    /// Binary wafer image at a given dose: `Z = [dose · I ≥ I_th]`
    /// (Eq. (3)).
    pub fn print(&self, mask: &Field, dose: f32) -> Field {
        let aerial = self.aerial_image(mask);
        aerial.map(|i| if dose * i >= self.threshold { 1.0 } else { 0.0 })
    }

    /// Binary wafer image at nominal dose.
    pub fn print_nominal(&self, mask: &Field) -> Field {
        self.print(mask, 1.0)
    }

    /// Prints at `1−δ`, `1`, `1+δ` dose — inputs to the PVB metric. One
    /// aerial simulation into the nominal print's storage, then a single
    /// fused sweep writing all three dose prints per element, so the only
    /// allocations are the three returned fields' storage.
    pub fn process_window(&self, mask: &Field) -> [Field; 3] {
        let n = self.height * self.width;
        // ALLOC: the three print buffers are the returned fields' storage.
        let mut nominal = vec![0.0f32; n];
        let mut inner = vec![0.0f32; n];
        let mut outer = vec![0.0f32; n];
        // PANIC: documented panic contract shared with aerial_image; the
        // buffer was sized to the frame above.
        self.aerial_image_into(mask, &mut nominal).expect("mask shape mismatch");
        let th = self.threshold;
        let (lo, hi) = (1.0 - self.dose_delta, 1.0 + self.dose_delta);
        for ((pn, pi), po) in nominal.iter_mut().zip(inner.iter_mut()).zip(outer.iter_mut()) {
            let i = *pn;
            *pi = if lo * i >= th { 1.0 } else { 0.0 };
            *pn = if i >= th { 1.0 } else { 0.0 };
            *po = if hi * i >= th { 1.0 } else { 0.0 };
        }
        [
            Field::from_vec(self.height, self.width, inner),
            Field::from_vec(self.height, self.width, nominal),
            Field::from_vec(self.height, self.width, outer),
        ]
    }

    /// Relaxed wafer image `Z = σ(α(I − I_th))` of Eq. (12) from an aerial
    /// image.
    pub fn relax(&self, aerial: &Field) -> Field {
        let a = self.sigmoid_alpha;
        let th = self.threshold;
        aerial.map(|i| 1.0 / (1.0 + (-a * (i - th)).exp()))
    }

    /// Lithography error and gradient (Eq. (11) + Eq. (14) without the mask
    /// sigmoid chain) at `dose`: given a relaxed mask `M_b ∈ [0,1]` and a
    /// binary target, writes `∂E/∂M_b` into `grad` (overwritten, not
    /// accumulated) and returns the error `E = ‖Z − Z_t‖²` on the relaxed
    /// wafer `Z = σ(α(dose·I − I_th))` of Eq. (12). The gradient includes the
    /// resist-sigmoid chain factor `2α·dose·Z(1−Z)` but **not** the
    /// mask-sigmoid factor `β·M_b(1−M_b)`, which the caller that owns the
    /// mask parametrization applies. Doses other than 1 serve
    /// process-window-aware ILT, which averages corners — the strategy of
    /// MOSAIC [7 in the paper].
    ///
    /// Once warm this performs zero heap allocation — the entry point for
    /// the ILT iteration loop and the per-sample pre-training gradients.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] when `mask`/`target` disagree
    /// with the frame and [`LithoError::Fft`] when `grad` has the wrong
    /// length.
    ///
    /// # Panics
    ///
    /// Panics unless `dose > 0`.
    // lint: hot-path
    pub fn gradient_into(
        &self,
        mask: &Field,
        target: &Field,
        dose: f32,
        grad: &mut [f32],
    ) -> Result<f64, LithoError> {
        let n = self.height * self.width;
        if grad.len() != n {
            return Err(LithoError::Fft(ganopc_fft::FftError::SizeMismatch {
                expected: n,
                actual: grad.len(),
            }));
        }
        let _sp = obs::span(obs::Span::LithoGradient);
        obs::counter_add(obs::Counter::LithoGradientCalls, 1);
        self.check_shape(mask)?;
        self.check_shape(target)?;
        assert!(dose > 0.0, "dose must be positive");
        let (h, w, m) = (self.height, self.width, self.width / 2);
        let (slen, hw) = (self.rfft.spectrum_len(), self.rfft.half_width());
        self.with_scratch(|scratch| {
            let Scratch { kernels, mask: mask_spec, image: resid, g, sum } = scratch;
            let kernels = &mut kernels[..self.components.len()];
            self.mask_spectrum(mask, mask_spec);
            self.convolved_fields_into(mask_spec.split_at(slen), kernels);

            // Aerial image, then the chain factor
            // g = 2α·dose (Z − Z_t) ⊙ Z ⊙ (1 − Z) of the relaxed wafer
            // `Z = σ(α(dose·I − I_th))`, fanned out over the rows of the
            // tile-layout frame: row r holds image column
            // x = 2·(r mod w/2) + r div (w/2), one lane per image row. The
            // sweep overwrites each pixel's intensity with its residual
            // `d = Z − Z_t`; the error `Σ d²` is summed below by one job, in
            // f64 and in pixel order, so its bits do not depend on the split.
            let alpha = self.sigmoid_alpha;
            let th = self.threshold;
            let chain = 2.0 * alpha * dose;
            let (slots, tgt) = (&*kernels, target.as_slice());
            let (resid_rows, g_rows) =
                (pool::DisjointMut::new(&mut resid[..]), pool::DisjointMut::new(&mut g[..]));
            pool::run_chunks(w, |rows| {
                let (first, end) = (rows.start * h, rows.end * h);
                // SAFETY: run_chunks row ranges partition the frame, so these
                // pixels are written by exactly this chunk.
                let ds = unsafe { resid_rows.slice_mut(first..end) };
                // SAFETY: the same pixels of the other buffer, as above.
                let gs = unsafe { g_rows.slice_mut(first..end) };
                self.intensity_rows(slots, first, ds);
                let tile_rows = ds.chunks_exact_mut(h).zip(gs.chunks_exact_mut(h));
                for (r, (ds, gs)) in rows.zip(tile_rows) {
                    let column = tgt[2 * (r % m) + r / m..].iter().step_by(w);
                    for ((gi, di), &ti) in gs.iter_mut().zip(ds.iter_mut()).zip(column) {
                        let zv = 1.0 / (1.0 + (-alpha * (dose * *di - th)).exp());
                        let d = zv - ti;
                        *di = d;
                        *gi = chain * d * zv * (1.0 - zv);
                    }
                }
            });

            // grad = Σ_k w_k · 2 Re[ IFFT( FFT(g ⊙ A_k) ⊙ conj(H_k) ) ]. With
            // A_k = p + i·q and H_k = R + i·I (half-spectra of the kernel's real
            // components), the real part collapses to a Hermitian inverse, and
            // because c2r is linear the components share one:
            // grad = c2r( Σ_k 2w_k P_k ⊙ conj(R_k) + 2w_k Q_k ⊙ conj(I_k) ),
            // P_k = r2c(g⊙p_k), Q_k = r2c(g⊙q_k) — one c2r per gradient instead
            // of one per component. Each forward transform is entered by
            // writing g ⊙ p straight into the tile and left by forming the
            // weighted product `2w · P ⊙ conj(R)` from the column planes into
            // the component's slot. Component indices fan out over the pool,
            // as jobs 1.. of one dispatch whose job 0 sums the error; the sum
            // below fans out over spectrum rows, and every bin adds the
            // components in stack order, so the gradient bits do not depend
            // on how many workers ran.
            let (g_even, g_odd) = g.split_at(m * h);
            let resid = &resid[..];
            let mut error = 0.0f64;
            let error_slot = pool::DisjointMut::new(std::slice::from_mut(&mut error));
            let slots = pool::DisjointMut::new(&mut kernels[..]);
            pool::run_chunks(1 + self.components.len(), |jobs| {
                for job in jobs {
                    let Some(c) = job.checked_sub(1) else {
                        // SAFETY: only job 0 writes the error, and run_chunks
                        // runs each job exactly once.
                        *unsafe { error_slot.index_mut(0) } = pixel_order_error(resid, h);
                        continue;
                    };
                    // SAFETY: run_chunks job ranges partition the jobs, so
                    // slot c is owned by exactly this chunk.
                    let slot = unsafe { slots.index_mut(c) };
                    let (scale, comp) = (2.0 * self.components[c].0, self.spectrum(c));
                    // ALLOC: one-time growth of this slot's persistent spectrum.
                    slot.adjoint.resize(2 * slen, 0.0);
                    let (adj_re, adj_im) = slot.adjoint.split_at_mut(slen);
                    let (f_even, f_odd) = slot.field.split_at(m * h);
                    self.rfft.forward_with(
                        |tile| {
                            tile.fill(|j, re, im| {
                                let a = j * h;
                                mul_lanes(re, &g_even[a..][..h], &f_even[a..][..h]);
                                mul_lanes(im, &g_odd[a..][..h], &f_odd[a..][..h]);
                            })
                        },
                        |p_re, p_im| {
                            spectrum::mul_conj_split((adj_re, adj_im), (p_re, p_im), comp, scale)
                        },
                    );
                }
            });
            let (sum_re, sum_im) = sum.split_at_mut(slen);
            let slots = &*kernels;
            let (re_rows, im_rows) =
                (pool::DisjointMut::new(&mut sum_re[..]), pool::DisjointMut::new(&mut sum_im[..]));
            pool::run_chunks(h, |rows| {
                let (first, end) = (rows.start * hw, rows.end * hw);
                // SAFETY: run_chunks row ranges partition the spectrum, so
                // these bins are written by exactly this chunk.
                let acc_re = unsafe { re_rows.slice_mut(first..end) };
                // SAFETY: the same bins of the other plane, as above.
                let acc_im = unsafe { im_rows.slice_mut(first..end) };
                acc_re.fill(0.0);
                acc_im.fill(0.0);
                for slot in slots {
                    let (adj_re, adj_im) = slot.adjoint.split_at(slen);
                    add_lanes(acc_re, &adj_re[first..end]);
                    add_lanes(acc_im, &adj_im[first..end]);
                }
            });
            self.rfft.inverse_with(
                |ky, re, im| {
                    re.copy_from_slice(&sum_re[ky * hw..][..hw]);
                    im.copy_from_slice(&sum_im[ky * hw..][..hw]);
                },
                |tile| tile.unpack(grad),
            );
            Ok(error)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> OpticalConfig {
        let mut cfg = OpticalConfig::default_32nm(16.0);
        cfg.pupil_grid = 11;
        cfg.num_kernels = 8;
        cfg
    }

    fn small_model() -> LithoModel {
        LithoModel::new(small_config(), 64, 64).unwrap()
    }

    fn line_mask(h: usize, w: usize, x0: usize, x1: usize, y0: usize, y1: usize) -> Field {
        let mut m = Field::zeros(h, w);
        for y in y0..y1 {
            for x in x0..x1 {
                m.set(y, x, 1.0);
            }
        }
        m
    }

    #[test]
    fn rejects_non_power_of_two_frame() {
        let cfg = OpticalConfig::default_32nm(16.0);
        assert!(matches!(LithoModel::new(cfg, 96, 96), Err(LithoError::InvalidFrame(_))));
    }

    #[test]
    fn dark_mask_prints_nothing_open_mask_prints_everything() {
        let model = small_model();
        let dark = model.print_nominal(&Field::zeros(64, 64));
        assert_eq!(dark.sum(), 0.0);
        let open = model.print_nominal(&Field::filled(64, 64, 1.0));
        assert_eq!(open.sum(), (64 * 64) as f32);
    }

    #[test]
    fn minimum_line_prints_near_drawn_width() {
        // 80 nm at 16 nm/px = 5 px; the calibrated threshold should print it
        // within ±1 px of drawn CD at mid-height.
        let model = small_model();
        let mask = line_mask(64, 64, 30, 35, 8, 56);
        let wafer = model.print_nominal(&mask);
        let row: usize = 32;
        let printed: f32 = (0..64).map(|x| wafer.get(row, x)).sum();
        assert!((4.0..=7.0).contains(&printed), "printed CD {printed} px, expected ~5");
    }

    #[test]
    fn corners_round_line_ends_pull_back() {
        // Proximity effect: the printed wire should be shorter than drawn.
        let model = small_model();
        let mask = line_mask(64, 64, 30, 35, 16, 48);
        let wafer = model.print_nominal(&mask);
        let col = 32;
        let printed_len: f32 = (0..64).map(|y| wafer.get(y, col)).sum();
        assert!(printed_len > 0.0, "line vanished entirely");
        assert!(printed_len < 32.0, "no line-end pullback: {printed_len} px");
    }

    #[test]
    fn higher_dose_prints_larger() {
        let model = small_model();
        let mask = line_mask(64, 64, 28, 36, 8, 56);
        let [inner, nominal, outer] = model.process_window(&mask);
        assert!(inner.sum() <= nominal.sum());
        assert!(nominal.sum() <= outer.sum());
        assert!(outer.sum() > inner.sum(), "dose sensitivity collapsed");
    }

    #[test]
    fn relax_approaches_binary_for_steep_sigmoid() {
        let mut model = small_model();
        let mask = line_mask(64, 64, 28, 36, 8, 56);
        let aerial = model.aerial_image(&mask);
        model.set_sigmoid_alpha(500.0);
        let z = model.relax(&aerial);
        let binary = model.print_nominal(&mask);
        let mismatch: f32 =
            z.as_slice().iter().zip(binary.as_slice()).map(|(&a, &b)| (a - b).abs()).sum();
        // Soft and hard wafers agree except in the thin transition band.
        assert!(mismatch < 64.0, "relaxation too soft: {mismatch}");
    }

    /// Error and gradient through the production entry point at nominal
    /// dose.
    fn grad_and_error(model: &LithoModel, mask: &Field, target: &Field) -> (Vec<f32>, f64) {
        let mut grad = vec![0.0f32; mask.len()];
        let error = model.gradient_into(mask, target, 1.0, &mut grad).unwrap();
        (grad, error)
    }

    /// A soft blob, away from binarization plateaus.
    fn soft_blob() -> Field {
        let mut m = Field::zeros(64, 64);
        for y in 24..40 {
            for x in 24..40 {
                m.set(y, x, 0.6);
            }
        }
        m
    }

    #[test]
    fn aerial_shape_mismatch_is_error() {
        let model = small_model();
        let bad = Field::zeros(32, 32);
        let mut intensity = vec![0.0f32; 32 * 32];
        assert!(matches!(
            model.aerial_image_into(&bad, &mut intensity),
            Err(LithoError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let model = small_model();
        let mask = soft_blob();
        let target = line_mask(64, 64, 28, 36, 24, 40);
        let (grad, _) = grad_and_error(&model, &mask, &target);

        // Directional finite difference: aggregate over the whole field so
        // f32 forward-model rounding averages out. Direction = deterministic
        // pseudo-random unit vector.
        let mut dir = vec![0.0f32; 64 * 64];
        let mut state = 0xdead_beef_u64;
        for d in dir.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *d = ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
        }
        let norm = dir.iter().map(|d| d * d).sum::<f32>().sqrt();
        for d in dir.iter_mut() {
            *d /= norm;
        }
        let eps = 1e-2f32;
        let shifted = |sign: f32| {
            Field::from_vec(
                64,
                64,
                mask.as_slice().iter().zip(&dir).map(|(&m, &d)| m + sign * eps * d).collect(),
            )
        };
        let ep = grad_and_error(&model, &shifted(1.0), &target).1;
        let em = grad_and_error(&model, &shifted(-1.0), &target).1;
        let fd = (ep - em) / (2.0 * eps as f64);
        let analytic: f64 = grad.iter().zip(&dir).map(|(&g, &d)| g as f64 * d as f64).sum();
        let denom = fd.abs().max(analytic.abs()).max(1e-6);
        assert!(
            (fd - analytic).abs() / denom < 0.02,
            "directional derivative: fd {fd} vs analytic {analytic}"
        );
    }

    #[test]
    fn gradient_pointwise_matches_on_strong_pixels() {
        // Per-pixel check restricted to pixels where the gradient is large
        // enough to rise above f32 forward-model noise.
        let model = small_model();
        let mask = soft_blob();
        let target = line_mask(64, 64, 28, 36, 24, 40);
        let (grad, error) = grad_and_error(&model, &mask, &target);
        // A pre-filled buffer is overwritten, not accumulated into.
        let mut garbage = vec![7.0f32; 64 * 64];
        assert_eq!(model.gradient_into(&mask, &target, 1.0, &mut garbage).unwrap(), error);
        assert_eq!(garbage, grad);

        let grad = Field::from_vec(64, 64, grad);
        let (py, px) = {
            let mut best = (0, 0);
            let mut mag = 0.0f32;
            for y in 0..64 {
                for x in 0..64 {
                    if grad.get(y, x).abs() > mag {
                        mag = grad.get(y, x).abs();
                        best = (y, x);
                    }
                }
            }
            best
        };
        let eps = 5e-3f32;
        let mut plus = mask.clone();
        plus.set(py, px, plus.get(py, px) + eps);
        let mut minus = mask.clone();
        minus.set(py, px, minus.get(py, px) - eps);
        let ep = grad_and_error(&model, &plus, &target).1;
        let em = grad_and_error(&model, &minus, &target).1;
        let fd = ((ep - em) / (2.0 * eps as f64)) as f32;
        let an = grad.get(py, px);
        assert!(
            (fd - an).abs() / an.abs().max(1e-6) < 0.05,
            "pixel ({py},{px}): fd {fd} vs analytic {an}"
        );
    }

    #[test]
    fn gradient_error_decreases_along_negative_gradient() {
        let model = small_model();
        let target = line_mask(64, 64, 28, 36, 16, 48);
        let mask = Field::filled(64, 64, 0.4);
        let (grad, e0) = grad_and_error(&model, &mask, &target);
        let step = 1e-2f32;
        let moved = Field::from_vec(
            64,
            64,
            mask.as_slice()
                .iter()
                .zip(&grad)
                .map(|(&m, &g)| (m - step * g).clamp(0.0, 1.0))
                .collect(),
        );
        let (_, e1) = grad_and_error(&model, &moved, &target);
        assert!(e1 < e0, "descent failed: {e0} -> {e1}");
    }

    #[test]
    fn threshold_is_sane() {
        let model = small_model();
        let th = model.threshold();
        assert!(th > 0.01 && th < 1.0, "threshold {th}");
    }

    /// The property the in-focus bit-identity rests on: at nominal focus,
    /// every kernel of the stacks the benchmark and the pinned runs derive
    /// keeps exactly one component, so each kernel is one entry of the
    /// component list.
    #[test]
    fn every_in_focus_kernel_keeps_one_component() {
        for (size, kernels) in [(128usize, 24usize), (64, 12), (32, 12), (32, 24)] {
            let mut cfg = OpticalConfig::default_32nm(2048.0 / size as f64);
            cfg.num_kernels = kernels;
            let stack = SocsKernels::from_config(&cfg);
            for (k, kernel) in stack.kernels().iter().enumerate() {
                let stored = stored_parts(&kernel.taps).count();
                assert_eq!(stored, 1, "{size} px, {kernels} kernels: kernel {k} keeps {stored}");
            }
        }
        // Out of focus the rule keeps both parts, so the count can read 2.
        let cfg = small_config().with_defocus(60.0);
        let stack = SocsKernels::from_config(&cfg);
        assert!(stack.kernels().iter().any(|k| stored_parts(&k.taps).count() == 2));
    }

    /// A kernel's parts become spectra of frames with the center tap at the
    /// origin: a lone real center tap `t` has the flat spectrum `t`, and
    /// its zero imaginary part is not stored.
    #[test]
    fn a_center_tap_is_a_flat_spectrum() {
        let mut taps = vec![Complex::ZERO; 9];
        taps[4] = Complex::from_real(7.0);
        let kernel = crate::socs::SocsKernel { weight: 0.5, taps };
        let stack = SocsKernels::from_parts(3, 16.0, vec![kernel]);
        let rfft = RealFft2d::new(8, 8).unwrap();
        let components = component_spectra(&stack, &rfft);
        assert_eq!(components.len(), 1);
        let (weight, planes) = &components[0];
        assert_eq!(*weight, 0.5);
        let (re, im) = planes.split_at(rfft.spectrum_len());
        assert!(re.iter().all(|&v| v == 7.0), "{re:?}");
        assert!(im.iter().all(|&v| v == 0.0), "{im:?}");
    }

    #[test]
    fn kernel_count_respects_config() {
        let model = small_model();
        assert!(model.num_kernels() <= 8);
        assert!(model.num_kernels() >= 4);
    }

    #[test]
    fn gradient_into_rejects_bad_buffer() {
        let model = small_model();
        let mask = Field::zeros(64, 64);
        let mut short = vec![0.0f32; 16];
        assert!(matches!(
            model.gradient_into(&mask, &mask, 1.0, &mut short),
            Err(LithoError::Fft(_))
        ));
    }
}
