//! Cache-blocked `f32` matrix multiplication with a register-resident
//! micro-tile.
//!
//! One blocked GEMM core serves the three layouts the layers need
//! (`C = A·B`, `C = Aᵀ·B`, `C = A·Bᵀ`). The kernel walks `KC`×`NC` tiles of
//! `B` (sized to stay cache-resident) and computes `C` in `MR`×`NR` register
//! tiles: the accumulators are loaded from `C` once, advanced through the
//! whole depth block with `f32::mul_add`, and stored once. Keeping the tile
//! in registers removes the per-depth-step load/store round-trip through
//! `C` that a plain saxpy formulation pays, which is what lets the FMA
//! units rather than the L1 store port set the throughput ceiling.
//!
//! The tile loop is fed from an `A` panel of MR values per depth step:
//! `Aᵀ` (TN) already stores them contiguously, and `A` (NN, NT) is packed
//! into a `[KC × MR]` stack panel once per depth block. Each step
//! broadcasts the MR values against one `NR`-wide `B` row, so the vector
//! dimension is the `B` row and the loop holds no gather, no scatter and no
//! layout branch.
//!
//! `A·Bᵀ` has no contiguous `B` rows to stream, so it either packs a
//! transposed `B` tile first (tall products, where the pack cost amortizes
//! over many rows) or falls back to lane-parallel dot products (short
//! products: `m < NT_PACK_MIN_ROWS` and `k ≤ NT_DOT_MAX_DEPTH`).
//!
//! Every element has one fixed summation chain, whatever the thread count:
//! - tiled path (NN, TN, packed NT): one `mul_add` chain per `C[i][j]`,
//!   `k` ascending from +0.0;
//! - dot path: `LANES` chains, lane `l` taking the depth indices
//!   `p ≡ l (mod LANES)` in ascending order from +0.0, then the lanes added
//!   in lane order from −0.0.
//!
//! Large products are split across [`crate::pool`] workers along the longer
//! `C` axis. Each worker owns a disjoint block of `C` and runs the identical
//! serial kernel over it, so every `C[i][j]` is accumulated along the same
//! chain regardless of the thread count — results are bit-identical for
//! any `GANOPC_THREADS` setting.
//!
//! Packing scratch lives on the stack (the `A` panel) and in thread-local
//! buffers (the transposed `B` tile, column stripes): steady-state serial
//! calls (and nested calls from inside pool workers) allocate nothing.
//!
//! `f32::mul_add` compiles to a single FMA instruction on targets with FMA
//! (the checked-in `.cargo/config.toml` builds with `-C target-cpu=native`);
//! without it the libm fallback is slow but still correct.

// lint: hot-path

use crate::pool;
use std::cell::RefCell;

/// Micro-tile height: `C` rows held in registers together.
pub const MR: usize = 4;
/// Micro-tile width in `f32` lanes (two AVX2 registers; also the column
/// alignment quantum for parallel stripes — one cache line of `f32`).
pub const NR: usize = 16;
/// Depth-block size of a `B` tile and of the packed `A` panel.
pub const KC: usize = 256;
/// Column-block size of a `B` tile (`KC`×`NC`×4 B stays L2-resident).
pub const NC: usize = 512;
/// Below this many multiply-adds the parallel split is not worth the
/// thread hand-off.
const PAR_MIN_MULADDS: usize = 1 << 19;
/// `A·Bᵀ` products at least this tall amortize packing a transposed tile.
pub const NT_PACK_MIN_ROWS: usize = 48;
/// `A·Bᵀ` dot products deeper than this stall on FMA latency (one
/// accumulator chain), so packing wins even for short products.
pub const NT_DOT_MAX_DEPTH: usize = 2048;
/// Lane count of the dot-product partial sums (one AVX2 register).
pub const LANES: usize = 8;
/// Output columns each pass of the dot path computes together.
const DOT_COLS: usize = 8;

/// Operand layouts: which inputs are stored transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `A` is `[m×k]`, `B` is `[k×n]`.
    NN,
    /// `A` is stored `[k×m]` (multiply with `A` transposed), `B` is `[k×n]`.
    TN,
    /// `A` is `[m×k]`, `B` is stored `[n×k]` (multiply with `B` transposed).
    NT,
}

thread_local! {
    /// Per-thread scratch for transposed `B` tiles of `A·Bᵀ` products.
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread stripe scratch for column-split outputs (crew workers are
    /// persistent, so this is a one-time allocation per worker).
    static STRIPE: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `C[m×n] = A[m×k] · B[k×n]` written into `c` (overwritten, not accumulated).
pub fn matmul_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs size mismatch");
    assert_eq!(b.len(), k * n, "rhs size mismatch");
    gemm(Layout::NN, a, b, c, m, k, n);
}

/// `C[m×n] = Aᵀ · B` (`A` stored `[k×m]`) written into `c` (overwritten).
pub fn matmul_tn_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "lhs size mismatch");
    assert_eq!(b.len(), k * n, "rhs size mismatch");
    gemm(Layout::TN, a, b, c, m, k, n);
}

/// `C[m×n] = A · Bᵀ` (`B` stored `[n×k]`) written into `c` (overwritten).
pub fn matmul_nt_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs size mismatch");
    assert_eq!(b.len(), n * k, "rhs size mismatch");
    gemm(Layout::NT, a, b, c, m, k, n);
}

/// Dispatches a full product, splitting across pool workers when profitable.
/// The parallel splits dispatch through [`pool::run_chunks`]: no job vector,
/// no result vector — a steady-state dispatch allocates nothing.
fn gemm(layout: Layout, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(c.len(), m * n, "output size mismatch");
    c.fill(0.0);
    if k == 0 {
        return;
    }
    if m * k * n < PAR_MIN_MULADDS || pool::max_threads() <= 1 || pool::in_worker() {
        with_pack(|pack| gemm_block(layout, a, b, m, k, n, 0, m, 0, n, c, n, pack));
    } else if m >= n {
        // Row split: chunk the MR-quantized row-block index space, so every
        // participant owns whole micro-tile rows; each chunk gets a disjoint
        // `&mut` row block of C through `DisjointMut`.
        let blocks = m.div_ceil(MR);
        let out = pool::DisjointMut::new(c);
        pool::run_chunks(blocks, |r| {
            let i_lo = r.start * MR;
            let i_hi = (r.end * MR).min(m);
            // SAFETY: run_chunks block ranges partition 0..blocks, so the
            // derived row ranges — and hence these element ranges of C —
            // are pairwise disjoint.
            let chunk = unsafe { out.slice_mut(i_lo * n..i_hi * n) };
            with_pack(|pack| gemm_block(layout, a, b, m, k, n, i_lo, i_hi, 0, n, chunk, n, pack));
        });
    } else {
        // Column split: chunk the NR-quantized column-block index space.
        // Row-major column ranges of C are not contiguous, so each chunk
        // computes into its thread's persistent stripe scratch and copies
        // back into its own disjoint column segment of every C row.
        let blocks = n.div_ceil(NR);
        let out = pool::DisjointMut::new(c);
        pool::run_chunks(blocks, |r| {
            let j_lo = r.start * NR;
            let j_hi = (r.end * NR).min(n);
            let width = j_hi - j_lo;
            with_stripe(m * width, |local| {
                with_pack(|pack| {
                    gemm_block(layout, a, b, m, k, n, 0, m, j_lo, j_hi, local, width, pack)
                });
                for i in 0..m {
                    // SAFETY: column ranges [j_lo, j_hi) are pairwise
                    // disjoint across chunks, so row i's segment here is
                    // touched by exactly this chunk.
                    let row = unsafe { out.slice_mut(i * n + j_lo..i * n + j_hi) };
                    row.copy_from_slice(&local[i * width..][..width]);
                }
            });
        });
    }
}

/// Runs `f` with this thread's packing scratch.
fn with_pack<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    PACK.with(|cell| f(&mut cell.borrow_mut()))
}

/// Runs `f` with this thread's stripe scratch, zeroed to `len` elements.
fn with_stripe<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    STRIPE.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            // ALLOC: one-time growth of persistent per-worker scratch; crew
            // workers live for the whole process, so steady state reuses it.
            buf.resize(len, 0.0);
        }
        let local = &mut buf[..len];
        local.fill(0.0);
        f(local)
    })
}

/// Serial blocked kernel computing `C[i_lo..i_hi, j_lo..j_hi] += A·B` for the
/// given layout. `out` holds that sub-block with row stride `ldc` and must be
/// pre-zeroed; `out[0]` corresponds to `C[i_lo][j_lo]`.
///
/// The accumulation order into any `C[i][j]` depends only on the problem
/// dimensions — never on `i_lo`/`j_lo` — which is what makes the parallel
/// splits above bit-identical to a serial run.
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    i_lo: usize,
    i_hi: usize,
    j_lo: usize,
    j_hi: usize,
    out: &mut [f32],
    ldc: usize,
    pack: &mut Vec<f32>,
) {
    // Short A·Bᵀ products: lane-parallel dot products beat paying for a
    // transposed pack. (The choice depends only on the full dimensions, so
    // every parallel worker takes the same path.)
    if layout == Layout::NT && m < NT_PACK_MIN_ROWS && k <= NT_DOT_MAX_DEPTH {
        for i in i_lo..i_hi {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[(i - i_lo) * ldc..][..j_hi - j_lo];
            let b_rows = &b[j_lo * k..j_hi * k];
            let mut cols = out_row.chunks_exact_mut(DOT_COLS);
            let mut b_blocks = b_rows.chunks_exact(DOT_COLS * k);
            for (dst, b_block) in cols.by_ref().zip(b_blocks.by_ref()) {
                let b_cols: [&[f32]; DOT_COLS] = std::array::from_fn(|c| &b_block[c * k..][..k]);
                dst.copy_from_slice(&dot_lanes(a_row, b_cols));
            }
            for (dst, b_row) in cols.into_remainder().iter_mut().zip(b_blocks.remainder().chunks(k))
            {
                [*dst] = dot_lanes(a_row, [b_row]);
            }
        }
        return;
    }
    // The A panel of one MR-row block over one depth block, `[kc × MR]`
    // with row stride `a_stride`: packed for NN and NT, where the block's
    // rows are strided in `A`, and read in place for TN, whose MR values per
    // depth step are already contiguous.
    let mut packed = [0.0f32; KC * MR];
    for jc in (j_lo..j_hi).step_by(NC) {
        let nc = NC.min(j_hi - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // Resolve the B tile: direct strided view of `b` when its rows
            // are contiguous, a freshly transposed pack otherwise.
            if layout == Layout::NT {
                pack_transposed(b, k, pc, kc, jc, nc, pack);
            }
            let (bt, b_stride): (&[f32], usize) = match layout {
                Layout::NN | Layout::TN => (&b[pc * n + jc..], n),
                Layout::NT => (pack.as_slice(), nc),
            };
            let mut i = i_lo;
            while i < i_hi {
                let mr = MR.min(i_hi - i);
                let (panel, a_stride): (&[f32], usize) = match layout {
                    Layout::TN => (&a[pc * m + i..], m),
                    Layout::NN | Layout::NT => {
                        pack_panel(&a[i * k + pc..], k, mr, &mut packed[..kc * MR]);
                        (&packed[..], MR)
                    }
                };
                let out = &mut out[(i - i_lo) * ldc + (jc - j_lo)..];
                let mut j = 0;
                while j < nc {
                    let nr = NR.min(nc - j);
                    if mr == MR && nr == NR {
                        tile(panel, a_stride, kc, &bt[j..], b_stride, &mut out[j..], ldc);
                    } else {
                        // Remainder fringe: one row at a time, with the
                        // identical per-element accumulation chain.
                        for r in 0..mr {
                            let orow = &mut out[r * ldc + j..][..nr];
                            for p in 0..kc {
                                let av = panel[p * a_stride + r];
                                let b_row = &bt[p * b_stride + j..][..nr];
                                for (cv, &bv) in orow.iter_mut().zip(b_row) {
                                    *cv = av.mul_add(bv, *cv);
                                }
                            }
                        }
                    }
                    j += nr;
                }
                i += mr;
            }
        }
    }
}

/// Packs the first `mr` rows (row stride `k`) of the `A` block starting at
/// `a` into `panel` as `[kc × MR]`, depth-major. A fringe block
/// (`mr < MR`) repeats its last row into the unused slots, which the fringe
/// loop never reads.
fn pack_panel(a: &[f32], k: usize, mr: usize, panel: &mut [f32]) {
    let (panel, _) = panel.as_chunks_mut::<MR>();
    let kc = panel.len();
    let rows: [&[f32]; MR] = std::array::from_fn(|r| &a[r.min(mr - 1) * k..][..kc]);
    for (p, dst) in panel.iter_mut().enumerate() {
        *dst = rows.map(|src| src[p]);
    }
}

/// The MR×NR register tile: loads `C`'s tile once, advances every element's
/// chain through the panel's `kc` depth steps in ascending order, stores
/// once. The vector dimension is the `B` row: each depth step broadcasts
/// the panel's MR consecutive values against one pre-sliced row. Kept out
/// of line so the accumulators stay in registers whatever surrounds the
/// call.
#[inline(never)]
fn tile(
    panel: &[f32],
    a_stride: usize,
    kc: usize,
    b: &[f32],
    b_stride: usize,
    out: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&out[r * ldc..][..NR]);
    }
    for p in 0..kc {
        let (Some(av), Some(b_row)) =
            (panel[p * a_stride..].first_chunk::<MR>(), b[p * b_stride..].first_chunk::<NR>())
        else {
            // PANIC: callers pass a panel and B tile spanning all kc steps.
            unreachable!("panel and B tile cover the depth block")
        };
        for (row, &a) in acc.iter_mut().zip(av) {
            for (cv, &bv) in row.iter_mut().zip(b_row) {
                *cv = a.mul_add(bv, *cv);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[r * ldc..][..NR].copy_from_slice(row);
    }
}

/// `J` dot products of `a` against the rows of `b`, each with `LANES`
/// independent partial sums (broken FMA latency chain, clean packed
/// codegen): lane `l` sums the depth indices `p ≡ l (mod LANES)` in
/// ascending order, and the lanes then fold in order, so each result
/// depends only on its two operands. Computing several columns per pass
/// lets one load of `a` feed `J` chains.
#[inline(always)]
fn dot_lanes<const J: usize>(a: &[f32], b: [&[f32]; J]) -> [f32; J] {
    let mut acc = [[0.0f32; LANES]; J];
    let (a_chunks, a_rem) = a.as_chunks::<LANES>();
    let b_chunks = b.map(|row| &row.as_chunks::<LANES>().0[..a_chunks.len()]);
    for (p, av) in a_chunks.iter().enumerate() {
        for (lanes, bc) in acc.iter_mut().zip(&b_chunks) {
            for ((s, &x), &y) in lanes.iter_mut().zip(av).zip(&bc[p]) {
                *s = x.mul_add(y, *s);
            }
        }
    }
    let rem = a_chunks.len() * LANES;
    for (lanes, row) in acc.iter_mut().zip(b) {
        for ((s, &x), &y) in lanes.iter_mut().zip(a_rem).zip(&row[rem..]) {
            *s = x.mul_add(y, *s);
        }
    }
    acc.map(|lanes| lanes.iter().sum())
}

/// Packs the `B`-stored-`[n×k]` tile depth `[pc, pc+kc)` × rows `[jc, jc+nc)`
/// into `dst` transposed to `[kc × nc]` row-major, so the saxpy kernel can
/// stream contiguous rows.
fn pack_transposed(
    b: &[f32],
    k: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    dst: &mut Vec<f32>,
) {
    dst.clear();
    dst.resize(kc * nc, 0.0);
    for (jj, src_row) in b[jc * k + pc..].chunks(k).take(nc).enumerate() {
        for (p, &v) in src_row.iter().take(kc).enumerate() {
            dst[p * nc + jj] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    fn assert_close(actual: &[f32], expected: &[f32]) {
        assert_eq!(actual.len(), expected.len());
        for (idx, (&x, &y)) in actual.iter().zip(expected).enumerate() {
            let tol = 1e-5f32.max(1e-5 * y.abs());
            assert!((x - y).abs() <= tol, "element {idx}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_reference_across_remainder_shapes() {
        // Sizes straddle the MR/NR/KC block edges to exercise padding, and
        // (97, 64, 11) crosses the NT pack/dot threshold.
        for &(m, k, n) in
            &[(1, 1, 1), (3, 5, 7), (6, 16, 16), (7, 17, 19), (13, 300, 33), (97, 64, 11)]
        {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let expect = reference_nn(&a, &b, m, k, n);
            // Every product writes into NaN: an element the kernel
            // accumulated into instead of overwriting would stay NaN.
            let mut c = vec![f32::NAN; m * n];
            matmul_into(&mut c, &a, &b, m, k, n);
            assert_close(&c, &expect);

            // Aᵀ stored [k×m]: transpose `a` into `at`.
            let mut at = vec![0.0f32; k * m];
            for i in 0..m {
                for p in 0..k {
                    at[p * m + i] = a[i * k + p];
                }
            }
            c.fill(f32::NAN);
            matmul_tn_into(&mut c, &at, &b, m, k, n);
            assert_close(&c, &expect);

            // Bᵀ stored [n×k]: transpose `b` into `bt`.
            let mut bt = vec![0.0f32; n * k];
            for p in 0..k {
                for j in 0..n {
                    bt[j * k + p] = b[p * n + j];
                }
            }
            c.fill(f32::NAN);
            matmul_nt_into(&mut c, &a, &bt, m, k, n);
            assert_close(&c, &expect);
        }
    }

    #[test]
    fn large_product_splits_deterministically() {
        // Big enough to clear PAR_MIN_MULADDS on any thread count; the
        // parallel result must be bitwise identical to the serial kernel.
        let (m, k, n) = (64, 128, 160);
        let a = fill(m * k, 5);
        let b = fill(k * n, 6);
        let mut serial = vec![0.0f32; m * n];
        with_pack(|pack| gemm_block(Layout::NN, &a, &b, m, k, n, 0, m, 0, n, &mut serial, n, pack));
        let mut parallel = vec![f32::NAN; m * n];
        matmul_into(&mut parallel, &a, &b, m, k, n);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn nt_pack_and_dot_paths_agree_within_tolerance() {
        // Tall product takes the packed path, short takes the dot path;
        // both must match the reference. (97 rows with k > threshold also
        // exercises pack on a non-multiple-of-MR height.)
        for &(m, k, n) in &[(NT_PACK_MIN_ROWS, 33, 21), (NT_PACK_MIN_ROWS - 1, 33, 21)] {
            let a = fill(m * k, 7);
            let b = fill(k * n, 8);
            let expect = reference_nn(&a, &b, m, k, n);
            let mut bt = vec![0.0f32; n * k];
            for p in 0..k {
                for j in 0..n {
                    bt[j * k + p] = b[p * n + j];
                }
            }
            let mut c = vec![f32::NAN; m * n];
            matmul_nt_into(&mut c, &a, &bt, m, k, n);
            assert_close(&c, &expect);
        }
    }
}
