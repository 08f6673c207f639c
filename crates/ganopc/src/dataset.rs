//! The synthesized training library (paper Section 4).
//!
//! "We synthesize a training layout library with 4000 instances based on the
//! design specifications from existing 32 nm M1 layout topologies" — target
//! clips come from [`ganopc_geometry::synthesis::TrainingLibrary`]; their
//! ground-truth masks `M*` are produced by the ILT engine, exactly as the
//! paper obtains its references.

use crate::GanOpcError;
use ganopc_geometry::synthesis::TrainingLibrary;
use ganopc_geometry::DesignRules;
use ganopc_ilt::{IltConfig, IltEngine};
use ganopc_litho::{Field, LithoModel, OpticalConfig};
use ganopc_nn::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A target/reference-mask training set at network resolution.
#[derive(Debug, Clone)]
pub struct OpcDataset {
    size: usize,
    targets: Vec<Field>,
    masks: Vec<Field>,
}

impl OpcDataset {
    /// Builds a dataset of `count` instances at `size × size` network
    /// resolution (each clip spans 2048 nm, matching the paper's frames).
    ///
    /// Reference masks are produced by running the ILT engine on each
    /// target; `ilt_config` controls how hard that reference optimization
    /// works (tests use [`IltConfig::fast`], experiments use
    /// [`IltConfig::mosaic`]).
    ///
    /// # Errors
    ///
    /// Propagates lithography/ILT failures; returns
    /// [`GanOpcError::Config`] for a zero count.
    pub fn synthesize(
        size: usize,
        count: usize,
        ilt_config: IltConfig,
        seed: u64,
    ) -> Result<Self, GanOpcError> {
        if count == 0 {
            return Err(GanOpcError::Config("dataset count must be positive".into()));
        }
        let mut opt = OpticalConfig::default_32nm(crate::flow::FRAME_NM / size as f64);
        // Keep dataset construction affordable: the reference quality is set
        // by the ILT iteration budget, not the kernel count.
        opt.num_kernels = opt.num_kernels.min(12);
        let model = LithoModel::new_cached(opt, size, size)?;
        let library = TrainingLibrary::generate(
            DesignRules::m1_32nm(),
            crate::flow::FRAME_NM as i64,
            count,
            seed,
        );
        let mut engine = IltEngine::new(model, ilt_config);
        let mut targets = Vec::with_capacity(count);
        let mut masks = Vec::with_capacity(count);
        for clip in &library {
            let target = clip.rasterize_raster(size, size).binarize(0.5);
            let reference = engine.optimize(&target)?;
            targets.push(target);
            masks.push(reference.mask_relaxed);
        }
        Ok(OpcDataset { size, targets, masks })
    }

    /// Wraps externally produced pairs.
    ///
    /// # Errors
    ///
    /// Returns [`GanOpcError::Config`] when lists are empty, lengths differ,
    /// or shapes disagree with `size`.
    pub fn from_pairs(
        size: usize,
        targets: Vec<Field>,
        masks: Vec<Field>,
    ) -> Result<Self, GanOpcError> {
        if targets.is_empty() || targets.len() != masks.len() {
            return Err(GanOpcError::Config(format!(
                "need equal nonzero counts, got {} targets / {} masks",
                targets.len(),
                masks.len()
            )));
        }
        for f in targets.iter().chain(&masks) {
            if f.shape() != (size, size) {
                return Err(GanOpcError::Config(format!(
                    "field shape {:?} does not match dataset size {size}",
                    f.shape()
                )));
            }
        }
        Ok(OpcDataset { size, targets, masks })
    }

    /// Network resolution.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of instances.
    #[inline]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` when the dataset has no instances (never for valid
    /// datasets).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The target clips.
    #[inline]
    pub fn targets(&self) -> &[Field] {
        &self.targets
    }

    /// The reference masks.
    #[inline]
    pub fn masks(&self) -> &[Field] {
        &self.masks
    }

    /// Assembles instances `indices` into `[B, 1, size, size]` tensors
    /// `(targets, masks)` — one mini-batch (Algorithm 1 line 2).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or an empty index list.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Tensor) {
        let (mut targets, mut masks) = (Tensor::zeros(&[1]), Tensor::zeros(&[1]));
        self.batch_into(indices, &mut targets, &mut masks);
        (targets, masks)
    }

    /// [`OpcDataset::batch`] into caller-owned tensors, resized in place:
    /// once they have their capacity, assembling a batch allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or an empty index list.
    pub(crate) fn batch_into(&self, indices: &[usize], targets: &mut Tensor, masks: &mut Tensor) {
        self.stack_into(&self.targets, indices, targets);
        self.stack_into(&self.masks, indices, masks);
    }

    /// Writes the targets of instances `indices` into `out`, resized in
    /// place to `[B, 1, size, size]`: the mini-batch Algorithm 2 reads,
    /// without the reference masks it never uses.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or an empty index list.
    pub(crate) fn targets_into(&self, indices: &[usize], out: &mut Tensor) {
        self.stack_into(&self.targets, indices, out);
    }

    fn stack_into(&self, fields: &[Field], indices: &[usize], out: &mut Tensor) {
        assert!(!indices.is_empty(), "empty mini-batch");
        let plane = self.size * self.size;
        out.resize(&[indices.len(), 1, self.size, self.size]);
        for (dst, &i) in out.as_mut_slice().chunks_exact_mut(plane).zip(indices) {
            dst.copy_from_slice(fields[i].as_slice());
        }
    }

    /// Deterministically shuffled index order for one epoch.
    pub fn epoch_order(&self, seed: u64) -> Vec<usize> {
        let mut order = Vec::new();
        shuffle_into(&mut order, self.len(), seed);
        order
    }

    /// Starts the deterministic mini-batch stream used by training: epoch
    /// `e` is drawn in [`OpcDataset::epoch_order`]`(seed.wrapping_add(e))`
    /// order (matching [`EpochStream`]'s checkpointed position semantics).
    pub fn epoch_stream(&self, seed: u64) -> EpochStream {
        EpochStream::at_position(self, seed, 0, 0)
    }
}

/// The deterministic shuffle stream every trainer draws mini-batches from.
///
/// The stream is fully described by `(seed, epoch, cursor)`: epoch `e`
/// visits the dataset in `epoch_order(seed.wrapping_add(e))` order and
/// `cursor` counts the indices already consumed within it. That triple is
/// what training checkpoints persist; [`EpochStream::at_position`] rebuilds
/// the stream bit-identically, so a resumed trainer draws exactly the
/// batches an uninterrupted run would have drawn.
#[derive(Debug, Clone)]
pub struct EpochStream {
    seed: u64,
    epoch: u64,
    cursor: usize,
    order: Vec<usize>,
}

impl EpochStream {
    /// Reconstructs a stream at a saved `(seed, epoch, cursor)` position.
    ///
    /// # Panics
    ///
    /// Panics when `cursor` exceeds the dataset length.
    pub fn at_position(dataset: &OpcDataset, seed: u64, epoch: u64, cursor: usize) -> Self {
        assert!(cursor <= dataset.len(), "cursor {cursor} beyond dataset of {}", dataset.len());
        let order = dataset.epoch_order(seed.wrapping_add(epoch));
        EpochStream { seed, epoch, cursor, order }
    }

    /// The current `(epoch, cursor)` position (persist together with the
    /// seed to resume).
    pub fn position(&self) -> (u64, usize) {
        (self.epoch, self.cursor)
    }

    /// The stream's shuffle seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Moves the stream to a saved `(epoch, cursor)` position in place: the
    /// same stream [`EpochStream::at_position`] would build, reshuffled
    /// into the existing order buffer only when the epoch or the dataset
    /// length changes.
    ///
    /// # Panics
    ///
    /// Panics when `cursor` exceeds the dataset length.
    pub(crate) fn seek(&mut self, dataset: &OpcDataset, epoch: u64, cursor: usize) {
        assert!(cursor <= dataset.len(), "cursor {cursor} beyond dataset of {}", dataset.len());
        if epoch != self.epoch || self.order.len() != dataset.len() {
            shuffle_into(&mut self.order, dataset.len(), self.seed.wrapping_add(epoch));
        }
        (self.epoch, self.cursor) = (epoch, cursor);
    }

    /// Draws the next `batch_size` instance indices, reshuffling at epoch
    /// boundaries (Algorithm 1 line 2).
    ///
    /// # Panics
    ///
    /// Panics when `batch_size` is zero or `dataset` does not match the
    /// stream (fewer instances than the saved cursor).
    pub fn next_batch(&mut self, dataset: &OpcDataset, batch_size: usize) -> Vec<usize> {
        let mut indices = Vec::with_capacity(batch_size);
        self.next_batch_into(dataset, batch_size, &mut indices);
        indices
    }

    /// [`EpochStream::next_batch`] into a caller-owned buffer: once
    /// `indices` and the stream's order have their capacity, drawing (epoch
    /// boundaries included) allocates nothing.
    ///
    /// # Panics
    ///
    /// As [`EpochStream::next_batch`].
    pub(crate) fn next_batch_into(
        &mut self,
        dataset: &OpcDataset,
        batch_size: usize,
        indices: &mut Vec<usize>,
    ) {
        assert!(batch_size > 0, "empty mini-batch");
        assert_eq!(self.order.len(), dataset.len(), "stream bound to another dataset");
        indices.clear();
        while indices.len() < batch_size {
            if self.cursor == self.order.len() {
                self.epoch += 1;
                shuffle_into(&mut self.order, dataset.len(), self.seed.wrapping_add(self.epoch));
                self.cursor = 0;
            }
            indices.push(self.order[self.cursor]);
            self.cursor += 1;
        }
    }
}

/// Overwrites `order` with the permutation of `0..len` that shuffling with
/// `seed` gives, reusing its capacity.
fn shuffle_into(order: &mut Vec<usize>, len: usize, seed: u64) {
    order.clear();
    order.extend(0..len);
    order.shuffle(&mut StdRng::seed_from_u64(seed));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> OpcDataset {
        OpcDataset::synthesize(32, 3, IltConfig::fast(), 11).unwrap()
    }

    #[test]
    fn synthesize_produces_pairs() {
        let ds = tiny();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.size(), 32);
        for (t, m) in ds.targets().iter().zip(ds.masks()) {
            assert_eq!(t.shape(), (32, 32));
            assert_eq!(m.shape(), (32, 32));
            // Targets are binary, masks are relaxed.
            assert!(t.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
            assert!(m.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = OpcDataset::synthesize(32, 2, IltConfig::fast(), 5).unwrap();
        let b = OpcDataset::synthesize(32, 2, IltConfig::fast(), 5).unwrap();
        assert_eq!(a.targets(), b.targets());
        assert_eq!(a.masks(), b.masks());
    }

    #[test]
    fn batch_assembly() {
        let ds = tiny();
        let (t, m) = ds.batch(&[0, 2]);
        assert_eq!(t.shape(), &[2, 1, 32, 32]);
        assert_eq!(m.shape(), &[2, 1, 32, 32]);
        assert_eq!(&t.as_slice()[..1024], ds.targets()[0].as_slice());
        assert_eq!(&m.as_slice()[1024..], ds.masks()[2].as_slice());
    }

    #[test]
    fn epoch_order_is_a_permutation() {
        let ds = tiny();
        let order = ds.epoch_order(1);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        assert_eq!(order, ds.epoch_order(1));
    }

    #[test]
    fn epoch_stream_matches_manual_loop() {
        let ds = tiny();
        let mut stream = ds.epoch_stream(7);
        // The reference semantics the original training loops implemented.
        let mut order = ds.epoch_order(7);
        let (mut cursor, mut epoch) = (0usize, 0u64);
        for _ in 0..5 {
            let batch = stream.next_batch(&ds, 2);
            let mut expect = Vec::new();
            while expect.len() < 2 {
                if cursor == order.len() {
                    epoch += 1;
                    order = ds.epoch_order(7u64.wrapping_add(epoch));
                    cursor = 0;
                }
                expect.push(order[cursor]);
                cursor += 1;
            }
            assert_eq!(batch, expect);
        }
        assert_eq!(stream.position(), (epoch, cursor));
    }

    #[test]
    fn epoch_stream_resumes_bit_identically() {
        let ds = tiny();
        let mut straight = ds.epoch_stream(3);
        let mut first = ds.epoch_stream(3);
        let mut drawn: Vec<Vec<usize>> = (0..4).map(|_| first.next_batch(&ds, 2)).collect();
        let (epoch, cursor) = first.position();
        let mut resumed = EpochStream::at_position(&ds, 3, epoch, cursor);
        drawn.extend((0..4).map(|_| resumed.next_batch(&ds, 2)));
        let reference: Vec<Vec<usize>> = (0..8).map(|_| straight.next_batch(&ds, 2)).collect();
        assert_eq!(drawn, reference);
    }

    #[test]
    fn seek_matches_at_position() {
        let ds = tiny();
        let mut stream = ds.epoch_stream(5);
        for (epoch, cursor) in [(0, 1), (0, 1), (2, 0), (2, 3), (1, 2)] {
            let _ = stream.next_batch(&ds, 2);
            stream.seek(&ds, epoch, cursor);
            let mut fresh = EpochStream::at_position(&ds, 5, epoch, cursor);
            for _ in 0..3 {
                assert_eq!(stream.next_batch(&ds, 2), fresh.next_batch(&ds, 2));
            }
            assert_eq!(stream.position(), fresh.position());
        }
    }

    #[test]
    #[should_panic(expected = "beyond dataset")]
    fn epoch_stream_rejects_bad_cursor() {
        let ds = tiny();
        let _ = EpochStream::at_position(&ds, 0, 0, ds.len() + 1);
    }

    #[test]
    fn from_pairs_validates() {
        let f = Field::zeros(16, 16);
        assert!(OpcDataset::from_pairs(16, vec![f.clone()], vec![f.clone()]).is_ok());
        assert!(OpcDataset::from_pairs(16, vec![f.clone()], vec![]).is_err());
        assert!(OpcDataset::from_pairs(32, vec![f.clone()], vec![f]).is_err());
    }

    #[test]
    fn zero_count_rejected() {
        assert!(matches!(
            OpcDataset::synthesize(32, 0, IltConfig::fast(), 1),
            Err(GanOpcError::Config(_))
        ));
    }
}
