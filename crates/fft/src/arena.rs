//! Reusable scratch-buffer arena for the spectral hot paths.
//!
//! The litho model's aerial-image and gradient evaluations need a handful of
//! frame-sized complex and real buffers per SOCS kernel. Allocating them
//! per call dominated small-frame runtimes and thrashes the allocator from
//! the worker pool. [`Arena`] is a mutex-guarded freelist owned by the plan
//! (the [`LithoModel`]), shared by all workers, from which buffers are
//! borrowed and returned. It predates the persistent work-crew, when pool
//! workers were scoped threads recreated per call and a thread-local cache
//! could not outlive one; being owned by the model, it also frees its
//! buffers with the model. After the first call on a given frame size the
//! freelist is warm and steady-state evaluations perform no heap
//! allocation for scratch.
//!
//! The arena also counts *fresh* allocations (freelist misses), which is the
//! hook the zero-allocation regression tests assert on.
//!
//! [`LithoModel`]: ../../ganopc_litho/struct.LithoModel.html

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::Complex;

/// A freelist of frame-sized scratch buffers shared across pool workers.
///
/// Buffers are handed out zero-filled at the requested length. Locks are
/// held only for the freelist push/pop, never while a buffer is in use, so
/// contention is a few nanoseconds per borrow even with many workers.
#[derive(Debug, Default)]
pub struct Arena {
    complex: Mutex<Vec<Vec<Complex>>>,
    real: Mutex<Vec<Vec<f32>>>,
    fresh: AtomicUsize,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Borrows a zeroed complex buffer of length `len`.
    // lint: hot-path
    pub fn take_complex(&self, len: usize) -> Vec<Complex> {
        // PANIC: the freelist lock is only held for push/pop, which cannot
        // panic, so the mutex can never be poisoned.
        let mut buf = self.complex.lock().expect("arena poisoned").pop().unwrap_or_default();
        if buf.capacity() < len {
            self.fresh.fetch_add(1, Ordering::Relaxed);
        }
        buf.clear();
        buf.resize(len, Complex::ZERO);
        buf
    }

    /// Returns a complex buffer to the freelist.
    // lint: hot-path
    pub fn put_complex(&self, buf: Vec<Complex>) {
        // PANIC: see take_complex — push/pop critical sections cannot panic.
        self.complex.lock().expect("arena poisoned").push(buf);
    }

    /// Borrows a zeroed real buffer of length `len`.
    // lint: hot-path
    pub fn take_real(&self, len: usize) -> Vec<f32> {
        // PANIC: see take_complex — push/pop critical sections cannot panic.
        let mut buf = self.real.lock().expect("arena poisoned").pop().unwrap_or_default();
        if buf.capacity() < len {
            self.fresh.fetch_add(1, Ordering::Relaxed);
        }
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a real buffer to the freelist.
    // lint: hot-path
    pub fn put_real(&self, buf: Vec<f32>) {
        // PANIC: see take_complex — push/pop critical sections cannot panic.
        self.real.lock().expect("arena poisoned").push(buf);
    }

    /// Ensures the freelist holds at least `count` complex buffers of
    /// capacity `len`, allocating the shortfall up front (counted as fresh).
    ///
    /// Hot paths whose *peak concurrent* buffer usage depends on scheduling
    /// (how many pool chunks happen to run simultaneously) call this with
    /// their worst case so the warm state is reached deterministically
    /// instead of only after the worst-case race has happened to occur.
    // lint: hot-path
    pub fn reserve_complex(&self, count: usize, len: usize) {
        loop {
            let have = {
                // PANIC: see take_complex — the critical section cannot panic.
                let list = self.complex.lock().expect("arena poisoned");
                list.iter().filter(|b| b.capacity() >= len).count()
            };
            if have >= count {
                return;
            }
            self.fresh.fetch_add(1, Ordering::Relaxed);
            // ALLOC: deliberate pre-allocation outside the lock; steady-state
            // calls find the freelist already full and allocate nothing.
            self.put_complex(vec![Complex::ZERO; len]);
        }
    }

    /// Real-buffer counterpart of [`Arena::reserve_complex`].
    // lint: hot-path
    pub fn reserve_real(&self, count: usize, len: usize) {
        loop {
            let have = {
                // PANIC: see take_complex — the critical section cannot panic.
                let list = self.real.lock().expect("arena poisoned");
                list.iter().filter(|b| b.capacity() >= len).count()
            };
            if have >= count {
                return;
            }
            self.fresh.fetch_add(1, Ordering::Relaxed);
            // ALLOC: deliberate pre-allocation outside the lock; steady-state
            // calls find the freelist already full and allocate nothing.
            self.put_real(vec![0.0; len]);
        }
    }

    /// Number of freelist misses so far — takes that had to grow a fresh
    /// buffer instead of recycling one. Stable across calls once the arena
    /// is warm; the zero-allocation tests assert exactly that.
    pub fn fresh_allocations(&self) -> usize {
        self.fresh.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_buffers_after_warmup() {
        let arena = Arena::new();
        let a = arena.take_complex(64);
        let b = arena.take_real(32);
        assert_eq!(arena.fresh_allocations(), 2);
        arena.put_complex(a);
        arena.put_real(b);
        for _ in 0..10 {
            let a = arena.take_complex(64);
            let b = arena.take_real(32);
            assert!(a.iter().all(|c| *c == Complex::ZERO));
            assert!(b.iter().all(|v| *v == 0.0));
            arena.put_complex(a);
            arena.put_real(b);
        }
        assert_eq!(arena.fresh_allocations(), 2, "warm arena must not allocate");
    }

    #[test]
    fn growing_request_counts_as_fresh() {
        let arena = Arena::new();
        let a = arena.take_complex(16);
        arena.put_complex(a);
        let a = arena.take_complex(1024); // freelist hit, but must grow
        assert_eq!(arena.fresh_allocations(), 2);
        arena.put_complex(a);
        let a = arena.take_complex(64); // shrinking reuse is free
        assert_eq!(arena.fresh_allocations(), 2);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn buffers_are_rezeroed_on_take() {
        let arena = Arena::new();
        let mut a = arena.take_real(8);
        a.iter_mut().for_each(|v| *v = 7.0);
        arena.put_real(a);
        let a = arena.take_real(8);
        assert!(a.iter().all(|v| *v == 0.0));
    }
}
