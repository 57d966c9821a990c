//! Offline stand-ins for the `crossbeam` utilities this crate leans on.
//!
//! The build environment cannot fetch crates.io dependencies, so the two
//! pieces of `crossbeam` the queues use — `utils::CachePadded` and
//! `utils::Backoff` — are re-implemented here with the same paths and
//! call shapes. The queue modules compile unchanged; deleting this module
//! and adding the real `crossbeam` dependency restores the upstream
//! implementations.

pub(crate) mod utils {
    //! Cache-line padding and spin backoff.

    use std::ops::{Deref, DerefMut};

    /// Pads and aligns a value to 128 bytes, so that two `CachePadded`
    /// fields never share a cache line (the false-sharing defence the
    /// paper's queues rely on; 128 covers the spatial prefetcher pulling
    /// adjacent-line pairs on x86).
    #[derive(Debug, Default)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Pads `value`.
        pub fn new(value: T) -> Self {
            CachePadded { value }
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;

        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    /// Exponential spin backoff: spin-hint for a while, then start
    /// yielding the thread, mirroring `crossbeam_utils::Backoff`.
    #[derive(Debug, Default)]
    pub struct Backoff {
        step: std::cell::Cell<u32>,
    }

    /// Spin (2^step hints) up to this step, yield beyond it.
    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;

    impl Backoff {
        /// A fresh backoff.
        pub fn new() -> Self {
            Backoff::default()
        }

        /// Backs off once, escalating from busy spinning to yielding.
        pub fn snooze(&self) {
            let step = self.step.get();
            if step <= SPIN_LIMIT {
                for _ in 0..1u32 << step {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
            if step <= YIELD_LIMIT {
                self.step.set(step + 1);
            }
        }
    }
}
