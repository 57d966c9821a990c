//! Lock-free single-producer/single-consumer ring, the §6.1 message queue.
//!
//! "To implement asynchronous message passing, we use more than one slot
//! (seven by default) for sending messages. The size of each slot is 128
//! bytes, which is twice the cache line size. [...] The multiple slots are
//! wrapped into a queue. [...] Each queue has a head and a tail pointer.
//! The head pointer is moved by the reader and the tail by the writer. The
//! reader process verifies the equality of head and tail pointers to check
//! for new messages. [...] Because of separate queues, there is no need
//! for operating system locks to access the queues" (§6.1).
//!
//! The implementation is a classic Lamport ring: each slot is aligned and
//! padded to 128 bytes (two cache lines, as in the paper), the head and
//! tail indices live on their own cache lines, and the fast path is one
//! release store by the writer and one acquire load by the reader.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::crossbeam::utils::CachePadded;

/// Number of usable slots per queue if none is specified — the paper's
/// "seven by default" (§6.1).
pub const DEFAULT_SLOTS: usize = 7;

/// Paper's slot size: 128 bytes, twice the cache-line size (§6.1). Slots
/// are aligned to this so two slots never share a cache line.
pub const SLOT_BYTES: usize = 128;

/// A message slot, aligned and padded to [`SLOT_BYTES`].
#[repr(align(128))]
struct Slot<T> {
    val: UnsafeCell<MaybeUninit<T>>,
}

struct Inner<T> {
    /// Next index the reader will read. Moved only by the reader (§6.1).
    head: CachePadded<AtomicUsize>,
    /// Next index the writer will write. Moved only by the writer.
    tail: CachePadded<AtomicUsize>,
    slots: Box<[Slot<T>]>,
    /// Messages successfully enqueued (for the §3 measurements).
    sends: CachePadded<AtomicUsize>,
    /// Messages successfully dequeued.
    recvs: CachePadded<AtomicUsize>,
}

// SAFETY: the ring transfers `T` values between exactly one producer and
// one consumer; `T: Send` is sufficient because each value is accessed by
// one thread at a time, with release/acquire ordering on the indices
// establishing happens-before for the slot contents.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Sole owner at this point: drain initialized slots.
        let cap = self.slots.len();
        let mut head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        while head != tail {
            // SAFETY: slots in [head, tail) were written and never read.
            unsafe { (*self.slots[head].val.get()).assume_init_drop() };
            head = (head + 1) % cap;
        }
    }
}

/// Error returned by [`Sender::try_send`] when the queue is full; gives
/// the message back to the caller.
pub struct Full<T>(pub T);

impl<T> fmt::Debug for Full<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Full(..)")
    }
}

impl<T> fmt::Display for Full<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("queue is full")
    }
}

impl<T> std::error::Error for Full<T> {}

/// The producing half of an SPSC queue. Not cloneable: the type system
/// enforces the single producer.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender")
            .field("capacity", &(self.inner.slots.len() - 1))
            .field("sends", &self.inner.sends.load(Ordering::Relaxed))
            .finish()
    }
}

/// The consuming half of an SPSC queue. Not cloneable.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver")
            .field("capacity", &(self.inner.slots.len() - 1))
            .field("recvs", &self.inner.recvs.load(Ordering::Relaxed))
            .finish()
    }
}

/// Creates a queue with `slots` usable slots (one spare slot
/// distinguishes full from empty, so `slots + 1` are allocated).
///
/// # Panics
///
/// Panics if `slots` is zero.
///
/// # Examples
///
/// ```
/// let (tx, rx) = qc_channel::spsc::channel::<u64>(qc_channel::DEFAULT_SLOTS);
/// tx.try_send(7).unwrap();
/// assert_eq!(rx.try_recv(), Some(7));
/// assert_eq!(rx.try_recv(), None);
/// ```
pub fn channel<T>(slots: usize) -> (Sender<T>, Receiver<T>) {
    assert!(slots > 0, "queue must have at least one slot");
    let cap = slots + 1;
    let slots: Box<[Slot<T>]> = (0..cap)
        .map(|_| Slot {
            val: UnsafeCell::new(MaybeUninit::uninit()),
        })
        .collect();
    let inner = Arc::new(Inner {
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
        slots,
        sends: CachePadded::new(AtomicUsize::new(0)),
        recvs: CachePadded::new(AtomicUsize::new(0)),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Enqueues `v`, or returns it if the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`Full`] carrying the message back when all slots are
    /// occupied.
    pub fn try_send(&self, v: T) -> Result<(), Full<T>> {
        let inner = &*self.inner;
        let cap = inner.slots.len();
        let tail = inner.tail.load(Ordering::Relaxed);
        let next = (tail + 1) % cap;
        if next == inner.head.load(Ordering::Acquire) {
            return Err(Full(v));
        }
        // SAFETY: single producer; the slot at `tail` is outside the
        // reader's [head, tail) window, hence unaliased.
        unsafe { (*inner.slots[tail].val.get()).write(v) };
        inner.tail.store(next, Ordering::Release);
        inner.sends.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Enqueues `v`, spinning until a slot frees up. This is how the §3
    /// experiment's sender pauses "until it learns that the last message
    /// has been read" on a single-slot queue.
    pub fn send_spin(&self, v: T) {
        let backoff = crate::crossbeam::utils::Backoff::new();
        let mut v = v;
        loop {
            match self.try_send(v) {
                Ok(()) => return,
                Err(Full(back)) => {
                    v = back;
                    backoff.snooze();
                }
            }
        }
    }

    /// Whether the queue is currently full.
    pub fn is_full(&self) -> bool {
        let inner = &*self.inner;
        let cap = inner.slots.len();
        let tail = inner.tail.load(Ordering::Relaxed);
        (tail + 1) % cap == inner.head.load(Ordering::Acquire)
    }

    /// Usable slot count.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len() - 1
    }

    /// Messages successfully enqueued so far.
    pub fn sends(&self) -> usize {
        self.inner.sends.load(Ordering::Relaxed)
    }

    /// Whether the receiving half is still alive.
    pub fn receiver_alive(&self) -> bool {
        Arc::strong_count(&self.inner) > 1
    }
}

impl<T> Receiver<T> {
    /// Dequeues the oldest message, if any.
    pub fn try_recv(&self) -> Option<T> {
        let inner = &*self.inner;
        let cap = inner.slots.len();
        let head = inner.head.load(Ordering::Relaxed);
        if head == inner.tail.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: single consumer; the slot at `head` was initialized by
        // the producer before the release store we acquired above.
        let v = unsafe { (*inner.slots[head].val.get()).assume_init_read() };
        inner.head.store((head + 1) % cap, Ordering::Release);
        inner.recvs.fetch_add(1, Ordering::Relaxed);
        Some(v)
    }

    /// Dequeues, spinning until a message arrives.
    pub fn recv_spin(&self) -> T {
        let backoff = crate::crossbeam::utils::Backoff::new();
        loop {
            if let Some(v) = self.try_recv() {
                return v;
            }
            backoff.snooze();
        }
    }

    /// Whether the queue currently holds no messages.
    pub fn is_empty(&self) -> bool {
        let inner = &*self.inner;
        inner.head.load(Ordering::Relaxed) == inner.tail.load(Ordering::Acquire)
    }

    /// Usable slot count.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len() - 1
    }

    /// Messages successfully dequeued so far.
    pub fn recvs(&self) -> usize {
        self.inner.recvs.load(Ordering::Relaxed)
    }

    /// Whether the sending half is still alive.
    pub fn sender_alive(&self) -> bool {
        Arc::strong_count(&self.inner) > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = channel::<u32>(4);
        for i in 0..4 {
            tx.try_send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.try_recv(), Some(i));
        }
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn full_returns_message() {
        let (tx, rx) = channel::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(tx.is_full());
        let Full(back) = tx.try_send(3).unwrap_err();
        assert_eq!(back, 3);
        assert_eq!(rx.try_recv(), Some(1));
        assert!(!tx.is_full());
        tx.try_send(3).unwrap();
    }

    #[test]
    fn single_slot_queue_alternates() {
        // The §3 propagation-delay experiment uses "a queue that can only
        // hold a single message".
        let (tx, rx) = channel::<u64>(1);
        tx.try_send(10).unwrap();
        assert!(tx.is_full());
        assert_eq!(rx.try_recv(), Some(10));
        tx.try_send(11).unwrap();
        assert_eq!(rx.try_recv(), Some(11));
    }

    #[test]
    fn capacity_reports_usable_slots() {
        let (tx, rx) = channel::<u8>(DEFAULT_SLOTS);
        assert_eq!(tx.capacity(), 7);
        assert_eq!(rx.capacity(), 7);
        for i in 0..7 {
            tx.try_send(i).unwrap();
        }
        assert!(tx.is_full());
    }

    #[test]
    fn counters_track_traffic() {
        let (tx, rx) = channel::<u8>(4);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        rx.try_recv().unwrap();
        assert_eq!(tx.sends(), 2);
        assert_eq!(rx.recvs(), 1);
    }

    #[test]
    fn cross_thread_transfer_of_everything() {
        const N: u64 = 100_000;
        let (tx, rx) = channel::<u64>(DEFAULT_SLOTS);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                tx.send_spin(i);
            }
        });
        let mut sum = 0u64;
        let mut count = 0u64;
        while count < N {
            if let Some(v) = rx.try_recv() {
                sum += v;
                count += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert_eq!(sum, N * (N - 1) / 2);
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn cross_thread_order_preserved() {
        const N: u64 = 50_000;
        let (tx, rx) = channel::<u64>(3);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                tx.send_spin(i);
            }
        });
        for i in 0..N {
            assert_eq!(rx.recv_spin(), i);
        }
        producer.join().unwrap();
    }

    #[test]
    fn drop_drains_pending_messages() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (tx, rx) = channel::<Tracked>(4);
        tx.try_send(Tracked).unwrap();
        tx.try_send(Tracked).unwrap();
        drop(rx.try_recv()); // one consumed
        drop(tx);
        drop(rx); // one still queued: must be dropped exactly once
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }

    /// The `unsafe` slot handling under real concurrency: values cross
    /// threads through rings of several capacities while each side drops
    /// its end at a seeded random point. Every value ever created —
    /// received, handed back by a full ring, or still queued when the
    /// ring is freed — must be dropped exactly once.
    #[test]
    fn cross_thread_drops_every_value_exactly_once() {
        struct Tracked<'a> {
            id: usize,
            drops: &'a [AtomicUsize],
        }
        impl Drop for Tracked<'_> {
            fn drop(&mut self) {
                self.drops[self.id].fetch_add(1, Ordering::SeqCst);
            }
        }
        // SplitMix64: a seeded stream of drop points.
        let mut seed = 0x5EED_u64;
        let mut next = move |bound: usize| {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as usize % (bound + 1)
        };
        const N: usize = 10_000;
        let mut total = 0;
        for cap in [1, 2, 7, 64] {
            for _ in 0..8 {
                let (send_stop, recv_stop) = (next(N), next(N));
                let drops: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
                let (tx, rx) = channel::<Tracked<'_>>(cap);
                let created = std::thread::scope(|s| {
                    let drops = &drops[..];
                    let sender = s.spawn(move || {
                        for id in 0..send_stop {
                            let mut v = Tracked { id, drops };
                            loop {
                                match tx.try_send(v) {
                                    Ok(()) => break,
                                    Err(Full(back)) if tx.receiver_alive() => {
                                        v = back;
                                        std::thread::yield_now();
                                    }
                                    // Receiver gone, ring full: the value
                                    // comes back and is dropped here.
                                    Err(Full(_)) => return id + 1,
                                }
                            }
                        }
                        send_stop
                    });
                    let mut received = 0;
                    while received < recv_stop {
                        match rx.try_recv() {
                            Some(v) => {
                                drop(v);
                                received += 1;
                            }
                            None if !rx.sender_alive() => break,
                            None => std::thread::yield_now(),
                        }
                    }
                    drop(rx);
                    sender.join().expect("sender panicked")
                });
                // Both ends are gone: the ring itself has been freed.
                for (id, d) in drops.iter().enumerate() {
                    let want = usize::from(id < created);
                    assert_eq!(d.load(Ordering::SeqCst), want, "cap {cap}, value {id}");
                }
                total += created;
            }
        }
        assert!(total > 50_000, "only {total} values crossed");
    }

    #[test]
    fn endpoint_liveness() {
        let (tx, rx) = channel::<u8>(1);
        assert!(tx.receiver_alive());
        drop(rx);
        assert!(!tx.receiver_alive());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = channel::<u8>(0);
    }
}
