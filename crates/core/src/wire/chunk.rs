//! Shared-ownership chunk buffers: the zero-copy receive path and the
//! coalescing send path of the wire layer.
//!
//! The first socket transport (PR 7) kept one growable `Vec<u8>` per
//! connection: every `read(2)` went through a scratch buffer and an
//! `extend_from_slice`, every partial frame triggered a
//! `drain(..rpos)` compaction, and every `send` paid one `write(2)`.
//! Each payload byte was therefore copied two or three times between
//! the socket and the protocol handler. This module is the replacement,
//! in the rope-buffer style of network stacks that slice frames out of
//! reference-counted segments instead of copying them around:
//!
//! * [`Chunk`] — a cheaply clonable view into an `Arc`-backed byte
//!   segment. `slice()` and `advance()` adjust offsets; the bytes are
//!   never moved. A decoded frame *borrows* its segment this way, which
//!   is what lets the receive path hand payloads to the codec without a
//!   per-frame copy.
//! * [`RecvBuf`] — the per-connection receive buffer. The socket reads
//!   **directly into the segment's tail** ([`RecvBuf::writable`] /
//!   [`RecvBuf::commit`]), and [`RecvBuf::next_frame`] slices each
//!   complete frame out as a [`Chunk`]. A frame's bytes are touched
//!   once between the kernel and the decoder. Segments are recycled
//!   through an internal pool, so steady-state receiving allocates
//!   nothing (frames larger than a segment fall back to a one-off
//!   right-sized segment).
//! * [`SendQueue`] — the per-connection send coalescer. `push_frame`
//!   encodes directly into a pooled segment (no intermediate payload
//!   buffer, capacity reused across flushes); [`SendQueue::slices`]
//!   exposes everything queued as [`IoSlice`]s so one
//!   `write_vectored(2)` carries a whole flush window of frames.
//!
//! The buffers are transport-agnostic — plain bytes in, frames out —
//! so the codec proptests can drive them through arbitrary split and
//! corruption schedules without a socket in sight.

use std::collections::VecDeque;
use std::io::IoSlice;
use std::ops::Range;
use std::sync::Arc;

use super::{read_frame, write_frame_with, DecodeError, FRAME_HEADER, MAX_FRAME};

/// Default capacity of one receive segment. Large enough that dozens of
/// protocol frames (tens of bytes each) arrive per segment fill, small
/// enough that a handful of pooled segments per connection is cheap.
pub const SEGMENT_SIZE: usize = 64 * 1024;

/// Soft cap on one send segment: frames append to the current segment
/// until it passes this size, then a fresh (pooled) segment starts.
pub const WRITE_SEGMENT: usize = 32 * 1024;

/// Segments kept for reuse per buffer; beyond this they are freed.
const POOL_CAP: usize = 8;

// --------------------------------------------------------------------
// Chunk
// --------------------------------------------------------------------

/// A shared-ownership view into an `Arc`-backed byte segment.
///
/// Cloning or [slicing](Chunk::slice) a chunk bumps a reference count;
/// the underlying bytes are never copied or moved. Equality compares
/// bytes, not identity.
#[derive(Clone)]
pub struct Chunk {
    seg: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Chunk {
    /// Wraps an owned byte vector as a single-segment chunk.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        let seg: Arc<[u8]> = bytes.into();
        let end = seg.len();
        Chunk { seg, start: 0, end }
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.seg[self.start..self.end]
    }

    /// Number of viewed bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view of `range` (relative to this chunk), sharing the same
    /// segment — no bytes are copied.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past [`len`](Chunk::len).
    pub fn slice(&self, range: Range<usize>) -> Chunk {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds of chunk of {} bytes",
            self.len()
        );
        Chunk {
            seg: Arc::clone(&self.seg),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Drops the first `n` bytes from the view (the bytes stay in the
    /// segment; only the offset moves).
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance {n} past chunk of {}", self.len());
        self.start += n;
    }

    /// Whether two chunks view the **same segment allocation** — the
    /// aliasing oracle the zero-copy tests pin: a frame sliced out of a
    /// receive segment shares storage with it.
    pub fn same_segment(&self, other: &Chunk) -> bool {
        Arc::ptr_eq(&self.seg, &other.seg)
    }

    /// Pops one complete frame off the front of this chunk, returning
    /// its payload as a sub-chunk (shared storage, no copy) and
    /// advancing past it. `Ok(None)` means the remaining bytes are a
    /// partial frame.
    ///
    /// # Errors
    ///
    /// Propagates the framing errors of [`read_frame`].
    pub fn split_frame(&mut self) -> Result<Option<Chunk>, DecodeError> {
        match read_frame(self.as_slice())? {
            Some((_, consumed)) => {
                let payload = self.slice(FRAME_HEADER..consumed);
                self.advance(consumed);
                Ok(Some(payload))
            }
            None => Ok(None),
        }
    }
}

impl std::ops::Deref for Chunk {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Chunk {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Chunk {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Chunk {}

impl std::fmt::Debug for Chunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chunk")
            .field("len", &self.len())
            .field("segment", &self.seg.len())
            .finish()
    }
}

// --------------------------------------------------------------------
// RecvBuf
// --------------------------------------------------------------------

/// Per-connection receive buffer: sockets read into it in place, frames
/// slice out of it as [`Chunk`]s.
///
/// The fill cycle is `writable()` → `read(2)` into the returned tail →
/// `commit(n)` → `next_frame()` until `Ok(None)`. Unparsed bytes are
/// only ever moved when the segment's tail runs out (a bounded
/// `copy_within` of at most one partial frame — the old full-buffer
/// `drain` compaction is gone), or when a still-alive [`Chunk`] aliases
/// the segment, in which case the buffer *rolls* to a pooled fresh
/// segment rather than overwrite shared bytes.
pub struct RecvBuf {
    seg: Arc<[u8]>,
    /// Parse cursor: bytes `rpos..filled` are committed but unparsed.
    rpos: usize,
    filled: usize,
    /// Retired segments awaiting their chunk holders; reused once
    /// unique again.
    pool: Vec<Arc<[u8]>>,
    /// Capacity of newly allocated segments ([`SEGMENT_SIZE`] unless
    /// narrowed for tests).
    segment: usize,
}

impl RecvBuf {
    /// An empty buffer with the default segment size.
    pub fn new() -> Self {
        Self::with_segment_size(SEGMENT_SIZE)
    }

    /// An empty buffer with `segment`-byte segments — test hook for
    /// forcing frames to span segment boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `segment` cannot hold even a frame header.
    pub fn with_segment_size(segment: usize) -> Self {
        assert!(segment > FRAME_HEADER, "segment too small for a header");
        RecvBuf {
            seg: Arc::from(vec![0u8; segment]),
            rpos: 0,
            filled: 0,
            pool: Vec::new(),
            segment,
        }
    }

    /// Committed-but-unparsed byte count.
    pub fn pending(&self) -> usize {
        self.filled - self.rpos
    }

    /// The segment capacity a partial frame at the cursor will need, if
    /// its header (and so its length field) is already visible. Clamped
    /// to the [`MAX_FRAME`] cap: a corrupt length field must not talk
    /// this buffer into a giant allocation — [`read_frame`] will reject
    /// the header on the next parse, and the connection dies there.
    fn needed(&self) -> Option<usize> {
        let buf = &self.seg[self.rpos..self.filled];
        if buf.len() < FRAME_HEADER {
            return None;
        }
        let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
        Some(FRAME_HEADER + len.min(MAX_FRAME))
    }

    /// Moves the pending bytes into a fresh segment of at least
    /// `min_cap`, retiring the current one into the pool.
    fn roll(&mut self, min_cap: usize) {
        let mut idx = None;
        for (i, s) in self.pool.iter_mut().enumerate() {
            if s.len() >= min_cap && Arc::get_mut(s).is_some() {
                idx = Some(i);
                break;
            }
        }
        let mut fresh = match idx {
            Some(i) => self.pool.swap_remove(i),
            // Oversized frames get a one-off right-sized segment; it is
            // pooled afterwards like any other and reused while unique.
            None => Arc::from(vec![0u8; min_cap.max(self.segment)]),
        };
        let pending = self.rpos..self.filled;
        let n = pending.len();
        Arc::get_mut(&mut fresh).expect("fresh segment is unique")[..n]
            .copy_from_slice(&self.seg[pending]);
        let old = std::mem::replace(&mut self.seg, fresh);
        if self.pool.len() < POOL_CAP {
            self.pool.push(old);
        }
        self.rpos = 0;
        self.filled = n;
    }

    /// The writable tail of the current segment, for the socket to read
    /// into; never empty. Call [`commit`](RecvBuf::commit) with the
    /// byte count actually read.
    pub fn writable(&mut self) -> &mut [u8] {
        if self.rpos == self.filled {
            self.rpos = 0;
            self.filled = 0;
        }
        // A frame longer than the current segment can never complete in
        // place; move to one that fits it.
        let min_cap = self.needed().unwrap_or(0);
        if min_cap > self.seg.len() {
            self.roll(min_cap);
        } else if Arc::get_mut(&mut self.seg).is_none() {
            // Live chunks still alias this segment: roll rather than
            // overwrite shared bytes. (Steady state never hits this —
            // decoded frames are consumed before the next fill.)
            self.roll(self.segment);
        } else if self.filled == self.seg.len() {
            // Tail exhausted mid-frame: compact the partial frame to
            // the front — a bounded copy, not a full-buffer drain.
            let seg = Arc::get_mut(&mut self.seg).expect("checked unique above");
            seg.copy_within(self.rpos..self.filled, 0);
            self.filled -= self.rpos;
            self.rpos = 0;
        }
        let filled = self.filled;
        Arc::get_mut(&mut self.seg)
            .expect("segment unique after roll")
            .get_mut(filled..)
            .expect("writable tail exists")
    }

    /// Records `n` bytes as read into the last
    /// [`writable`](Self::writable) slice.
    ///
    /// # Panics
    ///
    /// Panics if `n` overruns the segment.
    pub fn commit(&mut self, n: usize) {
        assert!(self.filled + n <= self.seg.len(), "commit past segment");
        self.filled += n;
    }

    /// Slices the next complete frame's payload out of the buffer as a
    /// [`Chunk`] aliasing the segment — no copy. `Ok(None)` means more
    /// bytes are needed.
    ///
    /// # Errors
    ///
    /// Propagates the framing errors of [`read_frame`]; the stream is
    /// unrecoverable after one.
    pub fn next_frame(&mut self) -> Result<Option<Chunk>, DecodeError> {
        match read_frame(&self.seg[self.rpos..self.filled])? {
            Some((_, consumed)) => {
                let payload = Chunk {
                    seg: Arc::clone(&self.seg),
                    start: self.rpos + FRAME_HEADER,
                    end: self.rpos + consumed,
                };
                self.rpos += consumed;
                Ok(Some(payload))
            }
            None => Ok(None),
        }
    }
}

impl Default for RecvBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for RecvBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecvBuf")
            .field("pending", &self.pending())
            .field("segment", &self.seg.len())
            .field("pooled", &self.pool.len())
            .finish()
    }
}

// --------------------------------------------------------------------
// SendQueue
// --------------------------------------------------------------------

/// Per-connection send coalescer: frames encode straight into pooled
/// segments, and everything queued flushes through one vectored write.
///
/// The cycle is `push_frame(..)` any number of times, then
/// [`slices`](SendQueue::slices) → `write_vectored(2)` →
/// [`consume`](SendQueue::consume) with the byte count the kernel
/// accepted. Fully-written segments are cleared (capacity kept) and
/// recycled, so steady-state sending allocates nothing.
pub struct SendQueue {
    /// Pending segments, oldest first; `head_pos` bytes of the front
    /// one are already written.
    segs: VecDeque<Vec<u8>>,
    head_pos: usize,
    /// Total unsent bytes across all segments.
    queued: usize,
    pool: Vec<Vec<u8>>,
}

impl SendQueue {
    /// An empty queue.
    pub fn new() -> Self {
        SendQueue {
            segs: VecDeque::new(),
            head_pos: 0,
            queued: 0,
            pool: Vec::new(),
        }
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Unsent bytes queued (the backpressure signal).
    pub fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// Appends one frame, encoding its payload via `payload` directly
    /// into the current segment (starting a fresh pooled one past the
    /// [`WRITE_SEGMENT`] soft cap) — no intermediate buffer, no copy.
    pub fn push_frame(&mut self, payload: impl FnOnce(&mut Vec<u8>)) {
        let start_new = match self.segs.back() {
            None => true,
            Some(b) => b.len() >= WRITE_SEGMENT,
        };
        if start_new {
            self.segs.push_back(self.pool.pop().unwrap_or_default());
        }
        let back = self.segs.back_mut().expect("segment just ensured");
        let before = back.len();
        write_frame_with(back, payload);
        self.queued += back.len() - before;
    }

    /// Fills `out` with [`IoSlice`]s over everything queued, oldest
    /// first, and returns how many were produced (bounded by
    /// `out.len()`).
    pub fn slices<'s>(&'s self, out: &mut [IoSlice<'s>]) -> usize {
        let mut n = 0;
        for (i, seg) in self.segs.iter().enumerate() {
            if n == out.len() {
                break;
            }
            let from = if i == 0 { self.head_pos } else { 0 };
            if seg.len() > from {
                out[n] = IoSlice::new(&seg[from..]);
                n += 1;
            }
        }
        n
    }

    /// Marks `n` bytes (as exposed by [`slices`](SendQueue::slices)) as
    /// written, recycling drained segments.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the queued byte count.
    pub fn consume(&mut self, mut n: usize) {
        assert!(n <= self.queued, "consumed {n} of {} queued", self.queued);
        self.queued -= n;
        while n > 0 {
            let head_len = self
                .segs
                .front()
                .expect("queued bytes imply a segment")
                .len();
            let left = head_len - self.head_pos;
            if n >= left {
                n -= left;
                let mut seg = self.segs.pop_front().expect("checked front");
                self.head_pos = 0;
                seg.clear();
                if self.pool.len() < POOL_CAP && seg.capacity() <= 4 * WRITE_SEGMENT {
                    self.pool.push(seg);
                }
            } else {
                self.head_pos += n;
                n = 0;
            }
        }
    }

    /// Drops everything queued (a dead connection's buffers), keeping
    /// the segments for reuse.
    pub fn clear(&mut self) {
        while let Some(mut seg) = self.segs.pop_front() {
            seg.clear();
            if self.pool.len() < POOL_CAP && seg.capacity() <= 4 * WRITE_SEGMENT {
                self.pool.push(seg);
            }
        }
        self.head_pos = 0;
        self.queued = 0;
    }
}

impl Default for SendQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SendQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SendQueue")
            .field("queued", &self.queued)
            .field("segments", &self.segs.len())
            .field("pooled", &self.pool.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::write_frame;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload);
        out
    }

    /// Feeds `bytes` into `buf` in `step`-byte steps, collecting frames.
    fn feed(buf: &mut RecvBuf, bytes: &[u8], step: usize) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        let mut fed = 0;
        while fed < bytes.len() {
            let w = buf.writable();
            let n = w.len().min(step).min(bytes.len() - fed);
            w[..n].copy_from_slice(&bytes[fed..fed + n]);
            buf.commit(n);
            fed += n;
            while let Some(c) = buf.next_frame().expect("valid stream") {
                got.push(c.as_slice().to_vec());
            }
        }
        got
    }

    #[test]
    fn frames_slice_out_of_one_fill() {
        let mut stream = frame(b"alpha");
        stream.extend_from_slice(&frame(b"beta"));
        let mut buf = RecvBuf::new();
        let got = feed(&mut buf, &stream, stream.len());
        assert_eq!(got, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    }

    #[test]
    fn decoded_chunks_alias_the_segment() {
        let mut stream = frame(b"one");
        stream.extend_from_slice(&frame(b"two"));
        let mut buf = RecvBuf::new();
        let w = buf.writable();
        w[..stream.len()].copy_from_slice(&stream);
        buf.commit(stream.len());
        let a = buf.next_frame().unwrap().unwrap();
        let b = buf.next_frame().unwrap().unwrap();
        assert!(a.same_segment(&b), "frames from one fill share storage");
        assert!(a.slice(0..2).same_segment(&a), "sub-slices share storage");
        assert_eq!(a.as_slice(), b"one");
        assert_eq!(b.as_slice(), b"two");
    }

    #[test]
    fn byte_by_byte_arrival_decodes_identically() {
        let mut stream = Vec::new();
        for p in [&b"x"[..], b"yy", b"zzz", b""] {
            stream.extend_from_slice(&frame(p));
        }
        let mut buf = RecvBuf::with_segment_size(16);
        let got = feed(&mut buf, &stream, 1);
        assert_eq!(
            got,
            vec![b"x".to_vec(), b"yy".to_vec(), b"zzz".to_vec(), Vec::new()]
        );
    }

    #[test]
    fn frame_longer_than_segment_completes_via_roll() {
        let payload = vec![7u8; 200];
        let stream = frame(&payload);
        let mut buf = RecvBuf::with_segment_size(32);
        let got = feed(&mut buf, &stream, 9);
        assert_eq!(got, vec![payload]);
    }

    #[test]
    fn live_chunks_survive_later_fills() {
        let mut stream = frame(b"keepme");
        stream.extend_from_slice(&frame(b"partial-"));
        let mut buf = RecvBuf::with_segment_size(64);
        let w = buf.writable();
        w[..stream.len()].copy_from_slice(&stream);
        buf.commit(stream.len());
        let held = buf.next_frame().unwrap().unwrap();
        let held2 = buf.next_frame().unwrap().unwrap();
        // Fill a lot more while the chunks are alive: the buffer must
        // roll to fresh segments, never overwrite the held bytes.
        for i in 0..64 {
            let f = frame(&[i; 100]);
            feed(&mut buf, &f, f.len());
        }
        assert_eq!(held.as_slice(), b"keepme");
        assert_eq!(held2.as_slice(), b"partial-");
    }

    #[test]
    fn corrupt_magic_surfaces_as_error_not_panic() {
        let mut stream = frame(b"fine");
        stream.extend_from_slice(b"\x00\x00garbage");
        let mut buf = RecvBuf::new();
        let w = buf.writable();
        w[..stream.len()].copy_from_slice(&stream);
        buf.commit(stream.len());
        assert_eq!(buf.next_frame().unwrap().unwrap().as_slice(), b"fine");
        assert!(buf.next_frame().is_err());
    }

    #[test]
    fn chunk_split_frame_walks_a_standalone_chunk() {
        let mut stream = frame(b"a");
        stream.extend_from_slice(&frame(b"bb"));
        let mut c = Chunk::from_vec(stream);
        let whole = c.clone();
        let a = c.split_frame().unwrap().unwrap();
        let b = c.split_frame().unwrap().unwrap();
        assert_eq!(c.split_frame().unwrap(), None);
        assert_eq!(a.as_slice(), b"a");
        assert_eq!(b.as_slice(), b"bb");
        assert!(a.same_segment(&whole) && b.same_segment(&whole));
    }

    #[test]
    fn send_queue_coalesces_and_recycles() {
        let mut q = SendQueue::new();
        assert!(q.is_empty());
        for i in 0..10u8 {
            q.push_frame(|buf| buf.extend_from_slice(&[i; 5]));
        }
        let total = q.queued_bytes();
        assert_eq!(total, 10 * (FRAME_HEADER + 5));
        // All ten frames surface as one contiguous slice — one syscall.
        {
            let mut iov = [IoSlice::new(&[]); 8];
            let n = q.slices(&mut iov);
            assert_eq!(n, 1, "coalesced into one segment");
            assert_eq!(iov[0].len(), total);
        }
        // Partial write, then the rest.
        q.consume(3);
        {
            let mut iov = [IoSlice::new(&[]); 8];
            let n = q.slices(&mut iov);
            assert_eq!(iov[..n].iter().map(|s| s.len()).sum::<usize>(), total - 3);
        }
        q.consume(total - 3);
        assert!(q.is_empty());
        assert_eq!(q.slices(&mut [IoSlice::new(&[]); 8]), 0);
    }

    #[test]
    fn send_queue_rolls_segments_past_the_soft_cap() {
        let mut q = SendQueue::new();
        let big = vec![1u8; WRITE_SEGMENT];
        q.push_frame(|buf| buf.extend_from_slice(&big));
        q.push_frame(|buf| buf.extend_from_slice(b"small"));
        assert_eq!(
            q.slices(&mut [IoSlice::new(&[]); 8]),
            2,
            "second frame starts a new segment"
        );
        let total = q.queued_bytes();
        q.consume(total);
        assert!(q.is_empty());
        // The drained segments went back to the pool: pushing again
        // reuses them (observable as retained capacity).
        q.push_frame(|buf| buf.extend_from_slice(b"reused"));
        assert_eq!(q.slices(&mut [IoSlice::new(&[]); 8]), 1);
    }

    #[test]
    fn clear_empties_a_dead_connections_queue() {
        let mut q = SendQueue::new();
        q.push_frame(|buf| buf.extend_from_slice(b"doomed"));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.slices(&mut [IoSlice::new(&[]); 4]), 0);
    }
}
