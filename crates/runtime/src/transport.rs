//! Pluggable IO boundary for the threaded runtime: the replica loop and
//! the client handles speak to a [`Transport`], never to a queue or a
//! socket directly, so the *same* engine loop runs behind shared memory
//! ([`MemTransport`], qc-channel SPSC queues) or real sockets
//! ([`TcpTransport`], loopback TCP with the `onepaxos::wire` framed
//! binary codec).
//!
//! # Addressing
//!
//! A destination is a [`Peer`] — `(NodeId, topic)`. The topic is the
//! shard-group channel. Both transports keep one link per process pair
//! and carry the topic with each message: in every slot of the pair's
//! SPSC queue in shared memory (§6.1–6.2: a process polls one queue per
//! peer), inside each frame of the pair's connection on TCP.
//!
//! # TCP frame layout
//!
//! Every TCP message is one `onepaxos::wire` frame (magic `0xC51D`,
//! version, length — see [`onepaxos::wire::write_frame`]) whose payload
//! is the destination topic (`u16` LE) followed by the
//! [`Codec`]-encoded [`Wire`] message. The first frame on every
//! connection is a *hello* whose payload is the dialing process's
//! [`NodeId`], which is how the accepting side learns who is talking.

use std::collections::{BTreeMap, VecDeque};
use std::io::{IoSlice, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd as _;
use std::time::{Duration, Instant};

use onepaxos::shard::splitmix64;
use onepaxos::wire::{self, Codec, DecodeError, Reader, RecvBuf, SendQueue};
use onepaxos::NodeId;
use qc_channel::{Mailbox, Sender};

use crate::poll::{self, PollFd};
use crate::wire::Wire;

/// A peer address on the wire: who, on which shard-group topic.
pub type Peer = (NodeId, u16);

/// Counters a transport keeps about its own connection lifecycle,
/// surfaced so deployments can observe failure handling (the replica
/// loop republishes them into [`crate::NodeMetrics`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportStats {
    /// Connections re-established after a failure: successful redials
    /// on the dialer side, replacement accepts on the listener side.
    pub reconnects: u64,
    /// Connections torn down for any reason — EOF, IO error, corrupt
    /// frame, or injected kill.
    pub conn_kills: u64,
    /// The subset of `conn_kills` caused by an undecodable frame or
    /// payload (a framed stream cannot be resynchronised by guessing,
    /// so the connection is cut and redialed from scratch).
    pub corrupt_frames: u64,
}

/// The IO boundary the replica loop and client handles are written
/// against.
///
/// # Delivery contract
///
/// The engines assume exactly what the paper's in-machine channels give
/// them, no more:
///
/// * **Per-peer FIFO order** — messages from one process to another
///   arrive in send order, whatever their topics: each process pair has
///   one link, so one group's messages wait behind another's only while
///   that link is full. Order across senders is unspecified.
/// * **At-most-once delivery** — a transport never duplicates a
///   message. It may *drop* messages (a full queue whose sender exits, a
///   closed socket): every protocol in the tree already tolerates loss
///   through retransmission timers, but none tolerates duplication of
///   its client requests without the engines' dedup records.
/// * **Non-blocking** — [`send`](Transport::send) buffers instead of
///   blocking when the link is busy ([`flush`](Transport::flush)
///   retries), and [`recv`](Transport::recv) returns `None` instead of
///   waiting, so one slow peer can never wedge a replica's event loop.
/// * **Failures are transient** — a broken link (EOF, IO error, corrupt
///   frame) is a *blip*, never a permanent partition: the transport
///   repairs it in the background (redial with capped exponential
///   backoff on the dialer side, replacement accepts on the listener
///   side) while the frames in flight across the gap are simply lost —
///   which the may-drop/at-most-once contract above already allows, so
///   reconnection is invisible to the protocols beyond a retransmission
///   timeout. This mirrors the paper's failure model: "crash" models
///   *slow* cores and suspicion is never permanent (§1 fn. 3, the
///   `onepaxos::failure::FailureDetector` contract).
pub trait Transport<M>: Send {
    /// Queues `msg` for `(to, topic)`. Never blocks: if the link is
    /// full the message is buffered and retried by
    /// [`flush`](Transport::flush). Messages to unknown peers are dropped.
    fn send(&mut self, to: NodeId, topic: u16, msg: Wire<M>);

    /// Retries buffered sends. Returns `true` while anything remains
    /// buffered.
    fn flush(&mut self) -> bool;

    /// Non-blocking receive, with no IO of its own: the next inbound
    /// message and its sender — what a queue holds, or what the last
    /// [`pump`](Transport::pump) swept in — or `None` if nothing is
    /// waiting.
    fn recv(&mut self) -> Option<(Peer, Wire<M>)>;

    /// Sweeps ready inbound traffic into the transport's local inbox in
    /// one pass. An event loop calls this once per iteration and then
    /// drains with [`recv`](Transport::recv) — on TCP that is one
    /// readiness query per iteration, and a `read(2)` only on the
    /// connections that have bytes.
    /// Default: no-op (queue transports have nothing to sweep).
    fn pump(&mut self) {}

    /// The idle policy: what a loop does with a turn on which it found
    /// nothing to do. Every waiter in the runtime — the replica loop and
    /// [`recv_deadline`](Transport::recv_deadline) — ends an empty turn
    /// here, so there is one policy per transport rather than one per
    /// loop.
    ///
    /// The **caller** owns the count: `empty_turns` is how many
    /// consecutive turns before this one were also empty (zero right
    /// after progress), and `until` is its next deadline — when it must
    /// be back on the core at the latest — or `None` if it has none. The
    /// caller must not come here while it still owes work a wake-up
    /// would not announce (unsent bytes, a retry it makes per turn). The
    /// **transport** owns what the count means: for the first
    /// `IDLE_SPINS` (64) turns it only yields — a message in flight on
    /// loopback lands within microseconds, and a thread that leaves the
    /// run queue is slow to come back — and after that it gets off the
    /// core, never past `until`. Returns whether it did (slept or
    /// blocked, as opposed to yielding). A yielding turn does not even
    /// read the clock.
    ///
    /// The default, for transports with nothing to block on, sleeps:
    /// `IDLE_NAP_FLOOR` (5 µs) doubling per turn up to `IDLE_NAP_CEIL`
    /// (250 µs). On a machine with fewer cores than threads a spinning
    /// waiter would steal the very cycles its peer needs to produce the
    /// awaited message. A socket transport blocks in the kernel on its
    /// descriptors instead and is woken by the bytes themselves.
    fn idle_wait(&mut self, empty_turns: u32, until: Option<Instant>) -> bool {
        let Some(naps) = empty_turns.checked_sub(IDLE_SPINS) else {
            std::thread::yield_now();
            return false;
        };
        let nap = IDLE_NAP_FLOOR
            .saturating_mul(1 << naps.min(16))
            .min(IDLE_NAP_CEIL);
        std::thread::sleep(match until {
            Some(until) => nap.min(until.saturating_duration_since(Instant::now())),
            None => nap,
        });
        true
    }

    /// Blocking receive with a deadline: flushes, pumps and receives,
    /// ending each empty turn in [`idle_wait`](Transport::idle_wait),
    /// until a message arrives or `deadline` passes.
    fn recv_deadline(&mut self, deadline: Instant) -> Option<(Peer, Wire<M>)> {
        let mut empty_turns = 0u32;
        loop {
            self.flush();
            self.pump();
            if let Some(m) = self.recv() {
                return Some(m);
            }
            if Instant::now() >= deadline {
                return None;
            }
            self.idle_wait(empty_turns, Some(deadline));
            empty_turns = empty_turns.saturating_add(1);
        }
    }

    /// [`recv_deadline`](Transport::recv_deadline) with a sender hint:
    /// the caller has just issued a request to `from` and expects the
    /// answer from there (a synchronous client awaiting its reply). A
    /// socket transport parks in a blocking read on that peer's
    /// connection — the kernel wakes it the moment the reply's bytes
    /// arrive, with zero empty polls — instead of spinning. Messages
    /// from other peers are still delivered (the hint is an
    /// optimisation, not a filter). Default: ignore the hint.
    fn recv_from_deadline(&mut self, _from: NodeId, deadline: Instant) -> Option<(Peer, Wire<M>)> {
        self.recv_deadline(deadline)
    }

    /// The transport's connection-lifecycle counters. Queue transports
    /// have no connections to lose; the default is all-zero.
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    /// Fault injection: violently severs the link to `peer` as if the
    /// connection died, exercising the transport's own repair path
    /// (redial with backoff, or a replacement accept from the peer).
    /// Frames in flight are lost — exactly what the delivery contract
    /// already permits. Default: no-op (queue links cannot break).
    fn kill_peer_link(&mut self, _peer: NodeId) {}
}

/// Empty turns [`Transport::idle_wait`] answers with a yield before it
/// first leaves the run queue. Covers the common case — a message
/// already crossing loopback — without ever descheduling.
const IDLE_SPINS: u32 = 64;

/// Narrows this thread's kernel timer slack to 1 µs, best-effort.
///
/// Linux pads every `nanosleep` by the thread's timer slack — 50 µs by
/// default — to coalesce wakeups. The idle backoffs here sleep in the
/// 5–250 µs range, and a 50 µs pad on a 5 µs nap turns the backoff into
/// a latency cliff (most visible when replicas and clients timeshare a
/// core and wake each other constantly). Threads inherit the value from
/// their spawner, so the cluster builders call this once on the spawning
/// thread before starting replica threads. Failure (procfs unavailable,
/// old kernel) is ignored: the backoff still works, just coarser.
pub(crate) fn tighten_timer_slack() {
    if std::fs::write("/proc/thread-self/timerslack_ns", "1000").is_err() {
        let _ = std::fs::write("/proc/self/timerslack_ns", "1000");
    }
}

/// First sleep once the spin budget is exhausted.
const IDLE_NAP_FLOOR: Duration = Duration::from_micros(5);

/// Ceiling on the escalating idle sleep: long enough to drop idle CPU to
/// noise, short enough that no protocol timer (hundreds of µs and up)
/// misses its beat by more than this.
const IDLE_NAP_CEIL: Duration = Duration::from_micros(250);

// ---------------------------------------------------------------------
// Shared memory
// ---------------------------------------------------------------------

/// A frame on a shared-memory link: the destination topic and the
/// message, the in-memory twin of a TCP frame's payload.
type MemFrame<M> = (u16, Wire<M>);

/// The qc-channel transport: one lock-free SPSC queue per direction per
/// process pair (§6.1), whose slots carry `(topic, message)`. A link
/// gets [`QUEUE_SLOTS`](crate::QUEUE_SLOTS) slots per topic it carries,
/// so every shard group keeps the paper's seven. Overflow on a full
/// queue is buffered at the sender so the event loop never blocks.
pub struct MemTransport<M> {
    /// Outbound links, indexed by the peer's id (`None`: no link).
    links: Vec<Option<MemLink<M>>>,
    /// How many links have a non-empty backlog.
    backlogged: usize,
    mailbox: Mailbox<NodeId, MemFrame<M>>,
}

/// One outbound shared-memory link: the queue to a peer, the number of
/// topics it carries, and the frames waiting for a free slot.
struct MemLink<M> {
    tx: Sender<MemFrame<M>>,
    topics: u16,
    backlog: VecDeque<MemFrame<M>>,
}

impl<M> MemLink<M> {
    /// Moves backlogged frames into the queue until it fills. Returns
    /// whether the backlog emptied.
    fn drain(&mut self) -> bool {
        while let Some(frame) = self.backlog.pop_front() {
            if let Err(qc_channel::Full(frame)) = self.tx.try_send(frame) {
                self.backlog.push_front(frame);
                return false;
            }
        }
        true
    }
}

impl<M> MemTransport<M> {
    /// A connected pair of single-peer shared-memory transports whose
    /// one link per direction carries `topics` topics — the
    /// deterministic harness the seeded fault-injection tests drive
    /// without standing up a cluster (the queue analogue of
    /// [`TcpTransport::pair`]).
    pub fn pair(a: NodeId, b: NodeId, topics: u16) -> (Self, Self) {
        let [a, b] = Self::mesh(&[a, b], |_, _| topics)
            .try_into()
            .expect("two ends");
        (a, b)
    }

    /// One transport per process in `ids`, in that order. The ordered
    /// pair of processes at indices `(i, j)` gets one SPSC queue
    /// carrying `topics(i, j)` topics, [`QUEUE_SLOTS`](crate::QUEUE_SLOTS)
    /// slots for each, or no queue if that is 0.
    pub(crate) fn mesh(ids: &[NodeId], topics: impl Fn(usize, usize) -> u16) -> Vec<Self> {
        let span = ids
            .iter()
            .map(|id| usize::from(id.0) + 1)
            .max()
            .unwrap_or(0);
        let mut ends: Vec<Self> = ids
            .iter()
            .map(|_| MemTransport {
                links: (0..span).map(|_| None).collect(),
                backlogged: 0,
                mailbox: Mailbox::new(),
            })
            .collect();
        for (i, &from) in ids.iter().enumerate() {
            for (j, &to) in ids.iter().enumerate() {
                let topics = topics(i, j);
                if i == j || topics == 0 {
                    continue;
                }
                let (tx, rx) = qc_channel::channel(crate::QUEUE_SLOTS * usize::from(topics));
                let backlog = VecDeque::new();
                ends[i].links[usize::from(to.0)] = Some(MemLink {
                    tx,
                    topics,
                    backlog,
                });
                ends[j].mailbox.add_peer(from, rx);
            }
        }
        ends
    }
}

impl<M> std::fmt::Debug for MemTransport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTransport")
            .field("peers", &self.links.iter().flatten().count())
            .finish_non_exhaustive()
    }
}

impl<M: Send> Transport<M> for MemTransport<M> {
    fn send(&mut self, to: NodeId, topic: u16, msg: Wire<M>) {
        let link = self
            .links
            .get_mut(usize::from(to.0))
            .and_then(Option::as_mut);
        // No link to that peer, or not on that topic: drop (e.g. a
        // client already gone).
        let Some(link) = link.filter(|link| topic < link.topics) else {
            return;
        };
        if !link.backlog.is_empty() {
            link.backlog.push_back((topic, msg));
        } else if let Err(qc_channel::Full(frame)) = link.tx.try_send((topic, msg)) {
            link.backlog.push_back(frame);
            self.backlogged += 1;
        }
    }

    fn flush(&mut self) -> bool {
        if self.backlogged == 0 {
            return false;
        }
        for link in self.links.iter_mut().flatten() {
            if !link.backlog.is_empty() && link.drain() {
                self.backlogged -= 1;
            }
        }
        self.backlogged > 0
    }

    fn recv(&mut self) -> Option<(Peer, Wire<M>)> {
        let (from, (topic, msg)) = self.mailbox.poll()?;
        Some(((from, topic), msg))
    }
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

/// Most [`IoSlice`]s handed to one `write_vectored` call. Linux caps a
/// vectored write at `IOV_MAX` (1024); 64 covers every realistic flush
/// window (segments are 32 KiB soft-capped, so 64 slices is ~2 MiB) from
/// a stack array.
const MAX_IOV: usize = 64;

/// Unsent-byte threshold above which `send` sheds to the socket inline
/// instead of waiting for the next `flush` — backpressure for a peer
/// that has stopped reading.
const SEND_HIGH_WATER: usize = 256 * 1024;

/// Longest single blocking park in
/// [`Transport::recv_from_deadline`]: bounds how stale the nonblocking
/// sweep of the *other* connections can get while parked on the hinted
/// one. Also how long [`Transport::idle_wait`] blocks when neither the
/// caller nor a pending redial sets a deadline.
const PARK_SLICE: Duration = Duration::from_millis(1);

/// Write timeout armed on every connection at creation. Nonblocking
/// sockets ignore it; it only bites for writes made while a connection
/// is parked in blocking mode, turning a peer that has stopped reading
/// into a retryable timeout instead of a hang.
const WRITE_STALL: Duration = Duration::from_secs(1);

/// First redial delay after a connection dies. Loopback connects are
/// microseconds, so the first attempt is nearly immediate; the delay
/// exists to stop a hard-down peer from turning the event loop into a
/// connect-storm.
const RECONNECT_BASE: Duration = Duration::from_micros(500);

/// Ceiling on the exponential redial backoff: a peer that stays down
/// costs one refused `connect(2)` per this interval, and a peer coming
/// back is discovered within it.
const RECONNECT_CAP: Duration = Duration::from_millis(64);

/// Messages buffered per reconnecting peer while its link is being
/// repaired; they ride the fresh connection the moment the redial
/// lands. Overflow drops the oldest — a legal drop under the delivery
/// contract, and the newest traffic (retransmissions, a stop request) is
/// what matters after a gap.
const RECONNECT_PENDING_CAP: usize = 64;

/// Patience for the hello frame on a runtime-accepted connection. The
/// dialer writes its hello before the connect is even observable here,
/// so on loopback this never waits; the bound protects the event loop
/// from a rogue dialer that connects and says nothing.
const HELLO_TIMEOUT: Duration = Duration::from_millis(250);

/// One nonblocking loopback connection to a peer process.
///
/// Receive side: the socket reads **directly into** the [`RecvBuf`]'s
/// segment tail and complete frames slice out as `Chunk`s — a frame's
/// bytes are touched once between the kernel and the codec (the old
/// scratch-buffer copy and `rbuf.drain(..rpos)` compaction are gone).
/// Send side: frames encode into the [`SendQueue`]'s pooled segments
/// and drain through vectored writes, so one syscall carries a whole
/// flush window. Both sides recycle their buffers: steady-state IO
/// allocates nothing.
struct TcpConn {
    peer: NodeId,
    stream: TcpStream,
    recv: RecvBuf,
    send: SendQueue,
    /// Socket is in blocking mode with a [`PARK_SLICE`] read timeout —
    /// the client-side wait state. Cached so steady-state parking costs
    /// zero `setsockopt` calls; any generic sweep restores nonblocking
    /// mode lazily through [`TcpConn::unpark`].
    parked: bool,
    /// Set on EOF, IO error, or a corrupt frame. A dead connection is
    /// *terminal for the socket, not for the peer pair*: the next
    /// [`TcpTransport::maintain`] pass reaps the slot and either
    /// schedules a redial (dialer side) or waits for the peer to redial
    /// through the listener (acceptor side).
    dead: bool,
    /// The death was an undecodable frame rather than an IO failure —
    /// counted separately in [`TransportStats::corrupt_frames`].
    corrupt: bool,
}

impl TcpConn {
    fn new(peer: NodeId, stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        // Inert while nonblocking; bounds writes made while parked, so a
        // stalled peer surfaces as a timed-out write instead of a hang.
        stream.set_write_timeout(Some(WRITE_STALL))?;
        Ok(TcpConn {
            peer,
            stream,
            recv: RecvBuf::new(),
            send: SendQueue::new(),
            parked: false,
            dead: false,
            corrupt: false,
        })
    }

    /// Tries to push queued outbound bytes with vectored writes; returns
    /// whether any remain.
    fn try_write(&mut self) -> bool {
        while !self.send.is_empty() {
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            let n = self.send.slices(&mut iov);
            match self.stream.write_vectored(&iov[..n]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(written) => self.send.consume(written),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.dead {
            self.send.clear();
        }
        !self.send.is_empty()
    }

    /// Decodes every complete buffered frame into `inbox`. The chunk a
    /// frame slices out as aliases the receive segment — the codec reads
    /// the socket's bytes in place, and the chunk drops as soon as the
    /// typed message is built, freeing the segment for the next fill. A
    /// corrupt frame or payload kills the connection (a framed stream
    /// cannot be resynchronised by guessing); the reconnect lifecycle
    /// then re-establishes the peer pair from a clean stream, so one
    /// garbled frame costs a retransmission window, not the peer.
    fn drain_frames<M: Codec>(&mut self, inbox: &mut VecDeque<(Peer, Wire<M>)>) {
        loop {
            match self.recv.next_frame() {
                Ok(Some(frame)) => {
                    let mut r = Reader::new(&frame);
                    match decode_payload::<M>(&mut r) {
                        Ok((topic, msg)) => inbox.push_back(((self.peer, topic), msg)),
                        Err(_) => {
                            self.dead = true;
                            self.corrupt = true;
                            return;
                        }
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    self.dead = true;
                    self.corrupt = true;
                    return;
                }
            }
        }
    }

    /// Parks in a blocking read for up to [`PARK_SLICE`], delivering any
    /// bytes into the receive buffer. Returns whether any arrived. The
    /// thread leaves the run queue entirely — on a shared core this is
    /// what hands the CPU to the peer that must produce the awaited
    /// bytes — and the kernel wakes it the instant data lands. The
    /// blocking-with-timeout mode *sticks* between calls (steady-state
    /// parking makes no `setsockopt` calls at all); the next generic
    /// sweep restores nonblocking mode through [`TcpConn::unpark`].
    fn park_fill(&mut self) -> bool {
        if !self.parked {
            if self.stream.set_read_timeout(Some(PARK_SLICE)).is_err()
                || self.stream.set_nonblocking(false).is_err()
            {
                return false;
            }
            self.parked = true;
        }
        let tail = self.recv.writable();
        match self.stream.read(tail) {
            Ok(0) => {
                self.dead = true;
                false
            }
            Ok(n) => {
                self.recv.commit(n);
                true
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                false
            }
            Err(_) => {
                self.dead = true;
                false
            }
        }
    }

    /// Restores nonblocking mode if a previous [`TcpConn::park_fill`]
    /// left the socket blocking. Cached: the common case is a no-op.
    fn unpark(&mut self) {
        if self.parked {
            if self.stream.set_nonblocking(true).is_err() {
                self.dead = true;
            }
            self.parked = false;
        }
    }

    /// Reads available bytes straight into the receive buffer's segment
    /// tail — no intermediate scratch copy.
    fn fill(&mut self) {
        self.unpark();
        loop {
            let tail = self.recv.writable();
            let cap = tail.len();
            match self.stream.read(tail) {
                Ok(0) => {
                    self.dead = true; // peer closed
                    return;
                }
                Ok(n) => {
                    self.recv.commit(n);
                    if n < cap {
                        // Short read: the socket buffer is drained;
                        // skip the WouldBlock confirmation syscall.
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

/// Dialer-side reconnect state for one peer whose connection died:
/// capped exponential backoff between redial attempts, plus a bounded
/// buffer of frames sent across the gap that will ride the fresh
/// connection (anything beyond the cap is dropped, as the delivery
/// contract allows).
struct Redial<M> {
    peer: NodeId,
    addr: SocketAddr,
    next_attempt: Instant,
    attempt: u32,
    pending: VecDeque<(u16, Wire<M>)>,
}

/// The socket transport: one loopback TCP connection per peer process,
/// all shard-group topics multiplexed over it, every message a
/// length-prefixed `onepaxos::wire` frame. `send` coalesces frames into
/// per-connection segment queues drained by vectored writes; the receive
/// path decodes frames in place from `Arc`-backed segments.
///
/// # Connection lifecycle
///
/// A connection is **live** until EOF, an IO error, a corrupt frame, or
/// an injected [`Transport::kill_peer_link`] marks it dead; the next
/// maintenance pass (every [`Transport::flush`]) reaps the slot — the
/// conn table never accumulates a graveyard. What happens next depends
/// on which side of the original handshake this endpoint was:
///
/// * **Dialer** (this endpoint connected): the peer moves to a
///   **backoff** state and is redialed with capped exponential backoff
///   plus jitter (`RECONNECT_BASE` → `RECONNECT_CAP`), re-running
///   the hello-frame handshake. Frames sent meanwhile are buffered (up
///   to `RECONNECT_PENDING_CAP`) and ride the fresh connection.
/// * **Acceptor** (the peer connected): the slot is simply purged; the
///   peer redials through this endpoint's listener, which every
///   readiness query includes, and the accept that follows installs
///   the replacement — superseding any stale slot for that peer.
///
/// Frames lost across the gap are covered by the trait's may-drop
/// contract; the protocols' retransmission timers absorb the blip.
pub struct TcpTransport<M> {
    /// This endpoint's identity, sent in the hello frame on every
    /// (re)dial.
    me: NodeId,
    conns: Vec<TcpConn>,
    inbox: VecDeque<(Peer, Wire<M>)>,
    /// Scratch for [`TcpTransport::sweep`]'s poll set — entry 0 the
    /// listener, entry `1 + i` connection `i` — kept so a sweep
    /// allocates nothing.
    pollfds: Vec<PollFd>,
    /// Peers this endpoint dialed and therefore owns reconnection for.
    dial_addrs: BTreeMap<NodeId, SocketAddr>,
    /// Peers currently between connections, waiting on a redial.
    backoff: Vec<Redial<M>>,
    /// Accept side of the reconnect lifecycle: present on replica
    /// transports and part of every readiness sweep, so a peer (or a
    /// restarted replica's clients) can re-establish at any time — not
    /// just during setup.
    listener: Option<TcpListener>,
    stats: TransportStats,
    /// Jitter state for redial backoff (seeded from `me`, so the
    /// schedule is deterministic per node).
    rng: u64,
}

impl<M> std::fmt::Debug for TcpTransport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("me", &self.me)
            .field("peers", &self.conns.len())
            .field("backoff", &self.backoff.len())
            .field("inbox", &self.inbox.len())
            .finish_non_exhaustive()
    }
}

impl<M: Codec> TcpTransport<M> {
    fn new(
        me: NodeId,
        conns: Vec<TcpConn>,
        dial_addrs: BTreeMap<NodeId, SocketAddr>,
        listener: Option<TcpListener>,
    ) -> Self {
        if let Some(l) = &listener {
            // The blocking setup phase is over; from here on an accept
            // must never stall the event loop.
            let _ = l.set_nonblocking(true);
        }
        let mut t = TcpTransport {
            me,
            conns,
            inbox: VecDeque::new(),
            pollfds: Vec::new(),
            dial_addrs,
            backoff: Vec::new(),
            listener,
            stats: TransportStats::default(),
            rng: 0x5EED ^ ((me.0 as u64) << 17),
        };
        // Dial-owned peers without a live connection start in backoff,
        // due immediately — how a restarted replica rejoins its mesh.
        let now = Instant::now();
        let missing: Vec<(NodeId, SocketAddr)> = t
            .dial_addrs
            .iter()
            .filter(|(p, _)| !t.conns.iter().any(|c| c.peer == **p))
            .map(|(&p, &a)| (p, a))
            .collect();
        for (peer, addr) in missing {
            t.backoff.push(Redial {
                peer,
                addr,
                next_attempt: now,
                attempt: 0,
                pending: VecDeque::new(),
            });
        }
        t
    }

    /// A connected pair of single-peer transports over loopback — the
    /// harness the allocation, reconnect and fault tests drive the real
    /// socket path through without standing up a cluster. The first
    /// transport is the dialer (it owns redial for the pair), the
    /// second the acceptor (it keeps the listener, so the pair heals
    /// after either side's connection dies).
    pub fn pair(a: NodeId, b: NodeId) -> std::io::Result<(Self, Self)> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let dialed = Self::dial(a, b, addr)?;
        let accepted = Self::accept(&listener)?;
        let mut dial_addrs = BTreeMap::new();
        dial_addrs.insert(b, addr);
        Ok((
            Self::new(a, vec![dialed], dial_addrs, None),
            Self::new(b, vec![accepted], BTreeMap::new(), Some(listener)),
        ))
    }

    /// Dials `addr` and sends the hello frame identifying `me`.
    fn dial(me: NodeId, peer: NodeId, addr: SocketAddr) -> std::io::Result<TcpConn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut hello = Vec::with_capacity(wire::FRAME_HEADER + 2);
        wire::write_frame_with(&mut hello, |buf| me.encode(buf));
        stream.write_all(&hello)?;
        TcpConn::new(peer, stream)
    }

    /// Accepts one connection from `listener` and reads its hello frame
    /// to learn the dialer's identity. Blocks for at most
    /// [`HELLO_TIMEOUT`] on the hello read — during setup the dialer's
    /// hello is already in flight, and at runtime (a reconnecting peer)
    /// it was written before the connect was observable here.
    fn accept(listener: &TcpListener) -> std::io::Result<TcpConn> {
        let (mut stream, _) = listener.accept()?;
        stream.set_read_timeout(Some(HELLO_TIMEOUT))?;
        let mut header = [0u8; wire::FRAME_HEADER + 2];
        stream.read_exact(&mut header)?;
        let peer = match wire::read_frame(&header) {
            Ok(Some((payload, _))) => {
                let mut r = Reader::new(payload);
                NodeId::decode(&mut r)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            }
            _ => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "bad hello frame",
                ))
            }
        };
        TcpConn::new(peer, stream)
    }

    /// The one readiness query every receive path but the client's park
    /// goes through: asks the kernel, in a single `ppoll(2)` over the
    /// listener and every live connection, which of them have something
    /// — waiting up to `timeout` for the first (zero: just ask) — then
    /// reads the connections that do, decoding their complete frames
    /// into the inbox, and accepts if the listener does. A turn on which
    /// nothing arrived costs that one syscall, whatever the number of
    /// connections; no `read(2)` or `accept(2)` is made on a descriptor
    /// that did not report. Hang-ups and errors count as "something", so
    /// EOF still reaches [`TcpConn::fill`] and marks the connection
    /// dead; dead slots awaiting the reap are holes in the poll set.
    fn sweep(&mut self, timeout: Duration) {
        let listener = self.listener.as_ref().map(|l| l.as_raw_fd());
        self.pollfds.clear();
        self.pollfds.push(PollFd::readable(listener));
        self.pollfds.extend(
            self.conns
                .iter()
                .map(|c| PollFd::readable((!c.dead).then(|| c.stream.as_raw_fd()))),
        );
        if !poll::wait_readable(&mut self.pollfds, timeout) {
            return;
        }
        for (conn, fd) in self.conns.iter_mut().zip(&self.pollfds[1..]) {
            if fd.ready() {
                conn.fill();
                conn.drain_frames(&mut self.inbox);
            }
        }
        // Last: adopting a connection reshuffles the table the poll set
        // was built from.
        if self.pollfds[0].ready() {
            self.accept_pending();
        }
    }

    /// Installs the inbound (re)connections waiting on the listener,
    /// each superseding any stale slot for the same peer. Called only
    /// when the listener polled readable.
    fn accept_pending(&mut self) {
        // Reap first, as the lifecycle always ran: a slot this very
        // sweep found dead is counted as a kill before its replacement
        // can supersede it uncounted.
        self.maintain();
        let Some(listener) = &self.listener else {
            return;
        };
        // Ends at `WouldBlock`; a dialer that connected and hung up, or
        // spoke a bad hello, ends the sweep too (if others wait behind
        // it the listener stays readable for the next one).
        while let Ok(conn) = Self::accept(listener) {
            self.conns.retain(|c| c.peer != conn.peer);
            // A redialing peer supersedes our own backoff entry for it
            // too (both sides may dial in a symmetric pair harness).
            self.backoff.retain(|r| r.peer != conn.peer);
            self.conns.push(conn);
            self.stats.reconnects += 1;
        }
    }

    /// The connection-lifecycle maintenance pass, run from every
    /// [`flush`](Transport::flush): reaps dead connection slots and
    /// fires due redials. With nothing broken this is a scan of the
    /// (tiny) conn table — no syscall, no allocation. (The third leg of
    /// the lifecycle, adopting a peer's redial, runs when the listener
    /// reports one: [`TcpTransport::accept_pending`].)
    fn maintain(&mut self) {
        // Reap: a dead slot either moves its peer to backoff (we dialed
        // it) or is simply dropped (the peer will redial our listener).
        if self.conns.iter().any(|c| c.dead) {
            let now = Instant::now();
            let mut i = 0;
            while i < self.conns.len() {
                if !self.conns[i].dead {
                    i += 1;
                    continue;
                }
                let conn = self.conns.swap_remove(i);
                self.stats.conn_kills += 1;
                if conn.corrupt {
                    self.stats.corrupt_frames += 1;
                }
                if let Some(&addr) = self.dial_addrs.get(&conn.peer) {
                    if !self.backoff.iter().any(|r| r.peer == conn.peer) {
                        self.backoff.push(Redial {
                            peer: conn.peer,
                            addr,
                            next_attempt: now,
                            attempt: 0,
                            pending: VecDeque::new(),
                        });
                    }
                }
            }
        }
        // Redial: each due entry gets one connect attempt per pass.
        if !self.backoff.is_empty() {
            let now = Instant::now();
            let me = self.me;
            let mut i = 0;
            while i < self.backoff.len() {
                if self.backoff[i].next_attempt > now {
                    i += 1;
                    continue;
                }
                let (peer, addr) = (self.backoff[i].peer, self.backoff[i].addr);
                match Self::dial(me, peer, addr) {
                    Ok(mut conn) => {
                        let mut r = self.backoff.swap_remove(i);
                        for (topic, msg) in r.pending.drain(..) {
                            conn.send.push_frame(|buf| {
                                topic.encode(buf);
                                msg.encode(buf);
                            });
                        }
                        self.conns.push(conn);
                        self.stats.reconnects += 1;
                    }
                    Err(_) => {
                        let attempt = self.backoff[i].attempt.saturating_add(1);
                        let delay = self.redial_delay(attempt);
                        let r = &mut self.backoff[i];
                        r.attempt = attempt;
                        r.next_attempt = now + delay;
                        i += 1;
                    }
                }
            }
        }
    }

    /// Capped exponential backoff with deterministic jitter: attempt
    /// `n` waits `BASE << n` (capped), plus up to 25% more so a mesh of
    /// dialers does not thunder back in lockstep.
    fn redial_delay(&mut self, attempt: u32) -> Duration {
        let exp = RECONNECT_BASE.saturating_mul(1u32 << attempt.min(8).saturating_sub(1));
        let capped = exp.min(RECONNECT_CAP);
        let jitter = capped.mul_f64((splitmix64(&mut self.rng) % 256) as f64 / 1024.0);
        capped + jitter
    }

    /// Live connection count — the reconnect lifecycle's invariant is
    /// that this stays bounded by the peer count no matter how many
    /// times links die (no graveyard of terminal slots).
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Peers currently between connections, waiting on a redial.
    pub fn backoff_count(&self) -> usize {
        self.backoff.len()
    }

    /// Test hook: queues a syntactically valid frame whose payload does
    /// not decode, so the receiving end exercises its corrupt-frame
    /// kill-and-reconnect path.
    #[doc(hidden)]
    pub fn inject_corrupt_frame(&mut self, to: NodeId) {
        if let Some(conn) = self.conns.iter_mut().find(|c| c.peer == to && !c.dead) {
            conn.send.push_frame(|buf| buf.push(0xFF));
        }
    }
}

/// How long [`TcpTransport`]'s idle wait may block from `now`: until
/// whichever comes first of `until`, the caller's own next deadline, and
/// `redial`, when the earliest redial falls due — blocked, nothing else
/// would make that attempt. With neither, one [`PARK_SLICE`] rather
/// than indefinitely.
fn block_for(until: Option<Instant>, redial: Option<Instant>, now: Instant) -> Duration {
    match until.into_iter().chain(redial).min() {
        Some(first) => first.saturating_duration_since(now),
        None => PARK_SLICE,
    }
}

/// Decodes one frame payload: destination topic, then the message.
fn decode_payload<M: Codec>(r: &mut Reader<'_>) -> Result<(u16, Wire<M>), DecodeError> {
    let topic = u16::decode(r)?;
    let msg = Wire::<M>::decode(r)?;
    if !r.is_empty() {
        return Err(DecodeError::Trailing(r.remaining()));
    }
    Ok((topic, msg))
}

impl<M: Codec + Send> Transport<M> for TcpTransport<M> {
    fn send(&mut self, to: NodeId, topic: u16, msg: Wire<M>) {
        let Some(conn) = self.conns.iter_mut().find(|c| c.peer == to && !c.dead) else {
            // Between connections: buffer a bounded window of traffic to
            // ride the redial. Anything else (unknown peer, acceptor
            // side waiting on the peer to redial) is dropped, as the
            // delivery contract allows.
            if let Some(r) = self.backoff.iter_mut().find(|r| r.peer == to) {
                r.pending.push_back((topic, msg));
                if r.pending.len() > RECONNECT_PENDING_CAP {
                    r.pending.pop_front();
                }
            }
            return;
        };
        conn.send.push_frame(|buf| {
            topic.encode(buf);
            msg.encode(buf);
        });
        // Coalesce: the bytes ride the next `flush` (every event loop
        // iterates send → flush), so back-to-back sends share one
        // vectored syscall. Only shed inline when a peer has stopped
        // reading and the queue is growing without bound.
        if conn.send.queued_bytes() >= SEND_HIGH_WATER {
            conn.try_write();
        }
    }

    fn flush(&mut self) -> bool {
        self.maintain();
        let mut pending = false;
        for conn in &mut self.conns {
            if !conn.dead && conn.try_write() {
                pending = true;
            }
        }
        // Messages parked behind a redial still count as unflushed work,
        // so bounded drain loops (a client's stop request) keep driving
        // the reconnect instead of declaring the queue empty.
        pending || self.backoff.iter().any(|r| !r.pending.is_empty())
    }

    fn recv(&mut self) -> Option<(Peer, Wire<M>)> {
        self.inbox.pop_front()
    }

    fn pump(&mut self) {
        self.sweep(Duration::ZERO);
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Severs the connection to `peer` at the socket (both directions,
    /// so the peer sees EOF immediately too) and lets the maintenance
    /// pass drive the repair — redial from whichever side dialed.
    fn kill_peer_link(&mut self, peer: NodeId) {
        if let Some(conn) = self.conns.iter_mut().find(|c| c.peer == peer && !c.dead) {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            conn.dead = true;
        }
        self.maintain();
    }

    /// Yields through the same spin budget as the default, then blocks
    /// in the readiness query itself — on every connection and the
    /// listener at once — until bytes, a connection attempt, `until`, or
    /// the next due redial (see `block_for`). Whatever woke it is
    /// already read into the inbox, or adopted, on return.
    fn idle_wait(&mut self, empty_turns: u32, until: Option<Instant>) -> bool {
        if empty_turns < IDLE_SPINS {
            std::thread::yield_now();
            return false;
        }
        let redial = self.backoff.iter().map(|r| r.next_attempt).min();
        self.sweep(block_for(until, redial, Instant::now()));
        true
    }

    /// Parks in a blocking read on `from`'s connection: zero polls, and
    /// the kernel delivers the wakeup the moment the reply's bytes land.
    /// The blocking mode persists across calls (the steady-state request
    /// → reply cycle makes exactly one write and one read syscall on the
    /// transport), and each park is a bounded `PARK_SLICE`; on an
    /// empty slice the other connections get a nonblocking sweep, so a
    /// message arriving from an unexpected peer is still delivered. May
    /// overshoot `deadline` by up to one slice.
    ///
    /// If the hinted connection dies mid-park (EOF wakes the blocking
    /// read immediately), the park degrades to bounded polling slices —
    /// each of which drives the maintenance pass, so the redial happens
    /// *under* this wait — and re-parks the moment the fresh connection
    /// is up. The caller never sees the gap except as latency.
    ///
    /// The park is a measured fast path, not a second receive path to
    /// fold into `TcpTransport::sweep`: a variant that waited in the
    /// readiness query instead (`ppoll`, then `read`) ran the
    /// benchmark's `tcp_mix` at 0.82–0.95× the throughput, with
    /// `cpu_us_per_op` 38.9–43.1 µs against 33.5–38.7 µs (four
    /// alternating pairs, seeds 1–4, on a 2-core machine).
    fn recv_from_deadline(&mut self, from: NodeId, deadline: Instant) -> Option<(Peer, Wire<M>)> {
        loop {
            self.flush();
            if let Some(m) = self.inbox.pop_front() {
                return Some(m);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let Some(i) = self.conns.iter().position(|c| c.peer == from && !c.dead) else {
                // Hinted peer between connections: wait one bounded
                // slice with the polling strategy (whose flush calls
                // drive the redial), then re-check for the repaired
                // connection and re-park on it.
                let slice = (deadline - now).min(PARK_SLICE);
                if let Some(m) = self.recv_deadline(now + slice) {
                    return Some(m);
                }
                continue;
            };
            if self.conns[i].park_fill() {
                self.conns[i].drain_frames(&mut self.inbox);
            } else {
                // Empty slice: ask after the other connections (and the
                // listener), so traffic from unexpected peers is not
                // starved while parked.
                self.sweep(Duration::ZERO);
            }
        }
    }
}

// ---------------------------------------------------------------------
// TCP cluster wiring
// ---------------------------------------------------------------------

/// Binds one loopback listener per replica; returns listeners and their
/// addresses.
pub(crate) fn bind_replicas(r: usize) -> std::io::Result<(Vec<TcpListener>, Vec<SocketAddr>)> {
    let mut listeners = Vec::with_capacity(r);
    let mut addrs = Vec::with_capacity(r);
    for _ in 0..r {
        let l = TcpListener::bind(("127.0.0.1", 0))?;
        addrs.push(l.local_addr()?);
        listeners.push(l);
    }
    Ok((listeners, addrs))
}

/// Builds replica `i`'s transport: dial every lower-numbered replica
/// (deterministic initiator rule — exactly one connection per pair),
/// then accept the expected number of inbound connections (higher
/// replicas and clients). The listener stays
/// with the transport afterwards, nonblocking, so peers can reconnect
/// at runtime.
pub(crate) fn replica_transport<M: Codec>(
    me: NodeId,
    listener: TcpListener,
    lower: &[(NodeId, SocketAddr)],
    expect_accepts: usize,
) -> std::io::Result<TcpTransport<M>> {
    let mut conns = Vec::with_capacity(lower.len() + expect_accepts);
    for &(peer, addr) in lower {
        conns.push(TcpTransport::<M>::dial(me, peer, addr)?);
    }
    for _ in 0..expect_accepts {
        conns.push(TcpTransport::<M>::accept(&listener)?);
    }
    let dial_addrs: BTreeMap<NodeId, SocketAddr> = lower.iter().copied().collect();
    Ok(TcpTransport::new(me, conns, dial_addrs, Some(listener)))
}

/// Builds the transport of a replica *rejoining* a running cluster
/// (restart after a crash): rebind the replica's original address, and
/// connect nothing up front — lower-numbered peers start in backoff
/// (redialed by the maintenance pass), higher-numbered peers and
/// clients redial this listener when their own dead-link backoff fires.
/// The bind itself is retried briefly: the dying instance's listener
/// may take a moment to release the port.
pub(crate) fn rejoin_replica_transport<M: Codec>(
    me: NodeId,
    addr: SocketAddr,
    lower: &[(NodeId, SocketAddr)],
) -> std::io::Result<TcpTransport<M>> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let listener = loop {
        match TcpListener::bind(addr) {
            Ok(l) => break l,
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let dial_addrs: BTreeMap<NodeId, SocketAddr> = lower.iter().copied().collect();
    Ok(TcpTransport::new(
        me,
        Vec::new(),
        dial_addrs,
        Some(listener),
    ))
}

/// Builds a client's transport: dial every replica. Clients own redial
/// for all their links.
pub(crate) fn client_transport<M: Codec>(
    me: NodeId,
    replicas: &[(NodeId, SocketAddr)],
) -> std::io::Result<TcpTransport<M>> {
    let mut conns = Vec::with_capacity(replicas.len());
    for &(peer, addr) in replicas {
        conns.push(TcpTransport::<M>::dial(me, peer, addr)?);
    }
    let dial_addrs: BTreeMap<NodeId, SocketAddr> = replicas.iter().copied().collect();
    Ok(TcpTransport::new(me, conns, dial_addrs, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_block_ends_at_whichever_comes_first() {
        let now = Instant::now();
        let at = |us: u64| Some(now + Duration::from_micros(us));
        let us = Duration::from_micros;
        // The 20 µs batch-flush deadline beats a redial due in 500 µs…
        assert_eq!(block_for(at(20), at(500), now), us(20));
        // …a redial due sooner than the engine's next timer beats it…
        assert_eq!(block_for(at(2_000), at(500), now), us(500));
        assert_eq!(block_for(None, at(500), now), us(500));
        // …and an overdue one means "do not block at all".
        let overdue = now.checked_sub(us(300));
        assert!(overdue.is_some(), "the clock is 300 µs past its epoch");
        assert_eq!(block_for(at(2_000), overdue, now), Duration::ZERO);
        // With nothing to redial the caller's deadline stands, past
        // PARK_SLICE too: every descriptor is in the poll set.
        assert_eq!(block_for(at(5_000), None, now), PARK_SLICE * 5);
        // Neither a deadline nor a redial: one bounded slice.
        assert_eq!(block_for(None, None, now), PARK_SLICE);
    }
}
