//! The inline single-thread pipeline of the traced run: N seeded
//! requests carried through the same public calls the replica loop
//! makes, each call a child span of its request's root span. Three
//! `ShardedEngine`s built the way `replica_loop` builds them stand in
//! for the replicas; every message between them crosses a real hop —
//! an `spsc` queue for the shared-memory pipeline, a
//! `TcpTransport::pair` for the socket one, where the codec and chunk
//! calls the transport makes inside are also run visibly
//! (`Wire` encode → `SendQueue::push_frame` → `RecvBuf::next_frame` →
//! decode) so their share of the hop has a number.
//!
//! Besides per-layer self times the pipeline yields the counts the
//! budget needs, taken at the same boundaries: hops and engine calls on
//! the causal chain from the request to its reply.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use onepaxos::engine::{BatchConfig, EngineEffect, EngineEvent, ReplicaEngine, ReplyMode};
use onepaxos::kv::KvStore;
use onepaxos::onepaxos::{Msg, OnePaxosNode};
use onepaxos::shard::{ShardId, ShardedEffects, ShardedEngine};
use onepaxos::wire::{decode_exact, Codec, RecvBuf, SendQueue};
use onepaxos::{ClusterConfig, NodeId, Op};
use onepaxos_runtime::{TcpTransport, Transport, Wire};
use qc_channel::spsc;

use crate::gen::{lane, Rng};
use crate::trace::Tracer;

const REPLICAS: u16 = 3;
const CLIENT: NodeId = NodeId(9);
const KEYS: u64 = 1024;

type Engine = ShardedEngine<OnePaxosNode, KvStore>;
type Effects = ShardedEffects<Msg, Option<u64>>;

/// Three engines and the messages in flight between them.
pub struct MiniNet {
    engines: Vec<Engine>,
    /// `(to, shard, from, msg, chain)` in send order.
    queue: VecDeque<(NodeId, ShardId, NodeId, Msg, Chain)>,
    effects: Effects,
    now: u64,
    pub delivered: u64,
    pub commits: u64,
}

/// The causal chain from a request to the message carrying it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Chain {
    pub hops: u32,
    pub engine_calls: u32,
}

impl MiniNet {
    /// Builds the engines exactly as the runtime's replica loop does and
    /// runs leader adoption to quiescence.
    pub fn new(shards: u16, batching: Option<BatchConfig>) -> Self {
        let members: Vec<NodeId> = (0..REPLICAS).map(NodeId).collect();
        let engines = members
            .iter()
            .map(|&me| {
                let mut e = ShardedEngine::new(shards, |shard| {
                    ReplicaEngine::with_reply_mode(
                        OnePaxosNode::new(ClusterConfig::new(members.clone(), me)),
                        KvStore::new(),
                        ReplyMode::AfterApply,
                    )
                    .with_history(false)
                    .with_shard(shard)
                });
                e.set_batching(batching);
                e
            })
            .collect();
        let mut net = MiniNet {
            engines,
            queue: VecDeque::new(),
            effects: Vec::new(),
            now: 0,
            delivered: 0,
            commits: 0,
        };
        for i in 0..REPLICAS {
            let mut fx = std::mem::take(&mut net.effects);
            net.engines[i as usize].start(0, &mut fx);
            net.effects = fx;
            net.absorb(NodeId(i), Chain::default(), &mut |_, _, _| {});
        }
        net.settle(&mut |f| f(), &mut |_, _, _| {});
        net
    }

    /// Sorts the pending effects of `me`: sends are queued, replies go
    /// to `on_reply(req_id, value, chain)`.
    fn absorb(
        &mut self,
        me: NodeId,
        chain: Chain,
        on_reply: &mut impl FnMut(u64, Option<u64>, Chain),
    ) {
        let mut fx = std::mem::take(&mut self.effects);
        for (shard, effect) in fx.drain(..) {
            match effect {
                EngineEffect::SendTo { to, msg } => {
                    self.queue.push_back((to, shard, me, msg, chain));
                }
                EngineEffect::ReplyTo { req_id, value, .. } => {
                    on_reply(req_id, value.flatten(), chain)
                }
                EngineEffect::Committed { .. } => self.commits += (me == NodeId(0)) as u64,
            }
        }
        self.effects = fx;
    }

    /// Submits a client request at node 0 through `call`, which wraps
    /// the engine call (a span, a timer or nothing).
    pub fn submit(
        &mut self,
        req_id: u64,
        op: Op,
        chain: Chain,
        call: &mut impl FnMut(&mut dyn FnMut()),
        on_reply: &mut impl FnMut(u64, Option<u64>, Chain),
    ) {
        self.now += 1_000;
        let (now, mut fx) = (self.now, std::mem::take(&mut self.effects));
        let engine = &mut self.engines[0];
        call(&mut || {
            engine.submit(CLIENT, req_id, op.clone(), now, &mut fx);
        });
        self.effects = fx;
        let chain = Chain {
            engine_calls: chain.engine_calls + 1,
            ..chain
        };
        self.absorb(NodeId(0), chain, on_reply);
    }

    /// Delivers queued messages in send order until none is left. `hop`
    /// carries each message across its link and returns what arrived;
    /// `call` wraps each `handle`.
    pub fn settle_with(
        &mut self,
        hop: &mut impl FnMut(Wire<Msg>) -> Wire<Msg>,
        call: &mut impl FnMut(&mut dyn FnMut()),
        on_reply: &mut impl FnMut(u64, Option<u64>, Chain),
    ) {
        while let Some((to, shard, from, msg, chain)) = self.queue.pop_front() {
            let Wire::Peer(msg) = hop(Wire::Peer(msg)) else {
                unreachable!("a hop returns the message it was given")
            };
            self.delivered += 1;
            self.now += 1_000;
            let (now, mut fx) = (self.now, std::mem::take(&mut self.effects));
            let engine = &mut self.engines[to.index()];
            let mut event = Some(EngineEvent::Message { from, msg });
            call(&mut || {
                let event = event.take().expect("one call per message");
                engine.handle(shard, event, now, &mut fx);
            });
            self.effects = fx;
            let chain = Chain {
                hops: chain.hops + 1,
                engine_calls: chain.engine_calls + 1,
            };
            self.absorb(to, chain, on_reply);
        }
    }

    fn settle(
        &mut self,
        call: &mut impl FnMut(&mut dyn FnMut()),
        on_reply: &mut impl FnMut(u64, Option<u64>, Chain),
    ) {
        self.settle_with(&mut |w| w, &mut |f| call(f), on_reply);
    }

    /// Fires every due timer after advancing virtual time by `delta`
    /// (the batch flush deadline), then settles.
    pub fn advance(&mut self, delta: u64, on_reply: &mut impl FnMut(u64, Option<u64>, Chain)) {
        self.now += delta;
        for i in 0..REPLICAS {
            let mut fx = std::mem::take(&mut self.effects);
            self.engines[i as usize].fire_due(self.now, &mut fx);
            self.effects = fx;
            self.absorb(NodeId(i), Chain::default(), on_reply);
        }
        self.settle(&mut |f| f(), on_reply);
    }

    pub fn kv_digests(&self) -> Vec<u64> {
        self.engines.iter().map(|e| e.kv_digest()).collect()
    }
}

/// How a pipeline carries a message between two processes.
pub enum Link {
    /// One `spsc` queue of the runtime's slot count.
    Spsc(spsc::Sender<Wire<Msg>>, spsc::Receiver<Wire<Msg>>),
    /// A loopback socket pair plus visible codec/chunk buffers.
    Tcp {
        a: Box<TcpTransport<Msg>>,
        b: Box<TcpTransport<Msg>>,
        send: SendQueue,
        recv: RecvBuf,
    },
}

impl Link {
    pub fn spsc() -> Link {
        let (tx, rx) = spsc::channel(qc_channel::DEFAULT_SLOTS);
        Link::Spsc(tx, rx)
    }

    pub fn tcp() -> std::io::Result<Link> {
        let (a, b) = TcpTransport::pair(NodeId(0), NodeId(1))?;
        Ok(Link::Tcp {
            a: Box::new(a),
            b: Box::new(b),
            send: SendQueue::new(),
            recv: RecvBuf::new(),
        })
    }

    /// Carries `msg` across, recording the layer calls as spans.
    fn hop(&mut self, tr: &mut Tracer, msg: Wire<Msg>) -> Wire<Msg> {
        match self {
            Link::Spsc(tx, rx) => {
                let s = tr.begin("spsc.send_recv");
                tx.try_send(msg).expect("an empty queue has room");
                let got = rx.try_recv().expect("just sent");
                tr.end(s);
                got
            }
            Link::Tcp { a, b, send, recv } => {
                // The codec and chunk work the transport does inside,
                // run where a span can see it.
                let s = tr.begin("wire.encode+chunk.push_frame");
                send.push_frame(|buf| {
                    0u16.encode(buf);
                    msg.encode(buf);
                });
                tr.end(s);
                let mut io = [std::io::IoSlice::new(&[])];
                let n = send.slices(&mut io);
                assert_eq!(n, 1, "one segment queued");
                let frame_len = io[0].len();
                recv.writable()[..frame_len].copy_from_slice(&io[0]);
                recv.commit(frame_len);
                send.consume(frame_len);
                let s = tr.begin("chunk.next_frame");
                let frame = recv.next_frame().expect("clean frame").expect("whole");
                tr.end(s);
                let s = tr.begin("wire.decode");
                let shadow: Wire<Msg> = decode_exact(&frame[2..]).expect("round trip");
                tr.end(s);
                drop(frame);

                let s = tr.begin("transport.tcp_send_flush");
                a.send(NodeId(1), 0, msg);
                a.flush();
                tr.end(s);
                let s = tr.begin("transport.tcp_recv");
                let deadline = Instant::now() + Duration::from_secs(5);
                let (_, got) = b
                    .recv_from_deadline(NodeId(0), deadline)
                    .expect("loopback delivers");
                tr.end(s);
                assert_eq!(shadow, got, "both paths carry the same message");
                got
            }
        }
    }
}

/// What one pipeline run yields besides its spans.
#[derive(Debug, Default)]
pub struct PipelineOut {
    pub requests: u64,
    pub failed: u64,
    pub msgs_per_commit: f64,
    /// Hops and engine calls on the causal chain request → reply
    /// (the same for every request of a healthy run; the mode is kept).
    pub chain: Chain,
}

/// Carries `n` seeded puts/gets through a 1-shard unbatched mini-net
/// over `link`, spans into `tr`.
pub fn run(seed: u64, n: u64, link: &mut Link, tr: &mut Tracer) -> PipelineOut {
    let mut net = MiniNet::new(1, None);
    let mut rng: Rng = lane(seed, 0x919E);
    let mut model = vec![None::<u64>; KEYS as usize];
    let mut out = PipelineOut::default();
    let (delivered0, commits0) = (net.delivered, net.commits);
    for req in 1..=n {
        let key = rng.below(KEYS);
        let is_get = rng.below(100) < 30;
        let op = if is_get {
            Op::Get { key }
        } else {
            Op::Put { key, value: req }
        };
        let expect = model[key as usize];
        if !is_get {
            model[key as usize] = Some(req);
        }
        let mut reply: Option<(Option<u64>, Chain)> = None;
        let mut on_reply = |r: u64, v: Option<u64>, c: Chain| {
            if r == req {
                reply = Some((v, c));
            }
        };

        let root = tr.begin_request();
        // client → leader
        let Wire::Request { op, .. } = link.hop(
            tr,
            Wire::Request {
                client: CLIENT,
                req_id: req,
                op,
            },
        ) else {
            unreachable!("a hop returns the message it was given")
        };
        let first = Chain {
            hops: 1,
            engine_calls: 0,
        };
        {
            // `tr` is shared by the hop and the engine-call wrappers; a
            // RefCell keeps the borrows honest without unsafe.
            let cell = std::cell::RefCell::new(&mut *tr);
            let span = |name: &'static str, f: &mut dyn FnMut()| {
                let s = cell.borrow_mut().begin(name);
                f();
                cell.borrow_mut().end(s);
            };
            net.submit(
                req,
                op,
                first,
                &mut |f| span("engine.submit", f),
                &mut on_reply,
            );
            net.settle_with(
                &mut |w| link.hop(&mut cell.borrow_mut(), w),
                &mut |f| span("engine.handle_msg", f),
                &mut on_reply,
            );
        }
        // leader → client
        match reply {
            Some((value, chain)) => {
                let back = link.hop(
                    tr,
                    Wire::Reply {
                        req_id: req,
                        instance: 0,
                        value,
                    },
                );
                let ok = matches!(back, Wire::Reply { value, .. } if value == expect);
                out.failed += !ok as u64;
                out.chain = Chain {
                    hops: chain.hops + 1,
                    ..chain
                };
            }
            None => out.failed += 1,
        }
        tr.end(root);
        out.requests += 1;
    }
    let digests = net.kv_digests();
    out.failed += digests.iter().any(|&d| d != digests[0]) as u64;
    out.msgs_per_commit =
        (net.delivered - delivered0) as f64 / (net.commits - commits0).max(1) as f64;
    out
}
