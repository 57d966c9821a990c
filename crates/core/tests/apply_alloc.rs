//! The apply path, and a client's single-command loop, allocate nothing
//! in steady state.
//!
//! A counting global allocator wraps the system allocator and counts
//! per thread, so the cases can run in parallel. The apply cases warm
//! an `Applier<KvStore>` with 64 client sessions over a fixed key set —
//! every session, key and table node exists afterwards — and then
//! count what applying more in-order decisions costs. One session
//! table per client, overwritten in place, keeps that at zero: the only
//! allowance is the retained log's amortised growth. The client case
//! runs a `ClientSession` through submit → reply round trips on a
//! reused effect buffer. The flush case counts what the engine's batch
//! accumulator costs per flushed batch: exactly the payload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use onepaxos::client::{ClientEffect, ClientSession, RetryPolicy};
use onepaxos::kv::KvStore;
use onepaxos::rsm::Applier;
use onepaxos::{
    BatchConfig, Command, EngineEvent, Instance, Nanos, NodeId, Op, Outbox, Protocol,
    ReplicaEngine, ShardRouter, Timer,
};

/// System allocator wrapped with per-thread allocation counting.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates directly to `System`; the counter is a
// const-initialised thread-local `Cell` with no further side effects.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const SESSIONS: u64 = 64;
const KEYS: u64 = 256;

/// The `i`-th put of the workload: sessions take turns, each with
/// monotone request ids, over a fixed key set.
fn put(i: u64) -> Command {
    Command::new(
        NodeId((i % SESSIONS) as u16),
        i / SESSIONS + 1,
        Op::Put {
            key: i % KEYS,
            value: i,
        },
    )
}

#[test]
fn in_order_single_puts_allocate_at_most_the_log_growth() {
    let mut a = Applier::new(KvStore::new());
    for i in 0..10_000 {
        a.on_decided(i as Instance, put(i));
    }

    let before = allocs();
    for i in 10_000..20_000 {
        a.on_decided(i as Instance, put(i));
    }
    let during = allocs() - before;

    assert_eq!(a.applied_up_to(), Some(19_999));
    assert!(
        during <= 1,
        "10 000 in-order puts from {SESSIONS} warmed sessions allocated {during} times \
         (contract: at most the retained log's one amortised growth)"
    );
}

#[test]
fn batched_decisions_allocate_nothing() {
    // 16-command batches from one engine's batch source; commands in a
    // batch come from 16 different sessions.
    let batch = |seq: u64| {
        let cmds = (0..16).map(|j| put(seq * 16 + j)).collect();
        Command::batch(NodeId(0), seq + 1, cmds)
    };
    let mut a = Applier::new(KvStore::new());
    for seq in 0..1_000 {
        a.on_decided(seq as Instance, batch(seq));
    }
    // Empty the retained log, keeping its capacity for the next 1 000.
    a.truncate(1_000);
    let batches: Vec<Command> = (1_000..2_000).map(batch).collect();

    let before = allocs();
    for (seq, cmd) in (1_000..).zip(batches) {
        a.on_decided(seq as Instance, cmd);
    }
    let during = allocs() - before;

    assert_eq!(a.applied_up_to(), Some(1_999));
    assert_eq!(
        during, 0,
        "on_decided allocated {during} times for 1 000 prebuilt 16-command batches \
         (contract: zero)"
    );
}

#[test]
fn a_steady_submit_reply_loop_allocates_nothing() {
    let replicas = vec![NodeId(0), NodeId(1), NodeId(2)];
    let mut s = ClientSession::new(
        NodeId(9),
        replicas,
        ShardRouter::new(4),
        RetryPolicy::default(),
        1,
    );
    let mut out = Vec::new();
    let mut round_trip = |i: u64| {
        s.submit(
            Op::Put {
                key: i % KEYS,
                value: i,
            },
            i,
            &mut out,
        );
        let Some(ClientEffect::Send { req_id, .. }) = out.pop() else {
            panic!("a submit sends")
        };
        s.on_reply(req_id, Some(i), i + 1, &mut out);
        assert!(matches!(out.pop(), Some(ClientEffect::Complete { .. })));
    };
    round_trip(0);

    let before = allocs();
    for i in 1..10_000 {
        round_trip(i);
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "10 000 submit/reply round trips allocated {during} times (contract: zero)"
    );
}

/// A protocol that takes every request and decides nothing, so the
/// engine's own batching work is all that runs.
#[derive(Debug)]
struct Sink;

impl Protocol for Sink {
    type Msg = ();

    fn node_id(&self) -> NodeId {
        NodeId(0)
    }

    fn on_start(&mut self, _: Nanos, _: &mut Outbox<()>) {}

    fn on_message(&mut self, _: NodeId, _: (), _: Nanos, _: &mut Outbox<()>) {}

    fn on_timer(&mut self, _: Timer, _: Nanos, _: &mut Outbox<()>) {}

    fn on_client_request(&mut self, _: NodeId, _: u64, _: Op, _: Nanos, _: &mut Outbox<()>) {}

    fn is_leader(&self) -> bool {
        true
    }
}

#[test]
fn each_batch_flush_allocates_only_its_payload() {
    const DEPTH: u64 = 16;
    const DELAY: Nanos = 20_000;
    const FLUSHES: u64 = 1_000;
    let mut engine = ReplicaEngine::new(Sink, KvStore::new())
        .with_batching(BatchConfig::new(DEPTH as usize, DELAY));
    let mut effects = Vec::new();
    let (mut now, mut req) = (0, 0);
    // One round: `FLUSHES` batches that flush on size, then `FLUSHES`
    // half-full ones that flush at their deadline through `fire_due`.
    let mut round = || {
        for fill in [DEPTH, DEPTH / 2] {
            for _ in 0..FLUSHES {
                for c in 0..fill {
                    req += 1;
                    let op = Op::Put { key: c, value: req };
                    let client = NodeId(c as u16);
                    engine.handle(
                        EngineEvent::ClientRequest {
                            client,
                            req_id: req,
                            op,
                        },
                        now,
                        &mut effects,
                    );
                }
                now += DELAY;
                if fill < DEPTH {
                    assert_eq!(engine.fire_due(now, &mut effects), 1, "the deadline flush");
                }
            }
        }
        assert!(effects.is_empty(), "the sink decides nothing");
    };
    // The sink never decides, so the engine's in-flight batch set only
    // grows; two warm-up rounds size it past what the measured round
    // adds, and size every other table and buffer.
    round();
    round();

    let before = allocs();
    round();
    let during = allocs() - before;

    let stats = engine.stats();
    assert_eq!(stats.size_flushes, 3 * FLUSHES);
    assert_eq!(stats.deadline_flushes, 3 * FLUSHES);
    assert_eq!(
        during,
        2 * FLUSHES,
        "{} flushes allocated {during} times (contract: one per flush, the payload)",
        2 * FLUSHES
    );
}
