//! The apply path allocates nothing in steady state.
//!
//! A counting global allocator wraps the system allocator and counts
//! per thread, so the two cases can run in parallel. Each case warms an
//! `Applier<KvStore>` with 64 client sessions over a fixed key set —
//! every session, key and table node exists afterwards — and then
//! counts what applying more in-order decisions costs. One session
//! table per client, overwritten in place, keeps that at zero: the only
//! allowance is the retained log's amortised growth.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use onepaxos::kv::KvStore;
use onepaxos::rsm::Applier;
use onepaxos::{Command, Instance, NodeId, Op};

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
