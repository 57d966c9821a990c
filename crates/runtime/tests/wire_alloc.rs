//! The zero-steady-state-allocation contract of the TCP wire hot path.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up phase (buffer pools filling, inbox deques reaching capacity)
//! a measured run of request/reply round trips over a real loopback
//! socket pair must allocate **nothing**: frames encode into pooled
//! send segments, arrive into pooled receive segments, and decode by
//! borrowing those segments in place. Any regression that reintroduces
//! a per-frame `Vec` or a drain-compaction copy shows up here as a
//! nonzero count, the same discipline `Outbox::take_into` is held to.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use onepaxos::{NodeId, Op};
use onepaxos_runtime::{TcpTransport, Transport, Wire};

/// System allocator wrapped with allocation counting.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed
// atomic with no further side effects.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// One request/reply round trip across the pair, exercising the full
/// production hot path: coalesced vectored send, pump/recv sweep
/// on the server side, and the parked `recv_from_deadline` wait on the
/// client side.
fn round_trip(client: &mut TcpTransport<u64>, server: &mut TcpTransport<u64>, req_id: u64) {
    let c = NodeId(0);
    let s = NodeId(1);
    client.send(
        s,
        0,
        Wire::Request {
            client: c,
            req_id,
            op: Op::Put {
                key: req_id,
                value: req_id,
            },
        },
    );
    client.flush();

    let deadline = Instant::now() + Duration::from_secs(5);
    let req = loop {
        server.pump();
        if let Some((_, m)) = server.recv() {
            break m;
        }
        assert!(Instant::now() < deadline, "request never arrived");
        std::thread::yield_now();
    };
    let Wire::Request { req_id: r, .. } = req else {
        panic!("expected request, got {req:?}");
    };
    assert_eq!(r, req_id);

    server.send(
        c,
        0,
        Wire::Reply {
            req_id,
            instance: req_id,
            value: Some(req_id),
        },
    );
    server.flush();

    let (_, reply) = client
        .recv_from_deadline(s, deadline)
        .expect("reply never arrived");
    let Wire::Reply { req_id: r, .. } = reply else {
        panic!("expected reply, got {reply:?}");
    };
    assert_eq!(r, req_id);
}

#[test]
fn tcp_hot_path_allocates_nothing_in_steady_state() {
    let (mut client, mut server) =
        TcpTransport::<u64>::pair(NodeId(0), NodeId(1)).expect("loopback pair");

    // Warm up: fill the segment pools, grow the inbox deques, fault in
    // the lazily initialised corners of the socket path.
    for i in 0..256 {
        round_trip(&mut client, &mut server, i);
    }

    let before = allocs();
    for i in 256..1280 {
        round_trip(&mut client, &mut server, i);
    }
    let during = allocs() - before;

    assert_eq!(
        during, 0,
        "TCP send/recv hot path allocated {during} times over 1024 \
         steady-state round trips (contract: zero per-frame allocations)"
    );
}
