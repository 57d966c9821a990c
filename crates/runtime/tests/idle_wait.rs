//! The blocking half of `Transport::idle_wait` on the socket transport:
//! past its spin budget a waiter sits in the kernel on every descriptor
//! it owns, so it must be *woken* by whatever it waits for — bytes, or
//! the redial it owes — and must otherwise stay away until its deadline.

use std::time::{Duration, Instant};

use onepaxos::{NodeId, Op};
use onepaxos_runtime::{TcpTransport, Transport, Wire};

const DIALER: NodeId = NodeId(0);
const ACCEPTOR: NodeId = NodeId(1);

/// An `empty_turns` far past any spin budget: block, do not yield.
const SPUN_OUT: u32 = u32::MAX;

#[test]
fn a_frame_wakes_a_blocked_wait_long_before_its_deadline() {
    let (mut dialer, mut acceptor) =
        TcpTransport::<u64>::pair(DIALER, ACCEPTOR).expect("loopback pair");
    let sender = std::thread::spawn(move || {
        // Long enough for the waiter to be inside the kernel.
        std::thread::sleep(Duration::from_millis(20));
        let op = Op::Put { key: 7, value: 7 };
        dialer.send(
            ACCEPTOR,
            0,
            Wire::Request {
                client: DIALER,
                req_id: 7,
                op,
            },
        );
        dialer.flush();
        dialer
    });

    let start = Instant::now();
    assert!(acceptor.idle_wait(SPUN_OUT, Some(start + Duration::from_secs(2))));
    let waited = start.elapsed();
    // No pump: the wake itself swept the frame in.
    match acceptor.recv() {
        Some(((from, 0), Wire::Request { req_id: 7, .. })) => assert_eq!(from, DIALER),
        other => panic!("woke without the frame in the inbox: {other:?}"),
    }
    assert!(
        waited < Duration::from_millis(500),
        "timed out instead of being woken: {waited:?}"
    );
    drop(sender.join().expect("sender thread"));
}

#[test]
fn an_empty_wait_lasts_until_its_deadline_and_a_recent_one_only_yields() {
    let (_dialer, mut acceptor) =
        TcpTransport::<u64>::pair(DIALER, ACCEPTOR).expect("loopback pair");
    let cap = Duration::from_millis(50);

    let start = Instant::now();
    assert!(
        !acceptor.idle_wait(0, Some(start + cap)),
        "turn 0 is inside the spin budget"
    );
    assert!(start.elapsed() < cap, "a yield took {:?}", start.elapsed());

    let start = Instant::now();
    assert!(acceptor.idle_wait(SPUN_OUT, Some(start + cap)));
    assert!(start.elapsed() >= cap, "back early: {:?}", start.elapsed());
    assert!(acceptor.recv().is_none());
}

#[test]
fn a_dialer_in_backoff_wakes_for_its_redial_not_for_its_deadline() {
    let (mut dialer, acceptor) =
        TcpTransport::<u64>::pair(DIALER, ACCEPTOR).expect("loopback pair");
    // The peer goes away entirely, listener included: the sweep sees
    // EOF, the flush reaps the slot and its immediate redial is refused.
    drop(acceptor);
    let deadline = Instant::now() + Duration::from_secs(5);
    while dialer.backoff_count() == 0 {
        dialer.pump();
        dialer.flush();
        assert!(Instant::now() < deadline, "the dead link was never reaped");
    }

    // Nothing will ever arrive, and the caller could stay away for a
    // minute — but the transport owes a redial within milliseconds.
    let start = Instant::now();
    dialer.idle_wait(SPUN_OUT, Some(start + Duration::from_secs(60)));
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "slept through the redial: {:?}",
        start.elapsed()
    );
}
