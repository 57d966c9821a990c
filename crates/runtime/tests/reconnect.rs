//! The reconnect lifecycle of [`TcpTransport`]: a dead connection is a
//! blip, not a permanent partition.
//!
//! A killed or corrupted link must be (1) reaped — the conn-slot table
//! stays bounded by the peer count, no graveyard of terminal slots —
//! and (2) re-established, by backoff redial on the side that owns the
//! dial and by an accept, when the listener reports the redial, on the
//! side that owns the listener. Frames lost across the gap are covered by the documented
//! may-drop/at-most-once delivery contract, which is what lets these
//! tests simply re-send a probe until one crosses.

use std::time::{Duration, Instant};

use onepaxos::{NodeId, Op};
use onepaxos_runtime::{TcpTransport, Transport, Wire};

const DIALER: NodeId = NodeId(0);
const ACCEPTOR: NodeId = NodeId(1);

fn probe(req_id: u64) -> Wire<u64> {
    Wire::Request {
        client: DIALER,
        req_id,
        op: Op::Put {
            key: req_id,
            value: req_id,
        },
    }
}

/// Drives both endpoints until a probe tagged at or above `floor`
/// crosses from `tx` to `rx` on `topic`, re-sending each pass (the
/// contract allows drops across the reconnect gap). Returns the req_id
/// that made it.
fn drive_until_delivered(
    tx: &mut TcpTransport<u64>,
    rx: &mut TcpTransport<u64>,
    to: NodeId,
    topic: u16,
    floor: u64,
) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut next = floor;
    loop {
        tx.send(to, topic, probe(next));
        next += 1;
        tx.flush();
        tx.pump();
        rx.pump();
        rx.flush();
        while let Some(((_, t), wire)) = rx.recv() {
            if let Wire::Request { req_id, .. } = wire {
                if t == topic && req_id >= floor {
                    return req_id;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "no probe >= {floor} delivered on topic {topic} within 20s"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Satellite regression: repeated kills never grow the conn-slot table.
/// Every kill reaps the dead slot, every heal installs exactly one
/// replacement — `conn_count` stays pinned at the peer count (1) on
/// both sides through eight kill/heal rounds, alternating which side
/// pulls the trigger.
#[test]
fn conn_slots_stay_bounded_under_repeated_kills() {
    let (mut dialer, mut acceptor) =
        TcpTransport::<u64>::pair(DIALER, ACCEPTOR).expect("loopback pair");
    drive_until_delivered(&mut dialer, &mut acceptor, ACCEPTOR, 0, 0);

    for round in 0..8u64 {
        if round % 2 == 0 {
            dialer.kill_peer_link(ACCEPTOR);
        } else {
            acceptor.kill_peer_link(DIALER);
        }
        let floor = (round + 1) * 1_000;
        drive_until_delivered(&mut dialer, &mut acceptor, ACCEPTOR, 0, floor);
        assert!(
            dialer.conn_count() <= 1 && acceptor.conn_count() <= 1,
            "round {round}: conn slots grew (dialer {}, acceptor {})",
            dialer.conn_count(),
            acceptor.conn_count()
        );
    }

    // Healed end state: exactly one live connection each, nothing left
    // in backoff, and the counters saw every kill and every repair.
    assert_eq!(dialer.conn_count(), 1);
    assert_eq!(acceptor.conn_count(), 1);
    assert_eq!(dialer.backoff_count(), 0);
    let d = dialer.stats();
    let a = acceptor.stats();
    assert!(d.conn_kills >= 4, "dialer saw {} kills", d.conn_kills);
    assert!(a.conn_kills >= 4, "acceptor saw {} kills", a.conn_kills);
    assert!(d.reconnects >= 8, "dialer made {} repairs", d.reconnects);
    assert!(a.reconnects >= 8, "acceptor made {} repairs", a.reconnects);
}

/// Satellite regression: a corrupt frame on one topic kills the shared
/// connection (it must — framing is unrecoverable mid-stream), but
/// after the reconnect *unrelated topics* resume in both directions,
/// and the kill is attributed in `TransportStats::corrupt_frames`.
#[test]
fn corrupt_frame_kill_heals_and_unrelated_topics_resume() {
    let (mut dialer, mut acceptor) =
        TcpTransport::<u64>::pair(DIALER, ACCEPTOR).expect("loopback pair");
    // Healthy traffic on two topics before the fault.
    drive_until_delivered(&mut dialer, &mut acceptor, ACCEPTOR, 0, 0);
    drive_until_delivered(&mut dialer, &mut acceptor, ACCEPTOR, 1, 100);

    // Poison the stream: a well-framed payload that does not decode.
    dialer.inject_corrupt_frame(ACCEPTOR);
    dialer.flush();

    // The acceptor kills the connection on decode failure and books it
    // as a corrupt-frame kill; both topics then resume through the
    // healed link, in both directions.
    drive_until_delivered(&mut dialer, &mut acceptor, ACCEPTOR, 0, 10_000);
    drive_until_delivered(&mut dialer, &mut acceptor, ACCEPTOR, 1, 20_000);
    drive_until_delivered(&mut acceptor, &mut dialer, DIALER, 1, 30_000);

    let a = acceptor.stats();
    assert_eq!(
        a.corrupt_frames, 1,
        "corrupt-frame kill not attributed: {a:?}"
    );
    assert!(a.conn_kills >= 1, "kill not counted: {a:?}");
    assert!(a.reconnects >= 1, "no repair counted: {a:?}");
    assert_eq!(acceptor.conn_count(), 1);
    assert_eq!(dialer.conn_count(), 1);
}

/// Satellite regression: a client parked in `recv_from_deadline`'s
/// blocking read must not stay stuck when the hot connection dies
/// mid-park — the EOF wakes it, the maintenance pass redials under the
/// wait, and the reply sent over the healed link is delivered long
/// before the deadline.
#[test]
fn parked_client_survives_connection_death_mid_park() {
    let (mut client, mut server) =
        TcpTransport::<u64>::pair(DIALER, ACCEPTOR).expect("loopback pair");
    drive_until_delivered(&mut client, &mut server, ACCEPTOR, 0, 0);

    let nemesis = std::thread::spawn(move || {
        // Let the client reach its parked blocking read, then sever the
        // socket from the server side — the client's park sees EOF.
        std::thread::sleep(Duration::from_millis(100));
        server.kill_peer_link(DIALER);
        // Sweep accepts until the client's redial lands.
        let deadline = Instant::now() + Duration::from_secs(20);
        while server.conn_count() == 0 {
            server.pump();
            assert!(Instant::now() < deadline, "client never redialed");
            std::thread::sleep(Duration::from_micros(200));
        }
        // Reply over the healed connection.
        server.send(
            DIALER,
            0,
            Wire::Reply {
                req_id: 42,
                instance: 42,
                value: Some(42),
            },
        );
        let flush_deadline = Instant::now() + Duration::from_secs(5);
        while server.flush() && Instant::now() < flush_deadline {
            std::thread::yield_now();
        }
        server
    });

    // Park far longer than the repair takes: the test only passes
    // quickly if the mid-park death degrades to bounded slices that
    // drive the redial, exactly as documented.
    let parked_at = Instant::now();
    let got = client.recv_from_deadline(ACCEPTOR, parked_at + Duration::from_secs(30));
    let server = nemesis.join().expect("nemesis thread");

    match got {
        Some((_, Wire::Reply { req_id, .. })) => assert_eq!(req_id, 42),
        other => panic!("parked client never resumed: {other:?}"),
    }
    assert!(
        parked_at.elapsed() < Duration::from_secs(25),
        "client only resumed at the deadline — the park was stuck"
    );
    assert!(
        client.stats().reconnects >= 1,
        "client never redialed: {:?}",
        client.stats()
    );
    drop(server);
}

/// An acceptor with nothing to do blocks in `idle_wait` on its listener
/// too, so a peer that redials while it is in the kernel is adopted by
/// the wake the connection attempt causes — not at the end of the wait —
/// and replaces the dead slot one for one.
#[test]
fn blocked_acceptor_is_woken_by_a_redial_and_adopts_it() {
    let (mut dialer, mut acceptor) =
        TcpTransport::<u64>::pair(DIALER, ACCEPTOR).expect("loopback pair");
    drive_until_delivered(&mut dialer, &mut acceptor, ACCEPTOR, 0, 0);
    let conns_before = acceptor.conn_count();
    let repairs_before = acceptor.stats().reconnects;

    // The acceptor's side of the link dies and is reaped; only the
    // listener is left to wait on.
    acceptor.kill_peer_link(DIALER);
    assert_eq!(acceptor.conn_count(), 0);

    let redialer = std::thread::spawn(move || {
        // Let the acceptor reach the kernel, then notice the EOF and
        // redial (the first attempt is due immediately).
        std::thread::sleep(Duration::from_millis(20));
        let deadline = Instant::now() + Duration::from_secs(20);
        while dialer.stats().reconnects == 0 {
            dialer.pump();
            dialer.flush();
            assert!(Instant::now() < deadline, "dialer never redialed");
            std::thread::sleep(Duration::from_micros(200));
        }
        dialer
    });

    let start = Instant::now();
    acceptor.idle_wait(u32::MAX, Some(start + Duration::from_secs(10)));
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the redial did not wake the blocked acceptor: {:?}",
        start.elapsed()
    );
    assert_eq!(acceptor.conn_count(), conns_before, "adopted by the wake");
    assert_eq!(acceptor.stats().reconnects, repairs_before + 1);

    // And the adopted connection carries traffic.
    let mut dialer = redialer.join().expect("redialer thread");
    drive_until_delivered(&mut dialer, &mut acceptor, ACCEPTOR, 0, 1_000);
    assert_eq!(acceptor.conn_count(), conns_before);
}
