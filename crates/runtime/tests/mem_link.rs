//! The shared-memory link: one SPSC queue per ordered process pair,
//! each slot carrying its shard-group topic, with
//! [`QUEUE_SLOTS`] slots per topic the link carries and a sender-side
//! backlog behind a full queue.

use onepaxos::{NodeId, Op};
use onepaxos_runtime::{MemTransport, Transport, Wire, QUEUE_SLOTS};

const A: NodeId = NodeId(0);
const B: NodeId = NodeId(1);

fn msg(req_id: u64) -> Wire<u64> {
    Wire::Request {
        client: A,
        req_id,
        op: Op::Put {
            key: req_id,
            value: req_id,
        },
    }
}

/// Drains everything `b` has waiting as `(topic, req_id)`.
fn drain(b: &mut MemTransport<u64>) -> Vec<(u16, u64)> {
    std::iter::from_fn(|| b.recv())
        .map(|((from, topic), wire)| {
            assert_eq!(from, A);
            let Wire::Request { req_id, .. } = wire else {
                panic!("unexpected message");
            };
            (topic, req_id)
        })
        .collect()
}

#[test]
fn one_link_delivers_every_topic_in_send_order() {
    let (mut a, mut b) = MemTransport::<u64>::pair(A, B, 3);
    for (i, topic) in [2, 0, 1, 2].into_iter().enumerate() {
        a.send(B, topic, msg(i as u64));
    }
    // Past the link's topics, or to a peer with no link: dropped.
    a.send(B, 3, msg(4));
    a.send(NodeId(7), 0, msg(5));
    assert!(!a.flush());
    assert_eq!(drain(&mut b), [(2, 0), (0, 1), (1, 2), (2, 3)]);
}

#[test]
fn a_full_link_backlogs_in_order_until_the_peer_drains() {
    const TOPICS: u16 = 2;
    let cap = QUEUE_SLOTS * usize::from(TOPICS);
    let (mut a, mut b) = MemTransport::<u64>::pair(A, B, TOPICS);
    let n = 3 * cap as u64;
    for i in 0..n {
        a.send(B, (i % 2) as u16, msg(i));
    }
    // The queue holds QUEUE_SLOTS per topic; the rest waits at the
    // sender, and flush says so while the peer does not read.
    assert!(a.flush());
    assert!(a.flush());
    let mut got = drain(&mut b);
    assert_eq!(got.len(), cap);
    while got.len() < n as usize {
        // Still backlogged unless the last queue-full went out.
        assert_eq!(a.flush(), got.len() + cap < n as usize);
        got.extend(drain(&mut b));
    }
    let want: Vec<(u16, u64)> = (0..n).map(|i| ((i % 2) as u16, i)).collect();
    assert_eq!(got, want);
    assert!(!a.flush());
}
