//! Unit tests for 1Paxos: failure-free fast path, acceptor switch, leader
//! switch, double failure, silent acceptor reboot, value pinning.

use super::*;
use crate::testnet::TestNet;

fn net(n: u16) -> TestNet<OnePaxosNode> {
    let mut net = TestNet::new(n, |m, me| {
        OnePaxosNode::new(ClusterConfig::new(m.to_vec(), me))
    });
    // Let the initial leader get adopted by the initial acceptor.
    net.run_to_quiescence();
    net
}

const TICK: Nanos = 100_000;

fn timing() -> Timing {
    Timing::default()
}

#[test]
fn bootstrap_adopts_initial_leader() {
    let net = net(3);
    assert!(net.node(NodeId(0)).is_leader());
    assert!(!net.node(NodeId(1)).is_leader());
    assert_eq!(net.node(NodeId(0)).active_acceptor(), Some(NodeId(1)));
    // The acceptor is no longer fresh after adoption.
    assert!(!net.node(NodeId(1)).is_fresh_acceptor());
    // Backup acceptors stay fresh.
    assert!(net.node(NodeId(2)).is_fresh_acceptor());
}

#[test]
fn failure_free_commit_on_all_nodes() {
    let mut net = net(3);
    net.client_request(NodeId(0), NodeId(9), 1, Op::Put { key: 1, value: 10 });
    net.run_to_quiescence();
    assert_eq!(net.replies().len(), 1);
    for n in 0..3 {
        assert_eq!(net.commits(NodeId(n)).len(), 1, "node {n}");
    }
    net.assert_consistent();
}

#[test]
fn fast_path_message_count_matches_fig3() {
    // Fig 3 / §4.3: with three nodes the fast path crossing node
    // boundaries is 1 accept request + 2 learns = 3 messages (the paper's
    // "factor of two" counts the client request and reply as well:
    // 5 vs Multi-Paxos's 10).
    let mut net = net(3);
    let before = net.delivered();
    net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
    net.run_to_quiescence();
    assert_eq!(net.delivered() - before, 3);
}

#[test]
fn pipelining_many_commands() {
    let mut net = net(3);
    for req in 1..=20 {
        net.client_request(NodeId(0), NodeId(9), req, Op::Noop);
    }
    net.run_to_quiescence();
    assert_eq!(net.replies().len(), 20);
    assert_eq!(net.node(NodeId(0)).watermark(), 20);
    // Commands occupy consecutive instances in submission order.
    let commits = net.commits(NodeId(2));
    for (inst, cmd) in commits {
        assert_eq!(cmd.req_id, inst + 1);
    }
    net.assert_consistent();
}

#[test]
fn forwarded_requests_reach_leader() {
    let mut net = net(3);
    net.client_request(NodeId(2), NodeId(9), 1, Op::Noop);
    net.run_to_quiescence();
    assert_eq!(net.replies().len(), 1);
    assert_eq!(net.replies()[0].from, NodeId(2));
    net.assert_consistent();
}

#[test]
fn progresses_while_backup_acceptor_is_slow() {
    // A slow *backup* (n2) must not affect the fast path at all — the
    // whole point of not replicating the acceptor role.
    let mut net = net(3);
    net.block(NodeId(2));
    for req in 1..=5 {
        net.client_request(NodeId(0), NodeId(9), req, Op::Noop);
    }
    net.run_to_quiescence();
    assert_eq!(net.replies().len(), 5);
    net.unblock(NodeId(2));
    net.run_to_quiescence();
    assert_eq!(net.commits(NodeId(2)).len(), 5);
    net.assert_consistent();
}

#[test]
fn leader_re_advocates_truncated_orphans_on_its_tick() {
    // The accept for req 1 never lands (it would have fallen below the
    // acceptor's floor), and the floor rises past its instance: the
    // leader's next tick must re-propose it above the floor without
    // waiting for another client request.
    let mut net = net(3);
    net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
    assert!(net.drop_one(NodeId(0), NodeId(1)));
    net.node_mut(NodeId(0)).truncate(1);
    net.advance_and_settle(TICK, 1);
    // Only the protocol's floor rose, so instance 0 is never decided and
    // nothing applies: the re-proposal shows in the commit log.
    let req = Command::new(NodeId(9), 1, Op::Noop);
    assert_eq!(net.commits(NodeId(0)).get(1), Some(&req));
}

#[test]
fn acceptor_failure_switches_to_backup() {
    let mut net = net(3);
    net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
    net.run_to_quiescence();
    // The active acceptor n1 becomes slow.
    net.block(NodeId(1));
    net.client_request(NodeId(0), NodeId(9), 2, Op::Noop);
    net.run_to_quiescence(); // accept sits in n1's queue
    assert_eq!(net.replies().len(), 1);
    // Leader times out on the accept, switches to backup acceptor n2 via
    // PaxosUtility (majority n0+n2 suffices), re-prepares and re-proposes.
    net.advance_and_settle(timing().io_timeout + TICK, 6);
    assert_eq!(net.node(NodeId(0)).active_acceptor(), Some(NodeId(2)));
    assert!(net.node(NodeId(0)).is_leader());
    assert_eq!(net.replies().len(), 2);
    net.assert_consistent();
    // The slow acceptor returns; its stale learn for instance 1 must agree
    // with what was committed (value pinning via AcceptorChange).
    net.unblock(NodeId(1));
    net.advance_and_settle(TICK, 4);
    net.assert_consistent();
}

#[test]
fn acceptor_switch_pins_uncommitted_values() {
    let mut net = net(3);
    // Leader sends the accept for req 1, but the acceptor goes quiet
    // before anyone learns it.
    net.block(NodeId(1));
    net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
    net.run_to_quiescence();
    assert_eq!(net.replies().len(), 0);
    // Switch: AcceptorChange must carry (0, req1) as uncommitted, so the
    // re-proposal uses the same value for instance 0.
    net.advance_and_settle(timing().io_timeout + TICK, 6);
    assert_eq!(net.replies().len(), 1);
    let commits = net.commits(NodeId(0));
    assert_eq!(commits.get(0).map(|c| c.req_id), Some(1));
    // n1 wakes: its queued accept was for the same pinned value; safe
    // either way because its pn is stale.
    net.unblock(NodeId(1));
    net.advance_and_settle(TICK, 4);
    net.assert_consistent();
}

#[test]
fn slow_leader_is_replaced_on_demand() {
    let mut net = net(3);
    net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
    net.run_to_quiescence();
    net.block(NodeId(0));
    // The client re-targets n2 (n1 is the acceptor; either works).
    net.client_request(NodeId(2), NodeId(9), 2, Op::Noop);
    // n2 forwards to the (slow) leader; after suspect_after it takes over
    // via LeaderChange and gets adopted by the still-alive acceptor n1.
    net.advance_and_settle(timing().suspect_after + TICK, 8);
    assert!(net.node(NodeId(2)).is_leader());
    assert_eq!(net.replies().len(), 2);
    net.assert_consistent();
    // Old leader wakes up; it observes the LeaderChange and stays a
    // follower.
    net.unblock(NodeId(0));
    net.advance_and_settle(TICK, 6);
    assert!(!net.node(NodeId(0)).is_leader());
    assert_eq!(net.commits(NodeId(0)).len(), 2);
    net.assert_consistent();
}

#[test]
fn acceptor_node_does_not_take_over_leadership() {
    let mut net = net(3);
    net.block(NodeId(0));
    // A request lands on the active acceptor n1: it may not lead (§5.4
    // placement) and must wait rather than elect itself.
    net.client_request(NodeId(1), NodeId(9), 1, Op::Noop);
    net.advance_and_settle(timing().suspect_after + TICK, 6);
    assert!(!net.node(NodeId(1)).is_leader());
    // The client's retry to n2 resolves the situation.
    net.client_request(NodeId(2), NodeId(9), 1, Op::Noop);
    net.advance_and_settle(timing().suspect_after + TICK, 8);
    assert!(net.node(NodeId(2)).is_leader());
    assert!(!net.replies().is_empty());
    net.assert_consistent();
}

#[test]
fn leader_and_acceptor_both_slow_blocks_then_recovers() {
    // §5.4: "while both the leader and the active acceptor are not
    // responding, it is the liveness of the system that is affected, but
    // not its safety."
    let mut net = net(4); // N=4: two nodes remain, still a non-majority...
                          // actually 2 of 4 is not a majority, mirroring
                          // the 3-node argument: no progress.
    net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
    net.run_to_quiescence();
    net.block(NodeId(0)); // leader
    net.block(NodeId(1)); // active acceptor
    net.client_request(NodeId(2), NodeId(9), 2, Op::Noop);
    net.client_request(NodeId(3), NodeId(9), 3, Op::Noop);
    net.advance_and_settle(timing().suspect_after + TICK, 10);
    // Takeover CAS may succeed (majority n2+n3+... none: 2 of 4 is not a
    // majority) — nothing can be decided; with the acceptor also down the
    // fast path is blocked too.
    assert_eq!(net.replies().len(), 1);
    net.assert_consistent();
    // One of the two returns: the acceptor. Takeover can now finish.
    net.unblock(NodeId(1));
    net.advance_and_settle(timing().suspect_after + TICK, 12);
    assert!(net.replies().len() >= 3, "got {}", net.replies().len());
    net.assert_consistent();
    net.unblock(NodeId(0));
    net.advance_and_settle(TICK, 6);
    net.assert_consistent();
}

#[test]
fn five_nodes_leader_and_acceptor_down_blocks_until_one_returns() {
    // With N=5, leader+acceptor down leaves a majority (3) alive, but
    // 1Paxos still cannot progress — the trade-off the paper states for
    // higher replication degrees. Safety holds; progress resumes when the
    // acceptor responds.
    let mut net = net(5);
    net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
    net.run_to_quiescence();
    net.block(NodeId(0));
    net.block(NodeId(1));
    net.client_request(NodeId(3), NodeId(9), 2, Op::Noop);
    net.advance_and_settle(timing().suspect_after + TICK, 10);
    // A LeaderChange may be chosen (majority alive), but adoption requires
    // the active acceptor: blocked.
    assert_eq!(net.replies().len(), 1);
    net.assert_consistent();
    net.unblock(NodeId(1));
    net.advance_and_settle(timing().suspect_after + TICK, 12);
    assert!(net.replies().len() >= 2);
    net.assert_consistent();
}

#[test]
fn rebooted_acceptor_is_switched_by_its_leader() {
    let mut net = net(3);
    net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
    net.run_to_quiescence();
    // The active acceptor silently loses its state.
    let cfg = ClusterConfig::new(vec![NodeId(0), NodeId(1), NodeId(2)], NodeId(1));
    net.reset_node(NodeId(1), || OnePaxosNode::new(cfg.clone()));
    assert!(net.node(NodeId(1)).is_fresh_acceptor());
    // The leader's next accept is abandoned with hpn = -∞ < pn: reboot
    // detected, acceptor switched.
    net.client_request(NodeId(0), NodeId(9), 2, Op::Noop);
    net.advance_and_settle(TICK, 10);
    assert_eq!(net.node(NodeId(0)).active_acceptor(), Some(NodeId(2)));
    assert_eq!(net.replies().len(), 2);
    net.assert_consistent();
}

#[test]
fn takeover_leader_cannot_adopt_fresh_acceptor() {
    // The freshness check: a takeover leader sends YouMustBeFresh=false;
    // a fresh acceptor must refuse (silent-reboot guard).
    let mut net = net(3);
    net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
    net.run_to_quiescence();
    // Reboot the acceptor AND block the leader: the takeover node n2
    // cannot distinguish reboot from never-adopted, so it must block.
    let cfg = ClusterConfig::new(vec![NodeId(0), NodeId(1), NodeId(2)], NodeId(1));
    net.reset_node(NodeId(1), || OnePaxosNode::new(cfg.clone()));
    net.block(NodeId(0));
    net.client_request(NodeId(2), NodeId(9), 2, Op::Noop);
    net.advance_and_settle(timing().suspect_after + TICK, 10);
    assert!(!net.node(NodeId(2)).is_leader());
    assert!(net.node(NodeId(1)).freshness_blocks() > 0);
    assert_eq!(net.replies().len(), 1);
    net.assert_consistent();
    // The old leader returns — but the takeover's LeaderChange already
    // deposed it, so it relinquishes and cannot switch the rebooted
    // acceptor either. The freshness guard keeps the group SAFE but
    // unavailable: an acceptor reboot is outside the paper's slow-core
    // (state-preserving) fault model, and the check exists precisely to
    // block rather than risk re-proposing over lost acceptor state.
    net.unblock(NodeId(0));
    net.advance_and_settle(timing().suspect_after + TICK, 12);
    assert!(!net.node(NodeId(0)).is_leader());
    assert_eq!(net.replies().len(), 1, "must stay blocked, not unsafe");
    net.assert_consistent();
}

#[test]
fn reply_routing_via_forwarding_node() {
    let mut net = net(3);
    net.client_request(NodeId(2), NodeId(7), 1, Op::Put { key: 3, value: 33 });
    net.run_to_quiescence();
    let r = net.replies();
    assert_eq!(r.len(), 1);
    assert_eq!(r[0].client, NodeId(7));
    assert_eq!(r[0].from, NodeId(2));
}

#[test]
fn utility_log_grows_only_on_role_changes() {
    let mut net = net(3);
    for req in 1..=10 {
        net.client_request(NodeId(0), NodeId(9), req, Op::Noop);
    }
    net.run_to_quiescence();
    // Failure-free: the seeded two entries remain the whole log.
    assert_eq!(net.node(NodeId(0)).utility_log().len(), 2);
    // One acceptor switch adds exactly one entry.
    net.block(NodeId(1));
    net.client_request(NodeId(0), NodeId(9), 11, Op::Noop);
    net.advance_and_settle(timing().io_timeout + TICK, 8);
    assert_eq!(net.node(NodeId(0)).utility_log().len(), 4); // +AcceptorChange +LeaderChange(re-adopt)
    net.assert_consistent();
}

#[test]
fn consecutive_acceptor_failures() {
    // Unlike Cheap Paxos, recovery of *either* previously slow node keeps
    // the system live (§8): each switch only needs a majority for the
    // PaxosUtility CAS plus the new acceptor.
    let mut net = net(4);
    net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
    net.run_to_quiescence();
    // First acceptor n1 dies → switch to n2.
    net.block(NodeId(1));
    net.client_request(NodeId(0), NodeId(9), 2, Op::Noop);
    net.advance_and_settle(timing().io_timeout + TICK, 8);
    assert_eq!(net.node(NodeId(0)).active_acceptor(), Some(NodeId(2)));
    // n1 recovers; later the second acceptor n2 dies → switch to n3.
    net.unblock(NodeId(1));
    net.advance_and_settle(TICK, 4);
    net.block(NodeId(2));
    net.client_request(NodeId(0), NodeId(9), 3, Op::Noop);
    net.advance_and_settle(timing().io_timeout + TICK, 8);
    assert_eq!(net.node(NodeId(0)).active_acceptor(), Some(NodeId(3)));
    assert_eq!(net.replies().len(), 3);
    net.assert_consistent();
    net.unblock(NodeId(2));
    net.advance_and_settle(TICK, 6);
    net.assert_consistent();
}

#[test]
fn client_retry_is_deduplicated_by_reply_routing() {
    let mut net = net(3);
    // The same request lands on two nodes (client timed out and retried).
    net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
    net.client_request(NodeId(2), NodeId(9), 1, Op::Noop);
    net.run_to_quiescence();
    // Both nodes reply (each owned a copy); the command may commit twice
    // in different instances — the RSM layer deduplicates application.
    assert!(!net.replies().is_empty());
    net.assert_consistent();
    let all: Vec<_> = net.commits(NodeId(0)).values().collect();
    assert!(all.iter().all(|c| c.id() == (NodeId(9), 1)));
}

#[test]
fn relaxed_reads_flag_controls_local_reads() {
    let cfg = ClusterConfig::new(vec![NodeId(0), NodeId(1), NodeId(2)], NodeId(0));
    let strict = OnePaxosNode::new(cfg.clone());
    assert!(!strict.supports_local_reads());
    assert!(!strict.can_read_locally(1));
    let relaxed = OnePaxosNode::new(cfg).with_relaxed_reads();
    assert!(relaxed.supports_local_reads());
    assert!(relaxed.can_read_locally(1));
}

#[test]
fn concurrent_takeovers_resolve_to_one_leader() {
    // Two proposers suspect the leader at the same time; the PaxosUtility
    // CAS serializes the LeaderChange entries and exactly one of them
    // ends up leading.
    let mut net = net(4);
    net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
    net.run_to_quiescence();
    net.block(NodeId(0));
    net.client_request(NodeId(2), NodeId(9), 2, Op::Noop);
    net.client_request(NodeId(3), NodeId(9), 3, Op::Noop);
    net.advance_and_settle(timing().suspect_after + TICK, 12);
    let leaders: Vec<u16> = (1..4u16)
        .filter(|&n| net.node(NodeId(n)).is_leader())
        .collect();
    assert_eq!(leaders.len(), 1, "exactly one leader, got {leaders:?}");
    assert_eq!(net.replies().len(), 3, "all requests committed");
    net.assert_consistent();
    net.unblock(NodeId(0));
    net.advance_and_settle(TICK, 6);
    net.assert_consistent();
}

#[test]
fn leader_switch_then_acceptor_switch_chain() {
    // The full §5 gauntlet: first the leader fails (LeaderChange), then
    // the acceptor fails under the new leader (AcceptorChange).
    let mut net = net(4);
    net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
    net.run_to_quiescence();
    // Leader n0 fails → n2 or n3 takes over with acceptor n1.
    net.block(NodeId(0));
    net.client_request(NodeId(2), NodeId(9), 2, Op::Noop);
    net.advance_and_settle(timing().suspect_after + TICK, 10);
    assert!(net.node(NodeId(2)).is_leader());
    assert_eq!(net.replies().len(), 2);
    // The old leader recovers as a follower (keeping a majority around),
    // then the acceptor n1 fails under leader n2 → switch to n3.
    net.unblock(NodeId(0));
    net.advance_and_settle(TICK, 4);
    net.block(NodeId(1));
    net.client_request(NodeId(2), NodeId(9), 3, Op::Noop);
    net.advance_and_settle(timing().io_timeout + TICK, 12);
    assert_eq!(net.replies().len(), 3, "chain of switches completed");
    assert_eq!(net.node(NodeId(2)).active_acceptor(), Some(NodeId(3)));
    net.assert_consistent();
    net.unblock(NodeId(1));
    net.advance_and_settle(TICK, 8);
    net.assert_consistent();
}

#[test]
fn utility_log_converges_across_all_nodes_after_churn() {
    let mut net = net(3);
    net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
    net.run_to_quiescence();
    net.block(NodeId(0));
    net.client_request(NodeId(2), NodeId(9), 2, Op::Noop);
    net.advance_and_settle(timing().suspect_after + TICK, 8);
    net.unblock(NodeId(0));
    net.advance_and_settle(TICK, 8);
    let logs: Vec<usize> = (0..3)
        .map(|n| net.node(NodeId(n as u16)).utility_log().len())
        .collect();
    assert_eq!(logs[0], logs[1]);
    assert_eq!(logs[1], logs[2]);
    // And the logs agree entry by entry.
    let l0 = net.node(NodeId(0)).utility_log().to_vec();
    for n in 1..3u16 {
        assert_eq!(net.node(NodeId(n)).utility_log(), &l0[..]);
    }
}
