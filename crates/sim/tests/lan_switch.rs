//! 1Paxos on the LAN profile at saturating load, with the default
//! timers: the utility's acceptor-switch CAS must finish even though a
//! LAN round trip is longer than its base restart threshold, so the run
//! commits instead of duelling for ever.

use manycore_sim::{Profile, SimBuilder, Workload};
use onepaxos::onepaxos::OnePaxosNode;
use onepaxos::ClusterConfig;

#[test]
fn onepaxos_commits_on_the_lan_at_80_clients() {
    let r = SimBuilder::new(Profile::lan(83), |m, me| {
        OnePaxosNode::new(ClusterConfig::new(m.to_vec(), me))
    })
    .replicas(3)
    .clients(80)
    .workload(Workload::Noop)
    .client_timeout(100_000_000)
    .duration(1_000_000_000)
    .warmup(125_000_000)
    .seed(1)
    .run();
    assert!(
        r.throughput > 0.0,
        "no commit in the measured window ({} completed)",
        r.completed
    );
}
