//! The agreement oracle: the Appendix B *consistency* property — no two
//! nodes learn different commands for one instance — checked as each
//! learn happens.
//!
//! Engines keep no history of their own. A harness feeds every
//! [`EngineEffect::Committed`](crate::engine::EngineEffect::Committed) it
//! routes to one [`Agreement`]; [`TestNet`](crate::testnet::TestNet) and
//! the simulator do. The oracle belongs to the harness, not to the
//! engines, so it survives a node's reset: a silently rebooted node (§5,
//! Appendix A) that re-decides an old instance differently is caught
//! even below every truncation floor. It never drains, so its memory
//! grows with the run.

use crate::instance_log::InstanceLog;
use crate::shard::ShardId;
use crate::types::{Command, Instance, NodeId};

/// Per shard group, the first node to learn each instance and the
/// command it learned. Instances of different groups are unrelated logs.
#[derive(Debug)]
pub struct Agreement {
    shards: Vec<InstanceLog<(NodeId, Command)>>,
}

impl Agreement {
    /// An oracle for `shards` consensus groups, numbered `0..shards`.
    pub fn new(shards: u16) -> Self {
        Agreement {
            shards: (0..shards).map(|_| InstanceLog::new()).collect(),
        }
    }

    /// Records that `node` learned `cmd` in `instance` of group `shard`.
    /// A batch's payload is shared, so keeping one costs a reference
    /// count and comparing copies of one decision costs a pointer
    /// compare (see [`Command`]'s equality).
    ///
    /// # Panics
    ///
    /// Panics if an earlier learn of this instance, by any node (`node`
    /// included), learned a different command; the message names the
    /// shard, the instance, both nodes and both commands. Panics if
    /// `shard` is out of range.
    pub fn learn(&mut self, shard: ShardId, node: NodeId, instance: Instance, cmd: &Command) {
        let log = &mut self.shards[shard.index()];
        match log.get(instance) {
            None => {
                log.insert(instance, (node, cmd.clone()));
            }
            Some((first, chosen)) => assert!(
                chosen == cmd,
                "shard {shard} instance {instance}: {first} learned {chosen:?} \
                 but {node} learned {cmd:?}"
            ),
        }
    }

    /// The command first learned in `instance` of group `shard`, if any.
    pub fn chosen(&self, shard: ShardId, instance: Instance) -> Option<&Command> {
        self.shards[shard.index()].get(instance).map(|(_, cmd)| cmd)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::types::Op;

    const S1: ShardId = ShardId(1);

    fn put(value: u64) -> Command {
        Command::new(NodeId(9), value, Op::Put { key: 1, value })
    }

    #[test]
    #[should_panic(expected = "shard s1 instance 4: n0 learned")]
    fn a_cross_node_mismatch_panics() {
        let mut a = Agreement::new(2);
        a.learn(S1, NodeId(0), 4, &put(1));
        a.learn(S1, NodeId(2), 4, &put(2));
    }

    #[test]
    #[should_panic(expected = "shard s1 instance 4: n2 learned")]
    fn a_same_node_relearn_mismatch_panics() {
        let mut a = Agreement::new(2);
        a.learn(S1, NodeId(2), 4, &put(1));
        a.learn(S1, NodeId(2), 4, &put(2));
    }

    #[test]
    fn an_equal_relearn_is_accepted() {
        let mut a = Agreement::new(2);
        a.learn(S1, NodeId(0), 4, &put(1));
        a.learn(S1, NodeId(0), 4, &put(1));
        a.learn(S1, NodeId(1), 4, &put(1));
        // The same instance of another group is another log.
        a.learn(ShardId(0), NodeId(1), 4, &put(2));
        assert_eq!(a.chosen(S1, 4), Some(&put(1)));
        assert_eq!(a.chosen(ShardId(0), 4), Some(&put(2)));
        assert_eq!(a.chosen(S1, 5), None);
    }

    #[test]
    #[should_panic(expected = "but n1 learned")]
    fn batches_agree_by_payload_not_by_allocation() {
        let batch = |values: &[u64]| {
            let payload: Arc<[Command]> = values.iter().map(|&v| put(v)).collect();
            Command::new(NodeId(0).batch_source(), 1, Op::Batch(payload))
        };
        let mut a = Agreement::new(1);
        let b = batch(&[1, 2]);
        a.learn(ShardId(0), NodeId(0), 0, &b);
        a.learn(ShardId(0), NodeId(1), 0, &b.clone());
        a.learn(ShardId(0), NodeId(1), 0, &batch(&[1, 2]));
        a.learn(ShardId(0), NodeId(1), 0, &batch(&[1, 3]));
    }
}
