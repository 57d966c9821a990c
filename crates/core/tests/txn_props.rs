//! Property-based tests for cross-shard transactions (`onepaxos::txn`):
//! under arbitrary interleaved transaction/plain-put schedules — with
//! coordinator crashes injected mid-prepare — every transaction is
//! all-or-nothing, no key ever holds a fragment of an aborted
//! transaction, and the final per-key state on every node equals a
//! serial reference execution in which aborted transactions simply never
//! happened.

use std::collections::BTreeMap;

use onepaxos::shard::ShardRouter;
use onepaxos::testnet::TestNet;
use onepaxos::twopc::TwoPcNode;
use onepaxos::txn::{recover_outcome, Fragment, TxnCoordinator, TxnOutcome, TxnStatus};
use onepaxos::{ClusterConfig, NodeId, Op};
use proptest::prelude::*;

const KEYSPACE: u64 = 24;

/// A finished transaction as the GC proptest remembers it:
/// `(id, writes, committed)`.
type FinishedTxn = (onepaxos::TxnId, Vec<(u64, u64)>, bool);

fn make(m: &[NodeId], me: NodeId) -> TwoPcNode {
    TwoPcNode::new(ClusterConfig::new(m.to_vec(), me))
}

/// One step of a schedule. Values are assigned at execution time from a
/// global counter, so every write carries a unique value — which makes
/// "a fragment of an aborted transaction landed" detectable as a plain
/// state mismatch against the serial reference.
#[derive(Clone, Debug)]
enum Step {
    /// A plain put from an independent client.
    Put { client: u16, key: u64 },
    /// A full transaction over `keys` driven to its outcome.
    Txn { keys: Vec<u64> },
    /// A transaction whose coordinator dies mid-prepare: only the
    /// fragments selected by `mask` are ever submitted, then a recovery
    /// coordinator queries the shards and drives the uniquely-safe
    /// outcome.
    Crashed { keys: Vec<u64>, mask: u8 },
}

fn keys_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..KEYSPACE, 1..5)
}

fn steps(len: usize) -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        3 => (0u16..4, 0u64..KEYSPACE).prop_map(|(client, key)| Step::Put { client, key }),
        3 => keys_strategy().prop_map(|keys| Step::Txn { keys }),
        2 => (keys_strategy(), any::<u8>()).prop_map(|(keys, mask)| Step::Crashed { keys, mask }),
    ];
    prop::collection::vec(step, 1..=len)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]
    #[test]
    fn schedules_are_atomic_and_match_a_serial_reference(
        schedule in steps(10),
        shards in 2u16..5,
    ) {
        let mut net = TestNet::builder(3).shards(shards).build(make);
        let router = ShardRouter::new(shards);
        // Serial reference: plain puts and committed transactions apply,
        // aborted transactions never happened.
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        let mut next_val: u64 = 1;
        let mut alloc = |keys: &[u64]| -> Vec<(u64, u64)> {
            keys.iter()
                .map(|&k| {
                    next_val += 1;
                    (k, next_val)
                })
                .collect()
        };
        // Live transactions share one long-lived session; every crashed
        // transaction gets a throwaway coordinator (its ids die with it)
        // plus a distinct recovery session.
        let mut live = net.session(NodeId(100), NodeId(0));
        let mut put_reqs = [0u64; 4];
        for (i, step) in schedule.iter().enumerate() {
            let target = NodeId((i % 3) as u16);
            match step {
                Step::Put { client, key } => {
                    let writes = alloc(&[*key]);
                    put_reqs[*client as usize] += 1;
                    net.client_request(
                        target,
                        NodeId(50 + client),
                        put_reqs[*client as usize],
                        Op::Put { key: *key, value: writes[0].1 },
                    );
                    net.run_to_quiescence();
                    reference.insert(*key, writes[0].1);
                }
                Step::Txn { keys } => {
                    let writes = alloc(keys);
                    let outcome = net.txn_put(&mut live, &writes);
                    // Serial execution, no coordinator failure: locks are
                    // always free, so the transaction must commit.
                    prop_assert_eq!(outcome, TxnOutcome::Committed);
                    for &(k, v) in &writes {
                        reference.insert(k, v);
                    }
                }
                Step::Crashed { keys, mask } => {
                    let writes = alloc(keys);
                    let mut doomed =
                        TxnCoordinator::new(NodeId(150 + i as u16), router);
                    let frags = doomed.begin(&writes);
                    if frags.len() == 1 {
                        // Single-shard short-circuit: the MultiPut either
                        // decides (coordinator died after submitting) or
                        // never existed. Submit iff the mask lands it.
                        if mask & 1 != 0 {
                            net.submit_fragments(target, doomed.client(), frags);
                            net.run_to_quiescence();
                            for &(k, v) in &writes {
                                reference.insert(k, v);
                            }
                        }
                        continue;
                    }
                    // Multi-shard: land the masked subset of prepares,
                    // then the coordinator is dead.
                    let landed: Vec<Fragment> = frags
                        .into_iter()
                        .enumerate()
                        .filter(|(fi, _)| mask & (1 << (fi % 8)) != 0)
                        .map(|(_, f)| f)
                        .collect();
                    let txn = doomed.current_txn().expect("multi-shard txn");
                    let all_landed =
                        landed.len() == doomed.outstanding_fragments().len();
                    net.submit_fragments(target, doomed.client(), landed);
                    net.run_to_quiescence();
                    // Recovery: query each touched shard's status through
                    // its log (the agreed probe — the only status read
                    // recovery may trust) and drive the uniquely-safe
                    // outcome.
                    let statuses: Vec<TxnStatus> = {
                        let mut shard_keys: BTreeMap<_, u64> = BTreeMap::new();
                        for &(k, _) in &writes {
                            shard_keys.entry(router.route_key(k)).or_insert(k);
                        }
                        shard_keys
                            .values()
                            .map(|&k| net.txn_status_agreed(target, k, txn))
                            .collect()
                    };
                    let outcome = recover_outcome(&statuses);
                    // The matrix: unanimous landed prepares recover to
                    // commit (the dead coordinator could only have decided
                    // commit), anything less aborts.
                    prop_assert_eq!(
                        outcome,
                        if all_landed { TxnOutcome::Committed } else { TxnOutcome::Aborted },
                        "statuses {:?}", statuses
                    );
                    let mut recovery = net.session(NodeId(200 + i as u16), target);
                    let driven = net.recover(&mut recovery, txn, &writes, outcome);
                    prop_assert_eq!(driven, outcome);
                    if outcome == TxnOutcome::Committed {
                        for &(k, v) in &writes {
                            reference.insert(k, v);
                        }
                    }
                }
            }
        }
        net.assert_consistent();
        // All-or-nothing, against the serial reference: committed
        // transactions' writes all landed, aborted ones left no
        // fragment anywhere (every write's value is globally unique, so
        // a stray fragment would shows up as a mismatch).
        for n in 0..3u16 {
            prop_assert_eq!(net.txn_locks(NodeId(n)), 0, "locks leaked at node {}", n);
            for key in 0..KEYSPACE {
                prop_assert_eq!(
                    net.kv_get(NodeId(n), key),
                    reference.get(&key).copied(),
                    "node {} key {} diverged from the serial reference", n, key
                );
            }
        }
    }

    #[test]
    fn conflicting_transaction_aborts_cleanly_and_retries_after_recovery(
        shards in 2u16..5,
        seed_key in 0u64..KEYSPACE,
    ) {
        // A crashed coordinator holds locks on its prepared shards; a
        // live transaction overlapping those keys must abort without
        // leaving any fragment, and succeed once recovery releases the
        // locks — lock conflicts compose with all-or-nothing.
        let mut net = TestNet::builder(3).shards(shards).build(make);
        let router = ShardRouter::new(shards);
        // Two keys on distinct shards, the first derived from seed_key.
        let k0 = seed_key;
        let k1 = (0u64..).find(|&k| router.route_key(k) != router.route_key(k0)).unwrap();
        let mut doomed = TxnCoordinator::new(NodeId(150), router);
        let frags = doomed.begin(&[(k0, 1), (k1, 2)]);
        let txn = doomed.current_txn().expect("multi-shard");
        // Only k0's shard ever sees the prepare; then the coordinator dies.
        let keep: Vec<Fragment> = frags
            .into_iter()
            .filter(|f| f.shard == router.route_key(k0))
            .collect();
        net.submit_fragments(NodeId(0), doomed.client(), keep);
        net.run_to_quiescence();
        prop_assert_eq!(net.txn_status(NodeId(1), k0, txn), TxnStatus::Prepared);
        // A live transaction overlapping the locked key must abort…
        let mut live = net.session(NodeId(100), NodeId(1));
        let outcome = net.txn_put(&mut live, &[(k0, 10), (k1, 20)]);
        prop_assert_eq!(outcome, TxnOutcome::Aborted);
        for n in 0..3u16 {
            prop_assert_eq!(net.kv_get(NodeId(n), k0), None, "fragment leaked");
            prop_assert_eq!(net.kv_get(NodeId(n), k1), None, "fragment leaked");
        }
        // …until recovery aborts the crashed one and releases its locks
        // (statuses read through each shard's log via the agreed probe).
        let statuses = [
            net.txn_status_agreed(NodeId(0), k0, txn),
            net.txn_status_agreed(NodeId(0), k1, txn),
        ];
        prop_assert_eq!(recover_outcome(&statuses), TxnOutcome::Aborted);
        let mut recovery = net.session(NodeId(200), NodeId(0));
        net.recover(&mut recovery, txn, &[(k0, 1), (k1, 2)], TxnOutcome::Aborted);
        let retry = net.txn_put(&mut live, &[(k0, 10), (k1, 20)]);
        prop_assert_eq!(retry, TxnOutcome::Committed);
        for n in 0..3u16 {
            prop_assert_eq!(net.kv_get(NodeId(n), k0), Some(10));
            prop_assert_eq!(net.kv_get(NodeId(n), k1), Some(20));
            prop_assert_eq!(net.txn_locks(NodeId(n)), 0);
        }
        net.assert_consistent();
    }

    // ----------------------------------------------------------------
    // Finished-outcome GC (the bounded `finished` map): under arbitrary
    // schedules of transactions and replayed prepares — including
    // prepares of transactions whose outcome has already been GC'd
    // below the per-coordinator floor — a finished transaction never
    // re-enters its lock window, and the retained outcome map stays
    // bounded by coordinators × FINISHED_WINDOW instead of growing with
    // transaction count.
    // ----------------------------------------------------------------
    #[test]
    fn finished_transactions_never_relock_and_the_outcome_map_stays_bounded(
        schedule in prop::collection::vec(
            (any::<bool>(), any::<bool>(), any::<prop::sample::Index>(), any::<bool>()),
            1..300,
        ),
    ) {
        use onepaxos::kv::{KvStore, FINISHED_WINDOW};
        use onepaxos::rsm::StateMachine;
        use onepaxos::{TxnId, TxnVote};

        let coords = [NodeId(50), NodeId(51)];
        let mut kv = KvStore::new();
        let mut next_seq = [1u64, 1u64];
        // Every transaction this schedule finished: (txn, writes, committed).
        let mut done: Vec<FinishedTxn> = Vec::new();

        for (which, commit, attack, attack_first) in schedule {
            let c = usize::from(which);
            let run_attack = |kv: &mut KvStore, done: &[FinishedTxn]| {
                let Some(&(txn, ref writes, _committed)) = (!done.is_empty())
                    .then(|| &done[attack.index(done.len())])
                else {
                    return Ok(());
                };
                // Replayed prepare of a finished transaction (possibly
                // below the GC floor): must echo an outcome, never park,
                // never stage, never take a lock.
                let vote = kv
                    .apply(Op::TxnPrepare { txn, writes: writes.clone().into() })
                    .and_then(TxnVote::from_output);
                prop_assert!(
                    matches!(vote, Some(TxnVote::Commit) | Some(TxnVote::Abort)),
                    "replayed prepare of finished {txn:?} answered {vote:?}"
                );
                prop_assert!(
                    kv.txn_status(txn) != TxnStatus::Prepared,
                    "finished transaction re-entered its lock window"
                );
                Ok(())
            };

            if attack_first {
                run_attack(&mut kv, &done)?;
            }
            // A fresh transaction: prepare, then immediately finish, so
            // no locks outlive a schedule step (every later lock
            // observation isolates the replay's effect).
            let txn = TxnId::new(coords[c], next_seq[c]);
            next_seq[c] += 1;
            let writes = vec![(txn.seq % 8, txn.seq * 10 + c as u64)];
            let vote = kv
                .apply(Op::TxnPrepare { txn, writes: writes.clone().into() })
                .and_then(TxnVote::from_output);
            prop_assert_eq!(vote, Some(TxnVote::Commit), "uncontended prepare");
            let key = writes[0].0;
            let op = if commit {
                Op::TxnCommit { txn, key }
            } else {
                Op::TxnAbort { txn, key }
            };
            kv.apply(op);
            done.push((txn, writes, commit));
            if !attack_first {
                run_attack(&mut kv, &done)?;
            }

            // Invariants after every step: no lock survives its
            // transaction, and the outcome map is bounded by the
            // per-coordinator retention window.
            prop_assert_eq!(kv.txn_locks(), 0, "a lock leaked");
            prop_assert!(
                kv.finished_len() <= coords.len() * FINISHED_WINDOW as usize,
                "finished map grew to {} for {} coordinators",
                kv.finished_len(),
                coords.len()
            );
        }

        // Replayed prepares only echoed outcomes — they never re-staged
        // or re-applied writes — so each key holds exactly the last
        // committed write in application order.
        let mut expect = std::collections::HashMap::new();
        for (_txn, writes, committed) in &done {
            if *committed {
                expect.insert(writes[0].0, writes[0].1);
            }
        }
        for (k, v) in expect {
            prop_assert_eq!(kv.get(k), Some(v), "key {}", k);
        }
    }
}
