//! The client, sans-IO: one [`ClientSession`] per client identity turns
//! calls (`submit`, `txn_put`, `read_relaxed`, `recover`) and the
//! replies to them into requests to send, completions to report and one
//! deadline. The threaded runtime's blocking `ClientHandle`, every
//! simulated client and every [`TestNet`](crate::testnet::TestNet)
//! client drive this same state machine, so the simulator predicts the
//! client the runtime runs.
//!
//! Like [`ReplicaEngine`](crate::engine::ReplicaEngine) on the replica
//! side, the session does no IO and reads no clock. Every input carries
//! `now`, and every output is a [`ClientEffect`] pushed onto a buffer the
//! harness owns and reuses, so a steady stream of single commands
//! allocates nothing. The harness sends each [`ClientEffect::Send`],
//! reports each [`ClientEffect::Complete`], and calls
//! [`ClientSession::on_deadline`] once [`ClientSession::next_deadline`]
//! passes.
//!
//! One call is in flight at a time: the paper's closed loop, "a client
//! sends a request to Core 0, waits for the commit ACK, and then sends
//! another" (§7.1). Outcome legs of an early-acked transaction may still
//! be draining behind it.
//!
//! # Policy
//!
//! The runtime and the simulator used to write this client twice, and
//! the copies disagreed. Where they did, the session follows the
//! runtime, because the runtime is what the benchmark measures.
//!
//! * **One target per shard group.** Each group has its own preferred
//!   replica. A deadline moves every group that has a request
//!   outstanding to its next replica, once however many requests it
//!   holds, and leaves the other groups alone. From the runtime. The
//!   simulator kept one target per client for every group, so one slow
//!   group leader un-targeted the healthy groups. An unsharded
//!   deployment has one group, so it sees no difference.
//! * **One deadline per session.** When it passes, every outstanding
//!   request is re-sent: a routed one to the next replica of its group
//!   ("once the clients detect the slow leader, they send their
//!   requests to other nodes", §7.6), under the same request id, oldest
//!   id first (the appliers skip an id below one they applied). The
//!   next deadline waits [`RetryPolicy`]'s patience for the number of
//!   deadlines passed so far. From the runtime. The simulator armed one
//!   fixed timer per request and per transaction fragment; it now
//!   installs [`RetryPolicy::fixed`] with its `client_timeout`.
//! * **A budget of `max_attempts` deadlines per call.** An exhausted
//!   budget completes the call with `Err(max_attempts)` and drops it (a
//!   transaction is abandoned undecided, as after a coordinator crash).
//!   Progress — a transaction phase change, or a lock-wait re-probe
//!   sent — refills the budget and restarts the backoff. From the
//!   runtime, whose `txn_put` refilled per phase. The simulator never
//!   gave up.
//! * **Re-probes go out at once.** A `Wait` or `Busy` vote's fresh-id
//!   re-probe is sent in the same call that absorbed the vote, and no
//!   write set is held back: the shard parks a re-probe behind the lock
//!   holder anyway. From the runtime. The simulator held re-probes, and
//!   write sets touching recently-contended keys, back one flush window.
//! * **Relaxed reads retry the same replica.** The read asks for that
//!   replica's copy, so a deadline re-sends it there and moves no
//!   target. From the runtime. The simulator rotated them like commands.
//! * **Outcome legs drain until acknowledged.** The commit/abort legs of
//!   an early-acked transaction stay outstanding in the coordinator and
//!   are re-sent with the rest at every deadline until each shard
//!   acknowledges. From the simulator. The runtime sent them once and
//!   rebuilt its coordinator per call, forgetting them. A leg applied
//!   together with the client's next request to its group is
//!   acknowledged without a value: a valueless reply means only that
//!   the request was superseded (see the engine's
//!   [reply rule](crate::engine#replies)).
//!
//! The session owns the client's one request-id counter (shared with
//! its [`TxnCoordinator`], which lives as long as the session), so a
//! request id and a [`TxnId`] never repeat — the appliers'
//! at-most-once sessions and the shards' finished-transaction records
//! depend on both.
//!
//! # Examples
//!
//! ```
//! use onepaxos::client::{Answer, ClientEffect, ClientSession, Request, RetryPolicy};
//! use onepaxos::{NodeId, Op, ShardRouter};
//!
//! let replicas = vec![NodeId(0), NodeId(1), NodeId(2)];
//! let mut s = ClientSession::new(NodeId(9), replicas, ShardRouter::new(1), RetryPolicy::default(), 1);
//! let mut out = Vec::new();
//! s.submit(Op::Put { key: 1, value: 2 }, 0, &mut out);
//! let ClientEffect::Send { to, req_id, request } = out.pop().unwrap() else { unreachable!() };
//! assert_eq!((to, request), (NodeId(0), Request::Op(Op::Put { key: 1, value: 2 })));
//! // The replica's reply completes the call.
//! s.on_reply(req_id, None, 5_000, &mut out);
//! assert_eq!(out, [ClientEffect::Complete { result: Ok(Answer::Value(None)) }]);
//! assert_eq!(s.next_deadline(), None);
//! ```

use std::time::Duration;

use crate::shard::{splitmix64, ShardId, ShardRouter};
use crate::txn::{Fragment, TxnCoordinator, TxnOutcome, TxnStep};
use crate::types::{Nanos, NodeId, Op, TxnId};

/// The client-side retry schedule: capped exponential backoff with
/// jitter. It serves both harnesses: the runtime's `ClientHandle`
/// installs [`RetryPolicy::default`] (with `max_attempts` raised to
/// `2 × replicas`), and the simulator installs [`RetryPolicy::fixed`]
/// from its `client_timeout` with an unlimited budget.
///
/// After `n` deadlines have passed (zero-based), the session waits
/// `min(base << n, cap)` plus a random jitter of up to
/// `jitter_permille`‰ of that value before re-sending — to the next
/// replica of the shard group for routed commands, to the same replica
/// for relaxed reads. After `max_attempts` unanswered deadlines the call
/// completes with `Err(max_attempts)`.
///
/// The default policy starts at 100 ms (generous because dev machines
/// oversubscribe their cores), doubles to a cap of 800 ms, jitters by up
/// to 25%, and gives up after six attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First attempt's patience.
    pub base: Duration,
    /// Upper bound the doubling saturates at.
    pub cap: Duration,
    /// Jitter magnitude in permille of the capped backoff (0–1000);
    /// the actual jitter is drawn uniformly from `[0, magnitude)`.
    pub jitter_permille: u32,
    /// Attempts before giving up (at least 1 is always made).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_millis(100),
            cap: Duration::from_millis(800),
            jitter_permille: 250,
            max_attempts: 6,
        }
    }
}

impl RetryPolicy {
    /// A flat schedule: every attempt waits exactly `timeout`, no
    /// jitter — what the runtime's `ClientHandle::set_timeout` installs,
    /// what the simulator runs, and the right shape for tests that
    /// assert timing.
    pub fn fixed(timeout: Duration, max_attempts: u32) -> Self {
        RetryPolicy {
            base: timeout,
            cap: timeout,
            jitter_permille: 0,
            max_attempts,
        }
    }

    /// The patience after `attempt` passed deadlines, jittered from
    /// `rng` (one SplitMix64 step per draw).
    fn timeout_for(&self, attempt: u32, rng: &mut u64) -> Nanos {
        let backed = self.base.saturating_mul(1u32 << attempt.min(8));
        let capped = backed.min(self.cap);
        let magnitude = f64::from(self.jitter_permille.min(1000)) / 1000.0;
        let draw = (splitmix64(rng) % 1024) as f64 / 1024.0;
        let patience = capped + capped.mul_f64(magnitude * draw);
        Nanos::try_from(patience.as_nanos()).unwrap_or(Nanos::MAX)
    }

    /// The budget a call gets: `max_attempts`, at least one.
    fn budget(&self) -> u32 {
        self.max_attempts.max(1)
    }
}

/// What a [`ClientEffect::Send`] asks its replica for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// A command for the replica's shard group to order.
    Op(Op),
    /// A §7.5 relaxed read of the replica's own copy of `key`.
    Read {
        /// The key to read.
        key: u64,
    },
}

/// What a call completed with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// A command's or a relaxed read's state-machine output.
    Value(Option<u64>),
    /// A transaction's fate.
    Txn(TxnOutcome),
}

impl Answer {
    /// A command's or a read's output.
    ///
    /// # Panics
    ///
    /// Panics on a transaction's answer.
    pub fn value(self) -> Option<u64> {
        match self {
            Answer::Value(v) => v,
            Answer::Txn(_) => panic!("a transaction answers with its outcome"),
        }
    }

    /// A transaction's outcome.
    ///
    /// # Panics
    ///
    /// Panics on a command's or a read's answer.
    pub fn txn(self) -> TxnOutcome {
        match self {
            Answer::Txn(outcome) => outcome,
            Answer::Value(_) => panic!("a command answers with a value"),
        }
    }
}

/// One output of a [`ClientSession`], for its harness to carry out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientEffect {
    /// Send `request` to replica `to` under this client's `req_id`.
    Send {
        /// The replica to send to.
        to: NodeId,
        /// The request id the reply will carry.
        req_id: u64,
        /// What to ask for.
        request: Request,
    },
    /// The call in flight finished: its answer, or `Err(attempts)` once
    /// the retry budget ran out.
    Complete {
        /// The answer, or the number of attempts made.
        result: Result<Answer, u32>,
    },
}

/// The call in flight.
#[derive(Debug)]
enum Call {
    /// A routed command, kept for re-sending.
    Op { req_id: u64, shard: ShardId, op: Op },
    /// A relaxed read of `replica`'s copy.
    Read {
        req_id: u64,
        replica: NodeId,
        key: u64,
    },
    /// A transaction; the coordinator holds its fragments.
    Txn,
}

/// One client's sans-IO state machine; see the [module docs](self) for
/// its policy.
#[derive(Debug)]
pub struct ClientSession {
    /// The replicas in this client's preference order: every group's
    /// target starts at the first.
    replicas: Vec<NodeId>,
    router: ShardRouter,
    /// Index into `replicas` of each shard group's current target.
    targets: Vec<usize>,
    policy: RetryPolicy,
    /// SplitMix64 state for retry jitter.
    rng: u64,
    /// Owns the request-id counter and the transaction sequence.
    coord: TxnCoordinator,
    call: Option<Call>,
    /// Deadlines passed since the call started or last progressed.
    attempt: u32,
    deadline: Option<Nanos>,
}

impl ClientSession {
    /// A session for client `me` over `replicas` (in preference order:
    /// every group first targets `replicas[0]`), routing by `router`,
    /// retrying on `policy` with jitter seeded from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn new(
        me: NodeId,
        replicas: Vec<NodeId>,
        router: ShardRouter,
        policy: RetryPolicy,
        seed: u64,
    ) -> Self {
        assert!(!replicas.is_empty(), "a client needs at least one replica");
        ClientSession {
            replicas,
            router,
            targets: vec![0; usize::from(router.shards())],
            policy,
            rng: seed,
            coord: TxnCoordinator::new(me, router),
            call: None,
            attempt: 0,
            deadline: None,
        }
    }

    /// This client's node id.
    pub fn id(&self) -> NodeId {
        self.coord.client()
    }

    /// The router this session partitions commands and write sets by.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The retry schedule in force.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Installs a retry schedule; it applies from the next deadline on.
    pub fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// The replica shard group `shard`'s requests currently go to.
    pub fn target(&self, shard: ShardId) -> NodeId {
        self.replicas[self.targets[shard.index()]]
    }

    /// When [`Self::on_deadline`] next has work, or `None` while nothing
    /// is outstanding.
    pub fn next_deadline(&self) -> Option<Nanos> {
        self.deadline
    }

    /// The replica whose reply would complete the call in flight, when
    /// one reply does (a command or a relaxed read; a transaction waits
    /// on several). A harness with one connection per replica can wait
    /// on that one alone.
    pub fn waiting_on(&self) -> Option<NodeId> {
        match *self.call.as_ref()? {
            Call::Op { shard, .. } => Some(self.target(shard)),
            Call::Read { replica, .. } => Some(replica),
            Call::Txn => None,
        }
    }

    /// Whether outcome legs of an early-acked transaction still await
    /// their shards' acknowledgements.
    pub fn draining(&self) -> bool {
        self.coord.draining()
    }

    /// Lock-wait re-probes sent so far (the benches' `retries` column).
    pub fn reprobes(&self) -> u64 {
        self.coord.reprobes()
    }

    /// Starts a command: `op` goes to its shard group's target.
    ///
    /// # Panics
    ///
    /// Panics if a call is already in flight, or on [`Op::Batch`].
    pub fn submit(&mut self, op: Op, now: Nanos, out: &mut Vec<ClientEffect>) {
        self.assert_idle();
        let req_id = self.coord.alloc_req();
        let shard = self.router.route(self.id(), &op);
        self.call = Some(Call::Op { req_id, shard, op });
        self.send_call(out);
        self.arm(now);
    }

    /// Starts a relaxed read (§7.5) of `replica`'s copy of `key`.
    ///
    /// # Panics
    ///
    /// Panics if a call is already in flight.
    pub fn read_relaxed(
        &mut self,
        replica: NodeId,
        key: u64,
        now: Nanos,
        out: &mut Vec<ClientEffect>,
    ) {
        self.assert_idle();
        let req_id = self.coord.alloc_req();
        self.call = Some(Call::Read {
            req_id,
            replica,
            key,
        });
        self.send_call(out);
        self.arm(now);
    }

    /// Starts an atomic write of `writes`, across shard groups if their
    /// keys demand it (see [`crate::txn`]): the prepares, or one
    /// `Op::MultiPut` when one group owns every key, go out in shard-id
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if a call is already in flight or `writes` is empty.
    pub fn txn_put(&mut self, writes: &[(u64, u64)], now: Nanos, out: &mut Vec<ClientEffect>) {
        let frags = self.coord.begin(writes);
        self.start_txn(frags, now, out);
    }

    /// Finishes a dead coordinator's transaction `txn` over `writes`
    /// (its original write set) with `outcome`, as
    /// [`crate::txn::recover_outcome`] derived it from the shards'
    /// agreed statuses: one commit or abort leg per touched shard goes
    /// out, oldest request id first, and the call completes with
    /// `outcome` once every shard acknowledged its leg.
    ///
    /// # Panics
    ///
    /// Panics if a call is already in flight, or if `writes` is empty
    /// or single-shard (see [`TxnCoordinator::begin_recovery`]).
    pub fn recover(
        &mut self,
        txn: TxnId,
        writes: &[(u64, u64)],
        outcome: TxnOutcome,
        now: Nanos,
        out: &mut Vec<ClientEffect>,
    ) {
        let frags = self.coord.begin_recovery(txn, writes, outcome);
        self.start_txn(frags, now, out);
    }

    /// Consumes the reply to `req_id`, carrying the state-machine output
    /// `value`. Replies to unknown ids (stale, duplicate, or for a call
    /// already given up on) change nothing.
    pub fn on_reply(
        &mut self,
        req_id: u64,
        value: Option<u64>,
        now: Nanos,
        out: &mut Vec<ClientEffect>,
    ) {
        let completes = match self.call {
            Some(Call::Op { req_id: r, .. } | Call::Read { req_id: r, .. }) => r == req_id,
            Some(Call::Txn) | None => false,
        };
        if completes {
            self.finish(Ok(Answer::Value(value)), out);
        } else {
            self.txn_reply(req_id, value, now, out);
        }
        if !self.outstanding() {
            self.deadline = None;
        }
    }

    /// Re-sends everything outstanding, in request-id order, once
    /// [`Self::next_deadline`] has passed (nothing happens before):
    /// routed requests to the next replica of their group, relaxed reads
    /// to the same replica. A call
    /// whose budget this exhausts completes with `Err(max_attempts)`.
    pub fn on_deadline(&mut self, now: Nanos, out: &mut Vec<ClientEffect>) {
        if self.deadline.is_none_or(|d| now < d) {
            return;
        }
        self.attempt = self.attempt.saturating_add(1);
        // "Once the clients detect the slow leader, they send their
        // requests to other nodes" (§7.6) — per group, once per group.
        let mut stalled: Vec<ShardId> = self
            .coord
            .outstanding_fragments()
            .iter()
            .map(|f| f.shard)
            .collect();
        if let Some(Call::Op { shard, .. }) = self.call {
            stalled.push(shard);
        }
        stalled.sort_unstable();
        stalled.dedup();
        for shard in stalled {
            let t = &mut self.targets[shard.index()];
            *t = (*t + 1) % self.replicas.len();
        }
        if self.call.is_some() && self.attempt >= self.policy.budget() {
            if matches!(self.call, Some(Call::Txn)) {
                self.coord.abandon();
            }
            self.finish(Err(self.policy.budget()), out);
        }
        // Oldest first: an applier skips an id at or below the client's
        // latest applied one, so a newer request ordered ahead of an
        // outcome leg at the next replica would drop the leg for good.
        // The coordinator lists its fragments by id, and the call in
        // flight holds the newest id, so it goes last.
        for f in self.coord.outstanding_fragments() {
            self.send_fragment(f, out);
        }
        self.send_call(out);
        self.deadline = self
            .outstanding()
            .then(|| now.saturating_add(self.policy.timeout_for(self.attempt, &mut self.rng)));
    }

    /// Feeds a reply to the coordinator: a vote, an outcome-leg
    /// acknowledgement, or a stale id.
    fn txn_reply(
        &mut self,
        req_id: u64,
        value: Option<u64>,
        now: Nanos,
        out: &mut Vec<ClientEffect>,
    ) {
        let step = self.coord.on_reply(req_id, value);
        let reprobes = self.coord.take_deferred();
        let progressed = !reprobes.is_empty() || step != TxnStep::Pending;
        match step {
            TxnStep::Pending => {}
            TxnStep::Submit(frags) => {
                for f in frags {
                    self.send_fragment(f, out);
                }
            }
            // Early ack: the votes in the shard logs force the outcome,
            // so the caller has it now and the legs drain behind it.
            TxnStep::Decided { outcome, submit } => {
                self.finish(Ok(Answer::Txn(outcome)), out);
                for f in submit {
                    self.send_fragment(f, out);
                }
            }
            TxnStep::Done(outcome) => self.finish(Ok(Answer::Txn(outcome)), out),
        }
        for f in reprobes {
            self.send_fragment(f, out);
        }
        if progressed {
            self.arm(now);
        }
    }

    /// Sends a transaction's first fragments, in the order given, and
    /// makes it the call in flight.
    fn start_txn(&mut self, frags: Vec<Fragment>, now: Nanos, out: &mut Vec<ClientEffect>) {
        self.assert_idle();
        for f in frags {
            self.send_fragment(f, out);
        }
        self.call = Some(Call::Txn);
        self.arm(now);
    }

    /// Sends the call in flight's request, when it is a single one: a
    /// command to its group's current target, a read to its replica.
    fn send_call(&self, out: &mut Vec<ClientEffect>) {
        let (to, req_id, request) = match self.call {
            Some(Call::Op {
                req_id,
                shard,
                ref op,
            }) => (self.target(shard), req_id, Request::Op(op.clone())),
            Some(Call::Read {
                req_id,
                replica,
                key,
            }) => (replica, req_id, Request::Read { key }),
            Some(Call::Txn) | None => return,
        };
        out.push(ClientEffect::Send {
            to,
            req_id,
            request,
        });
    }

    fn send_fragment(&self, f: Fragment, out: &mut Vec<ClientEffect>) {
        out.push(ClientEffect::Send {
            to: self.target(f.shard),
            req_id: f.req_id,
            request: Request::Op(f.op),
        });
    }

    fn finish(&mut self, result: Result<Answer, u32>, out: &mut Vec<ClientEffect>) {
        self.call = None;
        out.push(ClientEffect::Complete { result });
    }

    /// Whether anything awaits a reply: the call, or outcome legs.
    fn outstanding(&self) -> bool {
        self.call.is_some() || self.coord.draining()
    }

    /// Refills the budget and restarts the backoff from `now`.
    fn arm(&mut self, now: Nanos) {
        self.attempt = 0;
        self.deadline = self
            .outstanding()
            .then(|| now.saturating_add(self.policy.timeout_for(0, &mut self.rng)));
    }

    fn assert_idle(&self) {
        assert!(self.call.is_none(), "a call is already in flight");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TXN_VOTE_COMMIT;
    use crate::types::TxnVote;
    use std::collections::BTreeSet;

    const R: [NodeId; 3] = [NodeId(0), NodeId(1), NodeId(2)];
    const MS: Nanos = 1_000_000;

    fn session(shards: u16, policy: RetryPolicy) -> ClientSession {
        ClientSession::new(NodeId(9), R.to_vec(), ShardRouter::new(shards), policy, 7)
    }

    fn flat(max_attempts: u32) -> RetryPolicy {
        RetryPolicy::fixed(Duration::from_millis(10), max_attempts)
    }

    /// The lowest key of each of `shards` groups, in shard order.
    fn key_per_shard(shards: u16) -> Vec<u64> {
        let r = ShardRouter::new(shards);
        (0..shards)
            .map(|s| (0..).find(|&k| r.route_key(k) == ShardId(s)).unwrap())
            .collect()
    }

    /// The sends in `out`, as `(to, req_id, request)`.
    fn sends(out: &[ClientEffect]) -> Vec<(NodeId, u64, Request)> {
        out.iter()
            .filter_map(|e| match e {
                ClientEffect::Send {
                    to,
                    req_id,
                    request,
                } => Some((*to, *req_id, request.clone())),
                ClientEffect::Complete { .. } => None,
            })
            .collect()
    }

    fn completions(out: &[ClientEffect]) -> Vec<Result<Answer, u32>> {
        out.iter()
            .filter_map(|e| match e {
                ClientEffect::Complete { result } => Some(*result),
                ClientEffect::Send { .. } => None,
            })
            .collect()
    }

    /// Runs a two-shard transaction to its early ack: both prepares
    /// answered yes. Returns the outcome legs' request ids.
    fn commit_txn(s: &mut ClientSession, writes: &[(u64, u64)], now: Nanos) -> Vec<u64> {
        let mut out = Vec::new();
        s.txn_put(writes, now, &mut out);
        let prepares = sends(&out);
        out.clear();
        for (_, req_id, _) in &prepares {
            s.on_reply(*req_id, Some(TXN_VOTE_COMMIT), now, &mut out);
        }
        assert_eq!(completions(&out), [Ok(Answer::Txn(TxnOutcome::Committed))]);
        sends(&out).into_iter().map(|(_, r, _)| r).collect()
    }

    #[test]
    fn a_deadline_re_targets_only_the_stalled_group() {
        let keys = key_per_shard(2);
        let mut s = session(2, flat(10));
        let mut out = Vec::new();
        s.submit(
            Op::Put {
                key: keys[0],
                value: 1,
            },
            0,
            &mut out,
        );
        let [(to, req_id, _)] = sends(&out)[..] else {
            panic!("one send")
        };
        assert_eq!(to, R[0]);
        out.clear();
        s.on_deadline(s.next_deadline().unwrap(), &mut out);
        assert_eq!(
            sends(&out),
            [(
                R[1],
                req_id,
                Request::Op(Op::Put {
                    key: keys[0],
                    value: 1
                })
            )],
            "same id, next replica of shard 0"
        );
        assert_eq!(s.target(ShardId(0)), R[1]);
        assert_eq!(s.target(ShardId(1)), R[0], "shard 1 was not stalled");
    }

    #[test]
    fn two_stalled_requests_in_one_group_bump_it_once() {
        let keys = key_per_shard(2);
        let mut s = session(2, flat(10));
        // Txn A's outcome acks are lost: its two legs keep draining.
        let legs = commit_txn(&mut s, &[(keys[0], 1), (keys[1], 1)], 0);
        assert_eq!(legs.len(), 2);
        // Txn B's prepares join them: two requests outstanding per group.
        let mut out = Vec::new();
        s.txn_put(&[(keys[0], 2), (keys[1], 2)], MS, &mut out);
        out.clear();
        s.on_deadline(s.next_deadline().unwrap(), &mut out);
        let resent = sends(&out);
        assert_eq!(resent.len(), 4, "two prepares and two legs");
        assert!(
            resent.iter().all(|&(to, _, _)| to == R[1]),
            "each group moved one replica on: {resent:?}"
        );
        assert_ascending_per_group(&resent);
    }

    /// Asserts each shard group's sends in `resent` ascend by request id.
    fn assert_ascending_per_group(resent: &[(NodeId, u64, Request)]) {
        let router = ShardRouter::new(2);
        for shard in [ShardId(0), ShardId(1)] {
            let ids: Vec<u64> = resent
                .iter()
                .filter_map(|(_, req_id, request)| match request {
                    Request::Op(op) if router.route(NodeId(9), op) == shard => Some(*req_id),
                    _ => None,
                })
                .collect();
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "{shard:?} re-sent out of order: {ids:?}"
            );
        }
    }

    #[test]
    fn a_deadline_re_sends_each_group_oldest_request_first() {
        let keys = key_per_shard(2);
        let mut s = session(2, flat(10));
        // Txn A's outcome acks are lost; a command to shard 0 follows.
        let legs = commit_txn(&mut s, &[(keys[0], 1), (keys[1], 1)], 0);
        let mut out = Vec::new();
        s.submit(
            Op::Put {
                key: keys[0],
                value: 2,
            },
            MS,
            &mut out,
        );
        let call = sends(&out)[0].1;
        assert!(legs.iter().all(|&leg| leg < call));
        out.clear();
        s.on_deadline(s.next_deadline().unwrap(), &mut out);
        let resent = sends(&out);
        assert_eq!(resent.len(), 3, "two legs and the command");
        assert_eq!(resent.last().unwrap().1, call, "the newest id goes last");
        assert_ascending_per_group(&resent);
    }

    #[test]
    fn backoff_doubles_to_the_cap_with_bounded_jitter_and_fixed_is_flat() {
        let policy = RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(40),
            jitter_permille: 250,
            max_attempts: 100,
        };
        let mut s = session(1, policy);
        let mut out = Vec::new();
        s.submit(Op::Noop, 0, &mut out);
        let mut now = 0;
        for expect_ms in [10, 20, 40, 40, 40] {
            let patience = s.next_deadline().unwrap() - now;
            let floor = expect_ms * MS;
            assert!(
                (floor..floor + floor / 4).contains(&patience),
                "waited {patience} ns, expected {expect_ms} ms + < 25%"
            );
            now += patience;
            s.on_deadline(now, &mut out);
        }

        let mut s = session(1, flat(100));
        s.submit(Op::Noop, 0, &mut out);
        let mut now = 0;
        for _ in 0..5 {
            assert_eq!(s.next_deadline(), Some(now + 10 * MS));
            now += 10 * MS;
            s.on_deadline(now, &mut out);
        }
    }

    #[test]
    fn an_exhausted_budget_fails_the_call_and_progress_refills_it() {
        let mut s = session(1, flat(2));
        let mut out = Vec::new();
        s.submit(Op::Noop, 0, &mut out);
        s.on_deadline(s.next_deadline().unwrap(), &mut out);
        assert!(completions(&out).is_empty(), "one deadline of two");
        s.on_deadline(s.next_deadline().unwrap(), &mut out);
        assert_eq!(completions(&out), [Err(2)]);
        assert_eq!(s.next_deadline(), None, "the call is dropped");

        // A transaction: one deadline passes, then a lock-wait vote's
        // re-probe is progress and refills the budget.
        let keys = key_per_shard(2);
        let mut s = session(2, flat(2));
        out.clear();
        s.txn_put(&[(keys[0], 1), (keys[1], 1)], 0, &mut out);
        let first = sends(&out)[0].1;
        let now = s.next_deadline().unwrap();
        out.clear();
        s.on_deadline(now, &mut out);
        assert!(completions(&out).is_empty());
        out.clear();
        s.on_reply(first, Some(TxnVote::Wait.as_output()), now + 1, &mut out);
        assert_eq!(sends(&out).len(), 1, "the re-probe goes out at once");
        assert_eq!(
            s.next_deadline(),
            Some(now + 1 + 10 * MS),
            "backoff restarted"
        );
        s.on_deadline(s.next_deadline().unwrap(), &mut out);
        assert!(completions(&out).is_empty(), "the budget was refilled");
        s.on_deadline(s.next_deadline().unwrap(), &mut out);
        assert_eq!(completions(&out), [Err(2)]);
        assert_eq!(s.next_deadline(), None, "the transaction is abandoned");
    }

    #[test]
    fn a_relaxed_read_retries_the_same_replica() {
        let mut s = session(1, flat(10));
        let mut out = Vec::new();
        s.read_relaxed(R[2], 5, 0, &mut out);
        assert_eq!(s.waiting_on(), Some(R[2]));
        for _ in 0..3 {
            out.clear();
            s.on_deadline(s.next_deadline().unwrap(), &mut out);
            let [(to, _, Request::Read { key: 5 })] = sends(&out)[..] else {
                panic!("expected one read, got {out:?}")
            };
            assert_eq!(to, R[2]);
        }
        assert_eq!(s.target(ShardId(0)), R[0], "a read moves no target");
    }

    #[test]
    fn a_dropped_outcome_ack_is_resent_until_the_drain_empties() {
        let keys = key_per_shard(2);
        let mut s = session(2, flat(10));
        let legs = commit_txn(&mut s, &[(keys[0], 1), (keys[1], 1)], 0);
        let mut out = Vec::new();
        // The first leg's ack arrives; the second's is dropped.
        s.on_reply(legs[0], None, MS, &mut out);
        assert!(out.is_empty());
        s.on_deadline(s.next_deadline().expect("a leg still drains"), &mut out);
        let resent = sends(&out);
        assert_eq!(resent.len(), 1);
        assert_eq!(resent[0].1, legs[1], "the dropped leg, same id");
        assert!(matches!(resent[0].2, Request::Op(Op::TxnCommit { .. })));
        s.on_reply(legs[1], None, 20 * MS, &mut out);
        assert_eq!(s.next_deadline(), None, "the drain is empty");
    }

    #[test]
    fn recovery_sends_its_legs_oldest_first_and_completes_on_their_acks() {
        let keys = key_per_shard(2);
        let mut s = session(2, flat(10));
        let txn = TxnId::new(NodeId(150), 1);
        let writes = [(keys[1], 2), (keys[0], 1)];
        let mut out = Vec::new();
        s.recover(txn, &writes, TxnOutcome::Aborted, 0, &mut out);
        let legs = sends(&out);
        let ids: Vec<u64> = legs.iter().map(|&(_, req_id, _)| req_id).collect();
        assert_eq!(ids.len(), 2, "one leg per touched shard");
        assert!(ids[0] < ids[1], "oldest first: {ids:?}");
        for (_, _, request) in &legs {
            assert!(
                matches!(request, Request::Op(Op::TxnAbort { txn: t, .. }) if *t == txn),
                "not an abort leg of {txn}: {request:?}"
            );
        }
        // A deadline re-sends both, still oldest first.
        out.clear();
        s.on_deadline(s.next_deadline().unwrap(), &mut out);
        let resent: Vec<u64> = sends(&out).iter().map(|&(_, r, _)| r).collect();
        assert_eq!(resent, ids);
        // The call completes on the second acknowledgement, not before.
        out.clear();
        s.on_reply(ids[0], None, MS, &mut out);
        assert!(completions(&out).is_empty(), "a leg is unacknowledged");
        s.on_reply(ids[1], None, MS, &mut out);
        assert_eq!(completions(&out), [Ok(Answer::Txn(TxnOutcome::Aborted))]);
        assert_eq!(s.next_deadline(), None);
    }

    #[test]
    fn request_ids_and_txn_ids_never_repeat_on_one_session() {
        let keys = key_per_shard(2);
        let writes = |v| [(keys[0], v), (keys[1], v)];
        let mut s = session(2, flat(1));
        let (mut log, mut out) = (Vec::new(), Vec::new());
        for round in 0..3 {
            let now = round * 100 * MS;
            // A command, answered.
            s.submit(
                Op::Put {
                    key: keys[0],
                    value: round,
                },
                now,
                &mut out,
            );
            s.on_reply(sends(&out)[0].1, None, now, &mut out);
            log.append(&mut out);
            // A transaction that runs out of budget: its id is burned.
            s.txn_put(&writes(round), now + MS, &mut out);
            s.on_deadline(s.next_deadline().unwrap(), &mut out);
            assert_eq!(completions(&out), [Err(1)]);
            log.append(&mut out);
            // A committed transaction, whose outcome acks never arrive.
            s.txn_put(&writes(round + 10), now + 2 * MS, &mut out);
            for (_, req_id, _) in sends(&out) {
                s.on_reply(req_id, Some(TXN_VOTE_COMMIT), now + 2 * MS, &mut out);
            }
            log.append(&mut out);
            // A relaxed read, answered.
            s.read_relaxed(R[1], keys[1], now + 3 * MS, &mut out);
            s.on_reply(sends(&out)[0].1, None, now + 3 * MS, &mut out);
            log.append(&mut out);
        }
        // A re-send repeats its request under its id; nothing else may.
        let mut by_id = std::collections::BTreeMap::new();
        let mut txns = BTreeSet::new();
        for (_, req_id, request) in sends(&log) {
            if let Request::Op(Op::TxnPrepare { txn, .. }) = &request {
                txns.insert(*txn);
            }
            let first = by_id.entry(req_id).or_insert_with(|| request.clone());
            assert_eq!(*first, request, "request id {req_id} reused");
        }
        assert_eq!(txns.len(), 6, "every transaction got its own TxnId");
    }
}
