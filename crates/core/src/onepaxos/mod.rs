//! **1Paxos** — the paper's contribution (§4, §5, Appendix A): a
//! non-blocking consensus protocol for many-cores built around a *single
//! active acceptor*.
//!
//! "A key insight underlying 1Paxos is the observation that the role of
//! acceptor in Paxos-based protocols [...] can be played by a single node.
//! [...] An alternative approach is to rely on backup acceptors, and
//! replace the failed (or suspected to be failed) acceptor with a new
//! fresh one. The backup acceptors do not participate in the normal
//! execution of the protocol and do not, hence, increase the message
//! complexity of the protocol" (§4.3).
//!
//! The fast path per command is: client → leader (`Forward`/direct),
//! leader → acceptor (`accept request`), acceptor → all learners
//! (`learn`) — 3 inter-replica messages on three nodes versus
//! Multi-Paxos's 8, "reducing the number of produced messages by a factor
//! of two" once client traffic is counted (Fig 3).
//!
//! Role changes go through the embedded PaxosUtility: the
//! leader replaces a failed acceptor with `AcceptorChange` (carrying its
//! uncommitted proposals, §5.2), any proposer takes over a failed leader
//! with `LeaderChange` (§5.3), and the leader/acceptor placement on
//! distinct nodes makes the double-failure case exactly as rare as losing
//! a majority with three nodes (§5.4).
//!
//! # Fault model
//!
//! Faults are *slow cores*: state survives and nodes eventually respond
//! (§1 footnote 3). The `IamFresh`/`YouMustBeFresh` handshake additionally
//! detects an acceptor that lost its state (a "silent reboot"); such an
//! acceptor is switched out by its last adopted leader (Appendix A
//! discussion). If the leader and the active acceptor are unresponsive
//! *simultaneously*, 1Paxos blocks — by design — until one of them
//! responds again (§5.4); safety is never affected.
//!
//! # State
//!
//! Every per-instance table — the learner's `learned`, the proposer's
//! `inflight`, the acceptor's `ap` — is an
//! [`InstanceLog`](crate::instance_log): instances are dense and retired
//! from the bottom, so each is indexed rather than searched. The
//! proposer's `proposed[]` (Fig 13's `registerProposals`/`getAny`) is
//! the crate's `Advocate`'s pin table, which also owns its rules: a
//! pinned proposal is advocated again when another command wins its
//! slot, when the node relinquishes leadership, and when the truncation
//! floor passes it.

mod msg;
mod utility;

pub use msg::{AbandonRe, Msg, UtilityEntry, UtilityMsg};
pub use utility::UtilityEvent;

use crate::advocate::Advocate;
use crate::config::ClusterConfig;
use crate::instance_log::InstanceLog;
use crate::outbox::{Outbox, Timer};
use crate::protocol::Protocol;
use crate::types::{Ballot, Command, Instance, Nanos, NodeId, Op};

use utility::PaxosUtility;

/// Timing knobs for 1Paxos.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// Maintenance tick period.
    pub tick: Nanos,
    /// Outstanding prepare/accept age after which the active acceptor is
    /// suspected.
    pub io_timeout: Nanos,
    /// Forwarded-command age after which the leader is suspected and a
    /// takeover is attempted ("after receiving the clients' request, the
    /// non-leader node tries to become leader", §7.6).
    pub suspect_after: Nanos,
}

impl Default for Timing {
    /// 100 µs tick, 1 ms IO timeout, 2 ms leader suspicion.
    fn default() -> Self {
        Timing {
            tick: 100_000,
            io_timeout: 1_000_000,
            suspect_after: 2_000_000,
        }
    }
}

/// Continuation state for the at-most-one in-flight PaxosUtility
/// operation.
#[derive(Clone, Debug, PartialEq, Eq)]
enum PendingOp {
    None,
    /// `propose()` (takeover): majority inquiry before the LeaderChange.
    TakeoverQuery {
        qid: u64,
    },
    /// `propose()` (takeover): LeaderChange CAS in flight.
    TakeoverCas {
        uinst: Instance,
    },
    /// `AcceptorFailure`: majority inquiry verifying we are still the
    /// Global leader (Fig 4 Step 1).
    SwitchQuery {
        qid: u64,
    },
    /// `AcceptorFailure`: AcceptorChange CAS in flight (Fig 4 Step 2).
    SwitchCas {
        uinst: Instance,
        new_acceptor: NodeId,
    },
}

/// A 1Paxos node: proposer + (backup or active) acceptor + learner, plus
/// the embedded PaxosUtility participant.
///
/// # Examples
///
/// ```
/// use onepaxos::onepaxos::OnePaxosNode;
/// use onepaxos::testnet::TestNet;
/// use onepaxos::{ClusterConfig, NodeId, Op};
///
/// let mut net = TestNet::new(3, |m, me| {
///     OnePaxosNode::new(ClusterConfig::new(m.to_vec(), me))
/// });
/// net.run_to_quiescence(); // initial leader adoption
/// net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
/// net.run_to_quiescence();
/// assert_eq!(net.replies().len(), 1);
/// net.assert_consistent();
/// ```
#[derive(Debug)]
pub struct OnePaxosNode {
    cfg: ClusterConfig,
    timing: Timing,
    // --- proposer state (Appendix A, Fig 12) ---
    /// `IamLeader`: adopted by the active acceptor.
    i_am_leader: bool,
    /// `pn`: our current proposal number.
    pn: Ballot,
    /// Highest round observed anywhere, for `new_pn()`.
    max_round: u32,
    /// `Aa`: the active acceptor per our view of the utility log.
    active_acceptor: Option<NodeId>,
    next_instance: Instance,
    /// Owed answers, decided ids, the commands waiting for us to become
    /// (or be confirmed) leader or forwarded to the leader (leader
    /// suspicion is demand-driven, §7.6), and `proposed[]`: the values
    /// pinned across role switches (`getAny`, `registerProposals`),
    /// dropped once learned.
    adv: Advocate,
    /// Outstanding accept requests (instance → send time).
    inflight: InstanceLog<Nanos>,
    /// Outstanding prepare request (pn, send time).
    prepare_state: Option<(Ballot, Nanos)>,
    pending_op: PendingOp,
    /// Set while we installed a fresh backup acceptor that has not adopted
    /// us yet: our prepares to it carry `YouMustBeFresh = true`.
    expect_fresh_for: Option<NodeId>,
    // --- acceptor state ---
    /// `hpn`: highest promised proposal number (`Ballot::ZERO` = -∞).
    hpn: Ballot,
    /// `IamFresh`: no leader has adopted this acceptor yet.
    i_am_fresh: bool,
    /// `ap`: accepted proposals.
    ap: InstanceLog<(Ballot, Command)>,
    // --- learner state ---
    learned: InstanceLog<Command>,
    watermark: Instance,
    // --- embedded PaxosUtility ---
    utility: PaxosUtility,
    noop_seq: u64,
    /// Count of prepares refused by freshness mismatch (blocked-by-design
    /// corner, for observability).
    freshness_blocks: u64,
    /// Serve reads from the local learner state without ordering them
    /// through consensus ("for more relaxed read consistency guarantees,
    /// local reads may be performed even with non-blocking protocols",
    /// §1). Off by default: reads are linearized.
    relaxed_reads: bool,
}

impl OnePaxosNode {
    /// Creates a node with [`Timing::default`].
    ///
    /// # Panics
    ///
    /// Panics if the cluster has fewer than 2 members (1Paxos places the
    /// leader and active acceptor on distinct nodes, §5.4).
    pub fn new(cfg: ClusterConfig) -> Self {
        Self::with_timing(cfg, Timing::default())
    }

    /// Creates a node with explicit timing knobs.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has fewer than 2 members.
    pub fn with_timing(cfg: ClusterConfig, timing: Timing) -> Self {
        assert!(cfg.len() >= 2, "1Paxos needs at least 2 nodes");
        let leader = cfg.initial_leader();
        let acceptor = cfg.initial_acceptor();
        // Appendix B initialization: the utility log starts with the
        // initial leader's LeaderChange and AcceptorChange, known to all.
        let seed = vec![
            UtilityEntry::LeaderChange { leader, acceptor },
            UtilityEntry::AcceptorChange {
                by: leader,
                acceptor,
                uncommitted: Vec::new(),
            },
        ];
        let utility = PaxosUtility::with_seed(cfg.clone(), seed);
        let me = cfg.me();
        OnePaxosNode {
            timing,
            i_am_leader: false,
            pn: Ballot::ZERO,
            max_round: 0,
            active_acceptor: Some(acceptor),
            next_instance: 0,
            adv: Advocate::default(),
            inflight: InstanceLog::new(),
            prepare_state: None,
            pending_op: PendingOp::None,
            expect_fresh_for: (me == leader).then_some(acceptor),
            hpn: Ballot::ZERO,
            i_am_fresh: true,
            ap: InstanceLog::new(),
            learned: InstanceLog::new(),
            watermark: 0,
            utility,
            noop_seq: 0,
            freshness_blocks: 0,
            relaxed_reads: false,
            cfg,
        }
    }

    /// Enables relaxed-consistency local reads: `Get`s are answered from
    /// the local replica without a consensus round (§1's remark). Writes
    /// remain linearized; reads may observe a stale-but-committed prefix.
    pub fn with_relaxed_reads(mut self) -> Self {
        self.relaxed_reads = true;
        self
    }

    // ------------------------------------------------------------------
    // Introspection (used by harnesses, benches and tests)
    // ------------------------------------------------------------------

    /// The active acceptor per this node's view.
    pub fn active_acceptor(&self) -> Option<NodeId> {
        self.active_acceptor
    }

    /// Whether this node's *acceptor role* has never been adopted.
    pub fn is_fresh_acceptor(&self) -> bool {
        self.i_am_fresh
    }

    /// Contiguous learned prefix (all instances below are decided).
    pub fn watermark(&self) -> Instance {
        self.watermark
    }

    /// The local view of the PaxosUtility log.
    pub fn utility_log(&self) -> &[UtilityEntry] {
        self.utility.log()
    }

    /// Number of prepares this node's acceptor refused due to a freshness
    /// mismatch.
    pub fn freshness_blocks(&self) -> u64 {
        self.freshness_blocks
    }

    fn me(&self) -> NodeId {
        self.cfg.me()
    }

    // ------------------------------------------------------------------
    // Proposer side
    // ------------------------------------------------------------------

    /// `new_pn()`: a proposal number above everything we have seen.
    fn new_pn(&mut self) -> Ballot {
        self.max_round += 1;
        Ballot::new(self.max_round, self.me())
    }

    fn observe_round(&mut self, b: Ballot) {
        self.max_round = self.max_round.max(b.round);
    }

    /// Sends a `prepare request` to the active acceptor.
    fn send_prepare(&mut self, now: Nanos, out: &mut Outbox<Msg>) {
        let Some(acceptor) = self.active_acceptor else {
            return;
        };
        let pn = self.new_pn();
        self.pn = pn;
        let expect_fresh = self.expect_fresh_for == Some(acceptor);
        self.prepare_state = Some((pn, now));
        out.send(acceptor, Msg::PrepareReq { pn, expect_fresh });
    }

    /// Leader fast path: assign the next instance and send the accept.
    fn propose_cmd(&mut self, cmd: Command, now: Nanos, out: &mut Outbox<Msg>) {
        debug_assert!(self.i_am_leader);
        let inst = self.next_instance;
        self.next_instance += 1;
        self.adv.pin(inst, cmd.clone());
        self.inflight.insert(inst, now);
        let pn = self.pn;
        let acceptor = self.active_acceptor.expect("leader has an acceptor");
        out.send(acceptor, Msg::AcceptReq { inst, pn, cmd });
    }

    fn drain_queue(&mut self, now: Nanos, out: &mut Outbox<Msg>) {
        while let Some(cmd) = self.adv.next_undecided() {
            self.propose_cmd(cmd, now, out);
        }
    }

    /// `proc propose()`, non-leader path: inquire a majority, announce
    /// `LeaderChange`, then prepare at the active acceptor (Fig 5).
    fn try_takeover(&mut self, now: Nanos, out: &mut Outbox<Msg>) {
        if self.i_am_leader {
            self.drain_queue(now, out);
            return;
        }
        if self.pending_op != PendingOp::None || self.utility.busy() || self.prepare_state.is_some()
        {
            return; // one step at a time; the tick retries
        }
        // A node may not lead while being the active acceptor (§5.4
        // placement); some other node will take over instead.
        if self.utility.global_acceptor() == Some(self.me()) {
            return;
        }
        let qid = self.utility.start_query(out);
        self.pending_op = PendingOp::TakeoverQuery { qid };
    }

    /// `Upon AcceptorFailure` (Fig 12 lines 1–13).
    fn acceptor_failure(&mut self, now: Nanos, out: &mut Outbox<Msg>) {
        let _ = now;
        if self.pending_op != PendingOp::None || self.utility.busy() {
            return;
        }
        let qid = self.utility.start_query(out);
        self.pending_op = PendingOp::SwitchQuery { qid };
    }

    /// Lines 4–6: "somebody thought I am dead" — relinquish leadership.
    fn relinquish(&mut self) {
        self.i_am_leader = false;
        self.prepare_state = None;
        self.inflight.clear();
        // Re-advocate unlearned proposals: the next leader registers the
        // acceptor's `ap`, but values whose accepts never arrived anywhere
        // would otherwise be lost. The RSM layer deduplicates; the pins
        // stay for a later adoption.
        self.adv.requeue_pins();
    }

    /// `registerProposals(proposals)` (Fig 13): pin values so `getAny`
    /// re-proposes them for their instances.
    fn register_proposals<'a>(
        &mut self,
        proposals: impl IntoIterator<Item = &'a (Instance, Command)>,
    ) {
        for (inst, cmd) in proposals {
            if !self.learned.contains_key(*inst) {
                self.adv.pin(*inst, cmd.clone());
            }
        }
    }

    /// After adoption: re-send accepts for every pinned-but-unlearned
    /// instance, filling holes with no-ops, and bring `next_instance`
    /// beyond everything known.
    fn repropose_unlearned(&mut self, now: Nanos, out: &mut Outbox<Msg>) {
        let max_known = [
            self.adv.pins().last_key().map(|i| i + 1),
            self.learned.last_key().map(|i| i + 1),
        ]
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(0)
        .max(self.watermark)
        .max(self.next_instance);
        for inst in self.watermark..max_known {
            if self.learned.contains_key(inst) {
                continue;
            }
            let cmd = match self.adv.pins().get(inst) {
                Some(c) => c.clone(),
                None => {
                    // Hole: propose a no-op so the log stays contiguous.
                    self.noop_seq += 1;
                    let c = Command::noop(self.me(), self.noop_seq);
                    self.adv.pin(inst, c.clone());
                    c
                }
            };
            self.inflight.insert(inst, now);
            let pn = self.pn;
            let acceptor = self.active_acceptor.expect("leader has an acceptor");
            out.send(acceptor, Msg::AcceptReq { inst, pn, cmd });
        }
        self.next_instance = max_known;
    }

    // ------------------------------------------------------------------
    // Learner side
    // ------------------------------------------------------------------

    fn note_learned(&mut self, inst: Instance, cmd: Command, out: &mut Outbox<Msg>) {
        // One lookup: a repeated learn re-inserts an equal command.
        if let Some(prior) = self.learned.insert(inst, cmd.clone()) {
            assert_eq!(
                prior, cmd,
                "1Paxos consistency violation: two values learned for instance {inst}"
            );
            return;
        }
        self.adv.decide(inst, cmd, out);
        self.inflight.remove(inst);
        while self.learned.contains_key(self.watermark) {
            self.watermark += 1;
        }
    }

    // ------------------------------------------------------------------
    // Acceptor side
    // ------------------------------------------------------------------

    fn acceptor_broadcast_learn(
        &mut self,
        inst: Instance,
        pn: Ballot,
        cmd: Command,
        out: &mut Outbox<Msg>,
    ) {
        for peer in self.cfg.others() {
            out.send(
                peer,
                Msg::Learn {
                    inst,
                    pn,
                    cmd: cmd.clone(),
                },
            );
        }
        // The acceptor is also a learner; learn locally without a message.
        self.note_learned(inst, cmd, out);
    }

    // ------------------------------------------------------------------
    // PaxosUtility event plumbing
    // ------------------------------------------------------------------

    fn on_utility_events(&mut self, events: Vec<UtilityEvent>, now: Nanos, out: &mut Outbox<Msg>) {
        for ev in events {
            match ev {
                UtilityEvent::Chosen { entry, .. } => self.on_chosen_entry(entry, now, out),
                UtilityEvent::CasFinished { uinst, success } => {
                    self.on_cas_finished(uinst, success, now, out)
                }
                UtilityEvent::QueryDone { qid } => self.on_query_done(qid, now, out),
            }
        }
    }

    fn on_chosen_entry(&mut self, entry: UtilityEntry, now: Nanos, out: &mut Outbox<Msg>) {
        match entry {
            UtilityEntry::LeaderChange { leader, acceptor } => {
                self.active_acceptor = Some(acceptor);
                if leader != self.me() {
                    if self.i_am_leader || self.prepare_state.is_some() {
                        self.relinquish();
                    }
                    // Someone else's acceptor is by definition adopted or
                    // about to be by them; our freshness claim is void.
                    if self.expect_fresh_for == Some(acceptor) {
                        self.expect_fresh_for = None;
                    }
                    // Re-forward queued commands to the new leader.
                    self.adv.forward_queue(leader, now, out, forward);
                }
            }
            UtilityEntry::AcceptorChange {
                by,
                acceptor,
                uncommitted,
            } => {
                // "It guarantees that the next leader will try to propose
                // the same value for instance in" (§5.2).
                self.register_proposals(uncommitted.iter());
                self.active_acceptor = Some(acceptor);
                if by != self.me() {
                    // Only the Global leader inserts AcceptorChange
                    // (Lemma 1): if that is not us, we are not the leader.
                    if self.i_am_leader || self.prepare_state.is_some() {
                        self.relinquish();
                    }
                }
            }
        }
    }

    fn on_cas_finished(
        &mut self,
        uinst: Instance,
        success: bool,
        now: Nanos,
        out: &mut Outbox<Msg>,
    ) {
        match self.pending_op.clone() {
            PendingOp::TakeoverCas { uinst: u } if u == uinst => {
                self.pending_op = PendingOp::None;
                if success {
                    // We are the Global leader; reclaim forwarded commands
                    // and get adopted by the active acceptor (Fig 5 Step 3).
                    self.adv.reclaim();
                    self.send_prepare(now, out);
                } else {
                    // Someone else won the slot; Chosen handling already
                    // updated our view. The tick will retry if needed.
                }
            }
            PendingOp::SwitchCas {
                uinst: u,
                new_acceptor,
            } if u == uinst => {
                self.pending_op = PendingOp::None;
                if success {
                    // Lines 12–13: adopt the new acceptor, drop
                    // leadership; `propose()` restarts from phase 1.
                    self.active_acceptor = Some(new_acceptor);
                    self.i_am_leader = false;
                    self.inflight.clear();
                    self.expect_fresh_for = Some(new_acceptor);
                    self.try_takeover(now, out);
                }
            }
            _ => {}
        }
    }

    fn on_query_done(&mut self, qid: u64, _now: Nanos, out: &mut Outbox<Msg>) {
        match self.pending_op.clone() {
            PendingOp::TakeoverQuery { qid: q } if q == qid => {
                self.pending_op = PendingOp::None;
                // `lastActiveAcceptor()` — our log now reflects a majority.
                self.active_acceptor = self.utility.global_acceptor();
                if self.i_am_leader {
                    return;
                }
                if self.utility.global_acceptor() == Some(self.me()) {
                    return; // cannot lead while being the acceptor
                }
                let Some(acceptor) = self.active_acceptor else {
                    return;
                };
                let entry = UtilityEntry::LeaderChange {
                    leader: self.me(),
                    acceptor,
                };
                let uinst = self.utility.start_cas(entry, out);
                self.pending_op = PendingOp::TakeoverCas { uinst };
            }
            PendingOp::SwitchQuery { qid: q } if q == qid => {
                self.pending_op = PendingOp::None;
                // Fig 12 lines 3–6: verify we are still the Global leader.
                if self.utility.global_leader() != Some(self.me()) {
                    self.relinquish();
                    self.active_acceptor = self.utility.global_acceptor();
                    return;
                }
                let current = self
                    .utility
                    .global_acceptor()
                    .expect("seeded log always names an acceptor");
                // `selectAcceptor()`: a node that is neither us nor the
                // failed acceptor.
                let Some(new_acceptor) = self.cfg.select_acceptor(self.me(), current, &[current])
                else {
                    return; // no candidate (e.g. 2-node cluster): wait
                };
                let uncommitted = self
                    .adv
                    .pins()
                    .iter()
                    .map(|(i, c)| (i, c.clone()))
                    .collect();
                let entry = UtilityEntry::AcceptorChange {
                    by: self.me(),
                    acceptor: new_acceptor,
                    uncommitted,
                };
                let uinst = self.utility.start_cas(entry, out);
                self.pending_op = PendingOp::SwitchCas {
                    uinst,
                    new_acceptor,
                };
            }
            _ => {}
        }
    }
}

/// Wraps a command into the forward to the leader.
fn forward(cmd: Command) -> Msg {
    Msg::Forward { cmd }
}

impl Protocol for OnePaxosNode {
    type Msg = Msg;

    fn node_id(&self) -> NodeId {
        self.cfg.me()
    }

    fn on_start(&mut self, now: Nanos, out: &mut Outbox<Msg>) {
        out.set_timer(Timer::Tick, self.timing.tick);
        if self.cfg.initial_leader() == self.me() {
            // Get adopted by the (fresh) initial acceptor.
            self.send_prepare(now, out);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, now: Nanos, out: &mut Outbox<Msg>) {
        match msg {
            Msg::Forward { cmd } => {
                if self.adv.is_decided(cmd.id()) {
                    return;
                }
                if self.i_am_leader {
                    self.propose_cmd(cmd, now, out);
                } else {
                    // Misdirected: queue it; the tick re-routes it to the
                    // current leader or takes over if commands stall
                    // (never re-forward inline — avoids loops).
                    self.adv.enqueue(cmd);
                }
            }
            Msg::PrepareReq { pn, expect_fresh } => {
                self.observe_round(pn);
                if pn > self.hpn {
                    if self.i_am_fresh != expect_fresh {
                        // Appendix A: "This check avoids the cases where
                        // the active acceptor silently reboots before the
                        // leader switch."
                        self.freshness_blocks += 1;
                        out.send(
                            from,
                            Msg::Abandon {
                                hpn: self.hpn,
                                fresh: self.i_am_fresh,
                                re: AbandonRe::Prepare,
                            },
                        );
                        return;
                    }
                    self.i_am_fresh = false;
                    self.hpn = pn;
                    let accepted: Vec<(Instance, Ballot, Command)> = self
                        .ap
                        .iter()
                        .map(|(i, (b, c))| (i, *b, c.clone()))
                        .collect();
                    out.send(from, Msg::PrepareResp { pn, accepted });
                } else {
                    out.send(
                        from,
                        Msg::Abandon {
                            hpn: self.hpn,
                            fresh: self.i_am_fresh,
                            re: AbandonRe::Prepare,
                        },
                    );
                }
            }
            Msg::PrepareResp { pn, accepted } => {
                // Fig 12 line 38: `if (IamLeader || Ai != Aa) return;`
                if self.i_am_leader || Some(from) != self.active_acceptor {
                    return;
                }
                if self.prepare_state.map(|(p, _)| p) != Some(pn) {
                    return; // stale response to an older prepare
                }
                self.prepare_state = None;
                self.expect_fresh_for = None;
                self.i_am_leader = true;
                self.pn = pn;
                // Line 40: registerProposals(ap).
                let pinned: Vec<(Instance, Command)> =
                    accepted.iter().map(|(i, _, c)| (*i, c.clone())).collect();
                self.register_proposals(pinned.iter());
                self.repropose_unlearned(now, out);
                self.drain_queue(now, out);
            }
            Msg::AcceptReq { inst, pn, cmd } => {
                self.observe_round(pn);
                if pn != self.hpn {
                    out.send(
                        from,
                        Msg::Abandon {
                            hpn: self.hpn,
                            fresh: self.i_am_fresh,
                            re: AbandonRe::Accept,
                        },
                    );
                } else if let Some((apn, acmd)) = self.ap.get(inst).cloned() {
                    // Already accepted: re-broadcast the learn "to cover
                    // the cases that the lost learn message has motivated
                    // the proposer to retry" (Appendix A).
                    self.acceptor_broadcast_learn(inst, apn, acmd, out);
                } else {
                    self.ap.insert(inst, (pn, cmd.clone()));
                    self.acceptor_broadcast_learn(inst, pn, cmd, out);
                }
            }
            Msg::Abandon { hpn, fresh, re } => {
                self.observe_round(hpn);
                if Some(from) != self.active_acceptor {
                    return;
                }
                match re {
                    AbandonRe::Accept => {
                        if hpn > self.pn {
                            // Another proposer took the acceptor from us.
                            self.relinquish();
                        } else if hpn < self.pn {
                            // The acceptor lost its promise: it silently
                            // rebooted. "The last leader should switch the
                            // rebooted acceptor" — that is us.
                            self.i_am_leader = false;
                            self.acceptor_failure(now, out);
                        }
                    }
                    AbandonRe::Prepare => {
                        if hpn.node == self.me() && !fresh && !self.i_am_leader {
                            // Our own earlier prepare adopted the acceptor
                            // but the response is lost/slow: retry with a
                            // fresh pn (no freshness expectation).
                            self.expect_fresh_for = None;
                            self.send_prepare(now, out);
                        } else if hpn > self.pn {
                            // A higher proposer got there first.
                            self.prepare_state = None;
                            self.i_am_leader = false;
                        }
                        // Freshness mismatch (fresh=true while we sent
                        // false): blocked by design until the acceptor's
                        // last leader handles it; the tick keeps retrying.
                    }
                }
            }
            Msg::Learn { inst, pn, cmd } => {
                self.observe_round(pn);
                self.note_learned(inst, cmd, out);
            }
            Msg::Utility(um) => {
                let events = self.utility.handle(from, um, out);
                self.on_utility_events(events, now, out);
            }
        }
    }

    fn on_timer(&mut self, timer: Timer, now: Nanos, out: &mut Outbox<Msg>) {
        if timer != Timer::Tick {
            return;
        }
        out.set_timer(Timer::Tick, self.timing.tick);
        // Retry a stalled utility CAS (duelling avoidance). With ≥2 nodes
        // a retry cannot decide anything by itself, so no events surface
        // here; decisions arrive via Learn messages.
        self.utility.tick(out);

        // Leader: re-advocate commands re-queued while leading (truncated
        // or lost slots), and suspect the acceptor when accepts go
        // unanswered.
        if self.i_am_leader {
            self.drain_queue(now, out);
            let stalled = self
                .inflight
                .values()
                .any(|&t| now.saturating_sub(t) > self.timing.io_timeout);
            if stalled {
                self.acceptor_failure(now, out);
            }
        }

        // Candidate: prepare timed out.
        if let Some((_, at)) = self.prepare_state {
            if now.saturating_sub(at) > self.timing.io_timeout {
                let acceptor = self.active_acceptor;
                if self.expect_fresh_for.is_some()
                    && self.expect_fresh_for == acceptor
                    && self.utility.global_leader() == Some(self.me())
                {
                    // Our own fresh, never-adopted acceptor is unresponsive:
                    // nobody can have stored values there, so switching
                    // again is safe.
                    self.prepare_state = None;
                    self.acceptor_failure(now, out);
                } else {
                    self.send_prepare(now, out);
                }
            }
        }

        // Follower: forwarded commands stalled → the leader is slow; take
        // over (§7.6).
        if !self.i_am_leader {
            if self.adv.reclaim_stalled(now, self.timing.suspect_after) {
                self.try_takeover(now, out);
            } else if self.adv.has_queued() {
                match self.utility.global_leader() {
                    Some(l) if l != self.me() && self.pending_op == PendingOp::None => {
                        self.adv.forward_queue(l, now, out, forward);
                    }
                    _ => self.try_takeover(now, out),
                }
            }
        }
    }

    fn on_client_request(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: Op,
        now: Nanos,
        out: &mut Outbox<Msg>,
    ) {
        let Some(cmd) = self.adv.request(Command::new(client, req_id, op), out) else {
            return;
        };
        // Propose if leader, forward if a leader is known, otherwise
        // queue and try to take over.
        if self.i_am_leader {
            self.propose_cmd(cmd, now, out);
            return;
        }
        match self.utility.global_leader() {
            Some(l) if l != self.me() => self.adv.forward(l, cmd, now, out, forward),
            _ => {
                self.adv.enqueue(cmd);
                self.try_takeover(now, out);
            }
        }
    }

    fn is_leader(&self) -> bool {
        self.i_am_leader
    }

    fn supports_local_reads(&self) -> bool {
        self.relaxed_reads
    }

    fn can_read_locally(&self, _key: u64) -> bool {
        // Relaxed reads never wait: the learner state is always readable
        // (it is a committed — possibly slightly stale — prefix).
        self.relaxed_reads
    }

    fn instance_of(&self, msg: &Msg) -> Option<Instance> {
        match *msg {
            Msg::AcceptReq { inst, .. } | Msg::Learn { inst, .. } => Some(inst),
            _ => None,
        }
    }

    /// Drops all per-instance state below `watermark` and fast-forwards
    /// the proposer/learner past it. Proposals pinned below the floor
    /// that are not known decided are queued and re-advocated in fresh
    /// instances — by a leader on its next tick; the RSM session layer
    /// deduplicates any that were in fact decided there.
    fn truncate(&mut self, watermark: Instance) {
        self.learned.drain_below(watermark);
        self.ap.drain_below(watermark);
        self.inflight.drain_below(watermark);
        self.adv.prune(watermark);
        self.watermark = self.watermark.max(watermark);
        while self.learned.contains_key(self.watermark) {
            self.watermark += 1;
        }
        self.next_instance = self.next_instance.max(watermark);
    }
}

#[cfg(test)]
mod tests;
