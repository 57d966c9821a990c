//! The PaxosUtility: a basic-Paxos-replicated log of role-change entries,
//! embedded in every 1Paxos node.
//!
//! "We assume that the consensus over the new active acceptor is achieved
//! by a separate basic implementation of Paxos, which hereafter is called
//! PaxosUtility. [...] running PaxosUtility does not require any extra
//! nodes; it runs on the same nodes as 1Paxos" (§5.2).
//!
//! The node-facing operation is a **compare-and-swap at the log tail**: a
//! proposer offers an entry for the first free slot it knows of; the
//! operation *succeeds* iff its own entry is the one chosen there. This is
//! exactly the mechanism behind Lemma 1 (only the Global leader can insert
//! an `AcceptorChange`): the leader checks it is still the last
//! `LeaderChange`, remembers the tail index, and proposes at that index —
//! "the failure of this phase implies that another node has inserted
//! something in the meanwhile" (Appendix B).
//!
//! Each slot is agreed by the Synod core in the crate-private `synod.rs`,
//! the same code that runs the Basic-Paxos baseline. The utility keeps
//! only its policy: the chosen log and the CAS outcome, the majority
//! query, a restart after a stalled tick (the threshold grows with the
//! node id), and a nack that only raises the round for that restart.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::ClusterConfig;
use crate::outbox::Outbox;
use crate::synod::{Promised, Synod, SynodMsg};
use crate::types::{Ballot, Instance, NodeId};

use super::msg::{Msg, UtilityEntry, UtilityMsg};

/// Events surfaced to the owning 1Paxos node.
#[derive(Clone, Debug, PartialEq)]
pub enum UtilityEvent {
    /// A new entry was decided and appended to the local chosen log.
    Chosen {
        /// The slot it occupies.
        uinst: Instance,
        /// The decided entry.
        entry: UtilityEntry,
    },
    /// Our compare-and-swap completed: `success` iff our entry was chosen
    /// in the slot we targeted.
    CasFinished {
        /// The targeted slot.
        uinst: Instance,
        /// Whether our entry won the slot.
        success: bool,
    },
    /// A majority inquiry completed; the local log now reflects at least
    /// everything a majority had chosen when queried.
    QueryDone {
        /// The inquiry id.
        qid: u64,
    },
}

impl SynodMsg<UtilityEntry> for Msg {
    fn prepare(uinst: Instance, bal: Ballot) -> Self {
        Msg::Utility(UtilityMsg::Prepare { uinst, bal })
    }
    fn promise(uinst: Instance, bal: Ballot, accepted: Option<(Ballot, UtilityEntry)>) -> Self {
        Msg::Utility(UtilityMsg::Promise {
            uinst,
            bal,
            accepted,
        })
    }
    fn prepare_nack(uinst: Instance, promised: Ballot) -> Self {
        Msg::Utility(UtilityMsg::PrepareNack { uinst, promised })
    }
    fn accept(uinst: Instance, bal: Ballot, entry: UtilityEntry) -> Self {
        Msg::Utility(UtilityMsg::Accept { uinst, bal, entry })
    }
    fn accept_nack(uinst: Instance, promised: Ballot) -> Self {
        Msg::Utility(UtilityMsg::AcceptNack { uinst, promised })
    }
    fn learn(uinst: Instance, bal: Ballot, entry: UtilityEntry) -> Self {
        Msg::Utility(UtilityMsg::Learn { uinst, bal, entry })
    }
}

/// Our compare-and-swap in flight; its proposal lives in the Synod.
#[derive(Debug)]
struct Cas {
    uinst: Instance,
    /// Ticks since the start, the last counted promise or the last
    /// restart.
    stalled_ticks: u32,
}

#[derive(Debug)]
struct Query {
    qid: u64,
    replied: BTreeSet<NodeId>,
    done: bool,
}

/// The utility log state machine owned by one node.
#[derive(Debug)]
pub(crate) struct PaxosUtility {
    synod: Synod<UtilityEntry>,
    /// Contiguous chosen prefix.
    log: Vec<UtilityEntry>,
    /// Chosen out of order, waiting for the gap to fill.
    chosen_ahead: BTreeMap<Instance, UtilityEntry>,
    cas: Option<Cas>,
    query: Option<Query>,
    next_qid: u64,
}

impl PaxosUtility {
    /// Creates the utility pre-seeded with `seed` entries that every node
    /// agrees were chosen before startup. The paper's initialization: "the
    /// node with the smallest Id can insert two entries for `LeaderChange`
    /// and `AcceptorChange` to announce itself as the Global leader and
    /// its active acceptor" (Appendix B) — seeding deterministically gives
    /// all nodes that initial knowledge.
    pub fn with_seed(cfg: ClusterConfig, seed: Vec<UtilityEntry>) -> Self {
        PaxosUtility {
            synod: Synod::new(cfg),
            log: seed,
            chosen_ahead: BTreeMap::new(),
            cas: None,
            query: None,
            next_qid: 0,
        }
    }

    /// The locally known chosen log.
    pub fn log(&self) -> &[UtilityEntry] {
        &self.log
    }

    /// The Global leader per the local log: the author of the last
    /// `LeaderChange` (Appendix B definition).
    pub fn global_leader(&self) -> Option<NodeId> {
        self.log.iter().rev().find_map(|e| match *e {
            UtilityEntry::LeaderChange { leader, .. } => Some(leader),
            UtilityEntry::AcceptorChange { .. } => None,
        })
    }

    /// The Global acceptor per the local log: the acceptor named by the
    /// last entry (both entry kinds name one).
    pub fn global_acceptor(&self) -> Option<NodeId> {
        self.log.last().map(|e| e.acceptor())
    }

    /// Whether a CAS or query of ours is in flight.
    pub fn busy(&self) -> bool {
        self.cas.is_some() || self.query.is_some()
    }

    /// Starts a compare-and-swap of `entry` at the local log tail.
    /// At most one CAS may be in flight.
    ///
    /// # Panics
    ///
    /// Panics if a CAS is already in flight.
    pub fn start_cas(&mut self, entry: UtilityEntry, out: &mut Outbox<Msg>) -> Instance {
        assert!(self.cas.is_none(), "one utility CAS at a time");
        let uinst = self.log.len() as Instance;
        self.cas = Some(Cas {
            uinst,
            stalled_ticks: 0,
        });
        let chosen = self.synod.propose(uinst, entry, out);
        debug_assert!(chosen.is_none(), "CAS cannot finish from one promise");
        uinst
    }

    /// Starts a majority inquiry; completion is reported via
    /// [`UtilityEvent::QueryDone`].
    ///
    /// # Panics
    ///
    /// Panics if a query is already in flight.
    pub fn start_query(&mut self, out: &mut Outbox<Msg>) -> u64 {
        assert!(self.query.is_none(), "one utility query at a time");
        let qid = self.next_qid;
        self.next_qid += 1;
        self.query = Some(Query {
            qid,
            replied: BTreeSet::new(),
            done: false,
        });
        let have = self.log.len() as Instance;
        for peer in self.synod.cfg().others() {
            out.send(peer, Msg::Utility(UtilityMsg::Query { qid, have }));
        }
        qid
    }

    /// Periodic maintenance: retries a stalled CAS with a higher ballot.
    /// The retry threshold grows with the node id, giving contending
    /// proposers a deterministic priority order (duelling avoidance).
    pub fn tick(&mut self, out: &mut Outbox<Msg>) {
        let threshold = 2 + self.synod.cfg().me().index() as u32;
        let Some(cas) = self.cas.as_mut() else {
            return;
        };
        cas.stalled_ticks += 1;
        if cas.stalled_ticks < threshold {
            return;
        }
        // Restart phase 1 for the same slot with a bigger ballot.
        cas.stalled_ticks = 0;
        let chosen = self.synod.restart(cas.uinst, out);
        debug_assert!(chosen.is_none());
    }

    /// Handles a utility message, returning events for the owning node.
    pub fn handle(
        &mut self,
        from: NodeId,
        msg: UtilityMsg,
        out: &mut Outbox<Msg>,
    ) -> Vec<UtilityEvent> {
        let mut events = Vec::new();
        match msg {
            UtilityMsg::Prepare { uinst, bal } => self.synod.on_prepare(from, uinst, bal, out),
            UtilityMsg::Promise {
                uinst,
                bal,
                accepted,
            } => {
                if let Promised::Counted(chosen) =
                    self.synod.on_promise(from, uinst, bal, accepted, out)
                {
                    if let Some(cas) = self.cas.as_mut() {
                        cas.stalled_ticks = 0;
                    }
                    self.learned(uinst, chosen, &mut events);
                }
            }
            UtilityMsg::PrepareNack { uinst, promised }
            | UtilityMsg::AcceptNack { uinst, promised } => {
                // A higher ballot exists: let the tick retry with a bigger
                // one; remember the round so the next ballot clears it.
                if self.synod.outbid(uinst, promised).is_some() {
                    self.synod.raise_round(promised.round);
                }
            }
            UtilityMsg::Accept { uinst, bal, entry } => {
                let chosen = self.synod.on_accept(from, uinst, bal, entry, out);
                self.learned(uinst, chosen, &mut events);
            }
            UtilityMsg::Learn { uinst, bal, entry } => {
                let chosen = self.synod.on_learn(from, uinst, bal, entry);
                self.learned(uinst, chosen, &mut events);
            }
            UtilityMsg::Query { qid, have } => {
                let entries: Vec<(Instance, UtilityEntry)> = self
                    .log
                    .iter()
                    .enumerate()
                    .skip(have as usize)
                    .map(|(i, e)| (i as Instance, e.clone()))
                    .collect();
                out.send(from, Msg::Utility(UtilityMsg::QueryResp { qid, entries }));
            }
            UtilityMsg::QueryResp { qid, entries } => {
                for (uinst, entry) in entries {
                    self.absorb_chosen(uinst, entry, &mut events);
                }
                let majority = self.synod.cfg().majority();
                if let Some(q) = self.query.as_mut() {
                    if q.qid == qid && !q.done {
                        q.replied.insert(from);
                        // The local node counts toward the majority.
                        if q.replied.len() + 1 >= majority {
                            q.done = true;
                            events.push(UtilityEvent::QueryDone { qid });
                            self.query = None;
                        }
                    }
                }
            }
        }
        events
    }

    /// Absorbs `chosen`, if the Synod chose an entry for `uinst`.
    fn learned(
        &mut self,
        uinst: Instance,
        chosen: Option<UtilityEntry>,
        events: &mut Vec<UtilityEvent>,
    ) {
        if let Some(entry) = chosen {
            self.absorb_chosen(uinst, entry, events);
        }
    }

    /// Integrates a decided entry into the chosen log, emitting `Chosen`
    /// events in log order and resolving our CAS when its slot decides.
    fn absorb_chosen(
        &mut self,
        uinst: Instance,
        entry: UtilityEntry,
        events: &mut Vec<UtilityEvent>,
    ) {
        let len = self.log.len() as Instance;
        if uinst < len {
            debug_assert_eq!(
                self.log[uinst as usize], entry,
                "utility consistency violation at slot {uinst}"
            );
            return;
        }
        self.chosen_ahead.entry(uinst).or_insert(entry);
        while let Some(e) = self.chosen_ahead.remove(&(self.log.len() as Instance)) {
            let slot = self.log.len() as Instance;
            self.log.push(e.clone());
            events.push(UtilityEvent::Chosen {
                uinst: slot,
                entry: e.clone(),
            });
            if self.cas.as_ref().is_some_and(|cas| cas.uinst == slot) {
                let success = self.synod.retire(slot).is_some_and(|want| want == e);
                events.push(UtilityEvent::CasFinished {
                    uinst: slot,
                    success,
                });
                self.cas = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbox::Action;
    use crate::types::NodeId;
    use std::collections::VecDeque;

    fn cfg(n: u16, me: u16) -> ClusterConfig {
        ClusterConfig::new((0..n).map(NodeId).collect(), NodeId(me))
    }

    fn seed() -> Vec<UtilityEntry> {
        vec![
            UtilityEntry::LeaderChange {
                leader: NodeId(0),
                acceptor: NodeId(1),
            },
            UtilityEntry::AcceptorChange {
                by: NodeId(0),
                acceptor: NodeId(1),
                uncommitted: Vec::new(),
            },
        ]
    }

    /// Minimal in-test bus wiring three PaxosUtility instances together.
    struct Bus {
        utils: Vec<PaxosUtility>,
        queue: VecDeque<(NodeId, NodeId, UtilityMsg)>,
        events: Vec<(NodeId, UtilityEvent)>,
    }

    impl Bus {
        fn new(n: u16) -> Self {
            Bus {
                utils: (0..n)
                    .map(|me| PaxosUtility::with_seed(cfg(n, me), seed()))
                    .collect(),
                queue: VecDeque::new(),
                events: Vec::new(),
            }
        }

        fn absorb(&mut self, from: NodeId, out: &mut Outbox<Msg>) {
            for a in out.take() {
                if let Action::Send {
                    to,
                    msg: Msg::Utility(m),
                } = a
                {
                    self.queue.push_back((from, to, m));
                }
            }
        }

        fn run(&mut self, skip: &[NodeId]) {
            while let Some(pos) = self.queue.iter().position(|(_, to, _)| !skip.contains(to)) {
                let (from, to, m) = self.queue.remove(pos).unwrap();
                let mut out = Outbox::new();
                let evs = self.utils[to.index()].handle(from, m, &mut out);
                for e in evs {
                    self.events.push((to, e));
                }
                self.absorb(to, &mut out);
            }
        }
    }

    #[test]
    fn seeded_views() {
        let u = PaxosUtility::with_seed(cfg(3, 0), seed());
        assert_eq!(u.global_leader(), Some(NodeId(0)));
        assert_eq!(u.global_acceptor(), Some(NodeId(1)));
        assert_eq!(u.log().len(), 2);
    }

    #[test]
    fn global_acceptor_follows_last_entry() {
        let mut entries = seed();
        entries.push(UtilityEntry::AcceptorChange {
            by: NodeId(0),
            acceptor: NodeId(2),
            uncommitted: Vec::new(),
        });
        let u = PaxosUtility::with_seed(cfg(3, 0), entries.clone());
        assert_eq!(u.global_acceptor(), Some(NodeId(2)));
        assert_eq!(u.global_leader(), Some(NodeId(0)));
        entries.push(UtilityEntry::LeaderChange {
            leader: NodeId(2),
            acceptor: NodeId(1),
        });
        let u = PaxosUtility::with_seed(cfg(3, 0), entries);
        assert_eq!(u.global_leader(), Some(NodeId(2)));
        assert_eq!(u.global_acceptor(), Some(NodeId(1)));
    }

    #[test]
    fn cas_succeeds_when_uncontended() {
        let mut bus = Bus::new(3);
        let mut out = Outbox::new();
        let want = UtilityEntry::LeaderChange {
            leader: NodeId(2),
            acceptor: NodeId(1),
        };
        let uinst = bus.utils[2].start_cas(want.clone(), &mut out);
        assert_eq!(uinst, 2);
        bus.absorb(NodeId(2), &mut out);
        bus.run(&[]);
        assert!(bus.events.iter().any(|(n, e)| *n == NodeId(2)
            && *e
                == UtilityEvent::CasFinished {
                    uinst: 2,
                    success: true
                }));
        // Every node appended the entry.
        for u in &bus.utils {
            assert_eq!(u.log().len(), 3);
            assert_eq!(u.global_leader(), Some(NodeId(2)));
        }
    }

    #[test]
    fn cas_of_loser_fails_and_log_converges() {
        let mut bus = Bus::new(3);
        let w1 = UtilityEntry::LeaderChange {
            leader: NodeId(1),
            acceptor: NodeId(2),
        };
        let w2 = UtilityEntry::LeaderChange {
            leader: NodeId(2),
            acceptor: NodeId(1),
        };
        let mut o1 = Outbox::new();
        let mut o2 = Outbox::new();
        bus.utils[1].start_cas(w1.clone(), &mut o1);
        bus.utils[2].start_cas(w2.clone(), &mut o2);
        bus.absorb(NodeId(1), &mut o1);
        bus.absorb(NodeId(2), &mut o2);
        bus.run(&[]);
        // Ties may stall both CASes (duelling); ticks with deterministic
        // priority resolve them.
        for _ in 0..12 {
            for i in 0..3 {
                let mut out = Outbox::new();
                bus.utils[i].tick(&mut out);
                bus.absorb(NodeId(i as u16), &mut out);
            }
            bus.run(&[]);
            let done = |n: u16| {
                bus.events.iter().any(|(id, e)| {
                    *id == NodeId(n) && matches!(e, UtilityEvent::CasFinished { .. })
                })
            };
            if done(1) && done(2) {
                break;
            }
        }
        let successes: Vec<bool> = bus
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                UtilityEvent::CasFinished { uinst: 2, success } => Some(*success),
                _ => None,
            })
            .collect();
        // Exactly one winner for slot 2.
        assert_eq!(successes.iter().filter(|s| **s).count(), 1);
        // All logs agree on slot 2.
        let winner = bus.utils[0].log()[2].clone();
        for u in &bus.utils {
            assert!(u.log().len() >= 3);
            assert_eq!(u.log()[2], winner);
        }
    }

    #[test]
    fn cas_progresses_with_one_node_down() {
        let mut bus = Bus::new(3);
        let mut out = Outbox::new();
        let want = UtilityEntry::AcceptorChange {
            by: NodeId(0),
            acceptor: NodeId(2),
            uncommitted: Vec::new(),
        };
        bus.utils[0].start_cas(want, &mut out);
        bus.absorb(NodeId(0), &mut out);
        bus.run(&[NodeId(1)]); // node 1 is slow
        assert!(bus.events.iter().any(|(n, e)| *n == NodeId(0)
            && matches!(e, UtilityEvent::CasFinished { success: true, .. })));
    }

    #[test]
    fn query_fills_stale_log() {
        let mut bus = Bus::new(3);
        // Node 2 misses a decided entry: simulate by CASing while 2 is
        // down.
        let mut out = Outbox::new();
        let want = UtilityEntry::LeaderChange {
            leader: NodeId(0),
            acceptor: NodeId(1),
        };
        bus.utils[0].start_cas(want, &mut out);
        bus.absorb(NodeId(0), &mut out);
        bus.run(&[NodeId(2)]);
        // Drop node 2's backlog (it was "slow"; those messages are still
        // queued — keep them undelivered by clearing).
        bus.queue.retain(|(_, to, _)| *to != NodeId(2));
        assert_eq!(bus.utils[2].log().len(), 2);
        // Node 2 inquires a majority.
        let mut out = Outbox::new();
        let qid = bus.utils[2].start_query(&mut out);
        bus.absorb(NodeId(2), &mut out);
        bus.run(&[]);
        assert!(bus
            .events
            .iter()
            .any(|(n, e)| *n == NodeId(2) && *e == UtilityEvent::QueryDone { qid }));
        assert_eq!(bus.utils[2].log().len(), 3);
    }

    #[test]
    #[should_panic(expected = "one utility CAS at a time")]
    fn double_cas_panics() {
        let mut u = PaxosUtility::with_seed(cfg(3, 0), seed());
        let mut out = Outbox::new();
        let e = UtilityEntry::LeaderChange {
            leader: NodeId(0),
            acceptor: NodeId(1),
        };
        u.start_cas(e.clone(), &mut out);
        u.start_cas(e, &mut out);
    }
}
