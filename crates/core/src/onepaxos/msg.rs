//! Wire messages of 1Paxos and of its embedded PaxosUtility.

use crate::types::{Ballot, Command, Instance, NodeId};

/// An entry of the PaxosUtility log (§5.2–§5.3).
///
/// "PaxosUtility contains entries for changing the active acceptor, i.e.
/// `AcceptorChange`, and entries for changing the leader, i.e.
/// `LeaderChange`" (Appendix B).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UtilityEntry {
    /// A proposer announces itself as the Global leader, naming the active
    /// acceptor it intends to use (Step 2 of Fig 5).
    LeaderChange {
        /// The new Global leader (also the entry's author).
        leader: NodeId,
        /// The active acceptor the new leader will work with.
        acceptor: NodeId,
    },
    /// The Global leader replaces the active acceptor (Step 2 of Fig 4),
    /// attaching its uncommitted proposed values so the next leader
    /// proposes the same values (§5.2).
    AcceptorChange {
        /// The entry's author (must be the Global leader, Lemma 1).
        by: NodeId,
        /// The new active acceptor.
        acceptor: NodeId,
        /// Proposed-but-uncommitted values carried across the switch.
        uncommitted: Vec<(Instance, Command)>,
    },
}

impl UtilityEntry {
    /// The node that authored this entry.
    pub fn author(&self) -> NodeId {
        match *self {
            UtilityEntry::LeaderChange { leader, .. } => leader,
            UtilityEntry::AcceptorChange { by, .. } => by,
        }
    }

    /// The active acceptor this entry establishes.
    pub fn acceptor(&self) -> NodeId {
        match *self {
            UtilityEntry::LeaderChange { acceptor, .. } => acceptor,
            UtilityEntry::AcceptorChange { acceptor, .. } => acceptor,
        }
    }
}

/// Messages of the embedded PaxosUtility (a basic-Paxos log over
/// [`UtilityEntry`] values, run on the same nodes as 1Paxos).
#[derive(Clone, Debug, PartialEq)]
pub enum UtilityMsg {
    /// Phase-1 request for utility instance `uinst`.
    Prepare {
        /// Utility log slot.
        uinst: Instance,
        /// Proposal ballot.
        bal: Ballot,
    },
    /// Phase-1 response.
    Promise {
        /// Utility log slot.
        uinst: Instance,
        /// The promised ballot.
        bal: Ballot,
        /// Previously accepted entry for the slot, if any.
        accepted: Option<(Ballot, UtilityEntry)>,
    },
    /// Phase-1 refusal with the higher promised ballot.
    PrepareNack {
        /// Utility log slot.
        uinst: Instance,
        /// The acceptor's promised ballot.
        promised: Ballot,
    },
    /// Phase-2 request.
    Accept {
        /// Utility log slot.
        uinst: Instance,
        /// Proposal ballot.
        bal: Ballot,
        /// Proposed entry.
        entry: UtilityEntry,
    },
    /// Phase-2 refusal with the higher promised ballot.
    AcceptNack {
        /// Utility log slot.
        uinst: Instance,
        /// The acceptor's promised ballot.
        promised: Ballot,
    },
    /// Acceptor → learners broadcast of an acceptance.
    Learn {
        /// Utility log slot.
        uinst: Instance,
        /// Ballot under which the entry was accepted.
        bal: Ballot,
        /// Accepted entry.
        entry: UtilityEntry,
    },
    /// Majority inquiry of the utility log ("the active acceptor Id can be
    /// obtained by inquiring a majority of the nodes", §5.3).
    Query {
        /// Correlates responses with the inquiry.
        qid: u64,
        /// Length of the inquirer's chosen log (responders send newer
        /// entries only).
        have: Instance,
    },
    /// Response to [`UtilityMsg::Query`] carrying the chosen suffix.
    QueryResp {
        /// The inquiry this responds to.
        qid: u64,
        /// Chosen entries at or above the requested index.
        entries: Vec<(Instance, UtilityEntry)>,
    },
}

/// What an [`Msg::Abandon`] refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbandonRe {
    /// Refusal of a `prepare request`.
    Prepare,
    /// Refusal of an `accept request`.
    Accept,
}

/// Wire messages of 1Paxos (Appendix A, Fig 12).
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// A non-leader node forwards a client command to the leader.
    Forward {
        /// The advocated command.
        cmd: Command,
    },
    /// `prepare request(pn, YouMustBeFresh)`: a proposer asks the active
    /// acceptor to adopt it as leader.
    PrepareReq {
        /// The proposer's proposal number.
        pn: Ballot,
        /// "The proposer expects to be the first proposer that contacts
        /// the acceptor" (Appendix A). Sent only by the leader that just
        /// installed a fresh backup acceptor.
        expect_fresh: bool,
    },
    /// `prepare response(pn, ap)`: the acceptor adopts the proposer and
    /// echoes all accepted proposals.
    PrepareResp {
        /// The adopted proposal number.
        pn: Ballot,
        /// The acceptor's accepted-proposal map `ap`.
        accepted: Vec<(Instance, Ballot, Command)>,
    },
    /// `accept request(in, pn, v)`.
    AcceptReq {
        /// Target instance.
        inst: Instance,
        /// The leader's proposal number (must equal the acceptor's `hpn`).
        pn: Ballot,
        /// Proposed command.
        cmd: Command,
    },
    /// `abandon(hpn)`: the acceptor refuses; carries its state so the
    /// proposer can diagnose supersession (`hpn` above its own `pn`),
    /// acceptor reset (`hpn` below), or a freshness mismatch.
    Abandon {
        /// The acceptor's highest promised proposal number.
        hpn: Ballot,
        /// The acceptor's `IamFresh` flag.
        fresh: bool,
        /// Which request was refused.
        re: AbandonRe,
    },
    /// `learn(in, v)`: the active acceptor broadcasts an acceptance to all
    /// learners. With a single active acceptor one learn message decides
    /// the instance at the receiving learner.
    Learn {
        /// Decided instance.
        inst: Instance,
        /// Proposal number under which it was accepted.
        pn: Ballot,
        /// The decided command.
        cmd: Command,
    },
    /// An embedded PaxosUtility message.
    Utility(UtilityMsg),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_author_and_acceptor() {
        let lc = UtilityEntry::LeaderChange {
            leader: NodeId(2),
            acceptor: NodeId(1),
        };
        assert_eq!(lc.author(), NodeId(2));
        assert_eq!(lc.acceptor(), NodeId(1));
        let ac = UtilityEntry::AcceptorChange {
            by: NodeId(0),
            acceptor: NodeId(2),
            uncommitted: vec![(3, Command::noop(NodeId(9), 1))],
        };
        assert_eq!(ac.author(), NodeId(0));
        assert_eq!(ac.acceptor(), NodeId(2));
    }

    #[test]
    fn entry_equality_distinguishes_payload() {
        let a = UtilityEntry::LeaderChange {
            leader: NodeId(1),
            acceptor: NodeId(2),
        };
        let b = UtilityEntry::LeaderChange {
            leader: NodeId(1),
            acceptor: NodeId(0),
        };
        assert_ne!(a, b);
        assert_eq!(a.clone(), a);
    }
}
