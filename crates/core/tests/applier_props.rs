//! The applier against a reference that keeps each client's latest
//! output in two tables — the session table and a separate
//! `(client, req_id) → output` map — written out here exactly as the
//! applier once did.
//!
//! Arbitrary schedules of in-order, out-of-order and duplicate
//! decisions, client retries of the current and of older request ids,
//! batches with retried constituents, agreed truncations and snapshot
//! installs drive a pair of appliers (`main`, and a `lagging` one that
//! sees only some decisions and catches up by snapshot) beside a
//! reference each. After every step every observable must agree:
//! `output_of` for every request ever issued, `outputs_len`,
//! `applied_up_to`, `gap_backlog`, `log_base`, the retained log and the
//! KV digest.

use std::collections::{BTreeMap, BTreeSet};

use onepaxos::kv::KvStore;
use onepaxos::rsm::{Applier, ApplierSnapshot, StateMachine};
use onepaxos::{Command, Instance, NodeId, Op};
use proptest::prelude::*;

/// The two-table applier: `sessions` for the at-most-once check,
/// `outputs` keyed by `(client, req_id)` for reply lookup, kept at one
/// entry per client.
struct TwoTable {
    state: KvStore,
    next: Instance,
    log_base: Instance,
    pending: BTreeMap<Instance, Command>,
    sessions: BTreeMap<NodeId, (u64, Option<u64>)>,
    outputs: BTreeMap<(NodeId, u64), Option<u64>>,
    log: Vec<Command>,
}

impl TwoTable {
    fn new() -> Self {
        TwoTable {
            state: KvStore::new(),
            next: 0,
            log_base: 0,
            pending: BTreeMap::new(),
            sessions: BTreeMap::new(),
            outputs: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    fn on_decided(&mut self, instance: Instance, cmd: Command) {
        if instance < self.next || self.pending.contains_key(&instance) {
            return;
        }
        self.pending.insert(instance, cmd);
        while let Some(cmd) = self.pending.remove(&self.next) {
            for c in cmd.as_batch().unwrap_or(std::slice::from_ref(&cmd)) {
                self.apply_single(c);
            }
            self.log.push(cmd);
            self.next += 1;
        }
    }

    fn apply_single(&mut self, cmd: &Command) {
        if let Some(&(last, _)) = self.sessions.get(&cmd.client) {
            if cmd.req_id <= last {
                return;
            }
            self.outputs.remove(&(cmd.client, last));
        }
        let out = self.state.apply(cmd.op.clone());
        self.sessions.insert(cmd.client, (cmd.req_id, out));
        self.outputs.insert(cmd.id(), out);
        if let Op::Truncate { watermark } = cmd.op {
            let to = watermark.min(self.next).max(self.log_base);
            self.log.drain(..(to - self.log_base) as usize);
            self.log_base = to;
        }
    }

    fn snapshot(&self) -> ApplierSnapshot<KvStore> {
        ApplierSnapshot {
            watermark: self.next,
            state: self.state.snapshot(),
            sessions: self.sessions.iter().map(|(&c, &s)| (c, s)).collect(),
        }
    }

    fn install_snapshot(&mut self, snap: ApplierSnapshot<KvStore>) {
        if snap.watermark <= self.next {
            return;
        }
        self.state.install(snap.state);
        self.outputs = snap
            .sessions
            .iter()
            .map(|&(c, (r, o))| ((c, r), o))
            .collect();
        self.sessions = snap.sessions.into_iter().collect();
        self.next = snap.watermark;
        self.log_base = snap.watermark;
        self.log.clear();
        self.pending = self.pending.split_off(&snap.watermark);
    }
}

/// One applier under test beside its reference.
struct Pair {
    real: Applier<KvStore>,
    model: TwoTable,
}

impl Pair {
    fn new() -> Self {
        Pair {
            real: Applier::new(KvStore::new()),
            model: TwoTable::new(),
        }
    }

    fn decide(&mut self, instance: Instance, cmd: &Command) {
        self.real.on_decided(instance, cmd.clone());
        self.model.on_decided(instance, cmd.clone());
    }

    /// Installs `from`'s snapshot here, checking first that the real
    /// and the reference snapshot carry the same session table.
    fn install_from(&mut self, from: &Pair) {
        let snap = from.real.snapshot();
        let reference = from.model.snapshot();
        assert_eq!(snap.watermark, reference.watermark);
        assert_eq!(snap.sessions, reference.sessions);
        self.real.install_snapshot(snap);
        self.model.install_snapshot(reference);
    }

    fn check(&self, issued: &BTreeSet<(NodeId, u64)>) -> Result<(), TestCaseError> {
        let (a, m) = (&self.real, &self.model);
        for &(c, r) in issued {
            prop_assert_eq!(
                a.output_of(c, r),
                m.outputs.get(&(c, r)),
                "output_of({c}, {r})"
            );
        }
        prop_assert_eq!(a.outputs_len(), m.outputs.len());
        prop_assert_eq!(a.applied_up_to(), m.next.checked_sub(1));
        prop_assert_eq!(a.gap_backlog(), m.pending.len());
        prop_assert_eq!(a.log_base(), m.log_base);
        prop_assert_eq!(a.applied_log(), &m.log[..]);
        prop_assert_eq!(a.state().digest(), m.state.digest());
        Ok(())
    }
}

const CLIENTS: u16 = 4;
/// Proposes the agreed truncations (its own session, like the engine's
/// maintenance client).
const TRUNCATOR: NodeId = NodeId(100);

/// The decided log the schedule draws from — one command per instance,
/// so every re-decision repeats the same command — and every request
/// identity issued so far.
struct Workload {
    log: Vec<Command>,
    latest: [u64; CLIENTS as usize],
    issued: BTreeSet<(NodeId, u64)>,
    batches: u64,
}

impl Workload {
    /// A client command: a fresh request, a retry of the client's
    /// current one, or a retry of an older one, as `how` says.
    fn request(&mut self, client: u8, how: u8, key: u8) -> Command {
        let c = client as usize % CLIENTS as usize;
        let latest = &mut self.latest[c];
        let req_id = match how % 4 {
            2 if *latest > 0 => *latest,
            3 if *latest > 0 => latest.saturating_sub(1 + u64::from(key % 3)).max(1),
            _ => {
                *latest += 1;
                *latest
            }
        };
        let op = if key.is_multiple_of(5) {
            Op::Get {
                key: u64::from(key % 8),
            }
        } else {
            Op::Put {
                key: u64::from(key % 8),
                value: u64::from(key) * 1000 + req_id,
            }
        };
        let cmd = Command::new(NodeId(c as u16), req_id, op);
        self.issued.insert(cmd.id());
        cmd
    }
}

/// One schedule step, decoded from four arbitrary bytes.
fn step(w: &mut Workload, main: &mut Pair, lagging: &mut Pair, (kind, a, b, c): (u8, u8, u8, u8)) {
    match kind % 10 {
        0..=2 => {
            let cmd = w.request(a, b, c);
            w.log.push(cmd);
        }
        3 => {
            let cmds = (0..1 + c % 4)
                .map(|i| {
                    w.request(
                        a.wrapping_add(i),
                        b.wrapping_add(i),
                        c.wrapping_mul(7).wrapping_add(i),
                    )
                })
                .collect();
            w.batches += 1;
            w.log
                .push(Command::batch(NodeId(u16::from(a % 2)), w.batches, cmds));
        }
        4 => {
            // Up to two instances past its own slot, which the applier
            // clamps to what it has applied.
            let watermark = (w.log.len() as Instance + 2).saturating_sub(u64::from(a % 8));
            let cmd = Command::new(TRUNCATOR, watermark, Op::Truncate { watermark });
            w.issued.insert(cmd.id());
            w.log.push(cmd);
        }
        5..=8 => {
            if w.log.is_empty() {
                return;
            }
            let last = w.log.len() as Instance - 1;
            // In order (b % 4 == 0), a little ahead of the gap, or a
            // re-decision of anything already in the log.
            let inst = if kind % 10 == 8 {
                Instance::from(b) % (last + 1)
            } else {
                let next = main.real.applied_up_to().map_or(0, |i| i + 1);
                (next + Instance::from(b % 4)).min(last)
            };
            let cmd = &w.log[inst as usize];
            main.decide(inst, cmd);
            if c.is_multiple_of(3) {
                lagging.decide(inst, cmd);
            }
        }
        _ => {
            if a.is_multiple_of(2) {
                // Restart `main` from its own snapshot.
                let mut fresh = Pair::new();
                fresh.install_from(main);
                *main = fresh;
            } else {
                lagging.install_from(main);
            }
        }
    }
}

fn schedule() -> impl Strategy<Value = Vec<(u8, u8, u8, u8)>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..120)
}

proptest! {
    #[test]
    fn one_table_applier_matches_the_two_table_reference(steps in schedule()) {
        let mut w = Workload {
            log: Vec::new(),
            latest: [0; CLIENTS as usize],
            issued: BTreeSet::new(),
            batches: 0,
        };
        let mut main = Pair::new();
        let mut lagging = Pair::new();
        for s in steps {
            step(&mut w, &mut main, &mut lagging, s);
            main.check(&w.issued)?;
            lagging.check(&w.issued)?;
        }
        // Deliver the whole log in order: both converge on one state.
        for (inst, cmd) in w.log.iter().enumerate() {
            main.decide(inst as Instance, cmd);
            lagging.decide(inst as Instance, cmd);
        }
        main.check(&w.issued)?;
        lagging.check(&w.issued)?;
        prop_assert_eq!(main.real.state().digest(), lagging.real.state().digest());
    }
}
