//! The per-layer ladder of the traced run: one number per layer call,
//! each the median of many timed batches, plus the counts that need no
//! clock. Everything here is single-purpose measurement code over
//! public API; none of it depends on the workload being traced.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use manycore_sim::{Profile, SimBuilder, Workload};
use onepaxos::basic_paxos::BasicPaxosNode;
use onepaxos::engine::{AdaptiveBatch, BatchConfig};
use onepaxos::kv::KvStore;
use onepaxos::mencius::MenciusNode;
use onepaxos::multipaxos::MultiPaxosNode;
use onepaxos::onepaxos::{Msg, OnePaxosNode};
use onepaxos::rsm::{Applier, StateMachine};
use onepaxos::shard::ShardRouter;
use onepaxos::testnet::TestNet;
use onepaxos::twopc::TwoPcNode;
use onepaxos::txn::{TxnCoordinator, TxnStep};
use onepaxos::wire::{decode_exact, Codec, RecvBuf, SendQueue};
use onepaxos::{Ballot, ClusterConfig, Command, NodeId, Op, Protocol, TxnId, TxnOutcome};
use onepaxos_runtime::{MemTransport, TcpTransport, Transport, Wire};
use qc_channel::spsc;

use crate::burst::{self, Until};
use crate::gen::{self, GenOp, Mix, OpGen};
use crate::pipeline::{Chain, MiniNet};
use crate::spec::{BURST_PROTOCOLS, WIRE_KINDS};
use crate::trace::{median_f64, median_u64};

pub type Values = BTreeMap<String, f64>;

fn cfg(m: &[NodeId], me: NodeId) -> ClusterConfig {
    ClusterConfig::new(m.to_vec(), me)
}

/// Median ns per operation over repeated batches: `batch` performs some
/// operations and returns how long they took and how many they were.
/// One untimed batch warms caches; at least five are timed.
fn median_ns(budget: Duration, mut batch: impl FnMut() -> (Duration, u64)) -> f64 {
    let _ = batch();
    let started = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < 5 || (started.elapsed() < budget && per_op.len() < 100_000) {
        let (d, ops) = batch();
        per_op.push(d.as_nanos() as f64 / ops.max(1) as f64);
    }
    median_f64(&mut per_op)
}

fn put_cmd(i: u64) -> Command {
    Command::new(
        NodeId(3),
        i,
        Op::Put {
            key: gen::own_key(0, (i % 1024) as u16),
            value: gen::value_of(0, i),
        },
    )
}

/// One representative message per wire kind, in `WIRE_KINDS` order.
fn wire_samples() -> [Wire<Msg>; 5] {
    let accept = |cmd| {
        Wire::Peer(Msg::AcceptReq {
            inst: 123_456,
            pn: Ballot::new(1, NodeId(0)),
            cmd,
        })
    };
    [
        Wire::Request {
            client: NodeId(3),
            req_id: 123_456,
            op: put_cmd(123_456).op,
        },
        accept(put_cmd(123_456)),
        accept(Command::batch(
            NodeId(0),
            7_000,
            (0..16).map(|i| put_cmd(123_456 + i)).collect(),
        )),
        Wire::Reply {
            req_id: 123_456,
            instance: 123_456,
            value: Some(gen::value_of(0, 123_455)),
        },
        Wire::Request {
            client: NodeId(3),
            req_id: 123_456,
            op: Op::TxnPrepare {
                txn: TxnId::new(NodeId(3), 5_000),
                writes: Arc::from([(gen::own_key(0, 7), gen::value_of(0, 123_456))]),
            },
        },
    ]
}

fn small_msg(i: u64) -> Wire<Msg> {
    Wire::Reply {
        req_id: i,
        instance: i,
        value: Some(i),
    }
}

fn spsc_layer(unit: Duration, out: &mut Values) {
    let (tx, rx) = spsc::channel::<Wire<Msg>>(qc_channel::DEFAULT_SLOTS);
    let ns = median_ns(unit, || {
        let t = Instant::now();
        for i in 0..1024 {
            tx.try_send(small_msg(i)).expect("room");
            std::hint::black_box(rx.try_recv().expect("just sent"));
        }
        (t.elapsed(), 1024)
    });
    out.insert("spsc.send_recv_ns".into(), ns);

    // Two threads, one queue each way, the runtime's slot count.
    let (ping_tx, ping_rx) = spsc::channel::<Wire<Msg>>(qc_channel::DEFAULT_SLOTS);
    let (pong_tx, pong_rx) = spsc::channel::<Wire<Msg>>(qc_channel::DEFAULT_SLOTS);
    let rtt = std::thread::scope(|s| {
        s.spawn(move || loop {
            match ping_rx.try_recv() {
                Some(Wire::Shutdown) => return,
                Some(m) => pong_tx.try_send(m).expect("room"),
                None => std::hint::spin_loop(),
            }
        });
        let rtt = median_ns(unit, || {
            let t = Instant::now();
            for i in 0..256 {
                ping_tx.try_send(small_msg(i)).expect("room");
                while pong_rx.try_recv().is_none() {
                    std::hint::spin_loop();
                }
            }
            (t.elapsed(), 256)
        });
        ping_tx.try_send(Wire::Shutdown).expect("room");
        rtt
    });
    out.insert("spsc.rtt_ns".into(), rtt);

    // A producer running flat out against a consumer: how often the
    // 7-slot queue turns a send away.
    let (tx, rx) = spsc::channel::<Wire<Msg>>(qc_channel::DEFAULT_SLOTS);
    let n = 200_000u64;
    let fulls = std::thread::scope(|s| {
        s.spawn(move || {
            let mut got = 0;
            while got < n {
                match rx.try_recv() {
                    Some(_) => got += 1,
                    None => std::hint::spin_loop(),
                }
            }
        });
        let mut fulls = 0u64;
        for i in 0..n {
            let mut m = small_msg(i);
            while let Err(spsc::Full(back)) = tx.try_send(m) {
                fulls += 1;
                m = back;
                std::hint::spin_loop();
            }
        }
        fulls
    });
    out.insert("spsc.full_share".into(), fulls as f64 / (fulls + n) as f64);
}

fn wire_layer(unit: Duration, out: &mut Values) {
    for (kind, msg) in WIRE_KINDS.iter().zip(wire_samples()) {
        let mut buf = Vec::with_capacity(1024);
        let enc = median_ns(unit, || {
            let t = Instant::now();
            for _ in 0..256 {
                buf.clear();
                std::hint::black_box(&msg).encode(&mut buf);
                std::hint::black_box(&buf);
            }
            (t.elapsed(), 256)
        });
        let bytes = buf.clone();
        let dec = median_ns(unit, || {
            let t = Instant::now();
            for _ in 0..256 {
                let m: Wire<Msg> = decode_exact(std::hint::black_box(&bytes)).expect("round trip");
                std::hint::black_box(m);
            }
            (t.elapsed(), 256)
        });
        assert_eq!(decode_exact::<Wire<Msg>>(&bytes).expect("round trip"), msg);
        out.insert(format!("wire.encode_ns.{kind}"), enc);
        out.insert(format!("wire.decode_ns.{kind}"), dec);
        out.insert(format!("wire.bytes.{kind}"), bytes.len() as f64);
    }

    // Framing alone: the payload is pre-encoded bytes.
    let payload = {
        let mut b = Vec::new();
        wire_samples()[0].encode(&mut b);
        b
    };
    let mut queue = SendQueue::new();
    let push = median_ns(unit, || {
        let t = Instant::now();
        for _ in 0..64 {
            queue.push_frame(|buf| buf.extend_from_slice(&payload));
        }
        let d = t.elapsed();
        queue.consume(queue.queued_bytes());
        (d, 64)
    });
    out.insert("chunk.push_frame_ns".into(), push);

    let mut frames = Vec::new();
    for _ in 0..64 {
        onepaxos::wire::write_frame(&mut frames, &payload);
    }
    let mut recv = RecvBuf::new();
    let next = median_ns(unit, || {
        recv.writable()[..frames.len()].copy_from_slice(&frames);
        recv.commit(frames.len());
        let t = Instant::now();
        for _ in 0..64 {
            std::hint::black_box(recv.next_frame().expect("clean").expect("whole"));
        }
        (t.elapsed(), 64)
    });
    out.insert("chunk.next_frame_ns".into(), next);
}

fn transport_layer(unit: Duration, out: &mut Values) {
    let (mut a, mut b) = MemTransport::<Msg>::pair(NodeId(0), NodeId(1), 1);
    let rtt = std::thread::scope(|s| {
        s.spawn(move || loop {
            b.flush();
            match b.recv() {
                Some((_, Wire::Shutdown)) => return,
                Some(((from, topic), m)) => b.send(from, topic, m),
                None => std::hint::spin_loop(),
            }
        });
        let rtt = median_ns(unit, || {
            let t = Instant::now();
            for i in 0..256 {
                a.send(NodeId(1), 0, small_msg(i));
                while a.recv().is_none() {
                    a.flush();
                    std::hint::spin_loop();
                }
            }
            (t.elapsed(), 256)
        });
        a.send(NodeId(1), 0, Wire::Shutdown);
        a.flush();
        rtt
    });
    out.insert("transport.mem_rtt_ns".into(), rtt);

    // Loopback TCP the way a client handle uses it: send, flush, park on
    // the peer's connection for the answer.
    let (mut a, mut b) = TcpTransport::<Msg>::pair(NodeId(0), NodeId(1)).expect("loopback pair");
    let request = wire_samples()[0].clone();
    let (rtt, send_flush) = std::thread::scope(|s| {
        s.spawn(move || loop {
            let deadline = Instant::now() + Duration::from_millis(200);
            match b.recv_from_deadline(NodeId(0), deadline) {
                Some((_, Wire::Shutdown)) => return,
                Some(((from, topic), _)) => {
                    b.send(from, topic, small_msg(1));
                    b.flush();
                }
                None => {}
            }
        });
        let (mut rtts, mut sends) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while rtts.len() < 200 || (started.elapsed() < unit * 3 && rtts.len() < 100_000) {
            let t0 = Instant::now();
            a.send(NodeId(1), 0, request.clone());
            a.flush();
            let t1 = Instant::now();
            let deadline = t1 + Duration::from_secs(5);
            a.recv_from_deadline(NodeId(1), deadline).expect("echo");
            rtts.push(t0.elapsed().as_nanos() as u64);
            sends.push((t1 - t0).as_nanos() as u64);
        }
        a.send(NodeId(1), 0, Wire::Shutdown);
        a.flush();
        (median_u64(&mut rtts), median_u64(&mut sends))
    });
    out.insert("transport.tcp_rtt_ns".into(), rtt);
    out.insert("transport.tcp_send_flush_ns".into(), send_flush);
}

/// Times the leader's `submit` calls on a mini-net of `shards` groups,
/// `per_settle` submits between deliveries. Returns per-call samples in
/// submit order.
fn submit_samples(shards: u16, batching: Option<BatchConfig>, per_settle: u64, n: u64) -> Vec<u64> {
    let mut net = MiniNet::new(shards, batching);
    let mut samples = Vec::with_capacity(n as usize);
    let mut drop_reply = |_: u64, _: Option<u64>, _: Chain| {};
    for req in 1..=n {
        let op = put_cmd(req).op;
        let mut took = 0u64;
        net.submit(
            req,
            op,
            Chain::default(),
            &mut |f| {
                let t = Instant::now();
                f();
                took = t.elapsed().as_nanos() as u64;
            },
            &mut drop_reply,
        );
        samples.push(took);
        if req % per_settle == 0 {
            net.settle_with(&mut |w| w, &mut |f| f(), &mut drop_reply);
        }
    }
    net.advance(burst::FLUSH_NS, &mut drop_reply);
    let digests = net.kv_digests();
    assert!(digests.iter().all(|&d| d == digests[0]), "replicas agree");
    samples
}

fn engine_layer(unit: Duration, seed: u64, out: &mut Values) {
    let n = (unit.as_micros() as u64 / 4).clamp(2_000, 40_000);
    let mut sharded = submit_samples(4, None, 1, n);
    out.insert("shard.submit_ns".into(), median_u64(&mut sharded));

    let router = ShardRouter::new(4);
    let route = median_ns(unit, || {
        let t = Instant::now();
        for k in 0..1024u64 {
            std::hint::black_box(router.route_key(std::hint::black_box(k * 7919)));
        }
        (t.elapsed(), 1024)
    });
    out.insert("shard.route_ns".into(), route);

    // Batching 16 deep: 15 calls only enqueue, the 16th flushes.
    let batched = submit_samples(
        1,
        Some(BatchConfig::new(burst::BATCH, burst::FLUSH_NS)),
        burst::BATCH as u64,
        n / 16 * 16,
    );
    let (mut enqueue, mut flush): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    for (i, s) in batched.into_iter().enumerate() {
        if i % burst::BATCH == burst::BATCH - 1 {
            flush.push(s);
        } else {
            enqueue.push(s);
        }
    }
    out.insert("batch.enqueue_ns".into(), median_u64(&mut enqueue));
    out.insert("batch.flush16_ns".into(), median_u64(&mut flush));

    fn burst_ops<P: Protocol>(
        make: impl FnMut(&[NodeId], NodeId) -> P,
        seed: u64,
        dur: Duration,
    ) -> f64 {
        let b = burst::run(make, seed, Until::Elapsed(dur), false);
        b.replies as f64 / b.wall_s.max(1e-9)
    }
    let dur = unit * 4;
    let ops = [
        burst_ops(|m, me| OnePaxosNode::new(cfg(m, me)), seed, dur),
        burst_ops(|m, me| MultiPaxosNode::new(cfg(m, me)), seed, dur),
        burst_ops(|m, me| BasicPaxosNode::new(cfg(m, me)), seed, dur),
        burst_ops(|m, me| MenciusNode::new(cfg(m, me)), seed, dur),
        burst_ops(|m, me| TwoPcNode::new(cfg(m, me)), seed, dur),
    ];
    for (p, v) in BURST_PROTOCOLS.iter().zip(ops) {
        out.insert(format!("engine.burst_ops.{p}"), v);
    }
}

fn rsm_layer(unit: Duration, out: &mut Values) {
    // Apply path of one decided put; truncation keeps the log bounded
    // outside the timed region.
    let mut applier: Applier<KvStore> = Applier::new(KvStore::new());
    let mut inst = 0u64;
    let decided = median_ns(unit, || {
        let cmds: Vec<Command> = (0..1024).map(|i| put_cmd(inst + i + 1)).collect();
        let t = Instant::now();
        for cmd in cmds {
            applier.on_decided(inst, cmd);
            inst += 1;
        }
        let d = t.elapsed();
        applier.truncate(inst);
        (d, 1024)
    });
    out.insert("rsm.on_decided_ns".into(), decided);

    let mut applier: Applier<KvStore> = Applier::new(KvStore::new());
    let (mut inst, mut req) = (0u64, 0u64);
    let decided16 = median_ns(unit, || {
        let batches: Vec<Command> = (0..64)
            .map(|b| {
                let cmds = (0..16)
                    .map(|_| {
                        req += 1;
                        put_cmd(req)
                    })
                    .collect();
                Command::batch(NodeId(0), inst + b, cmds)
            })
            .collect();
        let t = Instant::now();
        for cmd in batches {
            applier.on_decided(inst, cmd);
            inst += 1;
        }
        let d = t.elapsed();
        applier.truncate(inst);
        (d, 64)
    });
    out.insert("rsm.on_decided_batch16_ns".into(), decided16);

    let mut applier: Applier<KvStore> = Applier::new(KvStore::new());
    let mut inst = 0u64;
    let truncate = median_ns(unit, || {
        for _ in 0..4096 {
            applier.on_decided(inst, put_cmd(inst + 1));
            inst += 1;
        }
        let t = Instant::now();
        applier.truncate(inst);
        (t.elapsed(), 1)
    });
    out.insert("rsm.truncate_ns".into(), truncate);

    let mut donor: Applier<KvStore> = Applier::new(KvStore::new());
    for i in 0..10_000u64 {
        let cmd = Command::new(NodeId(3), i + 1, Op::Put { key: i, value: i });
        donor.on_decided(i, cmd);
    }
    let snapshot = median_ns(unit, || {
        let t = Instant::now();
        std::hint::black_box(donor.snapshot());
        (t.elapsed(), 1)
    });
    out.insert("rsm.snapshot_ns_10k".into(), snapshot);
    let install = median_ns(unit, || {
        let snap = donor.snapshot();
        let mut fresh: Applier<KvStore> = Applier::new(KvStore::new());
        let t = Instant::now();
        assert!(fresh.install_snapshot(snap));
        let d = t.elapsed();
        assert_eq!(fresh.state().digest(), donor.state().digest());
        (d, 1)
    });
    out.insert("rsm.install_ns_10k".into(), install);

    // 2PC participant: a prepare that locks and stages one key, and the
    // commit that applies it and releases the lock.
    let mut kv = KvStore::new();
    let mut seq = 0u64;
    let (mut prep, mut outc) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while prep.len() < 5 || (started.elapsed() < unit && prep.len() < 100_000) {
        let txns: Vec<(TxnId, Op)> = (0..64u64)
            .map(|i| {
                seq += 1;
                let txn = TxnId::new(NodeId(3), seq);
                let writes = Arc::from([(gen::own_key(0, i as u16), seq)]);
                (txn, Op::TxnPrepare { txn, writes })
            })
            .collect();
        let commits: Vec<Op> = txns
            .iter()
            .map(|&(txn, _)| Op::TxnCommit { txn, key: 0 })
            .collect();
        let t = Instant::now();
        for (_, op) in txns {
            std::hint::black_box(kv.apply(op));
        }
        prep.push(t.elapsed().as_nanos() as f64 / 64.0);
        let t = Instant::now();
        for op in commits {
            std::hint::black_box(kv.apply(op));
        }
        outc.push(t.elapsed().as_nanos() as f64 / 64.0);
    }
    assert_eq!(kv.txn_locks(), 0, "every lock released");
    out.insert("kv.txn_prepare_ns".into(), median_f64(&mut prep));
    out.insert("kv.txn_outcome_ns".into(), median_f64(&mut outc));
}

/// Two transaction coordinators in lock step on a 4-shard `TestNet`
/// (virtual time, so the counts repeat for a seed): the coordinator's
/// own calls timed, its legs counted, and the participants' lock-queue
/// counters read where the prepares are applied.
fn txn_layer(unit: Duration, seed: u64, out: &mut Values) {
    const NODE0: NodeId = NodeId(0);
    let target = (unit.as_micros() as u64 / 30).clamp(500, 20_000);
    let shards = 4u16;
    let mut net: TestNet<OnePaxosNode> = TestNet::builder(3)
        .shards(shards)
        .adaptive_batching(AdaptiveBatch::default())
        .build(|m, me| OnePaxosNode::new(cfg(m, me)));
    net.run_to_quiescence();
    let mix = Mix {
        get_pct: 0,
        txn_pct: 100,
    };
    let ids = [NodeId(200), NodeId(201)];
    let mut coords: Vec<TxnCoordinator> = ids
        .iter()
        .map(|&id| TxnCoordinator::new(id, ShardRouter::new(shards)))
        .collect();
    let mut gens: Vec<OpGen> = (0..2).map(|c| OpGen::new(seed, c, mix, shards)).collect();
    let (mut txns, mut aborts, mut legs, mut done) = (0u64, 0u64, 0u64, 0u64);
    let (mut begin_ns, mut reply_ns) = (Vec::new(), Vec::new());
    let mut seen = 0usize;
    let mut rounds = 0u64;
    while done < target {
        rounds += 1;
        assert!(rounds < target * 64, "transactions stopped finishing");
        for c in 0..2 {
            if coords[c].in_flight() || txns >= target {
                continue;
            }
            let GenOp::Txn(a, b) = gens[c].next_op() else {
                unreachable!("a 100% transaction mix")
            };
            txns += 1;
            let writes = [(gens[c].key(a), txns), (gens[c].key(b), txns)];
            let t = Instant::now();
            let frags = coords[c].begin(&writes);
            begin_ns.push(t.elapsed().as_nanos() as u64);
            legs += frags.len() as u64;
            net.submit_fragments(NODE0, ids[c], frags);
        }
        net.run_to_quiescence();
        net.advance(burst::FLUSH_NS);
        net.run_to_quiescence();
        let fresh: Vec<_> = net.replies()[seen..].to_vec();
        seen = net.replies().len();
        for r in fresh {
            let Some(c) = ids.iter().position(|&id| id == r.client) else {
                continue;
            };
            let t = Instant::now();
            let step = coords[c].on_reply(r.req_id, r.value);
            reply_ns.push(t.elapsed().as_nanos() as u64);
            let (outcome, submit) = match step {
                TxnStep::Pending => (None, coords[c].take_deferred()),
                TxnStep::Submit(f) => (None, f),
                TxnStep::Decided { outcome, submit } => (Some(outcome), submit),
                TxnStep::Done(outcome) => (Some(outcome), Vec::new()),
            };
            if let Some(o) = outcome {
                done += 1;
                aborts += (o == TxnOutcome::Aborted) as u64;
            }
            legs += submit.len() as u64;
            net.submit_fragments(NODE0, ids[c], submit);
        }
    }
    let stats = net.engine_stats(NODE0);
    let prepares = stats.txn_prepares.max(1) as f64;
    out.insert("txn.begin_ns".into(), median_u64(&mut begin_ns));
    out.insert("txn.on_reply_ns".into(), median_u64(&mut reply_ns));
    out.insert("txn.legs_per_txn".into(), legs as f64 / txns.max(1) as f64);
    out.insert("txn.abort_share".into(), aborts as f64 / done.max(1) as f64);
    out.insert(
        "txn.lock_wait_share".into(),
        stats.txn_lock_waits as f64 / prepares,
    );
    out.insert(
        "txn.busy_share".into(),
        stats.txn_busy_rejects as f64 / prepares,
    );
}

/// One fixed seeded simulator run per deployment shape: its wall time,
/// and its predicted throughput for the caller to set against a
/// measurement. Returns `(predicted mem_put op/s, predicted tcp_mix op/s)`.
fn sim_layer(out: &mut Values) -> (f64, f64) {
    const SIM_SEED: u64 = 0x51A1;
    const VIRTUAL_NS: u64 = 100_000_000;
    let t = Instant::now();
    let tcp = SimBuilder::new(Profile::loopback_tcp(), |m: &[NodeId], me| {
        OnePaxosNode::new(cfg(m, me))
    })
    .replicas(3)
    .clients(2)
    .shards(2)
    .placement(vec![0; 3 * 2 + 2])
    .workload(Workload::ReadMix {
        read_pct: 30,
        keys: 2048,
        hot_pct: 0,
    })
    .duration(VIRTUAL_NS)
    .warmup(VIRTUAL_NS / 10)
    .seed(SIM_SEED)
    .run();
    out.insert("sim.wall_ms".into(), t.elapsed().as_secs_f64() * 1e3);
    let mem = SimBuilder::new(Profile::opteron48(), |m: &[NodeId], me| {
        OnePaxosNode::new(cfg(m, me))
    })
    .replicas(3)
    .clients(2)
    .workload(Workload::ReadMix {
        read_pct: 0,
        keys: 2048,
        hot_pct: 0,
    })
    .duration(VIRTUAL_NS)
    .warmup(VIRTUAL_NS / 10)
    .seed(SIM_SEED)
    .run();
    (mem.throughput, tcp.throughput)
}

/// Runs the whole ladder inside roughly `budget` and returns its
/// numbers plus the simulator's two predictions.
pub fn run(seed: u64, budget: Duration) -> (Values, (f64, f64)) {
    // ~45 timed loops that use a whole unit, five bursts and the
    // transaction lab of four each, the socket loop of three.
    let unit = budget / 70;
    let mut out = Values::new();
    spsc_layer(unit, &mut out);
    wire_layer(unit, &mut out);
    transport_layer(unit, &mut out);
    engine_layer(unit, seed, &mut out);
    rsm_layer(unit, &mut out);
    txn_layer(unit * 4, seed, &mut out);
    let predicted = sim_layer(&mut out);
    (out, predicted)
}
