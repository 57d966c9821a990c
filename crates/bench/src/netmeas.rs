//! Real (non-simulated) measurement of the §3 network characteristics of
//! this machine, using the qc-channel substrate.
//!
//! "We use a sender process assigned to core 0 repeatedly issuing
//! messages to an unbounded queue. The average duration needed to send a
//! message approximates the transmission delay. [...] we again use a
//! sender and a receiving process, this time using a queue that can only
//! hold a single message. [...] latency ≈ 2·trans + 2·prop" (§3).

use std::time::Instant;

use manycore_sim::Profile;
use qc_channel::spsc;

use crate::report::{Outcome, RowArgs};
use crate::table::Table;

/// Results of the §3 measurements on the current machine, in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct NetCharacteristics {
    /// Average cost to place one message on an (effectively) unbounded
    /// queue — the transmission delay.
    pub trans_ns: f64,
    /// Single-slot ping round latency (≈ 2·trans + 2·prop).
    pub single_slot_cycle_ns: f64,
    /// Propagation delay derived via the paper's formula.
    pub prop_ns: f64,
}

impl NetCharacteristics {
    /// The trans/prop ratio — ≈ 1 inside a machine (§3).
    pub fn ratio(&self) -> f64 {
        self.trans_ns / self.prop_ns.max(1.0)
    }
}

/// Measures the transmission delay: `n` sends into a queue large enough
/// to never fill (the paper's unbounded queue).
pub fn measure_transmission(n: usize) -> f64 {
    let (tx, rx) = spsc::channel::<u64>(n + 1);
    let start = Instant::now();
    for i in 0..n {
        tx.try_send(i as u64).expect("queue sized for n sends");
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    drop(rx);
    elapsed / n as f64
}

/// Measures the single-slot cycle: sender spins until the receiver (on
/// another thread/core) drains each message, so every send observes a
/// full transmit + propagate + drain + head-pointer-return cycle.
pub fn measure_single_slot_cycle(n: usize) -> f64 {
    let (tx, rx) = spsc::channel::<u64>(1);
    let consumer = std::thread::spawn(move || {
        let mut got = 0usize;
        while got < n {
            if rx.try_recv().is_some() {
                got += 1;
            } else {
                std::hint::spin_loop();
            }
        }
    });
    let start = Instant::now();
    for i in 0..n {
        tx.send_spin(i as u64);
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    consumer.join().expect("consumer thread");
    elapsed / n as f64
}

/// Runs both §3 experiments and derives the propagation delay with the
/// paper's formula `latency ≈ 2·trans + 2·prop`.
pub fn measure(n: usize) -> NetCharacteristics {
    // Warm-up pass to fault in pages and spin the consumer core up.
    let _ = measure_transmission(n / 4);
    let _ = measure_single_slot_cycle(n / 4);
    let trans_ns = measure_transmission(n);
    let single_slot_cycle_ns = measure_single_slot_cycle(n);
    let prop_ns = ((single_slot_cycle_ns - 2.0 * trans_ns) / 2.0).max(0.0);
    NetCharacteristics {
        trans_ns,
        single_slot_cycle_ns,
        prop_ns,
    }
}

/// The `tab_net` row. §3 measurements: transmission delay, propagation
/// delay and their ratio, many-core (measured on this machine over
/// qc-channel) vs LAN (simulated profile constants; no LAN testbed
/// available).
///
/// Paper values: many-core trans 0.5 µs, prop 0.55 µs (ratio ≈ 1);
/// LAN trans 2 µs, prop 135 µs (ratio ≈ 0.015).
pub fn tab_net_row(_: &RowArgs) -> Outcome {
    let m = measure(400_000);
    let lan = Profile::lan(2);
    let mut t = Table::new(&["setting", "trans (ns)", "prop (ns)", "trans/prop"]);
    t.row(&[
        "many-core (measured)".to_string(),
        format!("{:.0}", m.trans_ns),
        format!("{:.0}", m.prop_ns),
        format!("{:.3}", m.ratio()),
    ]);
    t.row(&["many-core (paper)", "500", "550", "0.909"]);
    t.row(&[
        "LAN (simulated profile)".to_string(),
        format!("{}", lan.tx),
        format!("{}", lan.prop_remote),
        format!("{:.3}", lan.trans_prop_ratio()),
    ]);
    t.row(&["LAN (paper)", "2000", "135000", "0.015"]);
    println!(
        "§3 — network characteristics (single-slot cycle measured: {:.0} ns)\n",
        m.single_slot_cycle_ns
    );
    print!("{}", t.render());
    println!("\npaper shape: the many-core ratio is ~2 orders of magnitude larger than the LAN's.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_is_submicrosecond() {
        let t = measure_transmission(100_000);
        assert!(t > 0.0);
        // Even slow shared machines place a message in well under 5 µs.
        assert!(t < 5_000.0, "transmission {t} ns");
    }

    #[test]
    fn cycle_exceeds_two_transmissions() {
        let c = measure(50_000);
        assert!(
            c.single_slot_cycle_ns >= 2.0 * c.trans_ns * 0.5,
            "cycle {} vs trans {}",
            c.single_slot_cycle_ns,
            c.trans_ns
        );
        assert!(c.prop_ns >= 0.0);
    }
}
