//! `InstanceLog` against a `BTreeMap` reference.
//!
//! Arbitrary sequences of in-order appends, inserts anywhere (below the
//! base, into holes, far ahead of the newest entry), removes, lookups,
//! truncations by `drain_below` and `range_from` scans drive a log and a
//! map side by side. After every step every observable must agree: the
//! ascending entries, `len`, `is_empty`, `last_key`, `keys`, `values`
//! and content equality with a log rebuilt from the map.

use std::collections::BTreeMap;

use onepaxos::instance_log::InstanceLog;
use onepaxos::Instance;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Step {
    /// Insert just past the newest entry (the commit path's case).
    Append(u32),
    Insert(Instance, u32),
    Remove(Instance),
    Get(Instance),
    DrainBelow(Instance),
    RangeFrom(Instance),
}

/// Instances near the live span, or far ahead of it (a wide hole).
fn instance() -> impl Strategy<Value = Instance> {
    prop_oneof![
        8 => 0u64..96,
        1 => 400u64..480,
    ]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => any::<u32>().prop_map(Step::Append),
        4 => (instance(), any::<u32>()).prop_map(|(i, v)| Step::Insert(i, v)),
        3 => instance().prop_map(Step::Remove),
        2 => instance().prop_map(Step::Get),
        1 => (0u64..120).prop_map(Step::DrainBelow),
        1 => instance().prop_map(Step::RangeFrom),
    ]
}

fn entries(log: &InstanceLog<u32>) -> Vec<(Instance, u32)> {
    log.iter().map(|(i, &v)| (i, v)).collect()
}

fn run(steps: &[Step]) -> Result<(), TestCaseError> {
    let mut log = InstanceLog::new();
    let mut map: BTreeMap<Instance, u32> = BTreeMap::new();
    for step in steps {
        match *step {
            Step::Append(v) => {
                let next = map.keys().next_back().map_or(0, |&i| i + 1);
                prop_assert_eq!(log.insert(next, v), map.insert(next, v));
            }
            Step::Insert(i, v) => prop_assert_eq!(log.insert(i, v), map.insert(i, v)),
            Step::Remove(i) => prop_assert_eq!(log.remove(i), map.remove(&i)),
            Step::Get(i) => {
                prop_assert_eq!(log.get(i), map.get(&i));
                prop_assert_eq!(log.contains_key(i), map.contains_key(&i));
            }
            Step::DrainBelow(floor) => {
                let kept = map.split_off(&floor);
                let below: Vec<u32> = std::mem::replace(&mut map, kept).into_values().collect();
                prop_assert_eq!(log.drain_below(floor), below);
            }
            Step::RangeFrom(from) => {
                let got: Vec<(Instance, u32)> =
                    log.range_from(from).map(|(i, &v)| (i, v)).collect();
                let want: Vec<(Instance, u32)> = map.range(from..).map(|(&i, &v)| (i, v)).collect();
                prop_assert_eq!(got, want);
            }
        }
        let want: Vec<(Instance, u32)> = map.iter().map(|(&i, &v)| (i, v)).collect();
        prop_assert_eq!(entries(&log), want);
        prop_assert_eq!(log.len(), map.len());
        prop_assert_eq!(log.is_empty(), map.is_empty());
        prop_assert_eq!(log.last_key(), map.keys().next_back().copied());
        prop_assert!(log.keys().eq(map.keys().copied()));
        prop_assert!(log.values().eq(map.values()));
    }
    // Content equality ignores layout: a log rebuilt in descending
    // order (every insert below the base) equals the worked one.
    let mut rebuilt = InstanceLog::new();
    for (&i, &v) in map.iter().rev() {
        rebuilt.insert(i, v);
    }
    prop_assert_eq!(&rebuilt, &log);
    for i in 0..500 {
        prop_assert_eq!(log.get(i), map.get(&i));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        ..ProptestConfig::default()
    })]

    #[test]
    fn instance_log_matches_an_ordered_map(steps in prop::collection::vec(step(), 0..120)) {
        run(&steps)?;
    }
}
