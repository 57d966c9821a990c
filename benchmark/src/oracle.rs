//! Reply oracle: a per-client model over the keys only that client
//! writes. A `put` must return the previous value, a `get` the last
//! write, a committed `txn_put` writes both keys and an aborted one
//! neither (both observed through later reads of those keys). Keys of
//! the shared hot set are written by transactions of either client, so
//! they are checked at the end of the run against both clients' last
//! committed writes.

use crate::gen::{HOT_KEYS, KEYS_PER_CLIENT};

#[derive(Debug)]
pub struct Model {
    /// `None` after a write whose fate is unknown (it timed out): the
    /// next reply on that key is learned instead of checked.
    own: Vec<Option<Option<u64>>>,
    /// This client's last committed transactional write per hot key.
    pub hot: [Option<u64>; HOT_KEYS],
    /// Hot keys a timed-out transaction of this client may have written.
    pub hot_unknown: [bool; HOT_KEYS],
}

impl Default for Model {
    fn default() -> Self {
        Model {
            own: vec![Some(None); KEYS_PER_CLIENT],
            hot: [None; HOT_KEYS],
            hot_unknown: [false; HOT_KEYS],
        }
    }
}

impl Model {
    /// Checks a value the system returned for own key `i` (a `get`'s
    /// result or a `put`'s previous value) against the model.
    pub fn check(&mut self, i: u16, got: Option<u64>) -> bool {
        match self.own[i as usize] {
            Some(expected) => expected == got,
            None => {
                self.own[i as usize] = Some(got);
                true
            }
        }
    }

    pub fn wrote(&mut self, i: u16, value: u64) {
        self.own[i as usize] = Some(Some(value));
    }

    pub fn forget(&mut self, i: u16) {
        self.own[i as usize] = None;
    }
}

/// The end-of-run check of a hot key: its final value is the later of
/// the two clients' last committed writes, so it must be one of them.
pub fn hot_final_ok(models: &[&Model], k: usize, got: Option<u64>) -> bool {
    models.iter().any(|m| m.hot_unknown[k]) || models.iter().any(|m| m.hot[k] == got)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_and_unknown_writes() {
        let mut m = Model::default();
        assert!(m.check(3, None));
        m.wrote(3, 10);
        assert!(m.check(3, Some(10)));
        assert!(!m.check(3, Some(11)));
        assert!(!m.check(3, None));
        m.forget(3);
        assert!(m.check(3, Some(12)), "an unknown key learns the reply");
        assert!(!m.check(3, Some(10)));
    }

    #[test]
    fn hot_key_accepts_either_clients_last_commit() {
        let (mut a, mut b) = (Model::default(), Model::default());
        a.hot[2] = Some(5);
        b.hot[2] = Some(9);
        assert!(hot_final_ok(&[&a, &b], 2, Some(5)));
        assert!(hot_final_ok(&[&a, &b], 2, Some(9)));
        assert!(!hot_final_ok(&[&a, &b], 2, Some(7)));
        assert!(!hot_final_ok(&[&a, &b], 2, None));
        b.hot_unknown[2] = true;
        assert!(hot_final_ok(&[&a, &b], 2, Some(7)));
    }
}
