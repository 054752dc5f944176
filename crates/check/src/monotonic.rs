//! Monotonic reads at O(1) per operation, for storms too long to record.
//!
//! Each client thread owns one [`MonotonicReads`]. It keeps, per key, the
//! newest version the thread has had acknowledged or has read, and a read
//! of an older version — or of nothing, once a version is known — is a
//! [`StaleRead`]. Unlike [`linearize`](crate::linearize) it keeps no
//! history and searches nothing, so it checks millions of operations
//! inline. It is sound when a key's versions ascend in the order their
//! puts are acknowledged, as they do with one writer per key.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// A read older than what its thread already knew of the key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleRead<K> {
    /// The key read.
    pub key: K,
    /// The version read; `None` if the read found no value.
    pub read: Option<u64>,
    /// The newest version the thread had acknowledged or read before.
    pub known: u64,
}

impl<K: fmt::Debug> fmt::Display for StaleRead<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.read {
            Some(v) => write!(
                f,
                "key {:?}: read version {v} after {}",
                self.key, self.known
            ),
            None => write!(
                f,
                "key {:?}: read nothing after version {}",
                self.key, self.known
            ),
        }
    }
}

/// One thread's newest known version of each key.
#[derive(Debug, Clone)]
pub struct MonotonicReads<K> {
    known: HashMap<K, u64>,
}

impl<K> Default for MonotonicReads<K> {
    fn default() -> Self {
        MonotonicReads {
            known: HashMap::new(),
        }
    }
}

impl<K: Hash + Eq> MonotonicReads<K> {
    /// A checker that knows no version yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that a put of `version` to `key` was acknowledged.
    pub fn acked(&mut self, key: K, version: u64) {
        let known = self.known.entry(key).or_insert(version);
        *known = (*known).max(version);
    }

    /// Checks a read of `key` that returned `read`, and records it.
    ///
    /// # Errors
    ///
    /// Returns the [`StaleRead`] if `read` is older than the newest
    /// version this thread acknowledged or read of `key`.
    pub fn read(&mut self, key: K, read: Option<u64>) -> Result<(), StaleRead<K>> {
        let known = self.known.get(&key).copied();
        if let Some(known) = known.filter(|&k| read.is_none_or(|v| v < k)) {
            return Err(StaleRead { key, read, known });
        }
        if let Some(v) = read {
            self.acked(key, v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_read_older_than_an_ack_is_stale() {
        let mut m = MonotonicReads::new();
        m.acked("k", 3);
        assert_eq!(m.read("k", Some(3)), Ok(()));
        assert_eq!(m.read("k", Some(4)), Ok(()));
        let stale = m.read("k", Some(2)).unwrap_err();
        assert_eq!((stale.read, stale.known), (Some(2), 4));
        assert_eq!(stale.to_string(), "key \"k\": read version 2 after 4");
    }

    #[test]
    fn a_read_older_than_an_earlier_read_is_stale() {
        let mut m = MonotonicReads::new();
        assert_eq!(m.read(7u64, None), Ok(()));
        assert_eq!(m.read(7, Some(5)), Ok(()));
        assert!(m.read(7, Some(4)).is_err());
        let missing = m.read(7, None).unwrap_err();
        assert_eq!((missing.read, missing.known), (None, 5));
        // Keys are independent.
        assert_eq!(m.read(8, Some(1)), Ok(()));
    }

    #[test]
    fn an_older_ack_does_not_lower_what_is_known() {
        let mut m = MonotonicReads::new();
        m.acked(1u64, 9);
        m.acked(1, 2);
        assert!(m.read(1, Some(8)).is_err());
    }
}
