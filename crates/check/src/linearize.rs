//! Per-key Wing–Gong linearizability checker for register semantics.
//!
//! MioDB's single-key operations (`put`, `get`, `delete`) form a
//! read/write register per key, and keys are independent: a history is
//! linearizable iff each per-key sub-history is. Partitioning by key keeps
//! the NP-hard search tractable — the exponential is in ops *per key*,
//! not total ops.
//!
//! The search is the classic Wing–Gong recursion with the
//! Lowe-style memoization on (set of linearized ops, register state):
//! repeatedly pick a *minimal* pending operation (one invoked before every
//! pending operation returns), apply it to the candidate register state,
//! and recurse. Ambiguous operations ([`Observed::Maybe`], including calls
//! that never returned before a crash) are *optional*: the search may
//! linearize them at any point after their invocation — their effect
//! window is `[invoke, ∞)` because a lost acknowledgement can still take
//! effect later — or never linearize them at all.
//!
//! Histories are assumed to start from an empty keyspace (fresh engine):
//! the initial register state of every key is "absent".

use crate::history::{History, Observed, OpAction, RecordedOp};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A linearizability violation: no valid linearization exists for one key.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The key whose sub-history cannot be linearized.
    pub key: Vec<u8>,
    /// Human-readable explanation.
    pub detail: String,
    /// The offending key's operations, rendered in invocation order.
    pub ops: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "linearizability violation on key {:?}: {}",
            String::from_utf8_lossy(&self.key),
            self.detail
        )?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

/// Search statistics from a successful check.
#[derive(Debug, Clone, Default)]
pub struct CheckStats {
    /// Distinct keys checked.
    pub keys: usize,
    /// Operations considered (after dropping no-information failures).
    pub ops: usize,
    /// Search nodes explored across all keys.
    pub states_explored: u64,
}

/// Outcome of checking one history.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// A linearization exists for every key.
    Linearizable(CheckStats),
    /// Some key's sub-history admits no linearization.
    Violation(Violation),
    /// The search budget was exhausted before a decision (raise
    /// [`CheckOptions::max_states_per_key`] or shrink the history).
    Indeterminate {
        /// The key whose search exceeded the budget.
        key: Vec<u8>,
        /// Nodes explored before giving up.
        states_explored: u64,
    },
}

impl Verdict {
    /// True when the history was proven linearizable.
    #[must_use]
    pub fn is_linearizable(&self) -> bool {
        matches!(self, Verdict::Linearizable(_))
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Linearizable(s) => write!(
                f,
                "linearizable ({} ops over {} keys, {} states)",
                s.ops, s.keys, s.states_explored
            ),
            Verdict::Violation(v) => write!(f, "{v}"),
            Verdict::Indeterminate {
                key,
                states_explored,
            } => write!(
                f,
                "indeterminate: search budget exhausted on key {:?} after {} states",
                String::from_utf8_lossy(key),
                states_explored
            ),
        }
    }
}

/// Checker knobs.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Per-key cap on explored search nodes before the checker returns
    /// [`Verdict::Indeterminate`] instead of running unboundedly.
    pub max_states_per_key: u64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_states_per_key: 5_000_000,
        }
    }
}

/// Register value ids: 0 is "absent", >0 intern concrete byte strings.
const ABSENT: u32 = 0;

#[derive(Clone, Copy)]
enum Act {
    /// Sets the register to this value id (a delete writes [`ABSENT`]).
    Write(u32),
    /// Observed this value id; legal only when it matches the state.
    Read(u32),
}

#[derive(Clone, Copy)]
struct POp {
    invoke: u64,
    ret: u64,
    act: Act,
    /// Optional ops (ambiguous outcomes) may be skipped by the search.
    optional: bool,
    /// Index into the rendered-op list, for violation reports.
    src: usize,
}

/// Checks `history` for per-key linearizability with default options.
#[must_use]
pub fn check_history(history: &History) -> Verdict {
    check_history_with(history, &CheckOptions::default())
}

/// Checks `history` for per-key linearizability.
#[must_use]
pub fn check_history_with(history: &History, opts: &CheckOptions) -> Verdict {
    let mut by_key: HashMap<&[u8], Vec<&RecordedOp>> = HashMap::new();
    for op in &history.ops {
        by_key.entry(op.key.as_slice()).or_default().push(op);
    }
    // Deterministic key order so failures reproduce identically.
    let mut keys: Vec<&[u8]> = by_key.keys().copied().collect();
    keys.sort_unstable();

    let mut stats = CheckStats {
        keys: keys.len(),
        ..CheckStats::default()
    };
    for key in keys {
        let ops = &by_key[key];
        match check_key(key, ops, opts) {
            KeyOutcome::Ok { ops, states } => {
                stats.ops += ops;
                stats.states_explored += states;
            }
            KeyOutcome::Violation(v) => return Verdict::Violation(v),
            KeyOutcome::Budget { states } => {
                return Verdict::Indeterminate {
                    key: key.to_vec(),
                    states_explored: stats.states_explored + states,
                }
            }
        }
    }
    Verdict::Linearizable(stats)
}

enum KeyOutcome {
    Ok { ops: usize, states: u64 },
    Violation(Violation),
    Budget { states: u64 },
}

fn check_key(key: &[u8], recorded: &[&RecordedOp], opts: &CheckOptions) -> KeyOutcome {
    // Intern values so the register state is a small integer.
    let mut interned: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut intern = |v: Option<&[u8]>| -> u32 {
        match v {
            None => ABSENT,
            Some(bytes) => {
                let next = u32::try_from(interned.len()).expect("too many distinct values") + 1;
                *interned.entry(bytes.to_vec()).or_insert(next)
            }
        }
    };

    let mut sorted: Vec<&RecordedOp> = recorded.to_vec();
    sorted.sort_by_key(|o| (o.invoke_ns, o.return_ns));

    let mut ops: Vec<POp> = Vec::with_capacity(sorted.len());
    for (src, op) in sorted.iter().enumerate() {
        let pop = match (&op.action, &op.observed) {
            // Failed reads and definite-failure mutations carry no
            // constraint; drop them.
            (_, Observed::Never) | (OpAction::Get, Observed::Maybe) => continue,
            (OpAction::Get, Observed::Read(v)) => POp {
                invoke: op.invoke_ns,
                ret: op.return_ns,
                act: Act::Read(intern(v.as_deref())),
                optional: false,
                src,
            },
            (OpAction::Put(v), Observed::Acked) => POp {
                invoke: op.invoke_ns,
                ret: op.return_ns,
                act: Act::Write(intern(Some(v))),
                optional: false,
                src,
            },
            (OpAction::Delete, Observed::Acked) => POp {
                invoke: op.invoke_ns,
                ret: op.return_ns,
                act: Act::Write(ABSENT),
                optional: false,
                src,
            },
            // Ambiguous mutations: effect window [invoke, ∞), skippable.
            (OpAction::Put(v), Observed::Maybe) => POp {
                invoke: op.invoke_ns,
                ret: u64::MAX,
                act: Act::Write(intern(Some(v))),
                optional: true,
                src,
            },
            (OpAction::Delete, Observed::Maybe) => POp {
                invoke: op.invoke_ns,
                ret: u64::MAX,
                act: Act::Write(ABSENT),
                optional: true,
                src,
            },
            // Remaining combinations (e.g. a Get recorded as Acked) are
            // malformed records; ignoring them is the conservative choice.
            _ => continue,
        };
        ops.push(pop);
    }

    if ops.is_empty() {
        return KeyOutcome::Ok { ops: 0, states: 0 };
    }

    let mut search = Search {
        ops: &ops,
        words: ops.len().div_ceil(64),
        memo: HashSet::new(),
        states: 0,
        budget: opts.max_states_per_key,
    };
    let mut mask = vec![0u64; search.words];
    match search.dfs(&mut mask, ABSENT) {
        Err(()) => KeyOutcome::Budget {
            states: search.states,
        },
        Ok(true) => KeyOutcome::Ok {
            ops: ops.len(),
            states: search.states,
        },
        Ok(false) => KeyOutcome::Violation(Violation {
            key: key.to_vec(),
            detail: format!(
                "no linearization exists over {} operations ({} search states)",
                ops.len(),
                search.states
            ),
            ops: ops.iter().map(|p| render_op(sorted[p.src], p)).collect(),
        }),
    }
}

struct Search<'a> {
    ops: &'a [POp],
    words: usize,
    /// Lowe memoization: a (linearized-set, state) pair that already
    /// failed will fail again.
    memo: HashSet<(Box<[u64]>, u32)>,
    states: u64,
    budget: u64,
}

impl Search<'_> {
    fn dfs(&mut self, mask: &mut [u64], state: u32) -> Result<bool, ()> {
        self.states += 1;
        if self.states > self.budget {
            return Err(());
        }
        // Done once every required op is linearized; pending optional ops
        // are simply "never took effect".
        let mut min_ret = u64::MAX;
        let mut all_required_done = true;
        for (i, op) in self.ops.iter().enumerate() {
            if mask[i / 64] & (1u64 << (i % 64)) != 0 {
                continue;
            }
            if !op.optional {
                all_required_done = false;
            }
            min_ret = min_ret.min(op.ret);
        }
        if all_required_done {
            return Ok(true);
        }
        if !self.memo.insert((mask.to_vec().into_boxed_slice(), state)) {
            return Ok(false);
        }
        for (i, op) in self.ops.iter().enumerate() {
            if mask[i / 64] & (1u64 << (i % 64)) != 0 {
                continue;
            }
            // Wing–Gong minimality: an op may be linearized next only if
            // it was invoked before every pending op returned.
            if op.invoke > min_ret {
                continue;
            }
            let next_state = match op.act {
                Act::Write(v) => v,
                Act::Read(v) => {
                    if v != state {
                        continue;
                    }
                    state
                }
            };
            mask[i / 64] |= 1u64 << (i % 64);
            if self.dfs(mask, next_state)? {
                return Ok(true);
            }
            mask[i / 64] &= !(1u64 << (i % 64));
        }
        Ok(false)
    }
}

fn render_op(op: &RecordedOp, pop: &POp) -> String {
    let action = match &op.action {
        OpAction::Put(v) => format!("put({})", preview(v)),
        OpAction::Delete => "delete".to_string(),
        OpAction::Get => "get".to_string(),
    };
    let observed = match &op.observed {
        Observed::Acked => "acked".to_string(),
        Observed::Read(Some(v)) => format!("read {}", preview(v)),
        Observed::Read(None) => "read absent".to_string(),
        Observed::Maybe => "maybe-applied".to_string(),
        Observed::Never => "never-applied".to_string(),
    };
    let ret = if op.return_ns == u64::MAX {
        "crash".to_string()
    } else {
        format!("{}", op.return_ns)
    };
    format!(
        "p{:<3} [{:>12} .. {:>12}] {action} -> {observed}{}",
        op.process,
        op.invoke_ns,
        ret,
        if pop.optional { " (optional)" } else { "" }
    )
}

/// The first 24 bytes of a value, quoted. Cut as bytes before decoding: a
/// lossily decoded string has no char boundary it can be sliced at safely.
fn preview(v: &[u8]) -> String {
    const MAX: usize = 24;
    let head = String::from_utf8_lossy(&v[..v.len().min(MAX)]);
    if v.len() <= MAX {
        format!("{head:?}")
    } else {
        format!("{head:?}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RecordedOp;

    #[test]
    fn preview_truncates_non_utf8_and_multibyte_values_without_panicking() {
        // 0xA5 is a UTF-8 continuation byte: each decodes to one U+FFFD,
        // and the preview is 24 bytes of the value, not of the decoding.
        let p = preview(&[0xA5; 64]);
        assert_eq!(p.chars().filter(|c| *c == '\u{FFFD}').count(), 24, "{p}");
        assert!(p.ends_with('…'));
        // 23 ASCII bytes, then a 2-byte char straddling the cut: slicing
        // the decoded string at byte 24 would panic.
        let p = preview(format!("{}é and more", "x".repeat(23)).as_bytes());
        assert!(p.starts_with("\"xxxxxxxxxxxxxxxxxxxxxxx"), "{p}");
        assert_eq!(preview(b"short"), "\"short\"");
    }

    fn op(
        process: u32,
        key: &str,
        action: OpAction,
        invoke: u64,
        ret: u64,
        observed: Observed,
    ) -> RecordedOp {
        RecordedOp {
            process,
            key: key.as_bytes().to_vec(),
            action,
            invoke_ns: invoke,
            return_ns: ret,
            observed,
        }
    }

    fn put(p: u32, k: &str, v: &str, i: u64, r: u64) -> RecordedOp {
        op(
            p,
            k,
            OpAction::Put(v.as_bytes().to_vec()),
            i,
            r,
            Observed::Acked,
        )
    }

    fn get(p: u32, k: &str, v: Option<&str>, i: u64, r: u64) -> RecordedOp {
        op(
            p,
            k,
            OpAction::Get,
            i,
            r,
            Observed::Read(v.map(|s| s.as_bytes().to_vec())),
        )
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let h = History {
            ops: vec![
                put(0, "k", "a", 0, 10),
                get(0, "k", Some("a"), 20, 30),
                op(0, "k", OpAction::Delete, 40, 50, Observed::Acked),
                get(0, "k", None, 60, 70),
            ],
        };
        assert!(check_history(&h).is_linearizable());
    }

    #[test]
    fn read_before_any_write_must_be_absent() {
        let h = History {
            ops: vec![get(0, "k", Some("ghost"), 0, 10), put(1, "k", "a", 20, 30)],
        };
        assert!(matches!(check_history(&h), Verdict::Violation(_)));
    }

    #[test]
    fn concurrent_reads_may_disagree_within_overlap() {
        // put(b) overlaps both reads: one may see the old value, the other
        // the new — order the linearization points accordingly.
        let h = History {
            ops: vec![
                put(0, "k", "a", 0, 10),
                put(0, "k", "b", 20, 60),
                get(1, "k", Some("a"), 25, 35),
                get(2, "k", Some("b"), 30, 40),
            ],
        };
        assert!(check_history(&h).is_linearizable());
    }

    #[test]
    fn stale_read_after_ack_is_rejected() {
        // put(b) acked at 30; a read starting at 40 must not see "a".
        let h = History {
            ops: vec![
                put(0, "k", "a", 0, 10),
                put(0, "k", "b", 20, 30),
                get(1, "k", Some("a"), 40, 50),
            ],
        };
        match check_history(&h) {
            Verdict::Violation(v) => assert_eq!(v.key, b"k"),
            other => panic!("expected violation, got {other}"),
        }
    }

    #[test]
    fn lost_acked_write_is_rejected() {
        let h = History {
            ops: vec![put(0, "k", "a", 0, 10), get(0, "k", None, 20, 30)],
        };
        assert!(matches!(check_history(&h), Verdict::Violation(_)));
    }

    #[test]
    fn maybe_applied_put_allows_both_outcomes() {
        // The ambiguous put may or may not have landed.
        let seen = History {
            ops: vec![
                op(0, "k", OpAction::Put(b"x".to_vec()), 0, 10, Observed::Maybe),
                get(1, "k", Some("x"), 20, 30),
            ],
        };
        let unseen = History {
            ops: vec![
                op(0, "k", OpAction::Put(b"x".to_vec()), 0, 10, Observed::Maybe),
                get(1, "k", None, 20, 30),
            ],
        };
        assert!(check_history(&seen).is_linearizable());
        assert!(check_history(&unseen).is_linearizable());
    }

    #[test]
    fn maybe_applied_effect_may_land_after_error_return() {
        // The error returned at t=10, but the write surfaced later — the
        // [invoke, ∞) effect window accepts it.
        let h = History {
            ops: vec![
                op(0, "k", OpAction::Put(b"x".to_vec()), 0, 10, Observed::Maybe),
                get(1, "k", None, 15, 20),
                get(1, "k", Some("x"), 30, 40),
            ],
        };
        assert!(check_history(&h).is_linearizable());
    }

    #[test]
    fn maybe_applied_value_cannot_flicker_back() {
        // Once the ambiguous write is observed, a later read cannot revert
        // to the pre-write value without another writer.
        let h = History {
            ops: vec![
                put(0, "k", "a", 0, 10),
                op(
                    0,
                    "k",
                    OpAction::Put(b"x".to_vec()),
                    20,
                    30,
                    Observed::Maybe,
                ),
                get(1, "k", Some("x"), 40, 50),
                get(1, "k", Some("a"), 60, 70),
            ],
        };
        assert!(matches!(check_history(&h), Verdict::Violation(_)));
    }

    #[test]
    fn crashed_call_is_ambiguous() {
        let h = History {
            ops: vec![
                op(
                    0,
                    "k",
                    OpAction::Put(b"x".to_vec()),
                    0,
                    u64::MAX,
                    Observed::Maybe,
                ),
                get(1, "k", Some("x"), 5, 9),
            ],
        };
        assert!(check_history(&h).is_linearizable());
    }

    #[test]
    fn delete_semantics() {
        // Concurrent delete and read: read may see either side, but after
        // the delete acks, reads must see absent until the next put.
        let h = History {
            ops: vec![
                put(0, "k", "a", 0, 10),
                op(0, "k", OpAction::Delete, 20, 30, Observed::Acked),
                get(1, "k", Some("a"), 22, 28),
                get(1, "k", None, 40, 50),
            ],
        };
        assert!(check_history(&h).is_linearizable());
        let bad = History {
            ops: vec![
                put(0, "k", "a", 0, 10),
                op(0, "k", OpAction::Delete, 20, 30, Observed::Acked),
                get(1, "k", Some("a"), 40, 50),
            ],
        };
        assert!(matches!(check_history(&bad), Verdict::Violation(_)));
    }

    #[test]
    fn keys_are_independent() {
        // A violation on one key names that key.
        let h = History {
            ops: vec![
                put(0, "good", "a", 0, 10),
                get(0, "good", Some("a"), 20, 30),
                put(0, "bad", "a", 0, 10),
                get(0, "bad", Some("phantom"), 20, 30),
            ],
        };
        match check_history(&h) {
            Verdict::Violation(v) => assert_eq!(v.key, b"bad"),
            other => panic!("expected violation, got {other}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_indeterminate_not_wrong() {
        // Many fully-overlapping ambiguous writes force a big search.
        let mut ops = Vec::new();
        for i in 0..24u32 {
            ops.push(op(
                i,
                "k",
                OpAction::Put(format!("v{i}").into_bytes()),
                0,
                100,
                Observed::Maybe,
            ));
        }
        ops.push(get(99, "k", Some("v7"), 200, 210));
        let h = History { ops };
        let verdict = check_history_with(
            &h,
            &CheckOptions {
                max_states_per_key: 10,
            },
        );
        assert!(matches!(verdict, Verdict::Indeterminate { .. }));
    }

    #[test]
    fn violation_renders_ops() {
        let h = History {
            ops: vec![put(0, "k", "a", 0, 10), get(0, "k", None, 20, 30)],
        };
        match check_history(&h) {
            Verdict::Violation(v) => {
                let text = v.to_string();
                assert!(text.contains("put"), "{text}");
                assert!(text.contains("read absent"), "{text}");
            }
            other => panic!("expected violation, got {other}"),
        }
    }
}
