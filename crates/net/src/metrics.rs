//! Communication and round accounting.
//!
//! The paper bounds `BITSℓ(Π)` — the worst-case total number of bits sent by
//! *honest* parties — and `ROUNDSℓ(Π)`. The simulator measures both exactly,
//! attributed to hierarchical protocol scopes (e.g.
//! `"pi_n/find_prefix/lba+"`), which is what powers the per-subprotocol
//! breakdown experiment (F3).

use std::collections::BTreeMap;
use std::fmt;

use ca_trace::Histogram;

/// Counters for one scope path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeMetrics {
    /// Bits sent by honest parties while this scope was innermost.
    pub honest_bits: u64,
    /// Messages sent by honest parties (excluding self-delivery).
    pub honest_msgs: u64,
    /// Rounds spent while this scope was innermost.
    pub rounds: u64,
}

impl ScopeMetrics {
    fn absorb(&mut self, other: &ScopeMetrics) {
        self.honest_bits += other.honest_bits;
        self.honest_msgs += other.honest_msgs;
        self.rounds += other.rounds;
    }
}

/// Aggregate measurements of one protocol run.
///
/// # What `honest_bits` includes
///
/// `honest_bits` counts **payload bits only**: `8 ×` the encoded message
/// length handed to `Comm::send_bytes`, summed over honest senders,
/// excluding self-delivery. It deliberately excludes transport framing
/// (length prefixes, round tags, `ca-runtime`'s `Frame` envelope): the
/// paper's `BITSℓ(Π)` is a statement about the protocol, not about any
/// particular wire format. The TCP runtime's actual wire overhead is
/// documented and computable via `ca-runtime`'s `Frame::wire_len`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Total bits sent by honest parties: the paper's `BITSℓ(Π)`.
    pub honest_bits: u64,
    /// Total messages sent by honest parties (excluding self-delivery).
    pub honest_msgs: u64,
    /// Bits sent by corrupted parties (informational; not part of `BITSℓ`).
    pub adversary_bits: u64,
    /// Rounds executed: the paper's `ROUNDSℓ(Π)`.
    pub rounds: u64,
    /// Per-scope breakdown, keyed by `/`-joined scope path.
    pub per_scope: BTreeMap<String, ScopeMetrics>,
    /// Size distribution (payload bytes) of honest messages.
    pub msg_bytes: Histogram,
    /// Distribution of honest bits sent per completed round.
    pub round_bits: Histogram,
    /// Per-scope message-size distributions (same keys as `per_scope`).
    pub scope_msg_bytes: BTreeMap<String, Histogram>,
    /// Honest bits accumulated since the last completed round (feeds
    /// `round_bits`; private so the histograms stay consistent).
    bits_this_round: u64,
}

impl Metrics {
    /// Records one honest sender's round under `scope`: one message of
    /// each given payload length (self-deliveries excluded by the caller).
    /// A batch with no messages records nothing.
    pub fn record_honest_sends(&mut self, scope: &str, lens: impl IntoIterator<Item = usize>) {
        let mut lens = lens.into_iter().peekable();
        if lens.peek().is_none() {
            return;
        }
        let (mut bits, mut msgs) = (0, 0);
        let msg_bytes = &mut self.msg_bytes;
        in_scope(&mut self.scope_msg_bytes, scope, |hist| {
            for len in lens {
                hist.record(len as u64);
                msg_bytes.record(len as u64);
                bits += 8 * len as u64;
                msgs += 1;
            }
        });
        self.honest_bits += bits;
        self.honest_msgs += msgs;
        self.bits_this_round += bits;
        in_scope(&mut self.per_scope, scope, |entry| {
            entry.honest_bits += bits;
            entry.honest_msgs += msgs;
        });
    }

    /// Records a corrupted-party send.
    pub fn record_adversary_send(&mut self, bytes: usize) {
        self.adversary_bits += 8 * bytes as u64;
    }

    /// Records one completed round attributed to `scope`.
    pub fn record_round(&mut self, scope: &str) {
        self.rounds += 1;
        in_scope(&mut self.per_scope, scope, |entry| entry.rounds += 1);
        self.round_bits.record(self.bits_this_round);
        self.bits_this_round = 0;
    }

    /// Sums counters over every scope whose path starts with `prefix`
    /// (path components compared exactly).
    pub fn scope_subtree(&self, prefix: &str) -> ScopeMetrics {
        let mut total = ScopeMetrics::default();
        for (path, m) in &self.per_scope {
            if path == prefix || path.starts_with(&format!("{prefix}/")) {
                total.absorb(m);
            }
        }
        total
    }

    /// Merges another run's metrics into this one (used by multi-run sweeps).
    pub fn absorb(&mut self, other: &Metrics) {
        self.honest_bits += other.honest_bits;
        self.honest_msgs += other.honest_msgs;
        self.adversary_bits += other.adversary_bits;
        self.rounds += other.rounds;
        for (path, m) in &other.per_scope {
            self.per_scope.entry(path.clone()).or_default().absorb(m);
        }
        self.msg_bytes.merge(&other.msg_bytes);
        self.round_bits.merge(&other.round_bits);
        for (path, h) in &other.scope_msg_bytes {
            self.scope_msg_bytes
                .entry(path.clone())
                .or_default()
                .merge(h);
        }
        self.bits_this_round += other.bits_this_round;
    }
}

/// Runs `f` on `scope`'s entry of `map`, creating it only if absent, so
/// the hot path allocates no key.
fn in_scope<V: Default>(map: &mut BTreeMap<String, V>, scope: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(scope) {
        Some(v) => f(v),
        None => f(map.entry(scope.to_owned()).or_default()),
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} rounds, {} honest bits ({} msgs), {} adversary bits",
            self.rounds, self.honest_bits, self.honest_msgs, self.adversary_bits
        )?;
        for (path, m) in &self.per_scope {
            writeln!(
                f,
                "  {:<40} {:>12} bits {:>8} msgs {:>6} rounds",
                path, m.honest_bits, m.honest_msgs, m.rounds
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_subtree_sums_children() {
        let mut m = Metrics::default();
        m.record_honest_sends("a/b", [10]);
        m.record_honest_sends("a/c", [5]);
        m.record_honest_sends("a", [1]);
        m.record_honest_sends("ab", [100]); // must NOT match prefix "a"
        let sub = m.scope_subtree("a");
        assert_eq!(sub.honest_bits, 8 * 16);
        assert_eq!(sub.honest_msgs, 3);
    }

    #[test]
    fn histograms_track_sends_and_rounds() {
        let mut m = Metrics::default();
        m.record_honest_sends("a", [10, 100]);
        m.record_round("a");
        m.record_honest_sends("b", [1]);
        m.record_round("b");
        assert_eq!(m.msg_bytes.count(), 3);
        assert_eq!(m.msg_bytes.max(), 100);
        assert_eq!(m.round_bits.count(), 2);
        assert_eq!(m.round_bits.max(), 8 * 110);
        assert_eq!(m.round_bits.min(), 8);
        assert_eq!(m.scope_msg_bytes["a"].count(), 2);
        assert_eq!(m.scope_msg_bytes["b"].sum(), 1);
    }

    #[test]
    fn empty_batch_records_nothing() {
        let mut m = Metrics::default();
        m.record_honest_sends("a", []);
        assert_eq!(m, Metrics::default());
    }

    #[test]
    fn metrics_equality_is_field_exact() {
        let mut a = Metrics::default();
        let mut b = Metrics::default();
        a.record_honest_sends("x", [4]);
        assert_ne!(a, b);
        b.record_honest_sends("x", [4]);
        assert_eq!(a, b);
    }

    #[test]
    fn absorb_merges() {
        let mut a = Metrics::default();
        a.record_honest_sends("x", [1]);
        a.record_round("x");
        let mut b = Metrics::default();
        b.record_honest_sends("x", [2]);
        b.record_adversary_send(4);
        a.absorb(&b);
        assert_eq!(a.honest_bits, 24);
        assert_eq!(a.adversary_bits, 32);
        assert_eq!(a.per_scope["x"].honest_msgs, 2);
        assert_eq!(a.rounds, 1);
    }
}
