//! Per-round received messages.

use bytes::Bytes;
use ca_codec::Decode;

use crate::PartyId;

/// All messages delivered to one party in one round, grouped by sender.
///
/// Byzantine senders may deliver zero, one, or many (possibly malformed)
/// messages per round; honest protocol steps expect at most one. The typed
/// accessors implement the standard convention: only the *first* message
/// from each sender is considered, and a message that fails to decode is
/// treated exactly like silence.
#[derive(Debug, Clone, Default)]
pub struct Inbox {
    /// `by_sender[p]` = payloads received from party `p` this round, in
    /// submission order.
    by_sender: Vec<Vec<Bytes>>,
}

impl Inbox {
    /// Creates an inbox for `n` potential senders.
    pub fn with_parties(n: usize) -> Self {
        Self {
            by_sender: vec![Vec::new(); n],
        }
    }

    /// Records a delivery (used by network executors).
    pub fn push(&mut self, from: PartyId, payload: Bytes) {
        self.by_sender[from.0].push(payload);
    }

    /// Number of parties in the network.
    pub fn party_count(&self) -> usize {
        self.by_sender.len()
    }

    /// Raw payloads received from `sender`, in order.
    pub fn raw_from(&self, sender: PartyId) -> &[Bytes] {
        &self.by_sender[sender.0]
    }

    /// Senders that delivered at least one message this round, ascending.
    pub fn senders(&self) -> impl Iterator<Item = PartyId> + '_ {
        self.by_sender
            .iter()
            .enumerate()
            .filter(|(_, msgs)| !msgs.is_empty())
            .map(|(i, _)| PartyId(i))
    }

    /// Decodes the first message from `sender` as `T`; `None` on silence or
    /// malformed bytes.
    pub fn decode_from<T: Decode>(&self, sender: PartyId) -> Option<T> {
        let first = self.by_sender[sender.0].first()?;
        T::decode_from_slice(first).ok()
    }

    /// Decodes the first message of every sender, skipping silent or
    /// malformed ones. Result is ordered by sender id.
    pub fn decode_each<T: Decode>(&self) -> Vec<(PartyId, T)> {
        (0..self.by_sender.len())
            .filter_map(|i| self.decode_from::<T>(PartyId(i)).map(|v| (PartyId(i), v)))
            .collect()
    }

    /// Decodes the *latest* well-formed message from `sender` as `T`.
    ///
    /// The first-message convention of [`Inbox::decode_from`] bakes in a
    /// round-barrier assumption: at most one honest message per sender per
    /// round. Under a delay model ([`crate::Sim::with_delays`]) a round's
    /// inbox can legitimately stack a late round-`r` message *and* a fresh
    /// round-`r+1` message from the same honest sender — delivery order is
    /// send order, so the freshest state is the last parseable payload.
    pub fn decode_latest_from<T: Decode>(&self, sender: PartyId) -> Option<T> {
        self.by_sender[sender.0]
            .iter()
            .rev()
            .find_map(|m| T::decode_from_slice(m).ok())
    }

    /// Decodes *every* message of every sender that parses as `T`
    /// (for steps that legitimately accept multiple messages per sender).
    pub fn decode_all<T: Decode>(&self) -> Vec<(PartyId, T)> {
        let mut out = Vec::new();
        for (i, msgs) in self.by_sender.iter().enumerate() {
            for m in msgs {
                if let Ok(v) = T::decode_from_slice(m) {
                    out.push((PartyId(i), v));
                }
            }
        }
        out
    }

    /// Total payload bytes in this inbox.
    pub fn total_bytes(&self) -> usize {
        self.by_sender
            .iter()
            .flat_map(|msgs| msgs.iter().map(Bytes::len))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_codec::Encode;

    fn inbox3() -> Inbox {
        let mut inbox = Inbox::with_parties(3);
        inbox.push(PartyId(0), 11u64.encode_to_vec().into());
        inbox.push(PartyId(2), Bytes::from_static(b"\xff\xff\xff garbage"));
        inbox.push(PartyId(2), 22u64.encode_to_vec().into());
        inbox
    }

    #[test]
    fn decode_from_takes_first_only() {
        let inbox = inbox3();
        assert_eq!(inbox.decode_from::<u64>(PartyId(0)), Some(11));
        assert_eq!(inbox.decode_from::<u64>(PartyId(1)), None); // silent
        assert_eq!(inbox.decode_from::<u64>(PartyId(2)), None); // first is garbage
    }

    #[test]
    fn decode_each_skips_bad_senders() {
        let decoded = inbox3().decode_each::<u64>();
        assert_eq!(decoded, vec![(PartyId(0), 11)]);
    }

    #[test]
    fn decode_latest_takes_last_well_formed() {
        let inbox = inbox3();
        assert_eq!(inbox.decode_latest_from::<u64>(PartyId(0)), Some(11));
        assert_eq!(inbox.decode_latest_from::<u64>(PartyId(1)), None);
        assert_eq!(inbox.decode_latest_from::<u64>(PartyId(2)), Some(22));
        let mut stacked = Inbox::with_parties(2);
        stacked.push(PartyId(1), 5u64.encode_to_vec().into());
        stacked.push(PartyId(1), 6u64.encode_to_vec().into());
        assert_eq!(stacked.decode_latest_from::<u64>(PartyId(1)), Some(6));
    }

    #[test]
    fn decode_all_sees_later_messages() {
        let decoded = inbox3().decode_all::<u64>();
        assert_eq!(decoded, vec![(PartyId(0), 11), (PartyId(2), 22)]);
    }

    #[test]
    fn senders_ordered() {
        let senders: Vec<_> = inbox3().senders().collect();
        assert_eq!(senders, vec![PartyId(0), PartyId(2)]);
    }
}
