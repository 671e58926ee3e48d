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
///
/// The layout is flat: one payload vector grouped by ascending sender, in
/// push order within a sender, plus a parallel vector naming each
/// payload's sender. Executors push in sender order, which appends; a
/// push out of sender order (a late or adversarial message) is inserted
/// after the sender's earlier payloads.
#[derive(Debug, Clone, Default)]
pub struct Inbox {
    /// Number of potential senders.
    n: usize,
    /// Every payload received this round, grouped by sender.
    payloads: Vec<Bytes>,
    /// `senders[i]` sent `payloads[i]`; non-decreasing.
    senders: Vec<PartyId>,
}

impl Inbox {
    /// Creates an inbox for `n` potential senders.
    pub fn with_parties(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// Creates an inbox for `n` potential senders with room for
    /// `messages` payloads.
    pub(crate) fn with_capacity(n: usize, messages: usize) -> Self {
        Self {
            n,
            payloads: Vec::with_capacity(messages),
            senders: Vec::with_capacity(messages),
        }
    }

    /// Records a delivery (used by network executors).
    ///
    /// # Panics
    ///
    /// Panics if `from` is not one of the `n` parties.
    pub fn push(&mut self, from: PartyId, payload: Bytes) {
        assert!(from.0 < self.n, "delivery from nonexistent {from}");
        if self.senders.last().is_none_or(|last| *last <= from) {
            self.senders.push(from);
            self.payloads.push(payload);
        } else {
            let at = self.senders.partition_point(|s| *s <= from);
            self.senders.insert(at, from);
            self.payloads.insert(at, payload);
        }
    }

    /// Number of parties in the network.
    pub fn party_count(&self) -> usize {
        self.n
    }

    /// Raw payloads received from `sender`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is not one of the `n` parties.
    pub fn raw_from(&self, sender: PartyId) -> &[Bytes] {
        assert!(sender.0 < self.n, "no party {sender}");
        let start = self.senders.partition_point(|s| *s < sender);
        let len = self.senders[start..].partition_point(|s| *s == sender);
        &self.payloads[start..start + len]
    }

    /// Each sender that delivered at least one message this round, with
    /// its payloads, by ascending sender.
    fn groups(&self) -> impl Iterator<Item = (PartyId, &[Bytes])> + '_ {
        let mut start = 0;
        self.senders.chunk_by(|a, b| a == b).map(move |run| {
            let group = &self.payloads[start..start + run.len()];
            start += run.len();
            (run[0], group)
        })
    }

    /// Senders that delivered at least one message this round, ascending.
    pub fn senders(&self) -> impl Iterator<Item = PartyId> + '_ {
        self.groups().map(|(from, _)| from)
    }

    /// Decodes the first message from `sender` as `T`; `None` on silence or
    /// malformed bytes.
    pub fn decode_from<T: Decode>(&self, sender: PartyId) -> Option<T> {
        let first = self.raw_from(sender).first()?;
        T::decode_from_slice(first).ok()
    }

    /// Decodes the first message of every sender, skipping silent or
    /// malformed ones. Result is ordered by sender id.
    pub fn decode_each<T: Decode>(&self) -> Vec<(PartyId, T)> {
        self.groups()
            .filter_map(|(from, msgs)| {
                let v = T::decode_from_slice(msgs.first()?).ok()?;
                Some((from, v))
            })
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
        self.raw_from(sender)
            .iter()
            .rev()
            .find_map(|m| T::decode_from_slice(m).ok())
    }

    /// Decodes *every* message of every sender that parses as `T`
    /// (for steps that legitimately accept multiple messages per sender).
    pub fn decode_all<T: Decode>(&self) -> Vec<(PartyId, T)> {
        self.senders
            .iter()
            .zip(&self.payloads)
            .filter_map(|(from, m)| T::decode_from_slice(m).ok().map(|v| (*from, v)))
            .collect()
    }

    /// Total payload bytes in this inbox.
    pub fn total_bytes(&self) -> usize {
        self.payloads.iter().map(Bytes::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_codec::Encode;
    use proptest::prelude::*;

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

    /// The `Vec<Vec<Bytes>>` layout the flat inbox replaced: the reference
    /// semantics every accessor must keep.
    struct Model(Vec<Vec<Bytes>>);

    impl Model {
        fn decode_from(&self, p: usize) -> Option<u64> {
            u64::decode_from_slice(self.0[p].first()?).ok()
        }

        fn decode_latest_from(&self, p: usize) -> Option<u64> {
            self.0[p]
                .iter()
                .rev()
                .find_map(|m| u64::decode_from_slice(m).ok())
        }
    }

    proptest! {
        /// Pushes in arbitrary sender order give the same answers from the
        /// flat inbox as from one vector per sender.
        #[test]
        fn flat_inbox_matches_per_sender_model(
            n in 1usize..6,
            draws in proptest::collection::vec(any::<u64>(), 0..40),
        ) {
            let mut flat = Inbox::with_parties(n);
            let mut model = Model(vec![Vec::new(); n]);
            for d in draws {
                let from = (d % n as u64) as usize;
                let payload: Bytes = match (d >> 8) % 3 {
                    0 => (d >> 16).encode_to_vec().into(),
                    // Empty or an unterminated varint: malformed.
                    1 => Bytes::from(vec![0xff; (d >> 16) as usize % 3]),
                    _ => ((d >> 16) as u8).encode_to_vec().into(),
                };
                flat.push(PartyId(from), payload.clone());
                model.0[from].push(payload);
            }
            for p in 0..n {
                prop_assert_eq!(flat.raw_from(PartyId(p)), &model.0[p][..]);
                prop_assert_eq!(flat.decode_from::<u64>(PartyId(p)), model.decode_from(p));
                prop_assert_eq!(
                    flat.decode_latest_from::<u64>(PartyId(p)),
                    model.decode_latest_from(p)
                );
            }
            let senders: Vec<PartyId> =
                (0..n).filter(|&p| !model.0[p].is_empty()).map(PartyId).collect();
            prop_assert_eq!(flat.senders().collect::<Vec<_>>(), senders);
            let each: Vec<(PartyId, u64)> = (0..n)
                .filter_map(|p| model.decode_from(p).map(|v| (PartyId(p), v)))
                .collect();
            prop_assert_eq!(flat.decode_each::<u64>(), each);
            let all: Vec<(PartyId, u64)> = (0..n)
                .flat_map(|p| {
                    model.0[p]
                        .iter()
                        .filter_map(move |m| u64::decode_from_slice(m).ok().map(|v| (PartyId(p), v)))
                })
                .collect();
            prop_assert_eq!(flat.decode_all::<u64>(), all);
            let total: usize = model.0.iter().flatten().map(Bytes::len).sum();
            prop_assert_eq!(flat.total_bytes(), total);
            prop_assert_eq!(flat.party_count(), n);
        }
    }
}
