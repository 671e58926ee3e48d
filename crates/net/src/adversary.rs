//! The adversary interface (paper §2: adaptive, rushing, up to `t < n/3`).

use std::cell::OnceCell;

use bytes::Bytes;

use crate::PartyId;

/// One message injected by the adversary: `from` must be a corrupted party.
#[derive(Debug, Clone)]
pub struct SendSpec {
    /// Corrupted sender the message is attributed to (channels are
    /// authenticated, so the adversary cannot forge honest senders).
    pub from: PartyId,
    /// Recipient.
    pub to: PartyId,
    /// Arbitrary payload (may be malformed).
    pub payload: Bytes,
}

/// One sender's sends of a round, in send order, as the executor
/// collected them.
pub(crate) type Batch = (PartyId, Vec<(PartyId, Bytes)>);

/// What the adversary sees when it is invoked for round `r`.
///
/// Invocation happens *after* the honest parties have committed their
/// round-`r` messages — this models a **rushing** adversary: corrupted
/// parties' round-`r` messages may depend on the honest round-`r` messages.
#[derive(Debug)]
pub struct RoundView<'a> {
    /// Number of parties.
    pub n: usize,
    /// Corruption budget.
    pub t: usize,
    /// Current round number (0-based).
    pub round: u64,
    /// Parties currently corrupted (sorted).
    pub corrupted: &'a [PartyId],
    /// The simulator's sender batches, read on the first
    /// [`RoundView::honest_sends`] call.
    batches: &'a [Batch],
    /// The flat honest-send list, built at most once.
    honest_sends: OnceCell<Vec<(PartyId, PartyId, Bytes)>>,
}

impl<'a> RoundView<'a> {
    /// A view whose honest round-`r` messages are `honest_sends`, given
    /// as `(from, to, payload)` ordered by sender (e.g. one session's
    /// share of a multiplexed round).
    pub fn new(
        n: usize,
        t: usize,
        round: u64,
        corrupted: &'a [PartyId],
        honest_sends: Vec<(PartyId, PartyId, Bytes)>,
    ) -> Self {
        Self {
            n,
            t,
            round,
            corrupted,
            batches: &[],
            honest_sends: OnceCell::from(honest_sends),
        }
    }

    /// The simulator's view: the honest list is built from `batches`
    /// (ascending sender) only if the adversary asks for it.
    pub(crate) fn rushing(
        n: usize,
        t: usize,
        round: u64,
        corrupted: &'a [PartyId],
        batches: &'a [Batch],
    ) -> Self {
        Self {
            n,
            t,
            round,
            corrupted,
            batches,
            honest_sends: OnceCell::new(),
        }
    }

    /// Every honest message of this round as `(from, to, payload)`,
    /// ordered by sender and then by send order, self-sends included.
    /// Messages addressed to corrupted parties are included — the
    /// adversary reads all its parties' channels.
    pub fn honest_sends(&self) -> &[(PartyId, PartyId, Bytes)] {
        self.honest_sends.get_or_init(|| {
            self.batches
                .iter()
                .filter(|(from, _)| self.corrupted.binary_search(from).is_err())
                .flat_map(|(from, msgs)| {
                    msgs.iter()
                        .map(|(to, payload)| (*from, *to, payload.clone()))
                })
                .collect()
        })
    }

    /// Honest round-`r` messages addressed to `to`.
    pub fn sends_to(&self, to: PartyId) -> impl Iterator<Item = &(PartyId, PartyId, Bytes)> {
        self.honest_sends()
            .iter()
            .filter(move |(_, t2, _)| *t2 == to)
    }

    /// Honest round-`r` messages originating from `from`.
    pub fn sends_from(&self, from: PartyId) -> impl Iterator<Item = &(PartyId, PartyId, Bytes)> {
        self.honest_sends()
            .iter()
            .filter(move |(f, _, _)| *f == from)
    }

    /// Parties not currently corrupted, ascending.
    pub fn honest_parties(&self) -> Vec<PartyId> {
        (0..self.n)
            .map(PartyId)
            .filter(|p| !self.corrupted.contains(p))
            .collect()
    }
}

/// The adversary's round-`r` decisions.
#[derive(Debug, Default)]
pub struct RoundActions {
    /// Additional parties to corrupt, effective *this* round: their honest
    /// round-`r` messages are suppressed and the adversary speaks for them
    /// from now on. The executor enforces the global budget `t`.
    pub corrupt: Vec<PartyId>,
    /// Messages sent by corrupted parties this round.
    pub sends: Vec<SendSpec>,
}

/// A byzantine adversary controlling the corrupted parties.
///
/// Strategy implementations live in `ca-adversary`; this trait is defined
/// here so the executor and the strategies don't depend on each other.
pub trait Adversary: Send {
    /// Called once per round with the rushing view; returns the corrupted
    /// parties' messages (and any adaptive-corruption requests).
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions;
}

/// The trivial adversary: corrupted parties stay silent (crash-like from
/// round 0). Also the right choice when no party is corrupted at all.
#[derive(Debug, Default, Clone)]
pub struct Silent;

impl Adversary for Silent {
    fn on_round(&mut self, _view: &RoundView<'_>) -> RoundActions {
        RoundActions::default()
    }
}

impl<F> Adversary for F
where
    F: FnMut(&RoundView<'_>) -> RoundActions + Send,
{
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        self(view)
    }
}

impl Adversary for Box<dyn Adversary> {
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        (**self).on_round(view)
    }
}
