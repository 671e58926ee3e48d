//! Deterministic lock-step simulator.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;
use ca_trace::{Event as TraceEvent, NullSink, Record, TraceSink, ROOT_SCOPE};

use crate::adversary::{Adversary, RoundView, Silent};
use crate::delay::EdgeDelays;
use crate::lockstep::{panic_message, Lockstep, Report};
use crate::{Comm, Inbox, Metrics, PartyId};

/// How a party participates in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Corruption {
    /// Runs the protocol faithfully; counted in `BITSℓ`, output checked.
    #[default]
    Honest,
    /// Runs the protocol code faithfully **but is corrupted**: the paper
    /// notes byzantine parties "can act as honest parties with inputs of
    /// their own choice". Its bits are charged to the adversary and its
    /// output is discarded.
    LyingHonest,
    /// Fully adversary-controlled: no protocol thread; the [`Adversary`]
    /// speaks for it each round.
    Scripted,
}

/// Result of a simulated run.
#[derive(Debug)]
pub struct RunReport<O> {
    /// Per-party outputs; `Some` only for parties honest at the end of the
    /// run (adaptively corrupted or lying parties yield `None`).
    pub outputs: Vec<Option<O>>,
    /// Exact communication/round measurements.
    pub metrics: Metrics,
    /// Parties corrupted by the end of the run (lying + scripted).
    pub corrupted: Vec<PartyId>,
}

impl<O> RunReport<O> {
    /// Outputs of honest parties only.
    pub fn honest_outputs(&self) -> Vec<&O> {
        self.outputs.iter().filter_map(|o| o.as_ref()).collect()
    }

    /// Parties honest at the end of the run.
    pub fn honest_parties(&self) -> Vec<PartyId> {
        (0..self.outputs.len())
            .map(PartyId)
            .filter(|p| !self.corrupted.contains(p))
            .collect()
    }
}

/// Builder/executor for one synchronous protocol run (paper §2 model).
///
/// One OS thread per protocol-running party; the executor enforces lock-step
/// rounds, meters honest communication, and gives the adversary its rushing
/// view each round.
pub struct Sim {
    n: usize,
    t: usize,
    corruption: Vec<Corruption>,
    adversary: Box<dyn Adversary>,
    max_rounds: u64,
    sink: Arc<dyn TraceSink>,
    delay_model: Option<DelayModel>,
}

/// Per-run state of the seeded delay injection (see [`Sim::with_delays`]).
struct DelayModel {
    delays: EdgeDelays,
    /// Round length in delay time units; a sampled delay `d` postpones
    /// delivery by `⌊d/delta⌋` rounds.
    delta: u64,
    /// Global message counter feeding the sampler — deterministic because
    /// sends are processed in sorted (sender, submission) order.
    seq: u64,
    /// Messages held for a future round, keyed by arrival round.
    held: BTreeMap<u64, Vec<(PartyId, PartyId, Bytes)>>,
}

impl Sim {
    /// A run with `n` parties, all honest, `t = ⌊(n−1)/3⌋`, and the
    /// [`Silent`] adversary.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one party");
        Self {
            n,
            t: crate::max_faults(n),
            corruption: vec![Corruption::Honest; n],
            adversary: Box::new(Silent),
            max_rounds: 1_000_000,
            sink: Arc::new(NullSink),
            delay_model: None,
        }
    }

    /// Routes every protocol send through a seeded [`EdgeDelays`] sampler:
    /// a message sent in round `r` with sampled delay `d` arrives at round
    /// `r + ⌊d/delta⌋`, or is dropped (`delta = 0` is treated as 1).
    ///
    /// This breaks the synchronous model on purpose: protocols that
    /// assume "everything sent in round r is in round r's inbox" will see
    /// stale or missing values. Quorum-waiting protocols are the intended
    /// tenants. Dropped messages are still metered as sent: the bits hit
    /// the wire; the network ate them.
    #[must_use]
    pub fn with_delays(mut self, delays: EdgeDelays, delta: u64) -> Self {
        self.delay_model = Some(DelayModel {
            delays,
            delta: delta.max(1),
            seq: 0,
            held: BTreeMap::new(),
        });
        self
    }

    /// Overrides the corruption budget `t`.
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n`.
    pub fn with_t(mut self, t: usize) -> Self {
        assert!(
            3 * t < self.n,
            "resilience requires t < n/3 (t = {t}, n = {})",
            self.n
        );
        self.t = t;
        self
    }

    /// Marks `party` as corrupted from the start, in the given mode.
    ///
    /// # Panics
    ///
    /// Panics if the static corruption count would exceed `t`.
    pub fn corrupt(mut self, party: PartyId, mode: Corruption) -> Self {
        self.corruption[party.0] = mode;
        let count = self
            .corruption
            .iter()
            .filter(|c| **c != Corruption::Honest)
            .count();
        assert!(
            count <= self.t,
            "more than t = {} static corruptions",
            self.t
        );
        self
    }

    /// Installs the adversary controlling scripted parties.
    pub fn with_adversary(mut self, adversary: impl Adversary + 'static) -> Self {
        self.adversary = Box::new(adversary);
        self
    }

    /// Overrides the runaway-protocol safety valve (default 1 000 000 rounds).
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Attaches a trace sink; every event of the run is recorded into it.
    ///
    /// Party threads buffer their records locally and ship them with each
    /// round submission; the executor flushes everything in a canonical
    /// order (round start → per-party records sorted by id → fault
    /// injections → sends → deliveries → round end), so two runs of the
    /// same protocol with the same inputs produce *byte-identical* JSONL
    /// traces regardless of thread scheduling — that determinism is what
    /// makes `ca-trace diff` meaningful.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Runs `party(ctx, id)` for every protocol-running party in lock-step.
    ///
    /// # Panics
    ///
    /// Propagates any panic from honest protocol code (a protocol bug), and
    /// panics if the round limit is exceeded or the adversary oversteps its
    /// corruption budget.
    pub fn run<O, F>(mut self, party: F) -> RunReport<O>
    where
        O: Send,
        F: Fn(&mut dyn Comm, PartyId) -> O + Sync,
    {
        let n = self.n;
        let t = self.t;
        let sink = Arc::clone(&self.sink);
        let tracing = sink.enabled();

        let mut report = RunReport {
            outputs: (0..n).map(|_| None).collect(),
            metrics: Metrics::default(),
            corrupted: Vec::new(),
        };

        std::thread::scope(|scope| {
            // Dropped on every exit path, panics included: that releases
            // every party thread before the scope joins it.
            let mut parties = Lockstep::new(scope, n, t, tracing, n);
            // Spawn protocol threads (honest + lying-honest parties).
            for (i, mode) in self.corruption.iter().enumerate() {
                if *mode != Corruption::Scripted {
                    let party = &party;
                    parties.spawn(i as u64, PartyId(i), move |ctx| party(ctx, PartyId(i)));
                }
            }

            let mut corrupted: BTreeSet<PartyId> = self
                .corruption
                .iter()
                .enumerate()
                .filter(|(_, c)| **c != Corruption::Honest)
                .map(|(i, _)| PartyId(i))
                .collect();
            let mut round: u64 = 0;

            // Statically corrupted parties are faulted before round 0.
            if tracing {
                for (i, mode) in self.corruption.iter().enumerate() {
                    let strategy = match mode {
                        Corruption::Honest => continue,
                        Corruption::LyingHonest => "static:lying_honest",
                        Corruption::Scripted => "static:scripted",
                    };
                    sink.record(&Record {
                        party: Some(i as u64),
                        round: 0,
                        scope: ROOT_SCOPE.to_owned(),
                        event: TraceEvent::FaultInjected {
                            strategy: strategy.to_owned(),
                        },
                    });
                }
            }

            'rounds: loop {
                if tracing {
                    sink.record(&Record {
                        party: None,
                        round,
                        scope: ROOT_SCOPE.to_owned(),
                        event: TraceEvent::RoundStart,
                    });
                }

                // --- Collect one report from every live party, in id order. ---
                let mut waiting: Vec<usize> = Vec::new();
                let mut sends: Vec<(usize, Vec<(PartyId, Bytes)>)> = Vec::new();
                let mut scopes: Vec<(usize, String)> = Vec::new();
                for (key, submitted) in parties.collect() {
                    let from = key as usize;
                    let (s, trace) = match submitted {
                        Report::Round {
                            sends,
                            scope,
                            trace,
                        } => {
                            waiting.push(from);
                            scopes.push((from, scope));
                            (sends, trace)
                        }
                        Report::Done {
                            output,
                            sends,
                            trace,
                        } => {
                            if !corrupted.contains(&PartyId(from)) {
                                report.outputs[from] = Some(output);
                            }
                            (sends, trace)
                        }
                        Report::Panicked { payload } => {
                            // The simulator deliberately surfaces a
                            // party-thread panic to the driving test.
                            // ca-lint: allow(panic-path) — see above
                            panic!(
                                "party P{from} panicked: {}",
                                panic_message(payload.as_ref())
                            );
                        }
                    };
                    sends.push((from, s));
                    // Party-buffered records flush in id order: arrival
                    // order is scheduler-dependent, this is not.
                    for r in &trace {
                        sink.record(r);
                    }
                }

                // --- Rushing adversary phase. ---
                let honest_sends: Vec<(PartyId, PartyId, Bytes)> = sends
                    .iter()
                    .filter(|(from, _)| !corrupted.contains(&PartyId(*from)))
                    .flat_map(|(from, msgs)| {
                        msgs.iter()
                            .map(|(to, payload)| (PartyId(*from), *to, payload.clone()))
                    })
                    .collect();
                let corrupted_list: Vec<PartyId> = corrupted.iter().copied().collect();
                let view = RoundView {
                    n,
                    t,
                    round,
                    corrupted: &corrupted_list,
                    honest_sends: &honest_sends,
                };
                let actions = self.adversary.on_round(&view);

                // Adaptive corruptions take effect this round.
                for p in actions.corrupt {
                    assert!(p.0 < n, "adversary corrupted nonexistent {p}");
                    if corrupted.insert(p) {
                        assert!(
                            corrupted.len() <= t,
                            "adversary exceeded corruption budget t = {t}"
                        );
                        if tracing {
                            sink.record(&Record {
                                party: Some(p.0 as u64),
                                round,
                                scope: ROOT_SCOPE.to_owned(),
                                event: TraceEvent::FaultInjected {
                                    strategy: "adaptive".to_owned(),
                                },
                            });
                        }
                        report.outputs[p.0] = None;
                        // Tear down the party's thread if it is still running.
                        parties.release(p.0 as u64);
                    }
                }

                // --- Metering + delivery assembly. ---
                let mut inboxes: Vec<Inbox> = (0..n).map(|_| Inbox::with_parties(n)).collect();
                // (receiver, sender, bytes) for this round's deliveries, in
                // assembly order — traced after the send events.
                let mut deliveries: Vec<(usize, usize, u64)> = Vec::new();
                // Messages held back by the delay model whose arrival round
                // has come are delivered first (they were sent earlier).
                if let Some(model) = self.delay_model.as_mut() {
                    for (from, to, payload) in model.held.remove(&round).unwrap_or_default() {
                        deliveries.push((to.0, from.0, payload.len() as u64));
                        inboxes[to.0].push(from, payload);
                    }
                }
                for (from, msgs) in &sends {
                    let from_id = PartyId(*from);
                    let is_corrupt = corrupted.contains(&from_id);
                    if is_corrupt && self.corruption[*from] != Corruption::LyingHonest {
                        // Adaptively corrupted this round: its honest sends are
                        // suppressed (the adversary replaces them). Lying
                        // parties' sends still flow — they *are* the attack.
                        continue;
                    }
                    let scope = scopes
                        .iter()
                        .find(|(p, _)| p == from)
                        .map(|(_, s)| s.as_str())
                        .unwrap_or(ROOT_SCOPE);
                    for (to, payload) in msgs {
                        if *to != from_id {
                            // Self-delivery is free on a real network.
                            if is_corrupt {
                                report.metrics.record_adversary_send(payload.len());
                            } else {
                                report.metrics.record_honest_send(scope, payload.len());
                            }
                            if tracing {
                                sink.record(&Record {
                                    party: Some(*from as u64),
                                    round,
                                    scope: if is_corrupt {
                                        ca_trace::ADVERSARY_SCOPE.to_owned()
                                    } else {
                                        scope.to_owned()
                                    },
                                    event: TraceEvent::Send {
                                        to: to.0 as u64,
                                        bytes: payload.len() as u64,
                                    },
                                });
                            }
                        }
                        if to.0 < n {
                            let mut arrival = round;
                            if let Some(model) = self.delay_model.as_mut() {
                                if *to != from_id {
                                    let seq = model.seq;
                                    model.seq += 1;
                                    match model.delays.sample(*from, to.0, seq) {
                                        // Dropped on the wire; the send was
                                        // already metered and traced above.
                                        None => continue,
                                        Some(d) => arrival = round + d / model.delta,
                                    }
                                }
                            }
                            if arrival > round {
                                if let Some(model) = self.delay_model.as_mut() {
                                    model.held.entry(arrival).or_default().push((
                                        from_id,
                                        *to,
                                        payload.clone(),
                                    ));
                                }
                            } else {
                                inboxes[to.0].push(from_id, payload.clone());
                                deliveries.push((to.0, *from, payload.len() as u64));
                            }
                        }
                    }
                }
                for spec in actions.sends {
                    assert!(
                        corrupted.contains(&spec.from),
                        "adversary sent from honest {} (channels are authenticated)",
                        spec.from
                    );
                    assert!(spec.to.0 < n, "adversary sent to nonexistent {}", spec.to);
                    report.metrics.record_adversary_send(spec.payload.len());
                    if tracing {
                        sink.record(&Record {
                            party: Some(spec.from.0 as u64),
                            round,
                            scope: ca_trace::ADVERSARY_SCOPE.to_owned(),
                            event: TraceEvent::Send {
                                to: spec.to.0 as u64,
                                bytes: spec.payload.len() as u64,
                            },
                        });
                    }
                    deliveries.push((spec.to.0, spec.from.0, spec.payload.len() as u64));
                    inboxes[spec.to.0].push(spec.from, spec.payload);
                }

                if waiting.is_empty() {
                    // Nobody is blocked on a round boundary: the protocol is over.
                    break 'rounds;
                }

                // Round attribution: innermost scope of the lowest-id honest
                // waiting party (all honest parties of a lock-step protocol
                // share the same scope).
                let round_scope = waiting
                    .iter()
                    .find(|p| !corrupted.contains(&PartyId(**p)))
                    .and_then(|p| scopes.iter().find(|(q, _)| q == p))
                    .map(|(_, s)| s.clone())
                    .unwrap_or_else(|| ROOT_SCOPE.to_owned());
                report.metrics.record_round(&round_scope);

                // Deliveries reach only the parties still at the barrier;
                // stamp each with the receiver's submitted scope.
                if tracing {
                    let mut ordered = deliveries;
                    ordered.sort_by_key(|&(to, _, _)| to);
                    for (to, from, bytes) in ordered {
                        if !waiting.contains(&to) {
                            continue;
                        }
                        let scope = scopes
                            .iter()
                            .find(|(p, _)| *p == to)
                            .map_or(ROOT_SCOPE, |(_, s)| s.as_str());
                        sink.record(&Record {
                            party: Some(to as u64),
                            round,
                            scope: scope.to_owned(),
                            event: TraceEvent::Deliver {
                                from: from as u64,
                                bytes,
                            },
                        });
                    }
                    sink.record(&Record {
                        party: None,
                        round,
                        scope: round_scope.clone(),
                        event: TraceEvent::RoundEnd,
                    });
                }

                // --- Deliver. --- Only waiting, uncorrupted parties are
                // still registered; the rest are no-ops.
                for (i, inbox) in inboxes.into_iter().enumerate() {
                    parties.deliver(i as u64, inbox);
                }

                round += 1;
                assert!(
                    round <= self.max_rounds,
                    "round limit {} exceeded (runaway protocol?)",
                    self.max_rounds
                );
            }

            report.corrupted = corrupted.into_iter().collect();
        });

        sink.flush();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{RoundActions, SendSpec};
    use crate::CommExt;
    use ca_codec::Encode;

    /// Every party sends its id to all; checks everyone hears everyone.
    #[test]
    fn all_to_all_delivery() {
        let report = Sim::new(5).run(|ctx, id| {
            let inbox = ctx.exchange(&(id.0 as u64));
            inbox.decode_each::<u64>()
        });
        for out in report.honest_outputs() {
            let values: Vec<u64> = out.iter().map(|(_, v)| *v).collect();
            assert_eq!(values, vec![0, 1, 2, 3, 4]);
        }
        assert_eq!(report.metrics.rounds, 1);
        // 5 parties × 4 non-self messages, varint id = 1 byte each.
        assert_eq!(report.metrics.honest_msgs, 20);
        assert_eq!(report.metrics.honest_bits, 20 * 8);
    }

    #[test]
    fn multi_round_protocol() {
        let report = Sim::new(4).run(|ctx, id| {
            let mut sum = 0u64;
            for r in 0..3u64 {
                let inbox = ctx.exchange(&(r + id.0 as u64));
                sum += inbox
                    .decode_each::<u64>()
                    .iter()
                    .map(|(_, v)| v)
                    .sum::<u64>();
            }
            sum
        });
        assert_eq!(report.metrics.rounds, 3);
        let outs = report.honest_outputs();
        assert!(outs.iter().all(|&&o| o == **outs.first().unwrap()));
    }

    #[test]
    fn scripted_party_is_adversary_driven() {
        struct Echo;
        impl Adversary for Echo {
            fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
                // Rushing: echo back P0's message content + 1 to everyone.
                let mut actions = RoundActions::default();
                if let Some((_, _, payload)) = view.sends_from(PartyId(0)).next() {
                    let v = <u64 as ca_codec::Decode>::decode_from_slice(payload).unwrap();
                    for to in 0..view.n {
                        actions.sends.push(SendSpec {
                            from: PartyId(3),
                            to: PartyId(to),
                            payload: (v + 1).encode_to_vec().into(),
                        });
                    }
                }
                actions
            }
        }
        let report = Sim::new(4)
            .corrupt(PartyId(3), Corruption::Scripted)
            .with_adversary(Echo)
            .run(|ctx, id| {
                if id.0 == 3 {
                    unreachable!("scripted party must not run protocol code");
                }
                let inbox = ctx.exchange(&42u64);
                inbox.decode_from::<u64>(PartyId(3))
            });
        assert_eq!(report.outputs[3], None);
        for out in report.honest_outputs() {
            assert_eq!(*out, Some(43)); // rushing echo observed same round
        }
        assert!(report.metrics.adversary_bits > 0);
    }

    #[test]
    fn lying_honest_runs_protocol_but_is_excluded() {
        let report = Sim::new(4)
            .corrupt(PartyId(1), Corruption::LyingHonest)
            .run(|ctx, id| {
                let inbox = ctx.exchange(&(if id.0 == 1 { 999u64 } else { 7 }));
                inbox
                    .decode_each::<u64>()
                    .iter()
                    .map(|(_, v)| *v)
                    .sum::<u64>()
            });
        // Lying party's message was delivered (999 + 3×7 = 1020)…
        for out in report.honest_outputs() {
            assert_eq!(*out, 1020);
        }
        // …but its output is discarded and its bits are the adversary's.
        assert_eq!(report.outputs[1], None);
        assert_eq!(report.metrics.honest_msgs, 9); // 3 honest × 3 non-self
        assert_eq!(report.metrics.adversary_bits, 3 * 2 * 8); // 999 = 2-byte varint
    }

    #[test]
    fn adaptive_corruption_suppresses_and_silences() {
        struct CorruptP0AtRound1;
        impl Adversary for CorruptP0AtRound1 {
            fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
                let mut a = RoundActions::default();
                if view.round == 1 {
                    a.corrupt.push(PartyId(0));
                }
                a
            }
        }
        let report = Sim::new(4)
            .with_adversary(CorruptP0AtRound1)
            .run(|ctx, _id| {
                let r0 = ctx.exchange(&1u64).decode_each::<u64>().len();
                let r1 = ctx.exchange(&2u64).decode_each::<u64>().len();
                (r0, r1)
            });
        assert_eq!(report.outputs[0], None);
        assert_eq!(report.corrupted, vec![PartyId(0)]);
        for out in report.honest_outputs() {
            assert_eq!(*out, (4, 3)); // P0 heard in round 0, suppressed in round 1
        }
    }

    #[test]
    fn scopes_attribute_bits_and_rounds() {
        let report = Sim::new(3).run(|ctx, _id| {
            ctx.scoped("phase_a", |ctx| {
                ctx.exchange(&1u64);
            });
            ctx.scoped("phase_b", |ctx| {
                ctx.scoped("inner", |ctx| {
                    ctx.exchange(&2u64);
                    ctx.exchange(&3u64);
                });
            });
        });
        assert_eq!(report.metrics.per_scope["phase_a"].rounds, 1);
        assert_eq!(report.metrics.per_scope["phase_b/inner"].rounds, 2);
        assert_eq!(report.metrics.scope_subtree("phase_b").rounds, 2);
        assert_eq!(
            report.metrics.honest_bits,
            report.metrics.scope_subtree("phase_a").honest_bits
                + report.metrics.scope_subtree("phase_b").honest_bits
        );
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn protocol_bug_propagates() {
        Sim::new(3).run(|ctx, id| {
            ctx.exchange(&1u64);
            if id.0 == 1 {
                panic!("intentional bug");
            }
            ctx.exchange(&2u64);
        });
    }

    #[test]
    #[should_panic(expected = "round limit")]
    fn runaway_protocol_hits_round_limit() {
        Sim::new(2).with_max_rounds(10).run(|ctx, _id| loop {
            ctx.exchange(&0u8);
        });
    }

    #[test]
    #[should_panic(expected = "corruption budget")]
    fn adversary_cannot_exceed_t() {
        struct GreedyCorruptor;
        impl Adversary for GreedyCorruptor {
            fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
                RoundActions {
                    corrupt: (0..view.n).map(PartyId).collect(),
                    sends: vec![],
                }
            }
        }
        Sim::new(4).with_adversary(GreedyCorruptor).run(|ctx, _id| {
            ctx.exchange(&0u8);
        });
    }

    #[test]
    #[should_panic(expected = "authenticated")]
    fn adversary_cannot_forge_honest_sender() {
        struct Forger;
        impl Adversary for Forger {
            fn on_round(&mut self, _view: &RoundView<'_>) -> RoundActions {
                RoundActions {
                    corrupt: vec![],
                    sends: vec![SendSpec {
                        from: PartyId(0), // honest!
                        to: PartyId(1),
                        payload: Bytes::from_static(b"forged"),
                    }],
                }
            }
        }
        Sim::new(4)
            .corrupt(PartyId(3), Corruption::Scripted)
            .with_adversary(Forger)
            .run(|ctx, _id| {
                ctx.exchange(&0u8);
            });
    }

    #[test]
    fn traced_run_emits_canonical_timeline() {
        let sink = Arc::new(ca_trace::RingBufferSink::new(4096));
        let report = Sim::new(3).with_trace(sink.clone()).run(|ctx, id| {
            ctx.trace_input(|| id.0.to_string());
            ctx.scoped("phase", |ctx| {
                ctx.exchange(&7u64);
            });
            // Decide the median input: stays inside the honest hull.
            ctx.trace_decide(|| "1".to_owned());
        });
        assert_eq!(report.metrics.rounds, 1);
        let records = sink.records();
        // Round boundaries present and ordered.
        let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds.first(), Some(&"round_start"));
        assert!(kinds.contains(&"round_end"), "{kinds:?}");
        // Every party contributed input, scope, sends, deliver, decide.
        for p in 0..3u64 {
            let mine: Vec<&Record> = records.iter().filter(|r| r.party == Some(p)).collect();
            assert!(mine.iter().any(|r| r.event.kind() == "input"));
            assert!(mine
                .iter()
                .any(|r| matches!(&r.event, TraceEvent::ScopeEnter { name } if name == "phase")));
            assert_eq!(
                mine.iter().filter(|r| r.event.kind() == "send").count(),
                2,
                "two non-self sends"
            );
            assert!(mine.iter().any(|r| r.event.kind() == "deliver"));
            assert!(mine.iter().any(|r| r.event.kind() == "decide"));
        }
        // Sends carry the scope they were submitted under.
        assert!(records
            .iter()
            .filter(|r| r.event.kind() == "send")
            .all(|r| r.scope == "phase"));
        // The whole trace passes the generic invariants.
        assert_eq!(ca_trace::check(&records), vec![]);
    }

    #[test]
    fn traces_are_deterministic_across_runs() {
        let run = || {
            let sink = Arc::new(ca_trace::RingBufferSink::new(1 << 16));
            Sim::new(4)
                .corrupt(PartyId(3), Corruption::LyingHonest)
                .with_trace(sink.clone())
                .run(|ctx, id| {
                    ctx.scoped("a", |ctx| {
                        ctx.exchange(&(id.0 as u64));
                    });
                    ctx.scoped("b", |ctx| {
                        ctx.exchange(&(id.0 as u64 + 10));
                    });
                });
            sink.records()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        assert_eq!(ca_trace::first_divergence(&a, &b), None);
    }

    #[test]
    fn untraced_run_has_identical_metrics_to_traced() {
        let body = |ctx: &mut dyn Comm, id: PartyId| {
            ctx.scoped("x", |ctx| {
                ctx.exchange(&(id.0 as u64));
                ctx.exchange(&(id.0 as u64 * 3));
            });
        };
        let plain = Sim::new(4).run(body);
        let traced = Sim::new(4)
            .with_trace(Arc::new(ca_trace::RingBufferSink::new(1 << 16)))
            .run(body);
        assert_eq!(plain.metrics, traced.metrics);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            Sim::new(5)
                .corrupt(PartyId(2), Corruption::LyingHonest)
                .run(|ctx, id| {
                    let mut acc = Vec::new();
                    for r in 0..4u64 {
                        let inbox = ctx.exchange(&(id.0 as u64 * 100 + r));
                        acc.push(inbox.decode_each::<u64>());
                    }
                    acc
                })
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.outputs.iter().collect::<Vec<_>>(),
            b.outputs.iter().collect::<Vec<_>>()
        );
        assert_eq!(a.metrics.honest_bits, b.metrics.honest_bits);
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
    }
}
