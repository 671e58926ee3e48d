//! Multiplexing transparency: K sessions running inside one `ca-engine`
//! deployment must be indistinguishable — decisions and per-session
//! traces — from K isolated `pi_n` runs, under every adversary plan in
//! the standard suite. Message-level strategies attack the multiplexed
//! run through [`EnvelopeAdversary`], which presents each session with
//! exactly its isolated rushing view.
//!
//! Also covers the service-layer failure modes that have no isolated
//! counterpart: admission control past capacity and a flooding adversary
//! exercising the per-sender inbox cap, stray-session routing, and
//! malformed-envelope handling.

use std::sync::Arc;

use bytes::Bytes;
use convex_agreement::adversary::Attack;
use convex_agreement::ba::BaKind;
use convex_agreement::bits::Nat;
use convex_agreement::codec::Encode as _;
use convex_agreement::core::pi_n;
use convex_agreement::engine::loadgen::{derive_seed, session_inputs};
use convex_agreement::engine::{
    run_engine_party, EngineConfig, EngineOutput, Envelope, EnvelopeAdversary, SessionFrame,
    SessionId, SessionPlan,
};
use convex_agreement::net::{
    max_faults, Adversary, Corruption, PartyId, RoundActions, RoundView, SendSpec, Sim,
};
use convex_agreement::trace::{Event, RingBufferSink, TraceSink, ROOT_SCOPE};
use proptest::prelude::*;

/// The per-party trace signature we compare: `(round, scope, event)` for
/// the protocol-meaningful events. Scopes are relative to the session
/// root, so isolated and multiplexed runs are directly comparable.
type Sig = (u64, String, Event);

fn keep(event: &Event) -> bool {
    matches!(
        event,
        Event::Input { .. } | Event::Decide { .. } | Event::Note { .. }
    )
}

/// Rebases a multiplexed scope onto session `sid`'s root: `engine/s3` →
/// `_root`, `engine/s3/pi_n/…` → `pi_n/…`, anything else → `None`.
fn rebase(scope: &str, sid: u64) -> Option<String> {
    let rest = scope.strip_prefix(&format!("engine/s{sid}"))?;
    if rest.is_empty() {
        Some(ROOT_SCOPE.to_string())
    } else {
        rest.strip_prefix('/').map(str::to_string)
    }
}

struct IsolatedRun {
    outputs: Vec<Option<Nat>>,
    corrupted: Vec<PartyId>,
    sigs: Vec<Vec<Sig>>,
}

fn isolated_run(n: usize, t: usize, attack: Attack, inputs: Vec<Nat>) -> IsolatedRun {
    let sink = Arc::new(RingBufferSink::new(4_000_000));
    let report = attack
        .install(Sim::new(n), n, t)
        .with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>)
        .run(move |ctx, id| pi_n(ctx, &inputs[id.index()], BaKind::TurpinCoan));
    let records = sink.records();
    assert_eq!(sink.total_seen() as usize, records.len(), "ring wrapped");
    let sigs = (0..n)
        .map(|p| {
            records
                .iter()
                .filter(|r| r.party == Some(p as u64) && keep(&r.event))
                .map(|r| (r.round, r.scope.clone(), r.event.clone()))
                .collect()
        })
        .collect();
    IsolatedRun {
        outputs: report.outputs,
        corrupted: report.corrupted,
        sigs,
    }
}

struct MultiplexedRun {
    outputs: Vec<Option<EngineOutput<Nat>>>,
    corrupted: Vec<PartyId>,
    /// `sigs[party][sid]`, scopes rebased to the session root.
    sigs: Vec<Vec<Vec<Sig>>>,
}

fn multiplexed_run(
    n: usize,
    t: usize,
    k: usize,
    attack: Attack,
    seed: u64,
    all_inputs: Vec<Vec<Nat>>,
) -> MultiplexedRun {
    let mode = if attack.is_lying() {
        Corruption::LyingHonest
    } else {
        Corruption::Scripted
    };
    let mut sim = attack
        .corrupted_parties(n, t)
        .into_iter()
        .fold(Sim::new(n), |s, p| s.corrupt(p, mode));
    if attack.strategy().is_some() {
        sim = sim.with_adversary(EnvelopeAdversary::new((0..k as u64).map(|sid| {
            let adv = attack
                .with_seed(derive_seed(seed, sid))
                .strategy()
                .expect("strategy kind is seed-independent");
            (SessionId(sid), adv)
        })));
    }
    let sink = Arc::new(RingBufferSink::new(16_000_000));
    let sim = sim.with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>);

    let plan = SessionPlan::closed(k);
    let config = EngineConfig::default();
    let report = sim.run(move |ctx, _id| {
        run_engine_party(ctx, &plan, &config, |sctx, sid| {
            let input = all_inputs[sid.0 as usize][sctx.me().index()].clone();
            pi_n(sctx, &input, BaKind::TurpinCoan)
        })
    });
    let records = sink.records();
    assert_eq!(sink.total_seen() as usize, records.len(), "ring wrapped");
    let sigs = (0..n)
        .map(|p| {
            (0..k as u64)
                .map(|sid| {
                    records
                        .iter()
                        .filter(|r| r.party == Some(p as u64) && keep(&r.event))
                        .filter_map(|r| {
                            rebase(&r.scope, sid).map(|s| (r.round, s, r.event.clone()))
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    MultiplexedRun {
        outputs: report.outputs,
        corrupted: report.corrupted,
        sigs,
    }
}

/// The core property: session-by-session, the multiplexed deployment and
/// the isolated runs decide the same values, corrupt the same parties,
/// and emit the same protocol trace.
fn assert_equivalent(n: usize, k: usize, ell: usize, spread: usize, attack: Attack, seed: u64) {
    let t = max_faults(n);
    let all_inputs: Vec<Vec<Nat>> = (0..k as u64)
        .map(|sid| {
            let a = attack.with_seed(derive_seed(seed, sid));
            session_inputs(derive_seed(seed, sid), n, t, ell, spread, &a)
        })
        .collect();

    let multi = multiplexed_run(n, t, k, attack, seed, all_inputs.clone());
    for (sid, inputs) in all_inputs.iter().enumerate() {
        let iso = isolated_run(
            n,
            t,
            attack.with_seed(derive_seed(seed, sid as u64)),
            inputs.clone(),
        );
        assert_eq!(
            iso.corrupted,
            multi.corrupted,
            "[{}] s{sid}: corrupted sets differ",
            attack.name()
        );
        for p in 0..n {
            if iso.corrupted.contains(&PartyId(p)) {
                continue;
            }
            let iso_out = iso.outputs[p]
                .as_ref()
                .expect("honest isolated party decided");
            let engine_out = multi.outputs[p]
                .as_ref()
                .expect("honest multiplexed party finished");
            let multi_out = engine_out
                .output_of(SessionId(sid as u64))
                .expect("honest multiplexed party decided the session");
            assert_eq!(
                iso_out,
                multi_out,
                "[{}] s{sid}: party {p} decision differs",
                attack.name()
            );
            assert_eq!(
                iso.sigs[p],
                multi.sigs[p][sid],
                "[{}] s{sid}: party {p} trace differs",
                attack.name()
            );
        }
    }
}

/// Deterministic sweep: every plan in the standard suite.
#[test]
fn multiplexed_equals_isolated_under_every_attack() {
    for attack in Attack::standard_suite(0xE9) {
        assert_equivalent(4, 3, 40, 6, attack, 0xC0FF_EE11);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Randomized sweep over session counts, input widths, and seeds.
    #[test]
    fn multiplexed_equals_isolated_randomized(
        seed in any::<u64>(),
        k in 2usize..5,
        ell in 8usize..48,
        attack_idx in 0usize..11,
    ) {
        let attack = Attack::standard_suite(seed)[attack_idx];
        assert_equivalent(4, k, ell, 4, attack, seed);
    }
}

/// Admission control: arrivals past `max_sessions` are rejected by every
/// party identically, and the live sessions decide unperturbed.
#[test]
fn admission_rejects_past_capacity_consistently() {
    let n = 4;
    let plan = SessionPlan::open((0..8u64).map(|i| (i, 0)));
    let config = EngineConfig {
        max_sessions: 4,
        ..EngineConfig::default()
    };
    let report = Sim::new(n).run(move |ctx, _id| {
        run_engine_party(ctx, &plan, &config, |sctx, sid| {
            let input = Nat::from_u64(50 + sid.0 + sctx.me().index() as u64);
            pi_n(sctx, &input, BaKind::TurpinCoan)
        })
    });
    let outs = report.honest_outputs();
    for out in &outs {
        let rejected: Vec<u64> = out.rejected.iter().map(|s| s.0).collect();
        assert_eq!(rejected, vec![4, 5, 6, 7], "rejects must be the overflow");
        let decided: Vec<u64> = out.decided.iter().map(|(s, _)| s.0).collect();
        assert_eq!(decided, vec![0, 1, 2, 3], "live sessions must decide");
    }
    for sid in 0..4u64 {
        let first = outs[0].output_of(SessionId(sid)).unwrap();
        assert!(
            outs.iter()
                .all(|o| o.output_of(SessionId(sid)) == Some(first)),
            "parties disagree on s{sid}"
        );
    }
}

/// A service-layer flooder: per round it overfills one sender's inbox
/// quota for a live session, sprays frames for a session nobody runs,
/// and sends undecodable bytes. The engine must shed/count all of it and
/// the live sessions must still decide correctly.
#[derive(Debug)]
struct Flood {
    live: SessionId,
}

impl Adversary for Flood {
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        let mut actions = RoundActions::default();
        let Some(&from) = view.corrupted.first() else {
            return actions;
        };
        for to in (0..view.n).map(PartyId) {
            if view.corrupted.contains(&to) {
                continue;
            }
            // Overfill the per-(session, sender) inbox cap for the live
            // session (cap is 2 in this test; one envelope of 5 frames).
            let flood = Envelope {
                frames: (0..5)
                    .map(|i| SessionFrame {
                        session: self.live,
                        payload: Bytes::from(vec![0xAB, i]),
                    })
                    .collect(),
            };
            actions.sends.push(SendSpec {
                from,
                to,
                payload: Bytes::from(flood.encode_to_vec()),
            });
            // A frame for a session this deployment never admitted.
            let stray = Envelope {
                frames: vec![SessionFrame {
                    session: SessionId(999),
                    payload: Bytes::from(vec![0xCD]),
                }],
            };
            actions.sends.push(SendSpec {
                from,
                to,
                payload: Bytes::from(stray.encode_to_vec()),
            });
            // Bytes that don't decode as an envelope at all.
            actions.sends.push(SendSpec {
                from,
                to,
                payload: Bytes::from_static(&[0xFF; 3]),
            });
        }
        actions
    }
}

#[test]
fn flooding_adversary_is_shed_without_corrupting_sessions() {
    let n = 4;
    let t = max_faults(n);
    let plan = SessionPlan::closed(2);
    let config = EngineConfig {
        inbox_frames_per_sender: 2,
        ..EngineConfig::default()
    };
    let report = Sim::new(n)
        .corrupt(PartyId(n - 1), Corruption::Scripted)
        .with_adversary(Flood { live: SessionId(0) })
        .run(move |ctx, _id| {
            run_engine_party(ctx, &plan, &config, |sctx, sid| {
                let input = Nat::from_u64(300 + 7 * sid.0 + sctx.me().index() as u64);
                pi_n(sctx, &input, BaKind::TurpinCoan)
            })
        });
    assert_eq!(t, 1);
    let outs = report.honest_outputs();
    for out in &outs {
        assert_eq!(out.decided.len(), 2, "both sessions must decide");
        assert!(out.stats.shed_frames > 0, "inbox cap must shed the flood");
        assert!(
            out.stats.stray_frames > 0,
            "unknown session must be counted"
        );
        assert!(
            out.stats.malformed_envelopes > 0,
            "undecodable bytes must be counted"
        );
    }
    for sid in 0..2u64 {
        let first = outs[0].output_of(SessionId(sid)).unwrap();
        assert!(
            outs.iter()
                .all(|o| o.output_of(SessionId(sid)) == Some(first)),
            "parties disagree on s{sid}"
        );
    }
}

/// Adaptively corrupts `party` at `round`: from then on its sends are
/// suppressed and the simulator tears its thread down.
#[derive(Debug)]
struct CorruptAt {
    party: PartyId,
    round: u64,
}

impl Adversary for CorruptAt {
    fn on_round(&mut self, view: &RoundView<'_>) -> RoundActions {
        let mut actions = RoundActions::default();
        if view.round == self.round {
            actions.corrupt.push(self.party);
        }
        actions
    }
}

/// Teardown by disconnect: the simulator corrupts an engine-hosting party
/// at round 2 of a K = 8 closed-loop deployment, while that party's driver
/// waits at the transport barrier and all 8 of its session threads are
/// parked on their inboxes. Releasing the party must unwind its driver
/// and every session thread, so the run returns; the other honest parties
/// must still decide all 8 sessions identically.
#[test]
fn adaptive_corruption_tears_down_parked_sessions() {
    let n = 4;
    let k = 8;
    let victim = PartyId(1);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let plan = SessionPlan::closed(k);
        let config = EngineConfig::default();
        let report = Sim::new(n)
            .with_adversary(CorruptAt {
                party: victim,
                round: 2,
            })
            .run(move |ctx, _id| {
                run_engine_party(ctx, &plan, &config, |sctx, sid| {
                    let input = Nat::from_u64(900 + 11 * sid.0 + sctx.me().index() as u64);
                    pi_n(sctx, &input, BaKind::TurpinCoan)
                })
            });
        let _ = done_tx.send(report);
    });
    let report = done_rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("the run must return once the corrupted party is torn down");

    assert_eq!(report.corrupted, vec![victim]);
    assert!(report.outputs[victim.index()].is_none());
    let outs = report.honest_outputs();
    assert_eq!(outs.len(), n - 1);
    for out in &outs {
        let decided: Vec<u64> = out.decided.iter().map(|(s, _)| s.0).collect();
        assert_eq!(decided, (0..k as u64).collect::<Vec<_>>());
    }
    for pair in outs.windows(2) {
        assert_eq!(pair[0].decided, pair[1].decided, "parties disagree");
    }
}
