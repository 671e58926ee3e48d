//! The engine driver: one party's multi-tenant session executor.
//!
//! Runs on the same [`Lockstep`] core as the `Sim` executor, one level
//! up. Each admitted session is a lock-step member: its protocol body
//! runs on its own scoped thread against a member `Comm`. The driver —
//! itself running as an ordinary party closure against any [`Comm`], so
//! the same code multiplexes over the deterministic `Sim` and the TCP
//! runtime — repeats a lock-step service round:
//!
//! 1. **Admit** due sessions while the table has capacity (open-loop
//!    arrivals past capacity are rejected, closed-loop ones wait).
//! 2. **Collect** exactly one report per live session, in session-id
//!    order (determinism does not depend on thread scheduling).
//! 3. **Replay** each session's buffered trace events through the parent
//!    transport under the `engine/s<id>` scope prefix.
//! 4. **Batch** all sessions' same-destination sends into session-tagged
//!    envelopes and flush them once per destination.
//! 5. **Advance** the shared transport round, then **route** incoming
//!    envelope frames into bounded per-session inboxes, shedding floods
//!    past the per-sender cap.
//! 6. **Reap** decided sessions, recording latency and output.
//!
//! Teardown is by disconnect: dropping the `Lockstep` drops every
//! session's deliver sender, which unwinds session threads cleanly even
//! when the transport itself shuts the driver down mid-round (e.g. the
//! simulator adaptively corrupting this party).

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use ca_codec::{Encode as _, Writer};
use ca_net::{panic_message, Comm, Inbox, Lockstep, PartyId, Report};
use ca_runtime::LENGTH_PREFIX_LEN;
use ca_trace::{Event, Record};

use crate::{
    ArrivalMode, EngineConfig, EngineStats, Envelope, EnvelopeRef, SessionFrame, SessionId,
    SessionPlan,
};

/// The trace scope every engine-level record lives under; sessions nest
/// below it as `engine/s<id>/…`.
pub const ENGINE_SCOPE: &str = "engine";

/// What one party's engine run produced.
#[derive(Debug)]
pub struct EngineOutput<O> {
    /// Decided sessions with their protocol outputs, in session-id order.
    pub decided: Vec<(SessionId, O)>,
    /// Arrivals rejected by admission control, in arrival order.
    pub rejected: Vec<SessionId>,
    /// Aggregate service measurements.
    pub stats: EngineStats,
}

impl<O> EngineOutput<O> {
    /// The decided output of `sid`, if that session ran here.
    pub fn output_of(&self, sid: SessionId) -> Option<&O> {
        self.decided
            .binary_search_by_key(&sid, |(s, _)| *s)
            .ok()
            .map(|i| &self.decided[i].1)
    }
}

/// Replays one session's round of buffered trace events through the
/// parent transport, nesting them under `s<id>` plus the session's scope
/// stack as it stood after the previous round. `rel_stack` tracks that
/// stack across rounds.
fn replay_session_trace(
    ctx: &mut dyn Comm,
    sid: SessionId,
    rel_stack: &mut Vec<String>,
    trace: Vec<Record>,
) {
    if trace.is_empty() {
        return;
    }
    let tag = sid.scope_tag();
    ctx.push_scope(&tag);
    for name in rel_stack.iter() {
        ctx.push_scope(name);
    }
    for Record { event, .. } in trace {
        match event {
            Event::ScopeEnter { name } => {
                ctx.push_scope(&name);
                rel_stack.push(name);
            }
            Event::ScopeExit { .. } => {
                ctx.pop_scope();
                rel_stack.pop();
            }
            other => ctx.trace(other),
        }
    }
    for _ in 0..=rel_stack.len() {
        ctx.pop_scope();
    }
}

// ---------------------------------------------------------------------------
// Deployment wire-cost model
// ---------------------------------------------------------------------------
//
// `Metrics::honest_bits` stays payload-only (the paper's BITSℓ); the
// engine additionally models what a TCP deployment pays per transport
// message, per round, and per connection, using the exact
// `ca_runtime::Frame` layout. This is the denominator of the S1
// amortization claim: K multiplexed sessions share round markers,
// connection setup, and per-message framing that K isolated deployments
// each pay in full.

/// Wire bits of shipping `payload_len` envelope bytes as one
/// `Frame::Msg { round, payload }`.
fn msg_wire_bits(round: u64, payload_len: usize) -> u64 {
    let body = 1 + Writer::varint_len(round) + Writer::varint_len(payload_len as u64) + payload_len;
    8 * (LENGTH_PREFIX_LEN + body) as u64
}

/// Wire bits of the `Frame::Eor { round }` markers one round costs: one
/// per peer.
fn round_sync_bits(n: usize, round: u64) -> u64 {
    let body = 1 + Writer::varint_len(round);
    (n as u64 - 1) * 8 * (LENGTH_PREFIX_LEN + body) as u64
}

/// Wire bits of per-connection setup/teardown (`Hello` out to each peer,
/// `Bye` at drop), paid once per deployment rather than once per session.
fn connection_bits(n: usize, me: PartyId) -> u64 {
    let hello_body = 1 + Writer::varint_len(me.index() as u64);
    let bye_body = 1usize;
    (n as u64 - 1) * 8 * (2 * LENGTH_PREFIX_LEN + hello_body + bye_body) as u64
}

struct Slot {
    rel_stack: Vec<String>,
    admit_round: u64,
    rounds: u64,
}

/// Runs this party's share of a multi-tenant engine deployment.
///
/// `body` is the per-session protocol (e.g. `ca_core::pi_n` applied to
/// the session's input); it runs once per admitted session against a
/// session-scoped `Comm`. All honest parties must call this with the same
/// `plan` and `config` — admission is part of the lock-step state.
///
/// Works over any transport: pass the `ctx` given to a `Sim::run` or
/// `TcpCluster::run` party closure.
///
/// # Panics
///
/// Panics if a session body panics (with that session's panic message),
/// or if `config` capacities are zero.
// ca-budget: scope(engine) — the round scope is pushed via ENGINE_SCOPE, not a literal
pub fn run_engine_party<O, F>(
    ctx: &mut dyn Comm,
    plan: &SessionPlan,
    config: &EngineConfig,
    body: F,
) -> EngineOutput<O>
where
    O: Send,
    F: Fn(&mut dyn Comm, SessionId) -> O + Sync,
{
    assert!(config.max_sessions > 0, "engine needs table capacity");
    assert!(config.max_batch_frames > 0, "engine needs batch capacity");
    assert!(
        config.inbox_frames_per_sender > 0,
        "engine needs inbox capacity"
    );

    let n = ctx.n();
    let t = ctx.t();
    let me = ctx.me();
    let mut stats = EngineStats::default();
    stats.wire_bits += connection_bits(n, me);
    let mut decided: Vec<(SessionId, O)> = Vec::new();
    let mut rejected: Vec<SessionId> = Vec::new();

    ctx.push_scope(ENGINE_SCOPE);
    let trace_on = ctx.trace_enabled();
    std::thread::scope(|scope| {
        let body: &(dyn Fn(&mut dyn Comm, SessionId) -> O + Sync) = &body;
        // Capacity is the session table's: at most one in-flight report
        // per live session.
        let mut sessions = Lockstep::new(scope, n, t, trace_on, config.max_sessions);
        let mut table: BTreeMap<u64, Slot> = BTreeMap::new();
        let mut reaped: BTreeSet<u64> = BTreeSet::new();
        let mut next_spec = 0usize;
        let mut engine_round: u64 = 0;

        loop {
            // ---- 1. Admission ----
            while next_spec < plan.sessions.len() {
                let spec = &plan.sessions[next_spec];
                if plan.mode == ArrivalMode::Open && spec.arrival_round > engine_round {
                    break;
                }
                let duplicate = table.contains_key(&spec.id.0) || reaped.contains(&spec.id.0);
                if table.len() >= config.max_sessions || duplicate {
                    if plan.mode == ArrivalMode::Closed && !duplicate {
                        break; // closed loop: wait for a slot to free up
                    }
                    // Open loop (or duplicate id): shed the arrival.
                    rejected.push(spec.id);
                    stats.sessions_rejected += 1;
                    if ctx.trace_enabled() {
                        ctx.trace(Event::Note {
                            label: "engine_reject".to_owned(),
                            value: spec.id.to_string(),
                        });
                    }
                    next_spec += 1;
                    continue;
                }
                let sid = spec.id;
                sessions.spawn(sid.0, me, move |sctx| body(sctx, sid));
                table.insert(
                    spec.id.0,
                    Slot {
                        rel_stack: Vec::new(),
                        admit_round: engine_round,
                        rounds: 0,
                    },
                );
                stats.sessions_admitted += 1;
                if ctx.trace_enabled() {
                    ctx.trace(Event::Note {
                        label: "engine_admit".to_owned(),
                        value: spec.id.to_string(),
                    });
                }
                next_spec += 1;
            }

            if table.is_empty() {
                if next_spec >= plan.sessions.len() {
                    break; // drained: every session decided or rejected
                }
                // Open-loop idle gap: next arrival is in the future.
                let _ = ctx.next_round();
                stats.peers_gone = stats.peers_gone.max(ctx.silent_parties().len() as u64);
                stats.wire_bits += round_sync_bits(n, engine_round);
                stats.engine_rounds += 1;
                engine_round += 1;
                continue;
            }

            // ---- 2+3+4. Collect one report per live session, in
            // session-id order; replay and queue outgoing ----
            // Frames per destination accumulate in session order, so the
            // wire image is independent of session-thread scheduling.
            let mut outgoing: Vec<Vec<SessionFrame>> = vec![Vec::new(); n];
            for (sid_raw, report) in sessions.collect() {
                let sid = SessionId(sid_raw);
                match report {
                    Report::Round { sends, trace, .. } => {
                        let slot = table.get_mut(&sid_raw).expect("live session has a slot");
                        slot.rounds += 1;
                        replay_session_trace(ctx, sid, &mut slot.rel_stack, trace);
                        queue_sends(&mut outgoing, &mut stats, me, sid, sends);
                    }
                    Report::Done {
                        output,
                        sends,
                        trace,
                    } => {
                        let mut slot = table.remove(&sid_raw).expect("live session has a slot");
                        replay_session_trace(ctx, sid, &mut slot.rel_stack, trace);
                        queue_sends(&mut outgoing, &mut stats, me, sid, sends);
                        stats.sessions_decided += 1;
                        stats.session_rounds.record(slot.rounds);
                        stats
                            .session_latency_rounds
                            .record(engine_round - slot.admit_round + 1);
                        reaped.insert(sid_raw);
                        if ctx.trace_enabled() {
                            ctx.trace(Event::Note {
                                label: "engine_reap".to_owned(),
                                value: sid.to_string(),
                            });
                        }
                        decided.push((sid, output));
                    }
                    Report::Panicked { payload } => {
                        panic!(
                            "engine session {sid} panicked: {}",
                            panic_message(payload.as_ref())
                        );
                    }
                }
            }

            // ---- 4. Batch & flush envelopes ----
            for (to, frames) in outgoing.into_iter().enumerate() {
                if frames.is_empty() {
                    continue;
                }
                let to = PartyId(to);
                let mut frames = frames;
                while !frames.is_empty() {
                    let rest = if frames.len() > config.max_batch_frames {
                        frames.split_off(config.max_batch_frames)
                    } else {
                        Vec::new()
                    };
                    let env = Envelope { frames };
                    let payload = env.encode_to_vec();
                    if to != me {
                        stats.envelopes_sent += 1;
                        stats.frames_sent += env.frames.len() as u64;
                        stats.batch_occupancy.record(env.frames.len() as u64);
                        stats.wire_bits += msg_wire_bits(engine_round, payload.len());
                    }
                    // ca-budget: raw-send(envelope batcher meters wire_bits per batch above; per-frame CommExt metering would double-count)
                    ctx.send_bytes(to, Bytes::from(payload));
                    frames = rest;
                }
            }

            if table.is_empty() && next_spec >= plan.sessions.len() {
                // Graceful shutdown: the last sessions decided this round.
                // Their fire-and-forget tail is buffered in the transport
                // exactly like a single protocol's final sends — nobody is
                // left waiting on a further round boundary.
                break;
            }

            // ---- 5. Advance the shared transport round ----
            let inbox = ctx.next_round();
            stats.peers_gone = stats.peers_gone.max(ctx.silent_parties().len() as u64);
            stats.wire_bits += round_sync_bits(n, engine_round);
            stats.engine_rounds += 1;
            engine_round += 1;

            // ---- 5. Route incoming frames to session inboxes ----
            let mut routed: BTreeMap<u64, Inbox> = table
                .keys()
                .map(|sid| (*sid, Inbox::with_parties(n)))
                .collect();
            for from in 0..n {
                let from = PartyId(from);
                // Per-(session, sender) backpressure: honest peers send at
                // most one frame per session per round, so the cap only
                // ever sheds byzantine floods.
                let mut accepted: BTreeMap<u64, usize> = BTreeMap::new();
                for raw in inbox.raw_from(from) {
                    // Borrowed decode: frame payloads point into `raw`, and
                    // each accepted one is re-anchored into the shared
                    // allocation with `slice_ref` — routing a batch to k
                    // sessions copies nothing.
                    let env = match EnvelopeRef::decode_from_slice(raw) {
                        Ok(env) => env,
                        Err(_) => {
                            stats.malformed_envelopes += 1;
                            continue;
                        }
                    };
                    for frame in env.frames {
                        let sid = frame.session.0;
                        let Some(session_inbox) = routed.get_mut(&sid) else {
                            if reaped.contains(&sid) {
                                stats.late_frames += 1;
                            } else {
                                stats.stray_frames += 1;
                            }
                            continue;
                        };
                        let count = accepted.entry(sid).or_insert(0);
                        if *count >= config.inbox_frames_per_sender {
                            stats.shed_frames += 1;
                        } else {
                            *count += 1;
                            session_inbox.push(from, raw.slice_ref(frame.payload));
                        }
                    }
                }
            }

            // ---- 5. Deliver ----
            for (sid, session_inbox) in routed {
                sessions.deliver(sid, session_inbox);
            }
        }
    });
    ctx.pop_scope();

    decided.sort_by_key(|(sid, _)| *sid);
    EngineOutput {
        decided,
        rejected,
        stats,
    }
}

fn queue_sends(
    outgoing: &mut [Vec<SessionFrame>],
    stats: &mut EngineStats,
    me: PartyId,
    sid: SessionId,
    sends: Vec<(PartyId, Bytes)>,
) {
    for (to, payload) in sends {
        if to != me {
            *stats.payload_bits.entry(sid.0).or_insert(0) += 8 * payload.len() as u64;
        }
        outgoing[to.index()].push(SessionFrame {
            session: sid,
            payload,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_net::{CommExt as _, Sim};
    use ca_runtime::Frame;

    /// The hand-computed wire model must match the transport's actual
    /// frame layout bit for bit.
    #[test]
    fn wire_model_matches_frame_layout() {
        for (round, len) in [(0u64, 0usize), (5, 3), (300, 200), (1 << 20, 70_000)] {
            let frame = Frame::Msg {
                round,
                payload: vec![0xCD; len],
            };
            assert_eq!(msg_wire_bits(round, len), 8 * frame.wire_len() as u64);
        }
        let eor = Frame::Eor { round: 300 };
        assert_eq!(round_sync_bits(4, 300), 3 * 8 * eor.wire_len() as u64);
        let hello = Frame::Hello { from: 2 };
        assert_eq!(
            connection_bits(4, PartyId(2)),
            3 * 8 * (hello.wire_len() + Frame::Bye.wire_len()) as u64
        );
    }

    /// A 3-round all-to-all summing protocol, multiplexed K ways over the
    /// simulator: every session decides the same (correct) value on every
    /// party, and the engine terminates cleanly.
    #[test]
    fn multiplexed_echo_sessions_decide() {
        let n = 4;
        let k = 5;
        let plan = SessionPlan::closed(k);
        let config = EngineConfig::default();
        let report = Sim::new(n).run(|ctx, _id| {
            run_engine_party(ctx, &plan, &config, |sctx, sid| {
                let mut sum = 0u64;
                for round in 0..3u64 {
                    let inbox = sctx.exchange(&(sid.0 * 100 + round));
                    sum += inbox
                        .decode_each::<u64>()
                        .into_iter()
                        .map(|(_, v)| v)
                        .sum::<u64>();
                }
                sum
            })
        });
        let outputs = report.honest_outputs();
        assert_eq!(outputs.len(), n);
        for out in &outputs {
            assert_eq!(out.decided.len(), k);
            assert!(out.rejected.is_empty());
            assert_eq!(out.stats.sessions_admitted, k as u64);
            assert_eq!(out.stats.sessions_decided, k as u64);
            // All sessions ran the same 3 protocol rounds concurrently.
            assert_eq!(out.stats.engine_rounds, 3);
            // Full batching: every peer envelope carries all K sessions.
            assert_eq!(out.stats.batch_occupancy.max(), k as u64);
            for (sid, sum) in &out.decided {
                let per_round: u64 = (0..n as u64).map(|_| sid.0 * 100).sum::<u64>();
                assert_eq!(*sum, per_round * 3 + 3 * n as u64);
            }
        }
        // All parties agree per session.
        for w in outputs.windows(2) {
            assert_eq!(w[0].decided, w[1].decided);
        }
    }

    /// Transport shim that mimics a peer crashing partway through: it
    /// delegates to the real simulator transport but reports the last
    /// party silent from a given round on. Only the *accounting* is
    /// faked — which is exactly the seam the engine samples.
    struct SilentAfter<'a> {
        inner: &'a mut dyn Comm,
        rounds_seen: u64,
        silent_from: u64,
    }

    impl Comm for SilentAfter<'_> {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn t(&self) -> usize {
            self.inner.t()
        }
        fn me(&self) -> PartyId {
            self.inner.me()
        }
        fn send_bytes(&mut self, to: PartyId, payload: bytes::Bytes) {
            self.inner.send_bytes(to, payload);
        }
        fn next_round(&mut self) -> Inbox {
            self.rounds_seen += 1;
            self.inner.next_round()
        }
        fn push_scope(&mut self, name: &str) {
            self.inner.push_scope(name);
        }
        fn pop_scope(&mut self) {
            self.inner.pop_scope();
        }
        fn silent_parties(&self) -> Vec<PartyId> {
            if self.rounds_seen >= self.silent_from {
                vec![PartyId(self.n() - 1)]
            } else {
                Vec::new()
            }
        }
    }

    /// The engine samples `Comm::silent_parties` after every transport
    /// round and records the peak in `EngineStats::peers_gone`.
    #[test]
    fn engine_records_peak_silent_peers() {
        let n = 4;
        let plan = SessionPlan::closed(2);
        let config = EngineConfig::default();
        let report = Sim::new(n).run(|ctx, _id| {
            let mut ctx = SilentAfter {
                inner: ctx,
                rounds_seen: 0,
                silent_from: 2,
            };
            run_engine_party(&mut ctx, &plan, &config, |sctx, _sid| {
                for _ in 0..3u64 {
                    let _ = sctx.exchange(&1u64);
                }
                0u64
            })
        });
        for out in report.honest_outputs() {
            assert_eq!(out.stats.peers_gone, 1, "{:?}", out.stats);
        }
    }

    /// Closed-loop arrivals beyond capacity queue instead of rejecting:
    /// with capacity 2 and 5 sessions of differing lengths, everything
    /// still decides and no arrival is shed.
    #[test]
    fn closed_loop_queues_past_capacity() {
        let n = 3;
        let plan = SessionPlan::closed(5);
        let config = EngineConfig {
            max_sessions: 2,
            ..EngineConfig::default()
        };
        let report = Sim::new(n).run(|ctx, _id| {
            run_engine_party(ctx, &plan, &config, |sctx, sid| {
                // Sessions run different round counts (1..=3).
                let rounds = sid.0 % 3 + 1;
                let mut last = 0u64;
                for _ in 0..rounds {
                    let inbox = sctx.exchange(&sid.0);
                    last = inbox.decode_each::<u64>().len() as u64;
                }
                last
            })
        });
        for out in report.honest_outputs() {
            assert_eq!(out.decided.len(), 5);
            assert!(out.rejected.is_empty());
            assert_eq!(out.stats.sessions_rejected, 0);
        }
    }

    /// Open-loop arrivals past capacity are rejected deterministically,
    /// and live sessions are untouched by the shedding.
    #[test]
    fn open_loop_rejects_past_capacity() {
        let n = 3;
        let plan = SessionPlan::open((0..6).map(|i| (i, 0)));
        let config = EngineConfig {
            max_sessions: 4,
            ..EngineConfig::default()
        };
        let report = Sim::new(n).run(|ctx, _id| {
            run_engine_party(ctx, &plan, &config, |sctx, sid| {
                sctx.exchange(&sid.0).decode_each::<u64>().len()
            })
        });
        for out in report.honest_outputs() {
            assert_eq!(out.decided.len(), 4);
            assert_eq!(
                out.rejected,
                vec![SessionId(4), SessionId(5)],
                "exactly the arrivals past capacity are shed, in order"
            );
            assert_eq!(out.stats.sessions_rejected, 2);
            assert!(out.decided.iter().all(|(_, len)| *len == n));
        }
    }

    /// A duplicate session id (the first still live) is rejected rather
    /// than corrupting the live session's routing.
    #[test]
    fn duplicate_session_id_rejected() {
        let n = 3;
        let plan = SessionPlan {
            mode: ArrivalMode::Closed,
            sessions: vec![
                crate::SessionSpec {
                    id: SessionId(7),
                    arrival_round: 0,
                    fast_path: None,
                },
                crate::SessionSpec {
                    id: SessionId(7),
                    arrival_round: 0,
                    fast_path: None,
                },
            ],
        };
        let config = EngineConfig::default();
        let report = Sim::new(n).run(|ctx, _id| {
            run_engine_party(ctx, &plan, &config, |sctx, _sid| {
                sctx.exchange(&1u64).decode_each::<u64>().len()
            })
        });
        for out in report.honest_outputs() {
            assert_eq!(out.decided.len(), 1);
            assert_eq!(out.rejected, vec![SessionId(7)]);
        }
    }

    /// A session panic surfaces as an engine panic carrying the session
    /// id and original message (and the simulator reports it per party).
    #[test]
    fn session_panic_surfaces_with_session_id() {
        let n = 3;
        let plan = SessionPlan::closed(2);
        let config = EngineConfig::default();
        let result = std::panic::catch_unwind(|| {
            Sim::new(n).run(|ctx, _id| {
                run_engine_party(ctx, &plan, &config, |sctx, sid| {
                    let _ = sctx.exchange(&sid.0);
                    if sid.0 == 1 {
                        panic!("session body exploded");
                    }
                    0u64
                })
            })
        });
        let err = result.expect_err("must propagate");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("s1"), "panic names the session: {msg}");
        assert!(msg.contains("session body exploded"), "{msg}");
    }
}
