//! End-to-end contracts of the tracing subsystem: every fault-free run
//! produces a trace that satisfies the `ca-trace check` invariants, traces
//! are deterministic (so `ca-trace diff` is meaningful), diffs pinpoint an
//! injected adversary, and tracing never perturbs the measured metrics.

use std::sync::Arc;

use convex_agreement::adversary::{Attack, AttackKind};
use convex_agreement::ba::BaKind;
use convex_agreement::bits::Int;
use convex_agreement::core::pi_z;
use convex_agreement::net::Sim;
use convex_agreement::trace::{
    check, first_divergence, read_jsonl, Record, RingBufferSink, TraceSink,
};
use proptest::prelude::*;

/// Runs `Π_ℤ` on `inputs` under `attack` with tracing and returns the
/// trace (executor-flushed, canonical order).
fn traced_run(inputs: &[Int], attack: Attack) -> Vec<Record> {
    let n = inputs.len();
    let t = convex_agreement::net::max_faults(n);
    let sink = Arc::new(RingBufferSink::new(4_000_000));
    let sim = attack
        .install(Sim::new(n), n, t)
        .with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let inputs = inputs.to_vec();
    sim.run(move |ctx, id| pi_z(ctx, &inputs[id.index()], BaKind::TurpinCoan));
    let records = sink.records();
    assert_eq!(
        sink.total_seen() as usize,
        records.len(),
        "ring wrapped; grow the capacity"
    );
    records
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// Any fault-free run's trace satisfies every `ca-trace check`
    /// invariant: monotone rounds, balanced scopes, sends inside scopes,
    /// and decisions inside the honest input hull.
    #[test]
    fn prop_fault_free_traces_check_clean(
        n in 4usize..8,
        raw in proptest::collection::vec(any::<i64>(), 8),
    ) {
        let inputs: Vec<Int> = raw[..n].iter().map(|&v| Int::from_i64(v)).collect();
        let records = traced_run(&inputs, Attack::none());
        prop_assert!(!records.is_empty());
        let violations = check(&records);
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
    }

    /// The same configuration always produces the byte-identical trace —
    /// the property that makes `ca-trace diff` meaningful at all.
    #[test]
    fn prop_traces_are_deterministic(
        n in 4usize..8,
        raw in proptest::collection::vec(any::<i64>(), 8),
        attack_idx in 0usize..11,
    ) {
        let inputs: Vec<Int> = raw[..n].iter().map(|&v| Int::from_i64(v)).collect();
        let attack = Attack::standard_suite(3)[attack_idx];
        let a = traced_run(&inputs, attack);
        let b = traced_run(&inputs, attack);
        prop_assert!(first_divergence(&a, &b).is_none(), "nondeterministic trace");
    }
}

/// Two runs that differ *only* by the injected adversary strategy diverge,
/// and the divergence carries enough context (party, round, scope) to
/// localize the injection.
#[test]
fn diff_pinpoints_injected_adversary() {
    let inputs: Vec<Int> = [40i64, 41, 42, 43, 44, 45, 46]
        .iter()
        .map(|&v| Int::from_i64(v))
        .collect();
    let clean = traced_run(&inputs, Attack::none());
    let attacked = traced_run(&inputs, Attack::new(AttackKind::Garbage).with_seed(11));

    let div = first_divergence(&clean, &attacked).expect("an injected adversary must show up");
    // The prefix before the divergence is genuinely shared.
    assert_eq!(clean[..div.index], attacked[..div.index]);
    let record = div
        .right
        .as_ref()
        .expect("the attacked side has the extra record");
    // The first divergent record is adversary activity, attributed to a
    // corrupted party with its round and scope.
    assert!(
        matches!(
            record.event,
            convex_agreement::trace::Event::FaultInjected { .. }
        ),
        "expected the fault injection itself to be the first divergence, got {record:?}"
    );
    assert!(record.party.is_some(), "divergence must name the party");
    let rendered = div.to_string();
    assert!(
        rendered.contains("diverge"),
        "Display names the divergence: {rendered}"
    );
    assert!(
        rendered.contains("fault"),
        "Display shows the divergent event: {rendered}"
    );
}

/// Two *different* adversary strategies with the same corruption budget
/// also diverge from each other — not just from the clean run — once the
/// scripted behavior differs (crash = silence, garbage = spray).
#[test]
fn diff_separates_adversary_strategies() {
    let inputs: Vec<Int> = (0..7).map(|i| Int::from_i64(1000 + i)).collect();
    let crash = traced_run(&inputs, Attack::new(AttackKind::Crash));
    let garbage = traced_run(&inputs, Attack::new(AttackKind::Garbage));
    let div = first_divergence(&crash, &garbage).expect("crash and garbage traces differ");
    // Both runs fault the same scripted parties, so the FaultInjected
    // prefix is shared and the divergence is actual adversary traffic.
    assert!(div.index > 0, "the fault-injection prefix must be shared");
}

/// A hand-crafted timeline in which every party certifies a fast-path
/// value *outside* the honest-input hull (inputs 3..7, certified value 9):
/// `ca-trace check` must reject it via the `fast-path-in-hull` rule, and
/// the matching `Decide` records independently trip the ordinary
/// `decide-in-hull` rule. No well-formedness rule may fire — the fixture
/// is a structurally valid trace whose *protocol claim* is wrong.
#[test]
fn fixture_fast_path_escape_is_rejected() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/fast_path_escape.jsonl");
    let records = read_jsonl(&path).expect("fixture parses as JSONL trace records");
    assert!(!records.is_empty());
    let violations = check(&records);
    assert!(
        violations.iter().any(|v| v.rule == "fast-path-in-hull"),
        "fast-path escape must be caught: {violations:?}"
    );
    assert!(
        violations.iter().any(|v| v.rule == "decide-in-hull"),
        "the matching decides sit outside the hull too: {violations:?}"
    );
    for v in &violations {
        assert!(
            matches!(v.rule, "fast-path-in-hull" | "decide-in-hull"),
            "fixture must be well-formed apart from the hull escape: {v}"
        );
    }
}

/// Tracing is observation-only: a run with a sink attached reports
/// bit-identical `Metrics` to the same run without one.
#[test]
fn tracing_does_not_perturb_metrics() {
    let inputs: Vec<Int> = (0..7).map(|i| Int::from_i64(-3 * i)).collect();
    for attack in [Attack::none(), Attack::new(AttackKind::Garbage)] {
        let n = inputs.len();
        let t = convex_agreement::net::max_faults(n);
        let run = |traced: bool| {
            let mut sim = attack.install(Sim::new(n), n, t);
            if traced {
                sim = sim.with_trace(Arc::new(RingBufferSink::new(4_000_000)));
            }
            let inputs = inputs.clone();
            sim.run(move |ctx, id| pi_z(ctx, &inputs[id.index()], BaKind::TurpinCoan))
                .metrics
        };
        let base = run(false);
        let traced = run(true);
        assert_eq!(
            base,
            traced,
            "metrics drifted under tracing [{}]",
            attack.name()
        );
        assert!(base.honest_bits > 0);
    }
}

/// Byte-identical traces, pinned: one traced `Π_ℕ` run at n = 7 with an
/// equivocating adversary, one lying-honest party (P6) and one adaptive
/// corruption (P0 at round 9). The adversary's sends reach every inbox
/// after the honest ones, out of sender order. The digests were taken
/// from the executor before its inbox and metering rewrite; any change
/// to trace order, delivery order or metering shows up here.
#[test]
fn golden_trace_is_pinned() {
    use convex_agreement::adversary::Equivocate;
    use convex_agreement::bits::Nat;
    use convex_agreement::core::pi_n;
    use convex_agreement::crypto::sha256;
    use convex_agreement::net::{Adversary, Corruption, PartyId, RoundActions, RoundView};

    let inputs: Vec<Nat> = [7_001u64, 7_040, 6_990, 7_013, 7_100, 7_022, 1 << 40]
        .iter()
        .map(|&v| Nat::from_u64(v))
        .collect();
    let mut equivocate = Equivocate::new(17);
    let adversary = move |view: &RoundView<'_>| -> RoundActions {
        let mut actions = equivocate.on_round(view);
        if view.round == 9 {
            actions.corrupt.push(PartyId(0));
        }
        actions
    };
    let sink = Arc::new(RingBufferSink::new(4_000_000));
    let report = Sim::new(7)
        .corrupt(PartyId(6), Corruption::LyingHonest)
        .with_adversary(adversary)
        .with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>)
        .run(move |ctx, id| pi_n(ctx, &inputs[id.index()], BaKind::TurpinCoan));
    let records = sink.records();
    assert_eq!(sink.total_seen() as usize, records.len(), "ring wrapped");
    let jsonl: String = records.iter().map(|r| r.to_jsonl() + "\n").collect();
    assert_eq!(records.len(), 12_851);
    assert_eq!(
        sha256(jsonl.as_bytes()).to_hex(),
        "8a6aa5aa3aacc848fc930f890fc6484c27dd2a5da89050752bd61f5eb32993c2",
        "the JSONL trace changed"
    );
    let m = &report.metrics;
    assert_eq!(
        (m.honest_bits, m.honest_msgs, m.adversary_bits, m.rounds),
        (337_584, 3_504, 257_632, 154)
    );
    assert_eq!(
        sha256(format!("{m:?}").as_bytes()).to_hex(),
        "46c729d71d33823aa67afd8f2c9815da493874336b063883048a899a05a7505d",
        "per-scope counters or histograms changed"
    );
    assert_eq!(report.corrupted, vec![PartyId(0), PartyId(6)]);
}
