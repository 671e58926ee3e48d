//! The traced run observes; it must not change what it observes.

use std::sync::Mutex;

use ca_adversary::{Attack, AttackKind};
use ca_ba::BaKind;
use ca_bits::Nat;
use ca_codec::Encode;
use ca_core::pi_n;
use ca_crypto::MerkleTree;
use ca_engine::loadgen::session_inputs;
use ca_erasure::ReedSolomon;
use ca_net::{max_faults, Sim};
use ca_runtime::TcpCluster;
use perfbench::probe::{ProbeComm, Tally};
use perfbench::replay::payload_for_share_msg;
use perfbench::workload::{probe_matches_metrics, Workload};

const BA: BaKind = BaKind::TurpinCoan;

fn inputs(n: usize, ell: usize, attack: &Attack, seed: u64) -> Vec<Nat> {
    session_inputs(seed, n, max_faults(n), ell, ell / 4, attack)
}

/// Like `tracing_does_not_perturb_metrics`: wrapping every party's `Comm`
/// leaves the run's `Metrics` and outputs exactly as they were, and the
/// wrapper's own bits, messages, rounds and per-scope bits equal them.
#[test]
fn probe_counts_equal_untraced_metrics() {
    let cases = [
        (4, 64, Attack::none()),
        (7, 64, Attack::new(AttackKind::Equivocate)),
        // ℓ > n²: the long-input path through find_prefix and lba+.
        (7, 4096, Attack::new(AttackKind::Equivocate)),
        (10, 2048, Attack::none()),
    ];
    for (n, ell, attack) in cases {
        let t = max_faults(n);
        let vals = inputs(n, ell, &attack, 11);
        let plain = attack
            .install(Sim::new(n), n, t)
            .run(|ctx, id| pi_n(ctx, &vals[id.index()], BA));
        for timed in [false, true] {
            let tally = Mutex::new(Tally::default());
            let probed = attack.install(Sim::new(n), n, t).run(|ctx, id| {
                let mut probe = ProbeComm::new(ctx, timed);
                let out = pi_n(&mut probe, &vals[id.index()], BA);
                tally.lock().unwrap().absorb(probe.finish());
                out
            });
            let case = format!("n={n} ell={ell} {} timed={timed}", attack.name());
            assert_eq!(probed.metrics, plain.metrics, "{case}: metrics perturbed");
            assert_eq!(probed.outputs, plain.outputs, "{case}: outputs perturbed");
            let tally = tally.into_inner().unwrap();
            assert_eq!(tally.bits, plain.metrics.honest_bits, "{case}");
            assert_eq!(tally.msgs, plain.metrics.honest_msgs, "{case}");
            assert_eq!(
                tally.body_rounds,
                vec![plain.metrics.rounds; n - attack.corrupted_parties(n, t).len()]
            );
            assert!(
                probe_matches_metrics(&tally, &plain.metrics),
                "{case}: per-scope bits differ"
            );
            assert_eq!(
                tally.scope_bits.iter().sum::<u64>(),
                tally.bits,
                "{case}: scope bits lost"
            );
        }
    }
}

/// On TCP the probe is the only meter: its count must equal what the
/// simulator meters for the same inputs.
#[test]
fn probe_on_tcp_counts_what_the_simulator_meters() {
    let n = 4;
    let runs: Vec<Vec<Nat>> = (0..3).map(|s| inputs(n, 64, &Attack::none(), s)).collect();
    let sim_bits: u64 = runs
        .iter()
        .map(|vals| {
            Sim::new(n)
                .run(|ctx, id| pi_n(ctx, &vals[id.index()], BA))
                .metrics
                .honest_bits
        })
        .sum();
    let tally = Mutex::new(Tally::default());
    TcpCluster::new(n)
        .run_report(|ctx, id| {
            let mut probe = ProbeComm::new(ctx, false);
            for vals in &runs {
                pi_n(&mut probe, &vals[id.index()], BA);
            }
            tally.lock().unwrap().absorb(probe.finish());
        })
        .unwrap();
    assert_eq!(tally.into_inner().unwrap().bits, sim_bits);
}

/// The replay's inversion from a dispersal message size back to the value
/// size lands on a value of the same codeword length.
#[test]
fn share_message_size_inverts_to_payload_size() {
    for (n, k, len) in [(4, 3, 9), (16, 11, 131_080), (64, 43, 9), (7, 5, 777)] {
        let rs = ReedSolomon::new(n, k).unwrap();
        let shares = rs.encode(&vec![7u8; len]);
        let leaves: Vec<Vec<u8>> = shares.iter().map(Encode::encode_to_vec).collect();
        let tree = MerkleTree::build(&leaves);
        let j = n - 1;
        let msg = (j as u32, shares[j].clone(), tree.witness(j))
            .encode_to_vec()
            .len();
        let guess = payload_for_share_msg(n, k, msg);
        let again = rs.encode(&vec![7u8; guess]);
        assert_eq!(
            again[j].len(),
            shares[j].len(),
            "n={n} k={k} len={len} guess={guess}"
        );
    }
}

/// Both run modes print exactly the metrics `BENCHMARK.json` declares,
/// and pass every check (the traced one also compares each wrapped unit
/// with its unwrapped twin).
#[test]
fn metric_names_match_benchmark_json() {
    let spec =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let declared = |section: &str| -> Vec<String> {
        let body = &spec[spec.find(&format!("\"{section}\"")).unwrap()..];
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_owned())
            .collect()
    };
    for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = perfbench::run(Workload::TcpN4, 3, 1, traced);
        assert!(out.correct && out.failed == 0, "traced={traced}");
        let names: Vec<String> = out.metrics.iter().map(|(n, _, _)| n.clone()).collect();
        assert_eq!(names, declared(section), "traced={traced}");
    }
}

/// A set-up of every workload enters every party and costs some CPU, so
/// `setup_s` and `setup.ready_s` never read 0.
#[test]
fn every_workload_sets_up() {
    for workload in Workload::ALL {
        let setup = workload.setup(5, 0);
        assert!(setup.cpu_s > 0.0, "{}", workload.name());
        assert!(setup.ready_s > 0.0, "{}", workload.name());
    }
}
