//! End-to-end and per-layer benchmark of the convex-agreement backends.
//!
//! One closed-loop client keeps one agreement (or deployment) in flight
//! and repeats it for a fixed wall time. The untraced run reports what a
//! user of the system sees; the traced run wraps every party's `Comm` in
//! a [`probe::ProbeComm`] and reports per-layer figures. See `README.md`
//! next to this crate for the workloads and what each metric should move.

pub mod probe;
pub mod replay;
pub mod sys;
pub mod workload;

use std::time::{Duration, Instant};

use probe::{Tally, LAYER_SCOPES, OTHER};
use sys::{ProcessCpu, Steal};
use workload::{Probe, Setup, Unit, Workload, SETUPS, SETUP_BATCHES};

/// One metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    (name.into(), value, unit)
}

/// What one invocation produced.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every check passed: no wrong decision, probe counts equal the
    /// executor's, traced exact counts equal untraced ones, and every
    /// replayed decode equalled its input.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Units run, and how many of them the timing figures rest on.
    pub units: usize,
    pub timed_units: usize,
}

/// Linear-interpolation quantile of `xs` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `workload` for `seconds` of wall time with inputs from `seed`.
///
/// Untraced (`traced == false`), units run back to back without a
/// wrapper and the end-to-end metrics are reported. Traced, units come in
/// pairs on the same inputs, one unwrapped and one through a timed
/// [`probe::ProbeComm`]; the per-layer metrics come from the wrapped one,
/// `trace.overhead_share` compares the two, and their exact counts must
/// be equal. In both, [`SETUPS`] set-ups are measured in
/// [`SETUP_BATCHES`] batches spread evenly over the run, between units
/// and outside their timing.
pub fn run(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut setups: Vec<Setup> = Vec::new();
    let mut made = 0u64;
    let mut batches_until = |due: u64| {
        const BATCH: u64 = SETUPS / SETUP_BATCHES;
        while (setups.len() as u64) < due * BATCH {
            // The first set-up after a unit costs several times a warm one
            // (about 2 ms against 0.23 ms on `sim-n16-1mib-equivocate`), so
            // each batch starts with one that is not recorded.
            workload.setup(seed, made);
            for i in 1..=BATCH {
                setups.push(workload.setup(seed, made + i));
            }
            made += 1 + BATCH;
        }
    };
    let mut plain = Vec::new();
    let mut probed = Vec::new();
    let mut correct = true;
    let mut index = 0u64;
    // Always at least one unit (one pair when traced), so the exact
    // counts come from the same inputs whatever the machine's speed.
    while plain.is_empty() || start.elapsed() < budget {
        // The cost of a set-up drifts with the state of a shared host
        // over seconds; spreading them lets the median see the whole run.
        let share = start.elapsed().as_secs_f64() / budget.as_secs_f64();
        batches_until(((SETUP_BATCHES as f64 * share).ceil() as u64).clamp(1, SETUP_BATCHES));
        if traced {
            // Alternate which side of a pair runs first, so warm-up and
            // drift do not land on one side.
            let first_plain = index.is_multiple_of(2);
            let base = first_plain.then(|| measured(workload, seed, index, Probe::Off));
            let unit = measured(workload, seed, index, Probe::Timed);
            let base = base.unwrap_or_else(|| measured(workload, seed, index, Probe::Off));
            correct &= !unit.probe_mismatch
                && (unit.honest_bits, unit.rounds) == (base.honest_bits, base.rounds)
                && base.metrics == unit.metrics;
            plain.push(base);
            probed.push(unit);
        } else {
            plain.push(measured(workload, seed, index, Probe::Off));
        }
        index += 1;
    }
    batches_until(SETUP_BATCHES);

    let all = plain.iter().chain(&probed);
    let attempted: u64 = all.clone().map(|u| u.agreements).sum();
    let failed: u64 = all.clone().map(|u| u.failed).sum();
    correct &= all.clone().all(|u| u.wrong == 0);

    let timed = least_stolen(&plain);
    let metrics = if traced {
        let (layers, replay_ok) = layer_metrics(workload, seed, &plain, &probed, &setups);
        correct &= replay_ok;
        layers
    } else {
        end_to_end_metrics(&plain[0], &timed, &setups)
    };
    Outcome {
        attempted,
        failed,
        correct,
        metrics,
        units: plain.len(),
        timed_units: timed.len(),
    }
}

/// Runs one unit, recording the process CPU it used and the share of the
/// machine's CPU time the hypervisor stole while it ran.
fn measured(workload: Workload, seed: u64, index: u64, probe: Probe) -> Unit {
    let (cpu, steal) = (ProcessCpu::now(), Steal::now());
    let mut unit = workload.unit(seed, index, probe);
    unit.cpu = ProcessCpu::now().since(&cpu);
    unit.steal_share = Steal::now().share_since(&steal, unit.wall_s);
    unit
}

/// Stolen share of the machine's CPU time up to which a unit's timing
/// counts as undisturbed.
pub const STEAL_LIMIT: f64 = 0.01;

/// The units the timing figures rest on: those during which the
/// hypervisor stole at most [`STEAL_LIMIT`] of the machine's CPU time,
/// or, when fewer than half of them are, the less stolen half.
///
/// On a shared host a guest whose CPUs are taken away for a while runs
/// its lock-step rounds up to three times slower, and such spells can
/// last most of a run. That measures the host, which no change to the
/// program can move.
fn least_stolen(units: &[Unit]) -> Vec<&Unit> {
    let calm: Vec<&Unit> = units
        .iter()
        .filter(|u| u.steal_share <= STEAL_LIMIT)
        .collect();
    if 2 * calm.len() >= units.len() {
        return calm;
    }
    let mut by_steal: Vec<&Unit> = units.iter().collect();
    by_steal.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
    by_steal.truncate(units.len().div_ceil(2));
    by_steal
}

/// End-to-end metrics: exact counts from the run's `first` unit, timing
/// from the `timed` ones.
fn end_to_end_metrics(first: &Unit, units: &[&Unit], setups: &[Setup]) -> Vec<Metric> {
    let agreements: u64 = units.iter().map(|u| u.agreements).sum();
    let mut cpu = ProcessCpu::default();
    for u in units {
        cpu.add(&u.cpu);
    }
    // Rates and tails are taken per unit and the run reports their median,
    // so a burst of load from outside the program that hits a few units
    // does not set the run's figure. A p90 needs ten samples; Sim units
    // hold one agreement, so those runs pool their agreements instead.
    let throughput: Vec<f64> = units
        .iter()
        .map(|u| ratio((u.agreements - u.failed) as f64, u.wall_s))
        .collect();
    let latencies: Vec<f64> = units
        .iter()
        .flat_map(|u| u.latencies_s.iter().copied())
        .collect();
    let p90 = if units.iter().all(|u| u.latencies_s.len() >= 10) {
        let per_unit: Vec<f64> = units
            .iter()
            .map(|u| quantile(&u.latencies_s, 0.9))
            .collect();
        quantile(&per_unit, 0.5)
    } else {
        quantile(&latencies, 0.9)
    };
    // Set-up is on-CPU time: the wall time of a set-up is a few thread
    // wake-ups, which outside load on a shared machine sets rather than
    // the program (it is the per-layer `setup.ready_s`).
    let setup_cpu: Vec<f64> = setups.iter().map(|s| s.cpu_s).collect();
    // Exact counts come from the first unit: the same seed gives the
    // same inputs, so they repeat bit for bit.
    let per = |x: u64| ratio(x as f64, first.agreements as f64);
    vec![
        metric("agreements_per_s", quantile(&throughput, 0.5), "1/s"),
        metric("agreement_ms_p50", 1e3 * quantile(&latencies, 0.5), "ms"),
        metric("agreement_ms_p90", 1e3 * p90, "ms"),
        metric(
            "cpu_s_per_agreement",
            ratio(cpu.total_s(), agreements as f64),
            "s",
        ),
        metric("honest_bits_per_agreement", per(first.honest_bits), "bit"),
        metric("rounds_per_agreement", per(first.rounds), "count"),
        metric("wire_bytes_per_agreement", per(first.wire_bytes), "B"),
        metric("setup_s", quantile(&setup_cpu, 0.5), "s"),
        metric("peak_rss_mib", sys::peak_rss_mib(), "MiB"),
    ]
}

/// Per-layer metrics of a traced run, and whether every replay verified.
fn layer_metrics(
    workload: Workload,
    seed: u64,
    plain: &[Unit],
    probed: &[Unit],
    setups: &[Setup],
) -> (Vec<Metric>, bool) {
    let mut cpu = ProcessCpu::default();
    for u in probed {
        cpu.add(&u.cpu);
    }
    let mut tally = Tally::default();
    let mut engine = ca_engine::EngineStats::default();
    let mut runtime = ca_runtime::RuntimeStats::default();
    for u in probed {
        tally.absorb(u.tally.clone());
        if let Some(e) = &u.engine {
            engine.absorb(e);
        }
        if let Some(r) = &u.runtime {
            workload::add_runtime(&mut runtime, r);
        }
    }
    let agreements = probed.iter().map(|u| u.agreements).sum::<u64>() as f64;
    let per = |x: f64| ratio(x, agreements);
    let secs = |ns: u64| per(ns as f64 * 1e-9);
    // Per-party averages: every honest party enters the same scopes.
    let per_party = |x: u64| per(x as f64) / workload.honest_parties() as f64;
    let slowdowns: Vec<f64> = probed
        .iter()
        .zip(plain)
        .map(|(p, u)| ratio(p.wall_s, u.wall_s))
        .collect();

    let mut m: Vec<Metric> = Vec::new();
    m.push(metric("net.round_wait_s", secs(tally.round_wait_ns), "s"));
    m.push(metric("net.round_cpu_s", secs(tally.round_cpu_ns), "s"));
    m.push(metric("net.send_s", secs(tally.send_ns), "s"));
    let body_cpu = tally.body_cpu_ns as f64 * 1e-9;
    m.push(metric(
        "net.coordinator_cpu_s",
        per((cpu.total_s() - body_cpu).max(0.0)),
        "s",
    ));
    m.push(metric("net.msgs", per(tally.msgs as f64), "count"));
    let floors = replay::executor_floors(workload.n());
    m.push(metric("net.round_floor_us", 1e6 * floors.round_s, "us"));
    m.push(metric("net.msg_floor_ns", 1e9 * floors.msg_s, "ns"));

    for (slot, (_, prefix)) in LAYER_SCOPES.iter().enumerate() {
        m.push(metric(
            format!("{prefix}.cpu_s"),
            secs(tally.scope_cpu_ns[slot]),
            "s",
        ));
        m.push(metric(
            format!("{prefix}.bits"),
            per(tally.scope_bits[slot] as f64),
            "bit",
        ));
        m.push(metric(
            format!("{prefix}.rounds"),
            per_party(tally.scope_rounds[slot]),
            "count",
        ));
    }
    m.push(metric(
        "core.other.cpu_s",
        secs(tally.scope_cpu_ns[OTHER]),
        "s",
    ));

    // Kernels, replayed at the largest observed `lba+` shape, and the
    // modelled kernel time of every observed call.
    let n = workload.n();
    let k = n - ca_net::max_faults(n);
    let mut ok = true;
    let mut modelled = 0.0;
    let mut kernels = replay::Kernels::default();
    for (i, (&msg, &calls)) in tally.lba_share_bytes.iter().rev().enumerate() {
        let payload = replay::payload_for_share_msg(n, k, msg);
        match replay::kernels(n, k, payload, seed ^ msg as u64) {
            Some(kr) => {
                modelled += calls as f64 * kr.lba_call_s;
                if i == 0 {
                    kernels = kr;
                }
            }
            None => ok = false,
        }
    }
    m.push(metric("erasure.encode_mbps", kernels.encode_mbps, "MB/s"));
    m.push(metric("erasure.decode_mbps", kernels.decode_mbps, "MB/s"));
    m.push(metric(
        "crypto.merkle_build_us",
        kernels.merkle_build_us,
        "us",
    ));
    m.push(metric(
        "crypto.merkle_verify_us",
        kernels.merkle_verify_us,
        "us",
    ));
    m.push(metric("crypto.sha256_mbps", kernels.sha256_mbps, "MB/s"));
    m.push(metric(
        "kernel.lba_calls",
        per_party(tally.lba_calls),
        "count",
    ));
    m.push(metric("kernel.modelled_cpu_s", per(modelled), "s"));

    // Codec round trips at the observed message size and batching.
    let msg_bytes = ratio(tally.bits as f64 / 8.0, tally.msgs as f64).round() as usize;
    let frames_per_envelope = ratio(engine.frames_sent as f64, engine.envelopes_sent as f64);
    let (envelope_mbps, frame_mbps) =
        replay::codec(msg_bytes, frames_per_envelope.round() as usize).unwrap_or_else(|| {
            ok = false;
            (0.0, 0.0)
        });
    m.push(metric("codec.envelope_mbps", envelope_mbps, "MB/s"));
    m.push(metric("codec.frame_mbps", frame_mbps, "MB/s"));

    m.push(metric(
        "engine.frames_per_envelope",
        frames_per_envelope,
        "count",
    ));
    // Rounds from session entry to decision, exact (the engine's own
    // histogram is bucketed by powers of two).
    let on_engine = workload == Workload::EngineN4K256;
    let engine_only = |x: f64| if on_engine { x } else { 0.0 };
    let session_rounds: Vec<f64> = tally.body_rounds.iter().map(|&r| r as f64).collect();
    m.push(metric(
        "engine.session_latency_rounds_p50",
        engine_only(quantile(&session_rounds, 0.5)),
        "count",
    ));
    m.push(metric(
        "engine.session_latency_rounds_p90",
        engine_only(quantile(&session_rounds, 0.9)),
        "count",
    ));
    m.push(metric(
        "engine.session_cpu_s",
        engine_only(per(body_cpu)),
        "s",
    ));
    m.push(metric(
        "engine.handoff_wait_s",
        engine_only(secs(tally.round_wait_ns)),
        "s",
    ));
    m.push(metric(
        "engine.shed_frames",
        per(engine.shed_frames as f64),
        "count",
    ));
    m.push(metric(
        "engine.late_frames",
        per(engine.late_frames as f64),
        "count",
    ));
    m.push(metric(
        "engine.stray_frames",
        per(engine.stray_frames as f64),
        "count",
    ));
    m.push(metric(
        "engine.malformed_envelopes",
        per(engine.malformed_envelopes as f64),
        "count",
    ));

    let on_tcp = workload == Workload::TcpN4;
    let waits_ms: Vec<f64> = if on_tcp {
        tally
            .round_waits_ns
            .iter()
            .map(|&ns| ns as f64 * 1e-6)
            .collect()
    } else {
        Vec::new()
    };
    m.push(metric(
        "runtime.round_wait_ms_p50",
        quantile(&waits_ms, 0.5),
        "ms",
    ));
    m.push(metric(
        "runtime.round_wait_ms_p90",
        quantile(&waits_ms, 0.9),
        "ms",
    ));
    let sys_share = if on_tcp {
        ratio(cpu.sys_s, cpu.total_s())
    } else {
        0.0
    };
    m.push(metric("runtime.sys_cpu_share", sys_share, "share"));
    m.push(metric(
        "runtime.frames_sent",
        per(runtime.frames_sent as f64),
        "count",
    ));
    m.push(metric(
        "runtime.frames_shed",
        per(runtime.frames_shed as f64),
        "count",
    ));
    m.push(metric(
        "runtime.dial_retries",
        per(runtime.dial_retries as f64),
        "count",
    ));
    m.push(metric(
        "runtime.handshake_rejects",
        per(runtime.handshake_rejects as f64),
        "count",
    ));
    m.push(metric(
        "runtime.peers_gone",
        per(runtime.peers_gone as f64),
        "count",
    ));

    let ready: Vec<f64> = setups.iter().map(|s| s.ready_s).collect();
    m.push(metric("setup.ready_s", quantile(&ready, 0.5), "s"));

    m.push(metric(
        "trace.overhead_share",
        quantile(&slowdowns, 0.5) - 1.0,
        "share",
    ));
    (m, ok)
}
