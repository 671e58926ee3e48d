//! The four workloads and one "unit" of each: the smallest piece of work
//! that starts and stops a backend.
//!
//! * Sim workloads: one unit is one `Sim::run` of one agreement.
//! * `engine-n4-k256`: one unit is one deployment of 256 sessions.
//! * `tcp-n4`: one unit is one clique running [`TCP_AGREEMENTS`]
//!   agreements back to back.
//!
//! Every unit checks every decision it produced. A set-up
//! ([`Workload::setup`]) makes a unit's backend call with bodies that
//! return at once, so it measures bringing the backend up and down alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ca_adversary::{Attack, AttackKind};
use ca_ba::BaKind;
use ca_bits::Nat;
use ca_core::{check_agreement, check_convex_validity, pi_n};
use ca_engine::loadgen::{derive_seed, plan_of, session_inputs};
use ca_engine::{run_engine_party, EngineStats, LoadProfile};
use ca_net::{max_faults, Comm, Metrics, Sim};
use ca_runtime::{RuntimeStats, TcpCluster};

use crate::probe::{ProbeComm, Tally};
use crate::sys::{ProcessCpu, ThreadCpu};

/// Agreements one TCP clique runs before it is torn down.
pub const TCP_AGREEMENTS: usize = 50;
/// Sessions per engine deployment.
pub const ENGINE_SESSIONS: usize = 256;
/// Synchrony bound of the TCP workload.
const TCP_DELTA: Duration = Duration::from_millis(500);
/// The `Π_BA` instantiation every workload runs (Turpin–Coan).
const BA: BaKind = BaKind::TurpinCoan;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimN64,
    SimN16Equivocate,
    EngineN4K256,
    TcpN4,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimN64,
        Workload::SimN16Equivocate,
        Workload::EngineN4K256,
        Workload::TcpN4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimN64 => "sim-n64",
            Workload::SimN16Equivocate => "sim-n16-1mib-equivocate",
            Workload::EngineN4K256 => "engine-n4-k256",
            Workload::TcpN4 => "tcp-n4",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn n(self) -> usize {
        match self {
            Workload::SimN64 => 64,
            Workload::SimN16Equivocate => 16,
            Workload::EngineN4K256 | Workload::TcpN4 => 4,
        }
    }

    /// Parties that run the protocol (all but the scripted adversary).
    pub fn honest_parties(self) -> usize {
        self.n()
            - self
                .attack()
                .corrupted_parties(self.n(), max_faults(self.n()))
                .len()
    }

    /// Input length ℓ in bits.
    pub fn ell(self) -> usize {
        match self {
            Workload::SimN16Equivocate => 1 << 20,
            _ => 64,
        }
    }

    fn attack(self) -> Attack {
        match self {
            Workload::SimN16Equivocate => Attack::new(AttackKind::Equivocate),
            _ => Attack::none(),
        }
    }

    /// Runs unit number `index` of a run seeded with `seed`.
    pub fn unit(self, seed: u64, index: u64, probe: Probe) -> Unit {
        let seed = derive_seed(seed, index);
        match self {
            Workload::SimN64 | Workload::SimN16Equivocate => self.sim_unit(seed, probe),
            Workload::EngineN4K256 => engine_unit(seed, probe),
            // The runtime has no metering of its own: the counting probe
            // is its `BITSℓ` meter.
            Workload::TcpN4 if probe == Probe::Off => tcp_unit(seed, Probe::Count),
            Workload::TcpN4 => tcp_unit(seed, probe),
        }
    }

    fn sim_unit(self, seed: u64, probe: Probe) -> Unit {
        let (n, ell, attack) = (self.n(), self.ell(), self.attack());
        let t = max_faults(n);
        let inputs = session_inputs(seed, n, t, ell, ell / 4, &attack);
        let sim = attack.install(Sim::new(n), n, t);
        let start = Instant::now();
        let tally = Mutex::new(Tally::default());
        let report =
            sim.run(|ctx, id| run_probed(ctx, probe, &tally, |c| pi_n(c, &inputs[id.index()], BA)));
        let wall = start.elapsed();

        let honest = report.honest_parties();
        let outputs: Vec<Nat> = report.honest_outputs().into_iter().cloned().collect();
        let honest_inputs: Vec<Nat> = honest.iter().map(|p| inputs[p.index()].clone()).collect();
        let decided = outputs.len() == honest.len();
        let wrong = !(check_agreement(&outputs) && check_convex_validity(&outputs, &honest_inputs));
        let m = &report.metrics;
        let tally = tally.into_inner().expect("tally lock");
        Unit {
            agreements: 1,
            latencies_s: vec![wall.as_secs_f64()],
            wall_s: wall.as_secs_f64(),
            honest_bits: m.honest_bits,
            rounds: m.rounds,
            // The simulator has no wire: its traffic is the payload.
            wire_bytes: m.honest_bits / 8,
            failed: u64::from(!decided || wrong),
            wrong: u64::from(wrong),
            probe_mismatch: probe != Probe::Off && !probe_matches_metrics(&tally, m),
            tally,
            metrics: Some(report.metrics),
            ..Unit::default()
        }
    }
}

/// Whether the probe's counts equal the executor's metering exactly:
/// bits, messages, every party's rounds, and bits per scope path.
pub fn probe_matches_metrics(tally: &Tally, m: &Metrics) -> bool {
    let scope_bits: std::collections::BTreeMap<String, u64> = m
        .per_scope
        .iter()
        .filter(|(_, s)| s.honest_bits > 0)
        .map(|(k, s)| (k.clone(), s.honest_bits))
        .collect();
    tally.bits == m.honest_bits
        && tally.msgs == m.honest_msgs
        && tally.body_rounds.iter().all(|&r| r == m.rounds)
        && tally.path_bits == scope_bits
}

/// Everything one unit produced.
#[derive(Debug, Default)]
pub struct Unit {
    /// Agreements attempted (engine: sessions offered).
    pub agreements: u64,
    /// Per-agreement latency samples, seconds.
    pub latencies_s: Vec<f64>,
    pub wall_s: f64,
    /// Exact counts summed over the unit's agreements.
    pub honest_bits: u64,
    pub rounds: u64,
    pub wire_bytes: u64,
    /// Undecided, rejected or wrong agreements; `wrong` only the last.
    pub failed: u64,
    pub wrong: u64,
    /// Process CPU while the unit ran.
    pub cpu: ProcessCpu,
    /// Share of the machine's CPU time the hypervisor stole while it ran.
    pub steal_share: f64,
    /// Traced counts and times (empty without a probe).
    pub tally: Tally,
    pub metrics: Option<Metrics>,
    pub engine: Option<EngineStats>,
    pub runtime: Option<RuntimeStats>,
    /// The probe disagreed with the executor's own metering.
    pub probe_mismatch: bool,
}

/// How a unit observes its parties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// No wrapper: what a user runs.
    Off,
    /// [`ProbeComm`] counting only.
    Count,
    /// [`ProbeComm`] counting and timing.
    Timed,
}

/// Runs `body` on `ctx`, through a [`ProbeComm`] unless `probe` is off,
/// folding the probe's counts into `tally`.
fn run_probed<O>(
    ctx: &mut dyn Comm,
    probe: Probe,
    tally: &Mutex<Tally>,
    body: impl FnOnce(&mut dyn Comm) -> O,
) -> O {
    match probe {
        Probe::Off => body(ctx),
        Probe::Count | Probe::Timed => {
            let mut p = ProbeComm::new(ctx, probe == Probe::Timed);
            let out = body(&mut p);
            tally.lock().expect("tally lock").absorb(p.finish());
            out
        }
    }
}

/// Set-ups measured per run; `setup_s` is their median.
pub const SETUPS: u64 = 40;
/// The measured set-ups come in this many batches, spread over the run.
pub const SETUP_BATCHES: u64 = 8;

/// What one set-up cost.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// On-CPU time: the calling thread over the whole backend call, plus
    /// every thread the backend started up to the end of its body.
    pub cpu_s: f64,
    /// Wall time from the call until every party had entered its body
    /// (on the engine, its first session's body).
    pub ready_s: f64,
}

/// Clocks one set-up from the thread that makes the backend call.
struct SetupClock {
    start: Instant,
    caller: ThreadCpu,
    caller_ns: u64,
    last_entry_ns: AtomicU64,
    thread_ns: AtomicU64,
}

impl SetupClock {
    fn new() -> Self {
        let caller = ThreadCpu::open();
        SetupClock {
            caller_ns: caller.now_ns(),
            caller,
            last_entry_ns: AtomicU64::new(0),
            thread_ns: AtomicU64::new(0),
            start: Instant::now(),
        }
    }

    fn enter(&self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        self.last_entry_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Adds the calling thread's on-CPU time since it was started.
    fn leave(&self) {
        let ns = ThreadCpu::open().now_ns();
        self.thread_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn finish(self) -> Setup {
        let caller_ns = self.caller.now_ns() - self.caller_ns;
        let threads_ns = self.thread_ns.load(Ordering::Relaxed);
        Setup {
            cpu_s: (caller_ns + threads_ns) as f64 * 1e-9,
            ready_s: self.last_entry_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

impl Workload {
    /// Brings the backend up and down once, as unit number `index` of a
    /// run seeded with `seed` would, but with bodies that return as soon
    /// as they are entered: no agreement runs.
    ///
    /// # Panics
    ///
    /// If a TCP clique cannot be set up on localhost.
    pub fn setup(self, seed: u64, index: u64) -> Setup {
        let seed = derive_seed(seed, index);
        let n = self.n();
        let clock = SetupClock::new();
        match self {
            Workload::SimN64 | Workload::SimN16Equivocate => {
                let sim = self.attack().install(Sim::new(n), n, max_faults(n));
                sim.run(|_, _| {
                    clock.enter();
                    clock.leave();
                });
            }
            Workload::EngineN4K256 => {
                let profile = engine_profile(seed);
                let plan = plan_of(&profile);
                Sim::new(n).run(|ctx, _| {
                    run_engine_party(ctx, &plan, &profile.config, |_, sid| {
                        if sid.0 == 0 {
                            clock.enter();
                        }
                        clock.leave();
                    });
                    clock.leave();
                });
            }
            Workload::TcpN4 => {
                TcpCluster::new(n)
                    .with_delta(TCP_DELTA)
                    .run_report(|_, _| {
                        clock.enter();
                        clock.leave();
                    })
                    .expect("set up a TCP clique on localhost");
            }
        }
        clock.finish()
    }
}

fn engine_profile(seed: u64) -> LoadProfile {
    let w = Workload::EngineN4K256;
    LoadProfile {
        seed,
        ..LoadProfile::closed(w.n(), ENGINE_SESSIONS, w.ell())
    }
}

fn engine_unit(seed: u64, probe: Probe) -> Unit {
    let n = Workload::EngineN4K256.n();
    let ell = Workload::EngineN4K256.ell();
    let t = max_faults(n);
    let profile = engine_profile(seed);
    let plan = plan_of(&profile);
    let inputs: Vec<Vec<Nat>> = (0..ENGINE_SESSIONS as u64)
        .map(|sid| {
            let s = derive_seed(seed, sid);
            session_inputs(s, n, t, ell, profile.spread_bits, &profile.attack)
        })
        .collect();
    let start = Instant::now();
    let tally = Mutex::new(Tally::default());
    let latencies = Mutex::new(Vec::with_capacity(ENGINE_SESSIONS));
    let report = Sim::new(n).run(|ctx, _| {
        run_engine_party(ctx, &plan, &profile.config, |sctx, sid| {
            let t0 = Instant::now();
            let me = sctx.me().index();
            let out = run_probed(sctx, probe, &tally, |c| {
                pi_n(c, &inputs[sid.0 as usize][me], BA)
            });
            if me == 0 {
                latencies
                    .lock()
                    .expect("latency lock")
                    .push(t0.elapsed().as_secs_f64());
            }
            out
        })
    });
    let wall = start.elapsed();

    let outputs = report.honest_outputs();
    let mut stats = EngineStats::default();
    for out in &outputs {
        stats.absorb(&out.stats);
    }
    let mut failed = 0;
    let mut wrong = 0;
    for spec in &plan.sessions {
        let sid = spec.id;
        let decisions: Vec<Nat> = outputs
            .iter()
            .filter_map(|o| o.output_of(sid).cloned())
            .collect();
        let bad = !(check_agreement(&decisions)
            && check_convex_validity(&decisions, &inputs[sid.0 as usize]));
        failed += u64::from(decisions.len() != outputs.len() || bad);
        wrong += u64::from(bad);
    }
    let tally = tally.into_inner().expect("tally lock");
    Unit {
        agreements: ENGINE_SESSIONS as u64,
        latencies_s: latencies.into_inner().expect("latency lock"),
        wall_s: wall.as_secs_f64(),
        honest_bits: stats.payload_bits_total(),
        rounds: outputs[0].stats.session_rounds.sum(),
        wire_bytes: stats.wire_bits / 8,
        failed,
        wrong,
        probe_mismatch: probe != Probe::Off && tally.bits != stats.payload_bits_total(),
        tally,
        metrics: Some(report.metrics),
        engine: Some(stats),
        ..Unit::default()
    }
}

fn tcp_unit(seed: u64, probe: Probe) -> Unit {
    let n = Workload::TcpN4.n();
    let ell = Workload::TcpN4.ell();
    let t = max_faults(n);
    let inputs: Vec<Vec<Nat>> = (0..TCP_AGREEMENTS as u64)
        .map(|a| session_inputs(derive_seed(seed, a), n, t, ell, ell / 4, &Attack::none()))
        .collect();
    let start = Instant::now();
    let tally = Mutex::new(Tally::default());
    let result = TcpCluster::new(n)
        .with_delta(TCP_DELTA)
        .run_report(|ctx, id| {
            run_probed(ctx, probe, &tally, |c| {
                let mut decisions = Vec::with_capacity(TCP_AGREEMENTS);
                let mut latencies = Vec::with_capacity(TCP_AGREEMENTS);
                for agreement in &inputs {
                    let t0 = Instant::now();
                    decisions.push(pi_n(c, &agreement[id.index()], BA));
                    latencies.push(t0.elapsed().as_secs_f64());
                }
                (decisions, latencies)
            })
        });
    let wall = start.elapsed();
    let agreements = TCP_AGREEMENTS as u64;
    let Ok(report) = result else {
        // A clique that could not be set up decided nothing.
        return Unit {
            agreements,
            wall_s: wall.as_secs_f64(),
            failed: agreements,
            ..Unit::default()
        };
    };

    let mut failed = 0;
    let mut wrong = 0;
    for (a, agreement) in inputs.iter().enumerate() {
        let decisions: Vec<Nat> = report.outputs.iter().map(|(d, _)| d[a].clone()).collect();
        let bad = !(check_agreement(&decisions) && check_convex_validity(&decisions, agreement));
        failed += u64::from(bad);
        wrong += u64::from(bad);
    }
    let mut runtime = RuntimeStats::default();
    for s in &report.stats {
        add_runtime(&mut runtime, s);
    }
    let tally = tally.into_inner().expect("tally lock");
    Unit {
        agreements,
        latencies_s: report.outputs[0].1.clone(),
        wall_s: wall.as_secs_f64(),
        honest_bits: tally.bits,
        rounds: report.rounds[0],
        wire_bytes: runtime.wire_bytes_sent,
        failed,
        wrong,
        tally,
        runtime: Some(runtime),
        ..Unit::default()
    }
}

/// Sums the transport counters the benchmark reports.
pub fn add_runtime(acc: &mut RuntimeStats, s: &RuntimeStats) {
    acc.frames_sent += s.frames_sent;
    acc.wire_bytes_sent += s.wire_bytes_sent;
    acc.frames_shed += s.frames_shed;
    acc.peers_gone += s.peers_gone;
    acc.dial_retries += s.dial_retries;
    acc.handshake_rejects += s.handshake_rejects;
}
