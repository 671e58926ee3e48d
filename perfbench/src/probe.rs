//! The traced run's only instrument: a [`Comm`] wrapper between protocol
//! code and the backend.
//!
//! [`ProbeComm`] forwards every call unchanged and, on the side, counts
//! what the backend meters (payload bits and messages to other parties,
//! rounds) and, when timed, measures the layers around it:
//!
//! * wall and on-CPU time inside `next_round` (the executor, engine
//!   hand-off or transport wait, depending on the backend),
//! * wall time inside `send_bytes`,
//! * self on-CPU time of protocol code between `Comm` calls, charged to
//!   the innermost scope of [`LAYER_SCOPES`] on the scope stack.
//!
//! Sends are attributed to the scope that is current when the round is
//! flushed, exactly as the simulator's `Metrics` attributes them, so the
//! counted bits per scope path equal `Metrics::per_scope` (the
//! `observation` test holds that).

use std::collections::BTreeMap;
use std::time::Instant;

use bytes::Bytes;
use ca_net::{Comm, FaultEstimate, Inbox, PartyId};

use crate::sys::ThreadCpu;

/// Protocol scopes reported one by one: `(scope name, metric prefix)`.
/// Time, bits and rounds in any other scope go to the innermost listed
/// ancestor, or to [`OTHER`] outside all of them.
pub const LAYER_SCOPES: [(&str, &str); 9] = [
    ("pi_n", "core.pi_n"),
    ("find_prefix", "core.find_prefix"),
    ("get_output", "core.get_output"),
    ("add_last_block", "core.add_last_block"),
    ("high_cost", "core.high_cost"),
    ("lba+", "ba.lba_plus"),
    ("ba+", "ba.ba_plus"),
    ("tc", "ba.tc"),
    ("pk", "ba.pk"),
];

/// Slot for work outside every listed scope.
pub const OTHER: usize = LAYER_SCOPES.len();

/// The scope path outside every scope, as `ca-net` names it.
const ROOT: &str = "_root";

/// What one or more party bodies did, summed over them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Payload bits sent to other parties (the paper's `BITSℓ` share).
    pub bits: u64,
    /// Messages sent to other parties.
    pub msgs: u64,
    /// `next_round` calls.
    pub rounds: u64,
    /// Bits per full `/`-joined scope path.
    pub path_bits: BTreeMap<String, u64>,
    /// Per listed scope (index into [`LAYER_SCOPES`], then [`OTHER`]).
    pub scope_bits: [u64; OTHER + 1],
    pub scope_rounds: [u64; OTHER + 1],
    pub scope_cpu_ns: [u64; OTHER + 1],
    /// Entries into the `lba+` scope.
    pub lba_calls: u64,
    /// Largest message sent directly in `lba+` (the codeword dispersal)
    /// per call, as size → number of calls.
    pub lba_share_bytes: BTreeMap<usize, u64>,
    /// Time inside `next_round`: wall, on-CPU, and each call's wall.
    pub round_wait_ns: u64,
    pub round_cpu_ns: u64,
    pub round_waits_ns: Vec<u64>,
    /// Wall time inside `send_bytes`.
    pub send_ns: u64,
    /// On-CPU time of the whole body.
    pub body_cpu_ns: u64,
    /// `next_round` calls of each body folded in.
    pub body_rounds: Vec<u64>,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.bits += other.bits;
        self.msgs += other.msgs;
        self.rounds += other.rounds;
        for (k, v) in other.path_bits {
            *self.path_bits.entry(k).or_default() += v;
        }
        for i in 0..=OTHER {
            self.scope_bits[i] += other.scope_bits[i];
            self.scope_rounds[i] += other.scope_rounds[i];
            self.scope_cpu_ns[i] += other.scope_cpu_ns[i];
        }
        self.lba_calls += other.lba_calls;
        for (k, v) in other.lba_share_bytes {
            *self.lba_share_bytes.entry(k).or_default() += v;
        }
        self.round_wait_ns += other.round_wait_ns;
        self.round_cpu_ns += other.round_cpu_ns;
        self.round_waits_ns.extend(other.round_waits_ns);
        self.send_ns += other.send_ns;
        self.body_cpu_ns += other.body_cpu_ns;
        self.body_rounds.extend(other.body_rounds);
    }
}

/// A counting (and, if timed, timing) pass-through [`Comm`].
pub struct ProbeComm<'a> {
    inner: &'a mut dyn Comm,
    me: PartyId,
    cpu: Option<ThreadCpu>,
    tally: Tally,
    /// Scope stack: names and the listed slot each level charges.
    names: Vec<String>,
    slots: Vec<usize>,
    path: String,
    /// Sends not yet flushed by `next_round`.
    pending_bits: u64,
    /// Largest direct `lba+` send of the current call.
    lba_max: usize,
    start_cpu: u64,
    mark_cpu: u64,
}

impl<'a> ProbeComm<'a> {
    /// Wraps `inner`; `timed` adds the clock reads (counts are always kept).
    pub fn new(inner: &'a mut dyn Comm, timed: bool) -> Self {
        let me = inner.me();
        let cpu = timed.then(ThreadCpu::open);
        let start_cpu = cpu.as_ref().map_or(0, ThreadCpu::now_ns);
        ProbeComm {
            inner,
            me,
            cpu,
            tally: Tally::default(),
            names: Vec::new(),
            slots: Vec::new(),
            path: ROOT.to_owned(),
            pending_bits: 0,
            lba_max: 0,
            start_cpu,
            mark_cpu: start_cpu,
        }
    }

    fn slot(&self) -> usize {
        self.slots.last().copied().unwrap_or(OTHER)
    }

    /// Charges on-CPU time since the last boundary to the current scope.
    fn boundary(&mut self) -> u64 {
        let Some(cpu) = &self.cpu else { return 0 };
        let now = cpu.now_ns();
        let slot = self.slot();
        self.tally.scope_cpu_ns[slot] += now - self.mark_cpu;
        self.mark_cpu = now;
        now
    }

    fn flush_sends(&mut self) {
        let bits = std::mem::take(&mut self.pending_bits);
        if bits > 0 {
            let slot = self.slot();
            self.tally.scope_bits[slot] += bits;
            *self.tally.path_bits.entry(self.path.clone()).or_default() += bits;
        }
    }

    fn set_path(&mut self) {
        self.path = if self.names.is_empty() {
            ROOT.to_owned()
        } else {
            self.names.join("/")
        };
    }

    /// Ends the body: flushes what the backend flushes at exit and returns
    /// the counts.
    pub fn finish(mut self) -> Tally {
        self.flush_sends();
        let now = self.boundary();
        if self.cpu.is_some() {
            self.tally.body_cpu_ns = now - self.start_cpu;
        }
        self.tally.body_rounds = vec![self.tally.rounds];
        self.tally
    }
}

impl Comm for ProbeComm<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn t(&self) -> usize {
        self.inner.t()
    }

    fn me(&self) -> PartyId {
        self.me
    }

    fn send_bytes(&mut self, to: PartyId, payload: Bytes) {
        let len = payload.len();
        if to != self.me {
            self.tally.bits += 8 * len as u64;
            self.tally.msgs += 1;
            self.pending_bits += 8 * len as u64;
        }
        if self.names.last().is_some_and(|s| s == "lba+") {
            self.lba_max = self.lba_max.max(len);
        }
        if self.cpu.is_some() {
            let t0 = Instant::now();
            self.inner.send_bytes(to, payload);
            self.tally.send_ns += t0.elapsed().as_nanos() as u64;
        } else {
            self.inner.send_bytes(to, payload);
        }
    }

    fn next_round(&mut self) -> Inbox {
        self.flush_sends();
        let slot = self.slot();
        self.tally.rounds += 1;
        self.tally.scope_rounds[slot] += 1;
        if self.cpu.is_none() {
            return self.inner.next_round();
        }
        let cpu0 = self.boundary();
        let t0 = Instant::now();
        let inbox = self.inner.next_round();
        let wait = t0.elapsed().as_nanos() as u64;
        let cpu1 = self.cpu.as_ref().map_or(0, ThreadCpu::now_ns);
        self.tally.round_wait_ns += wait;
        self.tally.round_waits_ns.push(wait);
        self.tally.round_cpu_ns += cpu1 - cpu0;
        self.mark_cpu = cpu1;
        inbox
    }

    fn push_scope(&mut self, name: &str) {
        self.boundary();
        let slot = LAYER_SCOPES
            .iter()
            .position(|(s, _)| *s == name)
            .unwrap_or(self.slot());
        if name == "lba+" {
            self.tally.lba_calls += 1;
            self.lba_max = 0;
        }
        self.names.push(name.to_owned());
        self.slots.push(slot);
        self.set_path();
        self.inner.push_scope(name);
    }

    fn pop_scope(&mut self) {
        self.boundary();
        if self.names.last().is_some_and(|s| s == "lba+") && self.lba_max > 0 {
            *self.tally.lba_share_bytes.entry(self.lba_max).or_default() += 1;
        }
        self.names.pop();
        self.slots.pop();
        self.set_path();
        self.inner.pop_scope();
    }

    fn silent_parties(&self) -> Vec<PartyId> {
        self.inner.silent_parties()
    }

    fn fault_estimate(&self) -> FaultEstimate {
        self.inner.fault_estimate()
    }

    fn trace_enabled(&self) -> bool {
        self.inner.trace_enabled()
    }

    fn trace(&mut self, event: ca_trace::Event) {
        self.inner.trace(event);
    }
}
