//! The lock-step executor core every in-process round group runs on.
//!
//! The paper's §2 model is one synchronous round structure: each party
//! buffers its sends, reaches the round barrier, and receives everything
//! addressed to it. [`Sim`](crate::Sim), [`run_parallel`](crate::run_parallel)
//! and the `ca-engine` session driver all implement it the same way: one
//! coordinator thread and a group of *members*, each member a protocol
//! body on its own scoped thread. [`Lockstep`] owns that shared part:
//!
//! * **Member handle.** Every member runs against one [`Comm`] impl that
//!   buffers sends, keeps a scope stack and, only when tracing is on,
//!   buffers round-stamped trace [`Record`]s.
//! * **Spawn and report.** Bodies run under `catch_unwind`; each round
//!   boundary reaches the coordinator as one [`Report`].
//! * **Collect.** [`Lockstep::collect`] returns exactly one report per
//!   registered member, in member-key order, so nothing downstream
//!   depends on thread scheduling.
//! * **Deliver and release.** [`Lockstep::deliver`] hands a member its
//!   round's [`Inbox`]. [`Lockstep::release`], or dropping the
//!   `Lockstep`, drops the member's deliver sender: the member unwinds
//!   quietly out of its barrier and its thread exits.
//!
//! Each front end keeps only its own policy (metering and the adversary,
//! instance tags, session routing). Both queues are bounded: the submit
//! channel's depth is the member capacity, since a member has at most one
//! report in flight, and each deliver channel holds one inbox.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Once;
use std::thread::Scope;

use bytes::Bytes;
use ca_trace::{Event, Record, ROOT_SCOPE};

use crate::{Comm, Inbox, PartyId};

/// What a member hands its coordinator at a round boundary.
pub enum Report<O> {
    /// The member reached the barrier and waits for its inbox.
    Round {
        /// Sends buffered this round, in send order.
        sends: Vec<(PartyId, Bytes)>,
        /// The member's scope path (`_root` outside every scope).
        scope: String,
        /// Trace records buffered since the previous report.
        trace: Vec<Record>,
    },
    /// The body returned; `sends` are its fire-and-forget tail.
    Done {
        /// The body's return value.
        output: O,
        /// Sends buffered after the last barrier.
        sends: Vec<(PartyId, Bytes)>,
        /// Trace records buffered since the previous report.
        trace: Vec<Record>,
    },
    /// The body panicked (a bug, not a teardown) with this payload.
    Panicked {
        /// The original panic payload; see [`panic_message`].
        payload: Box<dyn Any + Send>,
    },
}

/// A coordinator's handle on one group of lock-step members, spawned on a
/// `std::thread::scope`.
///
/// Create it inside the scope closure: dropping it (on any exit path,
/// panics included) releases every member before the scope joins them.
pub struct Lockstep<'scope, 'env, O> {
    scope: &'scope Scope<'scope, 'env>,
    n: usize,
    t: usize,
    trace: bool,
    submit_tx: SyncSender<(u64, Report<O>)>,
    submit_rx: Receiver<(u64, Report<O>)>,
    /// Deliver senders of the registered members, by member key.
    members: BTreeMap<u64, SyncSender<Inbox>>,
}

impl<'scope, 'env, O: Send + 'scope> Lockstep<'scope, 'env, O> {
    /// A group of at most `capacity` concurrent members whose handles
    /// report `n` and `t`, and buffer trace records iff `trace`.
    pub fn new(
        scope: &'scope Scope<'scope, 'env>,
        n: usize,
        t: usize,
        trace: bool,
        capacity: usize,
    ) -> Self {
        install_quiet_hook();
        let (submit_tx, submit_rx) = sync_channel(capacity);
        Self {
            scope,
            n,
            t,
            trace,
            submit_tx,
            submit_rx,
            members: BTreeMap::new(),
        }
    }

    /// Registers member `key` and runs `body` on a new scoped thread,
    /// against a handle whose identity is `me`.
    pub fn spawn<F>(&mut self, key: u64, me: PartyId, body: F)
    where
        F: FnOnce(&mut dyn Comm) -> O + Send + 'scope,
    {
        let (deliver_tx, deliver_rx) = sync_channel(1);
        self.members.insert(key, deliver_tx);
        let member = Member {
            key,
            n: self.n,
            t: self.t,
            me,
            trace_on: self.trace,
            round: 0,
            pending: Vec::new(),
            scopes: Vec::new(),
            trace_buf: Vec::new(),
            submit: self.submit_tx.clone(),
            deliver: deliver_rx,
        };
        self.scope.spawn(move || member.run(body));
    }

    /// Blocks until every registered member has reported once, and returns
    /// the reports in member-key order. Members that reported `Done` or
    /// `Panicked` are no longer registered afterwards.
    pub fn collect(&mut self) -> Vec<(u64, Report<O>)> {
        let mut reports = BTreeMap::new();
        while reports.len() < self.members.len() {
            // ca-lint: allow(panic-path) — in-process channel; `self` holds a sender, so it never disconnects
            let (key, report) = self.submit_rx.recv().expect("lockstep holds a sender");
            // A released member may still report once on its way out.
            if self.members.contains_key(&key) {
                reports.insert(key, report);
            }
        }
        for (key, report) in &reports {
            if !matches!(report, Report::Round { .. }) {
                self.members.remove(key);
            }
        }
        reports.into_iter().collect()
    }

    /// Hands member `key` its inbox for the round it is waiting on. A
    /// no-op if `key` is not registered.
    pub fn deliver(&self, key: u64, inbox: Inbox) {
        if let Some(tx) = self.members.get(&key) {
            // The member may be gone already; that is not an error.
            let _ = tx.send(inbox);
        }
    }

    /// Tears member `key` down: it unwinds out of its barrier and reports
    /// nothing further. A no-op if `key` is not registered.
    pub fn release(&mut self, key: u64) {
        self.members.remove(&key);
    }
}

/// Panic payload that unwinds a released member out of its barrier.
struct Shutdown;

/// Teardown unwinds members with a [`Shutdown`] panic that is always
/// caught; the default hook would still print a backtrace for each one.
/// Installs, once, a wrapper hook that stays silent for that payload.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<Shutdown>() {
                previous(info);
            }
        }));
    });
}

/// The message of a panic payload (`&str` or `String`), for re-raising a
/// member's panic with the coordinator's context.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_owned()
    }
}

/// The `Comm` every lock-step member runs against: sends buffer locally
/// and round boundaries synchronize with the coordinator.
struct Member<O> {
    key: u64,
    n: usize,
    t: usize,
    me: PartyId,
    /// Whether records are buffered (copied from the group so the
    /// disabled path never allocates).
    trace_on: bool,
    /// Round this member's upcoming records belong to.
    round: u64,
    pending: Vec<(PartyId, Bytes)>,
    scopes: Vec<String>,
    trace_buf: Vec<Record>,
    submit: SyncSender<(u64, Report<O>)>,
    deliver: Receiver<Inbox>,
}

impl<O> Member<O> {
    fn run(mut self, body: impl FnOnce(&mut dyn Comm) -> O) {
        let report = match panic::catch_unwind(AssertUnwindSafe(|| body(&mut self))) {
            Ok(output) => Report::Done {
                output,
                sends: std::mem::take(&mut self.pending),
                trace: std::mem::take(&mut self.trace_buf),
            },
            Err(payload) if payload.is::<Shutdown>() => return,
            Err(payload) => Report::Panicked { payload },
        };
        // The coordinator may already be tearing down; a closed channel
        // is a valid exit, not an error.
        let _ = self.submit.send((self.key, report));
    }

    fn scope_path(&self) -> String {
        if self.scopes.is_empty() {
            ROOT_SCOPE.to_owned()
        } else {
            self.scopes.join("/")
        }
    }

    fn buffer(&mut self, event: Event) {
        let record = Record {
            party: Some(self.me.0 as u64),
            round: self.round,
            scope: self.scope_path(),
            event,
        };
        self.trace_buf.push(record);
    }
}

impl<O> Comm for Member<O> {
    fn n(&self) -> usize {
        self.n
    }

    fn t(&self) -> usize {
        self.t
    }

    fn me(&self) -> PartyId {
        self.me
    }

    fn send_bytes(&mut self, to: PartyId, payload: Bytes) {
        assert!(to.0 < self.n, "send to nonexistent {to}");
        self.pending.push((to, payload));
    }

    fn next_round(&mut self) -> Inbox {
        let report = Report::Round {
            sends: std::mem::take(&mut self.pending),
            scope: self.scope_path(),
            trace: std::mem::take(&mut self.trace_buf),
        };
        if self.submit.send((self.key, report)).is_err() {
            panic::panic_any(Shutdown);
        }
        match self.deliver.recv() {
            Ok(inbox) => {
                self.round += 1;
                inbox
            }
            Err(_) => panic::panic_any(Shutdown),
        }
    }

    fn push_scope(&mut self, name: &str) {
        self.scopes.push(name.to_owned());
        if self.trace_on {
            self.buffer(Event::ScopeEnter {
                name: name.to_owned(),
            });
        }
    }

    fn pop_scope(&mut self) {
        let popped = self.scopes.pop();
        if self.trace_on {
            if let Some(name) = popped {
                self.buffer(Event::ScopeExit { name });
            }
        }
    }

    fn trace_enabled(&self) -> bool {
        self.trace_on
    }

    fn trace(&mut self, event: Event) {
        if self.trace_on {
            self.buffer(event);
        }
    }
}
