//! Process identities, liveness status, and the local-step interface.
//!
//! A [`Process`] is the paper's notion of an algorithm at one node (Section
//! 1): in each *local step* it receives a batch of delivered messages,
//! computes, and sends zero or more messages; it may also declare itself
//! quiescent, the property the gossip specification's termination condition
//! is stated in terms of. Crashes ([`ProcessStatus::Crashed`]) are permanent
//! and controlled by the adversary within the budget `f`.

use std::fmt;

use crate::message::{Envelope, Outbox};
use crate::time::TimeStep;

/// Identifier of a process, an index in `0..n`.
///
/// The paper numbers processes `1..=n`; we use zero-based indices so that a
/// `ProcessId` can directly index per-process vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// Returns the underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }

    /// Iterator over all process identifiers of a system of size `n`.
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> + Clone {
        (0..n).map(ProcessId)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(value: usize) -> Self {
        ProcessId(value)
    }
}

/// Liveness status of a process as tracked by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessStatus {
    /// The process is alive and may be scheduled.
    Alive,
    /// The process crashed at the recorded time; it permanently halts and is
    /// never scheduled again. Messages addressed to it are dropped.
    Crashed {
        /// The time step at which the crash took effect.
        at: TimeStep,
    },
}

impl ProcessStatus {
    /// True if the process has not crashed.
    #[inline]
    pub fn is_alive(self) -> bool {
        matches!(self, ProcessStatus::Alive)
    }

    /// True if the process has crashed.
    #[inline]
    pub fn is_crashed(self) -> bool {
        !self.is_alive()
    }
}

/// The local-step interface implemented by every protocol that runs on the
/// simulator.
///
/// A local step corresponds exactly to the paper's notion: the process first
/// receives a batch of messages (those the adversary has allowed to be
/// delivered by now), then computes, then sends zero or more messages by
/// pushing them into the [`Outbox`].
pub trait Process {
    /// The message payload exchanged by this protocol.
    ///
    /// `PartialEq` lets the network keep a sender's value-identical copies
    /// of one payload, sent to one destination in one step, as one record
    /// with a copy count (see [`crate::Network`]); `==` must therefore hold
    /// only between payloads a recipient cannot tell apart.
    type Message: Clone + fmt::Debug + PartialEq;

    /// Executes one local step at time `now`.
    ///
    /// `inbox` contains every message delivered at this step (possibly
    /// empty), in send order, one envelope per network record: an envelope
    /// with [`Envelope::copies`] `= c` is `c` identical messages in a row,
    /// and handling it must leave the state handling them one by one would.
    /// Implementations typically `drain(..)` it. The buffer is owned by the
    /// simulator and reused across steps, so steady-state stepping performs
    /// no inbox allocation; anything left in it after the step is
    /// discarded. Outgoing messages are pushed into `out`; the simulator
    /// stamps them with the current time and hands them to the network.
    /// `out` is the step's send log, shared by every process scheduled in
    /// the step: treat it as append-only (queue through [`Outbox::send`],
    /// [`Outbox::send_all`], [`Outbox::broadcast`] or
    /// [`Outbox::append_with`]).
    fn on_step(
        &mut self,
        now: TimeStep,
        inbox: &mut Vec<Envelope<Self::Message>>,
        out: &mut Outbox<Self::Message>,
    );

    /// True when the process has (for now) stopped sending messages: it will
    /// not send anything in subsequent steps unless it first receives a
    /// message that reactivates it.
    ///
    /// This is the paper's *quiescence* notion. Note that quiescence is not
    /// necessarily permanent for every protocol — e.g. an `ears` process
    /// wakes up from its sleep if it learns about a rumor that has not been
    /// sent everywhere — which is why the simulator only declares an
    /// execution finished when all processes are quiescent *and* no messages
    /// remain in flight.
    fn is_quiescent(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_display_and_index() {
        let p = ProcessId(3);
        assert_eq!(p.to_string(), "p3");
        assert_eq!(p.index(), 3);
        let q: ProcessId = 5usize.into();
        assert_eq!(q, ProcessId(5));
    }

    #[test]
    fn all_enumerates_n_ids() {
        let ids: Vec<_> = ProcessId::all(4).collect();
        assert_eq!(
            ids,
            vec![ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(3)]
        );
    }

    #[test]
    fn status_liveness() {
        assert!(ProcessStatus::Alive.is_alive());
        assert!(!ProcessStatus::Alive.is_crashed());
        let crashed = ProcessStatus::Crashed { at: TimeStep(7) };
        assert!(crashed.is_crashed());
        assert!(!crashed.is_alive());
    }

    #[test]
    fn process_ids_order_by_index() {
        assert!(ProcessId(1) < ProcessId(2));
    }
}
