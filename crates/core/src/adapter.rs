//! Adapter from [`GossipEngine`] to the simulator's [`Process`] interface.

use agossip_sim::{Envelope, Outbox, Process, TimeStep};

use crate::engine::GossipEngine;

/// Wraps a [`GossipEngine`] so it can run inside
/// [`agossip_sim::Simulation`].
///
/// One simulator local step maps onto the paper's step structure: first every
/// message delivered at this step is handed to [`GossipEngine::deliver`],
/// then [`GossipEngine::local_step`] computes and appends the step's sends
/// straight to the simulator's send log ([`Outbox::append_with`]).
#[derive(Debug, Clone)]
pub struct SimGossip<G: GossipEngine> {
    engine: G,
    units_sent: u64,
    units_received: u64,
}

impl<G: GossipEngine> SimGossip<G> {
    /// Wraps an engine.
    pub fn new(engine: G) -> Self {
        SimGossip {
            engine,
            units_sent: 0,
            units_received: 0,
        }
    }

    /// Total wire units (see [`crate::wire`]) sent by this process so far.
    pub fn units_sent(&self) -> u64 {
        self.units_sent
    }

    /// Total wire units received by this process so far.
    pub fn units_received(&self) -> u64 {
        self.units_received
    }

    /// Read access to the wrapped engine.
    pub fn engine(&self) -> &G {
        &self.engine
    }

    /// Mutable access to the wrapped engine.
    pub fn engine_mut(&mut self) -> &mut G {
        &mut self.engine
    }

    /// Unwraps the engine.
    pub fn into_engine(self) -> G {
        self.engine
    }
}

impl<G: GossipEngine> Process for SimGossip<G> {
    type Message = G::Msg;

    fn on_step(
        &mut self,
        _now: TimeStep,
        inbox: &mut Vec<Envelope<Self::Message>>,
        out: &mut Outbox<Self::Message>,
    ) {
        for env in inbox.drain(..) {
            self.units_received += G::msg_units(&env.payload);
            self.engine.deliver(env.from, env.payload);
        }
        // The engine appends straight into the step's send log.
        let (engine, units_sent) = (&mut self.engine, &mut self.units_sent);
        out.append_with(|sends| {
            let tail = sends.len();
            engine.local_step(sends);
            for (_, msg) in &sends[tail..] {
                *units_sent += G::msg_units(msg);
            }
        });
    }

    fn is_quiescent(&self) -> bool {
        self.engine.is_quiescent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GossipCtx;
    use crate::trivial::Trivial;
    use agossip_sim::ProcessId;

    #[test]
    fn adapter_forwards_steps_and_quiescence() {
        let ctx = GossipCtx::new(ProcessId(0), 3, 0, 1);
        let mut wrapped = SimGossip::new(Trivial::new(ctx));
        assert!(!Process::is_quiescent(&wrapped));
        let mut out = Outbox::new();
        wrapped.on_step(TimeStep(0), &mut Vec::new(), &mut out);
        assert_eq!(out.len(), 2);
        assert!(Process::is_quiescent(&wrapped));
        assert_eq!(wrapped.engine().steps_taken(), 1);
    }

    #[test]
    fn adapter_delivers_inbox_before_stepping() {
        let ctx = GossipCtx::new(ProcessId(0), 3, 0, 1);
        let mut wrapped = SimGossip::new(Trivial::new(ctx));
        let incoming = Envelope {
            from: ProcessId(2),
            to: ProcessId(0),
            sent_at: TimeStep(0),
            payload: crate::trivial::TrivialMessage {
                rumor: crate::rumor::Rumor::new(ProcessId(2), 2),
            },
        };
        let mut out = Outbox::new();
        wrapped.on_step(TimeStep(1), &mut vec![incoming], &mut out);
        assert!(wrapped.engine().rumors().contains_origin(ProcessId(2)));
    }

    #[test]
    fn adapter_accumulates_wire_units() {
        let ctx = GossipCtx::new(ProcessId(0), 3, 0, 1);
        let mut wrapped = SimGossip::new(Trivial::new(ctx));
        assert_eq!(wrapped.units_sent(), 0);
        let mut out = Outbox::new();
        wrapped.on_step(TimeStep(0), &mut Vec::new(), &mut out);
        // Trivial sends one 2-unit message to each of the other 2 processes.
        assert_eq!(wrapped.units_sent(), 4);
        let incoming = Envelope {
            from: ProcessId(1),
            to: ProcessId(0),
            sent_at: TimeStep(0),
            payload: crate::trivial::TrivialMessage {
                rumor: crate::rumor::Rumor::new(ProcessId(1), 1),
            },
        };
        wrapped.on_step(TimeStep(1), &mut vec![incoming], &mut out);
        assert_eq!(wrapped.units_received(), 2);
    }

    #[test]
    fn into_engine_round_trips() {
        let ctx = GossipCtx::new(ProcessId(1), 4, 0, 1);
        let wrapped = SimGossip::new(Trivial::new(ctx));
        let engine = wrapped.into_engine();
        assert_eq!(engine.pid(), ProcessId(1));
    }
}
