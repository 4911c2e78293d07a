//! `sears` — Spamming Epidemic Asynchronous Rumor Spreading (paper Section 4).
//!
//! `sears` is `ears` with two modifications (Theorem 7):
//!
//! 1. in each local step, instead of a single random target, the process
//!    sends to `Θ(n^ε · log n)` targets chosen at random;
//! 2. the shut-down phase consists of a single step.
//!
//! The higher fan-out makes every rumor saturate the system after `O(1/ε)`
//! dissemination phases, giving a constant-time (w.r.t. `n`) gossip protocol:
//! for every constant `ε < 1` and `f < n/2`, time `O(n/(ε(n−f))·(d+δ))` and
//! messages `O(n^{2+ε}/(ε(n−f))·log n·(d+δ))`, w.h.p.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use agossip_sim::ProcessId;

use crate::codec_view::WireDecodeView;
use crate::engine::{broadcast, EncodedFrame, GossipCtx, GossipEngine};
use crate::informed_list::InformedList;
use crate::params::SearsParams;
use crate::rumor::RumorSet;

/// Wire message of `sears`; identical in structure to the `ears` message.
///
/// As for `ears`, both components are copy-on-write [`Arc`] snapshots: one
/// spamming step to `Θ(n^ε·log n)` targets shares a single payload
/// allocation across every destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearsMessage {
    /// The sender's rumor collection `V` at send time (shared snapshot).
    pub rumors: Arc<RumorSet>,
    /// The sender's informed-list `I` at send time (shared snapshot).
    pub informed: Arc<InformedList>,
}

/// The `sears` protocol state machine for one process.
#[derive(Debug, Clone)]
pub struct Sears {
    ctx: GossipCtx,
    params: SearsParams,
    fanout: usize,
    rumors: Arc<RumorSet>,
    informed: Arc<InformedList>,
    sleep_cnt: u64,
    steps: u64,
    rng: StdRng,
    /// Reusable buffer for the targets drawn in one spamming step.
    target_buf: Vec<ProcessId>,
}

impl Sears {
    /// Creates an instance with default parameters (`ε = 0.5`).
    pub fn new(ctx: GossipCtx) -> Self {
        Self::with_params(ctx, SearsParams::default())
    }

    /// Creates an instance with explicit parameters.
    pub fn with_params(ctx: GossipCtx, params: SearsParams) -> Self {
        let fanout = params.fanout(ctx.n);
        Sears {
            rumors: Arc::new(RumorSet::singleton(ctx.rumor)),
            informed: Arc::new(InformedList::new()),
            sleep_cnt: 0,
            steps: 0,
            fanout,
            rng: StdRng::seed_from_u64(ctx.seed),
            ctx,
            params,
            target_buf: Vec::new(),
        }
    }

    /// The per-step fan-out `Θ(n^ε · log n)`.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The parameters in effect.
    pub fn params(&self) -> SearsParams {
        self.params
    }

    /// True if the process has completed its single shut-down step.
    pub fn is_asleep(&self) -> bool {
        // Theorem 7: "each process takes only one shut-down step".
        self.sleep_cnt >= 1
    }

    fn covered(&self) -> bool {
        self.informed.covers_all(&self.rumors, self.ctx.n)
    }
}

impl GossipEngine for Sears {
    type Msg = SearsMessage;

    fn deliver(&mut self, _from: ProcessId, msg: SearsMessage) {
        if !self.rumors.is_superset_of(&msg.rumors) {
            Arc::make_mut(&mut self.rumors).union(&msg.rumors);
        }
        if !self.informed.is_superset_of(&msg.informed) {
            Arc::make_mut(&mut self.informed).union(&msg.informed);
        }
    }

    fn deliver_encoded<F: EncodedFrame>(&mut self, frames: &[F]) -> usize {
        // Batched form of `deliver`: one borrowed-view decode walk per body,
        // folded into V and I with at most one copy-on-write per set per
        // batch — the first fresh view pays the `Arc` copy, every later
        // `make_mut` sees a unique handle.
        let mut errors = 0usize;
        let (mut unioning_rumors, mut unioning_informed) = (false, false);
        for frame in frames {
            match SearsMessage::decode_view(frame.body()) {
                Ok(view) => {
                    if unioning_rumors || !self.rumors.is_superset_of_view(&view.rumors) {
                        unioning_rumors = true;
                        Arc::make_mut(&mut self.rumors).union_view(&view.rumors);
                    }
                    if unioning_informed || !self.informed.is_superset_of_view(&view.informed) {
                        unioning_informed = true;
                        Arc::make_mut(&mut self.informed).union_view(&view.informed);
                    }
                }
                Err(_) => errors += 1,
            }
        }
        errors
    }

    fn local_step(&mut self, out: &mut Vec<(ProcessId, SearsMessage)>) {
        self.steps += 1;

        if self.covered() {
            self.sleep_cnt = self.sleep_cnt.saturating_add(1);
        } else {
            self.sleep_cnt = 0;
        }
        if self.sleep_cnt > 1 {
            // Shut-down already taken; stay silent until a new uncovered
            // rumor resets the counter.
            return;
        }

        // Every target of this step receives the same pre-step snapshot of
        // ⟨V, I⟩ (one shared allocation), exactly as when the message was
        // built once before the loop and deep-cloned per target.
        let msg = SearsMessage {
            rumors: Arc::clone(&self.rumors),
            informed: Arc::clone(&self.informed),
        };
        let mut targets = std::mem::take(&mut self.target_buf);
        targets.clear();
        targets.extend((0..self.fanout).map(|_| ProcessId(self.rng.gen_range(0..self.ctx.n))));
        Arc::make_mut(&mut self.informed).record_sends(&self.rumors, &targets);
        broadcast(out, &targets, msg);
        self.target_buf = targets;
    }

    fn pid(&self) -> ProcessId {
        self.ctx.pid
    }

    fn rumors(&self) -> &RumorSet {
        &self.rumors
    }

    fn is_quiescent(&self) -> bool {
        self.is_asleep()
    }

    fn steps_taken(&self) -> u64 {
        self.steps
    }

    fn msg_units(msg: &Self::Msg) -> u64 {
        crate::wire::WireSize::wire_units(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rumor::Rumor;

    fn ctx(pid: usize, n: usize, f: usize) -> GossipCtx {
        GossipCtx::new(ProcessId(pid), n, f, 4242)
    }

    fn step(p: &mut Sears) -> Vec<(ProcessId, SearsMessage)> {
        let mut out = Vec::new();
        p.local_step(&mut out);
        out
    }

    #[test]
    fn sends_fanout_messages_per_active_step() {
        let n = 64;
        let mut p = Sears::new(ctx(0, n, 8));
        let expected = SearsParams::default().fanout(n);
        let out = step(&mut p);
        assert_eq!(out.len(), expected);
        assert!(expected > 1, "sears must spam more than one target");
    }

    #[test]
    fn fanout_grows_with_epsilon() {
        let n = 256;
        let low = Sears::with_params(ctx(0, n, 0), SearsParams::with_epsilon(0.25));
        let high = Sears::with_params(ctx(0, n, 0), SearsParams::with_epsilon(0.75));
        assert!(low.fanout() < high.fanout());
    }

    #[test]
    fn single_shutdown_step_then_silence() {
        let mut p = Sears::new(ctx(0, 4, 0));
        // Artificially cover everything so the sleep counter starts rising.
        let mut informed = InformedList::new();
        for q in ProcessId::all(4) {
            informed.insert(ProcessId(0), q);
        }
        p.deliver(
            ProcessId(1),
            SearsMessage {
                rumors: Arc::new(RumorSet::new()),
                informed: Arc::new(informed),
            },
        );
        // First step after coverage: this is the single shut-down step — the
        // process still sends.
        let out = step(&mut p);
        assert!(!out.is_empty());
        assert!(p.is_asleep());
        assert!(p.is_quiescent());
        // Subsequent steps: silence.
        let out = step(&mut p);
        assert!(out.is_empty());
        let out = step(&mut p);
        assert!(out.is_empty());
    }

    #[test]
    fn new_rumor_reactivates_after_shutdown() {
        let n = 2;
        let mut p = Sears::new(ctx(0, n, 0));
        // Run enough steps that its own rumor gets covered and the shut-down
        // step happens (fan-out ≥ 1 targets per step over both processes).
        for _ in 0..50 {
            step(&mut p);
        }
        assert!(p.is_asleep());
        p.deliver(
            ProcessId(1),
            SearsMessage {
                rumors: Arc::new(RumorSet::singleton(Rumor::new(ProcessId(1), 1))),
                informed: Arc::new(InformedList::new()),
            },
        );
        let out = step(&mut p);
        assert!(!out.is_empty(), "an uncovered rumor must wake the process");
        assert!(!p.is_asleep());
    }

    #[test]
    fn delivery_merges_state() {
        let mut p = Sears::new(ctx(0, 8, 2));
        let mut informed = InformedList::new();
        informed.insert(ProcessId(3), ProcessId(4));
        p.deliver(
            ProcessId(3),
            SearsMessage {
                rumors: Arc::new(RumorSet::singleton(Rumor::new(ProcessId(3), 3))),
                informed: Arc::new(informed),
            },
        );
        assert!(p.rumors().contains_origin(ProcessId(3)));
        assert_eq!(p.rumors().len(), 2);
    }

    #[test]
    fn informed_list_tracks_spammed_targets() {
        let mut p = Sears::new(ctx(0, 16, 0));
        let out = step(&mut p);
        for (target, _) in &out {
            assert!(p.informed.contains(ProcessId(0), *target));
        }
    }
}
