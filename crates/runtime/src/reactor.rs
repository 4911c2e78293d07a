//! The reactor: the event-loop thread, and the only one — every process of
//! a live run is a `Slot` on some reactor.
//!
//! One event-loop thread owns *all* the endpoints of the processes pinned to
//! it and drives them with level-triggered readiness polling — every
//! iteration it makes non-blocking write progress (one coalesced write per
//! peer after each step, finished by the next poll's flush if the kernel
//! buffer filled), drains whatever bytes have arrived
//! (the socket endpoints reassemble frames incrementally through
//! [`crate::transport::FrameBuf`]), routes each decoded envelope into the
//! addressed process's in-memory inbox (a deadline-indexed pending heap),
//! and steps the engines whose turn has come. With `reactors = r`, process
//! `p` is pinned to reactor `p mod r` — a static assignment, so a process's
//! endpoint never migrates across threads and no locking is needed around
//! any per-process state. `r = n` is one OS thread per process
//! ([`crate::driver::Threading::PerProcess`]); a handful of reactors carry
//! thousands of processes, where a thread each would cap live runs near the
//! machine's thread budget while the simulator already verifies n = 65 536.
//!
//! There is no epoll here on purpose: the workspace forbids `unsafe` and
//! vendors no FFI crates, so readiness is discovered by polling nonblocking
//! sockets rather than by kernel notification. For the loopback transports
//! this workspace runs on, the poll loop is the same O(endpoints) sweep an
//! epoll wakeup storm would degrade to; the architectural payoff — thousands
//! of processes on a handful of threads — is identical.
//!
//! A reactor validates each shared broadcast body once, however many of
//! its processes receive it, and hands every frame carrying it to its engine
//! flagged verified (see `event_loop`'s `VerifiedBodies`). That record is
//! the reactor's own; entries whose body no frame carries any more are
//! evicted once per lockstep tick and once per free-running sweep.
//!
//! There is one loop body per *pacing* discipline (see
//! [`crate::driver::Pacing`]); what a slot does when its turn comes is the
//! same in both and lives in `event_loop.rs`.
//!
//! ## Lockstep: `run_lockstep_reactor`
//!
//! Barrier-paced ticks with seeded per-message delays in `1..=d` ticks,
//! mirroring the simulator's `(d, δ)` model with `δ = 1`. Each tick starts
//! with a *settle* handshake: reactors drain their transports in poll-only
//! rounds until the driver observes that every frame handed to the
//! transport has been taken off it (`messages_sent == frames_consumed`).
//! Channels settle in one round; kernel transports (loopback TCP/UDS) may
//! buffer a frame past one poll, and without the handshake a late frame
//! would change the execution — or be lost entirely if the run stopped
//! while it was in transit. With it, determinism and no-loss hold on *any*
//! transport. Equal counters at the top of a round mean nothing is in
//! flight, so that round polls nothing: a tick after a silent step costs
//! two barrier pairs and no syscalls. Each step that sent ends with one
//! flush, so a socket carries the step's frames to each peer in one write.
//!
//! The settle handshake and the `(deliver_tick, from, seq)` delivery order
//! are both independent of which thread polls an endpoint or in which order
//! slots are swept, and every per-process RNG stream is derived from the
//! process id alone. A lockstep run at a given seed therefore produces the
//! same outcome across repeats and across reactor counts, `r = n` included
//! — the golden-digest regression test pins this.
//!
//! ## Free-running: `run_free_reactor`
//!
//! Real nondeterminism: a slot steps when its random sub-millisecond pause
//! has elapsed, delivers a frame when its random injected delay has (both
//! read through the run's [`crate::Clock`]), and the interleaving across
//! reactor threads is whatever the scheduler does. Nothing synchronises the
//! threads.
//!
//! ## Crash injection
//!
//! Crashing a multiplexed process must not tear down the reactor that hosts
//! it. Under free-running pacing the reactor *deregisters* the slot: it is
//! dropped, endpoint included (peers' sends turn into message loss), and the
//! reactor's other slots run on. Under lockstep the slot becomes a zombie
//! that keeps draining its transport but delivers and sends nothing — a
//! frame addressed to it must still be consumed, or the settle invariant
//! would never hold again.

use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::Duration;

use rand::Rng;

use agossip_core::codec::write_varint;
use agossip_core::{GossipEngine, WireCodec, WireDecodeView};
use agossip_sim::ProcessId;

use crate::event_loop::{
    free_frame_body, parse_lockstep_frame, Due, NodeOutcome, Pending, ReactorProc, SharedRun, Slot,
    VerifiedBodies,
};
use crate::transport::{Endpoint, RawFrame};

/// Pins process `pid` to one of `reactors` event-loop threads.
pub(crate) fn reactor_of(pid: ProcessId, reactors: usize) -> usize {
    pid.index() % reactors.max(1)
}

/// How long an idle free-running reactor sleeps before its next sweep: long
/// enough not to burn a core, short next to the millisecond-scale pacing
/// bounds the configs use.
const IDLE_SWEEP_PAUSE: Duration = Duration::from_micros(100);

/// Runs one reactor thread's worth of lockstep slots until the driver
/// raises the stop flag. The barrier participant is the reactor thread, not
/// the individual process, and the tick counter is reactor-wide (every slot
/// is always at the same tick — that is what the barrier enforces).
pub(crate) fn run_lockstep_reactor<G, E>(
    procs: Vec<ReactorProc<G, E>>,
    seed: u64,
    d: u64,
    shared: &SharedRun,
    barrier: &Barrier,
) -> Vec<(ProcessId, NodeOutcome)>
where
    G: GossipEngine,
    G::Msg: WireCodec + WireDecodeView + PartialEq,
    E: Endpoint,
{
    let mut slots: Vec<Slot<G, E, u64>> = procs
        .into_iter()
        .map(|proc| Slot::new(proc, seed ^ 0x11FE))
        .collect();
    let mut frames: Vec<RawFrame> = Vec::new();
    let mut verified = VerifiedBodies::default();
    let mut due: Vec<Due<u64>> = Vec::new();
    let mut out: Vec<(ProcessId, G::Msg)> = Vec::new();
    let mut head: Vec<u8> = Vec::new();
    let mut tick = 0u64;

    'run: loop {
        // --- Settle: sweep every slot's transport in poll-only rounds
        // until the driver observes every sent frame consumed (one round on
        // channels; kernel transports may need more). A round that opens
        // with nothing in flight has nothing to poll: the counters are
        // stable here (the barrier pair closed the step or the last poll
        // sweep), so every reactor reads the same verdict. ----------------
        loop {
            let in_flight = shared.stats.messages_sent.load(Ordering::Relaxed)
                != shared.stats.frames_consumed.load(Ordering::Relaxed);
            for slot in slots.iter_mut().filter(|_| in_flight) {
                if let Err(e) = slot.poll(shared, &mut frames) {
                    shared.record_error(e);
                    slot.crashed = true; // keep participating in barriers
                }
                if slot.crashed {
                    // Zombie: consumes and discards — see the module docs.
                    frames.clear();
                    continue;
                }
                for frame in frames.drain(..) {
                    match parse_lockstep_frame(&frame) {
                        Ok((deliver_tick, seq, msg_at)) => slot.pending.push(Pending {
                            at: deliver_tick,
                            from: frame.from,
                            seq,
                            body: frame.into_body(),
                            msg_at,
                        }),
                        Err(_) => {
                            shared.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            barrier.wait(); // driver compares sent vs consumed
            barrier.wait(); // driver has published settled/stop
            if shared.stop.load(Ordering::Relaxed) {
                break 'run;
            }
            if shared.settled.load(Ordering::Relaxed) {
                break;
            }
        }

        // --- Step every slot, in pid order within this reactor: deliver
        // what is due this tick, run the engine, send. --------------------
        for slot in slots.iter_mut() {
            let mut active = false;
            if !slot.crashed {
                active = slot.deliver_due(shared, &mut verified, &mut due, tick);
                if slot.crash_due() {
                    slot.crashed = true;
                    slot.pending.clear();
                } else {
                    let stepped = slot.step(shared, &mut out, &mut head, |rng, seq, head| {
                        // `d ≥ 1` is guaranteed by `LiveConfig::validate`.
                        write_varint(head, tick + rng.gen_range(1..=d));
                        write_varint(head, seq);
                    });
                    match stepped {
                        Ok(sent) => active |= sent,
                        Err(e) => {
                            shared.record_error(e);
                            slot.crashed = true;
                        }
                    }
                }
            }
            // Quiet = this slot neither delivered nor sent this tick and is
            // idle. The delivered/sent part matters: with `d = 1` an engine
            // can absorb a delivery without reacting (a duplicate rumor),
            // and without it two such ticks could read all-quiet while a
            // reply was still in flight.
            let quiet = slot.crashed || (!active && slot.is_idle());
            shared.quiet[slot.pid.index()].store(quiet, Ordering::Relaxed);
        }
        verified.evict_dead();

        // --- Quiet check: the driver inspects the flags between the two
        // barriers and decides whether the run is over. ------------------
        barrier.wait();
        barrier.wait();
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        tick += 1;
    }

    slots.iter().map(Slot::outcome).collect()
}

/// Runs one reactor thread's worth of free-running slots until the driver
/// raises the stop flag or every one of them has crashed.
pub(crate) fn run_free_reactor<G, E>(
    procs: Vec<ReactorProc<G, E>>,
    seed: u64,
    max_delay: Duration,
    max_step_pause: Duration,
    shared: &SharedRun,
) -> Vec<(ProcessId, NodeOutcome)>
where
    G: GossipEngine,
    G::Msg: WireCodec + WireDecodeView + PartialEq,
    E: Endpoint,
{
    let max_delay_us = max_delay.as_micros().max(1) as u64;
    let max_pause_us = max_step_pause.as_micros().max(1) as u64;
    let mut slots: Vec<Slot<G, E, Duration>> = procs
        .into_iter()
        .map(|proc| Slot::new(proc, seed ^ 0xA51C))
        .collect();
    let mut outcomes: Vec<(ProcessId, NodeOutcome)> = Vec::with_capacity(slots.len());
    let mut frames: Vec<RawFrame> = Vec::new();
    let mut verified = VerifiedBodies::default();
    let mut due: Vec<Due<Duration>> = Vec::new();
    let mut out: Vec<(ProcessId, G::Msg)> = Vec::new();
    let mut head: Vec<u8> = Vec::new();
    let mut arrival_seq = 0u64;

    while !slots.is_empty() && !shared.stop.load(Ordering::Relaxed) {
        let mut any_active = false;
        slots.retain_mut(|slot| {
            let alive = 'sweep: {
                if slot.crash_due() {
                    break 'sweep false;
                }
                if let Err(e) = slot.poll(shared, &mut frames) {
                    shared.record_error(e);
                    break 'sweep false;
                }
                // Route arrivals into the deadline-indexed delay buffer,
                // drawing each frame's injected delay (the role of `d`) from
                // the slot's seeded stream.
                let now = shared.clock.now();
                for frame in frames.drain(..) {
                    let delay = Duration::from_micros(slot.rng.gen_range(0..=max_delay_us));
                    slot.pending.push(Pending {
                        at: now + delay,
                        from: frame.from,
                        seq: arrival_seq,
                        body: free_frame_body(frame),
                        msg_at: 0,
                    });
                    arrival_seq += 1;
                }
                let mut active = slot.deliver_due(shared, &mut verified, &mut due, now);
                if now >= slot.next_step_at {
                    let pause = Duration::from_micros(slot.rng.gen_range(0..=max_pause_us));
                    slot.next_step_at = now + pause;
                    match slot.step(shared, &mut out, &mut head, |_, _, _| {}) {
                        Ok(sent) => active |= sent,
                        Err(e) => {
                            shared.record_error(e);
                            break 'sweep false;
                        }
                    }
                }
                if active {
                    any_active = true;
                    shared.touch();
                }
                true
            };
            // Deregistered (crash point reached, or its endpoint failed):
            // it will never send again, so the driver must not wait on it.
            let quiet = !alive || slot.is_idle();
            shared.quiet[slot.pid.index()].store(quiet, Ordering::Relaxed);
            if !alive {
                outcomes.push(slot.outcome());
            }
            alive
        });
        verified.evict_dead();
        if !any_active {
            std::thread::sleep(IDLE_SWEEP_PAUSE);
        }
    }

    // Run over: nothing here will send again.
    for slot in &slots {
        shared.quiet[slot.pid.index()].store(true, Ordering::Relaxed);
        outcomes.push(slot.outcome());
    }
    outcomes
}
