//! The append-only contract of a step's send log.
//!
//! The simulator keeps one send log per global step ([`Outbox`]): every
//! scheduled process appends its sends after the entries of the processes
//! scheduled before it, and engines write into that log directly through
//! [`Outbox::append_with`]. That is only sound if a local step treats the log
//! it is handed as append-only. These properties hold every engine to it:
//! a small system is stepped twice in lockstep, once with a fresh buffer per
//! local step and once with one shared buffer that already holds earlier
//! processes' sends. Every step must leave the shared prefix untouched and
//! append exactly what the fresh run emitted.
//!
//! Messages are compared through their `Debug` form, which every engine's
//! message type has and which covers every field (rumor sets included).
//!
//! A counted broadcast ([`Outbox::broadcast`]) logs `c` identical
//! broadcasts as one entry per target; `a_counted_broadcast_equals_repeated_broadcasts`
//! holds it to the `c` uncounted broadcasts it stands for.

use std::sync::Arc;

use proptest::prelude::*;

use agossip_consensus::{ConsensusCtx, ConsensusProcess};
use agossip_core::{Ears, EpochBoard, EpochMux, GossipCtx, GossipEngine, Sears, Tears, Trivial};
use agossip_sim::{Envelope, Outbox, Process, ProcessId, TimeStep};

/// splitmix64: expands one drawn seed into schedules.
struct Prng(u64);

impl Prng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A random non-empty subset of `0..n`, in a random order.
    fn schedule(&mut self, n: usize) -> Vec<usize> {
        let mut pids: Vec<usize> = (0..n).filter(|_| !self.next().is_multiple_of(3)).collect();
        if pids.is_empty() {
            pids.push((self.next() % n as u64) as usize);
        }
        for i in (1..pids.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            pids.swap(i, j);
        }
        pids
    }
}

fn debug_all<T: std::fmt::Debug>(items: &[T]) -> Vec<String> {
    items.iter().map(|item| format!("{item:?}")).collect()
}

/// Caps the shared log so long runs stay cheap; the cut happens between
/// rounds, so the next round's first step still sees a non-empty prefix.
fn trim<T>(log: &mut Vec<T>) {
    if log.len() > 256 {
        log.drain(..log.len() - 8);
    }
}

/// Steps two identically built systems of engines through `rounds` random
/// schedules: `fresh` into a new `Vec` per local step, `shared` into one log
/// that keeps earlier processes' sends. Deliveries are identical on both
/// sides (the fresh run's sends, delivered at the destination's next step).
fn check_engines<G: GossipEngine>(build: impl Fn() -> Vec<G>, seed: u64, rounds: usize) {
    let mut fresh = build();
    let mut shared = build();
    let n = fresh.len();
    let mut rng = Prng(seed);
    let mut pending: Vec<Vec<(ProcessId, G::Msg)>> = (0..n).map(|_| Vec::new()).collect();
    let mut log: Vec<(ProcessId, G::Msg)> = Vec::new();
    for _ in 0..rounds {
        for p in rng.schedule(n) {
            for (from, msg) in std::mem::take(&mut pending[p]) {
                shared[p].deliver(from, msg.clone());
                fresh[p].deliver(from, msg);
            }
            let mut out = Vec::new();
            fresh[p].local_step(&mut out);

            let prefix = debug_all(&log);
            shared[p].local_step(&mut log);
            prop_assert!(log.len() >= prefix.len(), "p{p} shrank the log");
            prop_assert_eq!(&debug_all(&log[..prefix.len()]), &prefix);
            prop_assert_eq!(debug_all(&log[prefix.len()..]), debug_all(&out));

            for (to, msg) in out {
                pending[to.index()].push((ProcessId(p), msg));
            }
        }
        trim(&mut log);
    }
}

fn ctx(p: usize, n: usize, seed: u64) -> GossipCtx {
    GossipCtx::new(ProcessId(p), n, n / 3, seed)
}

/// The same for processes, through `Process::on_step` and one [`Outbox`]
/// that already holds earlier processes' sends.
fn check_processes<P: Process>(build: impl Fn() -> Vec<P>, seed: u64, rounds: usize) {
    let mut fresh = build();
    let mut shared = build();
    let n = fresh.len();
    let mut rng = Prng(seed);
    let mut pending: Vec<Vec<Envelope<P::Message>>> = (0..n).map(|_| Vec::new()).collect();
    let mut log: Outbox<P::Message> = Outbox::new();
    for round in 0..rounds {
        let now = TimeStep(round as u64);
        for p in rng.schedule(n) {
            let mut inbox = std::mem::take(&mut pending[p]);
            let mut out = Outbox::new();
            fresh[p].on_step(now, &mut inbox.clone(), &mut out);

            let prefix = debug_all(log.sends());
            shared[p].on_step(now, &mut inbox, &mut log);
            let sends = log.sends();
            prop_assert!(sends.len() >= prefix.len(), "p{p} shrank the log");
            prop_assert_eq!(&debug_all(&sends[..prefix.len()]), &prefix);
            prop_assert_eq!(debug_all(&sends[prefix.len()..]), debug_all(out.sends()));

            for (to, payload) in out.into_sends() {
                pending[to.index()].push(Envelope {
                    from: ProcessId(p),
                    to,
                    sent_at: now,
                    payload,
                    copies: 1,
                });
            }
        }
        if log.len() > 256 {
            let kept: Vec<_> = log.drain().collect();
            for (to, payload) in kept.into_iter().rev().take(8) {
                log.send(to, payload);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn trivial_appends_only(n in 2usize..10, seed in any::<u64>(), rounds in 1usize..8) {
        check_engines(|| (0..n).map(|p| Trivial::new(ctx(p, n, seed))).collect(), seed, rounds);
    }

    #[test]
    fn ears_appends_only(n in 2usize..10, seed in any::<u64>(), rounds in 1usize..24) {
        check_engines(|| (0..n).map(|p| Ears::new(ctx(p, n, seed))).collect(), seed, rounds);
    }

    #[test]
    fn sears_appends_only(n in 2usize..10, seed in any::<u64>(), rounds in 1usize..24) {
        check_engines(|| (0..n).map(|p| Sears::new(ctx(p, n, seed))).collect(), seed, rounds);
    }

    #[test]
    fn tears_appends_only(n in 2usize..12, seed in any::<u64>(), rounds in 1usize..24) {
        check_engines(|| (0..n).map(|p| Tears::new(ctx(p, n, seed))).collect(), seed, rounds);
    }

    #[test]
    fn epoch_mux_appends_only(n in 2usize..8, seed in any::<u64>(), rounds in 1usize..16) {
        // Each side gets its own board with two epochs open.
        let build = || {
            let board = Arc::new(EpochBoard::new(4));
            board.publish_open_upto(2);
            (0..n)
                .map(|p| EpochMux::new(board.clone(), ProcessId(p), n, 0, seed, Trivial::new))
                .collect::<Vec<_>>()
        };
        check_engines(build, seed, rounds);
    }

    #[test]
    fn consensus_process_appends_only(n in 3usize..8, seed in any::<u64>(), rounds in 1usize..32) {
        let f = (n - 1) / 2;
        let build = || {
            (0..n)
                .map(|p| {
                    let ctx = ConsensusCtx::new(ProcessId(p), n, f, (p % 2) as u64, seed ^ p as u64);
                    ConsensusProcess::new(ctx, Trivial::new)
                })
                .collect::<Vec<_>>()
        };
        check_processes(build, seed, rounds);
    }
}

/// `default` cases, or `PROPTEST_CASES` when it is set: the nightly Miri
/// job runs the counted-broadcast property on a handful of cases.
fn cases(default: u32) -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(cases(64))]

    /// A counted broadcast of `c` copies against `c` calls of `send_all`,
    /// between single sends and `append_with` pushes: the same `len`, and
    /// `messages` lists what the repeated calls logged, in the same
    /// copy-major order. `sends`, `counted_sends`, `drain` and `into_sends`
    /// see each entry once, with its count in `counted_sends` only.
    #[test]
    fn a_counted_broadcast_equals_repeated_broadcasts(seed in any::<u64>(), ops in 1usize..24) {
        let mut rng = Prng(seed);
        let mut counted: Outbox<u64> = Outbox::new();
        let mut repeated: Outbox<u64> = Outbox::new();
        let mut entries: Vec<(ProcessId, u64, u32)> = Vec::new();
        for payload in 0..ops as u64 {
            match rng.next() % 4 {
                0 => {
                    let to = ProcessId((rng.next() % 16) as usize);
                    counted.send(to, payload);
                    repeated.send(to, payload);
                    entries.push((to, payload, 1));
                }
                1 => {
                    let to = ProcessId((rng.next() % 16) as usize);
                    counted.append_with(|log| log.push((to, payload)));
                    repeated.append_with(|log| log.push((to, payload)));
                    entries.push((to, payload, 1));
                }
                _ => {
                    let targets: Vec<ProcessId> = (0..rng.next() % 6)
                        .map(|_| ProcessId((rng.next() % 16) as usize))
                        .collect();
                    // 0 and 1 included: nothing, and a plain `send_all`.
                    let copies = (rng.next() % 5) as u32;
                    counted.broadcast(&targets, payload, copies);
                    for _ in 0..copies {
                        repeated.send_all(targets.iter().copied(), payload);
                    }
                    if copies > 0 {
                        entries.extend(targets.iter().map(|&to| (to, payload, copies)));
                    }
                }
            }
            prop_assert_eq!(counted.len(), repeated.len());
            prop_assert_eq!(counted.is_empty(), repeated.is_empty());
            let messages: Vec<_> = counted.messages().map(|(to, m)| (to, *m)).collect();
            prop_assert_eq!(messages.as_slice(), repeated.sends());
            let seen: Vec<_> = counted.counted_sends().map(|(to, m, c)| (to, *m, c)).collect();
            prop_assert_eq!(&seen, &entries);
            let logged: Vec<_> = entries.iter().map(|&(to, m, _)| (to, m)).collect();
            prop_assert_eq!(counted.sends(), logged.as_slice());
        }
        let logged: Vec<_> = entries.iter().map(|&(to, m, _)| (to, m)).collect();
        prop_assert_eq!(counted.clone().into_sends(), logged.clone());
        let drained: Vec<_> = counted.drain().collect();
        prop_assert_eq!(drained, logged);
        prop_assert_eq!(counted.len(), 0);
        prop_assert_eq!(counted.messages().count(), 0);
        prop_assert_eq!(counted.counted_sends().count(), 0);
    }
}
