//! The live-vs-simulator differential harness.
//!
//! One entry point, [`live_vs_sim`], runs a protocol on the live runtime
//! (any transport, any pacing, any threading) and optionally the
//! discrete-event simulator at the same parameters, and judges both
//! executions with the *same* correctness checker. The returned [`Verdict`]
//! carries everything a test needs to assert: the live report, both
//! checker verdicts, and the simulator's final rumor sets for exact-set
//! comparison where the protocol guarantees it (full gossip, no crashes).
//!
//! The point of centralising this: PR 5's differential tests each hand-rolled
//! the run-both-sides-and-compare dance, so a new execution substrate (the
//! reactor) would have meant another copy per case. Expressed through the
//! harness, the whole matrix — channel/TCP/UDS × lockstep/free-running —
//! re-runs under any [`Threading`] by flipping one field on the
//! [`LiveConfig`].

use agossip_core::{
    check_gossip, run_gossip, CheckReport, GossipCtx, GossipEngine, GossipSpec, Rumor, RumorSet,
    WireCodec, WireDecodeView,
};
use agossip_runtime::{
    run_live, ChannelTransport, LiveConfig, LiveReport, RuntimeError, SocketTransport, Threading,
};
use agossip_sim::{FairObliviousAdversary, ProcessId, SimConfig};

/// Which transport the live side runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process crossbeam channels.
    Channel,
    /// Loopback TCP.
    Tcp,
    /// Unix-domain sockets.
    #[cfg(unix)]
    Uds,
}

impl TransportKind {
    /// Every transport available on this platform.
    pub fn all() -> Vec<TransportKind> {
        vec![
            TransportKind::Channel,
            TransportKind::Tcp,
            #[cfg(unix)]
            TransportKind::Uds,
        ]
    }
}

/// The simulator side of a differential case: run the discrete-event
/// simulator at these timing bounds (and the live config's `n`/`f`/`seed`)
/// and compare checker verdicts.
#[derive(Debug, Clone, Copy)]
pub struct SimSide {
    /// The simulator's delivery bound `d`.
    pub d: u64,
    /// The simulator's step bound `δ`.
    pub delta: u64,
}

/// One differential case: a live configuration, the transport to run it
/// over, the spec to judge it against, and optionally a simulator run to
/// differ against.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// The live-runtime configuration (pacing, threading, crashes).
    pub live: LiveConfig,
    /// The transport the live side runs over.
    pub transport: TransportKind,
    /// What the checker demands (full or majority gossip).
    pub spec: GossipSpec,
    /// `Some` to also run the simulator and compare verdicts.
    pub sim: Option<SimSide>,
}

impl DiffConfig {
    /// A live-only case (no simulator side) judged as full gossip.
    pub fn live_only(live: LiveConfig, transport: TransportKind) -> Self {
        DiffConfig {
            live,
            transport,
            spec: GossipSpec::Full,
            sim: None,
        }
    }
}

/// What [`live_vs_sim`] hands back.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The spec both sides were judged against.
    pub spec: GossipSpec,
    /// The live run's report.
    pub live: LiveReport,
    /// The checker's verdict on the live run.
    pub live_check: CheckReport,
    /// The checker's verdict on the simulator run, when one was requested.
    pub sim_check: Option<CheckReport>,
    /// The simulator's final rumor sets, when a simulator run was requested.
    pub sim_final_rumors: Option<Vec<RumorSet>>,
}

impl Verdict {
    /// True when the live and simulated runs got the same
    /// (gathering, validity, quiescence) verdict; vacuously true without a
    /// simulator side.
    pub fn checks_agree(&self) -> bool {
        self.sim_check
            .as_ref()
            .is_none_or(|sim| triple(sim) == triple(&self.live_check))
    }

    /// Panics unless the live run completed quiescent, decoded every frame,
    /// passed the checker for its spec, and (if a simulator ran) both
    /// verdicts agree.
    pub fn assert_checker_verified(&self) {
        assert!(
            self.live.quiescent,
            "[{}] live run hit its limit before quiescing",
            self.live.transport
        );
        assert_eq!(
            self.live.decode_errors, 0,
            "[{}] live run dropped undecodable frames",
            self.live.transport
        );
        let ok = match self.spec {
            GossipSpec::Full => self.live_check.all_ok(),
            GossipSpec::Majority => self.live_check.gathering_ok && self.live_check.validity_ok,
        };
        assert!(ok, "[{}] {:?}", self.live.transport, self.live_check);
        assert!(
            self.checks_agree(),
            "[{}] live {:?} vs sim {:?}",
            self.live.transport,
            self.live_check,
            self.sim_check
        );
    }

    /// Panics unless the live run ended with exactly the simulator's final
    /// rumor sets. Only meaningful for full gossip without crashes, where
    /// both substrates must converge on all-rumors-everywhere.
    pub fn assert_rumor_sets_match_sim(&self) {
        let sim = self
            .sim_final_rumors
            .as_ref()
            .expect("case has no simulator side to compare rumor sets against");
        assert_eq!(&self.live.final_rumors, sim);
    }
}

fn triple(report: &CheckReport) -> (bool, bool, bool) {
    (
        report.gathering_ok,
        report.validity_ok,
        report.quiescence_ok,
    )
}

/// The initial rumor assignment both substrates start from.
pub fn initial_rumors(n: usize, f: usize, seed: u64) -> Vec<Rumor> {
    ProcessId::all(n)
        .map(|pid| GossipCtx::new(pid, n, f, seed).rumor)
        .collect()
}

/// Runs the live side (and, when configured, the simulator side) of one
/// differential case and judges both with the checker.
pub fn live_vs_sim<G, F>(config: &DiffConfig, make: F) -> Result<Verdict, RuntimeError>
where
    G: GossipEngine + Send,
    G::Msg: WireCodec + WireDecodeView + PartialEq,
    F: Fn(GossipCtx) -> G,
{
    let (n, f, seed) = (config.live.n, config.live.f, config.live.seed);
    let live = match config.transport {
        TransportKind::Channel => run_live(&config.live, &ChannelTransport, &make)?,
        TransportKind::Tcp => run_live(&config.live, &SocketTransport::tcp(), &make)?,
        #[cfg(unix)]
        TransportKind::Uds => run_live(&config.live, &SocketTransport::uds(), &make)?,
    };
    let live_check = check_gossip(
        config.spec,
        &live.final_rumors,
        &initial_rumors(n, f, seed),
        &live.correct,
        live.quiescent,
    );

    let (sim_check, sim_final_rumors) = match config.sim {
        Some(SimSide { d, delta }) => {
            let sim_config = SimConfig::new(n, f)
                .with_d(d)
                .with_delta(delta)
                .with_seed(seed);
            let mut adversary = FairObliviousAdversary::new(d, delta, seed);
            let simulated = run_gossip(&sim_config, config.spec, &mut adversary, &make)
                .expect("simulator side of differential case failed");
            (Some(simulated.check), Some(simulated.final_rumors))
        }
        None => (None, None),
    };

    Ok(Verdict {
        spec: config.spec,
        live,
        live_check,
        sim_check,
        sim_final_rumors,
    })
}

/// The threading disciplines every differential case should survive: one
/// thread per process (`r = n`) and a small multi-reactor configuration.
pub fn threadings() -> Vec<Threading> {
    vec![Threading::PerProcess, Threading::Reactor { reactors: 2 }]
}

/// Panics unless two lockstep reports are bit-identical: same rumor sets,
/// counters, ticks and per-node step counts.
pub fn assert_bit_identical(label: &str, a: &LiveReport, b: &LiveReport) {
    assert_eq!(a.final_rumors, b.final_rumors, "{label}: rumor sets differ");
    assert_eq!(a.messages_sent, b.messages_sent, "{label}: sends differ");
    assert_eq!(
        a.messages_delivered, b.messages_delivered,
        "{label}: deliveries differ"
    );
    assert_eq!(a.bytes_sent, b.bytes_sent, "{label}: byte counts differ");
    assert_eq!(a.ticks, b.ticks, "{label}: tick counts differ");
    assert_eq!(a.steps, b.steps, "{label}: step counts differ");
}
