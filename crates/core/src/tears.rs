//! `tears` — Two-hop Epidemic Asynchronous Rumor Spreading
//! (paper Section 5, Figure 3).
//!
//! `tears` solves *majority gossip*: every correct process must receive at
//! least a majority of the rumors (not necessarily all of them). It requires
//! `f < n/2` and achieves `O(d+δ)` time with `O(n^{7/4}·log²n)` messages —
//! strictly subquadratic and, unlike `ears`/`sears`, independent of `d` and
//! `δ` — with high probability against an oblivious adversary (Theorem 12).
//!
//! The protocol uses the derived constants (Figure 3, lines 2–4)
//! `a = 4·√n·log n`, `µ = a/2`, `κ = 8·n^{1/4}·log n`, and two random
//! neighbourhoods `Π1(p)`, `Π2(p)` where every other process is included
//! independently with probability `a/n`:
//!
//! * **First hop.** In its first local step, `p` sends a *first-level*
//!   message — its own rumor with a raised flag — to every process in
//!   `Π1(p)`.
//! * **Second hop.** `p` counts the first-level messages it receives
//!   (`up_msg_cnt`). After receiving `µ−κ` of them, and again at every count
//!   `µ+j` for `−κ < j < κ`, and thereafter at every count `µ+i·κ` for
//!   positive integers `i`, it sends a *second-level* message containing all
//!   gathered rumors to every process in `Π2(p)`.
//!
//! Unlike `ears`, a process does not send in every step; whether it sends at
//! all is governed entirely by how many first-level messages have arrived.
//!
//! **Per-sender high-water mark.** A process's `V` only grows (Figure 3,
//! lines 16–19), and every message carries the sender's `V` at send time, so
//! the snapshots one sender ships form an inclusion chain, and a snapshot's
//! size says where on the chain it sits: one no larger than a snapshot
//! already merged from the same sender is a subset of it, hence of what the
//! receiver holds. Each process therefore records, per sender, the size of
//! the largest snapshot it has merged (or tested) from it, and a delivery no
//! larger than that mark skips the superset test and the union; it still
//! counts toward the trigger. This is exact, not a heuristic: the state
//! after a skipped delivery is the state the superset test would have left.
//! It trusts the sender id and the snapshot size a delivery reports, which
//! the crash-only model guarantees (a process never forges either). The
//! mark is a sorted `(sender, size)` list while that is smaller than a
//! `u32` array over `0..n`, and the array from then on: chosen at
//! construction from `|Π1| + |Π2|` (the expected in-degree) and promoted by
//! the same byte comparison as senders arrive.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use agossip_sim::ProcessId;

use crate::codec_view::{decode_tears_verified, WireDecodeView};
use crate::engine::{broadcast, EncodedFrame, GossipCtx, GossipEngine};
use crate::params::TearsParams;
use crate::rumor::RumorSet;

/// Whether a `tears` message is first-level (flag raised) or second-level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TearsFlag {
    /// First-level message, sent in the sender's first local step ("flag up").
    Up,
    /// Second-level message, triggered by the first-level message count
    /// ("flag down").
    Down,
}

/// Wire message of `tears`: the gathered rumors plus the level flag.
///
/// The rumor collection is a copy-on-write snapshot: a broadcast to the
/// `Θ(√n·log n)`-sized `Π1`/`Π2` neighbourhood clones one [`Arc`] pointer per
/// destination instead of one rumor map per destination. Receivers only ever
/// *union* a message into their own state, so the shared payload stays
/// immutable for its whole lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TearsMessage {
    /// The sender's rumor collection `V` at send time (shared snapshot).
    pub rumors: Arc<RumorSet>,
    /// Message level.
    pub flag: TearsFlag,
}

/// The `tears` protocol state machine for one process.
#[derive(Debug, Clone)]
pub struct Tears {
    ctx: GossipCtx,
    params: TearsParams,
    rumors: Arc<RumorSet>,
    pi1: Vec<ProcessId>,
    pi2: Vec<ProcessId>,
    mu: u64,
    kappa: u64,
    up_msg_cnt: u64,
    first_level_sent: bool,
    pending_bcasts: u64,
    second_level_sends: u64,
    steps: u64,
    marks: SenderMarks,
}

/// The per-sender high-water mark (see the module docs): the size of the
/// largest snapshot already merged or tested from each sender, 0 before the
/// first.
#[derive(Debug, Clone)]
enum SenderMarks {
    /// `(sender, mark)` sorted by sender, no duplicates.
    List(Vec<(u32, u32)>),
    /// `marks[q]` for every sender `q` in `0..n`.
    Array(Vec<u32>),
}

/// The list/array rule: a list of `senders` entries gives way to the array
/// over `0..n` as soon as the array is no larger.
fn array_is_no_larger(senders: usize, n: usize) -> bool {
    senders * size_of::<(u32, u32)>() >= n * size_of::<u32>()
}

impl SenderMarks {
    /// Empty marks for a process expecting about `senders` distinct senders
    /// out of `n`, pre-sized so that a delivery from an expected sender
    /// allocates nothing.
    fn new(n: usize, senders: usize) -> Self {
        if array_is_no_larger(senders, n) {
            SenderMarks::Array(vec![0; n])
        } else {
            SenderMarks::List(Vec::with_capacity(senders))
        }
    }

    /// Raises `from`'s mark to `len` and returns `true`, or returns `false`
    /// when `len` is no larger than the mark, i.e. the snapshot is already
    /// held. A sender or size beyond the `u32` range (or, in the array,
    /// beyond `0..n`) is never recorded and always reads as new.
    fn raise(&mut self, from: ProcessId, len: usize, n: usize) -> bool {
        let Ok(len) = u32::try_from(len) else {
            return true;
        };
        match self {
            SenderMarks::Array(marks) => match marks.get_mut(from.index()) {
                Some(mark) if *mark >= len => false,
                Some(mark) => {
                    *mark = len;
                    true
                }
                None => true,
            },
            SenderMarks::List(entries) => {
                let Ok(sender) = u32::try_from(from.index()) else {
                    return true;
                };
                match entries.binary_search_by_key(&sender, |&(q, _)| q) {
                    Ok(pos) if entries[pos].1 >= len => false,
                    Ok(pos) => {
                        entries[pos].1 = len;
                        true
                    }
                    Err(pos) => {
                        entries.insert(pos, (sender, len));
                        if array_is_no_larger(entries.len(), n) {
                            let mut marks = vec![0; n];
                            for &(q, mark) in entries.iter() {
                                if let Some(slot) = marks.get_mut(q as usize) {
                                    *slot = mark;
                                }
                            }
                            *self = SenderMarks::Array(marks);
                        }
                        true
                    }
                }
            }
        }
    }
}

impl Tears {
    /// Creates an instance with default parameters.
    pub fn new(ctx: GossipCtx) -> Self {
        Self::with_params(ctx, TearsParams::default())
    }

    /// Creates an instance with explicit parameters.
    pub fn with_params(ctx: GossipCtx, params: TearsParams) -> Self {
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        let prob = params.membership_probability(ctx.n);
        // Figure 3, lines 6–7: every other process joins Π1 (resp. Π2)
        // independently with probability a/n.
        let mut pi1 = Vec::new();
        let mut pi2 = Vec::new();
        for q in ProcessId::all(ctx.n) {
            if q == ctx.pid {
                continue;
            }
            if rng.gen_bool(prob) {
                pi1.push(q);
            }
            if rng.gen_bool(prob) {
                pi2.push(q);
            }
        }
        let mu = params.mu(ctx.n).round().max(1.0) as u64;
        let kappa = params.kappa(ctx.n).round().max(1.0) as u64;
        // p hears from q when p ∈ Π1(q) or Π2(q): about |Π1| + |Π2| senders.
        let marks = SenderMarks::new(ctx.n, pi1.len() + pi2.len());
        Tears {
            marks,
            rumors: Arc::new(RumorSet::singleton(ctx.rumor)),
            pi1,
            pi2,
            mu,
            kappa,
            up_msg_cnt: 0,
            first_level_sent: false,
            pending_bcasts: 0,
            second_level_sends: 0,
            steps: 0,
            ctx,
            params,
        }
    }

    /// The first-hop neighbourhood `Π1(p)`.
    pub fn pi1(&self) -> &[ProcessId] {
        &self.pi1
    }

    /// The second-hop neighbourhood `Π2(p)`.
    pub fn pi2(&self) -> &[ProcessId] {
        &self.pi2
    }

    /// The trigger-window centre `µ`.
    pub fn mu(&self) -> u64 {
        self.mu
    }

    /// The trigger-window half width `κ`.
    pub fn kappa(&self) -> u64 {
        self.kappa
    }

    /// The number of first-level messages received so far.
    pub fn up_msg_count(&self) -> u64 {
        self.up_msg_cnt
    }

    /// Total number of second-level broadcast rounds performed so far.
    pub fn second_level_rounds(&self) -> u64 {
        self.second_level_sends
    }

    /// The parameters in effect.
    pub fn params(&self) -> TearsParams {
        self.params
    }

    /// Whether reaching first-level message count `count` triggers a
    /// second-level broadcast (Figure 3, lines 21–24): counts in the window
    /// `[µ−κ, µ+κ)` all trigger, and beyond the window every further multiple
    /// `µ + i·κ` (for positive integer `i`) triggers.
    pub fn is_trigger_count(&self, count: u64) -> bool {
        if count == 0 {
            return false;
        }
        let lower = self.mu.saturating_sub(self.kappa);
        if count >= lower && count < self.mu + self.kappa {
            return true;
        }
        if count > self.mu && (count - self.mu).is_multiple_of(self.kappa) {
            return true;
        }
        false
    }

    /// Counts a first-level message toward the trigger (Figure 3, lines
    /// 17–19); a second-level one counts for nothing.
    fn count_flag(&mut self, flag: TearsFlag) {
        if flag == TearsFlag::Up {
            self.up_msg_cnt += 1;
            if self.is_trigger_count(self.up_msg_cnt) {
                self.pending_bcasts += 1;
            }
        }
    }
}

impl GossipEngine for Tears {
    type Msg = TearsMessage;

    /// Figure 3, lines 16–19. A snapshot no larger than the sender's mark is
    /// already held (module docs) and touches nothing but the count. Any
    /// other raises the mark, and the superset pre-check still keeps the
    /// state untouched (and unshared snapshots un-copied) when it brings
    /// nothing new; `make_mut` copies the set only when it is still shared
    /// with in-flight snapshots.
    fn deliver(&mut self, from: ProcessId, msg: TearsMessage) {
        self.count_flag(msg.flag);
        if self.marks.raise(from, msg.rumors.len(), self.ctx.n)
            && !self.rumors.is_superset_of(&msg.rumors)
        {
            Arc::make_mut(&mut self.rumors).union(&msg.rumors);
        }
    }

    fn deliver_encoded<F: EncodedFrame>(&mut self, frames: &[F]) -> usize {
        // Batched form of `deliver`: one borrowed-view parse per frame —
        // the verified parse, which skips the payload walk, when the
        // runtime already validated the body — then per frame the same
        // skip-or-test-then-union, keyed on the frame's sender and the
        // decoded set's size. A frame that fails to decode is counted and
        // leaves the marks alone. The rumor sections fold in with at most
        // one copy-on-write of the state — the first fresh view pays the
        // `Arc` copy, every later `make_mut` sees a unique handle.
        let mut errors = 0usize;
        for frame in frames {
            let view = if frame.verified() {
                decode_tears_verified(frame.body())
            } else {
                TearsMessage::decode_view(frame.body())
            };
            match view {
                Ok(view) => {
                    self.count_flag(view.flag);
                    if self
                        .marks
                        .raise(frame.sender(), view.rumors.len(), self.ctx.n)
                        && !self.rumors.is_superset_of_view(&view.rumors)
                    {
                        Arc::make_mut(&mut self.rumors).union_view(&view.rumors);
                    }
                }
                Err(_) => errors += 1,
            }
        }
        errors
    }

    fn local_step(&mut self, out: &mut Vec<(ProcessId, TearsMessage)>) {
        self.steps += 1;

        // Figure 3, lines 12–15: the first-level transmission happens once,
        // in the process's first local step, with the flag raised. The
        // snapshot is an `Arc` clone — every destination shares one payload.
        if !self.first_level_sent {
            self.first_level_sent = true;
            let msg = TearsMessage {
                rumors: Arc::clone(&self.rumors),
                flag: TearsFlag::Up,
            };
            broadcast(out, &self.pi1, msg);
        }

        // Figure 3, lines 20–27: one second-level broadcast per trigger count
        // reached since the previous step.
        while self.pending_bcasts > 0 {
            self.pending_bcasts -= 1;
            self.second_level_sends += 1;
            let msg = TearsMessage {
                rumors: Arc::clone(&self.rumors),
                flag: TearsFlag::Down,
            };
            broadcast(out, &self.pi2, msg);
        }
    }

    fn pid(&self) -> ProcessId {
        self.ctx.pid
    }

    fn rumors(&self) -> &RumorSet {
        &self.rumors
    }

    fn is_quiescent(&self) -> bool {
        self.first_level_sent && self.pending_bcasts == 0
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

    fn ctx(pid: usize, n: usize, seed: u64) -> GossipCtx {
        GossipCtx::new(ProcessId(pid), n, n / 2 - 1, seed)
    }

    fn step(p: &mut Tears) -> Vec<(ProcessId, TearsMessage)> {
        let mut out = Vec::new();
        p.local_step(&mut out);
        out
    }

    fn up_msg(origin: usize) -> TearsMessage {
        TearsMessage {
            rumors: Arc::new(RumorSet::singleton(Rumor::new(
                ProcessId(origin),
                origin as u64,
            ))),
            flag: TearsFlag::Up,
        }
    }

    #[test]
    fn neighbourhood_sizes_concentrate_around_a() {
        // Lemma 8 shape: |Π1| is a binomial with mean a; for a large n it
        // should be within a few κ of a.
        let n = 2048;
        let p = Tears::new(ctx(0, n, 7));
        let a = TearsParams::default().a(n);
        let kappa = TearsParams::default().kappa(n);
        let size = p.pi1().len() as f64;
        assert!(
            (size - a).abs() < 4.0 * kappa,
            "|Π1| = {size} too far from a = {a} (κ = {kappa})"
        );
        assert!(!p.pi1().contains(&ProcessId(0)), "never includes itself");
        assert!(!p.pi2().contains(&ProcessId(0)));
    }

    #[test]
    fn first_step_sends_first_level_to_pi1_only_once() {
        let mut p = Tears::new(ctx(0, 256, 3));
        let out = step(&mut p);
        assert_eq!(out.len(), p.pi1().len());
        assert!(out.iter().all(|(_, m)| m.flag == TearsFlag::Up));
        // Second step: nothing new to send.
        let out = step(&mut p);
        assert!(out.is_empty());
        assert!(p.is_quiescent());
    }

    #[test]
    fn trigger_window_matches_paper_definition() {
        let p = Tears::new(ctx(0, 1024, 5));
        let mu = p.mu();
        let kappa = p.kappa();
        // Inside the window [µ−κ, µ+κ).
        assert!(p.is_trigger_count(mu - kappa));
        assert!(p.is_trigger_count(mu));
        assert!(p.is_trigger_count(mu + kappa - 1));
        // Just outside the window and not a multiple of κ.
        assert!(!p.is_trigger_count(mu - kappa - 1));
        assert!(!p.is_trigger_count(mu + kappa + 1));
        // Later multiples µ + iκ trigger.
        assert!(p.is_trigger_count(mu + kappa));
        assert!(p.is_trigger_count(mu + 3 * kappa));
        // Zero never triggers.
        assert!(!p.is_trigger_count(0));
    }

    #[test]
    fn second_level_broadcast_fires_when_threshold_reached() {
        // n must be large enough that µ > κ (the paper assumes n sufficiently
        // large); n = 1024 gives µ ≈ 440, κ ≈ 310.
        let n = 1024;
        let mut p = Tears::new(ctx(0, n, 11));
        // Take the first step so the first-level send is out of the way.
        step(&mut p);
        let threshold = p.mu() - p.kappa();
        // Deliver exactly threshold − 1 first-level messages: no broadcast.
        for i in 0..(threshold - 1) {
            p.deliver(ProcessId(1), up_msg((i % (n as u64 - 1)) as usize + 1));
        }
        assert!(step(&mut p).is_empty());
        // The threshold-th message triggers a broadcast to Π2.
        p.deliver(ProcessId(1), up_msg(1));
        let out = step(&mut p);
        assert_eq!(out.len(), p.pi2().len());
        assert!(out.iter().all(|(_, m)| m.flag == TearsFlag::Down));
        assert_eq!(p.second_level_rounds(), 1);
    }

    #[test]
    fn counts_only_first_level_messages() {
        let mut p = Tears::new(ctx(0, 64, 13));
        p.deliver(
            ProcessId(1),
            TearsMessage {
                rumors: Arc::new(RumorSet::singleton(Rumor::new(ProcessId(1), 1))),
                flag: TearsFlag::Down,
            },
        );
        assert_eq!(p.up_msg_count(), 0);
        p.deliver(ProcessId(2), up_msg(2));
        assert_eq!(p.up_msg_count(), 1);
    }

    #[test]
    fn rumors_accumulate_from_both_levels() {
        let mut p = Tears::new(ctx(0, 16, 17));
        p.deliver(ProcessId(1), up_msg(1));
        let mut many = RumorSet::new();
        for i in 2..6 {
            many.insert(Rumor::new(ProcessId(i), i as u64));
        }
        p.deliver(
            ProcessId(2),
            TearsMessage {
                rumors: Arc::new(many),
                flag: TearsFlag::Down,
            },
        );
        assert_eq!(p.rumors().len(), 6); // own + 1 + 4
    }

    #[test]
    fn quiescent_until_pending_broadcast_exists() {
        let n = 1024;
        let mut p = Tears::new(ctx(0, n, 19));
        step(&mut p);
        assert!(p.is_quiescent());
        let threshold = p.mu() - p.kappa();
        for i in 0..threshold {
            p.deliver(ProcessId(1), up_msg((i % (n as u64 - 1)) as usize + 1));
        }
        assert!(!p.is_quiescent(), "a pending broadcast means not quiescent");
        step(&mut p);
        assert!(p.is_quiescent());
    }

    #[test]
    fn broadcast_payloads_are_shared_not_copied() {
        let mut p = Tears::new(ctx(0, 256, 3));
        let out = step(&mut p);
        assert!(out.len() > 1);
        let first = &out[0].1.rumors;
        assert!(
            out.iter().all(|(_, m)| Arc::ptr_eq(&m.rumors, first)),
            "all destinations of one broadcast share one snapshot allocation"
        );
    }

    #[test]
    fn delivery_after_broadcast_does_not_mutate_snapshots() {
        let mut p = Tears::new(ctx(0, 64, 23));
        let out = step(&mut p);
        let snapshot = Arc::clone(&out[0].1.rumors);
        let before = snapshot.len();
        p.deliver(ProcessId(1), up_msg(1));
        assert_eq!(snapshot.len(), before, "in-flight snapshots are immutable");
        assert_eq!(p.rumors().len(), before + 1);
    }

    /// A snapshot of the rumors of origins `0..len` — the chain one sender
    /// that learns origins in order ships.
    fn prefix(len: usize, flag: TearsFlag) -> TearsMessage {
        TearsMessage {
            rumors: Arc::new(
                (0..len)
                    .map(|i| Rumor::new(ProcessId(i), i as u64))
                    .collect(),
            ),
            flag,
        }
    }

    fn sparse_params() -> TearsParams {
        TearsParams {
            a_factor: 0.1,
            ..TearsParams::default()
        }
    }

    #[test]
    fn marks_start_in_the_form_the_expected_in_degree_fits() {
        // n ≤ 128 under the paper's constants: a ≥ n, so everyone is
        // everyone's neighbour and the array is the smaller form.
        let p = Tears::new(ctx(0, 64, 3));
        assert!(matches!(&p.marks, SenderMarks::Array(m) if m.len() == 64));
        // A small a leaves the expected senders far below n/2: a list, with
        // room for all of them before the first delivery.
        let p = Tears::with_params(ctx(0, 4096, 3), sparse_params());
        let expected = p.pi1().len() + p.pi2().len();
        assert!(expected > 0 && !array_is_no_larger(expected, 4096));
        assert!(
            matches!(&p.marks, SenderMarks::List(l) if l.is_empty() && l.capacity() >= expected)
        );
    }

    #[test]
    fn list_marks_promote_at_the_byte_crossover_and_keep_every_mark() {
        // At n = 64 the array is 256 bytes: the 32nd 8-byte entry fills it.
        let n = 64;
        let mut marks = SenderMarks::new(n, 2);
        for q in 0..n {
            assert_eq!(
                matches!(marks, SenderMarks::Array(_)),
                q >= 32,
                "{q} senders recorded"
            );
            assert!(marks.raise(ProcessId(q), q + 1, n), "first contact is new");
        }
        let SenderMarks::Array(array) = &marks else {
            panic!("promoted");
        };
        let want: Vec<u32> = (1..=n as u32).collect();
        assert_eq!(array, &want, "promotion carries every mark over");
        for q in 0..n {
            assert!(!marks.raise(ProcessId(q), q + 1, n), "equal size is held");
            assert!(!marks.raise(ProcessId(q), q, n), "smaller is held");
            assert!(marks.raise(ProcessId(q), q + 2, n), "larger is new");
        }
    }

    #[test]
    fn marks_skip_only_what_is_no_larger_and_never_record_strangers() {
        for mut marks in [SenderMarks::new(16, 0), SenderMarks::new(16, 16)] {
            assert!(marks.raise(ProcessId(3), 5, 16));
            assert!(!marks.raise(ProcessId(3), 5, 16));
            assert!(marks.raise(ProcessId(3), 6, 16));
            assert!(marks.raise(ProcessId(4), 1, 16), "marks are per sender");
            // A sender outside the array (or the u32 range) reads as new
            // every time, so its snapshots always take the full path.
            let stranger = ProcessId(usize::MAX);
            assert!(marks.raise(stranger, 1, 16));
            assert!(marks.raise(stranger, 1, 16));
        }
        let mut array = SenderMarks::new(16, 16);
        assert!(array.raise(ProcessId(16), 1, 16));
        assert!(array.raise(ProcessId(16), 1, 16));
    }

    #[test]
    fn a_held_snapshot_skips_the_union_but_still_counts() {
        for params in [TearsParams::default(), sparse_params()] {
            let mut p = Tears::with_params(ctx(9, 64, 29), params);
            p.deliver(ProcessId(2), prefix(5, TearsFlag::Down));
            assert_eq!(p.rumors().len(), 6, "origins 0..5 plus its own");
            let held = Arc::clone(&p.rumors);
            // Earlier links of the same chain: nothing to merge, and the
            // state is not even copied, but a raised flag still counts.
            p.deliver(ProcessId(2), prefix(3, TearsFlag::Up));
            p.deliver(ProcessId(2), prefix(5, TearsFlag::Up));
            assert!(Arc::ptr_eq(&held, &p.rumors));
            assert_eq!(p.up_msg_count(), 2);
            // A longer link merges.
            p.deliver(ProcessId(2), prefix(7, TearsFlag::Down));
            assert_eq!(p.rumors().len(), 8);
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a = Tears::new(ctx(3, 512, 123));
        let b = Tears::new(ctx(3, 512, 123));
        assert_eq!(a.pi1(), b.pi1());
        assert_eq!(a.pi2(), b.pi2());
    }

    #[test]
    fn different_processes_get_different_neighbourhoods() {
        let a = Tears::new(ctx(0, 512, 123));
        let b = Tears::new(ctx(1, 512, 123));
        assert_ne!(a.pi1(), b.pi1());
    }
}
