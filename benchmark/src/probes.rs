//! Micro-probes replayed after a traced trial, on what the trial itself
//! produced: the messages [`crate::timed::Timed`] captured from
//! `local_step`'s output and the final rumor sets of the engines.
//!
//! Encode, view-decode, set union and frame reassembly cannot be timed from
//! outside while a run is in flight (they happen inside the event loop), so
//! each is timed here in isolation on the run's own data. They give the
//! per-byte and per-message cost of those layers; their time inside a run is
//! part of `core.engine.deliver_ms` (decode, union) or of
//! `runtime.loop.other_ms` (encode, reassembly).

use std::hint::black_box;
use std::time::Instant;

use agossip_core::{Rumor, RumorSet, WireCodec, WireDecodeView, ADAPTIVE_SPARSE_LIMIT};
use agossip_runtime::{frame_bytes, FrameBuf};
use agossip_sim::ProcessId;

/// Times each probe this many times over its whole sample and keeps the
/// fastest pass: the probes want the cost of the code, not of a cold cache.
const PASSES: usize = 5;

/// Stream bytes are fed to the reassembly buffer in chunks of this size, the
/// read size of the socket endpoints.
const CHUNK_BYTES: usize = 4096;

/// Unions timed per pass (each on a fresh clone of its target).
const UNIONS_PER_PASS: usize = 64;

/// Summed probe results; sums so that several trials (or several protocols
/// of one pass) can be added before the ratios are taken.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeSums {
    /// Messages encoded / decoded / reassembled per pass.
    pub msgs: u64,
    /// Encoded bytes of those messages.
    pub bytes: u64,
    /// ns to encode them all (`encode_into` a reused buffer).
    pub encode_ns: u64,
    /// ns to `decode_view` them all.
    pub decode_ns: u64,
    /// ns to frame, chunk-feed and reassemble them all through `FrameBuf`.
    pub framebuf_ns: u64,
    /// Dense unions timed, and their ns.
    pub dense_unions: u64,
    /// ns of the dense unions.
    pub dense_ns: u64,
    /// Sparse unions timed.
    pub sparse_unions: u64,
    /// ns of the sparse unions.
    pub sparse_ns: u64,
}

impl ProbeSums {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &ProbeSums) {
        self.msgs += other.msgs;
        self.bytes += other.bytes;
        self.encode_ns += other.encode_ns;
        self.decode_ns += other.decode_ns;
        self.framebuf_ns += other.framebuf_ns;
        self.dense_unions += other.dense_unions;
        self.dense_ns += other.dense_ns;
        self.sparse_unions += other.sparse_unions;
        self.sparse_ns += other.sparse_ns;
    }
}

fn timed_ns(work: impl FnOnce()) -> u64 {
    let start = Instant::now();
    work();
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The fastest of [`PASSES`] passes; each pass returns its own measured ns,
/// so a pass can prepare inputs outside its timed section.
fn fastest_ns(mut pass: impl FnMut() -> u64) -> u64 {
    (0..PASSES).map(|_| pass()).min().unwrap_or(0)
}

/// Encodes, view-decodes and reassembles the sampled messages.
pub fn codec_probes<M: WireCodec + WireDecodeView>(samples: &[M]) -> ProbeSums {
    if samples.is_empty() {
        return ProbeSums::default();
    }
    let encoded: Vec<Vec<u8>> = samples.iter().map(WireCodec::encode).collect();
    let mut buf = Vec::new();
    let encode_ns = fastest_ns(|| {
        timed_ns(|| {
            for msg in samples {
                buf.clear();
                black_box(msg).encode_into(&mut buf);
                black_box(&buf);
            }
        })
    });
    let decode_ns = fastest_ns(|| {
        timed_ns(|| {
            for bytes in &encoded {
                // A sample that fails to decode would be a codec bug; the
                // trial's own decode_errors count is what reports it.
                black_box(M::decode_view(black_box(bytes)).is_ok());
            }
        })
    });
    let framed: Vec<Vec<u8>> = encoded
        .iter()
        .map(|payload| frame_bytes(ProcessId(1), payload))
        .collect();
    let framebuf_ns = fastest_ns(|| {
        let mut reassembly = FrameBuf::new();
        timed_ns(|| {
            for stream in &framed {
                for chunk in stream.chunks(CHUNK_BYTES) {
                    reassembly.extend(black_box(chunk));
                }
                black_box(reassembly.next_frame().is_ok());
            }
        })
    });
    ProbeSums {
        msgs: samples.len() as u64,
        bytes: encoded.iter().map(|e| e.len() as u64).sum(),
        encode_ns,
        decode_ns,
        framebuf_ns,
        ..ProbeSums::default()
    }
}

/// Times `target ∪= source` over fresh clones of `target` (the clones are
/// made outside the timed section).
fn union_ns(target: &RumorSet, source: &RumorSet) -> u64 {
    fastest_ns(|| {
        let mut targets: Vec<RumorSet> = vec![target.clone(); UNIONS_PER_PASS];
        timed_ns(|| {
            for t in &mut targets {
                black_box(t.union(black_box(source)));
            }
        })
    })
}

/// Unions the run's final rumor sets: once at their full size in the dense
/// word-packed form, once cut down to the sparse form's size.
pub fn union_probes(final_sets: &[RumorSet]) -> ProbeSums {
    let [first, second, ..] = final_sets else {
        return ProbeSums::default();
    };
    let dense = |set: &RumorSet| {
        let mut set = set.clone();
        set.force_dense();
        set
    };
    // Interleaved halves of the first set's rumors, each small enough that
    // the halves and their union all stay in the sparse form.
    let sparse = |parity: usize| {
        let mut set = RumorSet::new();
        let rumors: Vec<Rumor> = first.iter().take(ADAPTIVE_SPARSE_LIMIT).collect();
        for rumor in rumors.iter().skip(parity).step_by(2) {
            set.insert(*rumor);
        }
        set
    };
    let (dense_target, dense_source) = (dense(first), dense(second));
    let (sparse_target, sparse_source) = (sparse(0), sparse(1));
    ProbeSums {
        dense_unions: UNIONS_PER_PASS as u64,
        dense_ns: union_ns(&dense_target, &dense_source),
        sparse_unions: UNIONS_PER_PASS as u64,
        sparse_ns: union_ns(&sparse_target, &sparse_source),
        ..ProbeSums::default()
    }
}
