//! Wire-codec walk micro-benchmarks — what one frame costs to encode, to
//! decode into an owned message and to validate as a borrowed view.
//!
//! Two frame shapes, both quarter-full dense `tears` snapshots (the steady
//! state of the live runtime):
//!
//! * `identity/4096` — payload = origin over a universe of 4 096, so every
//!   payload is a one- or two-byte varint: the plain-gossip hot path
//!   (`live_tears_4k` in `benchmark/`);
//! * `random/512` — payloads drawn from the whole `u64` range over a
//!   universe of 512, so nearly every payload is a nine- or ten-byte varint:
//!   what service epochs ship (`service_closed_512`).
//!
//! Each sample walks [`FRAMES`] distinct frames, so one sample is long
//! against the timer and the printed time ÷ [`FRAMES`] is the per-frame cost.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use agossip_core::{Rumor, RumorSet, TearsFlag, TearsMessage, WireCodec, WireDecodeView};
use agossip_sim::rng::splitmix64;
use agossip_sim::ProcessId;

/// Distinct frames walked per timed sample.
const FRAMES: usize = 64;

/// [`FRAMES`] quarter-full snapshots over a universe of `n`; `identity`
/// selects payload = origin, otherwise payloads are random `u64`s.
fn frames(n: usize, identity: bool) -> Vec<TearsMessage> {
    // A deterministic draw stream: the workspace's seed mixer over a counter.
    let mut counter = n as u64;
    let mut draw = move || {
        counter += 1;
        splitmix64(counter)
    };
    (0..FRAMES)
        .map(|_| {
            let mut set = RumorSet::new();
            while set.len() < n / 4 {
                let origin = (draw() % n as u64) as usize;
                let payload = if identity { origin as u64 } else { draw() };
                set.insert(Rumor::new(ProcessId(origin), payload));
            }
            TearsMessage {
                rumors: Arc::new(set),
                flag: TearsFlag::Up,
            }
        })
        .collect()
}

fn bench_codec_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_walk");
    group.sample_size(200);
    for (shape, n, identity) in [("identity", 4096usize, true), ("random", 512, false)] {
        let messages = frames(n, identity);
        let encoded: Vec<Vec<u8>> = messages.iter().map(WireCodec::encode).collect();
        let label = |op: &str| BenchmarkId::new(format!("{op}/{shape}"), n);
        group.bench_with_input(label("decode_view"), &encoded, |b, encoded| {
            b.iter(|| {
                for bytes in encoded {
                    black_box(TearsMessage::decode_view(black_box(bytes)).is_ok());
                }
            });
        });
        group.bench_with_input(label("decode"), &encoded, |b, encoded| {
            b.iter(|| {
                for bytes in encoded {
                    black_box(TearsMessage::decode(black_box(bytes)).is_ok());
                }
            });
        });
        group.bench_with_input(label("encode"), &messages, |b, messages| {
            let mut buf = Vec::new();
            b.iter(|| {
                for message in messages {
                    buf.clear();
                    black_box(message).encode_into(&mut buf);
                    black_box(&buf);
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec_walk);
criterion_main!(benches);
