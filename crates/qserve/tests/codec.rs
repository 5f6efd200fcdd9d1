//! Property tests for the protocol codec: any frame sequence survives
//! encode → split-at-arbitrary-chunk-boundaries → decode. Partial
//! reads are the classic server bug; the [`qserve::FrameDecoder`] must
//! reassemble frames from any fragmentation a transport produces.

use proptest::collection;
use proptest::prelude::*;
use qserve::{EngineSel, Frame, FrameDecoder, JobRequest, JobSummary, Objective};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Printable-ASCII payload text (no `\n`/`\r`, which `encode`
/// sanitizes away — framing metacharacters cannot round-trip by
/// design).
fn text() -> impl Strategy<Value = String> {
    collection::vec(32u8..127, 0..80).prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        -1e9f64..1e9,
        0.0f64..1e-6, // tiny epsilons exercise long decimal expansions
    ]
}

fn engine() -> impl Strategy<Value = EngineSel> {
    prop_oneof![
        Just(EngineSel::Serial),
        (1usize..64).prop_map(EngineSel::Sharded),
    ]
}

fn objective() -> impl Strategy<Value = Objective> {
    prop_oneof![Just(Objective::GateCount), Just(Objective::TwoQubitCount)]
}

fn frame() -> impl Strategy<Value = Frame> {
    let ids = 0u64..1 << 48;
    let counters = 0u64..1 << 48;
    let submit = (
        (0u64..1 << 32, engine(), 0u64..1 << 32),
        (0u64..1 << 32, 0u64..1 << 48, finite_f64()),
        (objective(), text()),
    )
        .prop_map(
            |((id, engine, iters), (time_ms, seed, eps), (objective, qasm))| {
                Frame::Submit(JobRequest {
                    id,
                    engine,
                    iters,
                    time_ms,
                    seed,
                    eps,
                    objective,
                    // Derived rather than a fresh draw (tuple arity).
                    overwrite: seed % 2 == 1,
                    certify: seed % 3 == 1,
                    qasm,
                })
            },
        );
    let snapshot = (
        (0u64..1 << 32, finite_f64(), finite_f64()),
        (counters.clone(), finite_f64(), text()),
    )
        .prop_map(
            |((id, cost, epsilon), (iterations, seconds, qasm))| Frame::Snapshot {
                id,
                cost,
                epsilon,
                iterations,
                seconds,
                qasm,
            },
        );
    let done = (
        (0u64..1 << 32, finite_f64(), finite_f64()),
        (counters.clone(), counters.clone(), counters),
        (0u64..2, text()),
    )
        .prop_map(
            |((id, cost, epsilon), (iterations, accepted, resynth_hits), (cancelled, qasm))| {
                Frame::Done(JobSummary {
                    id,
                    cost,
                    epsilon,
                    iterations,
                    accepted,
                    resynth_hits,
                    // Derived, not fresh strategy draws: the tuple
                    // strategies above already nest three deep.
                    cache_hits: resynth_hits / 2,
                    cache_misses: resynth_hits - resynth_hits / 2,
                    queue_ms: iterations / 3,
                    run_ms: iterations / 2,
                    fast_ms: accepted / 2,
                    slow_ms: accepted / 3,
                    cancelled: cancelled != 0,
                    qasm,
                })
            },
        );
    let delta = (
        (0u64..1 << 32, 1u64..1 << 32, finite_f64()),
        (finite_f64(), 0u64..1 << 48),
        (finite_f64(), text()),
    )
        .prop_map(
            |((id, seq, cost), (epsilon, iterations), (seconds, delta))| Frame::Delta {
                id,
                seq,
                cost,
                epsilon,
                iterations,
                seconds,
                delta,
            },
        );
    prop_oneof![
        submit,
        (0u64..64).prop_map(|v| Frame::Hello { version: v as u32 }),
        ids.clone().prop_map(|id| Frame::Cancel { id }),
        ids.clone().prop_map(|id| Frame::Resume { id }),
        Just(Frame::Shutdown),
        (ids.clone(), 0u64..1 << 32).prop_map(|(id, ref_id)| Frame::Accepted { id, ref_id }),
        Just(Frame::Health),
        (0u64..1 << 16, 0u64..64).prop_map(|(live, slots)| Frame::Healthy { live, slots }),
        snapshot,
        delta,
        done,
        (ids, (0usize..5, text())).prop_map(|(id, (code, message))| Frame::Error {
            id,
            // `code=` is a plain (space-delimited) field, so only
            // token-shaped values round-trip; draw from the real set.
            code: [
                "",
                "bad-request",
                "queue-timeout",
                "journal-conflict",
                "degraded"
            ][code]
                .to_string(),
            message,
        }),
    ]
}

/// A small random circuit and a chain of structurally valid random
/// patches against it, produced from a seed (proptest drives the seed;
/// the derivation keeps every patch applicable to the evolving
/// circuit).
fn random_patch_chain(seed: u64, len: usize, nops: usize) -> (qcir::Circuit, Vec<qcir::Patch>) {
    use qcir::{Circuit, Gate, Instruction, Patch};
    let mut rng = SmallRng::seed_from_u64(seed);
    let nq = 3usize;
    let mut c = Circuit::new(nq);
    for _ in 0..len.max(1) {
        match rng.random_range(0..3u8) {
            0 => c.push(Gate::H, &[rng.random_range(0..nq as u32)]),
            1 => c.push(
                Gate::Rz(rng.random::<f64>() * 6.0 - 3.0),
                &[rng.random_range(0..nq as u32)],
            ),
            _ => {
                let a = rng.random_range(0..nq as u32);
                let b = (a + 1 + rng.random_range(0..(nq as u32 - 1))) % nq as u32;
                c.push(Gate::Cx, &[a, b]);
            }
        }
    }
    let mut work = c.clone();
    let mut ops = Vec::new();
    for _ in 0..nops {
        let n = work.len();
        let mut removed: Vec<usize> = Vec::new();
        if n > 0 {
            for i in 0..n {
                if removed.len() < 3 && rng.random::<f64>() < 0.2 {
                    removed.push(i);
                }
            }
        }
        let mut replacement = Vec::new();
        for _ in 0..rng.random_range(0..3usize) {
            replacement.push(Instruction::new(
                Gate::Rz(rng.random::<f64>()),
                &[rng.random_range(0..nq as u32)],
            ));
        }
        let insert_at = rng.random_range(0..=n);
        let patch = Patch::new(removed, replacement, insert_at);
        work.apply_patch(&patch);
        ops.push(patch);
    }
    (c, ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// encode → parse is the identity on every frame.
    #[test]
    fn encode_parse_is_identity(f in frame()) {
        let line = f.encode();
        prop_assert!(line.ends_with('\n'));
        prop_assert_eq!(line.matches('\n').count(), 1);
        let back = Frame::parse(line.trim_end_matches('\n')).unwrap();
        prop_assert_eq!(back, f);
    }

    /// A frame sequence survives decoding from arbitrary chunk
    /// boundaries — byte-at-a-time up to jumbo chunks, fragmenting
    /// lines anywhere.
    #[test]
    fn frames_survive_arbitrary_chunking(
        frames in collection::vec(frame(), 1..10),
        seed in 0u64..1 << 32,
    ) {
        let wire: Vec<u8> = frames.iter().flat_map(|f| f.encode().into_bytes()).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut i = 0usize;
        while i < wire.len() {
            let n = rng.random_range(1..=23usize).min(wire.len() - i);
            for parsed in dec.push(&wire[i..i + n]) {
                got.push(parsed.expect("decode error on well-formed wire"));
            }
            i += n;
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(dec.pending_bytes(), 0);
    }

    /// Garbage between valid frames errors per line without derailing
    /// subsequent frames.
    #[test]
    fn garbage_lines_do_not_derail_the_decoder(
        f in frame(),
        junk in text(),
        seed in 0u64..1 << 32,
    ) {
        let mut wire = Vec::new();
        wire.extend_from_slice(format!("JUNK {junk}\n").as_bytes());
        wire.extend_from_slice(f.encode().as_bytes());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut dec = FrameDecoder::new();
        let mut results = Vec::new();
        let mut i = 0usize;
        while i < wire.len() {
            let n = rng.random_range(1..=7usize).min(wire.len() - i);
            results.extend(dec.push(&wire[i..i + n]));
            i += n;
        }
        prop_assert_eq!(results.len(), 2);
        prop_assert!(results[0].is_err());
        prop_assert_eq!(results[1].clone().unwrap(), f);
    }

    /// The full DELTA wire path on *real* edit scripts: a
    /// [`qcir::CircuitDelta`] encoded into a DELTA frame, split at
    /// arbitrary chunk boundaries through the [`FrameDecoder`],
    /// decoded, and applied — must equal applying the patches
    /// directly.
    #[test]
    fn real_deltas_survive_framing_and_chunking(
        seed in 0u64..1 << 32,
        len in 1usize..24,
        nops in 1usize..6,
        chunk_seed in 0u64..1 << 32,
    ) {
        let (base, ops) = random_patch_chain(seed, len, nops);
        let mut direct = base.clone();
        for op in &ops {
            direct.apply_patch(op);
        }
        let delta = qcir::CircuitDelta::from_ops(base.len(), ops);
        let frame = Frame::Delta {
            id: 1,
            seq: 1,
            cost: direct.len() as f64,
            epsilon: 0.0,
            iterations: 7,
            seconds: 0.5,
            delta: delta.encode(),
        };
        let wire = frame.encode().into_bytes();
        let mut rng = SmallRng::seed_from_u64(chunk_seed);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut i = 0usize;
        while i < wire.len() {
            let n = rng.random_range(1..=13usize).min(wire.len() - i);
            for parsed in dec.push(&wire[i..i + n]) {
                got.push(parsed.expect("well-formed DELTA frame"));
            }
            i += n;
        }
        prop_assert_eq!(got.len(), 1);
        let payload = match &got[0] {
            Frame::Delta { delta, .. } => delta.clone(),
            other => panic!("unexpected {other:?}"),
        };
        let decoded = qcir::CircuitDelta::decode(&payload).expect("decodable");
        let mut replayed = base.clone();
        decoded.apply(&mut replayed).expect("applicable");
        prop_assert_eq!(replayed, direct);
    }
}
