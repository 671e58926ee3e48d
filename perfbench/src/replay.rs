//! Standalone probes run after the traced loop: executor floors, and
//! kernel and codec calls replayed at the shapes the traced run saw.
//!
//! Every replayed decode is compared with its input; a mismatch makes the
//! run incorrect.

use std::time::Instant;

use bytes::Bytes;
use ca_codec::{Decode, Encode};
use ca_crypto::{sha256, MerkleTree};
use ca_engine::{Envelope, EnvelopeRef, SessionFrame, SessionId};
use ca_erasure::{ReedSolomon, Share};
use ca_net::{Comm, PartyId, Sim};
use ca_runtime::Frame;

use crate::quantile;

/// Minimum wall time one timed replay loop runs for.
const MIN_LOOP_S: f64 = 0.02;

/// Runs `op` until [`MIN_LOOP_S`] has passed (at least twice) and returns
/// seconds per call.
fn per_call(mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 2 || start.elapsed().as_secs_f64() < MIN_LOOP_S {
        op();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / calls as f64
}

/// Executor cost with no protocol work at `n` parties: seconds per empty
/// round, and seconds per 8-byte message beyond that.
#[derive(Debug, Clone, Copy)]
pub struct Floors {
    pub round_s: f64,
    pub msg_s: f64,
}

/// Times two empty protocols through `Sim::run`: rounds only, and
/// all-to-all 8-byte messages every round. Medians of three runs each.
pub fn executor_floors(n: usize) -> Floors {
    let rounds = (200_000 / (n * n)).clamp(200, 5_000) as u64;
    let time = |with_msgs: bool| {
        let start = Instant::now();
        Sim::new(n).run(|ctx: &mut dyn Comm, _| {
            let msg = Bytes::from_static(&[0u8; 8]);
            for _ in 0..rounds {
                if with_msgs {
                    for p in 0..n {
                        ctx.send_bytes(PartyId(p), msg.clone());
                    }
                }
                ctx.next_round();
            }
        });
        start.elapsed().as_secs_f64()
    };
    let bare = quantile(&[time(false), time(false), time(false)], 0.5);
    let full = quantile(&[time(true), time(true), time(true)], 0.5);
    Floors {
        round_s: bare / rounds as f64,
        msg_s: (full - bare).max(0.0) / (rounds * (n * n) as u64) as f64,
    }
}

/// Kernel figures at one `lba+` call shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernels {
    pub encode_mbps: f64,
    pub decode_mbps: f64,
    pub merkle_build_us: f64,
    pub merkle_verify_us: f64,
    pub sha256_mbps: f64,
    /// One party's kernel work for one honest `lba+` call: code set-up,
    /// encode, accumulate, verify a codeword from every party twice,
    /// decode from the first k codewords, re-encode and re-accumulate (the
    /// calls `lba_plus` makes).
    pub lba_call_s: f64,
}

/// Payload bytes of an `lba+` value whose dispersal message
/// `(index, share, witness)` was `msg_bytes` long, at `(n, k)`.
pub fn payload_for_share_msg(n: usize, k: usize, msg_bytes: usize) -> usize {
    let leaves: Vec<[u8; 1]> = vec![[0]; n];
    let witness = MerkleTree::build(&leaves).witness(n - 1).encoded_len();
    let index = ((n - 1) as u32).encoded_len();
    let share = msg_bytes.saturating_sub(witness + index);
    // A share is a varint symbol count and two bytes per symbol (stripe);
    // the stripes carry 2k bytes each of the varint-framed value.
    let varint = |x: usize| ca_codec::Writer::varint_len(x as u64);
    let stripes = (0..=share / 2)
        .rev()
        .find(|s| varint(*s) + 2 * s <= share)
        .unwrap_or(0);
    let framed = 2 * k * stripes;
    framed.saturating_sub(varint(framed)).max(1)
}

/// Replays the kernels of one `lba+` call at `(n, k)` on a `payload_len`
/// byte value. Returns `None` if a decode or verification fails.
pub fn kernels(n: usize, k: usize, payload_len: usize, seed: u64) -> Option<Kernels> {
    let rs = ReedSolomon::new(n, k).ok()?;
    let mut x = seed | 1;
    let payload: Vec<u8> = (0..payload_len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect();
    let shares = rs.encode(&payload);
    let leaves: Vec<Vec<u8>> = shares.iter().map(Encode::encode_to_vec).collect();
    let tree = MerkleTree::build(&leaves);
    let root = tree.root();
    let witnesses = tree.witnesses();
    // `decode_mbps` decodes from the last k shares, so parity symbols are
    // combined (the path a missing codeword takes).
    let picked: Vec<(usize, Share)> = (n - k..n).map(|j| (j, shares[j].clone())).collect();
    if rs.decode(&picked).ok()? != payload
        || !(0..n).all(|j| MerkleTree::verify(root, j, &leaves[j], &witnesses[j]))
    {
        return None;
    }
    let mbps = |s: f64| payload_len as f64 / s / 1e6;
    let mut ok = true;
    let lba_call_s = per_call(|| {
        let rs = ReedSolomon::new(n, k).expect("valid (n, k)");
        let shares = rs.encode(&payload);
        let leaves: Vec<Vec<u8>> = shares.iter().map(Encode::encode_to_vec).collect();
        let tree = MerkleTree::build(&leaves);
        let witnesses = tree.witnesses();
        for _ in 0..2 {
            for j in 0..n {
                ok &= MerkleTree::verify(tree.root(), j, &leaves[j], &witnesses[j]);
            }
        }
        // With every codeword verified, decoding picks the first k.
        let picked: Vec<(usize, Share)> = (0..k).map(|j| (j, shares[j].clone())).collect();
        let decoded = rs.decode(&picked).unwrap_or_default();
        ok &= decoded == payload;
        let again: Vec<Vec<u8>> = rs
            .encode(&decoded)
            .iter()
            .map(Encode::encode_to_vec)
            .collect();
        ok &= MerkleTree::build(&again).root() == tree.root();
    });
    let out = Kernels {
        encode_mbps: mbps(per_call(|| {
            std::hint::black_box(rs.encode(std::hint::black_box(&payload)));
        })),
        decode_mbps: mbps(per_call(|| {
            ok &= rs
                .decode(std::hint::black_box(&picked))
                .is_ok_and(|d| d == payload);
        })),
        merkle_build_us: 1e6
            * per_call(|| {
                std::hint::black_box(MerkleTree::build(std::hint::black_box(&leaves)));
            }),
        merkle_verify_us: 1e6
            * per_call(|| {
                ok &= MerkleTree::verify(root, n - 1, &leaves[n - 1], &witnesses[n - 1]);
            }),
        sha256_mbps: mbps(per_call(|| {
            std::hint::black_box(sha256(std::hint::black_box(&payload)));
        })),
        lba_call_s,
    };
    ok.then_some(out)
}

/// Codec round-trip throughput in payload MB/s: an [`Envelope`] of
/// `frames` session frames of `msg_bytes` each, and one `Frame::Msg` of
/// `msg_bytes`. `None` if a decode differs from what was encoded.
pub fn codec(msg_bytes: usize, frames: usize) -> Option<(f64, f64)> {
    let payload = Bytes::from(vec![0xA5u8; msg_bytes.max(1)]);
    let envelope = Envelope {
        frames: (0..frames.max(1) as u64)
            .map(|s| SessionFrame {
                session: SessionId(s),
                payload: payload.clone(),
            })
            .collect(),
    };
    let frame = Frame::Msg {
        round: 1_000,
        payload: payload.to_vec(),
    };
    let mut ok = true;
    let envelope_s = per_call(|| {
        let wire = envelope.encode_to_vec();
        ok &= EnvelopeRef::decode_from_slice(&wire).is_ok_and(|e| {
            e.frames.len() == envelope.frames.len()
                && e.frames.iter().all(|f| f.payload == &payload[..])
        });
    });
    let frame_s = per_call(|| {
        let wire = frame.encode_to_vec();
        ok &= Frame::decode_from_slice(&wire).is_ok_and(|f| f == frame);
    });
    let bytes = |count: usize| (count * payload.len()) as f64 / 1e6;
    ok.then(|| {
        (
            bytes(envelope.frames.len()) / envelope_s,
            bytes(1) / frame_s,
        )
    })
}
