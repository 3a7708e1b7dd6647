//! Adversarial wire-protocol tests: frames that are truncated, carry
//! oversized length fields, have bits flipped, or are plain garbage
//! must always come back as typed decode errors — never a panic, hang,
//! or huge speculative allocation.
//!
//! Two layers: deterministic sweeps driven by a SplitMix64 PRNG (always
//! run, reproducible), plus `numarck-prop` generative versions in
//! `mod properties` following the workspace convention.

use std::io;

use numarck_checkpoint::VariableSet;
use numarck_obs::{HistogramSummary, Snapshot};
use numarck_serve::wire::{
    opcode, read_frame, write_frame, Frame, Request, Response, SessionStat, StatsReply,
    HEADER_LEN, MAX_PAYLOAD,
};

/// SplitMix64: deterministic stream for the corruption sweeps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

fn sample_vars() -> VariableSet {
    let mut vars = VariableSet::new();
    vars.insert("u".into(), (0..32).map(|i| i as f64 * 0.25).collect());
    vars
}

/// A corpus of encoded frames covering every request and response
/// opcode with non-trivial payloads.
fn corpus() -> Vec<Vec<u8>> {
    let requests = vec![
        Request::OpenSession { name: "sess".into() },
        Request::PutIterations { session: 1, iterations: vec![(0, sample_vars())] },
        Request::Restart { session: 1, at_or_before: 9 },
        Request::Scrub { session: 1, repair: true },
        Request::Stats,
        Request::CloseSession { session: 1 },
        Request::Shutdown,
    ];
    let responses = vec![
        Response::SessionOpened { session: 4 },
        Response::RestartData {
            achieved: 3,
            base: 0,
            deltas_applied: 3,
            lost: 0,
            vars: sample_vars(),
        },
        Response::StatsData(Box::new(sample_stats())),
    ];
    let mut frames = Vec::new();
    for req in requests {
        let mut buf = Vec::new();
        write_frame(&mut buf, req.opcode(), 1, &req.payload()).unwrap();
        frames.push(buf);
    }
    for resp in responses {
        let mut buf = Vec::new();
        write_frame(&mut buf, resp.opcode(), 1, &resp.payload()).unwrap();
        frames.push(buf);
    }
    frames
}

/// A stats reply with a session and an entry in each named list.
fn sample_stats() -> StatsReply {
    let mut stats = StatsReply {
        sessions: vec![SessionStat { id: 1, name: "s".into(), files: 3, latest_restartable: Some(2) }],
        ..StatsReply::default()
    };
    stats.set_metrics(Snapshot {
        counters: vec![("nsrv_accepted_total".into(), 2), ("nsrv_served_total".into(), 9)],
        gauges: vec![("nsrv_queue_depth".into(), 1)],
        histograms: vec![("nsrv_request_put_ns".into(), HistogramSummary::default())],
        events: Vec::new(),
    });
    stats
}

/// The stats frames of the corpus.
fn stats_frames() -> Vec<Vec<u8>> {
    corpus().into_iter().filter(|f| f[6] == opcode::STATS_REPLY).collect()
}

/// Full decode pipeline on raw bytes; the return value only matters in
/// that producing it must not panic.
fn try_decode(bytes: &[u8]) -> io::Result<Frame> {
    let frame = read_frame(&mut &bytes[..])?;
    // Try both directions; a frame is at most one of these, but the
    // robustness contract is per-decoder.
    let _ = Request::from_frame(&frame);
    let _ = Response::from_frame(&frame);
    Ok(frame)
}

/// Every prefix of every corpus frame fails with a typed error.
#[test]
fn truncated_frames_always_error() {
    for frame in corpus() {
        for cut in 0..frame.len() {
            assert!(
                read_frame(&mut &frame[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not decode",
                frame.len()
            );
        }
    }
}

/// Flipping any single bit of a frame is caught (the CRC covers every
/// byte before it, and a flipped CRC no longer matches).
#[test]
fn single_bit_flips_are_always_caught() {
    for frame in corpus().into_iter().take(4).chain(stats_frames()) {
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    try_decode(&bad).is_err(),
                    "flip bit {bit} of byte {byte}/{} survived",
                    frame.len()
                );
            }
        }
    }
}

/// Length fields beyond [`MAX_PAYLOAD`] are rejected before any
/// allocation; lengths within bounds but beyond the actual bytes fail
/// as truncation.
#[test]
fn oversized_and_lying_length_fields_error() {
    let mut rng = Rng(7);
    for _ in 0..64 {
        let mut frame = corpus()[0].clone();
        let lie = match rng.next() % 3 {
            0 => MAX_PAYLOAD + 1 + (rng.next() as u32 % 1024),
            1 => u32::MAX - (rng.next() as u32 % 16),
            _ => (frame.len() as u32) + 1 + (rng.next() as u32 % 4096),
        };
        frame[16..20].copy_from_slice(&lie.to_le_bytes());
        assert!(try_decode(&frame).is_err(), "length lie {lie} decoded");
    }
}

/// A structurally valid frame whose *payload* declares a huge element
/// count must fail cheaply (clamped pre-allocation) rather than
/// attempt a multi-gigabyte `Vec::with_capacity`.
#[test]
fn huge_declared_counts_fail_without_allocating() {
    // PutIterations: session id, then count = u32::MAX, then nothing.
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    let put = Request::PutIterations { session: 1, iterations: vec![] };
    let mut buf = Vec::new();
    write_frame(&mut buf, put.opcode(), 1, &payload).unwrap();
    let frame = read_frame(&mut buf.as_slice()).unwrap();
    assert!(Request::from_frame(&frame).is_err());

    // PutDone with a lying count behaves the same on the response side.
    let mut payload = Vec::new();
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    let done = Response::PutDone { outcomes: vec![] };
    let mut buf = Vec::new();
    write_frame(&mut buf, done.opcode(), 1, &payload).unwrap();
    let frame = read_frame(&mut buf.as_slice()).unwrap();
    assert!(Response::from_frame(&frame).is_err());
}

/// Random garbage never panics the decoder.
#[test]
fn random_garbage_never_panics() {
    let mut rng = Rng(42);
    for round in 0..256 {
        let len = (rng.next() % 96) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let _ = try_decode(&bytes);
        // Same bytes under a valid header shell: random payloads against
        // every known opcode.
        let mut framed = Vec::new();
        let opcode = [0x01, 0x02, 0x03, 0x04, 0x05, 0x81, 0x82, 0x83, 0x86, 0x89, 0xEE]
            [round % 11];
        write_frame(&mut framed, opcode, rng.next(), &bytes).unwrap();
        let frame = read_frame(&mut framed.as_slice()).unwrap();
        let _ = Request::from_frame(&frame);
        let _ = Response::from_frame(&frame);
    }
}

/// The corpus's stats frame decodes, its base fields read off its
/// counters.
#[test]
fn the_stats_reply_decodes() {
    let frames = stats_frames();
    assert_eq!(frames.len(), 1);
    let frame = read_frame(&mut frames[0].as_slice()).unwrap();
    let Ok(Response::StatsData(s)) = Response::from_frame(&frame) else {
        panic!("stats frame {:#x} must decode", frame.opcode());
    };
    assert_eq!(*s, sample_stats());
    assert_eq!((s.accepted, s.served), (2, 9));
    assert_eq!(s.gauge("nsrv_queue_depth"), 1);
    assert_eq!(s.latencies.len(), 1);
}

/// Header-length constant sanity: every corpus frame is at least a
/// header + CRC long, and decodes back to itself.
#[test]
fn corpus_roundtrips_cleanly() {
    for frame in corpus() {
        assert!(frame.len() >= HEADER_LEN + 4);
        assert!(try_decode(&frame).is_ok());
    }
}

mod properties {
    use super::*;
    use numarck_prop::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Arbitrary byte strings never panic the frame reader or the
        /// payload decoders.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in numarck_prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = try_decode(&bytes);
        }

        /// Any single corruption (index, bit) of a valid frame errors.
        #[test]
        fn any_bit_flip_errors(seed in any::<u64>(), byte_sel in any::<usize>(), bit in 0usize..8) {
            let frames = corpus();
            let frame = &frames[(seed % frames.len() as u64) as usize];
            let mut bad = frame.clone();
            let idx = byte_sel % bad.len();
            bad[idx] ^= 1 << bit;
            prop_assert!(try_decode(&bad).is_err());
        }

        /// Any truncation of a valid frame errors.
        #[test]
        fn any_truncation_errors(seed in any::<u64>(), cut_sel in any::<usize>()) {
            let frames = corpus();
            let frame = &frames[(seed % frames.len() as u64) as usize];
            let cut = cut_sel % frame.len();
            prop_assert!(read_frame(&mut &frame[..cut]).is_err());
        }
    }
}
