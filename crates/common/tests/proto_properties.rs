//! Property tests for the wire-protocol frame codec. The oracle is the
//! ground truth: the `(opcode, id, body)` tuples a stream was encoded
//! from. [`FrameDecoder`] must give them back under every split of every
//! frame at every byte boundary, whether bytes are fed to it or it reads
//! them through read timeouts at arbitrary points, and it must reject
//! every corrupted byte.

use std::collections::VecDeque;
use std::io::Read;

use miodb_common::proto::{self, FrameDecoder};
use miodb_common::Error;
use proptest::prelude::*;

type Tuple = (u8, u32, Vec<u8>);

/// An arbitrary wire frame: opcode byte, request id, raw body. The codec
/// is payload-agnostic, so property coverage does not need well-formed
/// `Request`/`Response` bodies — those have their own round-trip tests.
fn frame_strategy() -> impl Strategy<Value = Tuple> {
    (
        any::<u8>(),
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..200),
    )
}

/// Encodes `frames` the way every peer does (via `write_frame`) into one
/// contiguous byte stream, returning it with each frame's end offset.
fn encode_stream(frames: &[Tuple]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for (op, id, body) in frames {
        proto::write_frame(&mut bytes, *op, *id, body).unwrap();
        ends.push(bytes.len());
    }
    (bytes, ends)
}

fn tuples(frames: &[proto::Frame]) -> Vec<Tuple> {
    frames
        .iter()
        .map(|f| (f.opcode, f.id, f.body.clone()))
        .collect()
}

/// Drains every currently-complete frame from the decoder.
fn drain(dec: &mut FrameDecoder, out: &mut Vec<proto::Frame>) {
    while let Some(f) = dec.next_frame().unwrap() {
        out.push(f);
    }
}

/// Sorted cut offsets into a stream of `len` bytes.
fn offsets(cuts: &[u16], len: usize) -> Vec<usize> {
    let mut offsets: Vec<usize> = cuts.iter().map(|c| *c as usize % (len + 1)).collect();
    offsets.sort_unstable();
    offsets
}

/// A blocking transport that delivers a stream in pieces, with a read
/// timeout between consecutive pieces, then EOF.
struct Stalling {
    pieces: VecDeque<Vec<u8>>,
    stall: bool,
}

impl Stalling {
    fn new(bytes: &[u8], offsets: &[usize]) -> Stalling {
        let mut pieces = VecDeque::new();
        let mut at = 0;
        for &cut in offsets.iter().chain([&bytes.len()]) {
            if cut > at {
                pieces.push_back(bytes[at..cut].to_vec());
                at = cut;
            }
        }
        Stalling {
            pieces,
            stall: false,
        }
    }
}

impl Read for Stalling {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if std::mem::take(&mut self.stall) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let Some(mut piece) = self.pieces.pop_front() else {
            return Ok(0);
        };
        let n = piece.len().min(out.len());
        out[..n].copy_from_slice(&piece[..n]);
        if n < piece.len() {
            self.pieces.push_front(piece.split_off(n));
        } else {
            self.stall = !self.pieces.is_empty();
        }
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Split the encoded stream at *every* byte boundary (two feeds per
    /// boundary) — partial length prefixes, split headers, split bodies,
    /// split CRCs — and require exactly the frames it was encoded from,
    /// with nothing left buffered.
    #[test]
    fn every_split_point_decodes_identically(
        frames in proptest::collection::vec(frame_strategy(), 1..4),
    ) {
        let (bytes, _) = encode_stream(&frames);
        for split in 0..=bytes.len() {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            dec.feed(&bytes[..split]);
            drain(&mut dec, &mut got);
            dec.feed(&bytes[split..]);
            drain(&mut dec, &mut got);
            prop_assert_eq!(tuples(&got), frames.clone(), "split at byte {}", split);
            prop_assert_eq!(dec.buffered(), 0, "residual after split at {}", split);
        }
    }

    /// Arbitrary multi-chunk deliveries (including empty chunks) decode to
    /// the frames whose bytes arrived whole; the bytes of a truncated last
    /// frame stay buffered.
    #[test]
    fn arbitrary_chunking_matches_blocking(
        frames in proptest::collection::vec(frame_strategy(), 1..5),
        cuts in proptest::collection::vec(any::<u16>(), 0..8),
        truncate in any::<u16>(),
    ) {
        let (mut bytes, ends) = encode_stream(&frames);
        // Optionally truncate mid-frame: the tail must stay buffered.
        let keep = bytes.len() - (truncate as usize % bytes.len().min(40));
        bytes.truncate(keep);
        let whole = ends.iter().filter(|&&end| end <= keep).count();
        let mut offsets = offsets(&cuts, bytes.len());
        offsets.insert(0, 0);
        offsets.push(bytes.len());
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for w in offsets.windows(2) {
            dec.feed(&bytes[w[0]..w[1]]);
            drain(&mut dec, &mut got);
        }
        prop_assert_eq!(tuples(&got), frames[..whole].to_vec());
        prop_assert_eq!(dec.buffered(), keep - ends[..whole].last().copied().unwrap_or(0));
    }

    /// The blocking variant: `read_frame` pulls the same stream through a
    /// transport that times out at arbitrary cut points. Every timeout
    /// surfaces as `Error::Io`, no byte is lost, the frames come back as
    /// encoded, and the end is a clean EOF — or, when the stream was cut
    /// mid-frame, `Corruption`.
    #[test]
    fn arbitrary_chunking_through_read_timeouts(
        frames in proptest::collection::vec(frame_strategy(), 1..5),
        cuts in proptest::collection::vec(any::<u16>(), 0..8),
        truncate in any::<u16>(),
    ) {
        let (mut bytes, ends) = encode_stream(&frames);
        let keep = bytes.len() - (truncate as usize % bytes.len().min(40));
        bytes.truncate(keep);
        let whole = ends.iter().filter(|&&end| end <= keep).count();
        let mut r = Stalling::new(&bytes, &offsets(&cuts, bytes.len()));
        let stalls = r.pieces.len().saturating_sub(1);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut timeouts = 0;
        let end = loop {
            match dec.read_frame(&mut r) {
                Ok(Some(f)) => got.push(f),
                Err(Error::Io(e)) if proto::is_timeout(&e) => timeouts += 1,
                other => break other,
            }
        };
        prop_assert_eq!(timeouts, stalls);
        prop_assert_eq!(tuples(&got), frames[..whole].to_vec());
        if keep == ends[..whole].last().copied().unwrap_or(0) {
            prop_assert!(matches!(end, Ok(None)), "{:?}", end);
        } else {
            prop_assert!(matches!(end, Err(Error::Corruption(_))), "{:?}", end);
        }
    }

    /// Flipping any byte after the length prefix of a frame (header, body
    /// or CRC) must be rejected: everything there is under the CRC, and
    /// the CRC field itself then mismatches the payload.
    #[test]
    fn corrupt_byte_rejected_by_both_paths(
        frame in frame_strategy(),
        at in any::<u16>(),
        flip in any::<u8>(),
    ) {
        let (mut bytes, _) = encode_stream(&[frame]);
        let pos = 4 + (at as usize) % (bytes.len() - 4);
        bytes[pos] ^= flip | 1; // always a real flip
        let mut dec = FrameDecoder::new();
        prop_assert!(dec.read_frame(&mut bytes.as_slice()).is_err(), "read path accepted corrupt byte at {}", pos);
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        prop_assert!(dec.next_frame().is_err(), "fed path accepted corrupt byte at {}", pos);
    }
}
