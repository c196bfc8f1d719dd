//! Property-pins the wire codec: `decode ∘ encode` is the identity over
//! arbitrary frames, malformed inputs — truncations, oversized length
//! prefixes, garbage bytes — are rejected with structured errors (no panic,
//! no allocation beyond the bytes present), `write_frame` emits exactly the
//! length prefix followed by the body, and `read_frame` decodes a stream the
//! same way however the reader splits it.

use std::io::{BufReader, Read};

use pochoir_core::grid::PochoirArray;
use pochoir_serve::protocol::{
    grid_to_bytes, read_frame, result_wire, submit_wire, write_frame, Deadline, ElemType,
    ErrorCode, Frame, FrameError, ReadError, RequestStatus, WireElem, MAX_FRAME,
};
use pochoir_stencils::traffic::{heat_grid, life_grid, wave_grid};
use pochoir_trace::{Rng, TraceApp, TRACE_APPS};
use proptest::prelude::*;

/// Detail-string alphabet crossing ASCII, escapes, and multi-byte UTF-8.
const DETAIL_CHARS: [char; 10] = ['a', 'Z', '0', ' ', '_', '"', '\\', '\n', 'é', '🜁'];

const ERROR_CODES: [ErrorCode; 14] = [
    ErrorCode::InvalidGeometry,
    ErrorCode::CompileFailed,
    ErrorCode::TenantPanicked,
    ErrorCode::Shed,
    ErrorCode::DeadlineUnmeetable,
    ErrorCode::RegistryPoisoned,
    ErrorCode::BadFrame,
    ErrorCode::UnknownOpcode,
    ErrorCode::Oversized,
    ErrorCode::UnknownSession,
    ErrorCode::UnknownRequest,
    ErrorCode::VersionMismatch,
    ErrorCode::NotReady,
    ErrorCode::BadPayload,
];

fn arb_string(rng: &mut Rng, max_len: u64) -> String {
    (0..rng.below(max_len))
        .map(|_| DETAIL_CHARS[rng.below(DETAIL_CHARS.len() as u64) as usize])
        .collect()
}

fn arb_deadline(rng: &mut Rng) -> Deadline {
    match rng.below(3) {
        0 => Deadline::None,
        1 => Deadline::Logical(rng.below(1 << 40)),
        _ => Deadline::WallMicros(rng.below(1 << 40)),
    }
}

fn arb_status(rng: &mut Rng) -> RequestStatus {
    match rng.below(3) {
        0 => RequestStatus::Pending,
        1 => RequestStatus::Done,
        _ => RequestStatus::Failed {
            code: ERROR_CODES[rng.below(ERROR_CODES.len() as u64) as usize],
            detail: arb_string(rng, 24),
        },
    }
}

/// Expands one proptest-drawn seed into an arbitrary valid frame (the vendored
/// proptest has no recursive/collection strategies; a seeded expansion covers
/// the same space reproducibly).
fn arb_frame(seed: u64) -> Frame {
    let mut rng = Rng::new(seed ^ 0x0DDC_0FFE_E5E5_AA55);
    match rng.below(15) {
        0 => Frame::Hello {
            version: rng.below(1 << 32) as u32,
        },
        1 => {
            let app = TRACE_APPS[rng.below(TRACE_APPS.len() as u64) as usize];
            Frame::Negotiate {
                app,
                geometry: (0..app.dims()).map(|_| rng.below(1 << 40)).collect(),
                chunk: rng.below(1 << 16) as i64,
            }
        }
        2 => {
            let elem = if rng.below(2) == 0 {
                ElemType::F64
            } else {
                ElemType::U8
            };
            Frame::Submit {
                session: rng.below(1 << 16) as u32,
                tenant: rng.below(1 << 20) as u32,
                t0: rng.below(1 << 10) as i64 - 16,
                t1: rng.below(1 << 10) as i64,
                weight: rng.below(1 << 8) as u32,
                deadline: arb_deadline(&mut rng),
                elem,
                grid: (0..rng.below(256)).map(|_| rng.below(256) as u8).collect(),
            }
        }
        3 => Frame::Poll {
            request: rng.below(1 << 48),
        },
        4 => Frame::Fetch {
            request: rng.below(1 << 48),
        },
        5 => Frame::Close,
        6 => Frame::Flush,
        7 => Frame::HelloAck {
            version: rng.below(1 << 32) as u32,
        },
        8 => Frame::SessionAck {
            session: rng.below(1 << 16) as u32,
            window: rng.below(1 << 16) as i64,
        },
        9 => Frame::Submitted {
            request: rng.below(1 << 48),
        },
        10 => Frame::Status {
            status: arb_status(&mut rng),
        },
        11 => Frame::Result {
            elem: ElemType::F64,
            t1: rng.below(1 << 16) as i64,
            slice_len: rng.below(1 << 20),
            payload: (0..rng.below(256)).map(|_| rng.below(256) as u8).collect(),
        },
        12 => Frame::Flushed {
            records: rng.below(1 << 32),
        },
        13 => Frame::Wait {
            request: rng.below(1 << 48),
            timeout_ms: if rng.below(4) == 0 {
                u64::MAX
            } else {
                rng.below(1 << 20)
            },
        },
        _ => Frame::Error {
            code: ERROR_CODES[rng.below(ERROR_CODES.len() as u64) as usize],
            detail: arb_string(&mut rng, 48),
        },
    }
}

/// A reader that hands out one byte per `read` call — the worst split a
/// socket can produce.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match (self.0.split_first(), buf.first_mut()) {
            (Some((&b, rest)), Some(slot)) => {
                *slot = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// `read_frame`'s outcome with the transport error flattened to its kind, so
/// two runs over differently split readers can be compared.
fn read_outcome(r: &mut impl Read) -> Result<(Frame, u64), String> {
    read_frame(r).map_err(|e| match e {
        ReadError::Io(e) => format!("io {:?}", e.kind()),
        other => other.to_string(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One write per frame: `write_frame` emits the little-endian body length
    /// followed by exactly `encode()`, and reports that many bytes.
    #[test]
    fn write_frame_is_length_prefix_then_body(seed in 0u64..u64::MAX) {
        let frame = arb_frame(seed);
        let body = frame.encode();
        let mut wire = Vec::new();
        let written = write_frame(&mut wire, &frame).expect("write to a Vec");
        prop_assert_eq!(written, wire.len() as u64);
        prop_assert_eq!(&wire[..4], &(body.len() as u32).to_le_bytes()[..]);
        prop_assert_eq!(&wire[4..], &body[..]);
    }

    /// A stream of frames reads back identically through a small `BufReader`
    /// and through a reader yielding one byte per `read`.
    #[test]
    fn read_frame_ignores_how_the_stream_is_split(seed in 0u64..u64::MAX, n in 1usize..6, cap in 1usize..64) {
        let frames: Vec<Frame> = (0..n as u64).map(|i| arb_frame(seed.wrapping_add(i))).collect();
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).expect("write to a Vec");
        }
        let mut buffered = BufReader::with_capacity(cap, &wire[..]);
        let mut trickle = OneByte(&wire);
        for f in &frames {
            let want = Ok((f.clone(), 4 + f.encode().len() as u64));
            prop_assert_eq!(read_outcome(&mut buffered), want.clone());
            prop_assert_eq!(read_outcome(&mut trickle), want);
        }
        prop_assert!(matches!(read_frame(&mut buffered), Err(ReadError::Eof)));
        prop_assert!(matches!(read_frame(&mut trickle), Err(ReadError::Eof)));
    }

    /// `read_frame` reads bulk bytes apart from the frame head; over a
    /// corrupted body it must still reach exactly the verdict of
    /// `Frame::decode` on the whole body.
    #[test]
    fn read_frame_agrees_with_decode_on_corrupt_bodies(seed in 0u64..u64::MAX, pos in 0usize..4096, flip in 0u8..255) {
        let mut body = arb_frame(seed).encode();
        let pos = pos % body.len();
        body[pos] ^= flip;
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        let via_stream = read_frame(&mut &wire[..]);
        match (Frame::decode(&body), via_stream) {
            (Ok(want), Ok((got, n))) => {
                prop_assert_eq!(got, want);
                prop_assert_eq!(n, wire.len() as u64);
            }
            (Err(want), Err(ReadError::Frame(got))) => prop_assert_eq!(got, want),
            (want, got) => prop_assert!(false, "decode {want:?} but read_frame {got:?}"),
        }
    }

    /// The round trip every connection relies on: decoding an encoded frame
    /// reproduces the value exactly.
    #[test]
    fn decode_encode_is_identity(seed in 0u64..u64::MAX) {
        let frame = arb_frame(seed);
        let decoded = Frame::decode(&frame.encode());
        prop_assert_eq!(decoded.as_ref(), Ok(&frame));
    }

    /// Every truncation of a valid body is a structured rejection: an `Err`
    /// (never a panic), except prefixes that happen to be shorter valid frames
    /// (impossible here: the codec rejects trailing bytes, so a strict prefix
    /// that decodes would contradict full-body decoding — assert that too).
    #[test]
    fn truncations_are_structured_rejections(seed in 0u64..u64::MAX, cut in 0usize..4096) {
        let body = arb_frame(seed).encode();
        prop_assume!(!body.is_empty());
        let cut = cut % body.len(); // strict prefix
        let result = Frame::decode(&body[..cut]);
        prop_assert!(result.is_err(), "strict prefix of len {cut} decoded: {result:?}");
    }

    /// Garbage never panics: either it happens to decode, or it fails with a
    /// structured error.  (The decoder validates every length field against
    /// the bytes present before allocating.)
    #[test]
    fn garbage_never_panics(seed in 0u64..u64::MAX, len in 0usize..512) {
        let mut rng = Rng::new(seed ^ 0xBAD_B17E_5EED_0001);
        let body: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let _ = Frame::decode(&body); // must return, not panic
    }

    /// Flipping any single byte of a valid frame still never panics.
    #[test]
    fn bitflips_never_panic(seed in 0u64..u64::MAX, pos in 0usize..4096, flip in 1u8..255) {
        let mut body = arb_frame(seed).encode();
        prop_assume!(!body.is_empty());
        let pos = pos % body.len();
        body[pos] ^= flip;
        let _ = Frame::decode(&body);
    }
}

/// A length prefix over `MAX_FRAME` is refused at the prefix — before the body
/// is read or its buffer allocated (reading on would interpret the rest of the
/// stream as garbage; allocating would let a 4-byte prefix balloon the
/// process).
#[test]
fn oversized_prefix_rejected_before_allocation() {
    // 4 GiB declared, 4 bytes present: read_frame must fail on the prefix
    // alone without touching the (absent) body.
    let len = (u32::MAX) as usize;
    let mut stream: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
    match read_frame(&mut stream) {
        Err(ReadError::Frame(FrameError::Oversized { len: got })) => assert_eq!(got, len),
        other => panic!("expected Oversized, got {other:?}"),
    }
    // The prefix bytes were consumed, nothing more was demanded.
    assert!(stream.is_empty());

    // Just past the limit is rejected; the limit itself is the body's job.
    let over = (MAX_FRAME as u32 + 1).to_le_bytes();
    let mut stream: &[u8] = &over;
    assert!(matches!(
        read_frame(&mut stream),
        Err(ReadError::Frame(FrameError::Oversized { .. }))
    ));
}

/// EOF at a frame boundary is a clean close; EOF inside a prefix or body is a
/// transport error — the distinction the server uses to tell a polite
/// disconnect from a client that died mid-submit.
#[test]
fn eof_positions_are_distinguished() {
    let mut empty: &[u8] = &[];
    assert!(matches!(read_frame(&mut empty), Err(ReadError::Eof)));

    let mut partial_prefix: &[u8] = &[7, 0];
    assert!(matches!(
        read_frame(&mut partial_prefix),
        Err(ReadError::Io(_))
    ));

    let body = Frame::Flush.encode();
    let mut framed = (body.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&body);
    framed.pop(); // lose the last body byte
    let mut stream: &[u8] = &framed;
    assert!(matches!(read_frame(&mut stream), Err(ReadError::Io(_))));
}

/// `submit_wire` and `result_wire` serialize grid slices straight into the
/// wire buffer; the bytes must equal the frame built the long way (dense
/// slices copied out first), including for grids whose rows are padded in
/// storage (48 `u8` cells pad to 64; 20 `f64` cells pad to 24).
#[test]
fn grid_wire_builders_match_the_frame_encoding() {
    fn check<T: WireElem + Default, const D: usize>(grid: &PochoirArray<T, D>) {
        let head = |grid: Vec<u8>| Frame::Submit {
            session: 3,
            tenant: 7,
            t0: 0,
            t1: 5,
            weight: 2,
            deadline: Deadline::Logical(9),
            elem: T::ELEM,
            grid,
        };
        assert_eq!(
            submit_wire(&head(Vec::new()), grid),
            head(grid_to_bytes(grid)).to_wire()
        );
        let t1 = 5;
        let mut payload = Vec::new();
        for t in [t1 - 1, t1] {
            for v in grid.snapshot(t) {
                v.put(&mut payload);
            }
        }
        let result = Frame::Result {
            elem: T::ELEM,
            t1,
            slice_len: grid.sizes().iter().product::<usize>() as u64,
            payload,
        };
        assert_eq!(result_wire(grid, t1), result.to_wire());
    }
    check(&life_grid([30, 48], 4));
    check(&heat_grid([12, 20], 5));
    check(&wave_grid([6, 5, 20], 6));
}

/// Trailing bytes after a decoded frame are rejected — a frame is its body,
/// exactly.
#[test]
fn trailing_bytes_rejected() {
    let mut body = Frame::Close.encode();
    body.push(0);
    assert!(matches!(
        Frame::decode(&body),
        Err(FrameError::TrailingBytes { extra: 1 })
    ));
}

/// The geometry arity check fires at decode time: a Negotiate whose extent
/// count disagrees with its app never reaches the server logic.
#[test]
fn negotiate_arity_checked_at_decode() {
    let good = Frame::Negotiate {
        app: TraceApp::Wave3d,
        geometry: vec![8, 8, 8],
        chunk: 4,
    };
    let mut body = good.encode();
    // Patch the declared dimension count (opcode, app tag, then dims byte).
    body[2] = 2;
    assert!(matches!(
        Frame::decode(&body),
        Err(FrameError::BadPayload(_))
    ));
}
