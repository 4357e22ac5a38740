//! Chunk framing for checkpointed shipment.
//!
//! A serialized cross-edge message is sliced into chunks; each chunk is
//! framed with a header naming the *shipment* it belongs to — the
//! session, the per-session shipment sequence number, the chunk index and
//! the chunk count — plus the payload length and a 64-bit checksum. The
//! checksum covers the header fields *and* the payload, so damage
//! anywhere in the frame (including a flipped digit in the index) fails
//! verification: a corrupted frame can never be accepted into the wrong
//! slot of a reassembly ledger.
//!
//! The checksum is the tree's word sum ([`xdx_relational::sum`]): each
//! header field is folded in as one word, then the payload as
//! little-endian words, and only the last few bytes take FNV-1a's byte
//! step. Every step is a bijection of the state, so damage confined to
//! one word (or one tail byte) always changes the sum; the unit tests
//! check every two-bit flip, every burst of up to 16 bytes and every
//! single-byte change to a header field exhaustively. The sum is 16 hex
//! digits in the header.
//!
//! The frame identity travels with the bytes, not the connection. That is
//! what makes resumable shipping possible: a receiver can file any
//! verified frame — late, duplicated, reordered, or re-shipped by a
//! resumed session — under its (session, shipment, index) key and drop
//! exact repeats idempotently.
//!
//! There is one parser, [`ChunkView::parse`]: the view it returns borrows
//! its payload from the received bytes, so a receiver that copies the
//! payload straight into its reassembly buffer touches each byte once.
//! [`ChunkFrame`] is the owned form ([`ChunkFrame::decode`] copies the
//! view's payload out).

use std::io::Write as _;
use xdx_relational::sum::{mix_bytes, mix_word, SUM_BASIS};

/// Frame header magic.
pub const CHUNK_MAGIC: &str = "XDXCHUNK";

/// One verified chunk frame: the shipment coordinates plus the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFrame {
    /// Session the shipment belongs to.
    pub session: u64,
    /// Per-session shipment sequence number (0-based ship() call order).
    pub shipment: u64,
    /// Chunk index within the shipment (0-based).
    pub index: usize,
    /// Number of chunks in the shipment.
    pub total: usize,
    /// The chunk's payload bytes.
    pub payload: Vec<u8>,
}

impl ChunkFrame {
    /// Checksum input: every header field plus the payload, so no single
    /// field can be damaged without detection. The five fields are one
    /// word each, the payload is little-endian `u64` words, and the tail
    /// of fewer than eight bytes takes FNV-1a's byte step.
    fn checksum(session: u64, shipment: u64, index: usize, total: usize, payload: &[u8]) -> u64 {
        let header = [
            session,
            shipment,
            index as u64,
            total as u64,
            payload.len() as u64,
        ];
        mix_bytes(header.into_iter().fold(SUM_BASIS, mix_word), payload)
    }

    /// Encodes the frame:
    /// `XDXCHUNK <session> <shipment> <index> <total> <len> <sum:016x>\n`
    /// followed by the raw payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        frame_chunk(
            self.session,
            self.shipment,
            self.index,
            self.total,
            &self.payload,
        )
    }

    /// Parses and verifies a received frame into an owned one: a
    /// [`ChunkView::parse`] whose payload is copied out.
    pub fn decode(frame: &[u8]) -> Option<ChunkFrame> {
        ChunkView::parse(frame).map(|view| ChunkFrame {
            session: view.session,
            shipment: view.shipment,
            index: view.index,
            total: view.total,
            payload: view.payload.to_vec(),
        })
    }
}

/// One verified chunk frame whose payload borrows the received bytes: the
/// receiver files it without copying the chunk out first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkView<'a> {
    /// Session the shipment belongs to.
    pub session: u64,
    /// Per-session shipment sequence number (0-based ship() call order).
    pub shipment: u64,
    /// Chunk index within the shipment (0-based).
    pub index: usize,
    /// Number of chunks in the shipment.
    pub total: usize,
    /// The chunk's payload bytes, inside the received frame.
    pub payload: &'a [u8],
}

impl<'a> ChunkView<'a> {
    /// Parses and verifies a received frame. Returns the view only when
    /// the header is intact, the length matches, the index is in range
    /// and the checksum (headers + payload) verifies — any byte damage
    /// anywhere in the frame fails it.
    pub fn parse(frame: &'a [u8]) -> Option<ChunkView<'a>> {
        let newline = frame.iter().position(|&b| b == b'\n')?;
        let header = std::str::from_utf8(&frame[..newline]).ok()?;
        let mut parts = header.split(' ');
        if parts.next()? != CHUNK_MAGIC {
            return None;
        }
        let session: u64 = parts.next()?.parse().ok()?;
        let shipment: u64 = parts.next()?.parse().ok()?;
        let index: usize = parts.next()?.parse().ok()?;
        let total: usize = parts.next()?.parse().ok()?;
        let len: usize = parts.next()?.parse().ok()?;
        let sum = parse_sum(parts.next()?)?;
        if parts.next().is_some() {
            return None;
        }
        let payload = &frame[newline + 1..];
        if payload.len() != len
            || index >= total
            || ChunkFrame::checksum(session, shipment, index, total, payload) != sum
        {
            return None;
        }
        Some(ChunkView {
            session,
            shipment,
            index,
            total,
            payload,
        })
    }
}

/// A frame's sum as [`frame_chunk_into`] writes it: exactly 16 lowercase
/// hex digits, so each sum has one spelling and a flipped letter case
/// fails the frame.
fn parse_sum(hex: &str) -> Option<u64> {
    Some(hex)
        .filter(|h| h.len() == 16 && h.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        .and_then(|h| u64::from_str_radix(h, 16).ok())
}

/// Frames one chunk without building a [`ChunkFrame`] first.
pub fn frame_chunk(
    session: u64,
    shipment: u64,
    index: usize,
    total: usize,
    payload: &[u8],
) -> Vec<u8> {
    let mut frame = Vec::new();
    frame_chunk_into(&mut frame, session, shipment, index, total, payload);
    frame
}

/// Frames one chunk into `buf`, clearing it first. A shipper reuses one
/// buffer across every chunk of every shipment, so the steady-state hot
/// path performs no frame allocation at all — the buffer grows to the
/// largest frame seen and stays there.
pub fn frame_chunk_into(
    buf: &mut Vec<u8>,
    session: u64,
    shipment: u64,
    index: usize,
    total: usize,
    payload: &[u8],
) {
    buf.clear();
    buf.reserve(64 + payload.len());
    writeln!(
        buf,
        "{CHUNK_MAGIC} {session} {shipment} {index} {total} {len} {sum:016x}",
        len = payload.len(),
        sum = ChunkFrame::checksum(session, shipment, index, total, payload),
    )
    .expect("writing to a Vec cannot fail");
    buf.extend_from_slice(payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let payload = b"hello, fragmented world";
        let frame = frame_chunk(9, 4, 3, 7, payload);
        let back = ChunkFrame::decode(&frame).unwrap();
        assert_eq!(back.session, 9);
        assert_eq!(back.shipment, 4);
        assert_eq!((back.index, back.total), (3, 7));
        assert_eq!(back.payload, payload);
        assert_eq!(back.encode(), frame);
        // Empty payloads frame too.
        let empty = ChunkFrame::decode(&frame_chunk(1, 0, 0, 1, b"")).unwrap();
        assert!(empty.payload.is_empty());
    }

    #[test]
    fn a_view_borrows_the_payload_in_place() {
        let frame = frame_chunk(9, 4, 3, 7, b"in place");
        let view = ChunkView::parse(&frame).unwrap();
        assert_eq!((view.session, view.shipment, view.index), (9, 4, 3));
        assert!(std::ptr::eq(
            view.payload.as_ptr(),
            frame[frame.len() - 8..].as_ptr()
        ));
        assert_eq!(ChunkFrame::decode(&frame).unwrap().payload, view.payload);
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let frame = frame_chunk(2, 1, 0, 2, b"sensitive payload");
        for i in 0..frame.len() {
            let mut damaged = frame.clone();
            damaged[i] ^= 0x40;
            assert!(
                ChunkFrame::decode(&damaged).is_none(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn header_damage_cannot_relocate_a_chunk() {
        // A frame for index 1 whose header digit is rewritten to index 2
        // must not verify: the checksum covers the header fields.
        let frame = frame_chunk(1, 0, 1, 3, b"payload");
        let text = String::from_utf8_lossy(&frame).into_owned();
        let forged = text.replacen("XDXCHUNK 1 0 1 3", "XDXCHUNK 1 0 2 3", 1);
        assert!(ChunkFrame::decode(forged.as_bytes()).is_none());
    }

    #[test]
    fn out_of_range_index_rejected() {
        let frame = frame_chunk(1, 0, 5, 5, b"x");
        assert!(ChunkFrame::decode(&frame).is_none());
    }

    #[test]
    fn frame_chunk_into_reuses_one_buffer() {
        let mut buf = Vec::new();
        frame_chunk_into(&mut buf, 1, 0, 0, 2, b"first, longer payload");
        assert_eq!(buf, frame_chunk(1, 0, 0, 2, b"first, longer payload"));
        let grown = buf.capacity();
        frame_chunk_into(&mut buf, 1, 0, 1, 2, b"tiny");
        assert_eq!(buf, frame_chunk(1, 0, 1, 2, b"tiny"));
        assert!(
            buf.capacity() >= grown,
            "reframing must not shrink the buffer"
        );
    }

    /// A frame whose payload is sixteen words and a three-byte tail.
    fn wide_frame() -> Vec<u8> {
        let payload: Vec<u8> = (0..131u32).map(|i| (i * 37 + 11) as u8).collect();
        frame_chunk(7, 3, 2, 5, &payload)
    }

    #[test]
    fn every_two_bit_flip_is_detected() {
        let frame = wide_frame();
        let bits = frame.len() * 8;
        let mut damaged = frame.clone();
        for i in 0..bits {
            damaged[i / 8] ^= 1 << (i % 8);
            for j in i + 1..bits {
                damaged[j / 8] ^= 1 << (j % 8);
                let view = ChunkView::parse(&damaged);
                assert!(view.is_none(), "flips at bits {i} and {j} went undetected");
                damaged[j / 8] ^= 1 << (j % 8);
            }
            damaged[i / 8] ^= 1 << (i % 8);
        }
    }

    #[test]
    fn every_burst_of_up_to_sixteen_bytes_is_detected() {
        // The link's corruption model XORs a contiguous burst; here every
        // length at every offset, under uniform and varying masks.
        let frame = wide_frame();
        let masks: [fn(usize) -> u8; 4] = [
            |_| 0x01,
            |_| 0x80,
            |_| 0xff,
            |k| (0x5a ^ (k as u8).wrapping_mul(37)) | 1,
        ];
        for len in 1..=16 {
            for start in 0..=frame.len() - len {
                for mask in masks {
                    let mut damaged = frame.clone();
                    for (k, byte) in damaged[start..start + len].iter_mut().enumerate() {
                        *byte ^= mask(k);
                    }
                    assert!(
                        ChunkView::parse(&damaged).is_none(),
                        "{len}-byte burst at {start} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn every_single_byte_change_to_a_header_field_is_detected() {
        let frame = wide_frame();
        let newline = frame.iter().position(|&b| b == b'\n').unwrap();
        // The five checksummed fields — session, shipment, index, total,
        // len — and the spaces between them: every byte from the magic to
        // the sum.
        let fields =
            CHUNK_MAGIC.len() + 1..frame[..newline].iter().rposition(|&b| b == b' ').unwrap();
        assert_eq!(&frame[fields.clone()], b"7 3 2 5 131");
        for at in fields {
            for value in (0..=255u8).filter(|&v| v != frame[at]) {
                let mut damaged = frame.clone();
                damaged[at] = value;
                assert!(
                    ChunkView::parse(&damaged).is_none(),
                    "byte {at} set to {value:#04x} went undetected"
                );
            }
        }
    }
}
