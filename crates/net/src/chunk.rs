//! Chunk framing for checkpointed shipment.
//!
//! A serialized cross-edge message is sliced into chunks; each chunk is
//! framed with a header naming the *shipment* it belongs to — the
//! session, the per-session shipment sequence number, the chunk index and
//! the chunk count — plus the payload length and an FNV-64 checksum. The
//! checksum covers the header fields *and* the payload, so damage
//! anywhere in the frame (including a flipped digit in the index) fails
//! verification: a corrupted frame can never be accepted into the wrong
//! slot of a reassembly ledger.
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

/// Frame header magic.
pub const CHUNK_MAGIC: &str = "XDXCHUNK";

/// Incremental FNV-1a 64-bit hasher: lets the frame checksum cover the
/// header fields *and* the payload without first copying them into a
/// temporary buffer — the shipping hot path hashes in place.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64 {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Folds `bytes` into the running hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// FNV-1a 64-bit hash; stable across runs, used for frame checksums and
/// plan-cache keys.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv64::new();
    hash.write(bytes);
    hash.finish()
}

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
    /// Checksum input: every header field (fixed-width LE) plus the
    /// payload, so no single field can be damaged without detection.
    fn checksum(session: u64, shipment: u64, index: usize, total: usize, payload: &[u8]) -> u64 {
        let mut hash = Fnv64::new();
        for v in [
            session,
            shipment,
            index as u64,
            total as u64,
            payload.len() as u64,
        ] {
            hash.write(&v.to_le_bytes());
        }
        hash.write(payload);
        hash.finish()
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
        let sum = u64::from_str_radix(parts.next()?, 16).ok()?;
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

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }
}
