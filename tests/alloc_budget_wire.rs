//! Allocation budget of the wire on a healthy link, in bytes allocated
//! per wire byte. A 2 MB message goes through the calls the shipping
//! engine makes per 16 KiB chunk — frame it into one reused buffer,
//! transmit it over a healthy `Link`, parse the delivery in place, file
//! it in the reassembly ledger — and is then assembled. Two copies of
//! the bytes are unavoidable here: the link's delivery owns its bytes,
//! and the ledger's receive buffer holds the reassembled message. So the
//! budget is two bytes per wire byte plus slack for the reused frame
//! buffer and the ledger's bookkeeping; this measured 2.01. A receiver
//! that copies a chunk out of its frame, again into the ledger and once
//! more to concatenate the message measured 4.00.
//!
//! The only test in this binary: the counter is process-wide.

mod common;

use std::sync::Arc;
use xdx::net::{frame_chunk_into, ChunkView, Link, NetworkProfile};
use xdx::runtime::{Filed, ReassemblyLedger};

const MESSAGE_BYTES: usize = 2 * 1024 * 1024;
const CHUNK_BYTES: usize = 16 * 1024;
const BUDGET: f64 = 2.2;

#[test]
fn a_healthy_wire_allocates_about_two_bytes_per_wire_byte() {
    let message: Arc<Vec<u8>> = Arc::new((0..MESSAGE_BYTES).map(|i| (i % 251) as u8).collect());
    let ledger = ReassemblyLedger::new();
    let mut link = Link::new(NetworkProfile::lan()).with_recording(false);
    let (session, shipment) = (7, 0);
    let total = MESSAGE_BYTES.div_ceil(CHUNK_BYTES);
    let mut frame = Vec::new();
    let mut wire_bytes = 0u64;

    let before = common::bytes();
    let prior = ledger.begin_shipment(session, shipment, total, &message);
    assert!(prior.is_empty());
    for (index, chunk) in message.chunks(CHUNK_BYTES).enumerate() {
        frame_chunk_into(&mut frame, session, shipment, index, total, chunk);
        let (_, delivery) = link.transmit_faulty("wire", &frame);
        let payload = delivery.payload().expect("a healthy link delivers");
        let view = ChunkView::parse(payload).expect("an intact frame verifies");
        assert_eq!(ledger.file(&view), Filed::Accepted);
        wire_bytes += frame.len() as u64;
    }
    let assembled = ledger
        .assemble(session, shipment)
        .expect("every chunk landed");
    let allocated = common::bytes() - before;
    assert_eq!(assembled, message);

    let per_wire_byte = allocated as f64 / wire_bytes as f64;
    println!(
        "{MESSAGE_BYTES}-byte message in {total} chunks: {wire_bytes} wire bytes, \
         {allocated} bytes allocated ({per_wire_byte:.2} per wire byte)"
    );
    assert!(
        per_wire_byte <= BUDGET,
        "{allocated} bytes allocated for {wire_bytes} wire bytes: \
         {per_wire_byte:.2} per wire byte, budget {BUDGET}"
    );
}
