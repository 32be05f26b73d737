//! Quickstart: encode a segment into coded blocks, lose some in transit,
//! recode at an intermediate hop, and decode at the receiver.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use extreme_nc::prelude::*;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Error> {
    // The paper's streaming configuration: 128 blocks of 4 KB = one 512 KB
    // media segment.
    let config = CodingConfig::new(128, 4096)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2009);
    let payload: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
    println!("segment: {} blocks x {} B", config.blocks(), config.block_size());

    // --- Source: generate coded blocks (Eq. 1). --------------------------
    let encoder = Encoder::new(Segment::from_bytes(config, payload.clone())?);
    let coded = encoder.encode_batch(&mut rng, 160);
    println!("source generated {} coded blocks", coded.len());

    // --- Lossy network: an intermediate node sees only 80% of them. ------
    let mut relay = Recoder::new(config);
    for (i, block) in coded.iter().enumerate() {
        if i % 5 != 0 {
            relay.push(block.clone())?;
        }
    }
    println!("relay buffered {} blocks and recodes on the fly", relay.len());

    // --- Receiver: progressive Gauss-Jordan decoding (Sec. 3). -----------
    let mut decoder = Decoder::new(config);
    while !decoder.is_complete() {
        let block = relay.recode(&mut rng).expect("relay has blocks");
        decoder.push(block)?;
    }
    let recovered = decoder.recover().expect("rank n reached");
    assert_eq!(recovered, payload);

    let stats = decoder.stats();
    println!(
        "receiver decoded {} bytes from {} blocks ({} dependent, {:.1}% overhead)",
        recovered.len(),
        stats.received,
        stats.discarded_dependent,
        stats.dependence_overhead() * 100.0
    );
    println!(
        "row operations over 2n-byte coefficient rows: {}, GF multiplications incl. the one n x n by n x k payload product: {}",
        stats.row_ops, stats.gf_multiplications
    );
    Ok(())
}
