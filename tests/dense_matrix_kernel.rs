//! The tiled GF(2^8) matrix product and the decoder built on it, at the
//! paper's shape (n = 128 blocks of 4 KB), inside the tier-1 command: the
//! kernel on every rung this CPU has against the byte-at-a-time reference,
//! and a dense round trip through both decoders on the active rung
//! (`NC_GF_BACKEND` pins another; CI runs the lanes).

use extreme_nc::gf256::region;
use extreme_nc::gf256::scalar::mul_loop;
use extreme_nc::gf256::simd::{active_kernel, Kernel};
use extreme_nc::prelude::*;
use rand::{Rng, SeedableRng};

const BLOCKS: usize = 128;
const BLOCK_BYTES: usize = 4096;

fn random_rows(rng: &mut impl Rng, rows: usize, len: usize) -> Vec<Vec<u8>> {
    (0..rows).map(|_| (0..len).map(|_| rng.gen()).collect()).collect()
}

#[test]
fn matrix_kernel_matches_scalar_on_every_rung() {
    // 17 outputs: two full tiles and one row left over; 4097 bytes: 32 full
    // 128-byte strips and a one-byte masked one.
    let (outputs, len) = (17, BLOCK_BYTES + 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7171);
    let sources = random_rows(&mut rng, BLOCKS, len);
    let mut coeffs = random_rows(&mut rng, outputs, BLOCKS);
    for (t, row) in coeffs.iter_mut().enumerate() {
        row[t] = 0;
        row[t + 1] = 1;
    }
    let initial = random_rows(&mut rng, outputs, len);
    let want: Vec<Vec<u8>> = initial
        .iter()
        .zip(&coeffs)
        .map(|(out, row)| {
            let mut want = out.clone();
            for (src, &c) in sources.iter().zip(row) {
                want.iter_mut().zip(src).for_each(|(d, &b)| *d ^= mul_loop(c, b));
            }
            want
        })
        .collect();
    let source_refs: Vec<&[u8]> = sources.iter().map(Vec::as_slice).collect();
    let coeff_refs: Vec<&[u8]> = coeffs.iter().map(Vec::as_slice).collect();

    // Visible under `--nocapture`: which rungs this host actually covered.
    println!("rungs covered: {:?}", Kernel::available());
    for rung in Kernel::available() {
        let mut outs = initial.clone();
        let mut out_refs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        region::matrix_mul_add_on(rung, &mut out_refs, &source_refs, &coeff_refs);
        let kernel = rung.kernel();
        assert!(outs == want, "matrix_mul_add on {kernel:?} differs from the scalar reference");
    }
}

#[test]
fn dense_128x4k_round_trips_through_both_decoders() {
    let config = CodingConfig::new(BLOCKS, BLOCK_BYTES).expect("valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x2009);
    let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
    let segment = Segment::from_bytes(config, data.clone()).expect("sized");
    let blocks = Encoder::new(segment).encode_batch(&mut rng, BLOCKS + 8);

    let kernel = active_kernel();
    let mut progressive = Decoder::new(config);
    let mut two_stage = TwoStageDecoder::new(config);
    for block in &blocks {
        let innovative = progressive.push(block.clone()).expect("shape matches");
        assert_eq!(two_stage.push(block.clone()).expect("shape matches"), innovative);
    }
    assert_eq!(progressive.stats().innovative, BLOCKS, "{kernel:?}");
    assert!(progressive.recover().as_deref() == Some(&data[..]), "{kernel:?}: progressive");
    assert!(progressive.recover().as_deref() == Some(&data[..]), "{kernel:?}: second recover");
    assert!(two_stage.decode().expect("full rank") == data, "{kernel:?}: two-stage");
}
