//! The two codec workloads: closed loop, one thread, no sockets.
//!
//! `dense_128x4k` is the paper's headline shape and exercises only
//! `nc-gf256` + `nc-rlnc`; `fft_4096x1k` exercises only `nc-fft` (its own
//! GF(2^16) kernels), so it is the control for GF(2^8) kernel changes.

use std::time::Instant;

use nc_pool::BytesPool;
use nc_rlnc::{CodingConfig, Decoder, Encoder, Segment};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

use crate::host::sub_seed;
use crate::spans::Tracer;
use crate::workload::{Rep, Sizing, Workload};

/// `dense_128x4k`: 16 distinct 512 KiB segments (8 MB: past L2, inside
/// L3) visited in turn; each visit draws 136 coded blocks, pushes them
/// into a progressive decoder until it completes, recovers and compares.
pub struct Dense {
    config: CodingConfig,
    encoders: Vec<Encoder>,
    coded_per_visit: usize,
    rng: StdRng,
}

impl Dense {
    pub const BLOCKS: usize = 128;
    pub const BLOCK_BYTES: usize = 4096;
    /// n + 8: enough that a dependent draw never starves the decoder.
    pub const CODED_PER_VISIT: usize = 136;

    pub fn setup(seed: u64, sizing: Sizing) -> Dense {
        let config = CodingConfig::new(Dense::BLOCKS, Dense::BLOCK_BYTES).expect("valid shape");
        let segments = if sizing.smoke { 2 } else { 16 };
        let mut payload = StdRng::seed_from_u64(sub_seed(seed, "dense.payload"));
        let encoders = (0..segments)
            .map(|_| {
                let mut data = vec![0u8; config.segment_bytes()];
                payload.fill_bytes(&mut data);
                Encoder::new(Segment::from_bytes(config, data).expect("sized to the config"))
            })
            .collect();
        Dense {
            config,
            encoders,
            coded_per_visit: Dense::CODED_PER_VISIT,
            rng: StdRng::seed_from_u64(sub_seed(seed, "dense.coefficients")),
        }
    }
}

impl Workload for Dense {
    fn rep(&mut self, _rep: usize, tr: &mut Tracer) -> Rep {
        let started = Instant::now();
        let mut out = Rep::default();
        for encoder in &self.encoders {
            let t0 = Instant::now();
            let s = tr.begin("Encoder::encode_batch");
            let blocks = encoder.encode_batch(&mut self.rng, self.coded_per_visit);
            tr.end(s);
            let t1 = Instant::now();

            let segment = tr.begin("segment_decode");
            let mut decoder = Decoder::new(self.config);
            for block in blocks {
                let s = tr.begin("Decoder::push");
                decoder.push(block).expect("block has the segment's shape");
                tr.end(s);
                if decoder.is_complete() {
                    break;
                }
            }
            let s = tr.begin("Decoder::recover");
            let recovered = decoder.recover();
            tr.end(s);
            tr.end(segment);
            let t2 = Instant::now();

            out.attempted += 1;
            out.encode_s += (t1 - t0).as_secs_f64();
            out.encode_bytes += (self.coded_per_visit * self.config.block_size()) as u64;
            out.decode_s += (t2 - t1).as_secs_f64();
            match recovered {
                Some(bytes) if bytes == encoder.segment().data() => {
                    out.payload_bytes += bytes.len() as u64;
                    out.decode_bytes += bytes.len() as u64;
                    out.unit_ms.push((t2 - t1).as_secs_f64() * 1e3);
                }
                Some(_) => out.mismatched += 1,
                None => out.failed += 1,
            }
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out
    }

    fn min_reps(&self) -> usize {
        5
    }

    fn describe(&self) -> String {
        format!(
            "closed loop, 1 thread, no sockets; {} segments of {} x {} B, {} coded blocks per visit",
            self.encoders.len(),
            self.config.blocks(),
            self.config.block_size(),
            self.coded_per_visit
        )
    }
}

/// `fft_4096x1k`: one segment of 4096 x 1 KiB originals encoded into
/// 4096 recovery shards; a seeded half of the originals is erased and the
/// segment decoded from the surviving originals plus as many seeded
/// recovery shards.
pub struct Fft {
    originals: Vec<Vec<u8>>,
    pattern: StdRng,
}

impl Fft {
    pub const SHARDS: usize = 4096;
    pub const SHARD_BYTES: usize = 1024;

    pub fn setup(seed: u64, sizing: Sizing) -> Fft {
        let (shards, bytes) =
            if sizing.smoke { (256, 64) } else { (Fft::SHARDS, Fft::SHARD_BYTES) };
        // Part of set-up: the field tables are built on first use.
        let _ = nc_fft::tables();
        let mut payload = StdRng::seed_from_u64(sub_seed(seed, "fft.payload"));
        let originals = (0..shards)
            .map(|_| {
                let mut shard = vec![0u8; bytes];
                payload.fill_bytes(&mut shard);
                shard
            })
            .collect();
        Fft { originals, pattern: StdRng::seed_from_u64(sub_seed(seed, "fft.erasures")) }
    }
}

impl Workload for Fft {
    fn rep(&mut self, _rep: usize, tr: &mut Tracer) -> Rep {
        let started = Instant::now();
        let n = self.originals.len();
        let mut out = Rep { attempted: 1, ..Rep::default() };
        let refs: Vec<&[u8]> = self.originals.iter().map(Vec::as_slice).collect();

        let t0 = Instant::now();
        let s = tr.begin("nc_fft::encode_segment");
        let recovery = nc_fft::encode_segment(&refs, n).expect("shape fits GF(2^16)");
        tr.end(s);
        out.encode_s = t0.elapsed().as_secs_f64();
        out.encode_bytes = (recovery.len() * refs[0].len()) as u64;

        // Erase half the originals; keep as many recovery shards.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut self.pattern);
        let mut original: Vec<Option<&[u8]>> = refs.iter().map(|r| Some(*r)).collect();
        for &i in &order[..n / 2] {
            original[i] = None;
        }
        order.shuffle(&mut self.pattern);
        let mut present: Vec<Option<&[u8]>> = vec![None; n];
        for &i in &order[..n / 2] {
            present[i] = Some(recovery[i].as_slice());
        }

        let t1 = Instant::now();
        let s = tr.begin("nc_fft::decode_segment");
        let decoded = nc_fft::decode_segment(&original, &present);
        tr.end(s);
        out.decode_s = t1.elapsed().as_secs_f64();

        match decoded {
            Ok(shards) if shards == self.originals => {
                let bytes = (n * refs[0].len()) as u64;
                out.payload_bytes = bytes;
                out.decode_bytes = bytes;
                out.unit_ms.push(out.decode_s * 1e3);
                shards.into_iter().for_each(|v| BytesPool::global().recycle(v));
            }
            Ok(_) => out.mismatched = 1,
            Err(_) => out.failed = 1,
        }
        recovery.into_iter().for_each(|v| BytesPool::global().recycle(v));
        out.wall_s = started.elapsed().as_secs_f64();
        out
    }

    fn min_reps(&self) -> usize {
        5
    }

    fn describe(&self) -> String {
        format!(
            "closed loop, 1 thread, no sockets; {} originals x {} B -> as many recovery shards, \
             50% of originals erased",
            self.originals.len(),
            self.originals[0].len()
        )
    }
}
