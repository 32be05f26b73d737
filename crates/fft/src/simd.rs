//! GF(2^16) region kernels over the split-plane shard layout, with the
//! same runtime dispatch discipline as `nc_gf256::simd`.
//!
//! # Shard layout
//!
//! A shard of `k` bytes (k even) carries `k/2` GF(2^16) symbols in two
//! byte *planes*: symbol `i` is `bytes[i] | bytes[k/2 + i] << 8`. Because
//! the code is GF(2)-linear, any fixed pairing of bytes into symbols is
//! equally correct — the split keeps each plane a contiguous byte stream,
//! which is exactly what 16-lane byte shuffles want (the Leopard /
//! `reed-solomon-simd` trick).
//!
//! # Multipliers
//!
//! Multiplying by a constant `m` is a GF(2)-linear map on the 16
//! representation bits, so it is fully described by the 16 products
//! `m · 2^j`. A [`Multiplier`] holds that map in the form its kernel
//! consumes, built **once** and then applied to as many shards as share
//! the constant (every butterfly of one FFT group, see [`crate::afft`]):
//!
//! * four 16-entry nibble product tables `T_j[v] = (v << 4j) · m`, split
//!   into low/high product-byte halves, for the byte-shuffle rungs:
//!
//!   ```text
//!   out_lo = PSHUFB(T0_lo, x0) ^ PSHUFB(T1_lo, x1) ^ PSHUFB(T2_lo, x2) ^ PSHUFB(T3_lo, x3)
//!   out_hi = PSHUFB(T0_hi, x0) ^ PSHUFB(T1_hi, x1) ^ PSHUFB(T2_hi, x2) ^ PSHUFB(T3_hi, x3)
//!   ```
//!
//!   where `x0..x3` are the four nibbles of the lo/hi source planes;
//! * four 8×8 bit-matrices for the GFNI rung — the 16×16 matrix of the
//!   map cut into quadrants, one `GF2P8AFFINEQB` each:
//!
//!   ```text
//!   out_lo = A·lo ^ B·hi        out_hi = C·lo ^ D·hi
//!   ```
//!
//!   i.e. 4 affine instructions per 64 symbols against 8 shuffles plus
//!   nibble masks per 32. The Cantor-basis remap of the representation
//!   ([`mod@crate::tables`]) is itself a linear bijection, so the map stays
//!   linear in the remapped coordinates and the matrices are simply read
//!   off the remapped products.
//!
//! # Operations
//!
//! Every rung implements five multiplying operations over two equally long runs of
//! shards `x`, `y` with one body (compile-time `OP`):
//!
//! ```text
//! mul_add:           x ^= m·y
//! mul_into:          x  = m·y          (x == y is the in-place multiply)
//! ifft butterfly:    y ^= x;  x ^= m·y
//! fft  butterfly:    x ^= m·y;  y ^= x
//! merged butterfly:  t = m·(x ^ y);  x ^= t;  y ^= t
//! ```
//!
//! The merged butterfly is an IFFT butterfly with constant `a` followed by
//! an FFT butterfly with constant `b`, `m = a ^ b` (the encoder's two top
//! groups, see [`crate::afft`]).
//!
//! plus the plain `x ^= y` of [`xor_assign`], which rides the same bodies
//! for their vector width.
//!
//! The butterflies are *fused*: each loads and stores `x` and `y` once.
//! Rungs: **GFNI** (AVX-512 width, masked tails), **AVX2**, **SSSE3**,
//! **AArch64 NEON** and a **portable** scalar walk over the u16 tables,
//! selected once and cached, overridable with `NC_GF16_BACKEND`
//! (`portable` / `ssse3` / `avx2` / `neon` / `gfni`; unset or `auto`
//! detects) — mirroring `NC_GF_BACKEND` for GF(2^8), including the loud
//! fallback: an unknown or unsupported value prints one stderr line and
//! counts in `fft.backend_override_unavailable`; the selected rung is the
//! `fft.kernel_id` gauge.
//!
//! Coefficients use *wrap* log semantics ([`Tables::mul_log`]): log 0 and
//! log [`MODULUS`] both multiply by one. The butterfly layer never
//! forwards the skew table's zero-multiplier sentinel here.
//!
//! All kernels are tested bit-identical against the scalar field ops at
//! every head/tail length (see the module tests and
//! `tests/gf16_dispatch.rs`).

// The only `unsafe` in the crate: straight mappings to documented vendor
// intrinsics, feature-gated, with bounds stated per block — same contract
// as `nc_gf256::simd`.
#![allow(unsafe_code)]

use crate::metrics::metrics;
use crate::tables::{Tables, MODULUS};
use std::sync::OnceLock;

/// Four 16-entry GF(2^16) product tables, one per source nibble:
/// `tables[j][v] = (v << 4j) · m`.
type NibbleTables = [[u16; 16]; 4];

/// The eight byte-shuffle tables derived from [`NibbleTables`]:
/// `(lo, hi)` product-byte halves per nibble position.
type ByteTables = ([[u8; 16]; 4], [[u8; 16]; 4]);

/// One concrete GF(2^16) region-kernel implementation.
///
/// Every variant exists on every architecture so ablation tooling compiles
/// everywhere; an unavailable kernel runs portably.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Gf16Kernel {
    /// Scalar walk over the u16 nibble tables: correct everywhere.
    Portable,
    /// x86-64 SSSE3 `PSHUFB`, 16 symbols per table-octet pass.
    Ssse3,
    /// x86-64 AVX2 `VPSHUFB`, 32 symbols per table-octet pass.
    Avx2,
    /// AArch64 NEON `TBL`, 16 symbols per table-octet pass.
    Neon,
    /// x86-64 GFNI `GF2P8AFFINEQB` at AVX-512 width: 64 symbols per four
    /// affine instructions, no tables, masked tails.
    Gfni,
}

impl Gf16Kernel {
    /// Human-readable kernel name (stable; used by reports and telemetry).
    pub fn name(self) -> &'static str {
        match self {
            Gf16Kernel::Portable => "portable",
            Gf16Kernel::Ssse3 => "ssse3",
            Gf16Kernel::Avx2 => "avx2",
            Gf16Kernel::Neon => "neon",
            Gf16Kernel::Gfni => "gfni",
        }
    }

    /// Stable numeric id for the `fft.kernel_id` telemetry gauge.
    pub(crate) fn id(self) -> u8 {
        match self {
            Gf16Kernel::Portable => 0,
            Gf16Kernel::Ssse3 => 1,
            Gf16Kernel::Avx2 => 2,
            Gf16Kernel::Neon => 3,
            Gf16Kernel::Gfni => 4,
        }
    }

    /// Whether this host can execute the kernel right now.
    pub fn is_available(self) -> bool {
        match self {
            Gf16Kernel::Portable => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Gf16Kernel::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Gf16Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            Gf16Kernel::Neon => true,
            #[cfg(target_arch = "x86_64")]
            Gf16Kernel::Gfni => {
                std::arch::is_x86_feature_detected!("gfni")
                    && std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Every kernel this host can execute, fastest first (portable always
    /// present, always last).
    pub fn available() -> Vec<Gf16Kernel> {
        [
            Gf16Kernel::Gfni,
            Gf16Kernel::Avx2,
            Gf16Kernel::Neon,
            Gf16Kernel::Ssse3,
            Gf16Kernel::Portable,
        ]
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
    }
}

/// The kernel the crate dispatches to, detected once and cached.
///
/// Honors `NC_GF16_BACKEND`; a forced kernel the host lacks, or a value
/// that names no kernel, degrades to the best available one rather than
/// crashing — logged to stderr once and counted in
/// `fft.backend_override_unavailable`, so an ablation run cannot measure
/// the wrong kernel unnoticed. The selected rung is published as the
/// `fft.kernel_id` gauge.
pub fn active_kernel() -> Gf16Kernel {
    static ACTIVE: OnceLock<Gf16Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let value = std::env::var("NC_GF16_BACKEND").ok().map(|v| v.trim().to_ascii_lowercase());
        let (kernel, ignored) = resolve_override(value.as_deref());
        if let Some(why) = ignored {
            note_override_ignored(value.as_deref().unwrap_or_default(), why, kernel);
        }
        metrics().kernel_id.set(f64::from(kernel.id()));
        kernel
    })
}

/// The kernel an `NC_GF16_BACKEND` value (trimmed, lower-cased) selects,
/// and why the value was ignored if it was.
fn resolve_override(value: Option<&str>) -> (Gf16Kernel, Option<&'static str>) {
    let forced = match value {
        None | Some("") | Some("auto") => return (Gf16Kernel::available()[0], None),
        Some("portable") => Gf16Kernel::Portable,
        Some("ssse3") => Gf16Kernel::Ssse3,
        Some("avx2") => Gf16Kernel::Avx2,
        Some("neon") => Gf16Kernel::Neon,
        Some("gfni") => Gf16Kernel::Gfni,
        Some(_) => return (Gf16Kernel::available()[0], Some("is not a known backend")),
    };
    if forced.is_available() {
        (forced, None)
    } else {
        (Gf16Kernel::available()[0], Some("is not supported by this CPU"))
    }
}

/// Makes a misconfigured `NC_GF16_BACKEND` visible (stderr + telemetry)
/// instead of silently measuring the wrong kernel.
fn note_override_ignored(value: &str, why: &str, fallback: Gf16Kernel) {
    eprintln!("nc-fft: NC_GF16_BACKEND={value} {why}; falling back to `{}`", fallback.name());
    metrics().backend_override_unavailable.inc();
}

// ---------------------------------------------------------------------------
// The multiplier: one constant, prepared once for one kernel.
// ---------------------------------------------------------------------------

/// The operation a kernel body runs (compile-time selector).
const MUL_ADD: u8 = 0;
const MUL_INTO: u8 = 1;
const IFFT: u8 = 2;
const FFT: u8 = 3;
const XOR: u8 = 4;
const MERGED: u8 = 5;

/// Multiplication by one constant, prepared for one kernel: build it once
/// per constant, apply it to every shard that shares the constant.
///
/// Building one is an `exp` lookup and the XOR of four entries of
/// [`Tables`]' per-nibble basis of table forms — a few nanoseconds, against
/// the kilobyte or more each one then multiplies.
#[derive(Clone, Debug)]
pub struct Multiplier {
    /// The rung that runs; always available on this host (private, set
    /// only by the constructors — the unsafe bodies rely on it).
    kernel: Gf16Kernel,
    /// The constant's table forms; the GFNI rung reads only `affine`.
    form: MultiplierForm,
}

/// Multiplication by one constant in the forms the rungs consume. Both are
/// linear in the constant, so the form of `m` is the XOR of the forms of
/// its four nibbles `(m >> 4j & 0xF) << 4j` ([`Tables`] keeps those 64).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MultiplierForm {
    /// The nibble product tables as byte planes: what the shuffle rungs
    /// (SSSE3 / AVX2 / NEON) load, and what the portable walk and their
    /// scalar tails re-pair into u16 entries ([`Multiplier::t16`]).
    bytes: ByteTables,
    /// GFNI rung: the quadrants `[A, B, C, D]` of the 16×16 bit-matrix in
    /// `GF2P8AFFINEQB` operand layout.
    affine: [u64; 4],
}

/// Transposes an 8×8 bit-matrix held one row per byte.
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

impl MultiplierForm {
    /// The forms of the constant `m` whose 16 products `m·2^j` are given
    /// as two byte vectors: byte `j` of `lo` / `hi` is the low / high byte
    /// of `m·2^j` (the map is linear, so these determine it).
    pub(crate) fn from_products(lo: u128, hi: u128) -> MultiplierForm {
        // `GF2P8AFFINEQB` computes output bit i of a byte as
        // parity(matrix.byte[7 - i] & input): row i of a quadrant must
        // select the input bits j whose product m·2^j has output bit i
        // set. Eight product bytes, byte j from input bit j, are the
        // transpose of that; `swap_bytes` then puts row i into byte 7 - i.
        let quadrant = |columns: u128| transpose8(columns as u64).swap_bytes();
        // Nibble table j of one product-byte plane: entry v is the XOR of
        // the plane's bytes 4j + b over the set bits b of v. A byte times
        // a 0/1-byte pattern drops it at every entry that has the bit.
        let nibble_table = |plane: u128, j: usize| {
            let byte = |b: usize| u64::from((plane >> (8 * (4 * j + b))) as u8);
            let low = (byte(0) * 0x0100_0100_0100_0100)
                ^ (byte(1) * 0x0101_0000_0101_0000)
                ^ (byte(2) * 0x0101_0101_0000_0000);
            let high = low ^ (byte(3) * 0x0101_0101_0101_0101);
            (u128::from(high) << 64 | u128::from(low)).to_le_bytes()
        };
        MultiplierForm {
            bytes: (
                std::array::from_fn(|j| nibble_table(lo, j)),
                std::array::from_fn(|j| nibble_table(hi, j)),
            ),
            affine: [quadrant(lo), quadrant(lo >> 64), quadrant(hi), quadrant(hi >> 64)],
        }
    }
}

impl Multiplier {
    /// All-zero tables on an *available* `kernel` (what [`xor_assign`]
    /// runs the bodies with; [`Multiplier::new`] fills them in).
    fn blank(kernel: Gf16Kernel) -> Multiplier {
        Multiplier { kernel, form: MultiplierForm::default() }
    }

    /// Prepares `x ↦ m·x` for `kernel`, `m` given by its log (wrap
    /// semantics: log 0 and log [`MODULUS`] are both the identity). A
    /// kernel this host lacks is replaced by the portable walk.
    pub fn new(kernel: Gf16Kernel, t: &Tables, log_m: u16) -> Multiplier {
        let kernel = if kernel.is_available() { kernel } else { Gf16Kernel::Portable };
        let m = usize::from(t.exp[usize::from(log_m)]);
        let forms: [&MultiplierForm; 4] =
            std::array::from_fn(|j| &t.nibble_forms[j][m >> (4 * j) & 0xF]);
        let mut mul = Multiplier::blank(kernel);
        if kernel == Gf16Kernel::Gfni {
            mul.form.affine = std::array::from_fn(|q| {
                forms[0].affine[q] ^ forms[1].affine[q] ^ forms[2].affine[q] ^ forms[3].affine[q]
            });
            return mul; // masked tails: no scalar tables needed
        }
        let xor4 = |table: fn(&MultiplierForm) -> &[[u8; 16]; 4]| -> [[u8; 16]; 4] {
            std::array::from_fn(|j| {
                std::array::from_fn(|b| forms.iter().fold(0, |acc, form| acc ^ table(form)[j][b]))
            })
        };
        mul.form.bytes = (xor4(|form| &form.bytes.0), xor4(|form| &form.bytes.1));
        mul
    }

    /// The u16 nibble tables of the portable walk, re-paired from the
    /// byte planes. Only the portable rung and the sub-vector tails of the
    /// shuffle rungs need them, so they are made per call, not per build.
    fn t16(&self) -> NibbleTables {
        let mut t16 = [[0u16; 16]; 4];
        for (j, table) in t16.iter_mut().enumerate() {
            for (v, entry) in table.iter_mut().enumerate() {
                let (lo, hi) = &self.form.bytes;
                *entry = u16::from(lo[j][v]) | u16::from(hi[j][v]) << 8;
            }
        }
        t16
    }

    /// Runs the vector body of `OP` over `len / shard_bytes` shards of `x`
    /// and `y` and returns how many leading symbols of each shard's planes
    /// it covered (the caller finishes the rest portably).
    ///
    /// # Safety
    ///
    /// `x` and `y` must be valid for reads and writes of `len` bytes (`y`
    /// for reads only under `MUL_ADD` / `MUL_INTO` / `XOR`) and either be
    /// the same pointer (`MUL_INTO` only) or not overlap; `shard_bytes`
    /// must be even and non-zero and divide `len`.
    unsafe fn vector<const OP: u8>(
        &self,
        x: *mut u8,
        y: *mut u8,
        len: usize,
        shard_bytes: usize,
    ) -> usize {
        let half = shard_bytes / 2;
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            Gf16Kernel::Gfni => {
                // SAFETY: `new` stores `Gfni` only when GFNI + AVX-512F/BW
                // were detected; region contract forwarded from the caller.
                unsafe { gfni::body::<OP>(x, y, len, shard_bytes, &self.form.affine) };
                half
            }
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Gf16Kernel::Avx2 => {
                // SAFETY: `new` stores `Avx2` only when AVX2 was detected;
                // region contract forwarded from the caller.
                unsafe { x86::body_avx2::<OP>(x, y, len, shard_bytes, &self.form.bytes) };
                half / 32 * 32
            }
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Gf16Kernel::Ssse3 => {
                // SAFETY: `new` stores `Ssse3` only when SSSE3 was
                // detected; region contract forwarded from the caller.
                unsafe { x86::body_ssse3::<OP>(x, y, len, shard_bytes, &self.form.bytes) };
                half / 16 * 16
            }
            #[cfg(target_arch = "aarch64")]
            Gf16Kernel::Neon => {
                // SAFETY: NEON is architecturally guaranteed on AArch64;
                // region contract forwarded from the caller.
                unsafe { neon::body::<OP>(x, y, len, shard_bytes, &self.form.bytes) };
                half / 16 * 16
            }
            _ => {
                let _ = (x, y, len, half); // no vector rung on this target
                0
            }
        }
    }

    /// `dst ^= m · src` over one shard.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the length is odd.
    pub fn mul_add(&self, dst: &mut [u8], src: &[u8]) {
        check_regions(dst.len(), src.len(), dst.len());
        if dst.is_empty() {
            return;
        }
        // SAFETY: equal non-zero even lengths were just checked, one shard
        // of that length; `dst` and `src` are distinct borrows, and
        // `MUL_ADD` only reads through the `src` pointer.
        let done = unsafe {
            self.vector::<MUL_ADD>(dst.as_mut_ptr(), src.as_ptr().cast_mut(), dst.len(), dst.len())
        };
        if done < dst.len() / 2 {
            portable_mul_add(dst, src, &self.t16(), done);
        }
    }

    /// `dst = m · src` (overwriting) over one shard.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the length is odd.
    pub(crate) fn mul_into(&self, dst: &mut [u8], src: &[u8]) {
        check_regions(dst.len(), src.len(), dst.len());
        if dst.is_empty() {
            return;
        }
        // SAFETY: as `mul_add`; `MUL_INTO` only reads through `src`.
        let done = unsafe {
            self.vector::<MUL_INTO>(dst.as_mut_ptr(), src.as_ptr().cast_mut(), dst.len(), dst.len())
        };
        if done < dst.len() / 2 {
            portable_mul_into(dst, src, &self.t16(), done);
        }
    }

    /// `dst = m · dst` in place over one shard.
    ///
    /// # Panics
    ///
    /// Panics if the length is odd.
    pub fn mul_assign(&self, dst: &mut [u8]) {
        check_regions(dst.len(), dst.len(), dst.len());
        if dst.is_empty() {
            return;
        }
        let p = dst.as_mut_ptr();
        // SAFETY: one shard of non-zero even length; source and
        // destination are the same pointer, which `MUL_INTO` allows (each
        // vector is fully loaded before it is stored).
        let done = unsafe { self.vector::<MUL_INTO>(p, p, dst.len(), dst.len()) };
        if done < dst.len() / 2 {
            portable_mul_assign(dst, &self.t16(), done);
        }
    }

    /// The fused IFFT butterfly `y ^= x; x ^= m·y` over a run of shards:
    /// shard `s` of `x` pairs with shard `s` of `y`.
    ///
    /// # Panics
    ///
    /// Panics if the runs differ in length, `shard_bytes` is odd or zero,
    /// or it does not divide the run length.
    pub fn ifft_butterflies(&self, x: &mut [u8], y: &mut [u8], shard_bytes: usize) {
        self.butterflies::<IFFT>(x, y, shard_bytes, portable_ifft);
    }

    /// The fused FFT butterfly `x ^= m·y; y ^= x` over a run of shards.
    ///
    /// # Panics
    ///
    /// As [`Multiplier::ifft_butterflies`].
    pub fn fft_butterflies(&self, x: &mut [u8], y: &mut [u8], shard_bytes: usize) {
        self.butterflies::<FFT>(x, y, shard_bytes, portable_fft);
    }

    /// An IFFT butterfly with constant `a` followed by an FFT butterfly
    /// with constant `b`, for `m = a ^ b`: `t = m·(x ^ y); x ^= t;
    /// y ^= t` over a run of shards — one multiply and one pass where the
    /// two butterflies take two of each.
    ///
    /// # Panics
    ///
    /// As [`Multiplier::ifft_butterflies`].
    pub fn merged_butterflies(&self, x: &mut [u8], y: &mut [u8], shard_bytes: usize) {
        self.butterflies::<MERGED>(x, y, shard_bytes, portable_merged);
    }

    /// Runs butterfly `OP` over two runs of shards, finishing each shard's
    /// planes with `portable` past what the vector body covered.
    fn butterflies<const OP: u8>(
        &self,
        x: &mut [u8],
        y: &mut [u8],
        shard_bytes: usize,
        portable: fn(&mut [u8], &mut [u8], &NibbleTables, usize),
    ) {
        check_regions(x.len(), y.len(), shard_bytes);
        let (px, py, len) = (x.as_mut_ptr(), y.as_mut_ptr(), x.len());
        // SAFETY: equal lengths, a whole number of even-length shards
        // (just checked); `x` and `y` are distinct mutable borrows.
        let done = unsafe { self.vector::<OP>(px, py, len, shard_bytes) };
        if done < shard_bytes / 2 {
            let t16 = self.t16();
            for (x, y) in x.chunks_exact_mut(shard_bytes).zip(y.chunks_exact_mut(shard_bytes)) {
                portable(x, y, &t16, done);
            }
        }
    }
}

/// The length contract every kernel body relies on.
fn check_regions(x_len: usize, y_len: usize, shard_bytes: usize) {
    assert_eq!(x_len, y_len, "region length mismatch");
    assert_eq!(shard_bytes % 2, 0, "GF(2^16) regions carry whole symbols");
    assert!(x_len == 0 || (shard_bytes != 0 && x_len.is_multiple_of(shard_bytes)), "whole shards");
}

// ---------------------------------------------------------------------------
// Region entry points for a one-off constant (the decoder's scale/unscale
// steps, benches). `log_m` is a wrap-semantics log coefficient; regions are
// whole shards (even length, two planes).
// ---------------------------------------------------------------------------

/// `dst ^= m · src` on the active kernel.
#[inline]
pub fn mul_add_assign(t: &Tables, dst: &mut [u8], src: &[u8], log_m: u16) {
    mul_add_assign_with_kernel(active_kernel(), t, dst, src, log_m);
}

/// `dst ^= src` at the active kernel's vector width (plane structure is
/// irrelevant to XOR: the two halves of the region are its "planes").
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn xor_assign(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "region length mismatch");
    let even = dst.len() & !1;
    let mut done = 0;
    if even != 0 {
        let xor = Multiplier::blank(active_kernel());
        // SAFETY: the active kernel is available on this host; `dst` and
        // `src` are distinct borrows of at least `even` bytes, one shard
        // of that (non-zero, even) length; `XOR` only reads through `src`.
        done = unsafe { xor.vector::<XOR>(dst.as_mut_ptr(), src.as_ptr().cast_mut(), even, even) };
    }
    for rest in [done..even / 2, even / 2 + done..dst.len()] {
        dst[rest.clone()].iter_mut().zip(&src[rest]).for_each(|(d, s)| *d ^= s);
    }
}

/// `dst ^= m · src` on an explicit kernel; unavailable kernels run portably.
///
/// # Panics
///
/// Panics if the slices differ in length or the length is odd.
pub fn mul_add_assign_with_kernel(
    kernel: Gf16Kernel,
    t: &Tables,
    dst: &mut [u8],
    src: &[u8],
    log_m: u16,
) {
    if log_m == 0 || log_m == MODULUS {
        check_regions(dst.len(), src.len(), dst.len());
        return xor_assign(dst, src); // ×1 either way under wrap semantics
    }
    Multiplier::new(kernel, t, log_m).mul_add(dst, src);
}

/// `dst = m · dst` in place on an explicit kernel.
///
/// # Panics
///
/// Panics if the length is odd.
pub fn mul_assign_with_kernel(kernel: Gf16Kernel, t: &Tables, dst: &mut [u8], log_m: u16) {
    if log_m == 0 || log_m == MODULUS {
        return check_regions(dst.len(), dst.len(), dst.len()); // ×1
    }
    Multiplier::new(kernel, t, log_m).mul_assign(dst);
}

/// `dst = m · src` (overwriting) on an explicit kernel.
///
/// # Panics
///
/// Panics if the slices differ in length or the length is odd.
pub fn mul_into_with_kernel(
    kernel: Gf16Kernel,
    t: &Tables,
    dst: &mut [u8],
    src: &[u8],
    log_m: u16,
) {
    if log_m == 0 || log_m == MODULUS {
        check_regions(dst.len(), src.len(), dst.len());
        return dst.copy_from_slice(src); // ×1
    }
    Multiplier::new(kernel, t, log_m).mul_into(dst, src);
}

// ---------------------------------------------------------------------------
// Portable walk (also the tail path of every shuffle rung). `from` is the
// per-plane symbol index the vector body already handled.
// ---------------------------------------------------------------------------

#[inline]
fn product(t16: &NibbleTables, lo: u8, hi: u8) -> u16 {
    t16[0][usize::from(lo & 0x0F)]
        ^ t16[1][usize::from(lo >> 4)]
        ^ t16[2][usize::from(hi & 0x0F)]
        ^ t16[3][usize::from(hi >> 4)]
}

fn portable_mul_add(dst: &mut [u8], src: &[u8], t16: &NibbleTables, from: usize) {
    let half = dst.len() / 2;
    let (dlo, dhi) = dst.split_at_mut(half);
    let (slo, shi) = src.split_at(half);
    for i in from..half {
        let p = product(t16, slo[i], shi[i]);
        dlo[i] ^= p as u8;
        dhi[i] ^= (p >> 8) as u8;
    }
}

fn portable_mul_into(dst: &mut [u8], src: &[u8], t16: &NibbleTables, from: usize) {
    let half = dst.len() / 2;
    let (dlo, dhi) = dst.split_at_mut(half);
    let (slo, shi) = src.split_at(half);
    for i in from..half {
        let p = product(t16, slo[i], shi[i]);
        dlo[i] = p as u8;
        dhi[i] = (p >> 8) as u8;
    }
}

fn portable_mul_assign(dst: &mut [u8], t16: &NibbleTables, from: usize) {
    let half = dst.len() / 2;
    let (dlo, dhi) = dst.split_at_mut(half);
    for i in from..half {
        let p = product(t16, dlo[i], dhi[i]);
        dlo[i] = p as u8;
        dhi[i] = (p >> 8) as u8;
    }
}

fn portable_ifft(x: &mut [u8], y: &mut [u8], t16: &NibbleTables, from: usize) {
    let half = x.len() / 2;
    let (xlo, xhi) = x.split_at_mut(half);
    let (ylo, yhi) = y.split_at_mut(half);
    for i in from..half {
        ylo[i] ^= xlo[i];
        yhi[i] ^= xhi[i];
        let p = product(t16, ylo[i], yhi[i]);
        xlo[i] ^= p as u8;
        xhi[i] ^= (p >> 8) as u8;
    }
}

fn portable_fft(x: &mut [u8], y: &mut [u8], t16: &NibbleTables, from: usize) {
    let half = x.len() / 2;
    let (xlo, xhi) = x.split_at_mut(half);
    let (ylo, yhi) = y.split_at_mut(half);
    for i in from..half {
        let p = product(t16, ylo[i], yhi[i]);
        xlo[i] ^= p as u8;
        xhi[i] ^= (p >> 8) as u8;
        ylo[i] ^= xlo[i];
        yhi[i] ^= xhi[i];
    }
}

fn portable_merged(x: &mut [u8], y: &mut [u8], t16: &NibbleTables, from: usize) {
    let half = x.len() / 2;
    let (xlo, xhi) = x.split_at_mut(half);
    let (ylo, yhi) = y.split_at_mut(half);
    for i in from..half {
        let p = product(t16, xlo[i] ^ ylo[i], xhi[i] ^ yhi[i]);
        xlo[i] ^= p as u8;
        xhi[i] ^= (p >> 8) as u8;
        ylo[i] ^= p as u8;
        yhi[i] ^= (p >> 8) as u8;
    }
}

// ---------------------------------------------------------------------------
// x86 / x86-64: SSSE3 and AVX2 PSHUFB bodies.
// ---------------------------------------------------------------------------

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::{ByteTables, FFT, IFFT, MERGED, MUL_ADD, XOR};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Runs `OP` over all full 16-symbol chunks of every shard.
    ///
    /// # Safety
    ///
    /// The host must support SSSE3; region contract as
    /// [`super::Multiplier::vector`].
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn body_ssse3<const OP: u8>(
        x: *mut u8,
        y: *mut u8,
        len: usize,
        shard_bytes: usize,
        tables: &ByteTables,
    ) {
        let half = shard_bytes / 2;
        // SAFETY: table loads read 16 bytes from 16-byte arrays. Plane
        // accesses sit at `base + i` and `base + half + i` with
        // `i + 16 <= half` and `base + shard_bytes <= len`, inside the
        // regions the caller vouches for; every vector of a chunk is
        // loaded before the chunk's first store, so `x == y` is sound;
        // unaligned loadu/storeu forms throughout.
        unsafe {
            let mut tl = [_mm_setzero_si128(); 4];
            let mut th = [_mm_setzero_si128(); 4];
            for j in 0..4 {
                tl[j] = _mm_loadu_si128(tables.0[j].as_ptr().cast());
                th[j] = _mm_loadu_si128(tables.1[j].as_ptr().cast());
            }
            let mask = _mm_set1_epi8(0x0F);
            let mut base = 0;
            while base < len {
                let mut i = base;
                while i + 16 <= base + half {
                    let (x_lo, x_hi) = (x.add(i), x.add(half + i));
                    let (y_lo, y_hi) = (y.add(i), y.add(half + i));
                    let mut s_lo = _mm_loadu_si128(y_lo.cast());
                    let mut s_hi = _mm_loadu_si128(y_hi.cast());
                    let mut d_lo = _mm_loadu_si128(x_lo.cast());
                    let mut d_hi = _mm_loadu_si128(x_hi.cast());
                    if OP == IFFT || OP == MERGED {
                        s_lo = _mm_xor_si128(s_lo, d_lo);
                        s_hi = _mm_xor_si128(s_hi, d_hi);
                        if OP == IFFT {
                            _mm_storeu_si128(y_lo.cast(), s_lo);
                            _mm_storeu_si128(y_hi.cast(), s_hi);
                        }
                    }
                    let n0 = _mm_and_si128(s_lo, mask);
                    let n1 = _mm_and_si128(_mm_srli_epi64::<4>(s_lo), mask);
                    let n2 = _mm_and_si128(s_hi, mask);
                    let n3 = _mm_and_si128(_mm_srli_epi64::<4>(s_hi), mask);
                    let p_lo = _mm_xor_si128(
                        _mm_xor_si128(_mm_shuffle_epi8(tl[0], n0), _mm_shuffle_epi8(tl[1], n1)),
                        _mm_xor_si128(_mm_shuffle_epi8(tl[2], n2), _mm_shuffle_epi8(tl[3], n3)),
                    );
                    let p_hi = _mm_xor_si128(
                        _mm_xor_si128(_mm_shuffle_epi8(th[0], n0), _mm_shuffle_epi8(th[1], n1)),
                        _mm_xor_si128(_mm_shuffle_epi8(th[2], n2), _mm_shuffle_epi8(th[3], n3)),
                    );
                    if OP == XOR {
                        d_lo = _mm_xor_si128(d_lo, s_lo);
                        d_hi = _mm_xor_si128(d_hi, s_hi);
                    } else if OP == MUL_ADD || OP == IFFT || OP == FFT || OP == MERGED {
                        d_lo = _mm_xor_si128(d_lo, p_lo);
                        d_hi = _mm_xor_si128(d_hi, p_hi);
                    } else {
                        d_lo = p_lo;
                        d_hi = p_hi;
                    }
                    _mm_storeu_si128(x_lo.cast(), d_lo);
                    _mm_storeu_si128(x_hi.cast(), d_hi);
                    if OP == FFT || OP == MERGED {
                        _mm_storeu_si128(y_lo.cast(), _mm_xor_si128(s_lo, d_lo));
                        _mm_storeu_si128(y_hi.cast(), _mm_xor_si128(s_hi, d_hi));
                    }
                    i += 16;
                }
                base += shard_bytes;
            }
        }
    }

    /// Runs `OP` over all full 32-symbol chunks of every shard.
    ///
    /// # Safety
    ///
    /// The host must support AVX2; region contract as
    /// [`super::Multiplier::vector`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn body_avx2<const OP: u8>(
        x: *mut u8,
        y: *mut u8,
        len: usize,
        shard_bytes: usize,
        tables: &ByteTables,
    ) {
        let half = shard_bytes / 2;
        // SAFETY: as `body_ssse3` with 32-byte chunks (`i + 32 <= half`);
        // table loads read 16 bytes from 16-byte arrays, then broadcast
        // in-register.
        unsafe {
            let mut tl = [_mm256_setzero_si256(); 4];
            let mut th = [_mm256_setzero_si256(); 4];
            for j in 0..4 {
                tl[j] = _mm256_broadcastsi128_si256(_mm_loadu_si128(tables.0[j].as_ptr().cast()));
                th[j] = _mm256_broadcastsi128_si256(_mm_loadu_si128(tables.1[j].as_ptr().cast()));
            }
            let mask = _mm256_set1_epi8(0x0F);
            let mut base = 0;
            while base < len {
                let mut i = base;
                while i + 32 <= base + half {
                    let (x_lo, x_hi) = (x.add(i), x.add(half + i));
                    let (y_lo, y_hi) = (y.add(i), y.add(half + i));
                    let mut s_lo = _mm256_loadu_si256(y_lo.cast());
                    let mut s_hi = _mm256_loadu_si256(y_hi.cast());
                    let mut d_lo = _mm256_loadu_si256(x_lo.cast());
                    let mut d_hi = _mm256_loadu_si256(x_hi.cast());
                    if OP == IFFT || OP == MERGED {
                        s_lo = _mm256_xor_si256(s_lo, d_lo);
                        s_hi = _mm256_xor_si256(s_hi, d_hi);
                        if OP == IFFT {
                            _mm256_storeu_si256(y_lo.cast(), s_lo);
                            _mm256_storeu_si256(y_hi.cast(), s_hi);
                        }
                    }
                    let n0 = _mm256_and_si256(s_lo, mask);
                    let n1 = _mm256_and_si256(_mm256_srli_epi64::<4>(s_lo), mask);
                    let n2 = _mm256_and_si256(s_hi, mask);
                    let n3 = _mm256_and_si256(_mm256_srli_epi64::<4>(s_hi), mask);
                    let p_lo = _mm256_xor_si256(
                        _mm256_xor_si256(
                            _mm256_shuffle_epi8(tl[0], n0),
                            _mm256_shuffle_epi8(tl[1], n1),
                        ),
                        _mm256_xor_si256(
                            _mm256_shuffle_epi8(tl[2], n2),
                            _mm256_shuffle_epi8(tl[3], n3),
                        ),
                    );
                    let p_hi = _mm256_xor_si256(
                        _mm256_xor_si256(
                            _mm256_shuffle_epi8(th[0], n0),
                            _mm256_shuffle_epi8(th[1], n1),
                        ),
                        _mm256_xor_si256(
                            _mm256_shuffle_epi8(th[2], n2),
                            _mm256_shuffle_epi8(th[3], n3),
                        ),
                    );
                    if OP == XOR {
                        d_lo = _mm256_xor_si256(d_lo, s_lo);
                        d_hi = _mm256_xor_si256(d_hi, s_hi);
                    } else if OP == MUL_ADD || OP == IFFT || OP == FFT || OP == MERGED {
                        d_lo = _mm256_xor_si256(d_lo, p_lo);
                        d_hi = _mm256_xor_si256(d_hi, p_hi);
                    } else {
                        d_lo = p_lo;
                        d_hi = p_hi;
                    }
                    _mm256_storeu_si256(x_lo.cast(), d_lo);
                    _mm256_storeu_si256(x_hi.cast(), d_hi);
                    if OP == FFT || OP == MERGED {
                        _mm256_storeu_si256(y_lo.cast(), _mm256_xor_si256(s_lo, d_lo));
                        _mm256_storeu_si256(y_hi.cast(), _mm256_xor_si256(s_hi, d_hi));
                    }
                    i += 32;
                }
                base += shard_bytes;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// x86-64 GFNI at AVX-512 width: four affine instructions per 64 symbols,
// tails under a byte mask.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod gfni {
    use super::{FFT, IFFT, MERGED, MUL_ADD, XOR};
    use std::arch::x86_64::*;

    /// One 64-symbol (or `k`-masked shorter) chunk of `OP`.
    ///
    /// # Safety
    ///
    /// The host must support GFNI + AVX-512F + AVX-512BW; each pointer
    /// must be valid for the lanes `k` selects (all 64 when `!MASKED`).
    #[inline]
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    unsafe fn chunk<const OP: u8, const MASKED: bool>(
        [x_lo, x_hi, y_lo, y_hi]: [*mut u8; 4],
        k: __mmask64,
        [a, b, c, d]: [__m512i; 4],
    ) {
        // SAFETY: every access is a full 64-byte vector (`!MASKED`) or
        // confined to the lanes of `k` (`MASKED`: masked-off lanes are
        // neither read nor written and cannot fault), which the caller
        // vouches for; all four vectors are loaded before the first
        // store, so `x == y` is sound.
        unsafe {
            let load = |p: *mut u8| {
                if MASKED {
                    _mm512_maskz_loadu_epi8(k, p.cast())
                } else {
                    _mm512_loadu_si512(p.cast())
                }
            };
            let store = |p: *mut u8, v: __m512i| {
                if MASKED {
                    _mm512_mask_storeu_epi8(p.cast(), k, v)
                } else {
                    _mm512_storeu_si512(p.cast(), v)
                }
            };
            let mut s_lo = load(y_lo);
            let mut s_hi = load(y_hi);
            let mut d_lo = load(x_lo);
            let mut d_hi = load(x_hi);
            if OP == IFFT || OP == MERGED {
                s_lo = _mm512_xor_si512(s_lo, d_lo);
                s_hi = _mm512_xor_si512(s_hi, d_hi);
                if OP == IFFT {
                    store(y_lo, s_lo);
                    store(y_hi, s_hi);
                }
            }
            let (al, bh) = (
                _mm512_gf2p8affine_epi64_epi8::<0>(s_lo, a),
                _mm512_gf2p8affine_epi64_epi8::<0>(s_hi, b),
            );
            let (cl, dh) = (
                _mm512_gf2p8affine_epi64_epi8::<0>(s_lo, c),
                _mm512_gf2p8affine_epi64_epi8::<0>(s_hi, d),
            );
            if OP == XOR {
                d_lo = _mm512_xor_si512(d_lo, s_lo);
                d_hi = _mm512_xor_si512(d_hi, s_hi);
            } else if OP == MUL_ADD || OP == IFFT || OP == FFT || OP == MERGED {
                // Three-way XOR in one VPTERNLOGQ (truth table 0x96).
                d_lo = _mm512_ternarylogic_epi64::<0x96>(d_lo, al, bh);
                d_hi = _mm512_ternarylogic_epi64::<0x96>(d_hi, cl, dh);
            } else {
                d_lo = _mm512_xor_si512(al, bh);
                d_hi = _mm512_xor_si512(cl, dh);
            }
            store(x_lo, d_lo);
            store(x_hi, d_hi);
            if OP == FFT || OP == MERGED {
                store(y_lo, _mm512_xor_si512(s_lo, d_lo));
                store(y_hi, _mm512_xor_si512(s_hi, d_hi));
            }
        }
    }

    /// Runs `OP` over every symbol of every shard.
    ///
    /// # Safety
    ///
    /// The host must support GFNI + AVX-512F + AVX-512BW; region contract
    /// as [`super::Multiplier::vector`].
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    pub(super) unsafe fn body<const OP: u8>(
        x: *mut u8,
        y: *mut u8,
        len: usize,
        shard_bytes: usize,
        affine: &[u64; 4],
    ) {
        let half = shard_bytes / 2;
        let full = half / 64 * 64;
        let tail: __mmask64 = (1u64 << (half - full)) - 1;
        // SAFETY: plane accesses sit at `base + i` and `base + half + i`
        // with `base + shard_bytes <= len`: full chunks keep
        // `i + 64 <= half`, the tail chunk is masked to the
        // `half - full < 64` remaining lanes.
        unsafe {
            let m = affine.map(|q| _mm512_set1_epi64(q as i64));
            let mut base = 0;
            while base < len {
                let planes = |i: usize| {
                    [
                        x.add(base + i),
                        x.add(base + half + i),
                        y.add(base + i),
                        y.add(base + half + i),
                    ]
                };
                let mut i = 0;
                while i < full {
                    chunk::<OP, false>(planes(i), !0, m);
                    i += 64;
                }
                if tail != 0 {
                    chunk::<OP, true>(planes(full), tail, m);
                }
                base += shard_bytes;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AArch64 NEON TBL body. NEON is mandatory on AArch64; the only unsafety is
// the raw-pointer access, bounded like x86's.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{ByteTables, FFT, IFFT, MERGED, MUL_ADD, XOR};
    use std::arch::aarch64::*;

    /// Runs `OP` over all full 16-symbol chunks of every shard.
    ///
    /// # Safety
    ///
    /// Region contract as [`super::Multiplier::vector`].
    pub(super) unsafe fn body<const OP: u8>(
        x: *mut u8,
        y: *mut u8,
        len: usize,
        shard_bytes: usize,
        tables: &ByteTables,
    ) {
        let half = shard_bytes / 2;
        // SAFETY: NEON is architecturally guaranteed on AArch64; plane
        // accesses sit at `base + i` and `base + half + i` with
        // `i + 16 <= half` and `base + shard_bytes <= len`; every vector
        // of a chunk is loaded before the chunk's first store, so
        // `x == y` is sound.
        unsafe {
            let mut tl = [vdupq_n_u8(0); 4];
            let mut th = [vdupq_n_u8(0); 4];
            for j in 0..4 {
                tl[j] = vld1q_u8(tables.0[j].as_ptr());
                th[j] = vld1q_u8(tables.1[j].as_ptr());
            }
            let mask = vdupq_n_u8(0x0F);
            let mut base = 0;
            while base < len {
                let mut i = base;
                while i + 16 <= base + half {
                    let (x_lo, x_hi) = (x.add(i), x.add(half + i));
                    let (y_lo, y_hi) = (y.add(i), y.add(half + i));
                    let mut s_lo = vld1q_u8(y_lo);
                    let mut s_hi = vld1q_u8(y_hi);
                    let mut d_lo = vld1q_u8(x_lo);
                    let mut d_hi = vld1q_u8(x_hi);
                    if OP == IFFT || OP == MERGED {
                        s_lo = veorq_u8(s_lo, d_lo);
                        s_hi = veorq_u8(s_hi, d_hi);
                        if OP == IFFT {
                            vst1q_u8(y_lo, s_lo);
                            vst1q_u8(y_hi, s_hi);
                        }
                    }
                    let n0 = vandq_u8(s_lo, mask);
                    let n1 = vshrq_n_u8(s_lo, 4);
                    let n2 = vandq_u8(s_hi, mask);
                    let n3 = vshrq_n_u8(s_hi, 4);
                    let p_lo = veorq_u8(
                        veorq_u8(vqtbl1q_u8(tl[0], n0), vqtbl1q_u8(tl[1], n1)),
                        veorq_u8(vqtbl1q_u8(tl[2], n2), vqtbl1q_u8(tl[3], n3)),
                    );
                    let p_hi = veorq_u8(
                        veorq_u8(vqtbl1q_u8(th[0], n0), vqtbl1q_u8(th[1], n1)),
                        veorq_u8(vqtbl1q_u8(th[2], n2), vqtbl1q_u8(th[3], n3)),
                    );
                    if OP == XOR {
                        d_lo = veorq_u8(d_lo, s_lo);
                        d_hi = veorq_u8(d_hi, s_hi);
                    } else if OP == MUL_ADD || OP == IFFT || OP == FFT || OP == MERGED {
                        d_lo = veorq_u8(d_lo, p_lo);
                        d_hi = veorq_u8(d_hi, p_hi);
                    } else {
                        d_lo = p_lo;
                        d_hi = p_hi;
                    }
                    vst1q_u8(x_lo, d_lo);
                    vst1q_u8(x_hi, d_hi);
                    if OP == FFT || OP == MERGED {
                        vst1q_u8(y_lo, veorq_u8(s_lo, d_lo));
                        vst1q_u8(y_hi, veorq_u8(s_hi, d_hi));
                    }
                    i += 16;
                }
                base += shard_bytes;
            }
        }
    }
}

#[cfg(all(test, not(nc_check)))]
mod tests {
    use super::*;
    use crate::tables::tables;

    /// Symbol-by-symbol scalar reference through `Tables::mul`.
    fn reference_mul_add(t: &Tables, dst: &[u8], src: &[u8], m: u16) -> Vec<u8> {
        let half = dst.len() / 2;
        let mut out = dst.to_vec();
        for i in 0..half {
            let s = u16::from(src[i]) | u16::from(src[half + i]) << 8;
            let p = t.mul(s, m);
            out[i] ^= p as u8;
            out[half + i] ^= (p >> 8) as u8;
        }
        out
    }

    #[test]
    fn detection_is_cached_and_consistent() {
        let first = active_kernel();
        for _ in 0..3 {
            assert_eq!(active_kernel(), first);
        }
        assert!(first.is_available());
        assert!(Gf16Kernel::available().contains(&first));
        assert_eq!(metrics().kernel_id.get(), f64::from(first.id()));
    }

    #[test]
    fn portable_is_always_available_and_last() {
        assert!(Gf16Kernel::Portable.is_available());
        assert_eq!(*Gf16Kernel::available().last().unwrap(), Gf16Kernel::Portable);
    }

    #[test]
    fn override_resolution_is_loud_about_what_it_ignores() {
        let best = Gf16Kernel::available()[0];
        assert_eq!(resolve_override(None), (best, None));
        assert_eq!(resolve_override(Some("auto")), (best, None));
        assert_eq!(resolve_override(Some("portable")), (Gf16Kernel::Portable, None));
        assert_eq!(resolve_override(Some("avx9000")), (best, Some("is not a known backend")));
        for kernel in [Gf16Kernel::Ssse3, Gf16Kernel::Avx2, Gf16Kernel::Neon, Gf16Kernel::Gfni] {
            let expected = if kernel.is_available() {
                (kernel, None)
            } else {
                (best, Some("is not supported by this CPU"))
            };
            assert_eq!(resolve_override(Some(kernel.name())), expected, "{kernel:?}");
        }

        let before = metrics().backend_override_unavailable.get();
        note_override_ignored("avx9000", "is not a known backend", best);
        assert_eq!(metrics().backend_override_unavailable.get(), before + 1);
    }

    #[test]
    fn every_available_kernel_matches_scalar() {
        let t = tables();
        for len in [0usize, 2, 30, 32, 34, 62, 64, 66, 126, 130, 258] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let dst0: Vec<u8> = (0..len).map(|i| (i * 91 + 5) as u8).collect();
            for m in [1u16, 2, 3, 0x1234, 0x8000, 0xFFFF] {
                let log_m = t.log[usize::from(m)];
                let want = reference_mul_add(&t, &dst0, &src, m);
                for kernel in Gf16Kernel::available() {
                    let mut dst = dst0.clone();
                    mul_add_assign_with_kernel(kernel, &t, &mut dst, &src, log_m);
                    assert_eq!(dst, want, "mul_add kernel {kernel:?}, m={m:#x}, len={len}");

                    let mut dst = dst0.clone();
                    mul_into_with_kernel(kernel, &t, &mut dst, &src, log_m);
                    let pure: Vec<u8> = reference_mul_add(&t, &vec![0u8; len], &src, m);
                    assert_eq!(dst, pure, "mul_into kernel {kernel:?}, m={m:#x}, len={len}");

                    let mut dst = src.clone();
                    mul_assign_with_kernel(kernel, &t, &mut dst, log_m);
                    assert_eq!(dst, pure, "mul_assign kernel {kernel:?}, m={m:#x}, len={len}");
                }
            }
        }
    }

    #[test]
    fn affine_quadrants_match_the_bitwise_definition() {
        let t = tables();
        if !Gf16Kernel::Gfni.is_available() {
            eprintln!("skipped: gfni rung not available on this host");
            return;
        }
        for log_m in [0u16, 1, 77, 0x4321, MODULUS - 1] {
            let mul = Multiplier::new(Gf16Kernel::Gfni, &t, log_m);
            for (q, &matrix) in mul.form.affine.iter().enumerate() {
                let (in_base, out_base) = (8 * (q % 2), 8 * (q / 2));
                for i in 0..8 {
                    let row = matrix.to_le_bytes()[7 - i];
                    for j in 0..8 {
                        let product = t.mul_log(1 << (in_base + j), log_m);
                        assert_eq!(row >> j & 1, (product >> (out_base + i)) as u8 & 1);
                    }
                }
            }
        }
    }

    #[test]
    fn nibble_basis_builds_the_forms_of_the_products() {
        let t = tables();
        for m in [1u16, 2, 0x000F, 0x0F0F, 0x1234, 0x8000, 0xFFFF] {
            let (mut lo, mut hi) = (0u128, 0u128);
            for j in 0..16 {
                let p = u128::from(t.mul(m, 1 << j));
                lo |= (p & 0xFF) << (8 * j);
                hi |= (p >> 8) << (8 * j);
            }
            let want = MultiplierForm::from_products(lo, hi);
            let log_m = t.log[usize::from(m)];
            let shuffle = Multiplier::new(Gf16Kernel::Portable, &t, log_m);
            assert_eq!(shuffle.form.bytes, want.bytes, "m={m:#x}");
            if Gf16Kernel::Gfni.is_available() {
                let gfni = Multiplier::new(Gf16Kernel::Gfni, &t, log_m);
                assert_eq!(gfni.form.affine, want.affine, "m={m:#x}");
            }
        }
    }

    #[test]
    fn wrap_log_coefficients_are_identity_fast_paths() {
        let t = tables();
        let src: Vec<u8> = (0..66).map(|i| (i * 3 + 1) as u8).collect();
        for log_m in [0u16, MODULUS] {
            for kernel in Gf16Kernel::available() {
                let mut dst = vec![0u8; 66];
                mul_add_assign_with_kernel(kernel, &t, &mut dst, &src, log_m);
                assert_eq!(dst, src, "×1 must reduce to xor (kernel {kernel:?})");
                let mut inplace = src.clone();
                mul_assign_with_kernel(kernel, &t, &mut inplace, log_m);
                assert_eq!(inplace, src);
            }
        }
    }

    #[test]
    fn unavailable_kernel_falls_back_portably() {
        let foreign = [Gf16Kernel::Gfni, Gf16Kernel::Avx2, Gf16Kernel::Ssse3, Gf16Kernel::Neon]
            .into_iter()
            .find(|k| !k.is_available());
        let Some(kernel) = foreign else {
            return; // host supports everything it could name
        };
        let t = tables();
        let src: Vec<u8> = (0..64).map(|i| i as u8).collect();
        let mut dst = vec![0xAA; 64];
        let want = reference_mul_add(&t, &dst, &src, 0x1D2C);
        mul_add_assign_with_kernel(kernel, &t, &mut dst, &src, t.log[0x1D2C]);
        assert_eq!(dst, want);
        assert_eq!(Multiplier::new(kernel, &t, 5).kernel, Gf16Kernel::Portable);
    }

    #[test]
    fn xor_assign_is_plain_xor() {
        let a: Vec<u8> = (0..98).map(|i| (i * 5) as u8).collect();
        let b: Vec<u8> = (0..98).map(|i| (i * 11 + 3) as u8).collect();
        let want: Vec<u8> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
        let mut dst = a.clone();
        xor_assign(&mut dst, &b);
        assert_eq!(dst, want);
    }
}
