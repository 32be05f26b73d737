//! The GF kernel ladder: one enum of rungs, resolved once, and one body per
//! instruction set for both fields the workspace codes over.
//!
//! The paper's CPU baseline codes 16 bytes per instruction with SSE2; the
//! modern equivalent (Günther et al., *Galois Field Arithmetics for Linear
//! Network Coding using AVX512*, and the Leopard/`reed-solomon-simd`
//! lineage) resolves `x ↦ c·x` on a byte with two 16-entry half-byte
//! product tables, one in-register shuffle each:
//!
//! ```text
//! product = PSHUFB(lo_table, src & 0x0F) ^ PSHUFB(hi_table, src >> 4)
//! ```
//!
//! That table pair — or the one `GF2P8AFFINEQB` matrix computing the same
//! product — is one *8×8 block*, a GF(2)-linear map on bytes. A constant of
//! a field whose symbols span `P` byte planes is a `P × P` grid of blocks
//! ([`Blocks`]): GF(2^8) is the 1×1 case ([`crate::region`]), `nc-fft`'s
//! GF(2^16) over lo/hi planes the 2×2 case ([`crate::planes`]). [`Kernel`]
//! names every way this crate can run a region operation, fastest first:
//!
//! | `NC_GF_BACKEND` | id | GF(2^8) rung | two planes (GF(2^16)) |
//! |---|---|---|---|
//! | `gfni` | 5 | `GF2P8AFFINEQB`, the field as an instruction (512-bit EVEX with AVX-512BW, else 256-bit VEX) | the same body |
//! | `avx512` | 4 | 64-byte `VPSHUFB` with `k`-masked tails | the same body |
//! | `avx2` | 2 | 32-byte `VPSHUFB` | the same body |
//! | `neon` | 3 | AArch64 16-byte `TBL` | the same body |
//! | `ssse3` | 1 | 16-byte `PSHUFB` | the same body |
//! | `portable` / `table` | 0 | one L1-resident 256-byte product-table row per coefficient | the portable symbol walk |
//! | `nibble` | 8 | the two half-byte tables, one byte at a time | the portable symbol walk |
//! | `loopwide` | 7 | loop-based multiply over 8-byte lanes (the paper's Sec. 4 form) | the portable symbol walk |
//! | `logexp` | 6 | log/exp lookups per byte (the paper's Fig. 1 baseline) | the portable symbol walk |
//! | unset / empty / `auto` / `simd` | | the first of these the host has | |
//!
//! The last three exist for ablation and as references; every rung produces
//! identical bytes (`tests/simd_dispatch.rs`, and `nc-fft`'s
//! `tests/gf16_dispatch.rs` for two planes). [`Rung::body`] names the body
//! a rung runs at a plane count.
//!
//! The rung is resolved **once** — `NC_GF_BACKEND`, then availability, then
//! a loud fallback — into a [`Rung`]: a kernel this host was *verified* to
//! run, which only [`Rung::new`] can make. Both fields' operations load
//! that one value and `match` on it; nothing on the per-call path asks the
//! CPU what it supports, and the `unsafe` bodies discharge their
//! `target_feature` obligation against the `Rung` invariant. A forced
//! kernel the host cannot run is **not** silently honored: resolution logs
//! the downgrade to stderr and bumps `gf.backend_override_unavailable`, and
//! the rung that runs is the `gf.kernel_id` gauge ([`Kernel::id`]).
//!
//! There is one vector body, written once against the `Isa` trait (a
//! vector register's loads, stores and XOR, and one block applied to one
//! vector) and generic over the operation — `MUL_ADD` (`x ^= m·y`),
//! `MUL_INTO` (`x = m·y`, `x == y` allowed), `XOR`, and the fused
//! additive-FFT butterflies of [`crate::planes`] — and the plane count.
//! Each rung instantiates it, and the four-source blocked axpy behind
//! [`crate::region::dot_assign`] ([`DOT_BLOCK`] blocks in registers, each
//! destination line streamed once per block), in a `#[target_feature]`
//! entry point. The GFNI rung adds the register tile of eight outputs
//! behind [`crate::region::matrix_mul_add`].

// All `unsafe` in the crate lives in this module and its children
// (`simd_x86.rs`, `simd_gfni.rs`, `simd_neon.rs`): each block is a
// straight mapping to documented vendor intrinsics, with the safety
// argument (the `Rung` invariant + in-bounds pointer arithmetic) stated per
// block.
#![allow(unsafe_code)]

use crate::scalar::{mul_loop, mul_table};
use crate::tables::{const_mul, MUL};
use crate::wide::mul_word64;
use std::sync::OnceLock;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[path = "simd_x86.rs"]
mod simd_x86;

#[cfg(target_arch = "x86_64")]
#[path = "simd_gfni.rs"]
mod simd_gfni;

#[cfg(target_arch = "aarch64")]
#[path = "simd_neon.rs"]
mod simd_neon;

/// One way of running the region operations: a rung of the ladder.
///
/// Every variant exists on every architecture so cross-platform tools
/// (benches, the equivalence suite) compile everywhere; whether this host
/// can run one is `Kernel::is_available`, and running one takes a
/// [`Rung`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Kernel {
    /// One 256-byte product-table row per coefficient, a byte at a time:
    /// correct everywhere, no ISA required (`NC_GF_BACKEND=portable` or
    /// `table`).
    Portable = 0,
    /// x86-64 SSSE3 `PSHUFB`, 16 bytes per table pair.
    Ssse3 = 1,
    /// x86-64 AVX2 `VPSHUFB`, 32 bytes per table pair.
    Avx2 = 2,
    /// AArch64 NEON `TBL`, 16 bytes per table pair.
    Neon = 3,
    /// x86-64 AVX-512BW `VPSHUFB`, 64 bytes per table pair with masked
    /// tails.
    Avx512 = 4,
    /// x86-64 GFNI `GF2P8AFFINEQB` — the field as an instruction, no
    /// tables (512-bit EVEX when AVX-512BW is present, 256-bit VEX
    /// otherwise).
    Gfni = 5,
    /// Log/exp lookups per byte (the paper's baseline, Fig. 1).
    LogExp = 6,
    /// Loop-based multiplication over 64-bit lanes.
    LoopWide = 7,
    /// Half-byte (nibble) tables, 32 bytes of state per coefficient, a byte
    /// at a time.
    Nibble = 8,
}

impl Kernel {
    /// Every rung, fastest first: the ISA rungs, the portable table row,
    /// then the three reference rungs.
    pub const ALL: [Kernel; 9] = [
        Kernel::Gfni,
        Kernel::Avx512,
        Kernel::Avx2,
        Kernel::Neon,
        Kernel::Ssse3,
        Kernel::Portable,
        Kernel::Nibble,
        Kernel::LoopWide,
        Kernel::LogExp,
    ];

    /// Human-readable kernel name (stable across releases; used by reports,
    /// and the value of `NC_GF_BACKEND` that selects the rung).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            Kernel::Ssse3 => "ssse3",
            Kernel::Avx2 => "avx2",
            Kernel::Neon => "neon",
            Kernel::Avx512 => "avx512",
            Kernel::Gfni => "gfni",
            Kernel::LogExp => "logexp",
            Kernel::LoopWide => "loopwide",
            Kernel::Nibble => "nibble",
        }
    }

    /// Stable numeric id for the `gf.kernel_id` telemetry gauge, so
    /// `--telemetry-json` artifacts record which rung actually ran.
    pub fn id(self) -> u8 {
        self as u8
    }

    /// Whether this host can execute the kernel right now.
    pub(crate) fn is_available(self) -> bool {
        match self {
            Kernel::Portable | Kernel::LogExp | Kernel::LoopWide | Kernel::Nibble => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            Kernel::Neon => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
            // GFNI's AVX2 floor keeps the 256-bit VEX bodies runnable;
            // SSE-only GFNI parts (e.g. Tremont) fall through to Ssse3.
            #[cfg(target_arch = "x86_64")]
            Kernel::Gfni => {
                std::arch::is_x86_feature_detected!("gfni")
                    && std::arch::is_x86_feature_detected!("avx2")
            }
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Every rung this host can run, in [`Kernel::ALL`]'s fastest-first
    /// order: `available()[0]` is what auto-detection picks.
    pub fn available() -> Vec<Rung> {
        Kernel::ALL.into_iter().filter_map(Rung::new).collect()
    }
}

/// A [`Kernel`] this host was verified to run — the value the explicit
/// `region::*_on` family and [`crate::planes::Multiplier`] take.
///
/// Only `Rung::new` makes one, and only after `Kernel::is_available`
/// said yes, so holding a `Rung` *is* the proof the vector bodies need: no
/// region call re-tests the CPU.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Rung {
    kernel: Kernel,
    /// [`Kernel::Gfni`] only: AVX-512F/BW are present too, so the 512-bit
    /// EVEX bodies (masked tails) run instead of the 256-bit VEX ones.
    wide: bool,
}

impl Rung {
    /// The rung for `kernel`, or `None` when this host cannot run it.
    pub fn new(kernel: Kernel) -> Option<Rung> {
        let wide = kernel == Kernel::Gfni && Kernel::Avx512.is_available();
        kernel.is_available().then_some(Rung { kernel, wide })
    }

    /// The kernel this rung runs.
    #[inline]
    pub fn kernel(self) -> Kernel {
        self.kernel
    }

    /// The kernel whose body runs a region operation over `planes` byte
    /// planes on this rung: the rung's own, except that the byte-at-a-time
    /// rungs (`portable`, `nibble`, `loopwide`, `logexp`) run a multi-plane
    /// operation on the portable symbol walk over the constant's nibble
    /// tables — they are GF(2^8) references, with no two-plane form of
    /// their own.
    #[inline]
    pub fn body(self, planes: usize) -> Kernel {
        match self.kernel {
            Kernel::LogExp | Kernel::LoopWide | Kernel::Nibble if planes > 1 => Kernel::Portable,
            kernel => kernel,
        }
    }

    /// The rung every region operation without an explicit one runs, in
    /// both fields: resolved once per process and cached.
    ///
    /// Honors `NC_GF_BACKEND` (any [`Kernel::name`], `table` for
    /// `portable`; unset, empty, `auto` or `simd` detect). A value that
    /// names no kernel, or one the host lacks, degrades to the best
    /// available rung rather than crashing, so ablation scripts are
    /// portable — but the downgrade is logged to stderr once and counted in
    /// the `gf.backend_override_unavailable` telemetry counter so it can't
    /// pass unnoticed. The selected rung is published as the `gf.kernel_id`
    /// gauge.
    #[inline]
    pub fn active() -> Rung {
        static ACTIVE: OnceLock<Rung> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            let value = std::env::var("NC_GF_BACKEND").ok().map(|v| v.trim().to_ascii_lowercase());
            let (rung, ignored) = resolve_override(value.as_deref());
            let registry = nc_telemetry::default_registry();
            if let Some(why) = ignored {
                let (value, name) = (value.unwrap_or_default(), rung.kernel.name());
                eprintln!("nc-gf256: NC_GF_BACKEND={value} {why}; falling back to `{name}`");
                registry.counter("gf.backend_override_unavailable").inc();
            }
            registry.gauge("gf.kernel_id").set(f64::from(rung.kernel.id()));
            rung
        })
    }
}

/// The kernel of [`Rung::active`]: what `region::*` and `planes::*` run in
/// this process.
#[inline]
pub fn active_kernel() -> Kernel {
    Rung::active().kernel
}

/// The rung an `NC_GF_BACKEND` value (trimmed, lower-cased) selects, and
/// why the value was ignored if it was.
fn resolve_override(value: Option<&str>) -> (Rung, Option<&'static str>) {
    let best = Kernel::available()[0];
    let name = match value {
        None | Some("" | "auto" | "simd") => return (best, None),
        // The product-table-row loop went by both names.
        Some("table") => "portable",
        Some(name) => name,
    };
    match Kernel::ALL.into_iter().find(|k| k.name() == name).map(Rung::new) {
        None => (best, Some("is not a known backend")),
        Some(None) => (best, Some("is not supported by this CPU")),
        Some(Some(rung)) => (rung, None),
    }
}

/// How many coefficient rows [`crate::region::dot_assign`] folds per pass:
/// the half-byte tables of four coefficients (eight vectors) plus the
/// nibble mask, accumulator and source loads fit the 16 architectural
/// vector registers of every supported ISA.
pub const DOT_BLOCK: usize = 4;

// ---------------------------------------------------------------------------
// A constant as blocks.
// ---------------------------------------------------------------------------

/// Multiplication by one constant as a `P × P` grid of 8×8 GF(2) blocks over
/// `P` byte planes: block `(o, i)` maps input plane `i` into output plane
/// `o`, and output plane `o` is the XOR of its row. GF(2^8) is the 1×1
/// case; a GF(2^16) constant over lo/hi planes is the 2×2 case
/// `out_lo = A·lo ^ B·hi`, `out_hi = C·lo ^ D·hi`.
///
/// Each block is held in both forms a body consumes: two 16-entry
/// half-byte product tables (the shuffle rungs and the portable walk) and
/// one `GF2P8AFFINEQB` matrix (the GFNI rung). Both are linear in the
/// constant, so the form of a sum of constants is the XOR of theirs
/// ([`crate::planes::Multiplier::sum`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blocks<const P: usize> {
    /// Block `(o, i)`'s tables for the low and the high nibble of a byte of
    /// plane `i`: entry `v` is the plane-`o` byte of the image of `v` (of
    /// `v << 4`).
    nibbles: [[[[u8; 16]; 2]; P]; P],
    /// Block `(o, i)` in `GF2P8AFFINEQB` operand layout.
    affine: [[u64; P]; P],
}

impl<const P: usize> Blocks<P> {
    /// The zero map.
    pub const ZERO: Blocks<P> = Blocks { nibbles: [[[[0; 16]; 2]; P]; P], affine: [[0; P]; P] };

    /// The blocks of the linear map given column by column: byte `j` of
    /// `columns[o][i]` is the plane-`o` byte of the image of bit `j` of
    /// plane `i` (a linear map is fixed by the images of the bits).
    pub const fn from_columns(columns: [[u64; P]; P]) -> Blocks<P> {
        let mut blocks = Blocks::ZERO;
        let mut o = 0;
        while o < P {
            let mut i = 0;
            while i < P {
                let column = columns[o][i];
                // `GF2P8AFFINEQB` computes output bit r of a byte as
                // parity(matrix.byte[7 - r] & input): row r must select the
                // input bits j whose image has bit r set. The eight column
                // bytes are the transpose of that; `swap_bytes` then puts
                // row r into byte 7 - r.
                blocks.affine[o][i] = transpose8(column).swap_bytes();
                // Entry v of a nibble table is the XOR of the column bytes
                // of the set bits of v (bits 4..8 for the high nibble).
                let mut v = 0;
                while v < 16 {
                    let mut b = 0;
                    while b < 4 {
                        if v >> b & 1 == 1 {
                            blocks.nibbles[o][i][0][v] ^= (column >> (8 * b)) as u8;
                            blocks.nibbles[o][i][1][v] ^= (column >> (8 * (b + 4))) as u8;
                        }
                        b += 1;
                    }
                    v += 1;
                }
                i += 1;
            }
            o += 1;
        }
        blocks
    }

    /// The sum of the constants whose blocks are `parts` (forms are linear
    /// in the constant), in the forms `rung`'s `P`-plane body reads: the
    /// matrices on GFNI, the nibble tables on every other rung and on the
    /// 256-bit GFNI body's walked tails. The form no body reads stays zero.
    pub(crate) fn sum_for(rung: Rung, parts: &[&Blocks<P>]) -> Blocks<P> {
        let gfni = rung.body(P) == Kernel::Gfni;
        let mut sum = Blocks::ZERO;
        for part in parts {
            if !(gfni && rung.wide) {
                // Flat, so the XOR runs a vector at a time.
                let tables = sum.nibbles.as_flattened_mut().as_flattened_mut().as_flattened_mut();
                let part = part.nibbles.as_flattened().as_flattened().as_flattened();
                tables.iter_mut().zip(part).for_each(|(a, b)| *a ^= b);
            }
            if gfni {
                let matrices = sum.affine.as_flattened_mut();
                matrices.iter_mut().zip(part.affine.as_flattened()).for_each(|(a, b)| *a ^= b);
            }
        }
        sum
    }
}

/// Transposes an 8×8 bit-matrix held one row per byte.
const fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// The block of every GF(2^8) coefficient, built at compile time: a region
/// operation reads the 40 bytes of its coefficient's, and the zero and one
/// coefficients need no special case.
static BYTE_BLOCKS: [Blocks<1>; 256] = byte_blocks();

const fn byte_blocks() -> [Blocks<1>; 256] {
    let mut all = [Blocks::ZERO; 256];
    let mut c = 0;
    while c < 256 {
        let mut column = 0u64;
        let mut j = 0;
        while j < 8 {
            column |= (const_mul(c as u8, 1 << j) as u64) << (8 * j);
            j += 1;
        }
        all[c] = Blocks::from_columns([[column]]);
        c += 1;
    }
    all
}

/// The 1×1 block of `x ↦ c·x` in GF(2^8).
#[inline]
fn byte_block(c: u8) -> &'static Blocks<1> {
    &BYTE_BLOCKS[usize::from(c)]
}

// ---------------------------------------------------------------------------
// The safe seam `region` and `planes` call: each function checks the lengths
// its `unsafe` body relies on, then dispatches on the rung.
// ---------------------------------------------------------------------------

/// `x ^= m · y`.
pub(crate) const MUL_ADD: u8 = 0;
/// `x = m · y`; `x == y` is the in-place multiply.
pub(crate) const MUL_INTO: u8 = 1;
/// `x ^= y` (the constant is ignored).
pub(crate) const XOR: u8 = 2;
/// The IFFT butterfly `y ^= x; x ^= m·y`.
pub(crate) const IFFT: u8 = 3;
/// The FFT butterfly `x ^= m·y; y ^= x`.
pub(crate) const FFT: u8 = 4;
/// An IFFT butterfly then an FFT butterfly: `t = m·(x ^ y); x ^= t; y ^= t`.
pub(crate) const MERGED: u8 = 5;

/// Runs `OP` over two equally long GF(2^8) regions.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub(crate) fn apply<const OP: u8>(rung: Rung, dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "region length mismatch");
    // SAFETY: `dst` and `src` are distinct borrows, both of the length just
    // asserted; the single-region ops only read through `src`.
    unsafe { run::<OP>(rung, dst.as_mut_ptr(), src.as_ptr().cast_mut(), dst.len(), c) }
}

/// `dst = c · dst`: `MUL_INTO` with the region as its own source.
#[inline]
pub(crate) fn apply_in_place(rung: Rung, dst: &mut [u8], c: u8) {
    let p = dst.as_mut_ptr();
    // SAFETY: one borrow, read and written through one pointer — the
    // `dst == src` form `MUL_INTO` allows.
    unsafe { run::<MUL_INTO>(rung, p, p, dst.len(), c) }
}

/// `dst ^= Σ cs[j] · srcs[j]` in one pass over `dst`, if `rung` has a
/// blocked body; `false` (nothing done) on the rungs that have none.
///
/// # Panics
///
/// Panics if a source's length differs from `dst`'s.
#[inline]
pub(crate) fn dot4(
    rung: Rung,
    dst: &mut [u8],
    srcs: &[&[u8]; DOT_BLOCK],
    cs: [u8; DOT_BLOCK],
) -> bool {
    assert!(srcs.iter().all(|src| src.len() == dst.len()), "region length mismatch");
    // SAFETY: a `Rung` holds an ISA kernel only after `Rung::new` detected
    // its features on this host (`wide`: the AVX-512 side too), which is
    // each entry's `target_feature` contract; the assert above is the
    // bodies' equal-length contract.
    let done = unsafe {
        match rung.kernel {
            #[cfg(target_arch = "x86_64")]
            Kernel::Gfni if rung.wide => simd_x86::dot4_gfni512(dst, srcs, cs),
            #[cfg(target_arch = "x86_64")]
            Kernel::Gfni => simd_x86::dot4_gfni256(dst, srcs, cs),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => simd_x86::dot4_avx512(dst, srcs, cs),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Avx2 => simd_x86::dot4_avx2(dst, srcs, cs),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Ssse3 => simd_x86::dot4_ssse3(dst, srcs, cs),
            #[cfg(target_arch = "aarch64")]
            Kernel::Neon => simd_neon::dot4(dst, srcs, cs),
            _ => return false,
        }
    };
    for (src, &c) in srcs.iter().zip(&cs) {
        portable_mul_add(&mut dst[done..], &src[done..], c);
    }
    true
}

/// Checks the shape of `outs[t] ^= Σ_i coeffs[t][i] · sources[i]` and runs
/// the leading output rows `rung` has a register tile for (full groups of
/// eight on [`Kernel::Gfni`], none elsewhere); returns how many it did.
///
/// # Panics
///
/// Panics if `coeffs` and `outs` differ in length, a coefficient row's
/// length differs from `sources.len()`, or any output's or source's length
/// differs from the first output's.
pub(crate) fn matrix_tiles(
    rung: Rung,
    outs: &mut [&mut [u8]],
    sources: &[&[u8]],
    coeffs: &[&[u8]],
) -> usize {
    assert_eq!(outs.len(), coeffs.len(), "coefficient row count mismatch");
    let Some(len) = outs.first().map(|out| out.len()) else {
        return 0;
    };
    for (out, row) in outs.iter().zip(coeffs) {
        assert_eq!(out.len(), len, "region length mismatch");
        assert_eq!(row.len(), sources.len(), "coefficient count mismatch");
    }
    for src in sources {
        assert_eq!(src.len(), len, "region length mismatch");
    }
    match rung.kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Gfni => {
            // SAFETY: a `Rung` holds `Gfni` only after `Rung::new` detected
            // GFNI + AVX2 (`wide`: AVX-512F/BW too); the asserts above are
            // the equal-length and row-length contract, and `outs` holds
            // distinct `&mut` slices.
            unsafe { simd_gfni::matrix_tiles(rung.wide, outs, sources, coeffs) }
        }
        _ => 0,
    }
}

/// Runs the single-source `OP` (`MUL_ADD`, `MUL_INTO`) with `form` over one
/// shard of `P` planes read from `src`; panics as
/// [`crate::planes::Multiplier::mul_add`].
pub(crate) fn apply_planes<const OP: u8, const P: usize>(
    rung: Rung,
    form: &Blocks<P>,
    dst: &mut [u8],
    src: &[u8],
) {
    check_planes::<P>(dst.len(), src.len(), dst.len());
    let (x, y, len) = (dst.as_mut_ptr(), src.as_ptr().cast_mut(), dst.len());
    // SAFETY: equal lengths that are whole symbols, one shard (just
    // checked); `dst` and `src` are distinct borrows, and the single-source
    // ops only read through `src`.
    unsafe { run_planes::<OP, P>(rung, x, y, len, len, form) }
}

/// `dst = m · dst` over one shard of `P` planes: `MUL_INTO` with the region
/// as its own source; panics as [`crate::planes::Multiplier::mul_assign`].
pub(crate) fn apply_planes_in_place<const P: usize>(rung: Rung, form: &Blocks<P>, dst: &mut [u8]) {
    check_planes::<P>(dst.len(), dst.len(), dst.len());
    let (p, len) = (dst.as_mut_ptr(), dst.len());
    // SAFETY: one shard of whole symbols, read and written through one
    // pointer — the form `MUL_INTO` allows.
    unsafe { run_planes::<MUL_INTO, P>(rung, p, p, len, len, form) }
}

/// Runs the butterfly `OP` with `form` over two runs of `shard_bytes`-byte
/// shards of `P` planes; panics as
/// [`crate::planes::Multiplier::ifft_butterflies`].
pub(crate) fn butterflies<const OP: u8, const P: usize>(
    rung: Rung,
    form: &Blocks<P>,
    x: &mut [u8],
    y: &mut [u8],
    shard_bytes: usize,
) {
    check_planes::<P>(x.len(), y.len(), shard_bytes);
    let (px, py, len) = (x.as_mut_ptr(), y.as_mut_ptr(), x.len());
    // SAFETY: equal lengths, a whole number of shards of whole symbols
    // (just checked); `x` and `y` are distinct mutable borrows.
    unsafe { run_planes::<OP, P>(rung, px, py, len, shard_bytes, form) }
}

/// The length contract every plane body relies on.
fn check_planes<const P: usize>(x_len: usize, y_len: usize, shard_bytes: usize) {
    assert_eq!(x_len, y_len, "region length mismatch");
    assert!(shard_bytes.is_multiple_of(P), "plane regions carry whole symbols");
    assert!(x_len == 0 || (shard_bytes != 0 && x_len.is_multiple_of(shard_bytes)), "whole shards");
}

/// Runs `OP` with the constant `form` over every `shard`-byte shard of a
/// `len`-byte region of `P` planes on `rung`.
///
/// # Safety
///
/// `x` must be valid for reads and writes of `len` bytes; `y` for reads of
/// `len` bytes, and for writes too under the butterflies (which alone write
/// it). The two must be the same pointer (`MUL_INTO` only) or not overlap.
/// `shard` must be a multiple of `P` that divides `len`, and non-zero
/// unless `len` is.
unsafe fn run_planes<const OP: u8, const P: usize>(
    rung: Rung,
    x: *mut u8,
    y: *mut u8,
    len: usize,
    shard: usize,
    form: &Blocks<P>,
) {
    // One plane: every byte is a symbol, so a run of shards is one shard.
    let shard = if P == 1 { len } else { shard };
    // SAFETY: the region contract is the caller's, forwarded unchanged; the
    // vector body reports `done <= shard / P`, the walk's `from` contract.
    unsafe {
        let done = vector::<OP, P>(rung, x, y, len, shard, form);
        if done < shard / P {
            let by_input = by_input(form);
            walk::<OP, P>(x, y, len, shard, done, |s| product(&by_input, s));
        }
    }
}

/// Runs `OP` with coefficient `c` over `len` bytes of GF(2^8) on `rung`.
///
/// # Safety
///
/// Region contract as [`run_planes`] for one plane and one shard of `len`
/// bytes (`y` is only read).
#[inline]
unsafe fn run<const OP: u8>(rung: Rung, dst: *mut u8, src: *mut u8, len: usize, c: u8) {
    // SAFETY: the region contract is the caller's, forwarded unchanged, and
    // a vector body reports `done <= len`, so the walk stays inside it.
    unsafe {
        match rung.kernel {
            Kernel::LogExp => return walk::<OP, 1>(dst, src, len, len, 0, |[s]| [mul_table(c, s)]),
            Kernel::LoopWide => return loop_wide::<OP>(dst, src, len, c),
            Kernel::Nibble => {
                let [[[lo, hi]]] = &byte_block(c).nibbles;
                let product = |[s]: [u8; 1]| [lo[usize::from(s & 0x0F)] ^ hi[usize::from(s >> 4)]];
                return walk::<OP, 1>(dst, src, len, len, 0, product);
            }
            _ => {}
        }
        // The portable rung, and the sub-vector tail of the shuffle rungs.
        let done = vector::<OP, 1>(rung, dst, src, len, len, byte_block(c));
        if done < len {
            let row = &MUL[usize::from(c)];
            walk::<OP, 1>(dst, src, len, len, done, |[s]| [row[usize::from(s)]]);
        }
    }
}

/// Runs the vector body `rung` has for `P` planes over every shard and
/// returns how many leading symbols of each plane it did: all of them on
/// the masked rungs, the full vectors on the others, none on a rung with no
/// vector body. The caller walks the rest.
///
/// # Safety
///
/// Region contract as [`body`].
#[inline]
unsafe fn vector<const OP: u8, const P: usize>(
    rung: Rung,
    x: *mut u8,
    y: *mut u8,
    len: usize,
    shard: usize,
    form: &Blocks<P>,
) -> usize {
    // SAFETY: a `Rung` holds an ISA kernel only after `Rung::new` detected
    // its features on this host (`wide`: the AVX-512 side too), which is
    // each entry's `target_feature` contract; the region contract is the
    // caller's, forwarded unchanged.
    unsafe {
        match rung.body(P) {
            #[cfg(target_arch = "x86_64")]
            Kernel::Gfni if rung.wide => simd_x86::body_gfni512::<OP, P>(x, y, len, shard, form),
            #[cfg(target_arch = "x86_64")]
            Kernel::Gfni => simd_x86::body_gfni256::<OP, P>(x, y, len, shard, form),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => simd_x86::body_avx512::<OP, P>(x, y, len, shard, form),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Avx2 => simd_x86::body_avx2::<OP, P>(x, y, len, shard, form),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Ssse3 => simd_x86::body_ssse3::<OP, P>(x, y, len, shard, form),
            #[cfg(target_arch = "aarch64")]
            Kernel::Neon => simd_neon::body::<OP, P>(x, y, len, shard, form),
            // `Portable` and the byte-at-a-time rungs — and the ISA names
            // foreign to this target, which `Rung::new` never admits.
            _ => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// The one vector body, generic over the instruction set, the operation and
// the plane count.
// ---------------------------------------------------------------------------

/// One vector register: its loads, stores and XOR. The methods run
/// instructions the caller proves by holding the [`Rung`] whose ISA uses
/// the register, through pointers it vouches for; `#[inline(always)]`, they
/// compile into the `#[target_feature]` entry point of the body.
trait Lanes: Copy {
    /// Bytes per vector.
    const WIDTH: usize;
    /// Whether the body finishes each plane under a byte mask
    /// ([`Lanes::load_tail`]); otherwise the caller walks the tail.
    const MASKED: bool = false;

    /// `WIDTH` bytes at `p`.
    unsafe fn load(p: *const u8) -> Self;
    /// Stores the vector at `p`.
    unsafe fn store(self, p: *mut u8);
    /// The `n < WIDTH` bytes at `p`, zero above (masked registers only).
    unsafe fn load_tail(_p: *const u8, _n: usize) -> Self {
        unreachable!("only a masked ISA has tail loads")
    }
    /// Stores the low `n < WIDTH` bytes at `p` (masked registers only).
    unsafe fn store_tail(self, _p: *mut u8, _n: usize) {
        unreachable!("only a masked ISA has tail stores")
    }
    /// `self ^ other`.
    unsafe fn xor(self, other: Self) -> Self;

    /// A whole vector at `p`, or its low `n` bytes when `TAIL`.
    #[inline(always)]
    unsafe fn load_some<const TAIL: bool>(p: *const u8, n: usize) -> Self {
        // SAFETY: the caller's contract, forwarded.
        unsafe {
            if TAIL {
                Self::load_tail(p, n)
            } else {
                Self::load(p)
            }
        }
    }
    /// Stores a whole vector at `p`, or its low `n` bytes when `TAIL`.
    #[inline(always)]
    unsafe fn store_some<const TAIL: bool>(self, p: *mut u8, n: usize) {
        // SAFETY: the caller's contract, forwarded.
        unsafe {
            if TAIL {
                self.store_tail(p, n)
            } else {
                self.store(p)
            }
        }
    }
}

/// One instruction set as the generic bodies use it, under [`Lanes`]'
/// contract: a vector register and one 8×8 block applied to one vector.
trait Isa {
    type V: Lanes;
    /// One block in registers: its two nibble tables, or its matrix.
    type Block: Copy;
    /// A source vector prepared once for every block of its column: its two
    /// nibble index vectors, or itself.
    type Split: Copy;

    /// The block whose forms are `nibbles` and `matrix`, in registers.
    unsafe fn block(nibbles: &[[u8; 16]; 2], matrix: u64) -> Self::Block;
    /// `s` prepared for [`Isa::apply`].
    unsafe fn split(s: Self::V) -> Self::Split;
    /// The block applied to every byte of a prepared vector.
    unsafe fn apply(block: Self::Block, s: Self::Split) -> Self::V;
}

/// `OP` over every full vector of every plane of every shard — and, on a
/// masked ISA, each plane's tail under a byte mask; returns how many
/// leading symbols of each plane it did.
///
/// # Safety
///
/// The host must have `I`'s instructions; region contract as
/// [`run_planes`], with `shard == len` when `P == 1`.
#[inline(always)]
unsafe fn body<I: Isa, const OP: u8, const P: usize>(
    x: *mut u8,
    y: *mut u8,
    len: usize,
    shard: usize,
    form: &Blocks<P>,
) -> usize {
    let (width, masked) = (I::V::WIDTH, I::V::MASKED);
    let plane = shard / P;
    let full = plane / width * width;
    // SAFETY: the instructions are the caller's to vouch for. A shard at
    // `base` has `base + shard <= len`, so its plane `p` is the bytes
    // `[base + p·plane, base + (p + 1)·plane)` of both regions: a full chunk
    // at offset `k` touches `[k, k + width)` with `k + width <= full <=
    // plane` of each, the tail chunk `[full, plane)` under the mask.
    unsafe {
        let mut blocks = [[I::block(&form.nibbles[0][0], form.affine[0][0]); P]; P];
        for (o, row) in blocks.iter_mut().enumerate() {
            for (i, block) in row.iter_mut().enumerate() {
                *block = I::block(&form.nibbles[o][i], form.affine[o][i]);
            }
        }
        let mut base = 0;
        while base < len {
            let (xs, ys) = (x.add(base), y.add(base));
            let mut k = 0;
            while k < full {
                chunk::<I, OP, P, false>(xs.add(k), ys.add(k), plane, 0, &blocks);
                k += width;
            }
            if masked && full < plane {
                chunk::<I, OP, P, true>(xs.add(full), ys.add(full), plane, plane - full, &blocks);
            }
            if P == 1 {
                break; // one shard: no shard loop to keep registers for
            }
            base += shard;
        }
    }
    if masked {
        plane
    } else {
        full
    }
}

/// `OP` on one vector of each of the `P` planes that start at `x` and `y`,
/// `plane` bytes apart (the low `n` bytes of each when `TAIL`).
///
/// # Safety
///
/// The host must have `I`'s instructions; those bytes of every plane must
/// be readable in both regions and writable in `x` (in `y` too under the
/// butterflies), and the regions the same (`MUL_INTO` only) or disjoint.
#[inline(always)]
unsafe fn chunk<I: Isa, const OP: u8, const P: usize, const TAIL: bool>(
    x: *mut u8,
    y: *mut u8,
    plane: usize,
    n: usize,
    blocks: &[[I::Block; P]; P],
) {
    // SAFETY: every access is one vector (or its low `n` bytes) of a plane
    // the caller vouches for; the whole chunk is loaded before its first
    // store, so `x == y` is sound.
    unsafe {
        let mut s: [I::V; P] = [I::V::load_some::<TAIL>(y, n); P];
        let mut d: [I::V; P] = [I::V::load_some::<TAIL>(x, n); P];
        for p in 1..P {
            s[p] = I::V::load_some::<TAIL>(y.add(p * plane), n);
            d[p] = I::V::load_some::<TAIL>(x.add(p * plane), n);
        }
        if OP == IFFT || OP == MERGED {
            for p in 0..P {
                s[p] = s[p].xor(d[p]);
            }
        }
        if OP == IFFT {
            for (p, &s) in s.iter().enumerate() {
                s.store_some::<TAIL>(y.add(p * plane), n);
            }
        }
        let mut out = d;
        if OP == XOR {
            for p in 0..P {
                out[p] = d[p].xor(s[p]);
            }
        } else {
            let mut split = [I::split(s[0]); P];
            for i in 1..P {
                split[i] = I::split(s[i]);
            }
            for (o, row) in blocks.iter().enumerate() {
                let mut product = I::apply(row[0], split[0]);
                for i in 1..P {
                    product = product.xor(I::apply(row[i], split[i]));
                }
                out[o] = if OP == MUL_INTO { product } else { d[o].xor(product) };
            }
        }
        for (p, &out) in out.iter().enumerate() {
            out.store_some::<TAIL>(x.add(p * plane), n);
        }
        if OP == FFT || OP == MERGED {
            for p in 0..P {
                s[p].xor(out[p]).store_some::<TAIL>(y.add(p * plane), n);
            }
        }
    }
}

/// `dst ^= Σ_j cs[j] · srcs[j]` in GF(2^8) over every full vector of `dst`
/// (every byte on a masked ISA), the four blocks held in registers and each
/// destination vector loaded and stored once; returns the bytes done.
///
/// # Safety
///
/// The host must have `I`'s instructions; every source must be as long as
/// `dst`.
#[inline(always)]
unsafe fn dot4_body<I: Isa>(
    dst: &mut [u8],
    srcs: &[&[u8]; DOT_BLOCK],
    cs: [u8; DOT_BLOCK],
) -> usize {
    let (len, width) = (dst.len(), I::V::WIDTH);
    let full = len / width * width;
    let (d, s) = (dst.as_mut_ptr(), srcs.map(<[u8]>::as_ptr));
    // SAFETY: the instructions are the caller's to vouch for; every access
    // is a vector at `i + width <= full <= len`, or the `len - full` bytes
    // at `full` under the mask, of regions that are all `len` long.
    unsafe {
        let block = |c: u8| I::block(&byte_block(c).nibbles[0][0], byte_block(c).affine[0][0]);
        let mut blocks = [block(cs[0]); DOT_BLOCK];
        for j in 1..DOT_BLOCK {
            blocks[j] = block(cs[j]);
        }
        let mut i = 0;
        while i < full {
            fold4::<I, false>(d.add(i), &s, i, 0, &blocks);
            i += width;
        }
        if I::V::MASKED && full < len {
            fold4::<I, true>(d.add(full), &s, full, len - full, &blocks);
            return len;
        }
    }
    full
}

/// One vector (the low `n` bytes when `TAIL`) of [`dot4_body`] at offset
/// `i`.
///
/// # Safety
///
/// The host must have `I`'s instructions; those bytes at `d` and at
/// `s[j] + i` must be valid.
#[inline(always)]
unsafe fn fold4<I: Isa, const TAIL: bool>(
    d: *mut u8,
    s: &[*const u8; DOT_BLOCK],
    i: usize,
    n: usize,
    blocks: &[I::Block; DOT_BLOCK],
) {
    // SAFETY: the caller's contract, forwarded.
    unsafe {
        let mut acc = I::V::load_some::<TAIL>(d, n);
        for (src, &block) in s.iter().zip(blocks) {
            let v = I::V::load_some::<TAIL>(src.add(i), n);
            acc = acc.xor(I::apply(block, I::split(v)));
        }
        acc.store_some::<TAIL>(d, n);
    }
}

// ---------------------------------------------------------------------------
// Scalar bodies: the portable and reference rungs, and every vector rung's
// tail.
// ---------------------------------------------------------------------------

/// `a ^= b`, plane by plane.
#[inline]
fn xor_into<const P: usize>(a: &mut [u8; P], b: [u8; P]) {
    a.iter_mut().zip(b).for_each(|(a, b)| *a ^= b);
}

/// `OP` one symbol at a time over every `shard`-byte shard of a `len`-byte
/// region, from symbol `from` of each plane on; `product(s)` is the constant
/// times the symbol whose plane bytes are `s`.
///
/// # Safety
///
/// Region contract as [`run_planes`]; `from <= shard / P`.
#[inline]
unsafe fn walk<const OP: u8, const P: usize>(
    x: *mut u8,
    y: *mut u8,
    len: usize,
    shard: usize,
    from: usize,
    product: impl Fn([u8; P]) -> [u8; P],
) {
    let plane = shard / P;
    let mut base = 0;
    while base < len {
        for k in from..plane {
            let at = |p: usize| base + p * plane + k;
            // SAFETY: `at(p) < base + shard <= len` for every plane `p`,
            // inside both regions; every byte of a symbol is read before
            // any is written, so `x == y` is sound.
            unsafe {
                let (mut s, mut d) = ([0u8; P], [0u8; P]);
                for p in 0..P {
                    (s[p], d[p]) = (*y.add(at(p)), *x.add(at(p)));
                }
                match OP {
                    MUL_ADD => xor_into(&mut d, product(s)),
                    MUL_INTO => d = product(s),
                    XOR => xor_into(&mut d, s),
                    IFFT => {
                        xor_into(&mut s, d);
                        xor_into(&mut d, product(s));
                    }
                    FFT => {
                        xor_into(&mut d, product(s));
                        xor_into(&mut s, d);
                    }
                    _ => {
                        let mut sum = s;
                        xor_into(&mut sum, d);
                        let t = product(sum);
                        xor_into(&mut d, t);
                        xor_into(&mut s, t);
                    }
                }
                for p in 0..P {
                    *x.add(at(p)) = d[p];
                    if matches!(OP, IFFT | FFT | MERGED) {
                        *y.add(at(p)) = s[p];
                    }
                }
            }
        }
        base += shard;
    }
}

/// The nibble tables of `form` regrouped by input: entry `[i][n][v]` holds
/// the `P` output bytes of value `v` in nibble `n` of plane `i`, so the
/// walk pays two lookups per input plane.
fn by_input<const P: usize>(form: &Blocks<P>) -> [[[[u8; P]; 16]; 2]; P] {
    let mut by_input = [[[[0u8; P]; 16]; 2]; P];
    for (o, row) in form.nibbles.iter().enumerate() {
        for (i, tables) in row.iter().enumerate() {
            for (n, table) in tables.iter().enumerate() {
                for (v, &byte) in table.iter().enumerate() {
                    by_input[i][n][v][o] = byte;
                }
            }
        }
    }
    by_input
}

/// The constant of [`by_input`]'s tables times the symbol `s`.
#[inline]
fn product<const P: usize>(by_input: &[[[[u8; P]; 16]; 2]; P], s: [u8; P]) -> [u8; P] {
    let mut out = [0u8; P];
    for (tables, s) in by_input.iter().zip(s) {
        xor_into(&mut out, tables[0][usize::from(s & 0x0F)]);
        xor_into(&mut out, tables[1][usize::from(s >> 4)]);
    }
    out
}

/// `OP` over 8-byte lanes with the loop-based word multiply, byte tail by
/// the loop-based byte multiply: no table is touched.
///
/// # Safety
///
/// Region contract as [`run`].
unsafe fn loop_wide<const OP: u8>(dst: *mut u8, src: *mut u8, len: usize, c: u8) {
    let mut i = 0;
    // SAFETY: every word access is bounded by `i + 8 <= len` and uses the
    // unaligned forms; the source word is read before the destination word
    // is written, so `dst == src` is sound; the tail is `len - i` bytes at
    // offset `i` of both regions.
    unsafe {
        while i + 8 <= len {
            let s = src.add(i).cast::<u64>().read_unaligned();
            let d = dst.add(i).cast::<u64>();
            d.write_unaligned(match OP {
                MUL_ADD => d.read_unaligned() ^ mul_word64(c, s),
                MUL_INTO => mul_word64(c, s),
                _ => d.read_unaligned() ^ s,
            });
            i += 8;
        }
        let tail = len - i;
        walk::<OP, 1>(dst.add(i), src.add(i), tail, tail, 0, |[s]| [mul_loop(c, s)]);
    }
}

/// `dst ^= c · src` by product-table row over safe slices: the tail of the
/// blocked (`dot4`) and tiled bodies.
fn portable_mul_add(dst: &mut [u8], src: &[u8], c: u8) {
    let row = &MUL[c as usize];
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= row[*s as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_cached_and_consistent() {
        let first = Rung::active();
        for _ in 0..3 {
            assert_eq!(Rung::active(), first);
        }
        assert_eq!(active_kernel(), first.kernel());
        assert!(Kernel::available().contains(&first));
    }

    #[test]
    fn a_rung_exists_exactly_for_the_kernels_this_host_has() {
        for kernel in Kernel::ALL {
            assert_eq!(
                Rung::new(kernel).map(Rung::kernel),
                kernel.is_available().then_some(kernel)
            );
        }
        // The byte-at-a-time rungs need no ISA, and the ladder keeps its
        // order: auto-detection takes the first rung the host has.
        let available: Vec<Kernel> = Kernel::available().into_iter().map(Rung::kernel).collect();
        let expected: Vec<Kernel> = Kernel::ALL.into_iter().filter(|k| k.is_available()).collect();
        assert_eq!(available, expected);
        assert!(available.ends_with(&Kernel::ALL[5..]), "{available:?}");
    }

    #[test]
    fn every_override_token_resolves_as_documented() {
        let best = Kernel::available()[0];
        for auto in [None, Some(""), Some("auto"), Some("simd")] {
            assert_eq!(resolve_override(auto), (best, None), "{auto:?}");
        }
        let named = [
            ("gfni", Kernel::Gfni),
            ("avx512", Kernel::Avx512),
            ("avx2", Kernel::Avx2),
            ("neon", Kernel::Neon),
            ("ssse3", Kernel::Ssse3),
            ("portable", Kernel::Portable),
            ("table", Kernel::Portable),
            ("nibble", Kernel::Nibble),
            ("loopwide", Kernel::LoopWide),
            ("logexp", Kernel::LogExp),
        ];
        for (token, kernel) in named {
            let want = match Rung::new(kernel) {
                Some(rung) => (rung, None),
                None => (best, Some("is not supported by this CPU")),
            };
            assert_eq!(resolve_override(Some(token)), want, "{token}");
        }
        // No host has both an x86 and an AArch64 rung, so the fallback arm
        // above ran for at least one token.
        assert!(!(Kernel::Ssse3.is_available() && Kernel::Neon.is_available()));
        assert_eq!(resolve_override(Some("sse9")), (best, Some("is not a known backend")));
    }

    #[test]
    fn byte_blocks_match_the_mul_table_in_both_forms() {
        // Both forms of every coefficient's block, applied in scalar code,
        // against the ground-truth product table.
        fn affine(matrix: u64, x: u8) -> u8 {
            let rows = matrix.to_le_bytes();
            (0..8).map(|i| ((rows[7 - i] & x).count_ones() as u8 & 1) << i).sum()
        }
        for c in 0..=255u8 {
            let Blocks { nibbles: [[[lo, hi]]], affine: [[matrix]] } = *byte_block(c);
            for x in 0..=255u8 {
                let want = MUL[usize::from(c)][usize::from(x)];
                assert_eq!(lo[usize::from(x & 0x0F)] ^ hi[usize::from(x >> 4)], want, "{c} {x}");
                assert_eq!(affine(matrix, x), want, "c={c}, x={x}");
            }
        }
    }

    /// The three single-source ops and the in-place form on `rung`, against
    /// the product table.
    fn check_against_the_mul_table(rung: Rung) {
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 100] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let dst0: Vec<u8> = (0..len).map(|i| (i * 91 + 5) as u8).collect();
            for c in [2u8, 0x53, 0xFF] {
                let product: Vec<u8> =
                    src.iter().map(|&s| MUL[usize::from(c)][usize::from(s)]).collect();
                let xor = |a: &[u8], b: &[u8]| -> Vec<u8> {
                    a.iter().zip(b).map(|(&x, &y)| x ^ y).collect()
                };
                let mut dst = dst0.clone();
                apply::<MUL_ADD>(rung, &mut dst, &src, c);
                assert_eq!(dst, xor(&dst0, &product), "MUL_ADD on {rung:?}, c={c}, len={len}");
                apply::<XOR>(rung, &mut dst, &product, c);
                assert_eq!(dst, dst0, "XOR on {rung:?}, c={c}, len={len}");
                apply::<MUL_INTO>(rung, &mut dst, &src, c);
                assert_eq!(dst, product, "MUL_INTO on {rung:?}, c={c}, len={len}");
                dst.copy_from_slice(&src);
                apply_in_place(rung, &mut dst, c);
                assert_eq!(dst, product, "in place on {rung:?}, c={c}, len={len}");
            }
        }
    }

    /// A two-plane map from its 32 column bytes, and the image of the
    /// symbol `lo | hi << 8` under it, bit by bit from the columns alone.
    fn linear_map(columns: [[u64; 2]; 2], lo: u8, hi: u8) -> [u8; 2] {
        let mut out = [0u8; 2];
        for (o, out) in out.iter_mut().enumerate() {
            for (i, byte) in [lo, hi].into_iter().enumerate() {
                let column = columns[o][i].to_le_bytes();
                (0..8).filter(|j| byte >> j & 1 == 1).for_each(|j| *out ^= column[j]);
            }
        }
        out
    }

    /// Arbitrary 16×16 GF(2) maps (a GF(2^16) constant is one), by column.
    fn maps() -> impl Iterator<Item = [[u64; 2]; 2]> {
        [0x0123_4567_89AB_CDEFu64, 0xFEDC_BA98_7654_3210, 0x8000_0000_0000_0001]
            .map(|seed| {
                let column =
                    |k: u32| seed.rotate_left(13 * k) ^ u64::from(k).wrapping_mul(0x9E37_79B9);
                [[column(0), column(1)], [column(2), column(3)]]
            })
            .into_iter()
    }

    /// Shard lengths on both sides of every vector width.
    const SHARDS: [usize; 10] = [2, 30, 32, 34, 64, 66, 126, 128, 130, 258];

    /// The `(x, y)` each two-plane op leaves on `rung`, from the same start:
    /// the six ops over a run of three shards (the planes are per shard),
    /// then the in-place multiply of `y0`.
    fn two_plane_ops(rung: Rung, form: &Blocks<2>, shard: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let bytes = |salt: usize| -> Vec<u8> {
            (0..3 * shard).map(|i| (i * 37 + salt * 101 + shard) as u8).collect()
        };
        type Op = fn(Rung, &Blocks<2>, &mut [u8], &mut [u8], usize);
        let ops: [Op; 6] = [
            butterflies::<MUL_ADD, 2>,
            butterflies::<MUL_INTO, 2>,
            butterflies::<XOR, 2>,
            butterflies::<IFFT, 2>,
            butterflies::<FFT, 2>,
            butterflies::<MERGED, 2>,
        ];
        let mut out: Vec<_> = ops
            .iter()
            .map(|op| {
                let (mut x, mut y) = (bytes(1), bytes(2));
                op(rung, form, &mut x, &mut y, shard);
                (x, y)
            })
            .collect();
        let mut x = bytes(2);
        x.chunks_mut(shard).for_each(|x| apply_planes_in_place(rung, form, x));
        out.push((x, Vec::new()));
        out
    }

    /// Every two-plane op and butterfly on `rung` against the portable walk,
    /// the rung's form a sum of two parts summed in only the forms it reads.
    fn check_two_planes(rung: Rung) {
        let portable = Rung::new(Kernel::Portable).expect("needs no ISA");
        for columns in maps() {
            let part = |mask: u64| Blocks::from_columns(columns.map(|row| row.map(|c| c & mask)));
            let form = Blocks::sum_for(
                rung,
                &[&part(0x5A5A_5A5A_5A5A_5A5A), &part(!0x5A5A_5A5A_5A5A_5A5A)],
            );
            for shard in SHARDS {
                let want = two_plane_ops(portable, &Blocks::from_columns(columns), shard);
                assert_eq!(two_plane_ops(rung, &form, shard), want, "{rung:?}, shard {shard}");
            }
        }
    }

    #[test]
    fn scalar_rungs_match_the_mul_table() {
        // The raw-pointer scalar loops, in a unit test so Miri (which skips
        // the target-feature rungs and the integration suite) runs them.
        for kernel in [Kernel::Portable, Kernel::Nibble, Kernel::LoopWide, Kernel::LogExp] {
            check_against_the_mul_table(Rung::new(kernel).expect("needs no ISA"));
        }
    }

    #[test]
    fn scalar_walk_multiplies_two_planes_by_the_linear_map() {
        // The portable walk, the reference of every two-plane body, against
        // the map applied bit by bit.
        let portable = Rung::new(Kernel::Portable).expect("needs no ISA");
        for columns in maps() {
            for shard in SHARDS {
                let src: Vec<u8> = (0..shard).map(|i| (i * 37 + 11) as u8).collect();
                let mut dst = vec![0u8; shard];
                apply_planes::<MUL_INTO, 2>(
                    portable,
                    &Blocks::from_columns(columns),
                    &mut dst,
                    &src,
                );
                let half = shard / 2;
                for k in 0..half {
                    let want = linear_map(columns, src[k], src[half + k]);
                    assert_eq!([dst[k], dst[half + k]], want, "shard {shard}, symbol {k}");
                }
            }
        }
    }

    #[test]
    fn every_rung_runs_two_planes_like_the_portable_walk() {
        // The vector rungs run their own bodies; the byte-at-a-time
        // references have no two-plane form and run the portable walk.
        let walk = [Kernel::Portable, Kernel::Nibble, Kernel::LoopWide, Kernel::LogExp];
        for rung in Kernel::available() {
            let body = if walk.contains(&rung.kernel()) { Kernel::Portable } else { rung.kernel() };
            assert_eq!((rung.body(1), rung.body(2)), (rung.kernel(), body), "{rung:?}");
            check_two_planes(rung);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_256_bit_gfni_body_matches_the_mul_table() {
        // `Rung::new` picks one GFNI width per host; build the narrow rung
        // by hand so its body is covered on AVX-512 parts too.
        let Some(gfni) = Rung::new(Kernel::Gfni) else {
            println!("SKIPPED: CPU lacks gfni+avx2");
            return;
        };
        check_against_the_mul_table(Rung { wide: false, ..gfni });
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_256_bit_gfni_body_runs_two_planes_bit_exact() {
        // The same hand-built narrow rung on every two-plane op and
        // butterfly, at head and tail lengths of its 32-byte vector.
        let Some(gfni) = Rung::new(Kernel::Gfni) else {
            println!("SKIPPED: CPU lacks gfni+avx2");
            return;
        };
        check_two_planes(Rung { wide: false, ..gfni });
    }
}
