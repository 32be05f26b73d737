//! The GF(2^8) kernel ladder: one enum of rungs, resolved once.
//!
//! The paper's CPU baseline codes 16 bytes per instruction with SSE2; the
//! modern equivalent (Günther et al., *Galois Field Arithmetics for Linear
//! Network Coding using AVX512*, and the Leopard/`reed-solomon-simd`
//! lineage) splits each source byte into nibbles and resolves both halves
//! with one in-register shuffle each:
//!
//! ```text
//! product = PSHUFB(lo_table, src & 0x0F) ^ PSHUFB(hi_table, src >> 4)
//! ```
//!
//! where `lo_table[i] = c·i` and `hi_table[i] = c·(i<<4)` are the two
//! 16-entry half-byte product tables. [`Kernel`] names every way this crate
//! can run a region operation, fastest first:
//!
//! | `NC_GF_BACKEND` | id | rung |
//! |---|---|---|
//! | `gfni` | 5 | `GF2P8AFFINEQB`, the field as an instruction (512-bit EVEX with AVX-512BW, else 256-bit VEX — `simd_gfni.rs`) |
//! | `avx512` | 4 | 64-byte `VPSHUFB` with `k`-masked tails (`simd_avx512.rs`) |
//! | `avx2` | 2 | 32-byte `VPSHUFB` |
//! | `neon` | 3 | AArch64 16-byte `TBL` |
//! | `ssse3` | 1 | 16-byte `PSHUFB` |
//! | `portable` / `table` | 0 | one L1-resident 256-byte product-table row per coefficient |
//! | `nibble` | 8 | the two half-byte tables, one byte at a time (the shuffle technique in scalar form) |
//! | `loopwide` | 7 | loop-based multiply over 8-byte lanes (the paper's Sec. 4 loop-based CPU form) |
//! | `logexp` | 6 | log/exp lookups per byte (the paper's Fig. 1 baseline) |
//! | unset / empty / `auto` / `simd` | | the first of these the host has |
//!
//! The last three exist for ablation and as references; every rung produces
//! identical bytes (`tests/simd_dispatch.rs`).
//!
//! The rung is resolved **once** — `NC_GF_BACKEND`, then availability, then
//! a loud fallback — into a [`Rung`]: a kernel this host was *verified* to
//! run, which only [`Rung::new`] can make. [`crate::region`]'s operations
//! load that one value and `match` on it; nothing on the per-call path asks
//! the CPU what it supports, and the `unsafe` bodies below discharge their
//! `target_feature` obligation against the `Rung` invariant. A forced
//! kernel the host cannot run is **not** silently honored: resolution logs
//! the downgrade to stderr and bumps the `gf.backend_override_unavailable`
//! telemetry counter, and the rung that runs is exported as the
//! `gf.kernel_id` gauge (see [`Kernel::id`]) — [`active_kernel`] is, by
//! construction, what `region::*` executes.
//!
//! Every ISA rung has one body, generic over the operation (`MUL_ADD`:
//! `dst ^= c·src`, `MUL_INTO`: `dst = c·src` with `dst == src` allowed,
//! `XOR`: `dst ^= src`), plus a four-source blocked axpy (`dot4_*`) behind
//! [`crate::region::dot_assign`] that keeps [`DOT_BLOCK`] coefficients'
//! tables in registers and streams each destination line once per block.
//! The GFNI rung adds the register tile of eight outputs behind
//! [`crate::region::matrix_mul_add`].

// All `unsafe` in the crate lives in this module and its two x86-64
// children (`simd_avx512.rs`, `simd_gfni.rs`): each block is a straight
// mapping to documented vendor intrinsics, with the safety argument
// (the `Rung` invariant + in-bounds pointer arithmetic) stated per block.
#![allow(unsafe_code)]

use crate::scalar::{mul_loop, mul_table};
use crate::tables::MUL;
use crate::wide::mul_word64;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
#[path = "simd_avx512.rs"]
mod simd_avx512;

#[cfg(target_arch = "x86_64")]
#[path = "simd_gfni.rs"]
mod simd_gfni;

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
/// `region::*_on` family takes.
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

    /// The rung every `region` operation without an explicit one runs:
    /// resolved once per process and cached.
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

/// The kernel of [`Rung::active`]: what `region::*` runs in this process.
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
// The safe seam `region` calls: each function checks the lengths its
// `unsafe` body relies on, then dispatches on the rung.
// ---------------------------------------------------------------------------

/// `dst ^= c · src`.
pub(crate) const MUL_ADD: u8 = 0;
/// `dst = c · src`; `dst == src` is the in-place multiply.
pub(crate) const MUL_INTO: u8 = 1;
/// `dst ^= src` (the coefficient is ignored).
pub(crate) const XOR: u8 = 2;

/// Runs `OP` over two equally long regions.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub(crate) fn apply<const OP: u8>(rung: Rung, dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "region length mismatch");
    // SAFETY: `dst` and `src` are distinct borrows, both of the length just
    // asserted.
    unsafe { run::<OP>(rung, dst.as_mut_ptr(), src.as_ptr(), dst.len(), c) }
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
    // its features on this host (`wide`: the AVX-512 side too); the assert
    // above is the bodies' equal-length contract.
    unsafe {
        match rung.kernel {
            #[cfg(target_arch = "x86_64")]
            Kernel::Gfni => simd_gfni::dot4(rung.wide, dst, srcs, cs),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => simd_avx512::dot4(dst, srcs, cs),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Avx2 => x86::dot4_avx2(dst, srcs, cs),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Ssse3 => x86::dot4_ssse3(dst, srcs, cs),
            #[cfg(target_arch = "aarch64")]
            Kernel::Neon => neon::dot4_neon(dst, srcs, cs),
            _ => return false,
        }
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

/// Runs `OP` with coefficient `c` over `len` bytes on `rung`.
///
/// # Safety
///
/// `dst` must be valid for reads and writes of `len` bytes and `src` for
/// reads of `len` bytes; the two must be the same pointer (`MUL_INTO` only)
/// or not overlap.
#[inline]
unsafe fn run<const OP: u8>(rung: Rung, dst: *mut u8, src: *const u8, len: usize, c: u8) {
    // SAFETY: a `Rung` holds an ISA kernel only after `Rung::new` detected
    // its features on this host (`wide`: the AVX-512 side too), which is
    // each body's `target_feature` contract; the region contract is the
    // caller's, forwarded unchanged, and a vector body reports
    // `done <= len`, so the tail stays inside it.
    unsafe {
        let done = match rung.kernel {
            #[cfg(target_arch = "x86_64")]
            Kernel::Gfni if rung.wide => return simd_gfni::body_512::<OP>(dst, src, len, c),
            #[cfg(target_arch = "x86_64")]
            Kernel::Gfni => simd_gfni::body_256::<OP>(dst, src, len, c),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => return simd_avx512::body::<OP>(dst, src, len, c),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Avx2 => x86::body_avx2::<OP>(dst, src, len, c),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Ssse3 => x86::body_ssse3::<OP>(dst, src, len, c),
            #[cfg(target_arch = "aarch64")]
            Kernel::Neon => neon::body::<OP>(dst, src, len, c),
            Kernel::LogExp => return bytewise::<OP>(dst, src, len, |s| mul_table(c, s)),
            Kernel::LoopWide => return loop_wide::<OP>(dst, src, len, c),
            Kernel::Nibble => {
                let (lo, hi) = nibble_tables(c);
                let product = |s: u8| lo[usize::from(s & 0x0F)] ^ hi[usize::from(s >> 4)];
                return bytewise::<OP>(dst, src, len, product);
            }
            // `Portable` — and the ISA names foreign to this target, which
            // `Rung::new` never admits.
            _ => 0,
        };
        // The portable rung, and the sub-vector tail of the shuffle rungs.
        let row = &MUL[usize::from(c)];
        bytewise::<OP>(dst.add(done), src.add(done), len - done, |s| row[usize::from(s)]);
    }
}

// ---------------------------------------------------------------------------
// Scalar bodies: the portable and reference rungs, and every vector rung's
// tail.
// ---------------------------------------------------------------------------

/// `OP` one byte at a time, `product(s)` being `c · s`.
///
/// # Safety
///
/// Region contract as [`run`].
#[inline]
unsafe fn bytewise<const OP: u8>(
    dst: *mut u8,
    src: *const u8,
    len: usize,
    product: impl Fn(u8) -> u8,
) {
    for i in 0..len {
        // SAFETY: `i < len`, inside both regions; the source byte is read
        // before the destination byte is written, so `dst == src` is sound.
        unsafe {
            let (d, s) = (dst.add(i), *src.add(i));
            *d = match OP {
                MUL_ADD => *d ^ product(s),
                MUL_INTO => product(s),
                _ => *d ^ s,
            };
        }
    }
}

/// `OP` over 8-byte lanes with the loop-based word multiply, byte tail by
/// the loop-based byte multiply: no table is touched.
///
/// # Safety
///
/// Region contract as [`run`].
unsafe fn loop_wide<const OP: u8>(dst: *mut u8, src: *const u8, len: usize, c: u8) {
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
        bytewise::<OP>(dst.add(i), src.add(i), len - i, |s| mul_loop(c, s));
    }
}

/// `dst ^= c · src` by product-table row over safe slices: the tail of the
/// blocked (`dot4_*`) and tiled bodies.
fn portable_mul_add(dst: &mut [u8], src: &[u8], c: u8) {
    let row = &MUL[c as usize];
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= row[*s as usize];
    }
}

/// Builds the two 16-entry half-byte product tables for coefficient `c`:
/// `lo[i] = c·i` and `hi[i] = c·(i << 4)` — exactly what `PSHUFB`/`TBL`
/// resolve per nibble.
#[inline]
fn nibble_tables(c: u8) -> ([u8; 16], [u8; 16]) {
    let row = &MUL[c as usize];
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    for i in 0..16 {
        lo[i] = row[i];
        hi[i] = row[i << 4];
    }
    (lo, hi)
}

// ---------------------------------------------------------------------------
// x86 / x86-64: SSSE3 and AVX2 PSHUFB kernels.
// ---------------------------------------------------------------------------

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::{nibble_tables, portable_mul_add, MUL_INTO, XOR};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Runs `OP` over all full 16-byte chunks; returns the number of bytes
    /// processed so the caller finishes the tail portably.
    ///
    /// # Safety
    ///
    /// The host must support SSSE3; region contract as [`super::run`].
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn body_ssse3<const OP: u8>(
        dst: *mut u8,
        src: *const u8,
        len: usize,
        c: u8,
    ) -> usize {
        let (lo, hi) = nibble_tables(c);
        let full = len / 16 * 16;
        // SAFETY: table loads read 16 bytes from 16-byte arrays; every
        // region access is bounded by `i + 16 <= full <= len`; a chunk's
        // source vector is loaded before the chunk is stored, so
        // `dst == src` is sound; unaligned loadu/storeu forms throughout.
        unsafe {
            let lo_t = _mm_loadu_si128(lo.as_ptr().cast());
            let hi_t = _mm_loadu_si128(hi.as_ptr().cast());
            let mask = _mm_set1_epi8(0x0F);
            let mut i = 0;
            while i < full {
                let s = _mm_loadu_si128(src.add(i).cast());
                let mut out = s;
                if OP != XOR {
                    let lo_idx = _mm_and_si128(s, mask);
                    let hi_idx = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
                    out = _mm_xor_si128(
                        _mm_shuffle_epi8(lo_t, lo_idx),
                        _mm_shuffle_epi8(hi_t, hi_idx),
                    );
                }
                if OP != MUL_INTO {
                    out = _mm_xor_si128(out, _mm_loadu_si128(dst.add(i).cast()));
                }
                _mm_storeu_si128(dst.add(i).cast(), out);
                i += 16;
            }
        }
        full
    }

    /// Runs `OP` over all full 32-byte chunks; returns the number of bytes
    /// processed.
    ///
    /// # Safety
    ///
    /// The host must support AVX2; region contract as [`super::run`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn body_avx2<const OP: u8>(
        dst: *mut u8,
        src: *const u8,
        len: usize,
        c: u8,
    ) -> usize {
        let (lo, hi) = nibble_tables(c);
        let full = len / 32 * 32;
        // SAFETY: as `body_ssse3` with 32-byte chunks
        // (`i + 32 <= full <= len`); table loads read 16 bytes from 16-byte
        // arrays, then broadcast in-register.
        unsafe {
            let lo_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
            let hi_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
            let mask = _mm256_set1_epi8(0x0F);
            let mut i = 0;
            while i < full {
                let s = _mm256_loadu_si256(src.add(i).cast());
                let mut out = s;
                if OP != XOR {
                    let lo_idx = _mm256_and_si256(s, mask);
                    let hi_idx = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
                    out = _mm256_xor_si256(
                        _mm256_shuffle_epi8(lo_t, lo_idx),
                        _mm256_shuffle_epi8(hi_t, hi_idx),
                    );
                }
                if OP != MUL_INTO {
                    out = _mm256_xor_si256(out, _mm256_loadu_si256(dst.add(i).cast()));
                }
                _mm256_storeu_si256(dst.add(i).cast(), out);
                i += 32;
            }
        }
        full
    }

    /// Four-source blocked axpy: all eight half-byte tables live in `ymm`
    /// registers for the whole sweep, and each 32-byte destination chunk is
    /// loaded and stored once for the four sources.
    ///
    /// # Safety: host must support AVX2; all slices must be equal length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot4_avx2(dst: &mut [u8], srcs: &[&[u8]; 4], cs: [u8; 4]) {
        let len = dst.len();
        let mut i = 0;
        // SAFETY: table loads read 16 bytes from 16-byte arrays; every
        // region access is bounded by `i + 32 <= len`, and the caller
        // guarantees all four sources equal `dst`'s length.
        unsafe {
            let mut lo_t = [_mm256_setzero_si256(); 4];
            let mut hi_t = [_mm256_setzero_si256(); 4];
            for j in 0..4 {
                let (lo, hi) = nibble_tables(cs[j]);
                lo_t[j] = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
                hi_t[j] = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
            }
            let mask = _mm256_set1_epi8(0x0F);
            while i + 32 <= len {
                let mut acc = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
                for j in 0..4 {
                    let s = _mm256_loadu_si256(srcs[j].as_ptr().add(i).cast());
                    let lo_idx = _mm256_and_si256(s, mask);
                    let hi_idx = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
                    acc = _mm256_xor_si256(
                        acc,
                        _mm256_xor_si256(
                            _mm256_shuffle_epi8(lo_t[j], lo_idx),
                            _mm256_shuffle_epi8(hi_t[j], hi_idx),
                        ),
                    );
                }
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), acc);
                i += 32;
            }
        }
        for j in 0..4 {
            portable_mul_add(&mut dst[i..], &srcs[j][i..], cs[j]);
        }
    }

    /// # Safety: host must support SSSE3; all slices must be equal length.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn dot4_ssse3(dst: &mut [u8], srcs: &[&[u8]; 4], cs: [u8; 4]) {
        let len = dst.len();
        let mut i = 0;
        // SAFETY: table loads read 16 bytes from 16-byte arrays; every
        // region access is bounded by `i + 16 <= len`, and the caller
        // guarantees all four sources equal `dst`'s length.
        unsafe {
            let mut lo_t = [_mm_setzero_si128(); 4];
            let mut hi_t = [_mm_setzero_si128(); 4];
            for j in 0..4 {
                let (lo, hi) = nibble_tables(cs[j]);
                lo_t[j] = _mm_loadu_si128(lo.as_ptr().cast());
                hi_t[j] = _mm_loadu_si128(hi.as_ptr().cast());
            }
            let mask = _mm_set1_epi8(0x0F);
            while i + 16 <= len {
                let mut acc = _mm_loadu_si128(dst.as_ptr().add(i).cast());
                for j in 0..4 {
                    let s = _mm_loadu_si128(srcs[j].as_ptr().add(i).cast());
                    let lo_idx = _mm_and_si128(s, mask);
                    let hi_idx = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
                    acc = _mm_xor_si128(
                        acc,
                        _mm_xor_si128(
                            _mm_shuffle_epi8(lo_t[j], lo_idx),
                            _mm_shuffle_epi8(hi_t[j], hi_idx),
                        ),
                    );
                }
                _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), acc);
                i += 16;
            }
        }
        for j in 0..4 {
            portable_mul_add(&mut dst[i..], &srcs[j][i..], cs[j]);
        }
    }
}

// ---------------------------------------------------------------------------
// AArch64 NEON TBL kernels. NEON is mandatory on AArch64, so the only
// unsafety is the raw-pointer access, bounded like x86's.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{nibble_tables, portable_mul_add, MUL_INTO, XOR};
    use std::arch::aarch64::*;

    /// Runs `OP` over all full 16-byte chunks; returns the number of bytes
    /// processed so the caller finishes the tail portably.
    ///
    /// # Safety
    ///
    /// Region contract as [`super::run`].
    pub(super) unsafe fn body<const OP: u8>(
        dst: *mut u8,
        src: *const u8,
        len: usize,
        c: u8,
    ) -> usize {
        let (lo, hi) = nibble_tables(c);
        let full = len / 16 * 16;
        // SAFETY: NEON is architecturally guaranteed on AArch64; table
        // loads read 16 bytes from 16-byte arrays; every region access is
        // bounded by `i + 16 <= full <= len`; a chunk's source vector is
        // loaded before the chunk is stored, so `dst == src` is sound.
        unsafe {
            let lo_t = vld1q_u8(lo.as_ptr());
            let hi_t = vld1q_u8(hi.as_ptr());
            let mask = vdupq_n_u8(0x0F);
            let mut i = 0;
            while i < full {
                let s = vld1q_u8(src.add(i));
                let mut out = s;
                if OP != XOR {
                    out = veorq_u8(
                        vqtbl1q_u8(lo_t, vandq_u8(s, mask)),
                        vqtbl1q_u8(hi_t, vshrq_n_u8(s, 4)),
                    );
                }
                if OP != MUL_INTO {
                    out = veorq_u8(out, vld1q_u8(dst.add(i)));
                }
                vst1q_u8(dst.add(i), out);
                i += 16;
            }
        }
        full
    }

    /// Four-source blocked axpy, 16 bytes per step.
    ///
    /// # Safety
    ///
    /// All slices must be equal length.
    pub(super) unsafe fn dot4_neon(dst: &mut [u8], srcs: &[&[u8]; 4], cs: [u8; 4]) {
        let len = dst.len();
        let tables: Vec<([u8; 16], [u8; 16])> = cs.iter().map(|&c| nibble_tables(c)).collect();
        // SAFETY: as above — mandatory NEON, every access bounded by
        // `i + 16 <= len`, sources asserted equal-length by the caller.
        let i = unsafe {
            let mut lo_t = [vdupq_n_u8(0); 4];
            let mut hi_t = [vdupq_n_u8(0); 4];
            for j in 0..4 {
                lo_t[j] = vld1q_u8(tables[j].0.as_ptr());
                hi_t[j] = vld1q_u8(tables[j].1.as_ptr());
            }
            let mask = vdupq_n_u8(0x0F);
            let mut i = 0;
            while i + 16 <= len {
                let mut acc = vld1q_u8(dst.as_ptr().add(i));
                for j in 0..4 {
                    let s = vld1q_u8(srcs[j].as_ptr().add(i));
                    acc = veorq_u8(
                        acc,
                        veorq_u8(
                            vqtbl1q_u8(lo_t[j], vandq_u8(s, mask)),
                            vqtbl1q_u8(hi_t[j], vshrq_n_u8(s, 4)),
                        ),
                    );
                }
                vst1q_u8(dst.as_mut_ptr().add(i), acc);
                i += 16;
            }
            i
        };
        for j in 0..4 {
            portable_mul_add(&mut dst[i..], &srcs[j][i..], cs[j]);
        }
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

    #[test]
    fn scalar_rungs_match_the_mul_table() {
        // The raw-pointer scalar loops, in a unit test so Miri (which skips
        // the target-feature rungs and the integration suite) runs them.
        for kernel in [Kernel::Portable, Kernel::Nibble, Kernel::LoopWide, Kernel::LogExp] {
            check_against_the_mul_table(Rung::new(kernel).expect("needs no ISA"));
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
}
