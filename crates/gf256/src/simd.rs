//! Real SIMD GF(2^8) region kernels with runtime dispatch.
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
//! 16-entry half-byte product tables ([`Backend::Nibble`] computes the very
//! same tables, one byte at a time). This module provides:
//!
//! * a **GFNI** kernel (`GF2P8MULB` region multiply + `GF2P8AFFINEQB`
//!   mul-add, 512-bit EVEX when AVX-512BW is present, 256-bit VEX
//!   otherwise — see `simd_gfni.rs`),
//! * an **AVX-512BW** kernel (64 bytes, `_mm512_shuffle_epi8` with
//!   `k`-masked tails — see `simd_avx512.rs`),
//! * an **SSSE3** kernel (16 bytes/shuffle pair, `_mm_shuffle_epi8`),
//! * an **AVX2** kernel (32 bytes, `_mm256_shuffle_epi8`),
//! * an **AArch64 NEON** kernel (16 bytes, `vqtbl1q_u8`),
//! * a **portable** fallback (the L1-resident 256-byte product-table row),
//!
//! selected **once** at first use via `is_x86_feature_detected!` (NEON is
//! architecturally guaranteed on AArch64) and cached in a [`OnceLock`]. The
//! selection — and the crate-wide default [`Backend`] — can be forced with
//! the `NC_GF_BACKEND` environment variable for ablation and for CI's
//! forced-portable job:
//!
//! | `NC_GF_BACKEND` | effect |
//! |---|---|
//! | `gfni` / `avx512` / `avx2` / `ssse3` / `neon` | force that kernel (if the host supports it) |
//! | `portable` | force the portable fallback through the SIMD dispatcher |
//! | `table` / `logexp` / `loopwide` / `nibble` | force that scalar [`Backend`] |
//! | unset / `simd` / `auto` | auto-detect the best kernel |
//!
//! A forced kernel the host cannot run is **not** silently honored: the
//! dispatcher logs the downgrade to stderr once and bumps the
//! `gf.backend_override_unavailable` telemetry counter, so an ablation run
//! that asked for `gfni` on a non-GFNI box leaves a visible trace instead
//! of quietly measuring the wrong kernel. The rung that actually runs is
//! exported as the `gf.kernel_id` gauge (see [`SimdKernel::id`]) at first
//! dispatch.
//!
//! Besides the three single-source region ops, the module implements the
//! **blocked multi-source axpy** behind [`crate::region::dot_assign`]:
//! [`dot_assign_with_kernel`] folds up to four coefficient rows per pass so
//! the eight half-byte tables stay pinned in vector registers and every
//! destination cache line is streamed once per group of four sources
//! instead of once per source.
//!
//! The **multi-output product** behind [`crate::region::matrix_mul_add`] —
//! many coded blocks from one set of sources, the encoder's and the
//! decoder's shape — goes through [`matrix_mul_add_with_kernel`]: on GFNI a
//! register tile of eight outputs takes each source line once per tile
//! instead of once per output; every other rung runs the outputs one
//! [`dot_assign_with_kernel`] at a time.
//!
//! All kernels are property-tested bit-identical against the scalar
//! backends (see `tests/simd_dispatch.rs`), including the zero/one
//! coefficient fast paths and every unaligned head/tail length.

// All `unsafe` in the crate lives in this module and its two x86-64
// children (`simd_avx512.rs`, `simd_gfni.rs`): each block is a straight
// mapping to documented vendor intrinsics, with the safety argument
// (feature availability + in-bounds pointer arithmetic) stated per block.
#![allow(unsafe_code)]

use crate::region::Backend;
use crate::tables::MUL;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
#[path = "simd_avx512.rs"]
mod simd_avx512;

#[cfg(target_arch = "x86_64")]
#[path = "simd_gfni.rs"]
mod simd_gfni;

/// One concrete region-kernel implementation the dispatcher can select.
///
/// Every variant exists on every architecture so cross-platform tools
/// (benches, ablation flags) compile everywhere; asking for a kernel the
/// host cannot run falls back to [`SimdKernel::Portable`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SimdKernel {
    /// Product-table-row scalar code: correct everywhere, no ISA required.
    Portable,
    /// x86-64 SSSE3 `PSHUFB`, 16 bytes per table pair.
    Ssse3,
    /// x86-64 AVX2 `VPSHUFB`, 32 bytes per table pair.
    Avx2,
    /// AArch64 NEON `TBL`, 16 bytes per table pair.
    Neon,
    /// x86-64 AVX-512BW `VPSHUFB`, 64 bytes per table pair with masked
    /// tails.
    Avx512,
    /// x86-64 GFNI `GF2P8MULB`/`GF2P8AFFINEQB` — the field as an
    /// instruction, no tables (512-bit EVEX when AVX-512BW is present,
    /// 256-bit VEX otherwise).
    Gfni,
}

impl SimdKernel {
    /// Human-readable kernel name (stable across releases; used by reports).
    pub fn name(self) -> &'static str {
        match self {
            SimdKernel::Portable => "portable",
            SimdKernel::Ssse3 => "ssse3",
            SimdKernel::Avx2 => "avx2",
            SimdKernel::Neon => "neon",
            SimdKernel::Avx512 => "avx512",
            SimdKernel::Gfni => "gfni",
        }
    }

    /// Stable numeric id for the `gf.kernel_id` telemetry gauge, so
    /// `--telemetry-json` artifacts record which rung actually ran.
    pub fn id(self) -> u8 {
        match self {
            SimdKernel::Portable => 0,
            SimdKernel::Ssse3 => 1,
            SimdKernel::Avx2 => 2,
            SimdKernel::Neon => 3,
            SimdKernel::Avx512 => 4,
            SimdKernel::Gfni => 5,
        }
    }

    /// Whether this host can execute the kernel right now.
    pub fn is_available(self) -> bool {
        match self {
            SimdKernel::Portable => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdKernel::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdKernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            SimdKernel::Neon => true,
            #[cfg(target_arch = "x86_64")]
            SimdKernel::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
            // GFNI's AVX2 floor keeps the 256-bit VEX bodies runnable;
            // SSE-only GFNI parts (e.g. Tremont) fall through to Ssse3.
            #[cfg(target_arch = "x86_64")]
            SimdKernel::Gfni => {
                std::arch::is_x86_feature_detected!("gfni")
                    && std::arch::is_x86_feature_detected!("avx2")
            }
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Every kernel this host can execute, fastest first (the portable
    /// fallback is always present and always last).
    pub fn available() -> Vec<SimdKernel> {
        [
            SimdKernel::Gfni,
            SimdKernel::Avx512,
            SimdKernel::Avx2,
            SimdKernel::Neon,
            SimdKernel::Ssse3,
            SimdKernel::Portable,
        ]
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
    }
}

/// The kernel [`Backend::Simd`] dispatches to, detected once and cached.
///
/// Honors `NC_GF_BACKEND` (`gfni` / `avx512` / `avx2` / `ssse3` / `neon` /
/// `portable`); a forced kernel the host lacks degrades to the best
/// available one rather than crashing, so ablation scripts are portable —
/// but the downgrade is logged to stderr once and counted in the
/// `gf.backend_override_unavailable` telemetry counter so it can't pass
/// unnoticed. The selected rung is published as the `gf.kernel_id` gauge.
pub fn active_kernel() -> SimdKernel {
    static ACTIVE: OnceLock<SimdKernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let forced = match backend_env().as_deref() {
            Some("portable") => Some(SimdKernel::Portable),
            Some("gfni") => Some(SimdKernel::Gfni),
            Some("avx512") => Some(SimdKernel::Avx512),
            Some("avx2") => Some(SimdKernel::Avx2),
            Some("ssse3") => Some(SimdKernel::Ssse3),
            Some("neon") => Some(SimdKernel::Neon),
            // Scalar backend names are handled by `default_backend` and
            // never reach the SIMD dispatcher; auto tokens mean detect.
            None | Some("simd") | Some("auto") | Some("table") | Some("logexp")
            | Some("loopwide") | Some("nibble") => None,
            Some(other) => {
                note_override_ignored(other, "is not a known backend");
                None
            }
        };
        let kernel = match forced {
            Some(k) if k.is_available() => k,
            Some(k) => {
                note_override_ignored(k.name(), "is not supported by this CPU");
                SimdKernel::available()[0]
            }
            None => SimdKernel::available()[0],
        };
        nc_telemetry::default_registry().gauge("gf.kernel_id").set(f64::from(kernel.id()));
        kernel
    })
}

/// Makes a misconfigured `NC_GF_BACKEND` visible (stderr + telemetry)
/// instead of silently measuring the wrong kernel. Called at most once per
/// cause, from inside the `active_kernel` one-time init.
fn note_override_ignored(value: &str, why: &str) {
    let fallback = SimdKernel::available()[0];
    eprintln!("nc-gf256: NC_GF_BACKEND={value} {why}; falling back to `{}`", fallback.name());
    nc_telemetry::default_registry().counter("gf.backend_override_unavailable").inc();
}

/// The crate-wide default [`Backend`], detected once and cached.
///
/// [`Backend::Simd`] unless `NC_GF_BACKEND` names one of the scalar
/// backends (`table`, `logexp`, `loopwide`, `nibble`) for ablation.
pub fn default_backend() -> Backend {
    static DEFAULT: OnceLock<Backend> = OnceLock::new();
    *DEFAULT.get_or_init(|| match backend_env().as_deref() {
        Some("table") => Backend::Table,
        Some("logexp") => Backend::LogExp,
        Some("loopwide") => Backend::LoopWide,
        Some("nibble") => Backend::Nibble,
        _ => Backend::Simd,
    })
}

fn backend_env() -> Option<String> {
    std::env::var("NC_GF_BACKEND").ok().map(|v| v.trim().to_ascii_lowercase())
}

/// How many coefficient rows [`dot_assign_with_kernel`] folds per pass: the
/// half-byte tables of four coefficients (eight vectors) plus the nibble
/// mask, accumulator and source loads fit the 16 architectural vector
/// registers of every supported ISA.
pub const DOT_BLOCK: usize = 4;

// ---------------------------------------------------------------------------
// Dispatching entry points (called by `region` once c ∉ {0, 1} fast paths
// are taken; exposed for benches and ablation via the explicit-kernel
// variants below).
// ---------------------------------------------------------------------------

/// `dst ^= c · src` on the active kernel (zero/one fast paths included).
#[inline]
pub fn mul_add_assign(dst: &mut [u8], src: &[u8], c: u8) {
    mul_add_assign_with_kernel(active_kernel(), dst, src, c);
}

/// `dst = c · dst` on the active kernel (zero/one fast paths included).
#[inline]
pub fn mul_assign(dst: &mut [u8], c: u8) {
    mul_assign_with_kernel(active_kernel(), dst, c);
}

/// `dst = c · src` on the active kernel (zero/one fast paths included).
#[inline]
pub fn mul_into(dst: &mut [u8], src: &[u8], c: u8) {
    mul_into_with_kernel(active_kernel(), dst, src, c);
}

/// `dst ^= src` with the widest XOR the active kernel offers.
#[inline]
pub fn xor_assign(dst: &mut [u8], src: &[u8]) {
    xor_assign_with_kernel(active_kernel(), dst, src);
}

/// `dst ^= Σ coeffs[i] · sources[i]`, blocked [`DOT_BLOCK`] rows per pass on
/// the active kernel.
#[inline]
pub fn dot_assign(dst: &mut [u8], sources: &[&[u8]], coeffs: &[u8]) {
    dot_assign_with_kernel(active_kernel(), dst, sources, coeffs);
}

/// `outs[t] ^= Σ_i coeffs[t][i] · sources[i]` on the active kernel.
#[inline]
pub fn matrix_mul_add(outs: &mut [&mut [u8]], sources: &[&[u8]], coeffs: &[&[u8]]) {
    matrix_mul_add_with_kernel(active_kernel(), outs, sources, coeffs);
}

// ---------------------------------------------------------------------------
// Explicit-kernel entry points (benches, property tests, ablation).
// ---------------------------------------------------------------------------

/// `dst ^= c · src` on an explicit kernel; unavailable kernels run portably.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_add_assign_with_kernel(kernel: SimdKernel, dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "region length mismatch");
    match c {
        0 => return,
        1 => return xor_assign_with_kernel(kernel, dst, src),
        _ => {}
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        SimdKernel::Gfni if SimdKernel::Gfni.is_available() => {
            // SAFETY: GFNI + AVX2 availability was verified on this host
            // above; the length assert above is the equal-length contract.
            unsafe { simd_gfni::mul_add(dst, src, c) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdKernel::Avx512 if SimdKernel::Avx512.is_available() => {
            // SAFETY: AVX-512F/BW availability was verified on this host
            // above; the length assert above is the equal-length contract.
            unsafe { simd_avx512::mul_add(dst, src, c) }
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdKernel::Avx2 if SimdKernel::Avx2.is_available() => {
            // SAFETY: AVX2 availability was verified on this host above.
            unsafe { x86::mul_add_avx2(dst, src, c) }
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdKernel::Ssse3 if SimdKernel::Ssse3.is_available() => {
            // SAFETY: SSSE3 availability was verified on this host above.
            unsafe { x86::mul_add_ssse3(dst, src, c) }
        }
        #[cfg(target_arch = "aarch64")]
        SimdKernel::Neon => neon::mul_add_neon(dst, src, c),
        _ => portable_mul_add(dst, src, c),
    }
}

/// `dst = c · dst` on an explicit kernel; unavailable kernels run portably.
pub fn mul_assign_with_kernel(kernel: SimdKernel, dst: &mut [u8], c: u8) {
    match c {
        0 => return dst.fill(0),
        1 => return,
        _ => {}
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        SimdKernel::Gfni if SimdKernel::Gfni.is_available() => {
            // SAFETY: GFNI + AVX2 availability was verified on this host
            // above.
            unsafe { simd_gfni::mul_assign(dst, c) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdKernel::Avx512 if SimdKernel::Avx512.is_available() => {
            // SAFETY: AVX-512F/BW availability was verified on this host
            // above.
            unsafe { simd_avx512::mul_assign(dst, c) }
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdKernel::Avx2 if SimdKernel::Avx2.is_available() => {
            // SAFETY: AVX2 availability was verified on this host above.
            unsafe { x86::mul_assign_avx2(dst, c) }
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdKernel::Ssse3 if SimdKernel::Ssse3.is_available() => {
            // SAFETY: SSSE3 availability was verified on this host above.
            unsafe { x86::mul_assign_ssse3(dst, c) }
        }
        #[cfg(target_arch = "aarch64")]
        SimdKernel::Neon => neon::mul_assign_neon(dst, c),
        _ => {
            let row = &MUL[c as usize];
            for d in dst.iter_mut() {
                *d = row[*d as usize];
            }
        }
    }
}

/// `dst = c · src` (overwriting) on an explicit kernel.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_into_with_kernel(kernel: SimdKernel, dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "region length mismatch");
    match c {
        0 => return dst.fill(0),
        1 => return dst.copy_from_slice(src),
        _ => {}
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        SimdKernel::Gfni if SimdKernel::Gfni.is_available() => {
            // SAFETY: GFNI + AVX2 availability was verified on this host
            // above; the length assert above is the equal-length contract.
            unsafe { simd_gfni::mul_into(dst, src, c) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdKernel::Avx512 if SimdKernel::Avx512.is_available() => {
            // SAFETY: AVX-512F/BW availability was verified on this host
            // above; the length assert above is the equal-length contract.
            unsafe { simd_avx512::mul_into(dst, src, c) }
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdKernel::Avx2 if SimdKernel::Avx2.is_available() => {
            // SAFETY: AVX2 availability was verified on this host above.
            unsafe { x86::mul_into_avx2(dst, src, c) }
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdKernel::Ssse3 if SimdKernel::Ssse3.is_available() => {
            // SAFETY: SSSE3 availability was verified on this host above.
            unsafe { x86::mul_into_ssse3(dst, src, c) }
        }
        #[cfg(target_arch = "aarch64")]
        SimdKernel::Neon => neon::mul_into_neon(dst, src, c),
        _ => {
            let row = &MUL[c as usize];
            for (d, s) in dst.iter_mut().zip(src) {
                *d = row[*s as usize];
            }
        }
    }
}

/// `dst ^= src` on an explicit kernel (AVX2 uses 32-byte lanes; everything
/// else uses the portable 8-byte-word loop, which SSE-class hardware
/// autovectorizes).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn xor_assign_with_kernel(kernel: SimdKernel, dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "region length mismatch");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        SimdKernel::Avx512 if SimdKernel::Avx512.is_available() => {
            // SAFETY: AVX-512F/BW availability was verified on this host
            // above; the length assert above is the equal-length contract.
            unsafe { simd_avx512::xor_assign(dst, src) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdKernel::Gfni if SimdKernel::Gfni.is_available() => {
            // SAFETY: GFNI + AVX2 availability was verified on this host
            // above; the length assert above is the equal-length contract.
            unsafe { simd_gfni::xor_assign(dst, src) }
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdKernel::Avx2 if SimdKernel::Avx2.is_available() => {
            // SAFETY: AVX2 availability was verified on this host above.
            unsafe { x86::xor_assign_avx2(dst, src) }
        }
        _ => portable_xor(dst, src),
    }
}

/// `dst ^= Σ coeffs[i] · sources[i]` on an explicit kernel, folding
/// [`DOT_BLOCK`] coefficient rows per pass so each destination cache line
/// streams once per block of sources (the encode inner loop).
///
/// Zero coefficients are skipped before blocking, so sparse rows pay
/// nothing.
///
/// # Panics
///
/// Panics if `coeffs` and `sources` differ in length, or any source length
/// differs from `dst`'s.
pub fn dot_assign_with_kernel(
    kernel: SimdKernel,
    dst: &mut [u8],
    sources: &[&[u8]],
    coeffs: &[u8],
) {
    assert_eq!(sources.len(), coeffs.len(), "coefficient count mismatch");
    for src in sources {
        assert_eq!(src.len(), dst.len(), "region length mismatch");
    }
    // Gather non-zero terms into a fixed DOT_BLOCK scratch (no heap
    // allocation in this hot loop), dispatching a blocked pass whenever it
    // fills; zero coefficients never reach the kernels and the
    // one-coefficient fast path still applies to the remainder.
    let mut idxs = [0usize; DOT_BLOCK];
    let mut cs = [0u8; DOT_BLOCK];
    let mut filled = 0;
    for (i, &c) in coeffs.iter().enumerate() {
        if c == 0 {
            continue;
        }
        idxs[filled] = i;
        cs[filled] = c;
        filled += 1;
        if filled < DOT_BLOCK {
            continue;
        }
        filled = 0;
        let srcs = [sources[idxs[0]], sources[idxs[1]], sources[idxs[2]], sources[idxs[3]]];
        match kernel {
            #[cfg(target_arch = "x86_64")]
            SimdKernel::Gfni if SimdKernel::Gfni.is_available() => {
                // SAFETY: GFNI + AVX2 availability was verified on this host
                // above; the length asserts above cover all four sources.
                unsafe { simd_gfni::dot4(dst, &srcs, cs) }
            }
            #[cfg(target_arch = "x86_64")]
            SimdKernel::Avx512 if SimdKernel::Avx512.is_available() => {
                // SAFETY: AVX-512F/BW availability was verified on this host
                // above; the length asserts above cover all four sources.
                unsafe { simd_avx512::dot4(dst, &srcs, cs) }
            }
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdKernel::Avx2 if SimdKernel::Avx2.is_available() => {
                // SAFETY: AVX2 availability was verified on this host above.
                unsafe { x86::dot4_avx2(dst, &srcs, cs) }
            }
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdKernel::Ssse3 if SimdKernel::Ssse3.is_available() => {
                // SAFETY: SSSE3 availability was verified on this host above.
                unsafe { x86::dot4_ssse3(dst, &srcs, cs) }
            }
            #[cfg(target_arch = "aarch64")]
            SimdKernel::Neon => neon::dot4_neon(dst, &srcs, cs),
            _ => {
                for (s, &c) in srcs.iter().zip(&cs) {
                    mul_add_assign_with_kernel(kernel, dst, s, c);
                }
            }
        }
    }
    for j in 0..filled {
        mul_add_assign_with_kernel(kernel, dst, sources[idxs[j]], cs[j]);
    }
}

/// `outs[t] ^= Σ_i coeffs[t][i] · sources[i]` on an explicit kernel: the
/// product of a coefficient matrix (one row per output) with the sources.
///
/// On [`SimdKernel::Gfni`] every full group of eight outputs runs as one
/// register tile (eight outputs x a 128-byte column strip in accumulators,
/// each source line loaded once per tile). The outputs left over, and every
/// output on the other rungs, take [`dot_assign_with_kernel`] one row at a
/// time.
///
/// # Panics
///
/// Panics if `coeffs` and `outs` differ in length, a coefficient row's
/// length differs from `sources.len()`, or any output's or source's length
/// differs from the first output's.
pub fn matrix_mul_add_with_kernel(
    kernel: SimdKernel,
    outs: &mut [&mut [u8]],
    sources: &[&[u8]],
    coeffs: &[&[u8]],
) {
    assert_eq!(outs.len(), coeffs.len(), "coefficient row count mismatch");
    let Some(len) = outs.first().map(|out| out.len()) else {
        return;
    };
    for (out, row) in outs.iter().zip(coeffs) {
        assert_eq!(out.len(), len, "region length mismatch");
        assert_eq!(row.len(), sources.len(), "coefficient count mismatch");
    }
    for src in sources {
        assert_eq!(src.len(), len, "region length mismatch");
    }
    let tiled = match kernel {
        #[cfg(target_arch = "x86_64")]
        SimdKernel::Gfni if SimdKernel::Gfni.is_available() => {
            // SAFETY: GFNI + AVX2 availability was verified on this host
            // above; the asserts above are the equal-length and
            // row-length contract, and `outs` holds distinct `&mut` slices.
            unsafe { simd_gfni::matrix_mul_add(outs, sources, coeffs) }
        }
        _ => 0,
    };
    for (out, row) in outs[tiled..].iter_mut().zip(&coeffs[tiled..]) {
        dot_assign_with_kernel(kernel, out, sources, row);
    }
}

// ---------------------------------------------------------------------------
// Portable fallback (also the head/tail path of every vector kernel).
// ---------------------------------------------------------------------------

/// The fastest portable axpy: one L1-resident 256-byte product-table row.
fn portable_mul_add(dst: &mut [u8], src: &[u8], c: u8) {
    let row = &MUL[c as usize];
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= row[*s as usize];
    }
}

/// Portable XOR over 8-byte words with a byte tail (also the scalar
/// backends' `add_assign` path — see [`crate::region::add_assign_with`]).
pub(crate) fn portable_xor(dst: &mut [u8], src: &[u8]) {
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let x = u64::from_le_bytes(dc.try_into().unwrap());
        let y = u64::from_le_bytes(sc.try_into().unwrap());
        dc.copy_from_slice(&(x ^ y).to_le_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= *sb;
    }
}

/// Builds the two 16-entry half-byte product tables for coefficient `c`:
/// `lo[i] = c·i` and `hi[i] = c·(i << 4)` — exactly what `PSHUFB`/`TBL`
/// resolve per nibble.
#[inline]
pub(crate) fn nibble_tables(c: u8) -> ([u8; 16], [u8; 16]) {
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
    use super::{nibble_tables, portable_mul_add, portable_xor};
    use crate::tables::MUL;
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// `dst[i..i+16] ^/= c · src[i..i+16]` over all full 16-byte chunks;
    /// returns the number of bytes processed so callers finish the tail
    /// portably.
    ///
    /// # Safety
    ///
    /// Caller must ensure the host supports SSSE3 and `dst.len() == src.len()`.
    #[target_feature(enable = "ssse3")]
    unsafe fn body_ssse3(dst: &mut [u8], src: &[u8], c: u8, overwrite: bool) -> usize {
        let (lo, hi) = nibble_tables(c);
        let len = dst.len();
        // SAFETY: table loads read 16 bytes from 16-byte arrays; every
        // region load/store is bounded by `i + 16 <= len` (the caller
        // guarantees `src.len() == dst.len()`), and the unaligned
        // `loadu`/`storeu` forms are used throughout.
        unsafe {
            let lo_t = _mm_loadu_si128(lo.as_ptr().cast());
            let hi_t = _mm_loadu_si128(hi.as_ptr().cast());
            let mask = _mm_set1_epi8(0x0F);
            let mut i = 0;
            while i + 16 <= len {
                let s = _mm_loadu_si128(src.as_ptr().add(i).cast());
                let lo_idx = _mm_and_si128(s, mask);
                let hi_idx = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
                let prod =
                    _mm_xor_si128(_mm_shuffle_epi8(lo_t, lo_idx), _mm_shuffle_epi8(hi_t, hi_idx));
                let out = if overwrite {
                    prod
                } else {
                    _mm_xor_si128(_mm_loadu_si128(dst.as_ptr().add(i).cast()), prod)
                };
                _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), out);
                i += 16;
            }
            i
        }
    }

    /// # Safety: host must support SSSE3; slices must be equal length.
    pub(super) unsafe fn mul_add_ssse3(dst: &mut [u8], src: &[u8], c: u8) {
        // SAFETY: the caller's contract (SSSE3 present, equal lengths) is
        // exactly `body_ssse3`'s.
        let done = unsafe { body_ssse3(dst, src, c, false) };
        portable_mul_add(&mut dst[done..], &src[done..], c);
    }

    /// # Safety: host must support SSSE3; slices must be equal length.
    pub(super) unsafe fn mul_into_ssse3(dst: &mut [u8], src: &[u8], c: u8) {
        // SAFETY: the caller's contract (SSSE3 present, equal lengths) is
        // exactly `body_ssse3`'s.
        let done = unsafe { body_ssse3(dst, src, c, true) };
        let row = &MUL[c as usize];
        for (d, s) in dst[done..].iter_mut().zip(&src[done..]) {
            *d = row[*s as usize];
        }
    }

    /// In-place `dst[i] = c · dst[i]` over all full 16-byte chunks; returns
    /// the number of bytes processed. A dedicated body (rather than calling
    /// `body_ssse3` with `src == dst`) because a `&[u8]`/`&mut [u8]` pair
    /// over the same buffer is aliasing UB under Rust's noalias rules.
    ///
    /// # Safety
    ///
    /// Caller must ensure the host supports SSSE3.
    #[target_feature(enable = "ssse3")]
    unsafe fn body_inplace_ssse3(dst: &mut [u8], c: u8) -> usize {
        let (lo, hi) = nibble_tables(c);
        let len = dst.len();
        // SAFETY: every access reads and writes through `dst`'s own
        // pointer, bounded by `i + 16 <= len`, with unaligned
        // loadu/storeu forms throughout.
        unsafe {
            let lo_t = _mm_loadu_si128(lo.as_ptr().cast());
            let hi_t = _mm_loadu_si128(hi.as_ptr().cast());
            let mask = _mm_set1_epi8(0x0F);
            let mut i = 0;
            while i + 16 <= len {
                let s = _mm_loadu_si128(dst.as_ptr().add(i).cast());
                let lo_idx = _mm_and_si128(s, mask);
                let hi_idx = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
                let prod =
                    _mm_xor_si128(_mm_shuffle_epi8(lo_t, lo_idx), _mm_shuffle_epi8(hi_t, hi_idx));
                _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), prod);
                i += 16;
            }
            i
        }
    }

    /// # Safety: host must support SSSE3.
    pub(super) unsafe fn mul_assign_ssse3(dst: &mut [u8], c: u8) {
        // SAFETY: the caller's SSSE3 guarantee is `body_inplace_ssse3`'s
        // whole contract.
        let done = unsafe { body_inplace_ssse3(dst, c) };
        let row = &MUL[c as usize];
        for d in dst[done..].iter_mut() {
            *d = row[*d as usize];
        }
    }

    /// # Safety: host must support AVX2; slices must be equal length.
    #[target_feature(enable = "avx2")]
    unsafe fn body_avx2(dst: &mut [u8], src: &[u8], c: u8, overwrite: bool) -> usize {
        let (lo, hi) = nibble_tables(c);
        let len = dst.len();
        // SAFETY: table loads read 16 bytes from 16-byte arrays;
        // `i + 32 <= len` bounds every region access (the caller
        // guarantees `src.len() == dst.len()`), and the unaligned
        // loadu/storeu forms are used throughout.
        unsafe {
            let lo_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
            let hi_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
            let mask = _mm256_set1_epi8(0x0F);
            let mut i = 0;
            while i + 32 <= len {
                let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
                let lo_idx = _mm256_and_si256(s, mask);
                let hi_idx = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo_t, lo_idx),
                    _mm256_shuffle_epi8(hi_t, hi_idx),
                );
                let out = if overwrite {
                    prod
                } else {
                    _mm256_xor_si256(_mm256_loadu_si256(dst.as_ptr().add(i).cast()), prod)
                };
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), out);
                i += 32;
            }
            i
        }
    }

    /// # Safety: host must support AVX2; slices must be equal length.
    pub(super) unsafe fn mul_add_avx2(dst: &mut [u8], src: &[u8], c: u8) {
        // SAFETY: the caller's contract (AVX2 present, equal lengths) is
        // exactly `body_avx2`'s.
        let done = unsafe { body_avx2(dst, src, c, false) };
        portable_mul_add(&mut dst[done..], &src[done..], c);
    }

    /// # Safety: host must support AVX2; slices must be equal length.
    pub(super) unsafe fn mul_into_avx2(dst: &mut [u8], src: &[u8], c: u8) {
        // SAFETY: the caller's contract (AVX2 present, equal lengths) is
        // exactly `body_avx2`'s.
        let done = unsafe { body_avx2(dst, src, c, true) };
        let row = &MUL[c as usize];
        for (d, s) in dst[done..].iter_mut().zip(&src[done..]) {
            *d = row[*s as usize];
        }
    }

    /// In-place `dst[i] = c · dst[i]` over all full 32-byte chunks; returns
    /// the number of bytes processed. Dedicated body for the same aliasing
    /// reason as `body_inplace_ssse3`.
    ///
    /// # Safety
    ///
    /// Caller must ensure the host supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn body_inplace_avx2(dst: &mut [u8], c: u8) -> usize {
        let (lo, hi) = nibble_tables(c);
        let len = dst.len();
        // SAFETY: every access reads and writes through `dst`'s own
        // pointer, bounded by `i + 32 <= len`, with unaligned
        // loadu/storeu forms throughout.
        unsafe {
            let lo_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
            let hi_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
            let mask = _mm256_set1_epi8(0x0F);
            let mut i = 0;
            while i + 32 <= len {
                let s = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
                let lo_idx = _mm256_and_si256(s, mask);
                let hi_idx = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo_t, lo_idx),
                    _mm256_shuffle_epi8(hi_t, hi_idx),
                );
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), prod);
                i += 32;
            }
            i
        }
    }

    /// # Safety: host must support AVX2.
    pub(super) unsafe fn mul_assign_avx2(dst: &mut [u8], c: u8) {
        // SAFETY: the caller's AVX2 guarantee is `body_inplace_avx2`'s
        // whole contract.
        let done = unsafe { body_inplace_avx2(dst, c) };
        let row = &MUL[c as usize];
        for d in dst[done..].iter_mut() {
            *d = row[*d as usize];
        }
    }

    /// # Safety: host must support AVX2; slices must be equal length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_assign_avx2(dst: &mut [u8], src: &[u8]) {
        let len = dst.len();
        let mut i = 0;
        // SAFETY: `i + 32 <= len` bounds every unaligned access, and the
        // caller guarantees `src.len() == dst.len()`.
        unsafe {
            while i + 32 <= len {
                let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
                let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d, s));
                i += 32;
            }
        }
        portable_xor(&mut dst[i..], &src[i..]);
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
// AArch64 NEON TBL kernels. NEON is mandatory on AArch64, so these are safe
// fns — the only unsafety is the raw-pointer loads, bounded like the x86
// ones.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{nibble_tables, portable_mul_add};
    use crate::tables::MUL;
    use std::arch::aarch64::*;

    pub(super) fn mul_add_neon(dst: &mut [u8], src: &[u8], c: u8) {
        let (lo, hi) = nibble_tables(c);
        let len = dst.len();
        // SAFETY: NEON is architecturally guaranteed on AArch64; every
        // pointer access is bounded by `i + 16 <= len`.
        let i = unsafe {
            let lo_t = vld1q_u8(lo.as_ptr());
            let hi_t = vld1q_u8(hi.as_ptr());
            let mut i = 0;
            while i + 16 <= len {
                let s = vld1q_u8(src.as_ptr().add(i));
                let d = vld1q_u8(dst.as_ptr().add(i));
                let prod = veorq_u8(
                    vqtbl1q_u8(lo_t, vandq_u8(s, vdupq_n_u8(0x0F))),
                    vqtbl1q_u8(hi_t, vshrq_n_u8(s, 4)),
                );
                vst1q_u8(dst.as_mut_ptr().add(i), veorq_u8(d, prod));
                i += 16;
            }
            i
        };
        portable_mul_add(&mut dst[i..], &src[i..], c);
    }

    pub(super) fn mul_into_neon(dst: &mut [u8], src: &[u8], c: u8) {
        let (lo, hi) = nibble_tables(c);
        let len = dst.len();
        // SAFETY: as above — mandatory NEON, bounded accesses.
        let i = unsafe {
            let lo_t = vld1q_u8(lo.as_ptr());
            let hi_t = vld1q_u8(hi.as_ptr());
            let mut i = 0;
            while i + 16 <= len {
                let s = vld1q_u8(src.as_ptr().add(i));
                let prod = veorq_u8(
                    vqtbl1q_u8(lo_t, vandq_u8(s, vdupq_n_u8(0x0F))),
                    vqtbl1q_u8(hi_t, vshrq_n_u8(s, 4)),
                );
                vst1q_u8(dst.as_mut_ptr().add(i), prod);
                i += 16;
            }
            i
        };
        let row = &MUL[c as usize];
        for (d, s) in dst[i..].iter_mut().zip(&src[i..]) {
            *d = row[*s as usize];
        }
    }

    pub(super) fn mul_assign_neon(dst: &mut [u8], c: u8) {
        let (lo, hi) = nibble_tables(c);
        let len = dst.len();
        // SAFETY: as above; the in-place form reads each chunk fully before
        // storing it.
        let i = unsafe {
            let lo_t = vld1q_u8(lo.as_ptr());
            let hi_t = vld1q_u8(hi.as_ptr());
            let mut i = 0;
            while i + 16 <= len {
                let s = vld1q_u8(dst.as_ptr().add(i));
                let prod = veorq_u8(
                    vqtbl1q_u8(lo_t, vandq_u8(s, vdupq_n_u8(0x0F))),
                    vqtbl1q_u8(hi_t, vshrq_n_u8(s, 4)),
                );
                vst1q_u8(dst.as_mut_ptr().add(i), prod);
                i += 16;
            }
            i
        };
        let row = &MUL[c as usize];
        for d in dst[i..].iter_mut() {
            *d = row[*d as usize];
        }
    }

    pub(super) fn dot4_neon(dst: &mut [u8], srcs: &[&[u8]; 4], cs: [u8; 4]) {
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
    use crate::scalar::mul_loop;

    fn reference(dst: &[u8], src: &[u8], c: u8) -> Vec<u8> {
        dst.iter().zip(src).map(|(&d, &s)| d ^ mul_loop(c, s)).collect()
    }

    #[test]
    fn detection_is_cached_and_consistent() {
        let first = active_kernel();
        for _ in 0..3 {
            assert_eq!(active_kernel(), first);
        }
        assert!(first.is_available());
        assert!(SimdKernel::available().contains(&first));
    }

    #[test]
    fn portable_is_always_available() {
        assert!(SimdKernel::Portable.is_available());
        assert_eq!(*SimdKernel::available().last().unwrap(), SimdKernel::Portable);
    }

    #[test]
    fn every_available_kernel_matches_scalar() {
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let dst0: Vec<u8> = (0..len).map(|i| (i * 91 + 5) as u8).collect();
            for c in [0u8, 1, 2, 0x53, 0x80, 0xFF] {
                let want = reference(&dst0, &src, c);
                for kernel in SimdKernel::available() {
                    let mut dst = dst0.clone();
                    mul_add_assign_with_kernel(kernel, &mut dst, &src, c);
                    assert_eq!(dst, want, "kernel {kernel:?}, c={c}, len={len}");
                }
            }
        }
    }

    #[test]
    fn unavailable_kernel_falls_back_portably() {
        // Whatever the host, at least one enum variant is foreign to it.
        let foreign = [SimdKernel::Avx2, SimdKernel::Ssse3, SimdKernel::Neon]
            .into_iter()
            .find(|k| !k.is_available());
        let Some(kernel) = foreign else {
            return; // host supports everything it could name
        };
        let src: Vec<u8> = (0..65).map(|i| i as u8).collect();
        let mut dst = vec![0xAA; 65];
        let want = reference(&dst, &src, 0x1D);
        mul_add_assign_with_kernel(kernel, &mut dst, &src, 0x1D);
        assert_eq!(dst, want);
    }

    #[test]
    fn dot_assign_blocks_and_remainders_agree() {
        // 6 sources = one full DOT_BLOCK + 2 remainder, with a zero
        // coefficient dropped before blocking.
        let len = 67usize;
        let sources: Vec<Vec<u8>> =
            (0..6).map(|s| (0..len).map(|i| (i * 7 + s * 13 + 1) as u8).collect()).collect();
        let refs: Vec<&[u8]> = sources.iter().map(|s| s.as_slice()).collect();
        let coeffs = [0x02u8, 0x00, 0x53, 0xFE, 0x01, 0x9A];
        let mut want = vec![0x11u8; len];
        for (s, &c) in refs.iter().zip(&coeffs) {
            let mut tmp = want.clone();
            for (d, &b) in tmp.iter_mut().zip(*s) {
                *d ^= mul_loop(c, b);
            }
            want = tmp;
        }
        for kernel in SimdKernel::available() {
            let mut dst = vec![0x11u8; len];
            dot_assign_with_kernel(kernel, &mut dst, &refs, &coeffs);
            assert_eq!(dst, want, "kernel {kernel:?}");
        }
    }

    #[test]
    fn xor_kernels_agree() {
        let a: Vec<u8> = (0..97).map(|i| (i * 5) as u8).collect();
        let b: Vec<u8> = (0..97).map(|i| (i * 11 + 3) as u8).collect();
        let want: Vec<u8> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
        for kernel in SimdKernel::available() {
            let mut dst = a.clone();
            xor_assign_with_kernel(kernel, &mut dst, &b);
            assert_eq!(dst, want, "kernel {kernel:?}");
        }
    }
}
