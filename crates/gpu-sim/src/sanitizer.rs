//! Opt-in kernel sanitizer: memcheck, racecheck, and performance lints.
//!
//! CUDA ships `cuda-memcheck` (today `compute-sanitizer`) for exactly the
//! bug classes that plague hand-tuned kernels like the paper's: global
//! accesses that stray outside an allocation, reads of memory nothing ever
//! wrote, and shared-memory races between warps that the lockstep execution
//! of a *single* warp happens to hide. This module is the simulator's
//! equivalent, plus a profiler-style lint pass over the cost counters the
//! simulator measures anyway.
//!
//! The sanitizer is opt-in ([`crate::Gpu::enable_sanitizer`] or
//! [`crate::Gpu::launch_checked`]) because shadow-memory bookkeeping costs
//! several times the plain functional simulation; measurement runs leave it
//! off, correctness CI turns it on. Three analyses share one pass over the
//! instrumented [`crate::BlockCtx`] operations:
//!
//! * **memcheck** — every global address must fall inside a live
//!   allocation (the 256-byte alignment gaps between buffers and the
//!   unallocated tail of device memory are poison), and every read must
//!   only see bytes that a kernel store, [`crate::Gpu::upload`], or
//!   [`crate::Gpu::poke`] initialized.
//! * **racecheck** — shared-memory accesses are tracked per byte between
//!   barriers ([`crate::BlockCtx::sync`] advances the epoch). Two accesses
//!   from *different warps* in the same epoch touching the same byte, at
//!   least one of them a non-atomic write, are a hazard: the simulator's
//!   sequential warp order masks the bug, real hardware does not. Atomics
//!   are ordered against each other but race with plain accesses.
//! * **performance lints** — per-launch aggregates flag uncoalesced global
//!   access patterns, shared-memory bank-conflict hotspots, heavy
//!   branch-divergence (mostly-idle warps), and occupancy too low to hide
//!   DRAM latency. Lints are [`Severity::Warning`]/[`Severity::Info`];
//!   only correctness findings are [`Severity::Error`], so
//!   [`SanitizerReport::is_clean`] can gate CI without forbidding the
//!   deliberate trade-offs the paper's kernels make.
//!
//! Accesses made through raw views ([`crate::BlockCtx::shared_slice`],
//! [`crate::Gpu::peek`], [`crate::BlockCtx::peek_global_u32`]) bypass the
//! instrumented operations and are invisible to all three analyses.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::mem::GlobalMemory;
use crate::stats::LaunchStats;
use crate::timing::WARPS_FOR_FULL_HIDING;

/// Average coalesced transactions per warp-level global operation above
/// which the uncoalesced-access lint fires. The coalesced floor is one
/// transaction per half-warp (2 per op); data-dependent table lookups in
/// global memory run an order of magnitude above it.
pub(crate) const LINT_TX_PER_GMEM_OP: f64 = 4.0;

/// Average extra serialization cycles per warp-level shared operation above
/// which the bank-conflict lint fires. Conflict-free access adds zero; the
/// paper's single shared exp table averages ~3 conflicts per 16 requests,
/// which is well above this line, while the 8-replica layout drops back
/// under it.
pub(crate) const LINT_CONFLICT_CYCLES_PER_SMEM_OP: f64 = 4.0;

/// Minimum average fraction of active lanes per memory operation before the
/// divergence lint fires.
pub(crate) const LINT_MIN_ACTIVE_LANE_FRACTION: f64 = 0.5;

/// Minimum operation count before the per-op average lints are considered
/// meaningful (tiny launches produce noisy averages).
const LINT_MIN_OPS: u64 = 32;

/// Which analyses an enabled sanitizer runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SanitizerConfig {
    /// Validate global addresses against allocations and track
    /// initialization of device memory.
    pub(crate) memcheck: bool,
    /// Detect cross-warp shared-memory hazards between barriers.
    pub(crate) racecheck: bool,
    /// Emit performance lints (never [`Severity::Error`]).
    pub(crate) perf_lints: bool,
    /// Distinct sites reported per diagnostic kind per launch; further
    /// sites are counted and summarized instead of listed.
    pub(crate) max_sites_per_kind: usize,
}

impl Default for SanitizerConfig {
    fn default() -> SanitizerConfig {
        SanitizerConfig { memcheck: true, racecheck: true, perf_lints: true, max_sites_per_kind: 8 }
    }
}

impl SanitizerConfig {
    /// Memcheck and racecheck only — what a correctness gate wants, without
    /// lints about intentional performance trade-offs.
    pub fn correctness_only() -> SanitizerConfig {
        SanitizerConfig { perf_lints: false, ..SanitizerConfig::default() }
    }
}

/// How bad a finding is.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// A correctness bug on real hardware (the simulator may mask it).
    Error,
    /// A performance problem worth fixing.
    Warning,
    /// Advisory evidence; expected for some workloads.
    Info,
}

/// The class of a finding.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiagnosticKind {
    /// A global access outside every live allocation (alignment gap or
    /// unallocated memory), or straddling an allocation's end.
    GlobalOutOfBounds,
    /// A global read of bytes no store, upload, or poke initialized.
    UninitializedGlobalRead,
    /// A shared-memory read of bytes no instrumented store initialized.
    UninitializedSharedRead,
    /// Two warps touched the same shared byte in one barrier epoch, at
    /// least one with a non-atomic write.
    SharedRace,
    /// Global accesses average far more transactions per operation than the
    /// coalesced floor.
    Uncoalesced,
    /// Shared accesses average significant bank-conflict serialization.
    BankConflict,
    /// Most lanes are inactive in the average memory operation.
    Divergence,
    /// Too few resident warps per SM to hide DRAM latency.
    LowOccupancy,
}

impl DiagnosticKind {
    /// The severity this kind always carries.
    pub(crate) fn severity(self) -> Severity {
        match self {
            DiagnosticKind::GlobalOutOfBounds
            | DiagnosticKind::UninitializedGlobalRead
            | DiagnosticKind::UninitializedSharedRead
            | DiagnosticKind::SharedRace => Severity::Error,
            DiagnosticKind::Uncoalesced | DiagnosticKind::BankConflict => Severity::Warning,
            DiagnosticKind::Divergence | DiagnosticKind::LowOccupancy => Severity::Info,
        }
    }

    /// Short `analysis/kind` label used in rendered reports.
    pub fn label(self) -> &'static str {
        match self {
            DiagnosticKind::GlobalOutOfBounds => "memcheck/global-oob",
            DiagnosticKind::UninitializedGlobalRead => "memcheck/uninit-global-read",
            DiagnosticKind::UninitializedSharedRead => "memcheck/uninit-shared-read",
            DiagnosticKind::SharedRace => "racecheck/shared-race",
            DiagnosticKind::Uncoalesced => "lint/uncoalesced",
            DiagnosticKind::BankConflict => "lint/bank-conflict",
            DiagnosticKind::Divergence => "lint/divergence",
            DiagnosticKind::LowOccupancy => "lint/low-occupancy",
        }
    }
}

/// One finding, attributed to the kernel launch that produced it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// What was found.
    pub kind: DiagnosticKind,
    /// How bad it is (always `DiagnosticKind::severity`).
    pub severity: Severity,
    /// Label of the launch (kernel type name, or the label passed to
    /// [`crate::Gpu::launch_checked`]).
    pub kernel: String,
    /// Block index of the first occurrence, when block-attributable.
    pub(crate) block: Option<usize>,
    /// Human-readable evidence.
    pub detail: String,
    /// Dynamic occurrences folded into this site.
    pub occurrences: u64,
}

impl Diagnostic {
    fn render(&self) -> String {
        let sev = match self.severity {
            Severity::Error => "E",
            Severity::Warning => "W",
            Severity::Info => "I",
        };
        let block = match self.block {
            Some(b) => format!(" block {b}"),
            None => String::new(),
        };
        let reps =
            if self.occurrences > 1 { format!(" (x{})", self.occurrences) } else { String::new() };
        format!("[{sev}] {} {}{block}: {}{reps}", self.kind.label(), self.kernel, self.detail)
    }
}

/// Findings accumulated by the sanitizer — per launch (in
/// [`LaunchStats::sanitizer`]) or across a session
/// ([`crate::Gpu::sanitizer_report`]).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SanitizerReport {
    /// Sanitized launches covered by this report.
    pub launches: usize,
    /// All findings, deduplicated by site with occurrence counts.
    pub diagnostics: Vec<Diagnostic>,
}

impl SanitizerReport {
    /// Findings of a given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// Whether no correctness errors were found (lints do not count).
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Error) == 0
    }

    /// Whether any finding of `kind` is present.
    pub fn has(&self, kind: DiagnosticKind) -> bool {
        self.diagnostics.iter().any(|d| d.kind == kind)
    }

    /// The findings of one kind.
    pub fn of_kind(&self, kind: DiagnosticKind) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.kind == kind)
    }

    /// A multi-line human-readable report, one line per finding.
    pub fn render(&self) -> String {
        let mut out = format!(
            "kernel sanitizer: {} error(s), {} warning(s), {} note(s) over {} launch(es)\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
            self.launches,
        );
        for d in &self.diagnostics {
            out.push_str("  ");
            out.push_str(&d.render());
            out.push('\n');
        }
        out
    }
}

/// Shadow state for device (global) memory: allocation extents plus a
/// per-byte "has been initialized" bitmap sized to the allocation
/// high-water mark.
#[derive(Debug, Default)]
struct GlobalShadow {
    /// `(offset, len)` of every live allocation, sorted by offset (the bump
    /// allocator only ever appends).
    extents: Vec<(u64, u64)>,
    /// One bit per device byte in `[0, high-water)`; set = initialized.
    init: Vec<u64>,
}

impl GlobalShadow {
    fn note_alloc(&mut self, offset: u64, len: u64) {
        debug_assert!(self.extents.last().is_none_or(|&(o, l)| o + l <= offset));
        self.extents.push((offset, len));
        let words = ((offset + len) as usize).div_ceil(64);
        if words > self.init.len() {
            self.init.resize(words, 0);
        }
    }

    /// The allocation containing `addr`, if any.
    fn find_extent(&self, addr: u64) -> Option<(u64, u64)> {
        let i = self.extents.partition_point(|&(o, _)| o <= addr);
        let (o, l) = *self.extents.get(i.checked_sub(1)?)?;
        (addr < o + l).then_some((o, l))
    }

    fn mark_init(&mut self, addr: u64, len: u64) {
        for b in addr..addr + len {
            let (w, bit) = (b as usize / 64, b % 64);
            if let Some(word) = self.init.get_mut(w) {
                *word |= 1 << bit;
            }
        }
    }

    /// First uninitialized byte in `[addr, addr + len)`, if any.
    fn first_uninit(&self, addr: u64, len: u64) -> Option<u64> {
        (addr..addr + len)
            .find(|&b| self.init.get(b as usize / 64).is_none_or(|w| w & (1 << (b % 64)) == 0))
    }

    fn mark_all_init(&mut self) {
        self.init.fill(u64::MAX);
    }

    fn clear(&mut self) {
        self.extents.clear();
        self.init.clear();
    }
}

/// Per-byte access record within one barrier epoch: bitmasks of the warps
/// that read, wrote, or atomically updated the byte.
#[derive(Copy, Clone, Debug, Default)]
struct ByteAccess {
    readers: u64,
    writers: u64,
    atomics: u64,
}

/// Per-block racecheck and shared-memory shadow state.
#[derive(Debug)]
struct BlockState {
    block_idx: usize,
    /// Warp issuing the current operations (set by
    /// [`crate::BlockCtx::at_warp`]).
    current_warp: usize,
    /// Barrier epoch; [`crate::BlockCtx::sync`] advances it.
    epoch: u64,
    /// Same-epoch access table, keyed by shared byte address.
    accesses: HashMap<u32, ByteAccess>,
    /// One bit per shared byte; set = initialized by an instrumented store.
    shared_init: Vec<u64>,
}

impl BlockState {
    fn new(block_idx: usize, shared_bytes: usize) -> BlockState {
        BlockState {
            block_idx,
            current_warp: 0,
            epoch: 0,
            accesses: HashMap::new(),
            shared_init: vec![0; shared_bytes.div_ceil(64)],
        }
    }

    fn shared_is_init(&self, addr: u32, len: u32) -> Option<u32> {
        (addr..addr + len).find(|&b| {
            self.shared_init.get(b as usize / 64).is_none_or(|w| w & (1 << (b % 64)) == 0)
        })
    }

    fn mark_shared_init(&mut self, addr: u32, len: u32) {
        for b in addr..addr + len {
            if let Some(word) = self.shared_init.get_mut(b as usize / 64) {
                *word |= 1 << (b % 64);
            }
        }
    }
}

/// Per-launch aggregates feeding the performance lints.
#[derive(Debug, Default)]
struct LaunchAccum {
    label: String,
    gmem_ops: u64,
    gmem_tx: u64,
    worst_tx_per_op: u64,
    smem_ops: u64,
    smem_extra_cycles: u64,
    worst_extra_per_op: u64,
    active_lanes: u64,
    lane_slots: u64,
}

/// The sanitizer's full mutable state, owned by [`crate::Gpu`] while
/// enabled and threaded into every [`crate::BlockCtx`] it creates.
#[derive(Debug)]
pub(crate) struct SanitizerState {
    config: SanitizerConfig,
    shadow: GlobalShadow,
    report: SanitizerReport,
    accum: LaunchAccum,
    block: Option<BlockState>,
    /// Site deduplication for the current launch: `(kind, site key)` →
    /// index into `report.diagnostics`.
    dedup: HashMap<(DiagnosticKind, u64), usize>,
    /// Distinct sites listed per kind this launch (for the cap).
    sites_per_kind: HashMap<DiagnosticKind, u64>,
    /// Distinct sites suppressed past the cap this launch.
    suppressed: HashMap<DiagnosticKind, u64>,
    /// Start of the current launch's findings in `report.diagnostics`.
    launch_start: usize,
}

impl SanitizerState {
    /// Creates sanitizer state seeded from the current memory map.
    /// Allocations made *before* enabling are conservatively treated as
    /// fully initialized (their write history was not observed).
    pub(crate) fn new(config: SanitizerConfig, mem: &GlobalMemory) -> SanitizerState {
        let mut shadow = GlobalShadow::default();
        for &(offset, len) in mem.extents() {
            shadow.note_alloc(offset, len);
        }
        shadow.mark_all_init();
        SanitizerState {
            config,
            shadow,
            report: SanitizerReport::default(),
            accum: LaunchAccum::default(),
            block: None,
            dedup: HashMap::new(),
            sites_per_kind: HashMap::new(),
            suppressed: HashMap::new(),
            launch_start: 0,
        }
    }

    /// The session-wide report (all sanitized launches so far).
    pub(crate) fn report(&self) -> &SanitizerReport {
        &self.report
    }

    // ------------------------------------------------------------------
    // Shadow maintenance (driven by Gpu host-side operations)
    // ------------------------------------------------------------------

    pub(crate) fn note_alloc(&mut self, offset: u64, len: u64) {
        self.shadow.note_alloc(offset, len);
    }

    pub(crate) fn mark_initialized(&mut self, offset: u64, len: u64) {
        self.shadow.mark_init(offset, len);
    }

    /// Gives up initialization tracking for everything currently allocated
    /// (used after a sampled launch leaves device memory partially
    /// written).
    pub(crate) fn mark_all_initialized(&mut self) {
        self.shadow.mark_all_init();
    }

    pub(crate) fn clear_shadow(&mut self) {
        self.shadow.clear();
    }

    // ------------------------------------------------------------------
    // Launch/block lifecycle (driven by Gpu::launch and BlockCtx)
    // ------------------------------------------------------------------

    pub(crate) fn begin_launch(&mut self, label: &str) {
        self.accum = LaunchAccum { label: label.to_string(), ..LaunchAccum::default() };
        self.dedup.clear();
        self.sites_per_kind.clear();
        self.suppressed.clear();
        self.launch_start = self.report.diagnostics.len();
    }

    pub(crate) fn begin_block(&mut self, block_idx: usize, shared_bytes: usize) {
        self.block = Some(BlockState::new(block_idx, shared_bytes));
    }

    pub(crate) fn set_warp(&mut self, warp: usize) {
        if let Some(block) = &mut self.block {
            block.current_warp = warp;
        }
    }

    pub(crate) fn on_sync(&mut self) {
        if let Some(block) = &mut self.block {
            block.epoch += 1;
            block.accesses.clear();
        }
    }

    /// Closes the launch: runs the lint pass over the aggregates, folds
    /// suppressed-site summaries in, and returns this launch's findings.
    pub(crate) fn finish_launch(&mut self, stats: &LaunchStats) -> SanitizerReport {
        self.block = None;
        if self.config.perf_lints {
            self.lint_pass(stats);
        }
        for (kind, n) in std::mem::take(&mut self.suppressed) {
            let label = self.accum.label.clone();
            self.report.diagnostics.push(Diagnostic {
                kind,
                severity: kind.severity(),
                kernel: label,
                block: None,
                detail: format!(
                    "{n} additional distinct site(s) suppressed (cap {} per kind per launch)",
                    self.config.max_sites_per_kind
                ),
                occurrences: n,
            });
        }
        self.report.launches += 1;
        SanitizerReport {
            launches: 1,
            diagnostics: self.report.diagnostics[self.launch_start..].to_vec(),
        }
    }

    fn lint_pass(&mut self, stats: &LaunchStats) {
        let LaunchAccum {
            gmem_ops,
            gmem_tx,
            worst_tx_per_op: worst_tx,
            smem_ops,
            smem_extra_cycles,
            worst_extra_per_op: worst_extra,
            active_lanes,
            lane_slots,
            ..
        } = self.accum;
        if gmem_ops >= LINT_MIN_OPS {
            let avg = gmem_tx as f64 / gmem_ops as f64;
            if avg > LINT_TX_PER_GMEM_OP {
                self.emit(DiagnosticKind::Uncoalesced, 0, |_| {
                    format!(
                        "{avg:.1} transactions per global op over {gmem_ops} ops ({gmem_tx} tx, \
                         worst op {worst_tx}; coalesced floor is 2 per op)"
                    )
                });
            }
        }
        if smem_ops >= LINT_MIN_OPS {
            let avg = smem_extra_cycles as f64 / smem_ops as f64;
            if avg > LINT_CONFLICT_CYCLES_PER_SMEM_OP {
                self.emit(DiagnosticKind::BankConflict, 0, |_| {
                    format!(
                        "{avg:.1} conflict cycles per shared op over {smem_ops} ops \
                         ({smem_extra_cycles} cycles, worst op {worst_extra}; conflict-free is 0)"
                    )
                });
            }
        }
        if lane_slots >= LINT_MIN_OPS * 32 {
            let frac = active_lanes as f64 / lane_slots as f64;
            if frac < LINT_MIN_ACTIVE_LANE_FRACTION {
                self.emit(DiagnosticKind::Divergence, 0, |_| {
                    format!(
                        "average memory op keeps only {:.0}% of lanes active (predication or \
                         divergent branches idle the rest)",
                        frac * 100.0
                    )
                });
            }
        }
        if (stats.resident_warps_per_sm as u64) < WARPS_FOR_FULL_HIDING {
            let warps = stats.resident_warps_per_sm;
            self.emit(DiagnosticKind::LowOccupancy, 0, |_| {
                format!(
                    "{warps} resident warp(s) per SM; {WARPS_FOR_FULL_HIDING} needed to fully \
                     hide DRAM latency (exposed {} cycles)",
                    stats.exposed_latency_cycles
                )
            });
        }
    }

    // ------------------------------------------------------------------
    // Instrumented accesses (driven by BlockCtx operations)
    // ------------------------------------------------------------------

    /// One warp-level global access of `addrs.len()` active lanes, `size`
    /// bytes each, already coalesced into `tx` transactions.
    pub(crate) fn global_access(
        &mut self,
        addrs: &[u64],
        size: u64,
        write: bool,
        tx: u64,
        warp_size: usize,
    ) {
        if self.config.perf_lints {
            self.accum.gmem_ops += 1;
            self.accum.gmem_tx += tx;
            self.accum.worst_tx_per_op = self.accum.worst_tx_per_op.max(tx);
            self.accum.active_lanes += addrs.len() as u64;
            self.accum.lane_slots += warp_size as u64;
        }
        if self.config.memcheck {
            for &a in addrs {
                self.check_global_one(a, size, write);
            }
        }
    }

    /// A single-address global access (broadcast loads, texture lanes).
    pub(crate) fn global_one(&mut self, addr: u64, size: u64, write: bool) {
        if self.config.memcheck {
            self.check_global_one(addr, size, write);
        }
    }

    fn check_global_one(&mut self, addr: u64, size: u64, write: bool) {
        let verb = if write { "write" } else { "read" };
        match self.shadow.find_extent(addr) {
            None => {
                self.emit(DiagnosticKind::GlobalOutOfBounds, addr / 64, |b| {
                    format!(
                        "{verb} of {size} B at device address {addr:#x} hits no live allocation \
                         (alignment gap or unallocated memory){b}"
                    )
                });
            }
            Some((offset, len)) if addr + size > offset + len => {
                self.emit(DiagnosticKind::GlobalOutOfBounds, addr / 64, |b| {
                    format!(
                        "{verb} of {size} B at device address {addr:#x} straddles the end of the \
                         {len}-byte allocation at {offset:#x}{b}"
                    )
                });
            }
            Some(_) if !write => {
                if let Some(bad) = self.shadow.first_uninit(addr, size) {
                    self.emit(DiagnosticKind::UninitializedGlobalRead, bad / 64, |b| {
                        format!(
                            "read of {size} B at device address {addr:#x} includes byte {bad:#x}, \
                             which no store, upload, or poke initialized{b}"
                        )
                    });
                }
            }
            Some(_) => {}
        }
        if write {
            self.shadow.mark_init(addr, size);
        }
    }

    /// One warp-level shared access, with the extra bank-conflict cycles
    /// the cost model already measured for it.
    pub(crate) fn shared_access(
        &mut self,
        addrs: &[u64],
        size: u32,
        write: bool,
        extra_cycles: u64,
        warp_size: usize,
    ) {
        if self.config.perf_lints {
            self.accum.smem_ops += 1;
            self.accum.smem_extra_cycles += extra_cycles;
            self.accum.worst_extra_per_op = self.accum.worst_extra_per_op.max(extra_cycles);
            self.accum.active_lanes += addrs.len() as u64;
            self.accum.lane_slots += warp_size as u64;
        }
        let Some(mut block) = self.block.take() else { return };
        let wbit = 1u64 << block.current_warp.min(63);
        for &a in addrs {
            let a = a as u32;
            if self.config.memcheck {
                if write {
                    block.mark_shared_init(a, size);
                } else if let Some(bad) = block.shared_is_init(a, size) {
                    let idx = block.block_idx;
                    self.emit(DiagnosticKind::UninitializedSharedRead, u64::from(bad) / 64, |_| {
                        format!(
                            "block {idx} reads shared byte {bad:#x} before any instrumented \
                             store initialized it"
                        )
                    });
                }
            }
            if self.config.racecheck {
                for b in a..a + size {
                    let st = block.accesses.entry(b).or_default();
                    let hazard = if write {
                        (st.readers | st.writers | st.atomics) & !wbit
                    } else {
                        (st.writers | st.atomics) & !wbit
                    };
                    if write {
                        st.writers |= wbit;
                    } else {
                        st.readers |= wbit;
                    }
                    if hazard != 0 {
                        let (warp, epoch, idx) = (block.current_warp, block.epoch, block.block_idx);
                        let verb = if write { "writes" } else { "reads" };
                        self.emit(DiagnosticKind::SharedRace, u64::from(b) / 64, |_| {
                            format!(
                                "block {idx} epoch {epoch}: warp {warp} {verb} shared byte \
                                 {b:#x} also touched by warp(s) {} with no barrier between \
                                 (hidden by lockstep simulation; a real race on hardware)",
                                warp_list(hazard)
                            )
                        });
                    }
                }
            }
        }
        self.block = Some(block);
    }

    /// A block-wide broadcast read: every warp of the block reads the same
    /// shared word in this epoch.
    pub(crate) fn shared_broadcast_read(&mut self, addr: u32, warps: usize) {
        let Some(mut block) = self.block.take() else { return };
        let all: u64 = if warps >= 64 { u64::MAX } else { (1u64 << warps) - 1 };
        if self.config.memcheck {
            if let Some(bad) = block.shared_is_init(addr, 4) {
                let idx = block.block_idx;
                self.emit(DiagnosticKind::UninitializedSharedRead, u64::from(bad) / 64, |_| {
                    format!(
                        "block {idx} broadcast-reads shared byte {bad:#x} before any \
                         instrumented store initialized it"
                    )
                });
            }
        }
        if self.config.racecheck {
            for b in addr..addr + 4 {
                let st = block.accesses.entry(b).or_default();
                let hazard = (st.writers | st.atomics) & !all;
                let solo_writer = (st.writers | st.atomics) != 0 && warps > 1;
                st.readers |= all;
                if hazard != 0 || solo_writer {
                    let (epoch, idx) = (block.epoch, block.block_idx);
                    self.emit(DiagnosticKind::SharedRace, u64::from(b) / 64, |_| {
                        format!(
                            "block {idx} epoch {epoch}: all {warps} warps read shared byte \
                             {b:#x} written by warp(s) {} in the same epoch with no barrier \
                             between",
                            warp_list(st.writers | st.atomics)
                        )
                    });
                }
            }
        }
        self.block = Some(block);
    }

    /// One warp-level shared atomic on the 4-byte word at `addr`.
    pub(crate) fn shared_atomic(&mut self, addr: u32) {
        let Some(mut block) = self.block.take() else { return };
        let wbit = 1u64 << block.current_warp.min(63);
        if self.config.memcheck {
            // An atomic reads-modifies-writes the word, so it must start
            // initialized; it also (re)initializes it.
            if let Some(bad) = block.shared_is_init(addr, 4) {
                let idx = block.block_idx;
                self.emit(DiagnosticKind::UninitializedSharedRead, u64::from(bad) / 64, |_| {
                    format!(
                        "block {idx} atomic on shared word {addr:#x} reads byte {bad:#x} before \
                         any instrumented store initialized it"
                    )
                });
            }
            block.mark_shared_init(addr, 4);
        }
        if self.config.racecheck {
            for b in addr..addr + 4 {
                let st = block.accesses.entry(b).or_default();
                // Atomics serialize against each other but race with plain
                // same-epoch reads and writes from other warps.
                let hazard = (st.readers | st.writers) & !wbit;
                st.atomics |= wbit;
                if hazard != 0 {
                    let (warp, epoch, idx) = (block.current_warp, block.epoch, block.block_idx);
                    self.emit(DiagnosticKind::SharedRace, u64::from(b) / 64, |_| {
                        format!(
                            "block {idx} epoch {epoch}: warp {warp} atomically updates shared \
                             byte {b:#x} while warp(s) {} access it non-atomically in the same \
                             epoch",
                            warp_list(hazard)
                        )
                    });
                }
            }
        }
        self.block = Some(block);
    }

    /// Records a finding at a deduplication site. `detail` is only
    /// rendered for the first occurrence; the closure receives a
    /// ` (block N)`-style suffix hint (empty when unattributable).
    fn emit(&mut self, kind: DiagnosticKind, site: u64, detail: impl FnOnce(&str) -> String) {
        if let Some(&i) = self.dedup.get(&(kind, site)) {
            self.report.diagnostics[i].occurrences += 1;
            return;
        }
        let listed = self.sites_per_kind.entry(kind).or_insert(0);
        if *listed >= self.config.max_sites_per_kind as u64 {
            *self.suppressed.entry(kind).or_insert(0) += 1;
            return;
        }
        *listed += 1;
        let block = self.block.as_ref().map(|b| b.block_idx);
        let idx = self.report.diagnostics.len();
        self.dedup.insert((kind, site), idx);
        self.report.diagnostics.push(Diagnostic {
            kind,
            severity: kind.severity(),
            kernel: self.accum.label.clone(),
            block,
            detail: detail(""),
            occurrences: 1,
        });
    }
}

/// Renders a warp bitmask as `{0,3,7}`.
fn warp_list(mask: u64) -> String {
    let warps: Vec<String> =
        (0..64).filter(|w| mask & (1 << w) != 0).map(|w| w.to_string()).collect();
    format!("{{{}}}", warps.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(config: SanitizerConfig) -> SanitizerState {
        let mem = GlobalMemory::new(4096);
        let mut s = SanitizerState::new(config, &mem);
        s.begin_launch("test-kernel");
        s.begin_block(0, 1024);
        s
    }

    #[test]
    fn extent_lookup_finds_allocations_and_gaps() {
        let mut shadow = GlobalShadow::default();
        shadow.note_alloc(0, 100);
        shadow.note_alloc(256, 50);
        assert_eq!(shadow.find_extent(0), Some((0, 100)));
        assert_eq!(shadow.find_extent(99), Some((0, 100)));
        assert_eq!(shadow.find_extent(100), None); // alignment gap
        assert_eq!(shadow.find_extent(255), None);
        assert_eq!(shadow.find_extent(256), Some((256, 50)));
        assert_eq!(shadow.find_extent(306), None); // past the last allocation
    }

    #[test]
    fn init_bitmap_tracks_exact_bytes() {
        let mut shadow = GlobalShadow::default();
        shadow.note_alloc(0, 128);
        assert_eq!(shadow.first_uninit(0, 8), Some(0));
        shadow.mark_init(0, 4);
        assert_eq!(shadow.first_uninit(0, 4), None);
        assert_eq!(shadow.first_uninit(0, 8), Some(4));
    }

    #[test]
    fn oob_write_in_alignment_gap_is_an_error() {
        let mut s = state(SanitizerConfig::default());
        s.note_alloc(0, 100);
        s.global_access(&[100], 1, true, 1, 32);
        let stats = LaunchStats { resident_warps_per_sm: 32, ..Default::default() };
        let report = s.finish_launch(&stats);
        assert!(report.has(DiagnosticKind::GlobalOutOfBounds));
        assert!(!report.is_clean());
    }

    #[test]
    fn straddling_read_is_an_error() {
        let mut s = state(SanitizerConfig::default());
        s.note_alloc(0, 10);
        s.mark_initialized(0, 10);
        s.global_access(&[8], 4, false, 1, 32);
        assert!(s.report().has(DiagnosticKind::GlobalOutOfBounds));
    }

    #[test]
    fn uninitialized_global_read_is_flagged_and_write_clears_it() {
        let mut s = state(SanitizerConfig::default());
        s.note_alloc(0, 64);
        s.global_access(&[0, 4], 4, true, 1, 32); // writes bytes 0..8
        s.global_access(&[0, 4], 4, false, 1, 32); // clean read-back
        assert!(s.report().is_clean());
        s.global_access(&[8], 4, false, 1, 32); // never written
        assert!(s.report().has(DiagnosticKind::UninitializedGlobalRead));
    }

    #[test]
    fn cross_warp_shared_race_is_flagged_and_barrier_clears_it() {
        let mut s = state(SanitizerConfig::default());
        s.set_warp(0);
        s.shared_access(&[0], 4, true, 0, 32);
        s.set_warp(1);
        s.shared_access(&[0], 4, false, 0, 32); // RAW, no barrier
        assert!(s.report().has(DiagnosticKind::SharedRace));

        let mut s = state(SanitizerConfig::default());
        s.set_warp(0);
        s.shared_access(&[0], 4, true, 0, 32);
        s.on_sync();
        s.set_warp(1);
        s.shared_access(&[0], 4, false, 0, 32); // barrier between: clean
        assert!(s.report().is_clean());
    }

    #[test]
    fn same_warp_reuse_and_parallel_reads_are_not_races() {
        let mut s = state(SanitizerConfig::default());
        s.set_warp(0);
        s.shared_access(&[0], 4, true, 0, 32);
        s.shared_access(&[0], 4, false, 0, 32); // same warp: lockstep-safe
        s.set_warp(1);
        s.shared_access(&[64], 4, true, 0, 32);
        s.set_warp(2);
        s.shared_access(&[128], 4, false, 0, 32); // disjoint bytes
        assert_eq!(s.report().count(Severity::Error), 1); // only the uninit read at 128
        assert!(s.report().has(DiagnosticKind::UninitializedSharedRead));
    }

    #[test]
    fn atomics_order_against_each_other_but_race_with_plain_stores() {
        let mut s = state(SanitizerConfig::default());
        s.set_warp(0);
        s.shared_access(&[0], 4, true, 0, 32); // init the word
        s.on_sync();
        s.set_warp(0);
        s.shared_atomic(0);
        s.set_warp(1);
        s.shared_atomic(0); // atomic vs atomic: ordered
        assert!(s.report().is_clean());
        s.set_warp(2);
        s.shared_access(&[0], 4, true, 0, 32); // plain store vs atomics: race
        assert!(s.report().has(DiagnosticKind::SharedRace));
    }

    #[test]
    fn duplicate_sites_fold_into_occurrences_and_caps_hold() {
        let mut s = state(SanitizerConfig { max_sites_per_kind: 2, ..Default::default() });
        for _ in 0..5 {
            s.global_access(&[2048], 1, false, 1, 32); // same site every time
        }
        for a in [2112u64, 2176, 2240, 2304] {
            s.global_access(&[a], 1, false, 1, 32); // distinct sites
        }
        let stats = LaunchStats { resident_warps_per_sm: 32, ..Default::default() };
        let report = s.finish_launch(&stats);
        let oob: Vec<_> = report.of_kind(DiagnosticKind::GlobalOutOfBounds).collect();
        // 2 listed sites + 1 suppression summary.
        assert_eq!(oob.len(), 3);
        assert_eq!(oob[0].occurrences, 5);
        assert!(oob[2].detail.contains("suppressed"));
    }

    #[test]
    fn lints_fire_on_bad_aggregates_and_stay_warnings() {
        let mut s = state(SanitizerConfig { memcheck: false, ..Default::default() });
        for _ in 0..LINT_MIN_OPS {
            s.global_access(&[0; 32], 4, false, 32, 32); // 32 tx/op: terrible
            s.shared_access(&[0; 32], 4, false, 60, 32); // heavy conflicts
        }
        let stats = LaunchStats { resident_warps_per_sm: 8, ..Default::default() };
        let report = s.finish_launch(&stats);
        assert!(report.has(DiagnosticKind::Uncoalesced));
        assert!(report.has(DiagnosticKind::BankConflict));
        assert!(report.has(DiagnosticKind::LowOccupancy));
        assert!(report.is_clean(), "lints must never be errors");
    }

    #[test]
    fn quiet_kernels_produce_no_lints() {
        let mut s = state(SanitizerConfig { memcheck: false, ..Default::default() });
        for _ in 0..LINT_MIN_OPS * 2 {
            s.global_access(&[0; 32], 4, false, 2, 32); // perfectly coalesced
            s.shared_access(&[0; 32], 4, false, 0, 32); // conflict-free
        }
        let stats = LaunchStats { resident_warps_per_sm: 32, ..Default::default() };
        let report = s.finish_launch(&stats);
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn report_renders_every_finding() {
        let mut s = state(SanitizerConfig::default());
        s.global_access(&[2048], 1, true, 1, 32);
        let stats = LaunchStats { resident_warps_per_sm: 32, ..Default::default() };
        let report = s.finish_launch(&stats);
        let text = report.render();
        assert!(text.contains("memcheck/global-oob"));
        assert!(text.contains("test-kernel"));
        assert!(text.contains("1 error(s)"));
    }
}
