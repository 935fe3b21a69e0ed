//! The interpreting core: fetch → translate → decode → execute, with
//! cycle/latency accounting and the Flick exception surface.

use crate::cache::{Cache, CacheConfig};
use crate::decoded::{BlockInst, DecodedBlock, DecodedCache, SpinBranch, SpinOp, NO_SUCC};
use crate::tlb::{MmuHole, Tlb, TlbEntry};
use crate::MemEnv;
use flick_isa::inst::AluOp;
use flick_isa::{abi, ControlKind, DecodeError, Inst, Isa, MemSize, Reg, Target};
use flick_mem::{AccessKind, PhysAddr, PhysMem, Region, Requester, VirtAddr, PAGE_SIZE};
use flick_paging::{walk, WalkError};
use flick_sim::trace::Side;
use flick_sim::{Clock, Hertz, Picos, Stats};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Cycles charged per instruction class (before memory stalls).
#[derive(Clone, Copy, Debug)]
pub struct CpiModel {
    /// Simple ALU / immediate ops.
    pub alu: u64,
    /// Multiply.
    pub mul: u64,
    /// Divide / remainder.
    pub div: u64,
    /// Load/store issue overhead (memory latency added separately).
    pub mem: u64,
    /// Conditional branch.
    pub branch: u64,
    /// Jumps, calls, returns.
    pub jump: u64,
    /// Trap entry for `ecall`.
    pub ecall: u64,
}

impl CpiModel {
    /// Wide out-of-order host core: everything is cheap.
    pub fn host() -> Self {
        CpiModel {
            alu: 1,
            mul: 3,
            div: 20,
            mem: 1,
            branch: 1,
            jump: 2,
            ecall: 50,
        }
    }

    /// In-order scalar NxP core (RV64-I soft core).
    pub fn nxp() -> Self {
        CpiModel {
            alu: 1,
            mul: 5,
            div: 35,
            mem: 3,
            branch: 2,
            jump: 2,
            ecall: 10,
        }
    }

    /// Costs from an ISA descriptor's registry table (what
    /// [`CoreConfig::accel`] uses to build cores for any registered
    /// accelerator ISA).
    pub fn from_table(t: &flick_isa::CpiTable) -> Self {
        CpiModel {
            alu: t.alu,
            mul: t.mul,
            div: t.div,
            mem: t.mem,
            branch: t.branch,
            jump: t.jump,
            ecall: t.ecall,
        }
    }

    /// Host core running the software *interpreter* for foreign (NxP)
    /// text — the graceful-degradation path taken when the PCIe link is
    /// declared dead. Each guest instruction costs a dispatch loop on
    /// the wide host core, so everything is roughly an order of
    /// magnitude more expensive than native host execution.
    pub fn host_emulating() -> Self {
        CpiModel {
            alu: 14,
            mul: 18,
            div: 40,
            mem: 16,
            branch: 15,
            jump: 16,
            ecall: 80,
        }
    }
}

/// Static configuration of one core.
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Host or NxP side (selects requester, NX convention, walker cost).
    pub side: Side,
    /// Instruction encoding the core decodes.
    pub isa: Isa,
    /// Clock frequency.
    pub freq: Hertz,
    /// Per-class cycle costs.
    pub cpi: CpiModel,
    /// I-TLB entries.
    pub itlb_entries: usize,
    /// D-TLB entries.
    pub dtlb_entries: usize,
    /// I-cache geometry.
    pub icache: CacheConfig,
    /// D-cache geometry.
    pub dcache: CacheConfig,
    /// Extra per-walk firmware overhead (the NxP's MMU is a tiny
    /// microcontroller, §IV-A; zero for the host's hardware walker).
    pub walk_overhead: Picos,
    /// Allow the D-cache to cover NxP DRAM (off by default: PCIe offers
    /// no coherence, §III-D; an ablation bench flips this).
    pub dcache_nxp_dram: bool,
    /// This core models a software interpreter executing the *other*
    /// side's text (graceful degradation after link death). Inverts the
    /// fetch NX convention: a host-side emulating core fetches NX-set
    /// (NxP) pages and faults with `IsaMismatch` on NX-clear (host)
    /// pages, so control returning to host text hands execution back to
    /// the native core.
    pub emulates_foreign_isa: bool,
    /// Enables the host-side decoded-block engine (see
    /// [`DecodedCache`]). Purely a host wall-clock optimization: the
    /// simulated clocks, stats, and traces are bit-identical either way
    /// (enforced by `tests/fastpath.rs`). On by default; switched off by
    /// the differential tests.
    pub fast_path: bool,
}

impl CoreConfig {
    /// The Xeon-like host core of Table I (2.4 GHz, big TLBs).
    pub fn host() -> Self {
        CoreConfig {
            side: Side::Host,
            isa: Isa::X64,
            freq: Hertz::ghz_milli(2_400),
            cpi: CpiModel::host(),
            itlb_entries: 128,
            dtlb_entries: 128,
            icache: CacheConfig::host_l1(),
            dcache: CacheConfig::host_l1(),
            walk_overhead: Picos::ZERO,
            dcache_nxp_dram: false,
            emulates_foreign_isa: false,
            fast_path: true,
        }
    }

    /// A host core configured as the degraded-mode interpreter: decodes
    /// RV64 text at host frequency with interpreter-loop CPI, and
    /// accepts NX-set pages (see `emulates_foreign_isa`).
    pub fn host_emulator() -> Self {
        CoreConfig::host_emulator_for(Isa::Rv64)
    }

    /// A host core interpreting `guest` text in software — the
    /// graceful-degradation path, for any registered accelerator ISA.
    pub fn host_emulator_for(guest: Isa) -> Self {
        assert!(
            guest.descriptor().nx_text,
            "{guest} is host text; nothing to emulate"
        );
        CoreConfig {
            isa: guest,
            cpi: CpiModel::host_emulating(),
            emulates_foreign_isa: true,
            ..CoreConfig::host()
        }
    }

    /// The RV64-like NxP core of Table I (200 MHz, 16-entry TLBs,
    /// programmable MMU).
    pub fn nxp() -> Self {
        CoreConfig::accel(Isa::Rv64)
    }

    /// An accelerator-side core for any registered NX-text ISA, with
    /// clock and CPI drawn from the ISA's registry descriptor. The
    /// platform plumbing (tiny TLBs, small caches, firmware-walked MMU)
    /// is common to every NxP card slot, so `accel(Isa::Rv64)` is
    /// exactly [`CoreConfig::nxp`].
    ///
    /// # Panics
    ///
    /// Panics when `isa` is the host's own encoding (host cores are
    /// [`CoreConfig::host`]; they are not behind the PCIe link).
    pub fn accel(isa: Isa) -> Self {
        let d = isa.descriptor();
        assert!(d.nx_text, "{isa} is the host ISA, not an accelerator ISA");
        CoreConfig {
            side: Side::Nxp,
            isa,
            freq: Hertz::khz(d.clock_khz),
            cpi: CpiModel::from_table(&d.cpi),
            itlb_entries: 16,
            dtlb_entries: 16,
            icache: CacheConfig::nxp(),
            dcache: CacheConfig::nxp(),
            // MicroBlaze firmware: decode request, compute slot address,
            // issue reads — per missed translation.
            walk_overhead: Picos::from_nanos(150),
            dcache_nxp_dram: false,
            emulates_foreign_isa: false,
            fast_path: true,
        }
    }
}

/// Why an instruction fetch faulted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstFaultKind {
    /// No translation exists.
    NotPresent,
    /// Host core fetched from a page with NX **set** — a host thread
    /// called an NxP function. The Flick migration trigger (§III-B).
    NxViolation,
    /// NxP core fetched from a page with NX **clear** — an NxP thread
    /// called a host function. The inverted convention (§IV-B2).
    IsaMismatch,
    /// NxP fetch at a non-8-byte-aligned PC (x86 code is variable
    /// length, so host function entries are usually misaligned).
    Misaligned,
    /// Bytes did not decode in this core's ISA.
    Illegal,
}

impl fmt::Display for InstFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstFaultKind::NotPresent => "not-present",
            InstFaultKind::NxViolation => "nx-violation",
            InstFaultKind::IsaMismatch => "isa-mismatch",
            InstFaultKind::Misaligned => "misaligned",
            InstFaultKind::Illegal => "illegal",
        };
        write!(f, "{s}")
    }
}

/// A synchronous exception. The PC is left at the faulting instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exception {
    /// Instruction fetch fault (Flick's migration triggers live here).
    InstFault {
        /// Faulting virtual PC — for NX faults this is the *address of
        /// the target function*, which the kernel passes to the
        /// migration handler.
        va: VirtAddr,
        /// Fault classification.
        kind: InstFaultKind,
    },
    /// Data access fault.
    DataFault {
        /// Faulting data address.
        va: VirtAddr,
        /// True for stores.
        write: bool,
    },
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exception::InstFault { va, kind } => write!(f, "inst fault at {va} ({kind})"),
            Exception::DataFault { va, write } => {
                write!(f, "data fault at {va} (write={write})")
            }
        }
    }
}

/// Why [`Core::run`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// An `ecall` trapped to the kernel / NxP runtime; the PC has
    /// already advanced past it.
    Ecall(u16),
    /// A `halt` retired.
    Halt,
    /// A synchronous exception; PC still points at the faulting
    /// instruction.
    Fault(Exception),
    /// The fuel budget ran out before anything interesting happened.
    OutOfFuel,
}

/// A thread's CPU state, as saved/restored on context switches and
/// carried (in part) inside migration descriptors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpuContext {
    /// General-purpose registers.
    pub regs: [u64; 32],
    /// Program counter.
    pub pc: VirtAddr,
}

impl Default for CpuContext {
    fn default() -> Self {
        CpuContext {
            regs: [0; 32],
            pc: VirtAddr::NULL,
        }
    }
}

/// Hot-path event counters, kept as plain struct fields so the
/// per-instruction loop pays a register increment instead of a
/// `BTreeMap<&str, u64>` probe. They are folded into a named [`Stats`]
/// bag only at report time ([`Core::stats`]), preserving the exact key
/// set the map-backed counters produced: a key exists iff its count is
/// nonzero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Instructions retired.
    pub instructions: u64,
    /// Load instructions executed.
    pub loads: u64,
    /// Store instructions executed.
    pub stores: u64,
    /// I-TLB misses (fetch-side walks).
    pub itlb_misses: u64,
    /// D-TLB misses (data-side walks).
    pub dtlb_misses: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// D-cache misses (reads only; writes are write-through).
    pub dcache_misses: u64,
    /// Page-table walks performed (either TLB).
    pub walks: u64,
}

impl CoreCounters {
    /// Materializes the counters into a named [`Stats`] bag. Zero-valued
    /// counters are skipped so the key set is identical to what
    /// incremental `Stats::bump` calls would have produced.
    pub fn to_stats(self) -> Stats {
        let mut s = Stats::default();
        for (name, v) in [
            ("instructions", self.instructions),
            ("loads", self.loads),
            ("stores", self.stores),
            ("itlb_misses", self.itlb_misses),
            ("dtlb_misses", self.dtlb_misses),
            ("icache_misses", self.icache_misses),
            ("dcache_misses", self.dcache_misses),
            ("walks", self.walks),
        ] {
            if v != 0 {
                s.bump_by(name, v);
            }
        }
        s
    }
}

/// Host-side chain-efficacy tallies, deliberately a *separate* bag from
/// [`CoreCounters`]: those materialize into the simulated [`Stats`] the
/// differential suites compare bit-for-bit between engine variants, and
/// chain behaviour must differ between the block engine and `step`. These
/// counters describe the host execution strategy (which lane retired
/// the work), not the simulated machine, so they are reported through
/// their own accessor ([`Core::chain_counters`]) and never folded into
/// simulated stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainCounters {
    /// Control transfers that continued in the block lane through a
    /// chained successor instead of returning to top-level dispatch.
    pub chain_hits: u64,
    /// Successor links patched (first resolution of an edge).
    pub chain_patches: u64,
    /// Chain exits where the finished block *had* a static successor
    /// edge but the follow validation declined it (fuel exhausted, a
    /// cross-page or unexpected target, self-modified text, or an
    /// unresolvable successor), forcing a return to dispatch.
    pub chain_breaks: u64,
    /// Single instructions retired through the step-path fallback
    /// inside the block run loop (cold pages, MMU holes, page-spanning
    /// or pre-link text).
    pub block_fallback_steps: u64,
}

impl ChainCounters {
    /// Materializes the tallies into a named [`Stats`] bag (zero-valued
    /// counters skipped), for report-time printing. Never merged into
    /// simulated stats — see the type docs.
    pub fn to_stats(self) -> Stats {
        let mut s = Stats::default();
        for (name, v) in [
            ("chain_hits", self.chain_hits),
            ("chain_patches", self.chain_patches),
            ("chain_breaks", self.chain_breaks),
            ("block_fallback_steps", self.block_fallback_steps),
        ] {
            if v != 0 {
                s.bump_by(name, v);
            }
        }
        s
    }
}

/// Host-side memo of the last successful fetch translation: the page it
/// landed in, that page's physical frame, and the I-cache line it
/// touched. A fetch that stays on the same page with the same I-TLB
/// generation *would* be an MRU hit in [`Tlb::lookup`] and (same line)
/// a hit in [`Cache::access`]; both of those mutate nothing but their
/// private hit tallies, so skipping them is invisible to simulated
/// clocks, stats, and traces. Any I-TLB insert/flush bumps the TLB
/// generation and invalidates the frame.
#[derive(Clone, Copy)]
struct FetchFrame {
    /// 4 KiB-aligned VA page base of the last fetch.
    va_page: u64,
    /// Matching 4 KiB-aligned physical frame base.
    pa_page: u64,
    /// I-cache line index of the last fetch (the tag array is known to
    /// hold this line, so a same-line fetch is a guaranteed hit).
    line: u64,
    /// [`Tlb::generation`] snapshot at memo time.
    itlb_gen: u64,
}

/// Entries in the core's front block cache ([`Core::last_blocks`]).
/// Sized for the loop shapes the workloads actually run: a loop body
/// split by its exit branch is two blocks, a call-in-a-loop is three
/// or four. Lookup is a linear scan, so this must stay tiny.
const FRONT_BLOCKS: usize = 4;

/// Maximum instructions in one decoded (super)block. Extension through
/// direct jumps would otherwise decode forever (a `jal` to itself
/// re-decodes the same bytes); the cap also bounds how much decode work
/// a fuel cut can discard mid-block.
const SUPERBLOCK_CAP: usize = 128;

/// One interpreting core.
pub struct Core {
    cfg: CoreConfig,
    clock: Clock,
    regs: [u64; 32],
    pc: VirtAddr,
    cr3: PhysAddr,
    itlb: Tlb,
    dtlb: Tlb,
    icache: Cache,
    dcache: Cache,
    holes: Vec<MmuHole>,
    counters: CoreCounters,
    chain: ChainCounters,
    decoded: DecodedCache,
    /// Small front cache over [`DecodedCache`]'s block store: the most
    /// recently executed blocks, keyed by physical start address and
    /// the text generation each was decoded under. Hot loops cycle
    /// through a handful of blocks (a loop body split by its branch is
    /// already two); hitting here skips the basket lookup and all `Arc`
    /// reference traffic (the block is *moved* out and back). Misses
    /// fall through to the shared cache and land in round-robin order.
    last_blocks: [Option<(u64, u64, Arc<DecodedBlock>)>; FRONT_BLOCKS],
    /// Round-robin insert cursor for `last_blocks`.
    front_cursor: u8,
    /// Last-fetch translation memo (fast path only; see [`FetchFrame`]).
    fetch_frame: Option<FetchFrame>,
    /// `isa.fetch_align() - 1`, cached so the per-fetch alignment check
    /// is a mask instead of a division by a runtime value.
    fetch_align_mask: u64,
}

impl fmt::Debug for Core {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Core")
            .field("side", &self.cfg.side)
            .field("pc", &self.pc)
            .field("now", &self.clock.now())
            .finish()
    }
}

impl Core {
    /// Builds a core from its configuration.
    pub fn new(cfg: CoreConfig) -> Self {
        Core {
            clock: Clock::new(cfg.freq),
            regs: [0; 32],
            pc: VirtAddr::NULL,
            cr3: PhysAddr::NULL,
            itlb: Tlb::new(cfg.itlb_entries),
            dtlb: Tlb::new(cfg.dtlb_entries),
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            holes: Vec::new(),
            counters: CoreCounters::default(),
            chain: ChainCounters::default(),
            decoded: DecodedCache::new(),
            last_blocks: [const { None }; FRONT_BLOCKS],
            front_cursor: 0,
            fetch_frame: None,
            fetch_align_mask: cfg.isa.fetch_align() - 1,
            cfg,
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Local clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Mutable clock (the OS charges kernel time here).
    pub fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// Run statistics, materialized from the hot counters. For
    /// per-iteration polling prefer [`counters`](Self::counters), which
    /// is free.
    pub fn stats(&self) -> Stats {
        self.counters.to_stats()
    }

    /// Raw hot-path counters (no materialization cost).
    pub fn counters(&self) -> &CoreCounters {
        &self.counters
    }

    /// Host-side chain-efficacy tallies. Kept out of [`stats`]
    /// (see [`ChainCounters`]): they describe which host lane retired
    /// the work, not the simulated machine.
    ///
    /// [`stats`]: Self::stats
    pub fn chain_counters(&self) -> &ChainCounters {
        &self.chain
    }

    /// Reads a register (`zero` always reads 0).
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to `zero` are discarded).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if r.index() != 0 {
            self.regs[r.index()] = v;
        }
    }

    /// Current PC.
    pub fn pc(&self) -> VirtAddr {
        self.pc
    }

    /// Redirects the PC (kernel return-address hijack, context switch).
    pub fn set_pc(&mut self, pc: VirtAddr) {
        self.pc = pc;
    }

    /// Current page-table base.
    pub fn cr3(&self) -> PhysAddr {
        self.cr3
    }

    /// Loads a new page-table base, flushing both TLBs (as a CR3 write
    /// does). The decoded-block cache survives: it is keyed by
    /// *physical* address and every cached page is watched in `PhysMem`,
    /// so translation changes cannot alias it and text changes bump the
    /// generation it validates against. (Clearing it here used to cost
    /// migration-heavy workloads a full re-decode per context switch.)
    pub fn set_cr3(&mut self, cr3: PhysAddr) {
        self.cr3 = cr3;
        self.itlb.flush();
        self.dtlb.flush();
        self.fetch_frame = None;
    }

    /// Flushes both TLBs without changing CR3 (mprotect shootdown). As
    /// with [`set_cr3`](Self::set_cr3) the decoded cache is untouched:
    /// permission changes are enforced by the fetch path (the fetch memo
    /// is dropped here, so the next fetch re-walks and re-checks NX),
    /// not by the PA-keyed block cache.
    pub fn flush_tlbs(&mut self) {
        self.itlb.flush();
        self.dtlb.flush();
        self.fetch_frame = None;
    }

    /// Adds an MMU bypass hole (NxP scratchpad/debug windows, §IV-A).
    pub fn add_hole(&mut self, hole: MmuHole) {
        self.holes.push(hole);
        // Holes take priority over TLB translations, so a memoized fetch
        // translation may no longer be how this VA resolves.
        self.fetch_frame = None;
        self.last_blocks = [const { None }; FRONT_BLOCKS];
    }

    /// Captures the thread-visible CPU state.
    pub fn save_context(&self) -> CpuContext {
        CpuContext {
            regs: self.regs,
            pc: self.pc,
        }
    }

    /// Restores thread state (context switch in).
    pub fn restore_context(&mut self, ctx: &CpuContext) {
        self.regs = ctx.regs;
        self.pc = ctx.pc;
    }

    /// I-TLB miss count (for experiment decomposition).
    pub fn itlb_misses(&self) -> u64 {
        self.itlb.misses()
    }

    /// D-TLB miss count.
    pub fn dtlb_misses(&self) -> u64 {
        self.dtlb.misses()
    }

    fn requester(&self) -> Requester {
        match self.cfg.side {
            Side::Host | Side::Emu => Requester::HostCpu,
            Side::Nxp => Requester::NxpCore,
        }
    }

    fn walk_requester(&self) -> Requester {
        match self.cfg.side {
            Side::Host | Side::Emu => Requester::HostCpu,
            Side::Nxp => Requester::NxpMmu,
        }
    }

    /// Translates for data access; fills the D-TLB.
    fn translate_data(
        &mut self,
        va: VirtAddr,
        write: bool,
        mem: &PhysMem,
        env: &MemEnv,
    ) -> Result<PhysAddr, Exception> {
        // Most cores configure no holes; skip the scan outright then.
        if !self.holes.is_empty() {
            if let Some(h) = self.holes.iter().find(|h| h.contains(va)) {
                return Ok(h.translate(va));
            }
        }
        let entry = match self.dtlb.lookup(va) {
            Some(e) => e,
            None => {
                let e = self.walk_fill(va, mem, env, false)?;
                self.counters.dtlb_misses += 1;
                e
            }
        };
        if write && !entry.writable {
            return Err(Exception::DataFault { va, write: true });
        }
        Ok(entry.translate(va))
    }

    /// Walks the page tables, charging latency per level, and fills the
    /// right TLB.
    fn walk_fill(
        &mut self,
        va: VirtAddr,
        mem: &PhysMem,
        env: &MemEnv,
        exec: bool,
    ) -> Result<TlbEntry, Exception> {
        let who = self.walk_requester();
        let mut stall = self.cfg.walk_overhead;
        let result = walk(
            |pte_addr| {
                let region = env.map.classify(pte_addr);
                stall += env.latency.access(who, region, AccessKind::Read);
                mem.read_u64(pte_addr)
            },
            self.cr3,
            va,
        );
        self.clock.advance(stall);
        self.counters.walks += 1;
        match result {
            Ok(t) => {
                let entry = TlbEntry::from_translation(&t);
                if exec {
                    self.itlb.insert(entry);
                } else {
                    self.dtlb.insert(entry);
                }
                Ok(entry)
            }
            // A corrupted table (reserved-bit entry) faults exactly like
            // a missing one: real hardware raises a page fault with the
            // RSVD error-code bit, and either way the access cannot
            // complete — the task degrades to a fault, not an abort.
            Err(WalkError::NotPresent { .. } | WalkError::CorruptEntry { .. }) => {
                if exec {
                    Err(Exception::InstFault {
                        va,
                        kind: InstFaultKind::NotPresent,
                    })
                } else {
                    Err(Exception::DataFault { va, write: false })
                }
            }
        }
    }

    /// Fetch-side translation: TLB, walk, and the per-side NX
    /// convention — the heart of the migration trigger.
    fn translate_exec(
        &mut self,
        va: VirtAddr,
        mem: &PhysMem,
        env: &MemEnv,
    ) -> Result<PhysAddr, Exception> {
        // Most cores configure no holes; skip the scan outright then.
        if !self.holes.is_empty() {
            if let Some(h) = self.holes.iter().find(|h| h.contains(va)) {
                if !h.executable {
                    return Err(Exception::InstFault {
                        va,
                        kind: InstFaultKind::NotPresent,
                    });
                }
                return Ok(h.translate(va));
            }
        }
        let entry = match self.itlb.lookup(va) {
            Some(e) => e,
            None => {
                let e = self.walk_fill(va, mem, env, true)?;
                self.counters.itlb_misses += 1;
                e
            }
        };
        // Fetch NX convention: a core executes pages matching its ISA's
        // descriptor — host ISAs run NX-clear pages, accelerator ISAs
        // NX-set pages (this also covers the host-side emulator, whose
        // `cfg.isa` is the *guest* ISA and which therefore accepts NX-set
        // pages, interpreting foreign text in software). In N-way fleets
        // the PTE additionally carries an ISA tag, so an accelerator core
        // rejects NX-set text of a *different* accelerator ISA; tag 0
        // (pre-tagging images, host text, data) is accepted by any
        // NX-side core, preserving classic two-ISA behaviour. The fault
        // kind follows the page, not the core: fetching NX-set text the
        // core cannot run is the Flick migration trigger (NxViolation);
        // fetching NX-clear text is an encoding mismatch.
        let expects_nx = self.cfg.isa.descriptor().nx_text;
        let wrong_nx = entry.nx != expects_nx;
        let wrong_tag =
            entry.nx && entry.isa_tag != 0 && entry.isa_tag != self.cfg.isa.tag() + 1;
        if wrong_nx || wrong_tag {
            return Err(Exception::InstFault {
                va,
                kind: if entry.nx {
                    InstFaultKind::NxViolation
                } else {
                    InstFaultKind::IsaMismatch
                },
            });
        }
        if va.as_u64() & self.fetch_align_mask != 0 {
            return Err(Exception::InstFault {
                va,
                kind: InstFaultKind::Misaligned,
            });
        }
        Ok(entry.translate(va))
    }

    /// Charges I-cache / memory time for a fetch at `pa`.
    fn charge_fetch(&mut self, pa: PhysAddr, env: &MemEnv) {
        if !self.icache.access(pa.as_u64()) {
            self.counters.icache_misses += 1;
            let region = env.map.classify(pa);
            self.clock
                .advance(env.latency.access(self.requester(), region, AccessKind::Fetch));
        }
    }

    /// Fast-path fetch translation through the last-fetch memo. Returns
    /// `Ok(Some(pa))` only when the slow path would have taken an I-TLB
    /// MRU hit with the same entry (same page, no entry-set change) —
    /// in which case the only state the slow path would touch is private
    /// hit tallies. Alignment still depends on the PC, so it is
    /// re-checked; the I-cache charge still runs whenever the fetch
    /// moves to a different line.
    fn fetch_frame_translate(
        &mut self,
        pc: VirtAddr,
        env: &MemEnv,
    ) -> Result<Option<PhysAddr>, Exception> {
        if !self.cfg.fast_path {
            return Ok(None);
        }
        let Some(fc) = self.fetch_frame else {
            return Ok(None);
        };
        if fc.va_page != pc.page_base().as_u64() || fc.itlb_gen != self.itlb.generation() {
            return Ok(None);
        }
        if pc.as_u64() & self.fetch_align_mask != 0 {
            return Err(Exception::InstFault {
                va: pc,
                kind: InstFaultKind::Misaligned,
            });
        }
        let pa = PhysAddr(fc.pa_page | pc.page_offset());
        let line = self.icache.line_index(pa.as_u64());
        if line != fc.line {
            self.charge_fetch(pa, env);
            if let Some(fc) = &mut self.fetch_frame {
                fc.line = line;
            }
        }
        Ok(Some(pa))
    }

    /// Reads and decodes the instruction bytes at the current PC,
    /// handling page-spanning instructions.
    ///
    /// Simulated-time charging (`translate_exec`, `charge_fetch`) runs
    /// unconditionally; the fast path only short-circuits the host-side
    /// translation walk through the fetch memo, which skips nothing the
    /// simulated machine can observe. Decoding always reads the bytes:
    /// decoded forms are cached only as blocks (see `block_step`).
    fn fetch_decode(
        &mut self,
        mem: &mut PhysMem,
        env: &MemEnv,
    ) -> Result<(Inst, u64), Exception> {
        let pc = self.pc;
        let pa = match self.fetch_frame_translate(pc, env)? {
            Some(pa) => pa,
            None => {
                let pa = self.translate_exec(pc, mem, env)?;
                self.charge_fetch(pa, env);
                self.fetch_frame = if self.cfg.fast_path && self.holes.is_empty() {
                    Some(FetchFrame {
                        va_page: pc.page_base().as_u64(),
                        pa_page: pa.as_u64() & !(PAGE_SIZE - 1),
                        line: self.icache.line_index(pa.as_u64()),
                        itlb_gen: self.itlb.generation(),
                    })
                } else {
                    None
                };
                pa
            }
        };
        let in_page = (PAGE_SIZE - pc.page_offset()) as usize;
        let avail = in_page.min(16);
        let mut buf = [0u8; 16];
        mem.read_bytes(pa, &mut buf[..avail]);
        match self.cfg.isa.decode(&buf[..avail]) {
            Ok((inst, len)) => Ok((inst, len as u64)),
            Err(DecodeError::Truncated) if avail < 16 => {
                // Instruction spans a page boundary: fetch from the next
                // page (with full permission checks there). The extra
                // translation/charge can touch I-TLB and I-cache state
                // the fetch memo assumed stable, so drop it.
                self.fetch_frame = None;
                let next_va = VirtAddr(pc.page_base().as_u64() + PAGE_SIZE);
                let next_pa = self.translate_exec(next_va, mem, env)?;
                self.charge_fetch(next_pa, env);
                mem.read_bytes(next_pa, &mut buf[avail..]);
                match self.cfg.isa.decode(&buf) {
                    Ok((inst, len)) => Ok((inst, len as u64)),
                    Err(_) => Err(Exception::InstFault {
                        va: pc,
                        kind: InstFaultKind::Illegal,
                    }),
                }
            }
            Err(_) => Err(Exception::InstFault {
                va: pc,
                kind: InstFaultKind::Illegal,
            }),
        }
    }

    fn dcacheable(&self, region: Region) -> bool {
        match (self.cfg.side, region) {
            (Side::Host | Side::Emu, Region::HostDram) => true,
            (Side::Nxp, Region::NxpDram) => self.cfg.dcache_nxp_dram,
            _ => false,
        }
    }

    fn charge_data(&mut self, pa: PhysAddr, write: bool, env: &MemEnv) {
        let region = env.map.classify(pa);
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        if self.dcacheable(region) {
            if write {
                // Write-through: always pay the memory write.
                self.clock
                    .advance(env.latency.access(self.requester(), region, kind));
                self.dcache.access(pa.as_u64());
            } else if !self.dcache.access(pa.as_u64()) {
                self.counters.dcache_misses += 1;
                self.clock
                    .advance(env.latency.access(self.requester(), region, kind));
            }
        } else {
            self.clock
                .advance(env.latency.access(self.requester(), region, kind));
        }
    }

    /// Loads `size` bytes at `va` (zero-extended), splitting at page
    /// boundaries.
    pub fn mem_read(
        &mut self,
        va: VirtAddr,
        size: MemSize,
        mem: &PhysMem,
        env: &MemEnv,
    ) -> Result<u64, Exception> {
        self.counters.loads += 1;
        let n = size.bytes();
        let mut bytes = [0u8; 8];
        let first = (PAGE_SIZE - va.page_offset()).min(n);
        let pa = self.translate_data(va, false, mem, env)?;
        self.charge_data(pa, false, env);
        mem.read_bytes(pa, &mut bytes[..first as usize]);
        if first < n {
            let va2 = VirtAddr(va.page_base().as_u64() + PAGE_SIZE);
            let pa2 = self.translate_data(va2, false, mem, env)?;
            self.charge_data(pa2, false, env);
            mem.read_bytes(pa2, &mut bytes[first as usize..n as usize]);
        }
        Ok(u64::from_le_bytes(bytes) & mask(n))
    }

    /// Stores the low `size` bytes of `val` at `va`.
    pub fn mem_write(
        &mut self,
        va: VirtAddr,
        size: MemSize,
        val: u64,
        mem: &mut PhysMem,
        env: &MemEnv,
    ) -> Result<(), Exception> {
        self.counters.stores += 1;
        let n = size.bytes();
        let bytes = val.to_le_bytes();
        let first = (PAGE_SIZE - va.page_offset()).min(n);
        let pa = self.translate_data(va, true, mem, env)?;
        self.charge_data(pa, true, env);
        mem.write_bytes(pa, &bytes[..first as usize]);
        if first < n {
            let va2 = VirtAddr(va.page_base().as_u64() + PAGE_SIZE);
            let pa2 = self.translate_data(va2, true, mem, env)?;
            self.charge_data(pa2, true, env);
            mem.write_bytes(pa2, &bytes[first as usize..n as usize]);
        }
        Ok(())
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// `Err(stop)` when the core cannot simply continue: an `ecall`, a
    /// `halt`, or a fault (PC is then still at the faulting
    /// instruction).
    pub fn step(&mut self, mem: &mut PhysMem, env: &MemEnv) -> Result<(), StopReason> {
        let (inst, len) = match self.fetch_decode(mem, env) {
            Ok(x) => x,
            Err(e) => return Err(StopReason::Fault(e)),
        };
        let pc = self.pc;
        let next = VirtAddr(pc.as_u64() + len);
        self.counters.instructions += 1;
        let cpi = self.cfg.cpi;
        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                let cycles = match op {
                    AluOp::Mul => cpi.mul,
                    AluOp::Divu | AluOp::Remu => cpi.div,
                    _ => cpi.alu,
                };
                self.clock.tick(cycles);
                let v = op.eval(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                self.pc = next;
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                let cycles = match op {
                    AluOp::Mul => cpi.mul,
                    AluOp::Divu | AluOp::Remu => cpi.div,
                    _ => cpi.alu,
                };
                self.clock.tick(cycles);
                let v = op.eval(self.reg(rs1), imm as i64 as u64);
                self.set_reg(rd, v);
                self.pc = next;
            }
            Inst::Li { rd, imm } => {
                self.clock.tick(cpi.alu);
                self.set_reg(rd, imm as u64);
                self.pc = next;
            }
            Inst::LiSym { .. } => {
                // LiSym only exists pre-link; linked images contain Li.
                return Err(StopReason::Fault(Exception::InstFault {
                    va: pc,
                    kind: InstFaultKind::Illegal,
                }));
            }
            Inst::Ld { rd, base, off, size } => {
                self.clock.tick(cpi.mem);
                let va = VirtAddr(self.reg(base).wrapping_add(off as i64 as u64));
                match self.mem_read(va, size, mem, env) {
                    Ok(v) => {
                        self.set_reg(rd, v);
                        self.pc = next;
                    }
                    Err(e) => return Err(StopReason::Fault(e)),
                }
            }
            Inst::St { rs, base, off, size } => {
                self.clock.tick(cpi.mem);
                let va = VirtAddr(self.reg(base).wrapping_add(off as i64 as u64));
                let v = self.reg(rs);
                match self.mem_write(va, size, v, mem, env) {
                    Ok(()) => self.pc = next,
                    Err(e) => return Err(StopReason::Fault(e)),
                }
            }
            Inst::Branch { op, rs1, rs2, target } => {
                self.clock.tick(cpi.branch);
                let taken = op.eval(self.reg(rs1), self.reg(rs2));
                self.pc = if taken {
                    let d = rel_of(target);
                    VirtAddr((pc.as_u64() as i64 + d) as u64)
                } else {
                    next
                };
            }
            Inst::Jal { rd, target } => {
                self.clock.tick(cpi.jump);
                self.set_reg(rd, next.as_u64());
                let d = rel_of(target);
                self.pc = VirtAddr((pc.as_u64() as i64 + d) as u64);
            }
            Inst::Jalr { rd, rs1, off } => {
                self.clock.tick(cpi.jump);
                let dest = self.reg(rs1).wrapping_add(off as i64 as u64);
                self.set_reg(rd, next.as_u64());
                self.pc = VirtAddr(dest);
            }
            Inst::Ret => {
                self.clock.tick(cpi.jump);
                self.pc = VirtAddr(self.reg(abi::RA));
            }
            Inst::Ecall { service } => {
                self.clock.tick(cpi.ecall);
                self.pc = next;
                return Err(StopReason::Ecall(service));
            }
            Inst::Halt => {
                self.clock.tick(cpi.alu);
                self.pc = next;
                return Err(StopReason::Halt);
            }
            Inst::Nop => {
                self.clock.tick(cpi.alu);
                self.pc = next;
            }
        }
        Ok(())
    }

    /// Runs until a stop event or `fuel` instructions.
    pub fn run(&mut self, mem: &mut PhysMem, env: &MemEnv, fuel: u64) -> StopReason {
        if self.cfg.fast_path {
            return self.run_blocks(mem, env, fuel);
        }
        for _ in 0..fuel {
            if let Err(stop) = self.step(mem, env) {
                return stop;
            }
        }
        StopReason::OutOfFuel
    }

    /// Block-at-a-time run loop (fast path only). Executes decoded
    /// basic blocks where the per-block validation holds, and falls
    /// back to [`step`](Self::step) for everything else — cold pages,
    /// page-spanning instructions, MMU holes, pre-link text. Fuel is
    /// still charged per instruction, so `OutOfFuel` lands on exactly
    /// the same instruction as the step loop.
    fn run_blocks(&mut self, mem: &mut PhysMem, env: &MemEnv, fuel: u64) -> StopReason {
        let mut left = fuel;
        while left > 0 {
            match self.block_step(mem, env, &mut left) {
                Ok(true) => {}
                Ok(false) => {
                    // One slow-path step: raises the fault the block
                    // path declined to classify, installs the fetch
                    // memo the next block entry validates against.
                    self.chain.block_fallback_steps += 1;
                    if let Err(stop) = self.step(mem, env) {
                        return stop;
                    }
                    left -= 1;
                }
                Err(stop) => return stop,
            }
        }
        StopReason::OutOfFuel
    }

    /// Attempts one block execution at the current PC. Returns
    /// `Ok(false)` — with **zero** simulated side effects — when the
    /// per-block validation fails or no block starts here, so the
    /// caller can replay the instruction through `step` without
    /// double-charging anything.
    ///
    /// Validation is the per-instruction fetch fast path hoisted to
    /// block granularity, checked once against state that cannot change
    /// mid-block:
    /// - no MMU holes (holes shadow TLB translations);
    /// - the fetch memo covers the PC's page with a current I-TLB
    ///   generation (data-side walks fill only the D-TLB, and
    ///   flushes/CR3 loads/hole edits never happen inside `run`, so the
    ///   generation is stable until the block ends);
    /// - the PC is fetch-aligned (blocks only contain decode points
    ///   that preserve alignment, so this holds for every instruction
    ///   in the block);
    /// - the decoded block's text generation is current (any store to a
    ///   watched text frame bumps it; `exec_block` re-checks after
    ///   every store).
    fn block_step(
        &mut self,
        mem: &mut PhysMem,
        env: &MemEnv,
        left: &mut u64,
    ) -> Result<bool, StopReason> {
        if !self.holes.is_empty() {
            return Ok(false);
        }
        let Some(fc) = self.fetch_frame else {
            return Ok(false);
        };
        let pc = self.pc;
        if fc.va_page != pc.page_base().as_u64()
            || fc.itlb_gen != self.itlb.generation()
            || pc.as_u64() & self.fetch_align_mask != 0
        {
            return Ok(false);
        }
        let pa_page = fc.pa_page;
        let text_gen = mem.text_gen();
        // Lane-local working set, seeded from the front cache: every
        // front-cache block of this page and generation, keyed by start
        // offset (page and generation are lane constants, so the short
        // key suffices). Chain follows hit here with a 4-entry scan and
        // *move* the Arc out — steady-state loops do no reference
        // counting and never touch the shared baskets. Everything is
        // written back at lane exit. Stale-generation front entries are
        // dropped on the way in (the generation only grows); entries
        // for other pages stay put.
        let mut ws: [Option<(u16, Arc<DecodedBlock>)>; FRONT_BLOCKS] =
            [const { None }; FRONT_BLOCKS];
        let mut n_ws = 0;
        for e in &mut self.last_blocks {
            match e {
                Some((bpa, bgen, _))
                    if *bgen == text_gen && *bpa & !(PAGE_SIZE - 1) == pa_page =>
                {
                    let (bpa, _, b) = e.take().expect("matched entry is occupied");
                    ws[n_ws] = Some(((bpa & (PAGE_SIZE - 1)) as u16, b));
                    n_ws += 1;
                }
                Some((_, bgen, _)) if *bgen != text_gen => *e = None,
                _ => {}
            }
        }
        let mut ws_cursor = 0usize;
        let mut cur_off = pc.page_offset() as u16;
        let mut cur = match Self::ws_take(&mut ws, cur_off) {
            Some(b) => b,
            None => match self.lookup_or_build(pa_page, cur_off, text_gen, mem) {
                Some(b) => b,
                None => {
                    // Not even the first instruction decodes into a
                    // block; restore the working set and fall back.
                    self.park_front(pa_page, text_gen, ws);
                    return Ok(false);
                }
            },
        };
        // The chain loop: run the current block; while its control
        // transfer lands on a statically known same-page successor and
        // the follow validation holds, continue in the lane. The
        // validation re-checks exactly what top-level dispatch would
        // have: fuel, the PC's page against the (unchanged) fetch
        // frame, the I-TLB generation, and the text generation.
        // Alignment needs no re-check — successor offsets were
        // alignment-checked at decode time. Holes cannot appear inside
        // `run`, and only the fetch frame's `line` mutates in the lane,
        // so the entry validation above still covers everything else.
        let res = 'lane: loop {
            let Some(fcv) = self.fetch_frame else {
                // The lane never drops the frame; defensive only.
                break Ok(());
            };
            match self.exec_block(&cur, &fcv, mem, env, text_gen, left) {
                Err(stop) => break Err(stop),
                Ok(completed) => {
                    if !completed {
                        break Ok(());
                    }
                }
            }
            // Follow edges until a block must execute again (`continue
            // 'lane`) or the lane ends. Iterates without an intervening
            // exec only after a spin batch, whose exit PC is a fresh
            // transfer target needing its own validation.
            loop {
                let Some(fcv) = self.fetch_frame else {
                    break 'lane Ok(());
                };
                let pc = self.pc;
                let off = pc.page_offset() as u16;
                // Which successor edge did the transfer take?
                // (succ_off entries are NO_SUCC when absent, which no
                // in-page offset equals.)
                let idx = if cur.succ_off[0] == off {
                    0
                } else if cur.succ_off[1] == off {
                    1
                } else {
                    2
                };
                if idx == 2
                    || *left == 0
                    || pc.page_base().as_u64() != fcv.va_page
                    || mem.text_gen() != text_gen
                    || self.itlb.generation() != fcv.itlb_gen
                {
                    if cur.succ_off != [NO_SUCC; 2] {
                        self.chain.chain_breaks += 1;
                    }
                    break 'lane Ok(());
                }
                if off == cur_off {
                    // Self-loop — the tightest hot loops chain to
                    // themselves; skip the working-set traffic.
                    if cur.links[idx].get().is_none() && cur.patch(idx, &cur) {
                        self.chain.chain_patches += 1;
                    }
                    self.chain.chain_hits += 1;
                    // Spin batch: replay full iterations back to back
                    // (see `exec_block_spin` for why the per-follow
                    // validation is provably constant there), then
                    // re-validate from the exit PC.
                    let iters = self.exec_block_spin(&cur, left);
                    if iters > 0 {
                        self.chain.chain_hits += iters - 1;
                        continue;
                    }
                    // A self-loop the spin tier declines (memory ops,
                    // short fuel, I-cache charges): execute normally.
                    continue 'lane;
                }
                let next = match Self::ws_take(&mut ws, off) {
                    Some(b) => b,
                    None => match cur.link(idx) {
                        Some(b) => b,
                        None => match self.lookup_or_build(pa_page, off, text_gen, mem) {
                            Some(b) => b,
                            None => {
                                // Successor bytes don't decode;
                                // dispatch + step will fault.
                                self.chain.chain_breaks += 1;
                                break 'lane Ok(());
                            }
                        },
                    },
                };
                if cur.links[idx].get().is_none() && cur.patch(idx, &next) {
                    self.chain.chain_patches += 1;
                }
                Self::ws_park(&mut ws, &mut ws_cursor, cur_off, cur);
                cur_off = off;
                cur = next;
                self.chain.chain_hits += 1;
                continue 'lane;
            }
        };
        Self::ws_park(&mut ws, &mut ws_cursor, cur_off, cur);
        self.park_front(pa_page, text_gen, ws);
        res.map(|()| true)
    }

    /// Takes the working-set block starting at page offset `off`.
    #[inline]
    fn ws_take(
        ws: &mut [Option<(u16, Arc<DecodedBlock>)>; FRONT_BLOCKS],
        off: u16,
    ) -> Option<Arc<DecodedBlock>> {
        ws.iter_mut()
            .find(|e| matches!(e, Some((o, _)) if *o == off))
            .and_then(|e| e.take())
            .map(|(_, b)| b)
    }

    /// Parks a block into the lane working set: an empty slot if any,
    /// else round-robin replacement.
    #[inline]
    fn ws_park(
        ws: &mut [Option<(u16, Arc<DecodedBlock>)>; FRONT_BLOCKS],
        cursor: &mut usize,
        off: u16,
        b: Arc<DecodedBlock>,
    ) {
        let slot = match ws.iter().position(|e| e.is_none()) {
            Some(s) => s,
            None => {
                let s = *cursor;
                *cursor = (*cursor + 1) % FRONT_BLOCKS;
                s
            }
        };
        ws[slot] = Some((off, b));
    }

    /// Writes a lane's working set back into the front cache: empty
    /// slots first, then round-robin replacement. Entries for other
    /// pages were left in place by the lane entry scan, so keys never
    /// duplicate.
    fn park_front(
        &mut self,
        pa_page: u64,
        text_gen: u64,
        ws: [Option<(u16, Arc<DecodedBlock>)>; FRONT_BLOCKS],
    ) {
        for (off, b) in ws.into_iter().flatten() {
            let slot = match self.last_blocks.iter().position(|e| e.is_none()) {
                Some(s) => s,
                None => {
                    let s = self.front_cursor as usize;
                    self.front_cursor = (self.front_cursor + 1) % FRONT_BLOCKS as u8;
                    s
                }
            };
            self.last_blocks[slot] = Some((pa_page | off as u64, text_gen, b));
        }
    }

    /// Resolves the decoded block starting at page offset `off` of the
    /// lane's (validated) frame: shared-cache lookup, else a fresh
    /// decode, watched and published. `None` when not even the first
    /// instruction decodes into a block.
    fn lookup_or_build(
        &mut self,
        pa_page: u64,
        off: u16,
        text_gen: u64,
        mem: &mut PhysMem,
    ) -> Option<Arc<DecodedBlock>> {
        let pa = PhysAddr(pa_page | off as u64);
        if let Some(b) = self.decoded.get_block(pa, text_gen) {
            return Some(b);
        }
        let b = Arc::new(self.build_block(pa_page, off as u64, mem)?);
        mem.watch_text(pa);
        self.decoded.put_block(pa, Arc::clone(&b));
        Some(b)
    }

    /// Decodes a (super)block starting at page offset `start_off` of
    /// frame `pa_page`: straight-line instructions, decoding *through*
    /// unconditional direct jumps/calls whose target is in the same
    /// page and fetch-aligned — the vec's order is execution order, so
    /// a hot trace replays as one block with one validation — and
    /// ending at the first conditional branch, indirect transfer, or
    /// trap, at the page boundary, or just before anything the step
    /// path must handle itself (page-spanning or undecodable bytes,
    /// pre-link `LiSym`, a next-PC that would fault the alignment
    /// check). Returns `None` when not even the first instruction
    /// qualifies.
    ///
    /// The terminator's statically known same-page successors are
    /// recorded in `succ_off` (`[taken, fall-through]` for a branch)
    /// for the chain lane to follow; offsets are PA-anchored, so the
    /// edges stay valid across CR3 scopes.
    ///
    /// Pure host work: reads text bytes without simulated charges and
    /// precomputes each instruction's CPI cycles and I-cache
    /// line-crossing flag for replay.
    fn build_block(&self, pa_page: u64, start_off: u64, mem: &PhysMem) -> Option<DecodedBlock> {
        let cpi = self.cfg.cpi;
        let align_mask = self.fetch_align_mask;
        // In-page, fetch-aligned — what a decoded transfer target must
        // satisfy for the lane to keep going without a re-walk.
        let fits = |t: i64| t >= 0 && (t as u64) < PAGE_SIZE && t as u64 & align_mask == 0;
        let mut insts = Vec::new();
        let mut off = start_off;
        let mut prev_line = 0u64;
        let mut succ = [NO_SUCC; 2];
        loop {
            let avail = ((PAGE_SIZE - off) as usize).min(16);
            let mut buf = [0u8; 16];
            mem.read_bytes(PhysAddr(pa_page | off), &mut buf[..avail]);
            // Decode failures (illegal bytes, page-spanning truncation)
            // end the block *before* the offending point; the step path
            // raises the right fault or replays the next-page charges.
            let Ok((inst, len)) = self.cfg.isa.decode(&buf[..avail]) else {
                break;
            };
            if matches!(inst, Inst::LiSym { .. }) {
                break; // pre-link text: step raises Illegal
            }
            let cycles = match inst {
                Inst::Alu { op, .. } | Inst::AluImm { op, .. } => match op {
                    AluOp::Mul => cpi.mul,
                    AluOp::Divu | AluOp::Remu => cpi.div,
                    _ => cpi.alu,
                },
                Inst::Li { .. } | Inst::Nop | Inst::Halt => cpi.alu,
                Inst::Ld { .. } | Inst::St { .. } => cpi.mem,
                Inst::Branch { .. } => cpi.branch,
                Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Ret => cpi.jump,
                Inst::Ecall { .. } => cpi.ecall,
                Inst::LiSym { .. } => unreachable!("filtered above"),
            };
            let line = self.icache.line_index(pa_page | off);
            insts.push(BlockInst {
                inst,
                off: off as u16,
                next_off: (off + len as u64) as u16,
                cycles,
                // Exactly what one `Clock::tick(cycles)` call adds.
                picos: self.clock.freq().cycles(cycles).0,
                new_line: !insts.is_empty() && line != prev_line,
            });
            prev_line = line;
            let next_off = off + len as u64;
            match inst.control_kind() {
                ControlKind::Straight => {
                    if next_off >= PAGE_SIZE || next_off & align_mask != 0 {
                        break;
                    }
                    off = next_off;
                }
                ControlKind::DirectJump(d) => {
                    let t = off as i64 + d;
                    if insts.len() < SUPERBLOCK_CAP && fits(t) {
                        // Superblock extension: keep decoding at the
                        // jump target. Backward targets re-decode bytes
                        // already in the block (natural loop unrolling),
                        // bounded by the cap.
                        off = t as u64;
                    } else {
                        if fits(t) {
                            succ[0] = t as u16;
                        }
                        break;
                    }
                }
                ControlKind::CondBranch(d) => {
                    let t = off as i64 + d;
                    if fits(t) {
                        succ[0] = t as u16;
                    }
                    if fits(next_off as i64) {
                        succ[1] = next_off as u16;
                    }
                    break;
                }
                ControlKind::Indirect | ControlKind::Trap => break,
            }
        }
        if insts.is_empty() {
            None
        } else {
            let total_cycles = insts.iter().map(|bi| bi.cycles).sum();
            let total_picos = insts.iter().map(|bi| bi.picos).sum();
            let mem_free = insts
                .iter()
                .all(|bi| !matches!(bi.inst, Inst::Ld { .. } | Inst::St { .. }));
            // Only a memory-free block whose successor edge targets its
            // own entry can ever spin; skip the lowering for the rest.
            let spin = if mem_free && succ.contains(&(start_off as u16)) {
                DecodedBlock::lower_spin(&insts)
            } else {
                Vec::new()
            };
            Some(DecodedBlock {
                insts,
                total_cycles,
                total_picos,
                mem_free,
                succ_off: succ,
                links: [OnceLock::new(), OnceLock::new()],
                spin,
            })
        }
    }

    /// Executes a validated block, charging simulated time exactly as
    /// the step loop would:
    ///
    /// - **Fetch charges** replay the memoized fetch-frame path: the
    ///   first instruction charges the I-cache iff its line differs
    ///   from the memo's `line` (the last line actually fetched); later
    ///   instructions use the precomputed `new_line` flags, which
    ///   encode the same line-change comparison. The memo's `line` is
    ///   updated on every charge, so an early exit (fault, fuel,
    ///   self-modifying store) leaves it exactly where the step loop
    ///   would have.
    /// - **Fuel** decrements per instruction, checked *before* each
    ///   one: running dry mid-block stops with the PC at the first
    ///   unexecuted instruction and none of its charges applied.
    /// - **PC** is advanced after each instruction, so a data fault on
    ///   the Nth instruction leaves the PC pointing at it, exactly like
    ///   `step`.
    /// - A **store** that bumps the text generation (self-modifying
    ///   code into any watched frame) ends the block after the store
    ///   retires; the next `block_step` misses on the stale generation
    ///   and re-decodes fresh bytes, which is precisely what the step
    ///   path's fetch-and-decode does.
    ///
    /// `Ok(true)` means the block *completed*: every instruction
    /// retired, so the PC is wherever the final transfer (or
    /// fall-through) sent it and the chain lane may consider following
    /// a successor edge. `Ok(false)` means the block was cut short
    /// (fuel, self-modified text) — the PC points mid-block and
    /// coincidental matches against successor offsets must not chain.
    fn exec_block(
        &mut self,
        block: &DecodedBlock,
        fc: &FetchFrame,
        mem: &mut PhysMem,
        env: &MemEnv,
        text_gen: u64,
        left: &mut u64,
    ) -> Result<bool, StopReason> {
        let va_page = fc.va_page;
        let pa_page = fc.pa_page;
        // The per-instruction bookkeeping — PC, fuel, retired count,
        // tick time — lives in locals so the loop keeps it in
        // registers; everything is flushed exactly once below, at every
        // kind of exit. `credit` applies the tick time with per-call
        // rounding already baked into `BlockInst::picos`, and stall
        // charges inside `charge_fetch`/`mem_read`/`mem_write` add to
        // the clock directly — addition commutes, so the flushed total
        // is bit-identical to step-at-a-time ticking.
        let mut pc = self.pc.as_u64();
        let mut fuel = *left;
        let mut first = true;
        // Fast lane: a memory-free block entered with fuel for every
        // instruction cannot exit early — ALU and control instructions
        // never fault, the fuel check cannot trip, and `ecall`/`halt`
        // terminators are always last — so every instruction retires
        // and the per-instruction retired/fuel/cycle/pico arithmetic
        // collapses into the block totals precomputed at decode time.
        // Fetch charges and architectural effects still replay per
        // instruction, in order, so the observable sequence (clock
        // stalls, stats, memo line updates) is unchanged.
        let n = block.insts.len() as u64;
        if block.mem_free && fuel >= n {
            let mut stop = None;
            for bi in &block.insts {
                let charge = if first {
                    first = false;
                    self.icache.line_index(pa_page | bi.off as u64) != fc.line
                } else {
                    bi.new_line
                };
                if charge {
                    let pa = PhysAddr(pa_page | bi.off as u64);
                    self.charge_fetch(pa, env);
                    let line = self.icache.line_index(pa.as_u64());
                    if let Some(fc) = &mut self.fetch_frame {
                        fc.line = line;
                    }
                }
                let next = va_page + bi.next_off as u64;
                match bi.inst {
                    Inst::Alu { op, rd, rs1, rs2 } => {
                        let v = op.eval(self.reg(rs1), self.reg(rs2));
                        self.set_reg(rd, v);
                        pc = next;
                    }
                    Inst::AluImm { op, rd, rs1, imm } => {
                        let v = op.eval(self.reg(rs1), imm as i64 as u64);
                        self.set_reg(rd, v);
                        pc = next;
                    }
                    Inst::Li { rd, imm } => {
                        self.set_reg(rd, imm as u64);
                        pc = next;
                    }
                    Inst::Branch { op, rs1, rs2, target } => {
                        let taken = op.eval(self.reg(rs1), self.reg(rs2));
                        pc = if taken {
                            let pc_va = va_page + bi.off as u64;
                            (pc_va as i64 + rel_of(target)) as u64
                        } else {
                            next
                        };
                    }
                    Inst::Jal { rd, target } => {
                        self.set_reg(rd, next);
                        let pc_va = va_page + bi.off as u64;
                        pc = (pc_va as i64 + rel_of(target)) as u64;
                    }
                    Inst::Jalr { rd, rs1, off } => {
                        let dest = self.reg(rs1).wrapping_add(off as i64 as u64);
                        self.set_reg(rd, next);
                        pc = dest;
                    }
                    Inst::Ret => {
                        pc = self.reg(abi::RA);
                    }
                    Inst::Ecall { service } => {
                        // Terminator: always the block's last
                        // instruction, so recording the stop (instead
                        // of breaking) changes nothing.
                        pc = next;
                        stop = Some(StopReason::Ecall(service));
                    }
                    Inst::Halt => {
                        pc = next;
                        stop = Some(StopReason::Halt);
                    }
                    Inst::Nop => {
                        pc = next;
                    }
                    Inst::Ld { .. } | Inst::St { .. } | Inst::LiSym { .. } => {
                        unreachable!("excluded from mem-free blocks at build")
                    }
                }
            }
            self.pc = VirtAddr(pc);
            *left = fuel - n;
            self.counters.instructions += n;
            self.clock.credit(block.total_cycles, Picos(block.total_picos));
            return match stop {
                None => Ok(true),
                Some(s) => Err(s),
            };
        }
        let mut retired = 0u64;
        let mut cycles = 0u64;
        let mut picos = 0u64;
        // `Ok(None)`: block ended or was cut short (fuel, self-modified
        // text) with execution simply continuing at `pc`.
        let res: Result<Option<StopReason>, Exception> = 'blk: {
            for bi in &block.insts {
                if fuel == 0 {
                    break 'blk Ok(None);
                }
                let charge = if first {
                    first = false;
                    self.icache.line_index(pa_page | bi.off as u64) != fc.line
                } else {
                    bi.new_line
                };
                if charge {
                    let pa = PhysAddr(pa_page | bi.off as u64);
                    self.charge_fetch(pa, env);
                    let line = self.icache.line_index(pa.as_u64());
                    if let Some(fc) = &mut self.fetch_frame {
                        fc.line = line;
                    }
                }
                retired += 1;
                fuel -= 1;
                cycles += bi.cycles;
                picos += bi.picos;
                let next = va_page + bi.next_off as u64;
                match bi.inst {
                    Inst::Alu { op, rd, rs1, rs2 } => {
                        let v = op.eval(self.reg(rs1), self.reg(rs2));
                        self.set_reg(rd, v);
                        pc = next;
                    }
                    Inst::AluImm { op, rd, rs1, imm } => {
                        let v = op.eval(self.reg(rs1), imm as i64 as u64);
                        self.set_reg(rd, v);
                        pc = next;
                    }
                    Inst::Li { rd, imm } => {
                        self.set_reg(rd, imm as u64);
                        pc = next;
                    }
                    Inst::Ld { rd, base, off, size } => {
                        let va = VirtAddr(self.reg(base).wrapping_add(off as i64 as u64));
                        match self.mem_read(va, size, mem, env) {
                            Ok(v) => {
                                self.set_reg(rd, v);
                                pc = next;
                            }
                            // `pc` still points at this instruction.
                            Err(e) => break 'blk Err(e),
                        }
                    }
                    Inst::St { rs, base, off, size } => {
                        let va = VirtAddr(self.reg(base).wrapping_add(off as i64 as u64));
                        let v = self.reg(rs);
                        match self.mem_write(va, size, v, mem, env) {
                            Ok(()) => pc = next,
                            Err(e) => break 'blk Err(e),
                        }
                        if mem.text_gen() != text_gen {
                            // Self-modifying text: the rest of this
                            // block may be stale. Stop here; the next
                            // block_step re-decodes under the new
                            // generation.
                            break 'blk Ok(None);
                        }
                    }
                    Inst::Branch { op, rs1, rs2, target } => {
                        let taken = op.eval(self.reg(rs1), self.reg(rs2));
                        pc = if taken {
                            let pc_va = va_page + bi.off as u64;
                            (pc_va as i64 + rel_of(target)) as u64
                        } else {
                            next
                        };
                    }
                    Inst::Jal { rd, target } => {
                        self.set_reg(rd, next);
                        let pc_va = va_page + bi.off as u64;
                        pc = (pc_va as i64 + rel_of(target)) as u64;
                    }
                    Inst::Jalr { rd, rs1, off } => {
                        let dest = self.reg(rs1).wrapping_add(off as i64 as u64);
                        self.set_reg(rd, next);
                        pc = dest;
                    }
                    Inst::Ret => {
                        pc = self.reg(abi::RA);
                    }
                    Inst::Ecall { service } => {
                        pc = next;
                        break 'blk Ok(Some(StopReason::Ecall(service)));
                    }
                    Inst::Halt => {
                        pc = next;
                        break 'blk Ok(Some(StopReason::Halt));
                    }
                    Inst::Nop => {
                        pc = next;
                    }
                    Inst::LiSym { .. } => {
                        // build_block never includes LiSym; mirror
                        // `step`'s fault anyway so the arm is total.
                        debug_assert!(false, "LiSym inside a decoded block");
                        break 'blk Err(Exception::InstFault {
                            va: VirtAddr(va_page + bi.off as u64),
                            kind: InstFaultKind::Illegal,
                        });
                    }
                }
            }
            Ok(None)
        };
        self.pc = VirtAddr(pc);
        *left = fuel;
        self.counters.instructions += retired;
        self.clock.credit(cycles, Picos(picos));
        match res {
            Ok(None) => Ok(retired == n),
            Ok(Some(stop)) => Err(stop),
            Err(e) => Err(StopReason::Fault(e)),
        }
    }

    /// Replays a validated, memory-free self-loop block — the hottest
    /// shape there is — for as many *full* iterations as fuel allows
    /// without leaving the function between follows. Correctness leans
    /// on `mem_free`: no loads or stores means no data walks, no
    /// faults, and no way to bump the text or I-TLB generations
    /// mid-batch, so the per-follow validation the chain loop normally
    /// re-runs is provably constant and the only live exit conditions
    /// are the loop transfer leaving the block start and fuel.
    ///
    /// The tier is charge-free: it takes a block only when no
    /// instruction inside it starts a new I-cache line and its first
    /// line is the memoized one, so an iteration performs *zero*
    /// I-cache charges — and since charges are the only thing that can
    /// move the memo's line, that holds for every later iteration too.
    /// The loop body shrinks to pure architectural effects, executed
    /// from the block's pre-lowered micro-ops ([`SpinOp`]): one jump
    /// table per instruction, bounds-check-free register-file indexing,
    /// pre-resolved branch displacements. The register file moves into
    /// a local array for the duration (no aliasing with `self`, so
    /// nothing reloads across instructions); `r0` stays zero because
    /// lowering turned every write to it into a `Nop`. The accounting
    /// is flushed once by multiplying the pre-rounded per-iteration
    /// totals — bit-identical to per-iteration crediting because each
    /// summand already carries `Clock::tick`'s rounding.
    ///
    /// Returns the number of iterations executed, or 0 — with no side
    /// effects — when the block is not a lowered self-loop, fuel does
    /// not cover one iteration, or an iteration would charge the
    /// I-cache; the caller then runs the iteration through
    /// `exec_block`. The caller re-validates the exit PC.
    fn exec_block_spin(&mut self, block: &DecodedBlock, left: &mut u64) -> u64 {
        let Some(fc) = self.fetch_frame else {
            unreachable!("spin is entered from a validated lane");
        };
        let va_page = fc.va_page;
        let n = block.insts.len() as u64;
        if block.spin.is_empty()
            || *left < n
            || block.insts.iter().any(|bi| bi.new_line)
            || self.icache.line_index(fc.pa_page | block.insts[0].off as u64) != fc.line
        {
            return 0;
        }
        let start = self.pc.as_u64();
        let mut pc = start;
        let mut fuel = *left;
        let mut iters = 0u64;
        let mut lr = self.regs;
        let take = |b: &SpinBranch, cond: bool| -> u64 {
            if cond {
                (va_page as i64 + b.taken) as u64
            } else {
                va_page + b.next as u64
            }
        };
        loop {
            for op in &block.spin {
                match *op {
                    SpinOp::AddImm { rd, rs1, imm } => {
                        lr[rd as usize & 31] = lr[rs1 as usize & 31].wrapping_add(imm);
                    }
                    SpinOp::Add { rd, rs1, rs2 } => {
                        lr[rd as usize & 31] =
                            lr[rs1 as usize & 31].wrapping_add(lr[rs2 as usize & 31]);
                    }
                    SpinOp::Alu { op, rd, rs1, rs2 } => {
                        lr[rd as usize & 31] =
                            op.eval(lr[rs1 as usize & 31], lr[rs2 as usize & 31]);
                    }
                    SpinOp::AluImm { op, rd, rs1, imm } => {
                        lr[rd as usize & 31] = op.eval(lr[rs1 as usize & 31], imm);
                    }
                    SpinOp::Li { rd, imm } => {
                        lr[rd as usize & 31] = imm;
                    }
                    SpinOp::Beq(ref b) => {
                        pc = take(b, lr[b.rs1 as usize & 31] == lr[b.rs2 as usize & 31]);
                    }
                    SpinOp::Bne(ref b) => {
                        pc = take(b, lr[b.rs1 as usize & 31] != lr[b.rs2 as usize & 31]);
                    }
                    SpinOp::Blt(ref b) => {
                        pc = take(
                            b,
                            (lr[b.rs1 as usize & 31] as i64) < (lr[b.rs2 as usize & 31] as i64),
                        );
                    }
                    SpinOp::Bge(ref b) => {
                        pc = take(
                            b,
                            (lr[b.rs1 as usize & 31] as i64) >= (lr[b.rs2 as usize & 31] as i64),
                        );
                    }
                    SpinOp::Bltu(ref b) => {
                        pc = take(b, lr[b.rs1 as usize & 31] < lr[b.rs2 as usize & 31]);
                    }
                    SpinOp::Bgeu(ref b) => {
                        pc = take(b, lr[b.rs1 as usize & 31] >= lr[b.rs2 as usize & 31]);
                    }
                    SpinOp::Jal { rd, taken, next } => {
                        lr[rd as usize & 31] = va_page + next as u64;
                        pc = (va_page as i64 + taken) as u64;
                    }
                    SpinOp::Jmp { taken } => {
                        pc = (va_page as i64 + taken) as u64;
                    }
                    SpinOp::Nop => {}
                }
            }
            iters += 1;
            fuel -= n;
            if pc != start || fuel < n {
                break;
            }
        }
        self.regs = lr;
        self.pc = VirtAddr(pc);
        *left = fuel;
        self.counters.instructions += iters * n;
        self.clock
            .credit(iters * block.total_cycles, Picos(iters * block.total_picos));
        iters
    }
}

fn rel_of(t: Target) -> i64 {
    match t {
        Target::Rel(d) => d,
        // Labels/symbols never reach execution: encoders resolve labels
        // and the linker resolves symbols.
        Target::Label(_) | Target::Symbol(_) => {
            unreachable!("unresolved target reached execution")
        }
    }
}

fn mask(n: u64) -> u64 {
    if n >= 8 {
        u64::MAX
    } else {
        (1u64 << (n * 8)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_isa::{FuncBuilder, TargetIsa};
    use flick_paging::{flags, AddressSpace, BumpFrameAlloc};

    /// Builds a machine-less test fixture: physical memory, page tables
    /// identity-mapping the low 16 MiB, and a core of the given side.
    struct Fixture {
        mem: PhysMem,
        env: MemEnv,
        core: Core,
        aspace: AddressSpace,
    }

    fn fixture(cfg: CoreConfig) -> Fixture {
        let mut mem = PhysMem::new();
        let mut alloc = BumpFrameAlloc::new(PhysAddr(0x100_0000), PhysAddr(0x200_0000));
        let mut aspace = AddressSpace::new(&mut mem, &mut alloc);
        // Identity-map low 16 MiB with 4 KiB pages (so per-page
        // mprotect works), writable, executable (NX clear).
        aspace
            .map_range(
                &mut mem,
                &mut alloc,
                VirtAddr(0),
                PhysAddr(0),
                16 << 20,
                flags::PRESENT | flags::WRITABLE | flags::USER,
            )
            .unwrap();
        let mut core = Core::new(cfg);
        core.set_cr3(aspace.cr3());
        Fixture {
            mem,
            env: MemEnv::paper_default(),
            core,
            aspace,
        }
    }

    fn load_host_prog(fx: &mut Fixture, build: impl FnOnce(&mut FuncBuilder)) {
        let mut f = FuncBuilder::new("main", TargetIsa::Host);
        build(&mut f);
        let enc = Isa::X64.encode(&f.finish()).unwrap();
        fx.mem.write_bytes(PhysAddr(0x40_0000), &enc.bytes);
        fx.core.set_pc(VirtAddr(0x40_0000));
    }

    #[test]
    fn arithmetic_program_runs() {
        let mut fx = fixture(CoreConfig::host());
        load_host_prog(&mut fx, |f| {
            f.li(abi::A0, 6);
            f.li(abi::A1, 7);
            f.mul(abi::A0, abi::A0, abi::A1);
            f.halt();
        });
        let stop = fx.core.run(&mut fx.mem, &fx.env, 100);
        assert_eq!(stop, StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A0), 42);
        assert_eq!(fx.core.stats().get("instructions"), 4);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut fx = fixture(CoreConfig::host());
        load_host_prog(&mut fx, |f| {
            f.li(abi::A1, 0x50_0000);
            f.li(abi::A0, 0xDEAD_BEEF);
            f.st(abi::A0, abi::A1, 8, MemSize::B8);
            f.ld(abi::A2, abi::A1, 8, MemSize::B4);
            f.halt();
        });
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 100), StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A2), 0xDEAD_BEEF);
        assert_eq!(fx.mem.read_u64(PhysAddr(0x50_0008)), 0xDEAD_BEEF);
    }

    #[test]
    fn call_and_return() {
        // main calls f, f returns 5.
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.call("f");
        main.halt();
        let mut f = FuncBuilder::new("f", TargetIsa::Host);
        f.li(abi::A0, 5);
        f.ret();
        let obj = flick_toolchain_compile(vec![main.finish(), f.finish()]);
        let mut fx = fixture(CoreConfig::host());
        fx.mem.write_bytes(PhysAddr(0x40_0000), &obj);
        fx.core.set_pc(VirtAddr(0x40_0000));
        fx.core.set_reg(abi::SP, 0xF0_0000);
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 100), StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A0), 5);
    }

    /// Minimal "link": encode funcs back to back at 0x40_0000 with
    /// rel32 call patching (avoids a dev-dependency cycle on the real
    /// toolchain crate).
    fn flick_toolchain_compile(funcs: Vec<flick_isa::Func>) -> Vec<u8> {
        let mut offsets = std::collections::HashMap::new();
        let mut bytes = Vec::new();
        let mut encs = Vec::new();
        for f in &funcs {
            let enc = Isa::X64.encode(f).unwrap();
            offsets.insert(f.name.clone(), bytes.len() as u32);
            bytes.extend_from_slice(&enc.bytes);
            encs.push(enc);
        }
        let mut cursor = 0usize;
        for (f, enc) in funcs.iter().zip(&encs) {
            for r in &enc.relocs {
                let target = offsets[f.symbol_name(
                    // find index by name
                    f.symbols.iter().position(|s| *s == r.symbol).unwrap() as u32,
                )];
                let disp = target as i64 - (cursor as i64 + r.inst_start as i64);
                let at = cursor + r.field_at as usize;
                bytes[at..at + 4].copy_from_slice(&(disp as i32).to_le_bytes());
            }
            cursor += enc.bytes.len();
        }
        bytes
    }

    #[test]
    fn ecall_stops_and_resumes() {
        let mut fx = fixture(CoreConfig::host());
        load_host_prog(&mut fx, |f| {
            f.li(abi::A0, 1);
            f.ecall(9);
            f.addi(abi::A0, abi::A0, 1);
            f.halt();
        });
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 100), StopReason::Ecall(9));
        // Kernel "handles" the call, e.g. doubling a0.
        let v = fx.core.reg(abi::A0);
        fx.core.set_reg(abi::A0, v * 10);
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 100), StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A0), 11);
    }

    #[test]
    fn host_nx_fetch_faults_with_target_address() {
        let mut fx = fixture(CoreConfig::host());
        // Map an NX page at 0x80_0000 (the "NxP function" page).
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x80_0000), 0x1000, flags::NX, 0)
            .unwrap();
        fx.core.flush_tlbs();
        load_host_prog(&mut fx, |f| {
            f.li(abi::T0, 0x80_0000);
            f.call_reg(abi::T0);
            f.halt();
        });
        fx.core.set_reg(abi::SP, 0xF0_0000);
        let stop = fx.core.run(&mut fx.mem, &fx.env, 100);
        assert_eq!(
            stop,
            StopReason::Fault(Exception::InstFault {
                va: VirtAddr(0x80_0000),
                kind: InstFaultKind::NxViolation,
            })
        );
        // The return address was linked before the fault: the hijack
        // point the kernel relies on.
        assert_ne!(fx.core.reg(abi::RA), 0);
    }

    #[test]
    fn nxp_fetch_from_host_page_faults_isa_mismatch() {
        let mut fx = fixture(CoreConfig::nxp());
        // All pages have NX clear → any fetch is an ISA mismatch for
        // the NxP (inverted convention).
        fx.core.set_pc(VirtAddr(0x40_0000));
        let stop = fx.core.run(&mut fx.mem, &fx.env, 10);
        assert_eq!(
            stop,
            StopReason::Fault(Exception::InstFault {
                va: VirtAddr(0x40_0000),
                kind: InstFaultKind::IsaMismatch,
            })
        );
    }

    #[test]
    fn nxp_runs_code_from_nx_page() {
        let mut fx = fixture(CoreConfig::nxp());
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x40_0000), 0x1000, flags::NX, 0)
            .unwrap();
        fx.core.flush_tlbs();
        let mut f = FuncBuilder::new("w", TargetIsa::Nxp);
        f.li(abi::A0, 3);
        f.addi(abi::A0, abi::A0, 4);
        f.halt();
        let enc = Isa::Rv64.encode(&f.finish()).unwrap();
        fx.mem.write_bytes(PhysAddr(0x40_0000), &enc.bytes);
        fx.core.set_pc(VirtAddr(0x40_0000));
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 100), StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A0), 7);
    }

    #[test]
    fn emulator_core_runs_nx_pages_and_bounces_off_host_text() {
        // The degraded-mode interpreter accepts NX-set (NxP) text...
        let mut fx = fixture(CoreConfig::host_emulator());
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x40_0000), 0x1000, flags::NX, 0)
            .unwrap();
        fx.core.flush_tlbs();
        let mut f = FuncBuilder::new("w", TargetIsa::Nxp);
        f.li(abi::A0, 21);
        f.addi(abi::A0, abi::A0, 21);
        f.halt();
        let enc = Isa::Rv64.encode(&f.finish()).unwrap();
        fx.mem.write_bytes(PhysAddr(0x40_0000), &enc.bytes);
        fx.core.set_pc(VirtAddr(0x40_0000));
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 100), StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A0), 42);
        // ...and faults with IsaMismatch on NX-clear (host) pages, the
        // signal that hands control back to the native host core.
        fx.core.set_pc(VirtAddr(0x50_0000));
        let stop = fx.core.run(&mut fx.mem, &fx.env, 10);
        assert_eq!(
            stop,
            StopReason::Fault(Exception::InstFault {
                va: VirtAddr(0x50_0000),
                kind: InstFaultKind::IsaMismatch,
            })
        );
    }

    #[test]
    fn nxp_misaligned_fetch_faults() {
        let mut fx = fixture(CoreConfig::nxp());
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x40_0000), 0x1000, flags::NX, 0)
            .unwrap();
        fx.core.set_pc(VirtAddr(0x40_0004)); // NX page, but odd entry
        let stop = fx.core.run(&mut fx.mem, &fx.env, 10);
        assert_eq!(
            stop,
            StopReason::Fault(Exception::InstFault {
                va: VirtAddr(0x40_0004),
                kind: InstFaultKind::Misaligned,
            })
        );
    }

    #[test]
    fn nxp_illegal_decode_faults() {
        let mut fx = fixture(CoreConfig::nxp());
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x40_0000), 0x1000, flags::NX, 0)
            .unwrap();
        // Write x64-looking bytes (opcode 0xBA) at an aligned address.
        fx.mem.write_bytes(PhysAddr(0x40_0000), &[0xBA; 16]);
        fx.core.set_pc(VirtAddr(0x40_0000));
        let stop = fx.core.run(&mut fx.mem, &fx.env, 10);
        assert_eq!(
            stop,
            StopReason::Fault(Exception::InstFault {
                va: VirtAddr(0x40_0000),
                kind: InstFaultKind::Illegal,
            })
        );
    }

    #[test]
    fn unmapped_data_access_faults() {
        let mut fx = fixture(CoreConfig::host());
        load_host_prog(&mut fx, |f| {
            f.li(abi::A1, 0x7000_0000_0000u64 as i64);
            f.ld(abi::A0, abi::A1, 0, MemSize::B8);
            f.halt();
        });
        let stop = fx.core.run(&mut fx.mem, &fx.env, 10);
        assert_eq!(
            stop,
            StopReason::Fault(Exception::DataFault {
                va: VirtAddr(0x7000_0000_0000),
                write: false,
            })
        );
    }

    #[test]
    fn write_to_readonly_page_faults() {
        let mut fx = fixture(CoreConfig::host());
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x60_0000), 0x1000, 0, flags::WRITABLE)
            .unwrap();
        fx.core.flush_tlbs();
        load_host_prog(&mut fx, |f| {
            f.li(abi::A1, 0x60_0000);
            f.st(abi::A0, abi::A1, 0, MemSize::B8);
            f.halt();
        });
        let stop = fx.core.run(&mut fx.mem, &fx.env, 10);
        assert_eq!(
            stop,
            StopReason::Fault(Exception::DataFault {
                va: VirtAddr(0x60_0000),
                write: true,
            })
        );
    }

    #[test]
    fn nxp_time_advances_slower_core() {
        let mut host_fx = fixture(CoreConfig::host());
        let mut nxp_fx = fixture(CoreConfig::nxp());
        // Same logical program for both ISAs.
        let prog = |target| {
            let mut f = FuncBuilder::new("m", target);
            for _ in 0..100 {
                f.addi(abi::A0, abi::A0, 1);
            }
            f.halt();
            f.finish()
        };
        let x = Isa::X64.encode(&prog(TargetIsa::Host)).unwrap();
        host_fx.mem.write_bytes(PhysAddr(0x40_0000), &x.bytes);
        host_fx.core.set_pc(VirtAddr(0x40_0000));
        host_fx.core.run(&mut host_fx.mem, &host_fx.env, 1000);

        let rv = Isa::Rv64.encode(&prog(TargetIsa::Nxp)).unwrap();
        nxp_fx
            .aspace
            .protect(&mut nxp_fx.mem, VirtAddr(0x40_0000), 0x2000, flags::NX, 0)
            .unwrap();
        nxp_fx.mem.write_bytes(PhysAddr(0x40_0000), &rv.bytes);
        nxp_fx.core.set_pc(VirtAddr(0x40_0000));
        nxp_fx.core.run(&mut nxp_fx.mem, &nxp_fx.env, 1000);

        assert_eq!(host_fx.core.reg(abi::A0), 100);
        assert_eq!(nxp_fx.core.reg(abi::A0), 100);
        assert!(
            nxp_fx.core.clock().now() > host_fx.core.clock().now() * 5,
            "200 MHz in-order core must be much slower: {} vs {}",
            nxp_fx.core.clock().now(),
            host_fx.core.clock().now()
        );
    }

    #[test]
    fn tlb_miss_charges_walk_latency() {
        let mut fx = fixture(CoreConfig::nxp());
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x40_0000), 0x1000, flags::NX, 0)
            .unwrap();
        let mut f = FuncBuilder::new("w", TargetIsa::Nxp);
        f.li(abi::A1, 0x50_0000);
        f.ld(abi::A0, abi::A1, 0, MemSize::B8);
        f.halt();
        let enc = Isa::Rv64.encode(&f.finish()).unwrap();
        fx.mem.write_bytes(PhysAddr(0x40_0000), &enc.bytes);
        fx.core.set_pc(VirtAddr(0x40_0000));
        fx.core.run(&mut fx.mem, &fx.env, 100);
        // One I-TLB miss + one D-TLB miss, each a 3-level walk (2 MiB
        // pages) over PCIe at 850ns/level plus firmware overhead.
        assert_eq!(fx.core.stats().get("itlb_misses"), 1);
        assert_eq!(fx.core.stats().get("dtlb_misses"), 1);
        let wall = fx.core.clock().now();
        assert!(
            wall > Picos::from_nanos(2 * (3 * 850 + 150)),
            "walks dominate: {wall}"
        );
    }

    #[test]
    fn mmu_hole_bypasses_walk() {
        let mut fx = fixture(CoreConfig::nxp());
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x40_0000), 0x1000, flags::NX, 0)
            .unwrap();
        fx.core.add_hole(MmuHole {
            va_base: VirtAddr(0x9000_0000_0000),
            size: 1 << 20,
            pa_base: PhysAddr(0x9000_0000), // NxP SRAM via BAR1
            executable: false,
        });
        let mut f = FuncBuilder::new("w", TargetIsa::Nxp);
        f.li(abi::A1, 0x9000_0000_0000u64 as i64);
        f.li(abi::A0, 77);
        f.st(abi::A0, abi::A1, 0, MemSize::B8);
        f.ld(abi::A2, abi::A1, 0, MemSize::B8);
        f.halt();
        let enc = Isa::Rv64.encode(&f.finish()).unwrap();
        fx.mem.write_bytes(PhysAddr(0x40_0000), &enc.bytes);
        fx.core.set_pc(VirtAddr(0x40_0000));
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 100), StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A2), 77);
        assert_eq!(fx.core.stats().get("dtlb_misses"), 0, "hole bypasses TLB");
    }

    #[test]
    fn context_save_restore_round_trips() {
        let mut core = Core::new(CoreConfig::host());
        core.set_reg(abi::A0, 123);
        core.set_pc(VirtAddr(0x1000));
        let ctx = core.save_context();
        core.set_reg(abi::A0, 0);
        core.set_pc(VirtAddr::NULL);
        core.restore_context(&ctx);
        assert_eq!(core.reg(abi::A0), 123);
        assert_eq!(core.pc(), VirtAddr(0x1000));
    }

    #[test]
    fn zero_register_is_hardwired() {
        let mut core = Core::new(CoreConfig::nxp());
        core.set_reg(abi::ZERO, 999);
        assert_eq!(core.reg(abi::ZERO), 0);
    }

    #[test]
    fn page_spanning_host_instruction_decodes() {
        let mut fx = fixture(CoreConfig::host());
        // Place a 10-byte `li` so it straddles a page boundary.
        let mut f = FuncBuilder::new("m", TargetIsa::Host);
        f.li(abi::A0, 0x0102_0304_0506_0708);
        f.halt();
        let enc = Isa::X64.encode(&f.finish()).unwrap();
        let start = 0x40_1000 - 4; // 10-byte inst crosses into next page
        fx.mem.write_bytes(PhysAddr(start), &enc.bytes);
        fx.core.set_pc(VirtAddr(start));
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 10), StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A0), 0x0102_0304_0506_0708);
    }

    #[test]
    fn cr3_switch_flushes_tlbs() {
        let mut fx = fixture(CoreConfig::host());
        load_host_prog(&mut fx, |f| {
            f.li(abi::A1, 0x50_0000);
            f.ld(abi::A0, abi::A1, 0, MemSize::B8);
            f.halt();
        });
        fx.core.run(&mut fx.mem, &fx.env, 100);
        let misses_before = fx.core.dtlb_misses();
        let cr3 = fx.core.cr3();
        fx.core.set_cr3(cr3); // reload same root — still flushes
        fx.core.set_pc(VirtAddr(0x40_0000));
        fx.core.run(&mut fx.mem, &fx.env, 100);
        assert!(fx.core.dtlb_misses() > misses_before);
    }
}
