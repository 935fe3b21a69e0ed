//! The machine: N host cores × M NxP cores + PCIe fabric + interrupt
//! controller + kernel + NxP runtime, and the complete bidirectional
//! migration event loop of Fig. 2.
//!
//! The fleet is driven by a deterministic discrete-event interleave:
//! each scheduling turn goes to the eligible host core whose clock is
//! globally earliest (ties toward the lowest core index), so any
//! topology — including the paper's 1×1 pair — replays bit-identically
//! run after run.

use crate::descriptor::{DescKind, MigrationDescriptor};
use crate::handlers;
use crate::health::{BreakerState, HealthMonitor};
use crate::nxp::{NxpThread, NxpTiming};
use crate::services::{self as svc, desc_layout as L};
use crate::serving::{ServingCompletion, ServingCtx, ServingReport, ServingRequest};
use crate::topology::{NxpPlacement, Topology};
use flick_cpu::{
    ChainCounters, Core, CoreConfig, CpuContext, Exception, InstFaultKind, MemEnv, StopReason,
};
use flick_isa::{abi, IsaId};
use flick_mem::{PhysAddr, PhysMem, VirtAddr};
use flick_os::{Kernel, KernelError, LoadError, OsTiming, RunQueues};
use flick_pcie::{InterruptController, Msi, PcieFabric};
use flick_sim::fault::BurstPerturbation;
use flick_sim::trace::Side;
use flick_sim::{
    CoreId, DeviceFaultKind, Event, FaultCounts, FaultPlan, MsiFate, Picos, Span, SpanRecorder,
    SpanStage, Stats, Trace, TraceConfig,
};
use flick_toolchain::{layout, MultiIsaImage, ProgramBuilder};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::error::Error;
use std::fmt;

/// Instructions per scheduling quantum (~20 µs at host speed).
const QUANTUM: u64 = 50_000;

/// Why a run failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// Loading the program failed.
    Load(LoadError),
    /// A kernel API was asked about a task that does not exist (or an
    /// equally impossible task-state transition). Reachable by driving
    /// the machine with a PID that was never loaded; previously this
    /// was a library panic.
    Kernel(KernelError),
    /// Building the program failed.
    Build(String),
    /// A core took an unrecoverable exception.
    Crash {
        /// Which side crashed.
        side: Side,
        /// The exception.
        exception: Exception,
    },
    /// An `ecall` used an unknown service number.
    UnknownService {
        /// Which side issued it.
        side: Side,
        /// The service number.
        service: u16,
    },
    /// The instruction budget ran out.
    FuelExhausted,
    /// The migration protocol reached a state its invariants forbid
    /// (e.g. the migrate `ioctl` issued without a saved fault target).
    /// Reachable by hand-written guest code that calls the Flick
    /// services outside the handler protocol.
    Protocol {
        /// Which side broke the protocol.
        side: Side,
        /// What was violated.
        context: &'static str,
    },
    /// Descriptor delivery kept failing past the bounded retransmission
    /// budget and the failure was not recoverable by degradation (a
    /// lost *return* leg cannot be re-run without doubling the remote
    /// call's side effects).
    LinkDead {
        /// The thread whose migration was lost.
        pid: u64,
        /// Which leg of the protocol gave up.
        stage: &'static str,
    },
    /// Every host core went idle with no queued task and no pending
    /// wake-up, yet some processes never finished — they can never run
    /// again (e.g. they were abandoned mid-migration by an earlier
    /// aborted run).
    Deadlock {
        /// The pids that never completed.
        stuck: Vec<u64>,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Load(e) => write!(f, "load error: {e}"),
            RunError::Kernel(e) => write!(f, "kernel error: {e}"),
            RunError::Build(e) => write!(f, "build error: {e}"),
            RunError::Crash { side, exception } => write!(f, "{side} crashed: {exception}"),
            RunError::UnknownService { side, service } => {
                write!(f, "{side} used unknown service {service:#x}")
            }
            RunError::FuelExhausted => write!(f, "instruction budget exhausted"),
            RunError::Protocol { side, context } => {
                write!(f, "{side} migration protocol violation: {context}")
            }
            RunError::LinkDead { pid, stage } => {
                write!(f, "PCIe link dead for pid {pid} during {stage}")
            }
            RunError::Deadlock { stuck } => {
                write!(
                    f,
                    "scheduler deadlock: no runnable task or pending wake-up; \
                     stuck pids {stuck:?}"
                )
            }
        }
    }
}

impl Error for RunError {}

impl From<LoadError> for RunError {
    fn from(e: LoadError) -> Self {
        RunError::Load(e)
    }
}

impl From<KernelError> for RunError {
    fn from(e: KernelError) -> Self {
        RunError::Kernel(e)
    }
}

/// The result of running a process to completion.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Value passed to `flick_exit`.
    pub exit_code: u64,
    /// Host wall-clock simulated time at exit.
    pub sim_time: Picos,
    /// Console lines printed by the program.
    pub console: Vec<String>,
    /// Counters (migrations, faults, instructions, …). These are
    /// **machine-lifetime cumulative** values snapshotted at exit, not
    /// per-process deltas: running several processes on one machine
    /// accumulates into the same counters.
    pub stats: Stats,
}

/// Handler addresses for one loaded process.
///
/// The accelerator handlers are kept per ISA: `accel[isa.tag()]` holds
/// the `(entry, loop)` pair of that ISA's migration handler, or `None`
/// when the image was linked without functions of that ISA. The host
/// ISA's slot is always `None` — host-side migration goes through
/// `host_handler`.
#[derive(Clone, Copy, Debug, Default)]
struct ProcessVas {
    host_handler: VirtAddr,
    accel: [Option<(VirtAddr, VirtAddr)>; flick_isa::IsaId::COUNT],
}

impl ProcessVas {
    /// `(entry, loop)` of the migration handler for accelerator `isa`.
    fn accel_handlers(&self, isa: IsaId) -> Option<(VirtAddr, VirtAddr)> {
        self.accel[isa.tag() as usize]
    }
}

/// Everything the machine keeps about one thread beyond its kernel
/// `task_struct`: the host driver's migration bookkeeping and the NxP
/// scheduler's saved context. [`Machine::load`] and request spawn
/// create the record; a finished serving request drops it with one
/// `remove`.
#[derive(Debug, Default)]
struct ThreadState {
    /// The handler table the thread migrates through.
    vas: ProcessVas,
    /// Span id of the thread's current suspension round trip.
    span: Option<u64>,
    /// Time and host core of the thread's latest NX fault, stashed so
    /// the span that opens at the migrate `ioctl` can backdate its
    /// first mark to the trigger.
    nx_fault: Option<(Picos, usize)>,
    /// Which NxPs hold the thread's accelerator continuations,
    /// outermost first: return legs always follow the thread back to
    /// the innermost (last) entry. Depth exceeds one only when a
    /// cross-accelerator call bounces through the host while an outer
    /// frame stays parked on its own NxP.
    continuations: Vec<usize>,
    /// Channel and wire bytes of the thread's most recent host→NxP
    /// descriptor, retained by the host driver until the round trip
    /// completes. When an NxP dies mid-round-trip its device-side state
    /// (including the retained NxP→host bytes) dies with it, and this
    /// copy is what failover re-executes on a surviving NxP.
    sent_h2n: Option<(usize, Vec<u8>)>,
    /// Channel and wire bytes of the thread's in-flight NxP→host
    /// descriptor, retained until acceptance so the host can demand
    /// retransmission.
    sent_n2h: Option<(usize, Vec<u8>)>,
    /// The NxP scheduler's saved state for this thread.
    nxp: NxpThread,
}

/// Maps a PTE ISA tag (stored as `tag + 1`; `0` = untagged) to the
/// accelerator ISA it names. Untagged and non-accelerator tags resolve
/// by **best fit** over the machine's accelerator fleet (see
/// [`best_fit_accel_isa`]) instead of hard-defaulting to rv64 — on a
/// fleet with no rv64 slot the old default would bounce every untagged
/// call through the wrong-ISA fallback path.
fn isa_from_tag(tag: u8, fleet: &[IsaId]) -> IsaId {
    match tag {
        0 => best_fit_accel_isa(fleet),
        t => IsaId::from_tag(t - 1)
            .filter(|g| g.descriptor().nx_text)
            .unwrap_or_else(|| best_fit_accel_isa(fleet)),
    }
}

/// The accelerator ISA an *untagged* call target should land on: the
/// fleet's best single-thread performance point, scored from the ISA
/// descriptors as nominal clock over ALU CPI (compared exactly by
/// cross-multiplication, no float rounding). Ties break toward the
/// lower ISA tag and the result ignores slot order, so placement is
/// deterministic for any fleet spec permutation. Non-accelerator
/// (host-encoding) entries are skipped; an empty or all-host fleet
/// keeps the classic two-ISA machine's rv64 default.
pub fn best_fit_accel_isa(fleet: &[IsaId]) -> IsaId {
    let mut best: Option<IsaId> = None;
    for &isa in fleet {
        if !isa.descriptor().nx_text {
            continue;
        }
        let better = match best {
            None => true,
            Some(b) if b == isa => false,
            Some(b) => {
                let (d, e) = (isa.descriptor(), b.descriptor());
                let (s, t) = (d.clock_khz * e.cpi.alu, e.clock_khz * d.cpi.alu);
                s > t || (s == t && isa.tag() < b.tag())
            }
        };
        if better {
            best = Some(isa);
        }
    }
    best.unwrap_or(IsaId::Rv64)
}

/// How a suspended thread expects to be woken.
#[derive(Clone, Copy, Debug)]
struct PendingWake {
    /// Arrival time of the wake-up MSI, or `None` when the interrupt
    /// (or its whole payload burst) was lost in flight — the watchdog
    /// deadline in the `task_struct` then drives recovery.
    msi_at: Option<Picos>,
    /// The descriptor channel (= NxP index = MSI vector) the wake-up
    /// travels on.
    chan: usize,
    /// The channel incarnation the reply was sent under. A failover
    /// rejoin resets the channel; a wake stamped with an older
    /// incarnation belongs to a dead device and must be re-executed,
    /// not retransmitted, even though the rejoined device reads
    /// healthy.
    incarnation: u64,
}

/// Per-channel descriptor protocol state: independent sequence spaces
/// per NxP, exactly as each device pair would keep on real hardware.
#[derive(Clone, Debug)]
struct ChannelSeqs {
    /// Next host→NxP descriptor sequence number.
    h2n: u64,
    /// Next NxP→host descriptor sequence number.
    n2h: u64,
    /// Highest host→NxP sequence the NxP has accepted. A high-water
    /// mark suffices on this direction: allocation and pickup happen
    /// atomically within one delivery loop, so accepts are in order.
    nxp_last: u64,
    /// Every NxP→host sequence `<= host_floor` has been accepted this
    /// channel incarnation.
    host_floor: u64,
    /// Accepted NxP→host sequences beyond `host_floor`. An exact set,
    /// not a high-water mark: failover stalls can reorder wake
    /// delivery across threads sharing the channel, and a lower-seq
    /// reply accepted late must not be mistaken for a retransmit
    /// duplicate. Contiguous prefixes fold back into the floor, so the
    /// set stays at the size of the reorder window, not the run.
    host_accepted: std::collections::BTreeSet<u64>,
    /// Bumped every time a failover rejoin resets this channel: both
    /// sequence spaces restart, so protocol state stamped with an
    /// older incarnation is meaningless against the new device.
    incarnation: u64,
}

impl Default for ChannelSeqs {
    fn default() -> Self {
        ChannelSeqs {
            h2n: 1,
            n2h: 1,
            nxp_last: 0,
            host_floor: 0,
            host_accepted: std::collections::BTreeSet::new(),
            incarnation: 0,
        }
    }
}

impl ChannelSeqs {
    /// Has the host already accepted NxP→host sequence `seq` this
    /// incarnation?
    fn host_has_accepted(&self, seq: u64) -> bool {
        seq <= self.host_floor || self.host_accepted.contains(&seq)
    }

    /// Records an accepted NxP→host sequence, folding any
    /// now-contiguous prefix into the floor.
    fn host_mark_accepted(&mut self, seq: u64) {
        if seq <= self.host_floor {
            return;
        }
        self.host_accepted.insert(seq);
        while self.host_accepted.remove(&(self.host_floor + 1)) {
            self.host_floor += 1;
        }
    }
}

/// What one host core currently holds between scheduling turns.
#[derive(Clone, Copy, Debug, Default)]
struct CoreSlot {
    /// Task whose live context is on the core (its quantum expired
    /// with nothing due, so it keeps running next turn).
    running: Option<u64>,
    /// Task preempted by a due wake-up, to re-queue behind the
    /// freshly woken ones.
    preempted: Option<u64>,
}

/// What a host `ecall` did to the control flow.
enum EcallFlow {
    /// Resume the same thread.
    Continue,
    /// The process exited with this code.
    Exit(u64),
    /// The thread suspended for migration; an MSI or the watchdog wakes
    /// it later.
    Suspended(PendingWake),
    /// The thread was made runnable again immediately with a modified
    /// context (graceful degradation unwound the migration); reinstall
    /// it and keep running.
    Resume,
}

/// Outcome of one NxP pickup attempt of a host→NxP burst.
enum Pickup {
    /// Clean, in-order descriptor: run the NxP leg.
    Accept(Vec<u8>, MigrationDescriptor),
    /// Checksum rejected — the NxP NAKs and the host must retransmit.
    Corrupt,
    /// Sequence number already accepted (stale retransmit): discarded.
    Duplicate,
    /// The device is crashed, hung or unplugged: its scheduler never
    /// polls the status register, so the burst sits unclaimed and the
    /// device clock does not move. Unlike [`Pickup::Corrupt`] no NAK
    /// crosses the link — the host only notices by timeout.
    Dead,
}

/// Outcome of one host-side attempt to accept the n2h descriptor.
enum HostAccept {
    /// Descriptor accepted; the thread is runnable again. Carries the
    /// accepted sequence number.
    Woken(u64),
    /// Nothing (new) in the host ring yet.
    Empty,
    /// A corrupted burst was drained and NAKed; retransmission needed.
    Corrupt,
}

/// Builder for a [`Machine`] with custom timing/trace configuration.
#[derive(Debug, Default)]
pub struct MachineBuilder {
    os_timing: Option<OsTiming>,
    nxp_timing: Option<NxpTiming>,
    trace: Option<TraceConfig>,
    host_cfg: Option<CoreConfig>,
    nxp_cfg: Option<CoreConfig>,
    latency: Option<flick_mem::LatencyModel>,
    kernel_cfg: Option<flick_os::KernelConfig>,
    fault_plan: Option<FaultPlan>,
    fast_path: Option<bool>,
    topology: Option<Topology>,
    nxp_placement: Option<NxpPlacement>,
    observability: Option<bool>,
    nxp_isas: Option<Vec<IsaId>>,
    ring_occupancy: Option<bool>,
}

impl MachineBuilder {
    /// Overrides the kernel path timing.
    pub fn os_timing(mut self, t: OsTiming) -> Self {
        self.os_timing = Some(t);
        self
    }

    /// Overrides the NxP runtime timing.
    pub fn nxp_timing(mut self, t: NxpTiming) -> Self {
        self.nxp_timing = Some(t);
        self
    }

    /// Overrides trace recording.
    pub fn trace(mut self, t: TraceConfig) -> Self {
        self.trace = Some(t);
        self
    }

    /// Overrides the host core configuration.
    pub fn host_core(mut self, c: CoreConfig) -> Self {
        self.host_cfg = Some(c);
        self
    }

    /// Overrides the NxP core configuration.
    pub fn nxp_core(mut self, c: CoreConfig) -> Self {
        self.nxp_cfg = Some(c);
        self
    }

    /// Overrides the memory latency model (ablations: descriptor
    /// transfer over MMIO instead of burst DMA, slower links, …).
    pub fn latency_model(mut self, lat: flick_mem::LatencyModel) -> Self {
        self.latency = Some(lat);
        self
    }

    /// Overrides kernel configuration (hugepage granularity of the NxP
    /// window, stack placement ablation).
    pub fn kernel_config(mut self, cfg: flick_os::KernelConfig) -> Self {
        self.kernel_cfg = Some(cfg);
        self
    }

    /// Installs a seeded fault-injection plan for the PCIe/DMA/MSI
    /// paths. The default is [`FaultPlan::none`], which draws no random
    /// numbers and perturbs nothing.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Toggles the host-side decoded-block fast path on every
    /// core (host, NxP, and the degraded-mode emulator). On by default;
    /// the differential tests switch it off to prove simulated clocks,
    /// stats, and traces are bit-identical either way. Overrides any
    /// `fast_path` already present in custom core configurations.
    pub fn fast_path(mut self, enabled: bool) -> Self {
        self.fast_path = Some(enabled);
        self
    }

    /// Configures the machine as `topology.host_cores()` symmetric host
    /// cores × `topology.nxp_cores()` NxPs, each NxP behind its own
    /// descriptor channel. The default is the paper's 1×1 pair.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = Some(t);
        self
    }

    /// Picks the placement policy for fresh host→NxP calls. The
    /// default is [`NxpPlacement::RoundRobin`].
    pub fn nxp_placement(mut self, p: NxpPlacement) -> Self {
        self.nxp_placement = Some(p);
        self
    }

    /// Assigns an ISA to each NxP slot, making the fleet heterogeneous
    /// beyond the classic all-rv64 accelerator pool. Slot `i` runs
    /// `isas[i]`; slots past the end of the list default to
    /// [`IsaId::Rv64`]. Every listed ISA must be an accelerator ISA
    /// (descriptor `nx_text` set). A custom [`MachineBuilder::nxp_core`]
    /// configuration applies to the rv64 slots only; other ISAs derive
    /// their configuration from the descriptor via
    /// [`CoreConfig::accel`].
    pub fn nxp_isas(mut self, isas: Vec<IsaId>) -> Self {
        self.nxp_isas = Some(isas);
        self
    }

    /// Enables the migration observability layer: a lifecycle
    /// [`Span`] per cross-ISA call (NX fault → descriptor pack → DMA
    /// submit → NxP dispatch → return submit → MSI → wake), per-segment
    /// latency histograms and per-NxP queue-depth gauges folded into
    /// [`Outcome::stats`], all exportable as a Perfetto/Chrome trace.
    ///
    /// Off by default and provably inert: span ids are assigned and
    /// carried in descriptors either way, marks never advance a clock,
    /// so enabling this changes neither simulated time nor counters nor
    /// the event trace (the differential tests pin this down).
    pub fn observability(mut self, enabled: bool) -> Self {
        self.observability = Some(enabled);
        self
    }

    /// Enables simulated-time ring-occupancy admission control. The
    /// stock admission check reads the channel's *wall* ring depth,
    /// which only fills when a device stops draining — under pure
    /// overload the NxP drains each burst before the next kick, so the
    /// doorbell never says no even as device clocks run minutes behind
    /// offered load. With this knob on, the host driver also counts
    /// kicks whose *simulated* pickup instant is still in the doorbell
    /// write's future — the slots a real ring would have occupied — and
    /// rejects at [`flick_os::RetryPolicy::ring_capacity`] just like a
    /// wall-full ring: same `admission_rejects` counter, same
    /// [`Event::AdmissionRejected`], same bounded backoff-and-degrade
    /// budget. Off by default (bit-inert: no occupancy is recorded).
    pub fn ring_occupancy_admission(mut self, enabled: bool) -> Self {
        self.ring_occupancy = Some(enabled);
        self
    }

    /// Accepted and ignored; legs run inline. NxP legs execute in place
    /// inside the host `ecall` that sends them, so there is no host
    /// worker pool to size. Kept so existing callers still build.
    pub fn threads(self, _n: usize) -> Self {
        self
    }

    /// Builds the machine.
    pub fn build(self) -> Machine {
        let mut env = MemEnv::paper_default();
        if let Some(lat) = self.latency {
            env.latency = lat;
        }
        let mem = PhysMem::new();
        let mut kcfg = self.kernel_cfg.unwrap_or_default();
        if let Some(t) = self.os_timing {
            kcfg.timing = t;
        }
        let kernel = Kernel::with_config(env.map.clone(), kcfg);
        let mut host_cfg = self.host_cfg.unwrap_or_else(CoreConfig::host);
        let mut nxp_cfg = self.nxp_cfg.unwrap_or_else(CoreConfig::nxp);
        if let Some(fp) = self.fast_path {
            host_cfg.fast_path = fp;
            nxp_cfg.fast_path = fp;
        }
        let topology = self.topology.unwrap_or_default();
        let listed = self.nxp_isas.unwrap_or_default();
        let nxp_isas: Vec<IsaId> = (0..topology.nxp_cores())
            .map(|i| listed.get(i).copied().unwrap_or(IsaId::Rv64))
            .collect();
        let nxp_cfgs: Vec<CoreConfig> = nxp_isas
            .iter()
            .map(|&isa| {
                if isa == IsaId::Rv64 {
                    nxp_cfg.clone()
                } else {
                    let mut c = CoreConfig::accel(isa);
                    if let Some(fp) = self.fast_path {
                        c.fast_path = fp;
                    }
                    c
                }
            })
            .collect();
        Machine {
            hosts: (0..topology.host_cores())
                .map(|_| Core::new(host_cfg.clone()))
                .collect(),
            nxps: nxp_cfgs.iter().map(|c| Core::new(c.clone())).collect(),
            nxp_isas,
            fabric: PcieFabric::new(env.latency.clone(), topology.nxp_cores()),
            irq: InterruptController::new(),
            kernel,
            nxp_timing: self.nxp_timing.unwrap_or_else(NxpTiming::paper_default),
            trace: Trace::new(self.trace.unwrap_or_default()),
            stats: Stats::default(),
            threads: HashMap::new(),
            symbols: HashMap::new(),
            plan: self.fault_plan.unwrap_or_else(FaultPlan::none),
            emus: (0..topology.host_cores()).map(|_| None).collect(),
            chans: vec![ChannelSeqs::default(); topology.nxp_cores()],
            health: HealthMonitor::new(topology.nxp_cores()),
            placement: self.nxp_placement.unwrap_or_default(),
            rr_next: 0,
            obs: SpanRecorder::new(self.observability.unwrap_or(false)),
            obs_stats: Stats::default(),
            next_span: 1,
            retired: 0,
            retired_emu_insts: 0,
            serving: None,
            ring_occupancy: if self.ring_occupancy.unwrap_or(false) {
                Some((0..topology.nxp_cores()).map(|_| VecDeque::new()).collect())
            } else {
                None
            },
            topology,
            mem,
            env,
        }
    }
}

/// The heterogeneous-ISA machine of Table I: a 2.4 GHz x64-like host
/// core and a 200 MHz rv64-like NxP core behind PCIe 3.0, sharing one
/// unified physical and virtual memory space.
pub struct Machine {
    mem: PhysMem,
    env: MemEnv,
    topology: Topology,
    hosts: Vec<Core>,
    nxps: Vec<Core>,
    /// ISA of each NxP slot, in slot order (stable across failover
    /// rejoins).
    nxp_isas: Vec<IsaId>,
    fabric: PcieFabric,
    irq: InterruptController,
    kernel: Kernel,
    nxp_timing: NxpTiming,
    trace: Trace,
    stats: Stats,
    /// Per-thread state by pid (see [`ThreadState`]). Every access is
    /// a point lookup; nothing iterates it.
    threads: HashMap<u64, ThreadState>,
    /// Linker symbols of each image [`Machine::load`] mapped, by the
    /// pid it was loaded as.
    symbols: HashMap<u64, std::collections::BTreeMap<String, u64>>,
    /// Seeded fault injection for the interconnect (inactive by
    /// default).
    plan: FaultPlan,
    /// Lazily created per-host-core interpreter cores for degraded
    /// threads.
    emus: Vec<Option<Core>>,
    /// Per-channel sequence-number state (one entry per NxP).
    chans: Vec<ChannelSeqs>,
    /// Per-NxP liveness and circuit-breaker state, driven purely by
    /// *observed* delivery failures/successes on the deterministic
    /// timeline — never by peeking at the fault schedule.
    health: HealthMonitor,
    /// Placement policy for fresh host→NxP calls.
    placement: NxpPlacement,
    /// Round-robin cursor for [`NxpPlacement::RoundRobin`].
    rr_next: usize,
    /// Migration lifecycle spans (inert unless enabled at build time).
    obs: SpanRecorder,
    /// Histograms and gauges recorded by the observability layer, kept
    /// apart from the machine counters and merged into
    /// [`Outcome::stats`] at exit so the counter map is untouched.
    obs_stats: Stats,
    /// Next span id. Always advanced — span ids ride in descriptor
    /// wire bytes whether or not recording is on, which is what makes
    /// the observability toggle bit-inert.
    next_span: u64,
    /// Running total of instructions retired across the whole fleet
    /// (hosts, NxPs, emulators). Bumped after every `Core::run` so the
    /// scheduling loop's fuel accounting reads one field instead of
    /// re-summing every core each iteration.
    retired: u64,
    /// Instructions retired by emulator cores that were since replaced
    /// by one of another guest ISA — keeps the `executed()` invariant
    /// exact after the old core is dropped.
    retired_emu_insts: u64,
    /// Open-loop serving state while [`Machine::run_serving`] drives
    /// the event loop; `None` in every other mode, which keeps the
    /// closed-loop paths byte-identical to the pre-serving machine.
    serving: Option<ServingCtx>,
    /// Per-channel simulated pickup instants of kicked bursts, used by
    /// the ring-occupancy admission check
    /// ([`MachineBuilder::ring_occupancy_admission`]). `None` = knob
    /// off, nothing recorded.
    ring_occupancy: Option<Vec<VecDeque<Picos>>>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("topology", &self.topology)
            .field("host_now", &self.host_now())
            .finish()
    }
}

impl Machine {
    /// A machine with all paper-calibrated defaults.
    pub fn paper_default() -> Self {
        MachineBuilder::default().build()
    }

    /// Starts building a customised machine.
    pub fn builder() -> MachineBuilder {
        MachineBuilder::default()
    }

    /// Loads a pre-built multi-ISA image, returning the new PID.
    ///
    /// The image must contain the Flick runtime (link it with
    /// [`handlers::add_runtime`]).
    ///
    /// # Errors
    ///
    /// Fails when the image lacks the runtime symbols or cannot be
    /// mapped.
    pub fn load(&mut self, image: &MultiIsaImage) -> Result<u64, RunError> {
        let need = |name: &str| {
            image
                .find_symbol(name)
                .map(VirtAddr)
                .ok_or_else(|| RunError::Build(format!("image lacks runtime symbol `{name}`")))
        };
        // Host and classic-NxP handlers are mandatory (every runtime
        // links them); handlers of other accelerator ISAs are optional
        // — present only when the image holds functions of that ISA.
        let mut accel = [None; flick_isa::IsaId::COUNT];
        accel[flick_isa::IsaId::Nxp.tag() as usize] = Some((
            need(handlers::NXP_HANDLER)?,
            need(handlers::NXP_HANDLER_LOOP)?,
        ));
        for d in flick_isa::IsaId::all() {
            if !d.nx_text || d.id == flick_isa::IsaId::Nxp {
                continue;
            }
            let entry = image.find_symbol(&handlers::nxp_handler_symbol(d.id));
            let lp = image.find_symbol(&handlers::nxp_handler_loop_symbol(d.id));
            if let (Some(e), Some(l)) = (entry, lp) {
                accel[d.id.tag() as usize] = Some((VirtAddr(e), VirtAddr(l)));
            }
        }
        let vas = ProcessVas {
            host_handler: need(handlers::HOST_HANDLER)?,
            accel,
        };
        let pid = self.kernel.create_process(&mut self.mem, image)?;
        self.threads.insert(pid, ThreadState { vas, ..Default::default() });
        self.symbols.insert(pid, image.symbols.clone());
        Ok(pid)
    }

    /// Convenience: injects the Flick runtime into `program`, builds it
    /// and loads it.
    ///
    /// # Errors
    ///
    /// Propagates build and load failures.
    pub fn load_program(&mut self, program: &mut ProgramBuilder) -> Result<u64, RunError> {
        handlers::add_runtime(program);
        let image = program
            .build()
            .map_err(|e| RunError::Build(e.to_string()))?;
        self.load(&image)
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The kernel (console, tasks).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Machine-level statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Per-kind tallies of the faults the plan actually injected.
    pub fn fault_counts(&self) -> FaultCounts {
        self.plan.counts()
    }

    /// Per-NxP health and circuit-breaker state.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Fleet-wide task census: `(live, exited)` pids, each spawned
    /// thread in exactly one of the two lists. The chaos tests assert
    /// this invariant across crash/rejoin schedules — failover must
    /// neither lose a thread nor duplicate one.
    pub fn task_census(&self) -> (Vec<u64>, Vec<u64>) {
        let mut live = Vec::new();
        let mut exited = Vec::new();
        for t in self.kernel.tasks() {
            if t.state == flick_os::TaskState::Zombie {
                exited.push(t.pid);
            } else {
                live.push(t.pid);
            }
        }
        (live, exited)
    }

    /// Completed migration spans in completion order. Empty unless the
    /// machine was built with [`MachineBuilder::observability`].
    pub fn spans(&self) -> &[Span] {
        self.obs.spans()
    }

    /// The observability histograms and gauges recorded so far (empty
    /// when observability is off). Also folded into [`Outcome::stats`]
    /// when a process exits.
    pub fn observability_stats(&self) -> &Stats {
        &self.obs_stats
    }

    /// Looks up a linker symbol in the image `pid` was loaded from.
    pub fn symbol(&self, pid: u64, name: &str) -> Option<VirtAddr> {
        self.symbols
            .get(&pid)
            .and_then(|t| t.get(name))
            .map(|&va| VirtAddr(va))
    }

    /// Latest host-core time (the host-side wall clock: with several
    /// cores, the furthest-ahead one).
    pub fn host_now(&self) -> Picos {
        self.hosts
            .iter()
            .map(|c| c.clock().now())
            .max()
            .unwrap_or(Picos::ZERO)
    }

    /// The machine's core topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Per-core statistics snapshots, keyed by [`CoreId`] (host, NxP,
    /// and — for host cores that ran degraded threads — emulator
    /// cores). The aggregate counters in [`Outcome::stats`] are the
    /// sums of these. Format a key with `Display` (`host0`, `nxp1`,
    /// `emu0`) when a label is needed.
    pub fn per_core_stats(&self) -> Vec<(CoreId, Stats)> {
        let mut out = Vec::new();
        for (i, c) in self.hosts.iter().enumerate() {
            out.push((CoreId::host(i), c.stats()));
        }
        for (i, c) in self.nxps.iter().enumerate() {
            out.push((CoreId::nxp(i), c.stats()));
        }
        for (i, c) in self.emus.iter().enumerate() {
            if let Some(c) = c {
                out.push((CoreId::emu(i), c.stats()));
            }
        }
        out
    }

    /// Fleet-wide fold of every core's host-side chain-efficacy
    /// tallies (hits, patches, breaks, fallback steps). Host-only
    /// telemetry: deliberately *not* part of [`stats`](Self::stats) or
    /// [`per_core_stats`](Self::per_core_stats), whose contents the
    /// differential suites compare bit-for-bit across engine configs.
    pub fn chain_stats(&self) -> ChainCounters {
        let mut total = ChainCounters::default();
        let cores = self
            .hosts
            .iter()
            .chain(self.nxps.iter())
            .chain(self.emus.iter().flatten());
        for c in cores {
            let ch = c.chain_counters();
            total.chain_hits += ch.chain_hits;
            total.chain_patches += ch.chain_patches;
            total.chain_breaks += ch.chain_breaks;
            total.block_fallback_steps += ch.block_fallback_steps;
        }
        total
    }

    /// Human label for a core with its ISA name rendered from the
    /// descriptor — `host0 (x64)`, `nxp1 (arm64)`, `emu0 (rv64 on
    /// x64)` — so heterogeneous-fleet timelines and per-core reports
    /// stay readable. Falls back to the bare `Display` form for cores
    /// the machine does not have.
    pub fn core_label(&self, core: CoreId) -> String {
        match core.side {
            Side::Host => match self.hosts.get(core.index) {
                Some(c) => format!("{core} ({})", c.config().isa.name()),
                None => core.to_string(),
            },
            Side::Nxp => match self.nxp_isas.get(core.index) {
                Some(isa) => format!("{core} ({})", isa.name()),
                None => core.to_string(),
            },
            Side::Emu => match self.emus.get(core.index).and_then(|c| c.as_ref()) {
                Some(c) => format!(
                    "{core} ({} on {})",
                    c.config().isa.name(),
                    self.hosts
                        .get(core.index)
                        .map_or("host", |h| h.config().isa.name())
                ),
                None => core.to_string(),
            },
        }
    }

    /// Track namer for [`flick_sim::chrome_trace_named`]: every
    /// Perfetto track carries the core's ISA via [`Machine::core_label`].
    pub fn track_namer(&self) -> impl Fn(Option<CoreId>) -> String + '_ {
        move |core| match core {
            Some(c) => self.core_label(c),
            None => "untagged".to_string(),
        }
    }

    /// Allocates NxP-DRAM heap for `pid` without charging simulated
    /// time — workload harnesses use this to stage data structures
    /// (linked lists, graphs) before the measured run, the way the
    /// paper's harness prepares the NxP-side storage.
    ///
    /// # Errors
    ///
    /// [`RunError::Load`] when the allocation does not fit the NxP
    /// window or the pid is unknown.
    pub fn stage_alloc_nxp(&mut self, pid: u64, size: u64) -> Result<VirtAddr, RunError> {
        Ok(self.kernel.alloc_nxp_heap(pid, size)?)
    }

    /// Writes user memory without charging simulated time (staging).
    ///
    /// # Errors
    ///
    /// [`RunError::Load`] when the range touches unmapped memory or the
    /// pid is unknown.
    pub fn stage_write(&mut self, pid: u64, va: VirtAddr, bytes: &[u8]) -> Result<(), RunError> {
        Ok(self.kernel.write_user(&mut self.mem, pid, va, bytes)?)
    }

    /// Reads user memory without charging simulated time (inspection).
    ///
    /// # Errors
    ///
    /// [`RunError::Load`] when the range touches unmapped memory or the
    /// pid is unknown.
    pub fn stage_read(&self, pid: u64, va: VirtAddr, buf: &mut [u8]) -> Result<(), RunError> {
        Ok(self.kernel.read_user(&self.mem, pid, va, buf)?)
    }

    /// Runs process `pid` to completion with a default budget of two
    /// billion instructions.
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn run(&mut self, pid: u64) -> Result<Outcome, RunError> {
        self.run_with_fuel(pid, 2_000_000_000)
    }

    /// Runs with an explicit instruction budget.
    ///
    /// # Errors
    ///
    /// See [`RunError`]; [`RunError::FuelExhausted`] if the budget runs
    /// out.
    pub fn run_with_fuel(&mut self, pid: u64, fuel: u64) -> Result<Outcome, RunError> {
        // No quantum: a lone process is never preempted, exactly as in
        // the pre-topology single-process loop.
        let mut done = self.run_event_loop(&[pid], fuel, u64::MAX)?;
        let (_, outcome) = done.pop().ok_or(RunError::Protocol {
            side: Side::Host,
            context: "event loop returned no outcome for its only pid",
        })?;
        Ok(outcome)
    }

    /// Runs several processes concurrently across the host cores.
    ///
    /// While one thread is suspended awaiting an NxP, its host core is
    /// free and the scheduler runs another process — the property that
    /// distinguishes Flick's suspend-based migration from busy-wait
    /// offloading. A running thread is preempted when a wake-up
    /// interrupt fires (checked at a timer-tick granularity of ~20 µs
    /// of host time), so NxP-bound threads resume promptly even while a
    /// compute-bound thread occupies a core.
    ///
    /// Returns `(pid, outcome)` pairs in completion order.
    ///
    /// # Errors
    ///
    /// See [`RunError`]. One crashing process fails the whole run.
    pub fn run_concurrent(
        &mut self,
        pids: &[u64],
        fuel: u64,
    ) -> Result<Vec<(u64, Outcome)>, RunError> {
        self.run_event_loop(pids, fuel, QUANTUM)
    }

    /// Pre-allocates `pid`'s NxP SRAM stack slot and records it in the
    /// descriptor-page TCB word, without charging simulated time — the
    /// staging analog of the `ALLOC_NXP_STACK` service. The migration
    /// handler's first-time check then sees a live stack pointer and
    /// skips the allocation `ecall` on the first cross-ISA call.
    ///
    /// Serving setups call this once per tenant: every request task
    /// spawned from the tenant's prototype inherits the slot, so a
    /// fleet of hundreds of tenants uses one SRAM slot each instead of
    /// exhausting the 255-slot SRAM on per-request allocations.
    ///
    /// # Errors
    ///
    /// [`RunError::Load`] when the pid is unknown, the slot was already
    /// allocated, or the SRAM is out of slots.
    pub fn stage_nxp_stack(&mut self, pid: u64) -> Result<VirtAddr, RunError> {
        let sp = self
            .kernel
            .alloc_nxp_stack(&mut self.mem, pid)
            .map_err(RunError::Load)?;
        self.kernel
            .write_user(
                &mut self.mem,
                pid,
                VirtAddr(layout::DESC_PAGE_VA + L::TCB_NXP_SP),
                &sp.as_u64().to_le_bytes(),
            )
            .map_err(RunError::Load)?;
        Ok(sp)
    }

    /// Runs an open-loop multi-tenant serving schedule to completion.
    ///
    /// `tenants` are loaded prototype processes (one address space,
    /// CR3, staged data set and SRAM stack slot each — see
    /// [`Machine::stage_nxp_stack`]); they never run themselves.
    /// Each [`ServingRequest`] names a tenant by index, an absolute
    /// simulated arrival instant, and an argument delivered in `A0`; at
    /// its arrival the machine spawns a fresh task from the tenant's
    /// prototype ([`flick_os::Kernel::spawn_task`] — pristine entry
    /// context, shared address space) on host core `tenant % hosts` and
    /// schedules it like any other thread, preemption quantum
    /// `quantum`. Tasks of one tenant share its host stack and
    /// descriptor page, so they serialize: a request arriving while its
    /// tenant is busy waits its turn, and the wait is charged to its
    /// latency (open-loop accounting — [`ServingCompletion::latency`]
    /// runs from *arrival*, not admission, so queueing delay under
    /// overload shows up in the tail instead of vanishing into
    /// coordinated omission).
    ///
    /// The run is bit-identical for any rerun at the same schedule,
    /// like every other mode of the machine: arrivals are just one
    /// more deterministic event source.
    ///
    /// # Errors
    ///
    /// [`RunError::Build`] on an empty tenant list, an out-of-range
    /// tenant index, or a zombie prototype; otherwise see [`RunError`]
    /// — a crashing request fails the whole run.
    pub fn run_serving(
        &mut self,
        tenants: &[u64],
        requests: &[ServingRequest],
        fuel: u64,
        quantum: u64,
    ) -> Result<ServingReport, RunError> {
        if tenants.is_empty() {
            return Err(RunError::Build("serving run with no tenants".into()));
        }
        for &pid in tenants {
            if self.kernel.task(pid)?.state == flick_os::TaskState::Zombie {
                return Err(RunError::Build(format!(
                    "serving tenant {pid} already exited"
                )));
            }
        }
        if let Some(r) = requests.iter().find(|r| r.tenant >= tenants.len()) {
            return Err(RunError::Build(format!(
                "request names tenant {} but only {} tenants were given",
                r.tenant,
                tenants.len()
            )));
        }
        // Ensure every tenant owns its SRAM stack slot up front, so
        // request tasks never race the first-call allocation path.
        for &pid in tenants {
            if self.kernel.task(pid)?.nxp_stack_ptr.as_u64() == 0 {
                self.stage_nxp_stack(pid)?;
            }
        }
        self.serving = Some(ServingCtx::new(
            tenants,
            requests.to_vec(),
            self.hosts.len(),
        ));
        let res = self.run_event_loop(&[], fuel, quantum);
        let ctx = self.serving.take();
        res?;
        let ctx = ctx.ok_or(RunError::Protocol {
            side: Side::Host,
            context: "serving context vanished during the run",
        })?;
        let finished_at = ctx
            .completions
            .iter()
            .map(|c| c.finished)
            .max()
            .unwrap_or(Picos::ZERO);
        Ok(ServingReport {
            completions: ctx.completions,
            stats: self.fleet_stats(),
            finished_at,
        })
    }

    /// The deterministic discrete-event interleave driving every run:
    /// each turn goes to the eligible host core whose clock is globally
    /// earliest (ties toward the lowest index). A core is eligible when
    /// it holds a task (running or preempted), has queued or stealable
    /// work, or awaits a wake-up; when no core qualifies but processes
    /// remain, the machine is deadlocked.
    fn run_event_loop(
        &mut self,
        pids: &[u64],
        fuel: u64,
        quantum: u64,
    ) -> Result<Vec<(u64, Outcome)>, RunError> {
        for &pid in pids {
            if self.kernel.task(pid)?.state == flick_os::TaskState::Zombie {
                return Err(RunError::Build(format!("process {pid} already exited")));
            }
        }
        let n = self.hosts.len();
        let mut rq = RunQueues::new(n);
        for (i, &pid) in pids.iter().enumerate() {
            let task = self.kernel.task_mut(pid)?;
            if matches!(
                task.state,
                flick_os::TaskState::Runnable | flick_os::TaskState::Running
            ) {
                task.last_core = i % n;
                rq.enqueue(i % n, pid);
            }
        }
        // Per-core pending wake-ups, keyed (due, pid): due is the MSI
        // arrival, or the watchdog deadline when the interrupt was
        // lost. A min-heap replaces the old sort-then-scan so delivery
        // stays O(log n) per wake.
        let mut pending: Vec<BinaryHeap<Reverse<(Picos, u64)>>> =
            (0..n).map(|_| BinaryHeap::new()).collect();
        let mut wakes: HashMap<u64, PendingWake> = HashMap::new();
        let mut slots = vec![CoreSlot::default(); n];
        let mut done: Vec<(u64, Outcome)> = Vec::new();
        let start_insts = self.executed();
        // Closed-loop runs finish when every submitted process exits;
        // a serving run finishes when every request of the open-loop
        // schedule has completed (its `pids` list is empty — work
        // enters through the arrival queues instead).
        let finished = |m: &Machine, done: &[(u64, Outcome)]| match &m.serving {
            Some(ctx) => ctx.completions.len() >= ctx.total,
            None => done.len() >= pids.len(),
        };
        while !finished(self, &done) {
            if self.executed() - start_insts >= fuel {
                return Err(RunError::FuelExhausted);
            }
            let stealable = rq.total() > 0;
            let hc = (0..n)
                .filter(|&c| {
                    slots[c].running.is_some()
                        || slots[c].preempted.is_some()
                        || rq.len(c) > 0
                        || stealable
                        || !pending[c].is_empty()
                        || self
                            .serving
                            .as_ref()
                            .is_some_and(|ctx| !ctx.arrivals[c].is_empty())
                })
                .min_by_key(|&c| (self.hosts[c].clock().now(), c));
            let Some(hc) = hc else {
                let stuck = match &self.serving {
                    Some(ctx) => {
                        let mut live: Vec<u64> = ctx.live.keys().copied().collect();
                        live.sort_unstable();
                        live
                    }
                    None => pids
                        .iter()
                        .copied()
                        .filter(|p| !done.iter().any(|(d, _)| d == p))
                        .collect(),
                };
                return Err(RunError::Deadlock { stuck });
            };
            self.core_turn(
                hc,
                &mut rq,
                &mut pending,
                &mut wakes,
                &mut slots,
                &mut done,
                start_insts,
                fuel,
                quantum,
            )?;
        }
        Ok(done)
    }

    /// One scheduling turn of host core `hc`: deliver its due
    /// wake-ups, re-queue its preempted task, pick up work (locally,
    /// then by stealing), and run until the next scheduling event.
    #[allow(clippy::too_many_arguments)]
    fn core_turn(
        &mut self,
        hc: usize,
        rq: &mut RunQueues,
        pending: &mut [BinaryHeap<Reverse<(Picos, u64)>>],
        wakes: &mut HashMap<u64, PendingWake>,
        slots: &mut [CoreSlot],
        done: &mut Vec<(u64, Outcome)>,
        start_insts: u64,
        fuel: u64,
        quantum: u64,
    ) -> Result<(), RunError> {
        // Deliver every wake-up that has already fired on this core,
        // oldest first; a preempted thread re-queues *behind* the
        // freshly woken ones.
        loop {
            if pending[hc]
                .peek()
                .is_none_or(|&Reverse((due, _))| due > self.hosts[hc].clock().now())
            {
                break;
            }
            let Some(Reverse((_, pid))) = pending[hc].pop() else {
                break;
            };
            let wake = wakes.remove(&pid).ok_or(RunError::Protocol {
                side: Side::Host,
                context: "heaped wake-up without a wake record",
            })?;
            self.deliver_wakeup(hc, pid, wake)?;
            let now = self.hosts[hc].clock().now();
            let task = self.kernel.task_mut(pid)?;
            task.ready_at = now;
            task.last_core = hc;
            rq.enqueue(hc, pid);
        }
        // Open-loop arrivals land like wake-ups: every request whose
        // arrival instant this core's clock has reached is spawned (or
        // queued behind its tenant's live request) before scheduling.
        self.admit_due_arrivals(hc, rq)?;
        if let Some(p) = slots[hc].preempted.take() {
            rq.enqueue(hc, p);
        }
        let pid = match slots[hc].running {
            Some(pid) => pid,
            None => match rq.pop_local(hc).or_else(|| rq.steal(hc)) {
                Some(pid) => {
                    // Causality across cores: never run a task before
                    // the event that readied it (forward-only sync).
                    let ready = self.kernel.task(pid)?.ready_at;
                    self.hosts[hc].clock_mut().sync_to(ready);
                    self.kernel.task_mut(pid)?.last_core = hc;
                    self.install_task(hc, pid)?;
                    slots[hc].running = Some(pid);
                    pid
                }
                None => {
                    // Idle: nothing to run until a wake arrives, so
                    // fast-forward to this core's earliest wake — or,
                    // in serving mode, its next request arrival if that
                    // comes sooner (an idle open-loop core must advance
                    // to the next arrival or the fleet would deadlock
                    // waiting for work that is due in its future).
                    let mut next = pending[hc].peek().map(|&Reverse((due, _))| due);
                    if let Some(&Reverse((due, _))) = self
                        .serving
                        .as_ref()
                        .and_then(|ctx| ctx.arrivals[hc].peek())
                    {
                        next = Some(next.map_or(due, |n| n.min(due)));
                    }
                    if let Some(due) = next {
                        self.hosts[hc].clock_mut().sync_to(due);
                    }
                    return Ok(());
                }
            },
        };
        loop {
            let used = self.executed() - start_insts;
            if used >= fuel {
                return Err(RunError::FuelExhausted);
            }
            let before = self.hosts[hc].counters().instructions;
            let stop = self.hosts[hc].run(&mut self.mem, &self.env, quantum.min(fuel - used));
            self.retired += self.hosts[hc].counters().instructions - before;
            match stop {
                StopReason::Halt => {
                    let code = self.hosts[hc].reg(abi::A0);
                    slots[hc].running = None;
                    if self.serving.is_some() {
                        self.finish_serving(hc, pid, code, rq)?;
                    } else {
                        done.push((pid, self.finish(hc, pid, code)?));
                    }
                    return Ok(());
                }
                StopReason::Ecall(service) => match self.host_ecall(hc, pid, service)? {
                    EcallFlow::Continue => {}
                    EcallFlow::Exit(code) => {
                        slots[hc].running = None;
                        if self.serving.is_some() {
                            self.finish_serving(hc, pid, code, rq)?;
                        } else {
                            done.push((pid, self.finish(hc, pid, code)?));
                        }
                        return Ok(());
                    }
                    EcallFlow::Suspended(wake) => {
                        let due = match wake.msi_at {
                            Some(at) => at,
                            None => self
                                .kernel
                                .task(pid)?
                                .deadline
                                .unwrap_or_else(|| self.hosts[hc].clock().now()),
                        };
                        pending[hc].push(Reverse((due, pid)));
                        wakes.insert(pid, wake);
                        slots[hc].running = None;
                        return Ok(()); // this core is free for others
                    }
                    EcallFlow::Resume => self.install_task(hc, pid)?,
                },
                StopReason::Fault(Exception::InstFault {
                    va,
                    kind: InstFaultKind::NxViolation,
                }) => {
                    // The Flick trigger: host fetched NxP code. Charge
                    // the measured 0.7µs fault path, then either hijack
                    // into the user-space migration handler (§IV-B1) or
                    // — for a thread whose link died — interpret the
                    // NxP function on the host.
                    self.stats.bump("nx_faults");
                    self.trace.record_on(
                        CoreId::host(hc),
                        self.hosts[hc].clock().now(),
                        Event::NxFault {
                            side: Side::Host,
                            fault_va: va.as_u64(),
                        },
                    );
                    let now = self.hosts[hc].clock().now();
                    let thread = self.thread_mut(pid)?;
                    // The span opens only at the migrate ioctl (where
                    // its id is assigned); stash the trigger so the
                    // first mark can be backdated to the fault itself.
                    thread.nx_fault = Some((now, hc));
                    let handler = thread.vas.host_handler;
                    let t = self.kernel.timing().page_fault_path;
                    self.hosts[hc].clock_mut().advance(t);
                    if self.kernel.task(pid)?.degraded {
                        let used = self.executed() - start_insts;
                        self.emulate_segment(hc, pid, va, fuel.saturating_sub(used))?;
                    } else {
                        self.kernel
                            .redirect_to_handler(pid, &mut self.hosts[hc], va, handler)?;
                    }
                }
                StopReason::Fault(exception) => {
                    return Err(RunError::Crash {
                        side: Side::Host,
                        exception,
                    })
                }
                StopReason::OutOfFuel => {
                    // Quantum expired. Preempt only if a wake-up is
                    // actually due here — otherwise the task keeps the
                    // core and the turn ends (another core may hold
                    // the globally earliest clock now).
                    let now = self.hosts[hc].clock().now();
                    if pending[hc]
                        .peek()
                        .is_some_and(|&Reverse((due, _))| due <= now)
                    {
                        let t = self.kernel.timing().suspend_and_switch;
                        self.hosts[hc].clock_mut().advance(t);
                        let ctx = self.hosts[hc].save_context();
                        let task = self.kernel.task_mut(pid)?;
                        task.context = ctx;
                        task.state = flick_os::TaskState::Runnable;
                        task.ready_at = self.hosts[hc].clock().now();
                        slots[hc].running = None;
                        slots[hc].preempted = Some(pid);
                    }
                    return Ok(());
                }
            }
        }
    }

    /// The ISA of the thread's saved call target, read from the
    /// faulting page's PTE ISA tag (the metadata the loader's extended
    /// `mprotect()` of §IV-C3 stored). Untagged pages — data reached
    /// through a wild pointer, or images predating tagging — resolve
    /// by best fit over the accelerator fleet ([`best_fit_accel_isa`]).
    fn call_target_isa(&self, pid: u64) -> IsaId {
        let Ok(task) = self.kernel.task(pid) else {
            return best_fit_accel_isa(&self.nxp_isas);
        };
        let Some(va) = task.fault_va else {
            return best_fit_accel_isa(&self.nxp_isas);
        };
        let tag = flick_paging::walk(|a| self.mem.read_u64(a), task.cr3, va)
            .map(|t| t.isa_tag)
            .unwrap_or(0);
        isa_from_tag(tag, &self.nxp_isas)
    }

    fn executed(&self) -> u64 {
        // Polled every scheduling-loop iteration: a running total
        // maintained at each `Core::run` call site, instead of
        // re-summing every core in the fleet per poll.
        debug_assert_eq!(
            self.retired,
            self.retired_emu_insts
                + self
                    .hosts
                    .iter()
                    .chain(self.nxps.iter())
                    .chain(self.emus.iter().flatten())
                    .map(|c| c.counters().instructions)
                    .sum::<u64>(),
            "running retired total out of sync with core counters"
        );
        self.retired
    }

    fn finish(&mut self, hc: usize, pid: u64, code: u64) -> Result<Outcome, RunError> {
        let task = self.kernel.task_mut(pid)?;
        task.state = flick_os::TaskState::Zombie;
        task.exit_code = code;
        let stats = self.fleet_stats();
        Ok(Outcome {
            exit_code: code,
            sim_time: self.hosts[hc].clock().now(),
            console: self.kernel.console().to_vec(),
            stats,
        })
    }

    /// Fleet-wide stats snapshot: machine counters plus every core's
    /// counters (NxPs folded under the `nxp_` name space), emulated
    /// instruction totals, health gauges, and the observability bag.
    /// Shared by the per-process [`Outcome`] and the end-of-run
    /// [`ServingReport`] — serving takes it exactly once, instead of
    /// cloning the stats at each of thousands of request completions.
    fn fleet_stats(&mut self) -> Stats {
        let mut stats = self.stats.clone();
        for host in &self.hosts {
            stats.merge(&host.stats());
        }
        // Prefix-less merge would collide; fold NxP counters under a
        // different name space.
        for nxp in &self.nxps {
            for (k, v) in nxp.stats().iter() {
                let name: &'static str = match k {
                    "instructions" => "nxp_instructions",
                    "itlb_misses" => "nxp_itlb_misses",
                    "dtlb_misses" => "nxp_dtlb_misses",
                    "icache_misses" => "nxp_icache_misses",
                    "dcache_misses" => "nxp_dcache_misses",
                    "loads" => "nxp_loads",
                    "stores" => "nxp_stores",
                    "walks" => "nxp_walks",
                    _ => continue,
                };
                stats.bump_by(name, v);
            }
        }
        for emu in self.emus.iter().flatten() {
            stats.bump_by("emulated_instructions", emu.counters().instructions);
        }
        // Per-NxP health gauges, recorded only when a device-fault
        // schedule exists so fault-free observability output is
        // byte-identical to the pre-failover machine.
        if self.obs.enabled() && self.plan.has_device_events() {
            for i in 0..self.nxps.len() {
                let h = *self.health.health(i);
                self.obs_stats
                    .record_hist(&format!("health:deaths:nxp{i}"), h.deaths);
                self.obs_stats
                    .record_hist(&format!("health:recoveries:nxp{i}"), h.recoveries);
            }
        }
        // Observability histograms/gauges ride along in the same bag;
        // the merge touches only the histogram map, never the counters,
        // so stats comparisons stay bit-identical with the layer off.
        stats.merge(&self.obs_stats);
        stats
    }

    /// Spawns every request whose arrival instant host core `hc` has
    /// reached: a fresh task from the tenant's prototype if the tenant
    /// is free, else a FIFO deferral behind its live request. No-op
    /// outside serving mode.
    fn admit_due_arrivals(&mut self, hc: usize, rq: &mut RunQueues) -> Result<(), RunError> {
        if self.serving.is_none() {
            return Ok(());
        }
        loop {
            let now = self.hosts[hc].clock().now();
            let Some(ctx) = self.serving.as_mut() else {
                return Ok(());
            };
            let Some(&Reverse((due, idx))) = ctx.arrivals[hc].peek() else {
                return Ok(());
            };
            if due > now {
                return Ok(());
            }
            ctx.arrivals[hc].pop();
            let tenant = ctx.reqs[idx].tenant;
            if ctx.tenants[tenant].busy {
                ctx.tenants[tenant].deferred.push_back(idx);
            } else {
                self.spawn_request(hc, idx, due, rq)?;
            }
        }
    }

    /// Spawns the task for request `idx` (ready at `ready`, queued on
    /// host core `hc`) and marks its tenant busy.
    fn spawn_request(
        &mut self,
        hc: usize,
        idx: usize,
        ready: Picos,
        rq: &mut RunQueues,
    ) -> Result<(), RunError> {
        let (proto, arg, tenant) = {
            let ctx = self.serving.as_ref().ok_or(RunError::Protocol {
                side: Side::Host,
                context: "request spawn outside a serving run",
            })?;
            let req = ctx.reqs[idx];
            (ctx.tenants[req.tenant].proto, req.arg, req.tenant)
        };
        let pid = self.kernel.spawn_task(proto)?;
        // The request task migrates through its tenant's handler table
        // (same address space, same handler VAs).
        let vas = self.threads.get(&proto).map(|t| t.vas).ok_or(RunError::Protocol {
            side: Side::Host,
            context: "request spawned from a tenant with no handler table",
        })?;
        self.threads.insert(pid, ThreadState { vas, ..Default::default() });
        let task = self.kernel.task_mut(pid)?;
        // The request argument rides in A0: the tenant program's
        // `main` dispatches on it (request kind, key, …). Spawning
        // charges no simulated time — the model is a pre-forked worker
        // picking a request off its tenant's queue, not a fork.
        task.context.regs[abi::A0.index()] = arg;
        task.ready_at = ready;
        task.last_core = hc;
        if let Some(ctx) = self.serving.as_mut() {
            ctx.tenants[tenant].busy = true;
            ctx.live.insert(pid, idx);
        }
        rq.enqueue(hc, pid);
        Ok(())
    }

    /// Serving-mode request exit: record the completion, reap the
    /// task, and hand the tenant to its next deferred request (which
    /// becomes ready *now* — its queueing delay stays charged to its
    /// open-loop latency). Deliberately does none of [`Machine::finish`]'s
    /// fleet-wide work: no stats clone — a saturated run retires
    /// thousands of requests and takes its one snapshot at the end.
    fn finish_serving(
        &mut self,
        hc: usize,
        pid: u64,
        code: u64,
        rq: &mut RunQueues,
    ) -> Result<(), RunError> {
        self.threads.remove(&pid);
        let now = self.hosts[hc].clock().now();
        let ctx = self.serving.as_mut().ok_or(RunError::Protocol {
            side: Side::Host,
            context: "serving exit outside a serving run",
        })?;
        let idx = ctx.live.remove(&pid).ok_or(RunError::Protocol {
            side: Side::Host,
            context: "serving exit from a task with no live request",
        })?;
        let req = ctx.reqs[idx];
        ctx.completions.push(ServingCompletion {
            request: idx,
            tenant: req.tenant,
            arrival: req.arrival,
            finished: now,
            exit_code: code,
        });
        let next = {
            let t = &mut ctx.tenants[req.tenant];
            let n = t.deferred.pop_front();
            if n.is_none() {
                t.busy = false;
            }
            n
        };
        self.kernel.reap_task(pid)?;
        if let Some(nidx) = next {
            self.spawn_request(hc, nidx, now, rq)?;
        }
        Ok(())
    }

    /// The simulated-time half of the admission check
    /// ([`MachineBuilder::ring_occupancy_admission`]): true when
    /// `ring_capacity` kicked bursts on channel `nc` have pickup
    /// instants still in the doorbell write's future. Entries are
    /// pushed in NxP-clock order, so draining the due prefix keeps the
    /// queue exactly the not-yet-picked-up set.
    fn ring_sim_occupied(&mut self, nc: usize, now: Picos, cap: usize) -> bool {
        let Some(occ) = self.ring_occupancy.as_mut() else {
            return false;
        };
        let q = &mut occ[nc];
        while q.front().is_some_and(|&t| t <= now) {
            q.pop_front();
        }
        q.len() >= cap
    }

    /// Handles a host `ecall`.
    fn host_ecall(&mut self, hc: usize, pid: u64, service: u16) -> Result<EcallFlow, RunError> {
        let timing = self.kernel.timing().clone();
        self.hosts[hc].clock_mut().advance(timing.syscall_entry);
        match service {
            svc::EXIT => {
                return Ok(EcallFlow::Exit(self.hosts[hc].reg(abi::A0)));
            }
            svc::PRINT_U64 => {
                let v = self.hosts[hc].reg(abi::A0);
                self.kernel.console_push(format!("{v}"));
            }
            svc::PRINT_STR => {
                let ptr = VirtAddr(self.hosts[hc].reg(abi::A0));
                let len = self.hosts[hc].reg(abi::A1) as usize;
                let mut buf = vec![0u8; len.min(4096)];
                self.kernel
                    .read_user(&self.mem, pid, ptr, &mut buf)
                    .map_err(RunError::Load)?;
                self.kernel
                    .console_push(String::from_utf8_lossy(&buf).into_owned());
            }
            svc::ALLOC_HOST => {
                let size = self.hosts[hc].reg(abi::A0);
                let pages = size.div_ceil(flick_mem::PAGE_SIZE);
                let va = self
                    .kernel
                    .alloc_host_heap(&mut self.mem, pid, size)
                    .map_err(RunError::Load)?;
                self.hosts[hc].clock_mut().advance(timing.page_alloc * pages.max(1));
                self.hosts[hc].set_reg(abi::A0, va.as_u64());
            }
            svc::ALLOC_NXP => {
                let size = self.hosts[hc].reg(abi::A0);
                let va = self
                    .kernel
                    .alloc_nxp_heap(pid, size)
                    .map_err(RunError::Load)?;
                self.hosts[hc].set_reg(abi::A0, va.as_u64());
            }
            svc::CLOCK_NS => {
                let ns = self.hosts[hc].clock().now().as_nanos();
                self.hosts[hc].set_reg(abi::A0, ns);
            }
            svc::SLEEP_NS => {
                let ns = self.hosts[hc].reg(abi::A0);
                self.hosts[hc].clock_mut().advance(Picos::from_nanos(ns));
            }
            svc::ALLOC_NXP_STACK => {
                let sp = self
                    .kernel
                    .alloc_nxp_stack(&mut self.mem, pid)
                    .map_err(RunError::Load)?;
                self.hosts[hc].clock_mut().advance(timing.nxp_stack_setup);
                // Record it in the TCB word of the descriptor page so
                // the handler's first-time check passes next time.
                self.kernel
                    .write_user(
                        &mut self.mem,
                        pid,
                        VirtAddr(layout::DESC_PAGE_VA + L::TCB_NXP_SP),
                        &sp.as_u64().to_le_bytes(),
                    )
                    .map_err(RunError::Load)?;
                self.stats.bump("nxp_stack_allocs");
                // No register result: the handler must keep the original
                // call's argument registers intact for the descriptor.
            }
            svc::MIGRATE_AND_SUSPEND => {
                return self.migrate_send(hc, pid, DescKind::HostToNxpCall);
            }
            svc::MIGRATE_RETURN_AND_SUSPEND => {
                return self.migrate_send(hc, pid, DescKind::HostToNxpReturn);
            }
            other => {
                return Err(RunError::UnknownService {
                    side: Side::Host,
                    service: other,
                })
            }
        }
        self.hosts[hc].clock_mut().advance(timing.syscall_exit);
        Ok(EcallFlow::Continue)
    }

    /// The migrate-and-suspend `ioctl` (§IV-B1) plus the full NxP
    /// phase: builds and sends the descriptor (retransmitting, bounded,
    /// on injected burst faults), suspends the thread, runs the NxP
    /// side to completion of its leg, and returns how the thread
    /// expects to be woken. The host core is *free* from the moment the
    /// thread suspends — which is what lets other processes run in the
    /// gap (see [`Machine::run_concurrent`]).
    ///
    /// If the host→NxP *call* leg exhausts its delivery budget the call
    /// degrades gracefully: the thread is unwound out of the migration
    /// handler and re-pointed at the target function, which the
    /// host-side interpreter then executes ([`EcallFlow::Resume`]). A
    /// dead *return* leg is unrecoverable ([`RunError::LinkDead`]):
    /// re-running the remote call would double its side effects.
    fn migrate_send(&mut self, hc: usize, pid: u64, kind: DescKind) -> Result<EcallFlow, RunError> {
        let timing = self.kernel.timing().clone();
        self.refresh_fleet(hc);
        // ioctl: gather target/CR3/PID/args from task_struct + regs
        // (call) or just the return value (return).
        self.hosts[hc].clock_mut().advance(match kind {
            DescKind::HostToNxpCall => timing.ioctl_desc_prep_call,
            _ => timing.ioctl_desc_prep_return,
        });
        // Pick the serving NxP: a return leg follows the thread back to
        // the NxP holding its continuation; a fresh call goes where the
        // placement policy says.
        let nc = match kind {
            DescKind::HostToNxpReturn => {
                self.threads
                    .get(&pid)
                    .and_then(|t| t.continuations.last().copied())
                    .ok_or(RunError::Protocol {
                        side: Side::Host,
                        context: "return leg for a thread with no NxP continuation",
                    })?
            }
            _ => {
                // Placement sees only NxPs whose breaker admits work
                // (closed or half-open). With every device dead, fall
                // back to the full set and let the delivery loop
                // detect the failure and degrade gracefully.
                let want = self.call_target_isa(pid);
                let live: Vec<usize> = self.health.live().collect();
                let pool: Vec<usize> = if live.is_empty() {
                    (0..self.nxps.len()).collect()
                } else {
                    live
                };
                if pool.is_empty() {
                    return Err(RunError::Protocol {
                        side: Side::Host,
                        context: "placement over a machine with no NxPs",
                    });
                }
                // Narrow to the callee's ISA (read off the faulting
                // page's PTE tag). When every NxP of that ISA is
                // breaker-open, prefer a matching-but-unhealthy slot —
                // delivery failure degrades to host emulation, which
                // speaks any ISA — over a healthy slot that would
                // fault `NxViolation` at the first fetch and bounce
                // the call straight back. A fleet with no slot of the
                // wanted ISA at all keeps the generic pool.
                let of_isa: Vec<usize> = pool
                    .iter()
                    .copied()
                    .filter(|&k| self.nxp_isas[k] == want)
                    .collect();
                let pool: Vec<usize> = if !of_isa.is_empty() {
                    of_isa
                } else {
                    let all_of_isa: Vec<usize> = (0..self.nxps.len())
                        .filter(|&k| self.nxp_isas[k] == want)
                        .collect();
                    if all_of_isa.is_empty() {
                        pool
                    } else {
                        all_of_isa
                    }
                };
                let nc = match self.placement {
                    NxpPlacement::RoundRobin => {
                        let k = pool[self.rr_next % pool.len()];
                        self.rr_next = self.rr_next.wrapping_add(1);
                        k
                    }
                    NxpPlacement::LeastLoaded => pool
                        .iter()
                        .copied()
                        .min_by_key(|&k| (self.nxps[k].clock().now(), k))
                        .unwrap_or(pool[0]),
                };
                self.thread_mut(pid)?.continuations.push(nc);
                nc
            }
        };
        let seq = self.chans[nc].h2n;
        self.chans[nc].h2n += 1;
        // The span id is assigned unconditionally — it lives in the
        // descriptor's wire bytes, so it must not depend on whether
        // span *recording* is enabled (bit-inert observability).
        let span = self.next_span;
        self.next_span += 1;
        self.thread_mut(pid)?.span = Some(span);
        let desc = match kind {
            DescKind::HostToNxpCall => {
                let task = self.kernel.task_mut(pid)?;
                let Some(target) = task.fault_va.take() else {
                    return Err(RunError::Protocol {
                        side: Side::Host,
                        context: "migrate ioctl without a saved fault target",
                    });
                };
                MigrationDescriptor {
                    kind,
                    target: target.as_u64(),
                    ret: 0,
                    args: [
                        self.hosts[hc].reg(abi::A0),
                        self.hosts[hc].reg(abi::A1),
                        self.hosts[hc].reg(abi::A2),
                        self.hosts[hc].reg(abi::A3),
                        self.hosts[hc].reg(abi::A4),
                        self.hosts[hc].reg(abi::A5),
                    ],
                    pid,
                    cr3: self.kernel.task(pid)?.cr3.as_u64(),
                    nxp_sp: self.kernel.task(pid)?.nxp_stack_ptr.as_u64(),
                    seq,
                    span,
                }
            }
            DescKind::HostToNxpReturn => {
                // The handler stored the host function's return value
                // in the descriptor page.
                let mut ret = [0u8; 8];
                self.kernel
                    .read_user(
                        &self.mem,
                        pid,
                        VirtAddr(layout::DESC_PAGE_VA + L::RET),
                        &mut ret,
                    )
                    .map_err(RunError::Load)?;
                let t = self.kernel.task(pid)?;
                MigrationDescriptor {
                    kind,
                    target: 0,
                    ret: u64::from_le_bytes(ret),
                    args: [0; 6],
                    pid,
                    cr3: t.cr3.as_u64(),
                    nxp_sp: t.nxp_stack_ptr.as_u64(),
                    seq,
                    span,
                }
            }
            _ => {
                return Err(RunError::Protocol {
                    side: Side::Host,
                    context: "host only sends host-to-NxP descriptor kinds",
                })
            }
        };

        // Suspend (TASK_KILLABLE) and context switch away; the
        // scheduler triggers the DMA *after* the switch via the
        // migration flag (§IV-D).
        self.kernel.suspend_for_migration(pid, &self.hosts[hc])?;
        self.hosts[hc].clock_mut().advance(timing.suspend_and_switch);
        self.obs.begin(span, pid, kind.label());
        if let Some((at, core)) = self.thread_mut(pid)?.nx_fault.take() {
            self.obs.mark(span, SpanStage::NxFault, at, CoreId::host(core));
        }
        self.obs.mark(
            span,
            SpanStage::DescPack,
            self.hosts[hc].clock().now(),
            CoreId::host(hc),
        );
        self.trace.record_on(
            CoreId::host(hc),
            self.hosts[hc].clock().now(),
            Event::ThreadSuspended { pid },
        );
        self.trace.record_on(
            CoreId::host(hc),
            self.hosts[hc].clock().now(),
            Event::DescriptorSent {
                from: Side::Host,
                kind: kind.label(),
                bytes: L::SIZE as usize,
            },
        );
        match kind {
            DescKind::HostToNxpCall => self.stats.bump("migrations_host_to_nxp"),
            _ => self.stats.bump("returns_host_to_nxp"),
        }

        // Retain the h2n wire bytes host-side for as long as the round
        // trip is open: if the serving NxP dies before the reply lands,
        // this copy is what failover re-executes on a survivor.
        let mut nc = nc;
        let mut desc = desc;
        self.thread_mut(pid)?.sent_h2n = Some((nc, desc.to_bytes()));

        // Host→NxP delivery: kick the DMA, let the NxP scheduler pick
        // the burst up, and retransmit — bounded, with exponential
        // backoff — on a lost burst or a checksum NAK. A device-level
        // fault (crash, hang, unplug) exhausts the same budget —
        // detection latency *is* the retry cost — and then fails the
        // victim over to a surviving NxP.
        let mut attempt = 0u32;
        let (in_bytes, in_desc) = loop {
            attempt += 1;
            let now = self.hosts[hc].clock().now();
            // An unplugged card is detected instantly: presence detect
            // reads zero at the doorbell write, no retry budget burned.
            let unplugged =
                self.plan.device_state(nc, now) == Some(DeviceFaultKind::Unplug);
            if attempt > timing.retry.max_link_attempts || unplugged {
                if let Some(fault) = self.plan.device_state(nc, now) {
                    self.declare_nxp_dead(hc, nc, fault);
                    if let Some(next) = self.pick_failover_target(nc) {
                        self.stats.bump("failover_replacements");
                        self.trace.record_on(
                            CoreId::host(hc),
                            now,
                            Event::FailoverReplaced {
                                pid,
                                from_nxp: nc,
                                to_nxp: next,
                            },
                        );
                        nc = next;
                        desc.seq = self.chans[nc].h2n;
                        self.chans[nc].h2n += 1;
                        self.set_continuation_top(pid, nc, &desc)?;
                        attempt = 0;
                        continue;
                    }
                }
                // Pure link death, or the whole fleet is gone: degrade
                // a call to host-side emulation, fail a return leg.
                let thread = self.thread_mut(pid)?;
                thread.sent_h2n = None;
                return if kind == DescKind::HostToNxpCall {
                    thread.span = None;
                    self.obs.abandon(span);
                    self.degrade_unwind(hc, pid, &desc)?;
                    Ok(EcallFlow::Resume)
                } else {
                    Err(RunError::LinkDead {
                        pid,
                        stage: "host-to-nxp return",
                    })
                };
            }
            if attempt > 1 {
                self.stats.bump("retransmits");
                self.trace.record_on(
                    CoreId::host(hc),
                    self.hosts[hc].clock().now(),
                    Event::Retransmit {
                        to: Side::Nxp,
                        seq: desc.seq,
                        attempt,
                    },
                );
            }
            if attempt == 1 {
                self.obs.mark(span, SpanStage::DmaSubmit, now, CoreId::host(hc));
            }
            // Bounded admission: a ring already at capacity (a hung
            // device stops draining it — wall depth — or, with the
            // occupancy knob on, one whose slots are all awaiting
            // pickups in this doorbell write's simulated future)
            // rejects the kick at the doorbell — typed backpressure,
            // charged as one attempt of the same bounded budget (the
            // driver's EAGAIN path).
            if self.ring_sim_occupied(nc, now, timing.retry.ring_capacity)
                || self.fabric.channel(nc).depth_to_nxp() >= timing.retry.ring_capacity
            {
                self.stats.bump("admission_rejects");
                self.trace
                    .record_on(CoreId::host(hc), now, Event::AdmissionRejected { chan: nc });
                self.health.note_failure(nc);
                self.hosts[hc]
                    .clock_mut()
                    .advance(timing.retry.backoff_for(attempt));
                continue;
            }
            let (arrival, pert) =
                self.fabric
                    .kick_to_nxp_faulty(nc, now, desc.to_bytes(), &mut self.plan);
            if self.obs.enabled() {
                let depth = self.fabric.channel(nc).depth_to_nxp() as u64;
                self.obs_stats
                    .record_hist(&format!("qdepth:h2n:nxp{nc}"), depth);
            }
            self.note_burst_faults(CoreId::host(hc), Side::Nxp, now, &pert);
            if pert.dropped {
                // Posted write lost: the driver's completion timer
                // expires and it re-kicks after an exponential backoff.
                self.health.note_failure(nc);
                self.hosts[hc]
                    .clock_mut()
                    .advance(timing.retry.backoff_for(attempt));
                continue;
            }
            match self.nxp_pickup(nc, arrival, desc.seq) {
                Pickup::Accept(b, d) => break (b, d),
                Pickup::Corrupt => {
                    // The NxP NAKed: the NAK crosses the link and the
                    // host driver re-kicks.
                    self.health.note_failure(nc);
                    let t = self.nxps[nc].clock().now();
                    self.hosts[hc].clock_mut().sync_to(t);
                    self.hosts[hc].clock_mut().advance(timing.nak_path);
                }
                Pickup::Duplicate => {
                    // Defensive: a stale burst was discarded; re-kick
                    // after a backoff.
                    self.hosts[hc]
                        .clock_mut()
                        .advance(timing.retry.backoff_for(attempt));
                }
                Pickup::Dead => {
                    // A dead or hung scheduler never polls the status
                    // register: the host's completion timer expires
                    // exactly as for a lost burst and it re-kicks.
                    self.health.note_failure(nc);
                    self.hosts[hc]
                        .clock_mut()
                        .advance(timing.retry.backoff_for(attempt));
                }
            }
        };

        // Accepted: run the NxP leg until it sends a descriptor back,
        // then arm the watchdog from the *expected* wake time so a lost
        // wake-up interrupt is always noticed.
        let wake = self.nxp_leg(nc, pid, in_bytes, in_desc)?;
        let base = wake
            .msi_at
            .unwrap_or_else(|| self.nxps[nc].clock().now().max(self.hosts[hc].clock().now()));
        self.kernel.task_mut(pid)?.deadline = Some(base + timing.retry.migration_watchdog);
        Ok(EcallFlow::Suspended(wake))
    }

    /// Scans for dead NxPs whose scheduled outage has ended (presence
    /// detect came back): resets the channel protocol state for the new
    /// device incarnation — fresh sequence spaces, reaped rings, purged
    /// MSI vector — and half-opens the breaker so exactly one probe
    /// migration is routed there before full placement resumes.
    fn refresh_fleet(&mut self, hc: usize) {
        if !self.plan.has_device_events() {
            return;
        }
        let now = self.hosts[hc].clock().now();
        for nc in 0..self.nxps.len() {
            if self.health.is_open(nc) && self.plan.device_up(nc, now) {
                self.chans[nc] = ChannelSeqs {
                    incarnation: self.chans[nc].incarnation + 1,
                    ..ChannelSeqs::default()
                };
                self.fabric.reap_channel(nc);
                self.irq.purge_vector(nc as u32);
                self.health.rejoin(nc);
                self.stats.bump("nxp_rejoins");
                self.trace
                    .record_on(CoreId::host(hc), now, Event::NxpRejoined { nxp: nc });
            }
        }
    }

    /// Declares NxP `nc` dead and quiesces its channel: both ring
    /// directions are reaped and its MSI vector purged, so nothing sent
    /// by the dead incarnation can ever be claimed by a thread placed
    /// on a later one. Reaping loses no work — every open round trip
    /// retains its h2n descriptor host-side for re-execution. Idempotent.
    fn declare_nxp_dead(&mut self, hc: usize, nc: usize, fault: DeviceFaultKind) {
        if self.health.is_open(nc) {
            return;
        }
        let now = self.hosts[hc].clock().now();
        self.health.declare_dead(nc);
        self.stats.bump("nxp_deaths");
        self.trace.record_on(
            CoreId::host(hc),
            now,
            Event::DeviceFault {
                nxp: nc,
                kind: fault.label(),
            },
        );
        self.trace
            .record_on(CoreId::host(hc), now, Event::NxpDeclaredDead { nxp: nc });
        let reaped = self.fabric.reap_channel(nc);
        let purged = self.irq.purge_vector(nc as u32);
        self.stats.bump_by("descs_reaped", reaped as u64);
        self.stats.bump_by("msis_purged", purged as u64);
        self.trace.record_on(
            CoreId::host(hc),
            now,
            Event::DescriptorsReaped {
                nxp: nc,
                count: reaped as u64,
            },
        );
    }

    /// Deterministic failover placement: the surviving NxP whose clock
    /// is earliest (ties toward the lowest index) — a victim always
    /// re-places onto the least-loaded survivor, whatever the
    /// configured policy for fresh calls. Only same-ISA survivors
    /// qualify: a leg re-executed on a core of another ISA would fault
    /// at its first fetch instead of making progress.
    fn pick_failover_target(&self, dead: usize) -> Option<usize> {
        let isa = self.nxp_isas[dead];
        self.health
            .live()
            .filter(|&k| k != dead && self.nxp_isas[k] == isa)
            .min_by_key(|&k| (self.nxps[k].clock().now(), k))
    }

    /// The per-thread record of `pid`. Every task the machine runs has
    /// one from load or spawn until its serving exit.
    fn thread_mut(&mut self, pid: u64) -> Result<&mut ThreadState, RunError> {
        self.threads.get_mut(&pid).ok_or(RunError::Protocol {
            side: Side::Host,
            context: "host-side migration by a thread with no per-thread record",
        })
    }

    /// Moves `pid`'s open leg to NxP `nc` with the re-stamped `desc`:
    /// repoints the innermost continuation (delivery retries and
    /// failover re-executions move a leg between NxPs without changing
    /// nesting depth) and retains the new wire bytes.
    fn set_continuation_top(
        &mut self,
        pid: u64,
        nc: usize,
        desc: &MigrationDescriptor,
    ) -> Result<(), RunError> {
        let thread = self.thread_mut(pid)?;
        match thread.continuations.last_mut() {
            Some(top) => *top = nc,
            None => thread.continuations.push(nc),
        }
        thread.sent_h2n = Some((nc, desc.to_bytes()));
        Ok(())
    }

    /// Records trace events and counters for injected burst faults.
    fn note_burst_faults(&mut self, on: CoreId, to: Side, at: Picos, p: &BurstPerturbation) {
        if p.dropped {
            self.stats.bump("faults_injected");
            self.trace.record_on(
                on,
                at,
                Event::FaultInjected {
                    kind: "drop-burst",
                    to,
                },
            );
        }
        if p.corrupted.is_some() {
            self.stats.bump("faults_injected");
            self.trace.record_on(
                on,
                at,
                Event::FaultInjected {
                    kind: "corrupt-burst",
                    to,
                },
            );
        }
        if p.stall > Picos::ZERO {
            self.stats.bump("faults_injected");
            self.trace.record_on(
                on,
                at,
                Event::FaultInjected {
                    kind: "link-stall",
                    to,
                },
            );
        }
    }

    /// Raises an MSI through the fault plan; returns its arrival time,
    /// or `None` if the interrupt was swallowed in flight.
    fn raise_msi(&mut self, on: CoreId, msi: Msi, at: Picos) -> Option<Picos> {
        let due = msi.at;
        match self.irq.raise_with(msi, &mut self.plan) {
            MsiFate::Delivered => Some(due),
            MsiFate::Duplicated => {
                self.stats.bump("faults_injected");
                self.trace.record_on(
                    on,
                    at,
                    Event::FaultInjected {
                        kind: "dup-msi",
                        to: Side::Host,
                    },
                );
                Some(due)
            }
            MsiFate::Dropped => {
                self.stats.bump("faults_injected");
                self.trace.record_on(
                    on,
                    at,
                    Event::FaultInjected {
                        kind: "drop-msi",
                        to: Side::Host,
                    },
                );
                None
            }
        }
    }

    /// The interrupt-driven wakeup with recovery: wait for the MSI (or
    /// the watchdog deadline), validate the descriptor out of the host
    /// ring, NAK corruption, discard duplicates, demand retransmission
    /// after watchdog expiry, and finally copy the descriptor into the
    /// process page and mark the thread runnable.
    fn deliver_wakeup(&mut self, hc: usize, pid: u64, wake: PendingWake) -> Result<(), RunError> {
        let timing = self.kernel.timing().clone();
        let mut wake = wake;
        let mut expect_msi = wake.msi_at;
        let mut attempt = 1u32; // kicks of the current descriptor so far
        loop {
            let Some(deadline) = self.kernel.task(pid)?.deadline else {
                return Err(RunError::Protocol {
                    side: Side::Host,
                    context: "suspended thread without an armed watchdog",
                });
            };
            let accepted = match expect_msi.filter(|at| *at <= deadline) {
                Some(at) => {
                    self.hosts[hc].clock_mut().sync_to(at);
                    let now = self.hosts[hc].clock().now();
                    // Claim exactly the interrupt this wake raised (by
                    // its recorded arrival instant): several tenants
                    // can be suspended on one channel, and a due-time
                    // scan here would steal a neighbour's MSI.
                    let Some(msi) = self.irq.take_vector_at(at, wake.chan as u32) else {
                        if self.plan.has_device_events() {
                            // The vector was purged by a failover
                            // quiesce on this channel: fall back to the
                            // watchdog poll, which will notice the dead
                            // device and re-execute on a survivor.
                            expect_msi = None;
                            continue;
                        }
                        return Err(RunError::Protocol {
                            side: Side::Host,
                            context: "expected wake-up MSI was not queued",
                        });
                    };
                    if let Some(span) = self.threads.get(&pid).and_then(|t| t.span) {
                        self.obs
                            .mark(span, SpanStage::MsiDelivery, now, CoreId::host(hc));
                    }
                    self.hosts[hc].clock_mut().advance(timing.irq_entry);
                    let r = self.try_accept_host_desc(hc, wake.chan, pid, &timing)?;
                    // A duplicated MSI sits at the same instant; the
                    // kernel takes the extra interrupt, finds nothing
                    // to deliver, and returns.
                    while self.irq.take_vector_at(msi.at, wake.chan as u32).is_some() {
                        self.stats.bump("spurious_wakeups");
                        self.trace.record_on(
                            CoreId::host(hc),
                            self.hosts[hc].clock().now(),
                            Event::SpuriousWakeup { pid },
                        );
                        self.hosts[hc].clock_mut().advance(timing.irq_entry);
                    }
                    r
                }
                None => {
                    // No interrupt by the deadline: the watchdog fires
                    // and polls the descriptor ring directly.
                    self.hosts[hc].clock_mut().sync_to(deadline);
                    self.stats.bump("watchdog_fires");
                    self.trace.record_on(
                        CoreId::host(hc),
                        self.hosts[hc].clock().now(),
                        Event::WatchdogFired { pid },
                    );
                    self.hosts[hc].clock_mut().advance(timing.irq_entry);
                    let r = self.try_accept_host_desc(hc, wake.chan, pid, &timing)?;
                    if let HostAccept::Woken(seq) = r {
                        // The payload made it but its MSI did not.
                        self.stats.bump("msi_losses_recovered");
                        self.trace.record_on(
                            CoreId::host(hc),
                            self.hosts[hc].clock().now(),
                            Event::MsiLossRecovered { pid, seq },
                        );
                    }
                    r
                }
            };
            match accepted {
                HostAccept::Woken(_) => return Ok(()),
                HostAccept::Empty | HostAccept::Corrupt => {
                    // Lost or damaged burst: demand retransmission of
                    // the retained wire bytes and re-arm the watchdog.
                    attempt += 1;
                    // A crashed or unplugged device cannot answer the
                    // demand — its retained reply bytes died with it. A
                    // hung one still can (link up), so it only fails
                    // over once the retry budget exhausts.
                    let fault = self
                        .plan
                        .device_state(wake.chan, self.hosts[hc].clock().now());
                    let dead_now = matches!(
                        fault,
                        Some(DeviceFaultKind::Crash | DeviceFaultKind::Unplug)
                    );
                    // A wake stamped with an older channel incarnation
                    // outlived its device: the reply (and its retained
                    // retransmit copy) died with the old incarnation,
                    // so re-execute — the rejoined device reading
                    // healthy does not make the stale bytes deliverable.
                    let stale = self.chans[wake.chan].incarnation != wake.incarnation;
                    if dead_now
                        || stale
                        || (attempt > timing.retry.max_link_attempts && fault.is_some())
                    {
                        if let Some(f) = fault {
                            self.declare_nxp_dead(hc, wake.chan, f);
                        }
                        match self.failover_reexecute(hc, pid)? {
                            Some(new_wake) => {
                                wake = new_wake;
                                expect_msi = wake.msi_at;
                                attempt = 1;
                                let base = wake.msi_at.unwrap_or_else(|| {
                                    self.nxps[wake.chan]
                                        .clock()
                                        .now()
                                        .max(self.hosts[hc].clock().now())
                                });
                                self.kernel.task_mut(pid)?.deadline =
                                    Some(base + timing.retry.migration_watchdog);
                                continue;
                            }
                            None => {
                                return Err(RunError::LinkDead {
                                    pid,
                                    stage: "nxp-to-host",
                                })
                            }
                        }
                    }
                    if attempt > timing.retry.max_link_attempts {
                        return Err(RunError::LinkDead {
                            pid,
                            stage: "nxp-to-host",
                        });
                    }
                    let Some((chan, bytes)) =
                        self.threads.get(&pid).and_then(|t| t.sent_n2h.clone())
                    else {
                        return Err(RunError::Protocol {
                            side: Side::Host,
                            context: "no retained descriptor to retransmit",
                        });
                    };
                    let seq = MigrationDescriptor::from_bytes(&bytes).map_or(0, |d| d.seq);
                    self.stats.bump("retransmits");
                    let now = self.hosts[hc].clock().now();
                    self.trace.record_on(
                        CoreId::host(hc),
                        now,
                        Event::Retransmit {
                            to: Side::Host,
                            seq,
                            attempt,
                        },
                    );
                    let (_arrival, maybe_msi, pert) =
                        self.fabric
                            .kick_to_host_faulty(chan, now, bytes, &mut self.plan);
                    if self.obs.enabled() {
                        let depth = self.fabric.channel(chan).depth_to_host() as u64;
                        self.obs_stats
                            .record_hist(&format!("qdepth:n2h:nxp{chan}"), depth);
                    }
                    self.note_burst_faults(CoreId::host(hc), Side::Host, now, &pert);
                    expect_msi =
                        maybe_msi.and_then(|m| self.raise_msi(CoreId::host(hc), m, now));
                    self.kernel.task_mut(pid)?.deadline =
                        Some(self.hosts[hc].clock().now() + timing.retry.migration_watchdog);
                }
            }
        }
    }

    /// Re-executes `pid`'s retained host→NxP leg on a surviving NxP
    /// after its serving device died mid-round-trip. The NxP leg is a
    /// pure function of its descriptor plus the thread's checkpointed
    /// context — saved host-side at every NxP switch-out — so
    /// re-delivery is at-least-once semantics over an offload model
    /// with no device-resident side effects, not a correctness risk.
    /// Returns `Ok(None)` when no live NxP remains to take the work.
    fn failover_reexecute(
        &mut self,
        hc: usize,
        pid: u64,
    ) -> Result<Option<PendingWake>, RunError> {
        let timing = self.kernel.timing().clone();
        self.refresh_fleet(hc);
        let Some((dead, bytes)) = self.threads.get(&pid).and_then(|t| t.sent_h2n.clone()) else {
            return Err(RunError::Protocol {
                side: Side::Host,
                context: "no retained descriptor to re-execute",
            });
        };
        let Some(mut desc) = MigrationDescriptor::from_bytes(&bytes) else {
            return Err(RunError::Protocol {
                side: Side::Host,
                context: "retained host-to-nxp descriptor does not parse",
            });
        };
        'candidates: loop {
            let Some(nc) = self.pick_failover_target(dead) else {
                return Ok(None);
            };
            desc.seq = self.chans[nc].h2n;
            self.chans[nc].h2n += 1;
            self.set_continuation_top(pid, nc, &desc)?;
            self.stats.bump("failover_reexecutions");
            self.trace.record_on(
                CoreId::host(hc),
                self.hosts[hc].clock().now(),
                Event::FailoverReexecuted { pid, on_nxp: nc },
            );
            let mut attempt = 0u32;
            let (in_bytes, in_desc) = loop {
                attempt += 1;
                let now = self.hosts[hc].clock().now();
                let fault = self.plan.device_state(nc, now);
                if attempt > timing.retry.max_link_attempts
                    || fault == Some(DeviceFaultKind::Unplug)
                {
                    if let Some(f) = fault {
                        // The survivor died too: declare it and move on
                        // to the next candidate (the live set shrinks,
                        // so this terminates).
                        self.declare_nxp_dead(hc, nc, f);
                        continue 'candidates;
                    }
                    return Err(RunError::LinkDead {
                        pid,
                        stage: "nxp-to-host",
                    });
                }
                if attempt > 1 {
                    self.stats.bump("retransmits");
                    self.trace.record_on(
                        CoreId::host(hc),
                        now,
                        Event::Retransmit {
                            to: Side::Nxp,
                            seq: desc.seq,
                            attempt,
                        },
                    );
                }
                if self.ring_sim_occupied(nc, now, timing.retry.ring_capacity)
                    || self.fabric.channel(nc).depth_to_nxp() >= timing.retry.ring_capacity
                {
                    self.stats.bump("admission_rejects");
                    self.trace
                        .record_on(CoreId::host(hc), now, Event::AdmissionRejected { chan: nc });
                    self.health.note_failure(nc);
                    self.hosts[hc]
                        .clock_mut()
                        .advance(timing.retry.backoff_for(attempt));
                    continue;
                }
                let (arrival, pert) =
                    self.fabric
                        .kick_to_nxp_faulty(nc, now, desc.to_bytes(), &mut self.plan);
                self.note_burst_faults(CoreId::host(hc), Side::Nxp, now, &pert);
                if pert.dropped {
                    self.health.note_failure(nc);
                    self.hosts[hc]
                        .clock_mut()
                        .advance(timing.retry.backoff_for(attempt));
                    continue;
                }
                match self.nxp_pickup(nc, arrival, desc.seq) {
                    Pickup::Accept(b, d) => break (b, d),
                    Pickup::Corrupt => {
                        self.health.note_failure(nc);
                        let t = self.nxps[nc].clock().now();
                        self.hosts[hc].clock_mut().sync_to(t);
                        self.hosts[hc].clock_mut().advance(timing.nak_path);
                    }
                    Pickup::Duplicate | Pickup::Dead => {
                        self.health.note_failure(nc);
                        self.hosts[hc]
                            .clock_mut()
                            .advance(timing.retry.backoff_for(attempt));
                    }
                }
            };
            return self.nxp_leg(nc, pid, in_bytes, in_desc).map(Some);
        }
    }

    /// Drains the host descriptor ring: discards stale duplicates,
    /// NAKs corruption, and on a clean in-order descriptor copies it
    /// into the process page and wakes the thread.
    fn try_accept_host_desc(
        &mut self,
        hc: usize,
        chan: usize,
        pid: u64,
        timing: &OsTiming,
    ) -> Result<HostAccept, RunError> {
        loop {
            let now = self.hosts[hc].clock().now();
            // Several threads share the channel ring: take the first
            // due descriptor that concerns *this* wakeup — ours by
            // pid, a stale duplicate to drain, or a corrupt burst
            // (unattributable, so whoever looks first NAKs it).
            let seqs = &self.chans[chan];
            let Some(bytes) = self.fabric.take_host_desc_where(chan, now, |b| {
                match MigrationDescriptor::from_bytes_checked(b) {
                    Err(_) => true,
                    Ok(d) => seqs.host_has_accepted(d.seq) || d.pid == pid,
                }
            }) else {
                return Ok(HostAccept::Empty);
            };
            match MigrationDescriptor::from_bytes_checked(&bytes) {
                Err(_) => {
                    self.stats.bump("crc_rejects");
                    let seq = self
                        .threads
                        .get(&pid)
                        .and_then(|t| t.sent_n2h.as_ref())
                        .and_then(|(_, b)| MigrationDescriptor::from_bytes(b))
                        .map_or(0, |d| d.seq);
                    self.trace.record_on(
                        CoreId::host(hc),
                        now,
                        Event::CorruptDescriptor { to: Side::Host, seq },
                    );
                    self.trace
                        .record_on(CoreId::host(hc), now, Event::NakSent { from: Side::Host, seq });
                    self.hosts[hc].clock_mut().advance(timing.nak_path);
                    return Ok(HostAccept::Corrupt);
                }
                Ok(d) if self.chans[chan].host_has_accepted(d.seq) => {
                    self.stats.bump("duplicate_descs_dropped");
                    self.trace.record_on(
                        CoreId::host(hc),
                        now,
                        Event::DuplicateDescriptor {
                            to: Side::Host,
                            seq: d.seq,
                        },
                    );
                    // The ring may also hold the real descriptor.
                    continue;
                }
                Ok(d) => {
                    self.chans[chan].host_mark_accepted(d.seq);
                    self.trace.record_on(
                        CoreId::host(hc),
                        now,
                        Event::DescriptorReceived {
                            to: Side::Host,
                            kind: d.kind.label(),
                        },
                    );
                    // Kernel copies the descriptor into the process
                    // page, wakes the thread by PID, and schedules it.
                    self.hosts[hc].clock_mut().advance(timing.desc_copy);
                    self.kernel
                        .write_user(&mut self.mem, pid, VirtAddr(layout::DESC_PAGE_VA), &bytes)
                        .map_err(RunError::Load)?;
                    self.hosts[hc].clock_mut().advance(timing.wakeup_and_schedule);
                    if !self.kernel.try_wake_from_migration(pid)? {
                        return Err(RunError::Protocol {
                            side: Side::Host,
                            context: "woken thread was not in migration wait",
                        });
                    }
                    self.trace.record_on(
                        CoreId::host(hc),
                        self.hosts[hc].clock().now(),
                        Event::ThreadWoken { pid },
                    );
                    let thread = self.thread_mut(pid)?;
                    let span = thread.span.take();
                    thread.sent_n2h = None;
                    thread.sent_h2n = None;
                    if let Some(span) = span {
                        self.obs.mark(
                            span,
                            SpanStage::Woken,
                            self.hosts[hc].clock().now(),
                            CoreId::host(hc),
                        );
                        if let Some(s) = self.obs.finish(span) {
                            for (from, to) in s.segments() {
                                let key = format!(
                                    "seg:{}->{}",
                                    from.stage.label(),
                                    to.stage.label()
                                );
                                self.obs_stats
                                    .record_hist(&key, to.at.saturating_sub(from.at).as_picos());
                            }
                            self.obs_stats
                                .record_hist("span:total", s.total().as_picos());
                        }
                    }
                    self.health.note_activity(chan, now);
                    return Ok(HostAccept::Woken(d.seq));
                }
            }
        }
    }

    /// Graceful degradation: the link died while delivering a host→NxP
    /// *call*. Unwind the suspended thread out of the user-space
    /// migration handler frame (RA at `[sp+0]`, S0 at `[sp+8]`, 32-byte
    /// frame) and point it straight at the target function: the
    /// argument registers are restored from the descriptor and the
    /// restored RA returns to the original call site when the function
    /// returns. The thread is marked degraded, so its NX faults now run
    /// NxP text through the host-side interpreter instead of migrating.
    fn degrade_unwind(&mut self, hc: usize, pid: u64, desc: &MigrationDescriptor) -> Result<(), RunError> {
        self.stats.bump("migrations_degraded");
        self.trace.record_on(
            CoreId::host(hc),
            self.hosts[hc].clock().now(),
            Event::Degraded { pid },
        );
        let sp = self.kernel.task(pid)?.context.regs[abi::SP.index()];
        let mut ra = [0u8; 8];
        let mut s0 = [0u8; 8];
        self.kernel
            .read_user(&self.mem, pid, VirtAddr(sp), &mut ra)
            .map_err(RunError::Load)?;
        self.kernel
            .read_user(&self.mem, pid, VirtAddr(sp + 8), &mut s0)
            .map_err(RunError::Load)?;
        let task = self.kernel.task_mut(pid)?;
        task.degraded = true;
        task.deadline = None;
        task.context.regs[abi::RA.index()] = u64::from_le_bytes(ra);
        task.context.regs[abi::S0.index()] = u64::from_le_bytes(s0);
        task.context.regs[abi::SP.index()] = sp + 32;
        for (i, r) in [abi::A0, abi::A1, abi::A2, abi::A3, abi::A4, abi::A5]
            .into_iter()
            .enumerate()
        {
            task.context.regs[r.index()] = desc.args[i];
        }
        task.context.pc = VirtAddr(desc.target);
        if !self.kernel.try_wake_from_migration(pid)? {
            return Err(RunError::Protocol {
                side: Side::Host,
                context: "degraded thread was not in migration wait",
            });
        }
        Ok(())
    }

    /// Runs one segment of NxP text through the host-side interpreter
    /// core, from the faulting target until control returns to host
    /// text. Nested cross-ISA calls hand back and forth naturally: the
    /// interpreter faults `IsaMismatch` at host text and the native
    /// core faults `NxViolation` at NxP text.
    fn emulate_segment(&mut self, hc: usize, pid: u64, va: VirtAddr, fuel: u64) -> Result<(), RunError> {
        self.stats.bump("emulated_calls");
        self.trace.record_on(
            CoreId::host(hc),
            self.hosts[hc].clock().now(),
            Event::EmulatedSegment {
                pid,
                from_va: va.as_u64(),
            },
        );
        let host_cr3 = self.hosts[hc].cr3();
        let host_now = self.hosts[hc].clock().now();
        let mut ctx = self.hosts[hc].save_context();
        ctx.pc = va;
        // The guest ISA is whatever the faulting page is tagged with;
        // a cached emulator of another ISA retires (its instruction
        // count folds into `retired_emu_insts` so the `executed()`
        // invariant holds) and a fresh core of the right ISA takes its slot.
        let tag = flick_paging::walk(|a| self.mem.read_u64(a), host_cr3, va)
            .map(|t| t.isa_tag)
            .unwrap_or(0);
        let guest = isa_from_tag(tag, &self.nxp_isas);
        if self.emus[hc]
            .as_ref()
            .is_some_and(|e| e.config().isa != guest)
        {
            let old = self.emus[hc].take().expect("emulator checked present");
            self.retired_emu_insts += old.counters().instructions;
        }
        // The degraded-mode interpreter inherits the host's fast-path
        // setting so the differential tests cover it too.
        let fast_path = self.hosts[hc].config().fast_path;
        let emu = self.emus[hc].get_or_insert_with(|| {
            Core::new(CoreConfig {
                fast_path,
                ..CoreConfig::host_emulator_for(guest)
            })
        });
        emu.restore_context(&ctx);
        if emu.cr3() != host_cr3 {
            emu.set_cr3(host_cr3);
        }
        emu.clock_mut().sync_to(host_now);
        let mut left = fuel;
        loop {
            if left == 0 {
                return Err(RunError::FuelExhausted);
            }
            let emu = self.emus[hc].as_mut().ok_or(RunError::Protocol {
                side: Side::Host,
                context: "degraded thread without an emulation core",
            })?;
            let before = emu.counters().instructions;
            let stop = emu.run(&mut self.mem, &self.env, left);
            let ran = emu.counters().instructions - before;
            self.retired += ran;
            left = left.saturating_sub(ran);
            match stop {
                StopReason::Fault(Exception::InstFault {
                    va: back,
                    kind: InstFaultKind::IsaMismatch | InstFaultKind::NxViolation,
                }) => {
                    // Control reached text this emulator cannot speak —
                    // host text (`IsaMismatch`) or another
                    // accelerator's (`NxViolation`). Hand the context
                    // back to the native core; a cross-accelerator
                    // target re-faults there and re-enters emulation
                    // under the right guest ISA.
                    let mut ctx = emu.save_context();
                    ctx.pc = back;
                    let at = emu.clock().now();
                    self.hosts[hc].restore_context(&ctx);
                    self.hosts[hc].clock_mut().sync_to(at);
                    return Ok(());
                }
                StopReason::Ecall(s) if s == svc::ALLOC_NXP => {
                    let size = emu.reg(abi::A0);
                    let va = self
                        .kernel
                        .alloc_nxp_heap(pid, size)
                        .map_err(RunError::Load)?;
                    self.emus[hc]
                        .as_mut()
                        .ok_or(RunError::Protocol {
                            side: Side::Host,
                            context: "degraded thread without an emulation core",
                        })?
                        .set_reg(abi::A0, va.as_u64());
                }
                StopReason::Ecall(s) if s == svc::CLOCK_NS => {
                    let ns = emu.clock().now().as_nanos();
                    emu.set_reg(abi::A0, ns);
                }
                StopReason::Ecall(service) => {
                    return Err(RunError::UnknownService {
                        side: Side::Host,
                        service,
                    })
                }
                StopReason::Fault(exception) => {
                    return Err(RunError::Crash {
                        side: Side::Host,
                        exception,
                    })
                }
                StopReason::Halt => {
                    return Err(RunError::Crash {
                        side: Side::Host,
                        exception: Exception::InstFault {
                            va: emu.pc(),
                            kind: InstFaultKind::Illegal,
                        },
                    })
                }
                StopReason::OutOfFuel => return Err(RunError::FuelExhausted),
            }
        }
    }

    /// Installs a runnable task onto host core `hc` (context switch in).
    fn install_task(&mut self, hc: usize, pid: u64) -> Result<(), RunError> {
        let task = self.kernel.task_mut(pid)?;
        task.state = flick_os::TaskState::Running;
        let ctx = task.context.clone();
        let cr3 = task.cr3;
        self.hosts[hc].restore_context(&ctx);
        if self.hosts[hc].cr3() != cr3 {
            self.hosts[hc].set_cr3(cr3);
        }
        Ok(())
    }

    /// One NxP scheduler pickup of a host→NxP burst: poll the DMA
    /// status register, fetch the burst and validate its checksum and
    /// sequence number.
    fn nxp_pickup(&mut self, nc: usize, arrival: Picos, expect_seq: u64) -> Pickup {
        let nt = self.nxp_timing.clone();
        // The scheduler's poll loop observes the status register.
        let now = self.nxps[nc].clock().now().max(arrival);
        // A dead device never reaches its poll: the burst stays in the
        // ring and the device clock stays frozen. Checked before any
        // clock moves so failover replays bit-identically.
        if self.plan.device_state(nc, now).is_some() {
            return Pickup::Dead;
        }
        self.nxps[nc].clock_mut().sync_to(now + nt.poll_period);
        let Some(in_bytes) = self.fabric.poll_nxp(nc, self.nxps[nc].clock().now()) else {
            // Burst never queued — indistinguishable from a lost one.
            return Pickup::Corrupt;
        };
        match MigrationDescriptor::from_bytes_checked(&in_bytes) {
            Ok(d) if d.seq <= self.chans[nc].nxp_last => {
                self.stats.bump("duplicate_descs_dropped");
                self.trace.record_on(
                    CoreId::nxp(nc),
                    self.nxps[nc].clock().now(),
                    Event::DuplicateDescriptor {
                        to: Side::Nxp,
                        seq: d.seq,
                    },
                );
                Pickup::Duplicate
            }
            Ok(d) => {
                self.chans[nc].nxp_last = d.seq;
                self.trace.record_on(
                    CoreId::nxp(nc),
                    self.nxps[nc].clock().now(),
                    Event::DescriptorReceived {
                        to: Side::Nxp,
                        kind: d.kind.label(),
                    },
                );
                self.nxps[nc].clock_mut().advance(nt.dispatch);
                // Occupancy admission bookkeeping: this burst's ring
                // slot frees at the instant the scheduler picked it up.
                if let Some(occ) = self.ring_occupancy.as_mut() {
                    occ[nc].push_back(self.nxps[nc].clock().now());
                }
                // The wire bytes carry the span id, so the NxP side
                // attributes its mark without any host-side channel.
                self.obs.mark(
                    d.span,
                    SpanStage::NxpDispatch,
                    self.nxps[nc].clock().now(),
                    CoreId::nxp(nc),
                );
                // Sign of life: reset the failure streak; a pickup on a
                // half-open breaker is the probe succeeding.
                let was_probe = self.health.state(nc) == BreakerState::HalfOpen;
                self.health
                    .note_activity(nc, self.nxps[nc].clock().now());
                if was_probe {
                    self.stats.bump("nxp_probes_ok");
                    self.trace.record_on(
                        CoreId::nxp(nc),
                        self.nxps[nc].clock().now(),
                        Event::ProbeSucceeded { nxp: nc },
                    );
                }
                Pickup::Accept(in_bytes, d)
            }
            Err(_) => {
                // The link CRC caught in-flight corruption: NAK it.
                self.stats.bump("crc_rejects");
                self.trace.record_on(
                    CoreId::nxp(nc),
                    self.nxps[nc].clock().now(),
                    Event::CorruptDescriptor {
                        to: Side::Nxp,
                        seq: expect_seq,
                    },
                );
                self.trace.record_on(
                    CoreId::nxp(nc),
                    self.nxps[nc].clock().now(),
                    Event::NakSent {
                        from: Side::Nxp,
                        seq: expect_seq,
                    },
                );
                Pickup::Corrupt
            }
        }
    }

    /// Runs one NxP leg in place, inside the host `ecall` that sent its
    /// descriptor: the descriptor lands in the NxP buffer, the thread
    /// context-switches in and runs interpreted until it emits a
    /// descriptor toward the host (taking exec-fault redirects and
    /// runtime services on the way), and the device half of the send —
    /// sequence number, DMA kick, MSI — follows. Returns how the
    /// suspended host thread will be woken.
    fn nxp_leg(
        &mut self,
        nc: usize,
        pid: u64,
        in_bytes: Vec<u8>,
        desc: MigrationDescriptor,
    ) -> Result<PendingWake, RunError> {
        let nt = &self.nxp_timing;
        let nxp_stack_ptr = self.kernel.task(pid)?.nxp_stack_ptr.as_u64();
        let desc_phys = self.nxp_desc_phys();
        let on = CoreId::nxp(nc);
        let state = self.threads.get_mut(&pid).ok_or(RunError::Protocol {
            side: Side::Nxp,
            context: "descriptor for a process with no handler table",
        })?;
        // The leg runs on this slot's ISA: take that ISA's migration
        // handler pair. A program without functions of the slot's ISA
        // has no such handlers — any exec fault on the leg then fails
        // loudly instead of jumping through a wrong-ISA handler.
        let handlers = state.vas.accel_handlers(self.nxp_isas[nc]);
        let span = state.span.unwrap_or(0);
        let thread = &mut state.nxp;
        let core = &mut self.nxps[nc];

        // Land the descriptor in the NxP-local buffer the handler reads.
        self.mem.write_bytes(desc_phys, &in_bytes);

        // Context switch the thread in.
        core.clock_mut().advance(nt.context_switch);
        self.trace.record_on(
            on,
            core.clock().now(),
            Event::NxpContextSwitch { switch_in: true },
        );
        if core.cr3() != PhysAddr(desc.cr3) {
            core.set_cr3(PhysAddr(desc.cr3));
        }
        let leg_isa = core.config().isa;
        if desc.kind == DescKind::HostToNxpCall {
            if let Some(ctx) = thread.idle[leg_isa.tag() as usize].take() {
                // The thread is idle in this ISA's handler loop: resume
                // it; the loop re-reads the descriptor page.
                core.restore_context(&ctx);
            } else {
                // First call of this ISA: the host initialised the
                // stack; the thread starts inside the handler's while()
                // loop (§IV-B1). A nested call — outer accelerator
                // frames parked elsewhere — continues below the
                // innermost parked frame, so the per-thread stack slot
                // nests naturally.
                let (_, loop_va) = handlers.ok_or(RunError::Protocol {
                    side: Side::Nxp,
                    context: "descriptor for a process with no handler table",
                })?;
                let sp = thread
                    .parks
                    .last()
                    .map(|c| c.regs[abi::SP.index()])
                    .unwrap_or(desc.nxp_sp);
                let mut ctx = CpuContext {
                    pc: loop_va,
                    ..CpuContext::default()
                };
                ctx.regs[abi::SP.index()] = sp;
                ctx.regs[abi::S0.index()] = layout::NXP_DESC_VA;
                core.restore_context(&ctx);
            }
        } else {
            let ctx = thread.parks.pop().ok_or(RunError::Protocol {
                side: Side::Nxp,
                context: "return descriptor for a thread with no parked frame",
            })?;
            core.restore_context(&ctx);
        }

        // Run until the thread emits a descriptor toward the host.
        let mut out = loop {
            let before = core.counters().instructions;
            let stop = core.run(&mut self.mem, &self.env, u64::MAX / 2);
            self.retired += core.counters().instructions - before;
            match stop {
                StopReason::Ecall(s) if s == svc::NXP_MIGRATE_AND_SUSPEND => {
                    let fault_va = thread.fault_va.take().ok_or(RunError::Protocol {
                        side: Side::Nxp,
                        context: "NxP migrate without a saved fault target",
                    })?;
                    self.stats.bump("migrations_nxp_to_host");
                    break MigrationDescriptor {
                        kind: DescKind::NxpToHostCall,
                        target: fault_va.as_u64(),
                        ret: 0,
                        args: [
                            core.reg(abi::A0),
                            core.reg(abi::A1),
                            core.reg(abi::A2),
                            core.reg(abi::A3),
                            core.reg(abi::A4),
                            core.reg(abi::A5),
                        ],
                        pid,
                        cr3: core.cr3().as_u64(),
                        nxp_sp: nxp_stack_ptr,
                        seq: 0, // assigned with the send below
                        span,
                    };
                }
                StopReason::Ecall(s) if s == svc::NXP_RETURN_AND_SWITCH => {
                    self.stats.bump("returns_nxp_to_host");
                    break MigrationDescriptor {
                        kind: DescKind::NxpToHostReturn,
                        target: 0,
                        ret: self.mem.read_u64(PhysAddr(desc_phys.as_u64() + L::RET)),
                        args: [0; 6],
                        pid,
                        cr3: core.cr3().as_u64(),
                        nxp_sp: nxp_stack_ptr,
                        seq: 0, // assigned with the send below
                        span,
                    };
                }
                StopReason::Ecall(s) if s == svc::ALLOC_NXP => {
                    let base = self
                        .kernel
                        .alloc_nxp_heap(pid, core.reg(abi::A0))
                        .map_err(RunError::Load)?;
                    core.set_reg(abi::A0, base.as_u64());
                }
                StopReason::Ecall(s) if s == svc::CLOCK_NS => {
                    let ns = core.clock().now().as_nanos();
                    core.set_reg(abi::A0, ns);
                }
                StopReason::Fault(Exception::InstFault { va, kind })
                    if matches!(
                        kind,
                        InstFaultKind::IsaMismatch
                            | InstFaultKind::Misaligned
                            | InstFaultKind::NxViolation
                    ) =>
                {
                    // The NxP called a function it cannot execute —
                    // host text (`IsaMismatch`), or another
                    // accelerator's text (`NxViolation`: NX set but a
                    // foreign ISA tag). Either way control escalates
                    // through the NxP migration handler (§IV-B2); for a
                    // cross-accelerator call the host then re-faults at
                    // the same target and re-places it on an NxP of the
                    // right ISA.
                    self.stats.bump("nxp_exec_faults");
                    let event = match kind {
                        InstFaultKind::Misaligned => Event::MisalignedFetch {
                            fault_va: va.as_u64(),
                        },
                        _ => Event::NxFault {
                            side: Side::Nxp,
                            fault_va: va.as_u64(),
                        },
                    };
                    self.trace.record_on(on, core.clock().now(), event);
                    core.clock_mut().advance(nt.exception_entry);
                    thread.fault_va = Some(va);
                    let (handler, _) = handlers.ok_or(RunError::Protocol {
                        side: Side::Nxp,
                        context: "exec fault in a process with no handler table",
                    })?;
                    core.set_pc(handler);
                }
                StopReason::Ecall(service) => {
                    return Err(RunError::UnknownService {
                        side: Side::Nxp,
                        service,
                    })
                }
                StopReason::Fault(exception) => {
                    return Err(RunError::Crash {
                        side: Side::Nxp,
                        exception,
                    })
                }
                StopReason::Halt => {
                    return Err(RunError::Crash {
                        side: Side::Nxp,
                        exception: Exception::InstFault {
                            va: core.pc(),
                            kind: InstFaultKind::Illegal,
                        },
                    })
                }
                StopReason::OutOfFuel => return Err(RunError::FuelExhausted),
            }
        };

        // Device half of the send: save the thread, switch to the
        // scheduler, stamp and kick the outbound descriptor.
        core.clock_mut().advance(nt.desc_build);
        let ctx = core.save_context();
        match out.kind {
            // Escalated a call to the host: the frame parks
            // mid-function, awaiting its return descriptor.
            DescKind::NxpToHostCall => thread.parks.push(ctx),
            // Completed: the thread settles back into this ISA's
            // handler loop, ready for the next call descriptor.
            _ => thread.idle[leg_isa.tag() as usize] = Some(ctx),
        }
        core.clock_mut().advance(nt.context_switch);
        let now = core.clock().now();
        self.trace
            .record_on(on, now, Event::NxpContextSwitch { switch_in: false });
        out.seq = self.chans[nc].n2h;
        self.chans[nc].n2h += 1;
        let bytes = out.to_bytes();
        self.trace.record_on(
            on,
            now,
            Event::DescriptorSent {
                from: Side::Nxp,
                kind: out.kind.label(),
                bytes: bytes.len(),
            },
        );
        // A final return means the thread has left this NxP: pop its
        // innermost continuation. (An escalated call keeps the frame
        // parked here — the entry stays until that frame returns.)
        if out.kind == DescKind::NxpToHostReturn {
            state.continuations.pop();
        }
        state.sent_n2h = Some((nc, bytes.clone()));
        self.obs.mark(out.span, SpanStage::NxpSubmit, now, on);
        // A crashed or unplugged device cannot DMA its reply out — the
        // burst and its MSI die on the card. (A *hung* one still can:
        // the link is up, only the inbound poll loop stopped.) The
        // host-side watchdog notices the silence and fails over.
        let msi_at = if matches!(
            self.plan.device_state(nc, now),
            Some(DeviceFaultKind::Crash | DeviceFaultKind::Unplug)
        ) {
            None
        } else {
            let (_arrival, maybe_msi, pert) =
                self.fabric
                    .kick_to_host_faulty(nc, now, bytes, &mut self.plan);
            if self.obs.enabled() {
                let depth = self.fabric.channel(nc).depth_to_host() as u64;
                self.obs_stats
                    .record_hist(&format!("qdepth:n2h:nxp{nc}"), depth);
            }
            self.note_burst_faults(on, Side::Host, now, &pert);
            maybe_msi.and_then(|msi| self.raise_msi(on, msi, now))
        };
        Ok(PendingWake {
            msi_at,
            chan: nc,
            incarnation: self.chans[nc].incarnation,
        })
    }

    /// Physical address of the NxP-side descriptor buffer (the SRAM
    /// page behind `layout::NXP_DESC_VA`).
    fn nxp_desc_phys(&self) -> PhysAddr {
        self.env.map.nxp_sram_host_base() + (layout::NXP_DESC_VA - layout::NXP_STACK_VA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_isa::{FuncBuilder, MemSize, TargetIsa};
    use flick_toolchain::{DataDef, Placement};

    fn machine() -> Machine {
        Machine::paper_default()
    }

    /// Builds, loads and runs a program; returns (machine, outcome).
    fn run_program(build: impl FnOnce(&mut ProgramBuilder)) -> (Machine, Outcome) {
        let mut p = ProgramBuilder::new("test");
        build(&mut p);
        let mut m = machine();
        let pid = m.load_program(&mut p).unwrap();
        let outcome = m.run(pid).unwrap();
        (m, outcome)
    }

    #[test]
    fn null_cross_call_round_trip() {
        let (m, out) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.li(abi::A0, 40);
            main.li(abi::A1, 2);
            main.call("nxp_add");
            main.call("flick_exit");
            p.func(main.finish());
            let mut f = FuncBuilder::new("nxp_add", TargetIsa::Nxp);
            f.add(abi::A0, abi::A0, abi::A1);
            f.ret();
            p.func(f.finish());
        });
        assert_eq!(out.exit_code, 42);
        assert_eq!(out.stats.get("migrations_host_to_nxp"), 1);
        assert_eq!(out.stats.get("returns_nxp_to_host"), 1);
        assert_eq!(out.stats.get("nx_faults"), 1);
        assert_eq!(out.stats.get("nxp_stack_allocs"), 1);
        // One round trip should land in the Table III ballpark.
        assert!(out.sim_time > Picos::from_micros(8), "{}", out.sim_time);
        assert!(out.sim_time < Picos::from_micros(60), "{}", out.sim_time);
        assert!(m.trace().count(|e| matches!(e, Event::NxFault { .. })) == 1);
    }

    #[test]
    fn repeated_migrations_reuse_stack() {
        let (_, out) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            let lp = main.new_label();
            main.li(abi::S1, 10);
            main.li(abi::S2, 0);
            main.bind(lp);
            main.mv(abi::A0, abi::S2);
            main.call("nxp_inc");
            main.mv(abi::S2, abi::A0);
            main.addi(abi::S1, abi::S1, -1);
            main.bne(abi::S1, abi::ZERO, lp);
            main.mv(abi::A0, abi::S2);
            main.call("flick_exit");
            p.func(main.finish());
            let mut f = FuncBuilder::new("nxp_inc", TargetIsa::Nxp);
            f.addi(abi::A0, abi::A0, 1);
            f.ret();
            p.func(f.finish());
        });
        assert_eq!(out.exit_code, 10);
        assert_eq!(out.stats.get("migrations_host_to_nxp"), 10);
        assert_eq!(out.stats.get("nxp_stack_allocs"), 1, "stack allocated once");
    }

    #[test]
    fn nxp_calls_host_function() {
        // main -> nxp_work -> host_double(21) -> back -> +0 -> exit 42.
        let (_, out) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.li(abi::A0, 21);
            main.call("nxp_work");
            main.call("flick_exit");
            p.func(main.finish());

            let mut w = FuncBuilder::new("nxp_work", TargetIsa::Nxp);
            w.prologue(16, &[]);
            w.call("host_double");
            w.epilogue(16, &[]);
            p.func(w.finish());

            let mut h = FuncBuilder::new("host_double", TargetIsa::Host);
            h.add(abi::A0, abi::A0, abi::A0);
            h.ret();
            p.func(h.finish());
        });
        assert_eq!(out.exit_code, 42);
        assert_eq!(out.stats.get("migrations_host_to_nxp"), 1);
        assert_eq!(out.stats.get("migrations_nxp_to_host"), 1);
        assert_eq!(out.stats.get("returns_host_to_nxp"), 1);
        assert_eq!(out.stats.get("returns_nxp_to_host"), 1);
        assert_eq!(out.stats.get("nxp_exec_faults"), 1);
    }

    #[test]
    fn cross_isa_recursion() {
        // Mutual recursion across the ISA boundary:
        // host_fact(n) = n == 0 ? 1 : n * nxp_fact(n-1)
        // nxp_fact(n)  = n == 0 ? 1 : n * host_fact(n-1)
        let (_, out) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.li(abi::A0, 6);
            main.call("host_fact");
            main.call("flick_exit");
            p.func(main.finish());

            for (name, callee, target) in [
                ("host_fact", "nxp_fact", TargetIsa::Host),
                ("nxp_fact", "host_fact", TargetIsa::Nxp),
            ] {
                let mut f = FuncBuilder::new(name, target);
                let base = f.new_label();
                f.prologue(32, &[abi::S1]);
                f.beq(abi::A0, abi::ZERO, base);
                f.mv(abi::S1, abi::A0);
                f.addi(abi::A0, abi::A0, -1);
                f.call(callee);
                f.mul(abi::A0, abi::A0, abi::S1);
                f.epilogue(32, &[abi::S1]);
                f.bind(base);
                f.li(abi::A0, 1);
                f.epilogue(32, &[abi::S1]);
                p.func(f.finish());
            }
        });
        assert_eq!(out.exit_code, 720);
        // 6 levels: nxp_fact called for n = 5, 3, 1 → 3 host→NxP calls.
        assert_eq!(out.stats.get("migrations_host_to_nxp"), 3);
        assert_eq!(out.stats.get("migrations_nxp_to_host"), 3); // n = 4, 2, 0
    }

    #[test]
    fn function_pointer_crosses_isa() {
        let (_, out) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.li_sym(abi::T3, "nxp_seven");
            main.call_reg(abi::T3);
            main.call("flick_exit");
            p.func(main.finish());
            let mut f = FuncBuilder::new("nxp_seven", TargetIsa::Nxp);
            f.li(abi::A0, 7);
            f.ret();
            p.func(f.finish());
        });
        assert_eq!(out.exit_code, 7);
        assert_eq!(out.stats.get("migrations_host_to_nxp"), 1);
    }

    #[test]
    fn nxp_reads_nxp_dram_data() {
        let (_, out) = run_program(|p| {
            p.data(
                DataDef::new("nxp_table", 99u64.to_le_bytes().to_vec())
                    .placed(Placement::NxpDram),
            );
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.call("nxp_read");
            main.call("flick_exit");
            p.func(main.finish());
            let mut f = FuncBuilder::new("nxp_read", TargetIsa::Nxp);
            f.li_sym(abi::T0, "nxp_table");
            f.ld(abi::A0, abi::T0, 0, MemSize::B8);
            f.ret();
            p.func(f.finish());
        });
        assert_eq!(out.exit_code, 99);
    }

    #[test]
    fn console_output_collected() {
        let (_, out) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.li(abi::A0, 123);
            main.call("flick_print_u64");
            main.li(abi::A0, 0);
            main.call("flick_exit");
            p.func(main.finish());
        });
        assert_eq!(out.console, vec!["123".to_string()]);
    }

    #[test]
    fn trace_sequences_migration_events() {
        let (m, _) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.call("nxp_nop");
            main.call("flick_exit");
            p.func(main.finish());
            let mut f = FuncBuilder::new("nxp_nop", TargetIsa::Nxp);
            f.ret();
            p.func(f.finish());
        });
        let kinds: Vec<&str> = m
            .trace()
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                Event::NxFault { .. } => Some("fault"),
                Event::ThreadSuspended { .. } => Some("suspend"),
                Event::DescriptorSent { from: Side::Host, .. } => Some("h-send"),
                Event::DescriptorReceived { to: Side::Nxp, .. } => Some("n-recv"),
                Event::DescriptorSent { from: Side::Nxp, .. } => Some("n-send"),
                Event::DescriptorReceived { to: Side::Host, .. } => Some("h-recv"),
                Event::ThreadWoken { .. } => Some("wake"),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "fault", "suspend", "h-send", "n-recv", "n-send", "h-recv", "wake"
            ]
        );
        // Timestamps are monotone across the whole sequence.
        let times: Vec<Picos> = m.trace().events().iter().map(|(t, _)| *t).collect();
        for w in times.windows(2) {
            assert!(w[0] <= w[1], "trace time went backwards");
        }
    }

    #[test]
    fn host_crash_reports_side_and_pc() {
        let mut p = ProgramBuilder::new("crash");
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.li(abi::A1, 0x1234_5678_0000u64 as i64); // unmapped
        main.ld(abi::A0, abi::A1, 0, MemSize::B8);
        main.call("flick_exit");
        p.func(main.finish());
        let mut m = machine();
        let pid = m.load_program(&mut p).unwrap();
        match m.run(pid) {
            Err(RunError::Crash { side: Side::Host, exception }) => {
                assert!(matches!(exception, Exception::DataFault { .. }));
            }
            other => panic!("expected crash, got {other:?}"),
        }
    }

    #[test]
    fn image_without_runtime_rejected() {
        let mut p = ProgramBuilder::new("bare");
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.halt();
        p.func(main.finish());
        let image = p.build().unwrap();
        let mut m = machine();
        assert!(matches!(m.load(&image), Err(RunError::Build(_))));
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let mut p = ProgramBuilder::new("spin");
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        let lp = main.new_label();
        main.bind(lp);
        main.jmp(lp);
        p.func(main.finish());
        let mut m = machine();
        let pid = m.load_program(&mut p).unwrap();
        assert!(matches!(
            m.run_with_fuel(pid, 10_000),
            Err(RunError::FuelExhausted)
        ));
    }

    #[test]
    fn two_processes_run_sequentially() {
        let build = |p: &mut ProgramBuilder, v: i64| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.li(abi::A0, v);
            main.call("nxp_id");
            main.call("flick_exit");
            p.func(main.finish());
            let mut f = FuncBuilder::new("nxp_id", TargetIsa::Nxp);
            f.ret();
            p.func(f.finish());
        };
        let mut m = machine();
        let mut p1 = ProgramBuilder::new("p1");
        build(&mut p1, 11);
        let mut p2 = ProgramBuilder::new("p2");
        build(&mut p2, 22);
        let pid1 = m.load_program(&mut p1).unwrap();
        let pid2 = m.load_program(&mut p2).unwrap();
        assert_eq!(m.run(pid1).unwrap().exit_code, 11);
        assert_eq!(m.run(pid2).unwrap().exit_code, 22);
    }

    /// A process that calls an NxP spin function `calls` times; each
    /// call keeps the NxP busy for a while, leaving the host core idle
    /// in single-process mode.
    fn migration_loop_program(calls: i64, spin: i64, tag: i64) -> ProgramBuilder {
        let mut p = ProgramBuilder::new("loop");
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        let lp = main.new_label();
        main.li(abi::S1, calls);
        main.li(abi::S2, 0);
        main.bind(lp);
        main.li(abi::A0, spin);
        main.call("nxp_spin");
        main.add(abi::S2, abi::S2, abi::A0);
        main.addi(abi::S1, abi::S1, -1);
        main.bne(abi::S1, abi::ZERO, lp);
        main.li(abi::T0, tag);
        main.add(abi::A0, abi::S2, abi::T0);
        main.call("flick_exit");
        p.func(main.finish());
        let mut f = FuncBuilder::new("nxp_spin", TargetIsa::Nxp);
        let sl = f.new_label();
        let done = f.new_label();
        f.li(abi::T0, 0);
        f.bind(sl);
        f.bge(abi::T0, abi::A0, done);
        f.addi(abi::T0, abi::T0, 1);
        f.jmp(sl);
        f.bind(done);
        f.mv(abi::A0, abi::T0);
        f.ret();
        p.func(f.finish());
        p
    }

    #[test]
    fn concurrent_matches_single_process_semantics() {
        let mut m1 = machine();
        let mut p = migration_loop_program(5, 100, 7);
        let pid = m1.load_program(&mut p).unwrap();
        let serial = m1.run(pid).unwrap();

        let mut m2 = machine();
        let mut p = migration_loop_program(5, 100, 7);
        let pid = m2.load_program(&mut p).unwrap();
        let conc = m2.run_concurrent(&[pid], u64::MAX / 2).unwrap();
        assert_eq!(conc.len(), 1);
        assert_eq!(conc[0].1.exit_code, serial.exit_code);
        // Identical machinery → identical simulated time.
        assert_eq!(conc[0].1.sim_time, serial.sim_time);
    }

    #[test]
    fn concurrent_processes_overlap_host_and_nxp_time() {
        // Serial: run the two processes one after the other.
        let mut serial_m = machine();
        let mut p1 = migration_loop_program(8, 2_000, 1);
        let mut p2 = migration_loop_program(8, 2_000, 2);
        let a = serial_m.load_program(&mut p1).unwrap();
        let b = serial_m.load_program(&mut p2).unwrap();
        serial_m.run(a).unwrap();
        serial_m.run(b).unwrap();
        let serial_total = serial_m.host_now();

        // Concurrent: while one thread is on the NxP, the other runs.
        let mut conc_m = machine();
        let mut p1 = migration_loop_program(8, 2_000, 1);
        let mut p2 = migration_loop_program(8, 2_000, 2);
        let a = conc_m.load_program(&mut p1).unwrap();
        let b = conc_m.load_program(&mut p2).unwrap();
        let done = conc_m.run_concurrent(&[a, b], u64::MAX / 2).unwrap();
        let conc_total = conc_m.host_now();

        let codes: std::collections::HashMap<u64, u64> =
            done.iter().map(|(pid, o)| (*pid, o.exit_code)).collect();
        assert_eq!(codes[&a], 8 * 2_000 + 1);
        assert_eq!(codes[&b], 8 * 2_000 + 2);
        assert!(
            conc_total.as_nanos_f64() < serial_total.as_nanos_f64() * 0.9,
            "overlap expected: concurrent {conc_total} vs serial {serial_total}"
        );
    }

    #[test]
    fn three_processes_all_complete() {
        let mut m = machine();
        let mut pids = Vec::new();
        for tag in 0..3i64 {
            let mut p = migration_loop_program(3, 50, tag * 1000);
            pids.push(m.load_program(&mut p).unwrap());
        }
        let done = m.run_concurrent(&pids, u64::MAX / 2).unwrap();
        assert_eq!(done.len(), 3);
        for (pid, out) in &done {
            let idx = pids.iter().position(|p| p == pid).unwrap() as u64;
            assert_eq!(out.exit_code, 3 * 50 + idx * 1000);
        }
    }

    #[test]
    fn concurrent_fuel_exhaustion() {
        let mut m = machine();
        let mut p = migration_loop_program(1000, 1000, 0);
        let pid = m.load_program(&mut p).unwrap();
        assert!(matches!(
            m.run_concurrent(&[pid], 5_000),
            Err(RunError::FuelExhausted)
        ));
    }

    #[test]
    fn two_nxps_round_robin_uses_both() {
        use crate::topology::Topology;
        let mut m = Machine::builder().topology(Topology::new(1, 2)).build();
        let mut pids = Vec::new();
        for tag in 0..2i64 {
            let mut p = migration_loop_program(2, 100, tag * 1000);
            pids.push(m.load_program(&mut p).unwrap());
        }
        let done = m.run_concurrent(&pids, u64::MAX / 2).unwrap();
        assert_eq!(done.len(), 2);
        for (core, stats) in m.per_core_stats() {
            if core.side == Side::Nxp {
                assert!(stats.get("instructions") > 0, "{core} starved");
            }
        }
    }

    #[test]
    fn least_loaded_prefers_idle_nxp() {
        use crate::topology::{NxpPlacement, Topology};
        // One long call occupies NxP 0; the next call must land on the
        // idle NxP 1 because its clock is furthest behind.
        let mut m = Machine::builder()
            .topology(Topology::new(1, 2))
            .nxp_placement(NxpPlacement::LeastLoaded)
            .build();
        let mut p = migration_loop_program(2, 5_000, 0);
        let pid = m.load_program(&mut p).unwrap();
        m.run(pid).unwrap();
        let nxp_insts: Vec<u64> = m
            .per_core_stats()
            .into_iter()
            .filter(|(c, _)| c.side == Side::Nxp)
            .map(|(_, s)| s.get("instructions"))
            .collect();
        assert_eq!(nxp_insts.len(), 2);
        assert!(
            nxp_insts.iter().all(|&i| i > 0),
            "least-loaded alternates between the NxPs: {nxp_insts:?}"
        );
    }

    #[test]
    fn outcome_merges_core_stats() {
        let (_, out) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.call("nxp_three");
            main.call("flick_exit");
            p.func(main.finish());
            let mut f = FuncBuilder::new("nxp_three", TargetIsa::Nxp);
            f.li(abi::A0, 3);
            f.ret();
            p.func(f.finish());
        });
        assert!(out.stats.get("instructions") > 0, "host instructions");
        assert!(out.stats.get("nxp_instructions") > 0, "nxp instructions");
        assert!(out.stats.get("nxp_itlb_misses") > 0);
    }

    /// A finished serving request leaves nothing behind: after a run
    /// whose every request migrated, the per-thread table holds only
    /// the tenant prototypes it started with.
    #[test]
    fn serving_exit_drops_each_request_record() {
        let mut m = machine();
        let tenants: Vec<u64> = (0..2)
            .map(|_| m.load_program(&mut migration_loop_program(1, 10, 5)).unwrap())
            .collect();
        let requests: Vec<ServingRequest> = (0..24u64)
            .map(|i| ServingRequest {
                tenant: (i % 2) as usize,
                arrival: Picos::from_micros(20 * i),
                arg: i,
            })
            .collect();
        let report = m
            .run_serving(&tenants, &requests, u64::MAX / 2, QUANTUM)
            .unwrap();
        assert_eq!(report.completions.len(), 24);
        assert!(report.completions.iter().all(|c| c.exit_code == 15));
        assert_eq!(report.stats.get("migrations_host_to_nxp"), 24);
        let mut left: Vec<u64> = m.threads.keys().copied().collect();
        left.sort_unstable();
        assert_eq!(left, tenants);
    }
}
