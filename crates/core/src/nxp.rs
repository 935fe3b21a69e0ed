//! The NxP runtime: timing of the scheduler paths and the per-thread
//! state the scheduler saves.
//!
//! On the prototype the NxP has no operating system — just a scheduler
//! that polls the DMA status register, context-switches threads in when
//! descriptors arrive, and services the migration handler's runtime
//! calls (§IV-B). The scheduler's *policy* is implemented natively here
//! with explicit cycle costs; the migration handler itself runs as
//! interpreted FIR on the NxP core.

use flick_cpu::CpuContext;
use flick_mem::VirtAddr;
use flick_sim::Picos;

/// Timing of the NxP runtime paths (charged on the NxP clock).
#[derive(Clone, Debug)]
pub struct NxpTiming {
    /// Poll-loop granularity: worst-case delay between a descriptor
    /// landing and the scheduler's status-register read observing it.
    pub poll_period: Picos,
    /// Parsing a descriptor and locating the thread (scheduler code).
    pub dispatch: Picos,
    /// Saving/restoring the 32-register context (§IV-B1's context
    /// switch on the NxP).
    pub context_switch: Picos,
    /// Exception entry for the exec-fault redirect into the migration
    /// handler.
    pub exception_entry: Picos,
    /// Building an outgoing descriptor and programming the DMA engine.
    pub desc_build: Picos,
}

impl NxpTiming {
    /// Costs for the 200 MHz soft core (counted in its 5 ns cycles).
    pub fn paper_default() -> Self {
        NxpTiming {
            poll_period: Picos::from_nanos(60),       // ~12-cycle poll loop
            dispatch: Picos::from_nanos(300),         // ~60 cycles
            context_switch: Picos::from_nanos(500),   // ~100 cycles
            exception_entry: Picos::from_nanos(250),  // ~50 cycles
            desc_build: Picos::from_nanos(400),       // ~80 cycles
        }
    }
}

impl NxpTiming {
    /// Scales the 200 MHz soft-core costs to a different NxP clock —
    /// the paper's "we anticipate that the overhead of Flick can be
    /// further reduced when using hardened cores" (§V-A). The runtime
    /// paths are cycle-counted, so they shrink linearly with frequency.
    pub fn at_freq(freq: flick_sim::Hertz) -> Self {
        let base = NxpTiming::paper_default();
        let scale = |p: Picos| Picos((p.as_picos() as u128 * 200_000_000 / freq.0 as u128) as u64);
        NxpTiming {
            poll_period: scale(base.poll_period),
            dispatch: scale(base.dispatch),
            context_switch: scale(base.context_switch),
            exception_entry: scale(base.exception_entry),
            desc_build: scale(base.desc_build),
        }
    }
}

impl Default for NxpTiming {
    fn default() -> Self {
        NxpTiming::paper_default()
    }
}

/// Per-thread NxP state held by the scheduler; the machine keeps it in
/// the thread's one record, next to the host driver's state.
///
/// A thread may hold accelerator frames on several cores at once — an
/// rv64 function that calls an arm64 function parks its rv64 frame,
/// bounces through the host, and opens a fresh arm64 frame — so the
/// saved state is a *stack* of mid-frame parks plus one idle
/// handler-loop checkpoint per accelerator ISA.
#[derive(Clone, Debug, Default)]
pub(crate) struct NxpThread {
    /// Mid-frame parks, innermost last: one per accelerator frame that
    /// escalated a call to the host and awaits its return descriptor.
    pub parks: Vec<CpuContext>,
    /// Idle handler-loop checkpoints by ISA tag: where the thread sits
    /// between calls of that ISA (the §IV-B1 `while()` loop).
    pub idle: [Option<CpuContext>; flick_isa::IsaId::COUNT],
    /// Fault target saved by the exec-fault redirect, consumed by
    /// `NXP_MIGRATE_AND_SUSPEND` (the runtime's analogue of the
    /// kernel-side `task_struct.fault_va`).
    pub fault_va: Option<VirtAddr>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_freq_scales_linearly() {
        let fast = NxpTiming::at_freq(flick_sim::Hertz::mhz(1000));
        let base = NxpTiming::paper_default();
        assert_eq!(fast.dispatch * 5, base.dispatch);
        assert_eq!(fast.context_switch * 5, base.context_switch);
        // 200 MHz is the identity.
        let same = NxpTiming::at_freq(flick_sim::Hertz::mhz(200));
        assert_eq!(same.dispatch, base.dispatch);
    }

    #[test]
    fn timing_is_cycle_scaled() {
        let t = NxpTiming::paper_default();
        // All paths are multiples of the 5 ns cycle.
        for v in [
            t.poll_period,
            t.dispatch,
            t.context_switch,
            t.exception_entry,
            t.desc_build,
        ] {
            assert_eq!(v.as_picos() % 5_000, 0);
        }
    }
}
