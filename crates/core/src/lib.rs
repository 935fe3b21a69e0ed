#![warn(missing_docs)]
//! # Flick: Fast and Lightweight ISA-Crossing Call
//!
//! This crate is the reproduction's core: the migration mechanism of
//! *Flick: Fast and Lightweight ISA-Crossing Call for Heterogeneous-ISA
//! Environments* (ISCA 2020), assembled on top of the simulated
//! platform crates (`flick-cpu`, `flick-os`, `flick-pcie`,
//! `flick-paging`, `flick-mem`).
//!
//! The pieces map one-to-one onto the paper:
//!
//! * [`descriptor`] — the migration **call/return descriptors** DMA'd
//!   across PCIe as single bursts (§IV-B).
//! * [`handlers`] — the **user-space migration handlers** of Listings 1
//!   and 2, written in FIR and linked into every application by
//!   [`handlers::add_runtime`], plus the small runtime library
//!   (`malloc_host`, `malloc_nxp`, …) whose per-ISA variants model the
//!   linker-relocated allocators of §III-D.
//! * [`services`] — the `ecall` interface between user FIR code, the
//!   kernel (`ioctl` migrate-and-suspend) and the NxP runtime.
//! * [`nxp`] — the **NxP scheduler/runtime**: polls the DMA status
//!   register, context-switches threads in and out, redirects
//!   exec-faults into the NxP migration handler.
//! * [`machine`] — the [`Machine`]: host cores + NxP cores + DMA +
//!   interrupt controller + kernel, with the full event loop for NX
//!   page-fault-triggered bidirectional thread migration.
//! * [`topology`] — N host cores × M NxPs ([`Topology`]) and the
//!   [`NxpPlacement`] policy that spreads concurrent in-flight calls
//!   across the NxPs.
//! * [`health`] — per-NxP liveness tracking and the failover circuit
//!   breaker ([`HealthMonitor`]) that routes work away from dead
//!   devices and probes rejoining ones.
//!
//! # Quickstart
//!
//! ```
//! use flick::Machine;
//! use flick_isa::{abi, FuncBuilder, TargetIsa};
//! use flick_toolchain::ProgramBuilder;
//!
//! // main() { return nxp_add(40, 2); }  — nxp_add runs on the NxP.
//! let mut p = ProgramBuilder::new("quick");
//! let mut main = FuncBuilder::new("main", TargetIsa::Host);
//! main.li(abi::A0, 40);
//! main.li(abi::A1, 2);
//! main.call("nxp_add");
//! main.call("flick_exit");
//! p.func(main.finish());
//! let mut add = FuncBuilder::new("nxp_add", TargetIsa::Nxp);
//! add.add(abi::A0, abi::A0, abi::A1);
//! add.ret();
//! p.func(add.finish());
//!
//! let mut machine = Machine::paper_default();
//! let pid = machine.load_program(&mut p)?;
//! let outcome = machine.run(pid)?;
//! assert_eq!(outcome.exit_code, 42);
//! assert_eq!(outcome.stats.get("migrations_host_to_nxp"), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod descriptor;
pub mod handlers;
pub mod health;
pub mod machine;
pub mod nxp;
pub mod services;
pub mod serving;
pub mod stdlib;
pub mod timeline;
pub mod topology;

pub use descriptor::{DescError, DescKind, MigrationDescriptor};
pub use health::{BreakerState, HealthMonitor, NxpHealth};
pub use machine::{best_fit_accel_isa, Machine, MachineBuilder, Outcome, RunError};
pub use nxp::NxpTiming;
pub use serving::{ServingCompletion, ServingReport, ServingRequest};
pub use topology::{NxpPlacement, Topology};

// Observability building blocks re-exported for timeline/export users.
pub use flick_sim::{chrome_trace, chrome_trace_named, validate_json, Histogram, Span, SpanMark, SpanStage};
