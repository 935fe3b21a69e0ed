#![warn(missing_docs)]
//! The simulated operating system: tasks, the kernel, the multi-ISA
//! loader, and the timing of kernel paths.
//!
//! The paper's headline software claim is that Flick needs **fewer than
//! 2 kLoC of changes** to stock Linux (§V, Table II discussion). This
//! crate models the *stock* parts — task management, scheduling
//! primitives, page-fault plumbing, the ELF loader — and exposes the
//! small hooks Flick's runtime (the `flick` crate) attaches to:
//!
//! * the page-fault handler's **return-address hijack** that redirects
//!   an NX instruction fault into the user-space migration handler
//!   ([`Kernel::redirect_to_handler`], §IV-B1);
//! * the `ioctl` path that gathers descriptor fields from the
//!   `task_struct` and suspends the thread ([`TaskStruct`] carries
//!   `fault_va`, `nxp_stack_ptr` and the **migration flag** used to
//!   trigger the DMA only *after* the context switch, §IV-D);
//! * the extended-`mprotect` loader that marks `.text.riscv` pages NX
//!   ([`Kernel::create_process`], §IV-C3).
//!
//! # Examples
//!
//! ```
//! use flick_os::Kernel;
//! use flick_mem::PhysMem;
//!
//! let mut mem = PhysMem::new();
//! let mut kernel = Kernel::new(&mut mem);
//! assert_eq!(kernel.tasks().count(), 0);
//! ```

pub mod kernel;
pub mod sched;
pub mod task;
pub mod timing;

pub use kernel::{Kernel, KernelConfig, KernelError, LoadError};
pub use sched::RunQueues;
pub use task::{TaskState, TaskStruct};
pub use timing::{OsTiming, RetryPolicy};
