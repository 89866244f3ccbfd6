//! Fault models and injectors.
//!
//! DriveFI's fault model (paper §II-C) has three parts; this crate
//! implements the machinery for all of them:
//!
//! * **Fault model (a)** — random/uniform faults in non-ECC-protected
//!   processor structures. The paper flips bits in GPU/CPU architectural
//!   state under the real stacks; we cannot run those, so [`arch`]
//!   provides a **soft-error VM**: a register machine executing a
//!   representative ADS numeric kernel in which single bit flips are
//!   injected at random dynamic instructions and classified as
//!   masked / silent data corruption / crash / hang — emergent from
//!   register liveness, not hard-coded rates.
//! * **Fault model (b)** — ADS module *outputs* corrupted with min or max
//!   values. [`ScalarFaultModel`] covers min/max plus the bit-flip,
//!   stuck-at, offset and noise variants used by the ablations, applied to
//!   any [`drivefi_ads::Signal`].
//! * **Fault model (c)** — Bayesian-selected faults; the selection lives
//!   in `drivefi-core`, the mechanics here.
//!
//! [`Injector`] implements [`drivefi_ads::BusInterceptor`], applying a set
//! of [`Fault`]s at their pipeline stage and time window, including the
//! structural world-model faults that recreate the paper's two case
//! studies (failure to register the lead vehicle; delayed perception).
//!
//! # Example
//!
//! ```
//! use drivefi_ads::Signal;
//! use drivefi_fault::{Fault, FaultKind, FaultWindow, Injector, ScalarFaultModel};
//!
//! let fault = Fault {
//!     kind: FaultKind::Scalar { signal: Signal::FinalThrottle, model: ScalarFaultModel::StuckMax },
//!     window: FaultWindow::transient(120),
//! };
//! let injector = Injector::new(vec![fault]);
//! assert_eq!(injector.faults().len(), 1);
//! ```

pub mod arch;
pub mod injector;
pub mod model;
pub mod space;

pub use arch::{ArchOutcome, ArchProgram, ArchSimulator, InjectionSite};
pub use injector::Injector;
pub use model::{Fault, FaultKind, FaultWindow, ScalarFaultModel};
pub use space::{CorruptionGrid, FaultKey, FaultSpace, FaultSpec, WindowSpec};
