//! # mario-cluster — a virtual-time cluster emulator
//!
//! The execution substrate substituting for the paper's 64-GPU testbed.
//! Each device runs its instruction list in order on one [`machine`]:
//! the single implementation of instruction semantics — virtual clock,
//! memory ledger with OOM faults under the same lifecycle rules as the
//! offline simulator ([`mario_ir::MemoryRules`]), checkpoint writes,
//! telemetry, spans and the bounded-link send/recv clock rules. One
//! single-threaded discrete-event driver ([`event`]) steps the machines
//! over the run's [`link`]s and scales to thousands of devices. It
//! detects deadlock by quiescence: when every unfinished device is parked
//! on a link, none can ever move.
//!
//! Timing is *virtual*: per-instruction latencies come from a
//! [`mario_ir::CostModel`] (optionally perturbed by seeded jitter), and all
//! clock arithmetic depends only on message timestamps, so results are
//! bit-identical under every firing order of the devices.
//!
//! The [`faults`] module adds seeded, deterministic fault injection on top:
//! [`run_with_faults`] enforces a [`FaultPlan`] (stragglers, crashes, link
//! delays/stalls, memory squeezes) and converts every induced failure into
//! a structured [`FaultReport`]; [`run_with_recovery`] layers bounded
//! checkpoint-restart on top, optionally with mid-run teardown/rebuild:
//! a planner-supplied [`Reconfiguration`] re-maps the model onto the
//! surviving devices and the run continues degraded, each survivor's
//! clock starting at its state-redistribution cost. With an empty plan the fault layer is
//! inert and emulation is bit-identical to the plain [`run`].

#![warn(missing_docs)]

pub mod error;
pub mod event;
pub mod faults;
pub mod link;
pub mod machine;
pub mod runner;
pub mod serving;

pub use error::EmuError;
pub use faults::{FaultGroup, FaultKind, FaultPlan, FaultReport};
pub use machine::DeviceReport;
pub use runner::{
    run, run_with, run_with_faults, run_with_recovery, EmulatorBackend, EmulatorConfig,
    Reconfiguration, ReconfigureEvent, RecoveredRun, RecoveryPolicy, RunOptions, RunReport,
};
pub use serving::{
    form_batches, poisson_arrivals, serve, serve_with, Batch, BatchPolicy, Request, RetryPolicy,
    ServeBoard, ServeConfig, ServeOutcome, ServingHooks, ServingTelemetry,
};
