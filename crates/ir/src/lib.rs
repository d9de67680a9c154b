//! # mario-ir — instruction IR and virtual pipeline for Mario
//!
//! This crate defines the intermediate representation the Mario pipeline
//! optimizer (PPoPP '25) manipulates:
//!
//! * [`instr`] — the pipeline instruction set (Table 3 of the paper):
//!   (checkpointed) forward, backward, recomputation, p2p activation and
//!   gradient transfers, all-reduce and optimizer step;
//! * [`list`] — per-device ordered instruction lists (the *horizontal*
//!   dependency dimension) and the edit operations the graph tuner uses;
//! * [`topology`] — the *virtual pipeline* (§5.2, Algorithm 1) that unifies
//!   1F1B/"V", Chimera/"X", Interleave/"W", GPipe and wave pipelines behind
//!   `find_prev_inst`/`find_next_inst` hop arithmetic (the *vertical*
//!   dependency dimension);
//! * [`schedule`] — a complete schedule: topology + route assignment + one
//!   program per device;
//! * [`cost`] — the cost-model trait consumed by the simulator and the
//!   cluster emulator, with the paper's unit-grid model as a reference
//!   implementation;
//! * [`ledger`] — the shared memory-accounting rules (static vs dynamic,
//!   checkpoint vs full activation) used identically by offline simulation
//!   and online emulation;
//! * [`perturb`] — degraded-cluster perturbation profiles (stragglers,
//!   slow links), the shared vocabulary that keeps the simulator's
//!   degraded mode and the emulator's fault layer bit-for-bit aligned;
//! * [`clock`] — the device clock, the one rule every timed executor
//!   advances a device's virtual time through (time classes, checkpoint
//!   chunk drain and durability, per-iteration packet numbering);
//! * [`checkpoint`] — the model-state checkpointing policy (periodic
//!   checkpoint writes with explicit time and memory cost) the cluster
//!   emulator charges and its recovery loop resumes from;
//! * [`telemetry`] — the unified time-class flight recorder (per-device
//!   time breakdowns, per-link transfer statistics) populated with
//!   identical arithmetic by the simulator and the emulator;
//! * [`index`] — position and hop tables built once per program or
//!   topology, so validation and the graph-tuner passes look instructions
//!   up instead of scanning for them;
//! * [`hash`] — the fast deterministic hasher behind the memory rules'
//!   and ledgers' maps;
//! * [`link`] — the bounded p2p link rule (channel keys, the p2p
//!   classifier, the ack-window [`Fifo`]) and the [`LinkTable`] that
//!   numbers every channel once, shared by every engine;
//! * [`ready`] — the ready queue the single-threaded engines run each
//!   device from until it blocks;
//! * [`validate`](mod@validate) / [`exec`] — structural validation plus
//!   symbolic execution proving schedules deadlock-free under blocking
//!   p2p.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod clock;
pub mod cost;
pub mod exec;
pub mod hash;
pub mod ids;
pub mod index;
pub mod instr;
pub mod ledger;
pub mod link;
pub mod list;
pub mod perturb;
pub mod ready;
pub mod rules;
pub mod schedule;
pub mod span;
pub mod telemetry;
pub mod text;
pub mod topology;
pub mod validate;

pub use checkpoint::{CheckpointPolicy, PendingCheckpoint, ShardedWrite};
pub use clock::{DeviceClock, PacketCounter};
pub use cost::{transfer_ns, ComputeKind, CostModel, Nanos, UnitCost};
pub use exec::{check_executable, min_channel_capacity, Blocked, Deadlock, ExecError, Mismatch};
#[cfg(feature = "test-order")]
#[doc(hidden)]
pub use exec::check_executable_shuffled;
pub use hash::{FastMap, FastSet};
pub use ids::{DeviceId, MicroId, PartId, StageId};
pub use index::{ProgramIndex, RouteHops};
pub use instr::{Instr, InstrKind, InstrTag};
pub use ledger::{AllocError, AllocKey, MemLedger, OomError};
pub use link::{ChanKey, Dir, Fifo, Link, LinkTable, Msg, MsgClass, P2p, Port};
pub use list::DeviceProgram;
pub use perturb::{LinkSlack, PerturbationProfile, SlowdownWindow};
pub use ready::Ready;
pub use rules::MemoryRules;
pub use schedule::Schedule;
pub use span::{LinkEnd, OpSpan, SpanGraph, CKPT_PC};
pub use telemetry::{DeviceTelemetry, LinkSendStats, LinkTelemetry, Telemetry, TimeClasses};
pub use text::{from_text, to_text, TextError};
#[cfg(feature = "test-order")]
#[doc(hidden)]
pub use text::from_text_in_parts;
pub use topology::{SchemeKind, Topology};
pub use validate::{validate, validate_with, ValidateOptions, ValidationError};
#[cfg(feature = "test-order")]
#[doc(hidden)]
pub use validate::validate_speculatively;
