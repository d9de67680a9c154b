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
//! * [`checkpoint`] — the model-state checkpointing policy (periodic
//!   checkpoint writes with explicit time and memory cost) the cluster
//!   emulator charges and its recovery loop resumes from;
//! * [`telemetry`] — the unified time-class flight recorder (per-device
//!   time breakdowns, per-link transfer statistics) populated with
//!   identical arithmetic by the simulator and the emulator;
//! * [`hash`] — the fast deterministic hasher behind the executors'
//!   per-instruction channel, link and ledger maps;
//! * [`validate`] / [`exec`] — structural validation plus symbolic
//!   execution proving schedules deadlock-free under blocking p2p.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod cost;
pub mod exec;
pub mod hash;
pub mod ids;
pub mod instr;
pub mod ledger;
pub mod list;
pub mod perturb;
pub mod rules;
pub mod schedule;
pub mod span;
pub mod telemetry;
pub mod text;
pub mod topology;
pub mod validate;

pub use checkpoint::{CheckpointPolicy, ShardedWrite};
pub use cost::{ComputeKind, CostModel, Nanos, UnitCost};
pub use exec::{check_executable, min_channel_capacity, ExecError};
pub use hash::FastMap;
pub use ids::{DeviceId, MicroId, PartId, StageId};
pub use instr::{Instr, InstrKind, InstrTag};
pub use ledger::{AllocKey, MemLedger, OomError};
pub use list::DeviceProgram;
pub use perturb::{LinkSlack, PerturbationProfile, SlowdownWindow};
pub use rules::MemoryRules;
pub use schedule::Schedule;
pub use span::{OpSpan, SpanGraph, CKPT_PC};
pub use telemetry::{DeviceTelemetry, LinkSendStats, LinkTelemetry, Telemetry, TimeClasses};
pub use text::{from_text, to_text};
pub use topology::{SchemeKind, Topology};
pub use validate::{validate, validate_with, ValidateOptions, ValidationError};
