//! # mario — near zero-cost activation checkpointing in pipeline parallelism
//!
//! A from-scratch Rust reproduction of *Mario* (PPoPP '25): a pipeline
//! optimizer that tessellates activation checkpointing into existing
//! pipeline-parallel schedules (1F1B/"V", Chimera/"X", Interleave/"W"),
//! hides the recomputation inside pipeline bubbles, and automatically
//! searches checkpointing + pipeline configurations with a lightweight
//! simulator — all running against an emulated multi-GPU cluster.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`ir`] — instruction IR, virtual pipeline, validation;
//! * [`schedules`] — schedule generators for the supported schemes;
//! * [`model`] — transformer cost model, A100 hardware model, profiling;
//! * [`cluster`] — the virtual-time cluster emulator, one single-threaded
//!   event driver;
//! * [`core`] — graph-tuner passes, DP simulator, schedule tuner, the
//!   `optimize`/`run` API and visualization.
//!
//! ## Quickstart
//!
//! ```
//! use mario::prelude::*;
//!
//! // Listing 1 of the paper: pick a model, a cluster, and let Mario
//! // search for the best pipeline + checkpointing configuration.
//! let mario_conf = MarioConfig::auto(8, 32, 40 * (1 << 30));
//! let model_conf = ModelConfig::gpt3_1_6b();
//! let gpu = GpuSpec::a100_40g();
//!
//! let schedule = mario::core::optimize(&mario_conf, &model_conf, &gpu).unwrap();
//! println!("best config: {}", schedule.evaluation.candidate);
//!
//! let report = mario::core::run(&schedule, Default::default()).unwrap();
//! assert!(report.total_ns > 0);
//! ```

pub use mario_cluster as cluster;
pub use mario_core as core;
pub use mario_ir as ir;
pub use mario_model as model;
pub use mario_schedules as schedules;

/// The most common imports in one place.
pub mod prelude {
    pub use mario_cluster::{EmulatorConfig, RunReport};
    pub use mario_core::{
        apply_checkpoint, optimize, overlap_recompute, prepose_forward, remove_redundancy, run,
        run_graph_tuner, simulate, simulate_memory, simulate_timeline, GraphTunerOptions,
        MarioConfig, SchemeChoice, SimOptions, TunerConfig,
    };
    pub use mario_ir::{
        validate, CheckpointPolicy, CostModel, DeviceId, Instr, InstrKind, MicroId, PartId,
        PerturbationProfile, Schedule, SchemeKind, ShardedWrite, Topology, UnitCost,
    };
    pub use mario_model::{AnalyticCost, GpuSpec, ModelConfig, StagePartition, TrainSetup};
    pub use mario_schedules::{generate, generate_compute, ScheduleConfig};
}
