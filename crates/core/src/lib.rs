//! # mario-core — the Mario pipeline optimizer (PPoPP '25)
//!
//! The paper's primary contribution, reproduced end to end:
//!
//! * [`passes`] — the **graph tuner** (§5.1): four optimization passes
//!   that tessellate activation checkpointing into any pipeline schedule —
//!   `apply-checkpoint`, `overlap-recompute`, `remove-redundancy` and the
//!   simulator-guided `prepose-forward`;
//! * [`simulator`] — the **simulator-based performance model** (§5.2): a
//!   dynamic-programming timeline simulation plus device-level memory
//!   simulation, semantically aligned with the cluster emulator;
//! * [`tuner`] — the **schedule tuner** (§5.3): grid search over
//!   `(a, b, pp, dp, mbs)` maximizing simulated throughput under the
//!   device-memory constraint (Equation 1);
//! * [`viz`] — timeline visualization (Fig. 5): ASCII and SVG Gantt charts;
//! * [`api`] — the Listing-1 user interface: `optimize` + `run`;
//! * [`elastic`] — elastic recovery planning: shrink the pipeline onto the
//!   fault's survivors, price the state redistribution, and compare
//!   shrink-and-continue against wait-and-resume.

#![warn(missing_docs)]

pub mod api;
pub mod critpath;
pub mod elastic;
pub mod passes;
pub mod serving;
pub mod simulator;
pub mod trace;
pub mod tuner;
pub mod viz;

pub use api::{optimize, run, MarioConfig, Optimized};
pub use critpath::{analyze, whatif, CritReport, PathBreakdown, PathSegment, SegClass, WhatIf, WhatIfResult};
pub use elastic::{
    compare_policies, plan_shrink, ElasticPlan, ElasticSetup, LayerScaledCost, PolicyComparison,
};
pub use passes::{
    apply_checkpoint, overlap_recompute, prepose_forward, remove_redundancy, run_graph_tuner,
    split_backward, GraphTunerOptions, PassStats, PreposeOptions, SplitOptions,
};
pub use serving::simulate_serving;
pub use simulator::{
    memory_series, simulate, simulate_memory, simulate_timeline, MemReport, MemSeries, SimError,
    SimOptions, SimTimeline,
};
pub use trace::{chrome_trace, chrome_trace_annotated, chrome_trace_rich, COUNTER_PID};
pub use tuner::{
    admissible, daly_interval, effective_write_ns, evaluate, fit_fault_rate, fit_fault_rate_on,
    tune, tune_checkpoint_interval, Candidate, CandidateFailure, CheckpointTuning, Evaluation,
    FaultHistory, SchemeChoice, SearchStats, TuneError, TuneResult, TunerConfig,
    MAX_DEGRADED_EVALS,
};
pub use viz::{render_ascii, render_svg, VizOptions};
