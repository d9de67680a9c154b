//! # mario-bench — the experiment harness
//!
//! Reproduces every table and figure of the Mario paper's evaluation (§6)
//! against the emulated cluster:
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `table1` | Table 1 — memory footprint across schemes |
//! | `fig1` | Fig. 1 — scheme development / relative throughput |
//! | `fig2` | Fig. 2 — the 21t→28t→25t→23t→22t step-by-step example |
//! | `fig6` | Fig. 6 — throughput, small models, 8 GPUs |
//! | `table5` | Table 5 — 13B models, 32 GPUs, memory + throughput |
//! | `fig7` | Fig. 7 — per-device peak memory |
//! | `fig8` | Fig. 8 — model-parameter scaling until OOM |
//! | `fig9` | Fig. 9 — sequence-length scaling until OOM |
//! | `fig10` | Fig. 10 — simulator accuracy (MAPE, partial order) |
//! | `fig11` | Fig. 11 — 64-GPU tuning curve |
//! | `ablation` | §7.1 partition ramp + per-pass ablation |
//! | `chaos` | (robustness, not in paper) seeded single-fault injection sweep |
//! | `degraded` | (robustness, not in paper) degraded-mode prediction: simulator vs. emulator under stragglers |
//! | `ckptshard` | (robustness, not in paper) sharded checkpoint writes: sync vs bubble-overlapped |
//!
//! Every binary accepts `--json`, writing a machine-readable
//! `results/<bench>.json` sibling of its rendered artifact (see
//! [`summary`]).

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod summary;
pub mod table;

pub use harness::{
    analytic_critical_path, critical_path_of, headline_critical_path, run_config,
    unit_critical_path, ConfigResult, ExpConfig, Variant,
};
pub use summary::{critical_path_json, json_requested, JsonObj, RunSummary};
pub use table::{gb, gb_range, Table};
