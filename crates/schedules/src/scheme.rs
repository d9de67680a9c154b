//! Unified entry point: pick a scheme, get a complete schedule.

use crate::builder::{insert_comm, CommOptions};
use mario_ir::{Schedule, SchemeKind, Topology};
use serde::{Deserialize, Serialize};

/// Everything needed to materialize one scheme's schedule.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScheduleConfig {
    /// Which scheme to generate.
    pub scheme: SchemeKind,
    /// Pipeline device count `D`.
    pub devices: u32,
    /// Micro-batches per iteration `N`.
    pub micros: u32,
    /// Emit p2p communication instructions.
    pub with_comm: bool,
    /// Emit a trailing data-parallel all-reduce.
    pub with_allreduce: bool,
}

impl ScheduleConfig {
    /// A complete schedule (comm + optimizer step) for `scheme`.
    pub fn new(scheme: SchemeKind, devices: u32, micros: u32) -> Self {
        Self {
            scheme,
            devices,
            micros,
            with_comm: true,
            with_allreduce: false,
        }
    }

    /// Builder: toggle communication emission.
    pub fn comm(mut self, on: bool) -> Self {
        self.with_comm = on;
        self
    }

    /// Builder: toggle the all-reduce.
    pub fn allreduce(mut self, on: bool) -> Self {
        self.with_allreduce = on;
        self
    }

    /// Checks every constraint the scheme puts on this size, the one
    /// place they are written: a topology [`Topology::try_new`] accepts,
    /// an even micro-batch count for Chimera (each direction carries
    /// half), and micro-batches a multiple of devices for Interleave
    /// (Megatron's grouping). [`generate`] panics with this message.
    pub fn check(&self) -> Result<(), String> {
        let (devices, micros) = (self.devices, self.micros);
        Topology::try_new(self.scheme, devices)?;
        match self.scheme {
            SchemeKind::Chimera if !micros.is_multiple_of(2) => Err(format!(
                "Chimera requires an even micro-batch count, got {micros}"
            )),
            SchemeKind::Interleave { .. } if !micros.is_multiple_of(devices) => Err(format!(
                "Interleave requires micros ({micros}) to be a multiple of devices ({devices})"
            )),
            _ => Ok(()),
        }
    }
}

/// Generates the compute-only schedule for a scheme.
///
/// # Panics
/// If the size breaks one of the scheme's constraints
/// ([`ScheduleConfig::check`]).
pub fn generate_compute(scheme: SchemeKind, devices: u32, micros: u32) -> Schedule {
    if let Err(e) = ScheduleConfig::new(scheme, devices, micros).check() {
        panic!("{e}");
    }
    match scheme {
        SchemeKind::GPipe => crate::gpipe::generate_compute(devices, micros),
        SchemeKind::OneFOneB => crate::one_f_one_b::generate_compute(devices, micros),
        SchemeKind::Chimera => crate::chimera::generate_compute(devices, micros),
        SchemeKind::Interleave { chunks } => {
            crate::interleave::generate_compute(devices, micros, chunks)
        }
        SchemeKind::Wave { chunks } => crate::wave::generate_compute(devices, micros, chunks),
        SchemeKind::ForwardOnly => crate::forward_only::generate_compute(devices, micros),
        SchemeKind::ZeroBubbleH1 => crate::zero_bubble::generate_compute(devices, micros),
        SchemeKind::ZeroBubbleV => crate::zero_bubble::generate_compute_v(devices, micros),
    }
}

/// Generates a schedule according to `cfg`.
///
/// # Panics
/// If `cfg` fails [`ScheduleConfig::check`].
pub fn generate(cfg: ScheduleConfig) -> Schedule {
    let compute = generate_compute(cfg.scheme, cfg.devices, cfg.micros);
    if cfg.with_comm {
        // Inference pipelines run no optimizer step (and never all-reduce:
        // there are no gradients to average).
        let forward_only = matches!(cfg.scheme, SchemeKind::ForwardOnly);
        insert_comm(
            &compute,
            CommOptions {
                allreduce: cfg.with_allreduce && !forward_only,
                optimizer_step: !forward_only,
            },
        )
    } else {
        compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_ir::{validate, validate_with, ValidateOptions};

    fn all_schemes(devices: u32) -> Vec<SchemeKind> {
        vec![
            SchemeKind::GPipe,
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 2 },
            SchemeKind::Wave { chunks: 2 },
            SchemeKind::ForwardOnly,
            SchemeKind::ZeroBubbleH1,
            SchemeKind::ZeroBubbleV,
        ]
        .into_iter()
        .filter(|s| !matches!(s, SchemeKind::Chimera) || devices.is_multiple_of(2))
        .collect()
    }

    #[test]
    fn every_scheme_generates_valid_full_schedules() {
        for d in [2u32, 4, 8] {
            for s in all_schemes(d) {
                let n = 2 * d;
                let sched = generate(ScheduleConfig::new(s, d, n));
                let opts = ValidateOptions {
                    channel_capacity: 2,
                };
                validate_with(&sched, opts).unwrap_or_else(|e| {
                    panic!("{s:?} D={d} N={n}: {}", e[0])
                });
            }
        }
    }

    #[test]
    fn compute_only_generation_skips_comm() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8).comm(false));
        assert_eq!(s.count_tag(mario_ir::InstrTag::SendAct), 0);
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
    }

    #[test]
    fn forward_only_emits_no_backward_pass_artifacts() {
        let s = generate(ScheduleConfig::new(SchemeKind::ForwardOnly, 4, 8).allreduce(true));
        assert_eq!(s.count_tag(mario_ir::InstrTag::Backward), 0);
        assert_eq!(s.count_tag(mario_ir::InstrTag::SendGrad), 0);
        assert_eq!(s.count_tag(mario_ir::InstrTag::RecvGrad), 0);
        assert_eq!(s.count_tag(mario_ir::InstrTag::AllReduce), 0);
        assert_eq!(s.count_tag(mario_ir::InstrTag::OptimizerStep), 0);
        // Stage 0 receives nothing; the last stage sends nothing.
        assert_eq!(
            s.program(mario_ir::DeviceId(0))
                .count(|i| matches!(i.kind, mario_ir::InstrKind::RecvAct { .. })),
            0
        );
        assert_eq!(
            s.program(mario_ir::DeviceId(3))
                .count(|i| matches!(i.kind, mario_ir::InstrKind::SendAct { .. })),
            0
        );
        validate(&s).unwrap_or_else(|e| panic!("{e:?}"));
    }

    #[test]
    fn allreduce_flag_adds_one_per_device() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8).allreduce(true));
        assert_eq!(s.count_tag(mario_ir::InstrTag::AllReduce), 4);
    }
}
