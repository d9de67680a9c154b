//! Serving-mode prediction: the emulator's request loop driven by the DP
//! timeline simulator.
//!
//! [`simulate_serving`] runs the *same* batching / retry / telemetry
//! arithmetic as `mario_cluster::serving::serve`
//! ([`mario_cluster::serve_with`] is shared verbatim), but each attempt
//! is priced by [`simulate`] with a release schedule instead of an
//! emulator run. On a pristine or absorbably-degraded cluster (stragglers, slow
//! links — a [`PerturbationProfile`]) the predicted per-request
//! completion times are bit-identical to a zero-jitter emulated serve:
//! that is the serving extension of the simulator-accuracy story
//! (paper Fig. 10), and `tests/properties.rs` enforces it three ways
//! (simulator / thread emulator / event emulator).
//!
//! Hard faults (crashes, rack failures) are the emulator's domain — the
//! simulator models degradation, not failure, so its serve loop never
//! retries: a [`SimError`] surfaces immediately.

use crate::simulator::{simulate, SimError, SimOptions};
use mario_cluster::{serve_with, BatchPolicy, Request, RetryPolicy, RunReport, ServeOutcome};
use mario_ir::{CostModel, PerturbationProfile, Schedule};

/// Simulator-backed serving run over `requests`.
///
/// `build` fabricates the forward-only schedule for a given micro-batch
/// count (one micro-batch per request batch), exactly as the emulator's
/// `serve` asks of it; `channel_capacity` and `profile` are the usual
/// simulator knobs. Returns the same [`ServeOutcome`] the emulator
/// produces: per-request completion times, the batch layout, the final
/// attempt's [`RunReport`] with its `serving` digest stamped, and an
/// empty fault log (the simulator never injects hard faults).
pub fn simulate_serving(
    mut build: impl FnMut(u32) -> Schedule,
    cost: &dyn CostModel,
    channel_capacity: usize,
    profile: &PerturbationProfile,
    batch: BatchPolicy,
    retry: RetryPolicy,
    requests: &[Request],
) -> Result<ServeOutcome, SimError> {
    serve_with(
        requests,
        batch,
        retry,
        |micros, release, _attempt| {
            let schedule = build(micros);
            let opts = SimOptions {
                channel_capacity,
                profile,
                release: Some(release),
                ..SimOptions::default()
            };
            match simulate(&schedule, cost, &opts) {
                Ok(mut t) => {
                    let completions = std::mem::take(&mut t.completions);
                    // Fabricate the emulator's report shape from the
                    // simulated timeline; the shared serve loop stamps
                    // the serving digest onto it.
                    let rep = RunReport {
                        total_ns: t.total_ns,
                        iter_ns: t.total_ns,
                        peak_mem: t.telemetry.devices.iter().map(|d| d.peak_mem).collect(),
                        device_clocks: t.device_clocks,
                        last_checkpoint: t.last_checkpoint,
                        ckpt_overhead_ns: t.ckpt_overhead_ns,
                        telemetry: t.telemetry,
                        spans: Some(t.spans),
                        ..RunReport::default()
                    };
                    (Ok(rep), completions)
                }
                Err(e) => (Err(e), Vec::new()),
            }
        },
        // Degradation is absorbable by construction; a simulated
        // deadlock or mismatch is a schedule bug, never a retryable
        // infrastructure fault.
        |_e: &SimError| None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mario_cluster::poisson_arrivals;
    use mario_ir::{SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    fn forward_only(devices: u32) -> impl FnMut(u32) -> Schedule {
        move |micros| generate(ScheduleConfig::new(SchemeKind::ForwardOnly, devices, micros))
    }

    #[test]
    fn simulated_serve_completes_every_request() {
        let requests = poisson_arrivals(7, 12, 1_500, 60_000);
        let out = simulate_serving(
            forward_only(4),
            &UnitCost::paper_grid(),
            1,
            &PerturbationProfile::identity(),
            BatchPolicy::default(),
            RetryPolicy::default(),
            &requests,
        )
        .unwrap();
        assert_eq!(out.completions.len(), requests.len());
        assert!(out.completions.iter().all(|c| c.is_some()));
        assert!(out.fault_log.is_empty());
        let digest = out.report.unwrap().serving.unwrap();
        assert_eq!(digest.requests, 12);
        assert_eq!(digest.completed, 12);
        assert_eq!(digest.retries, 0);
    }

    #[test]
    fn straggler_degrades_latency_but_not_completeness() {
        let requests = poisson_arrivals(7, 12, 1_500, 60_000);
        let cost = UnitCost::paper_grid();
        let idle = PerturbationProfile::identity();
        let slow = PerturbationProfile::identity().with_straggler(mario_ir::DeviceId(0), 3.0);
        let base = simulate_serving(
            forward_only(4),
            &cost,
            1,
            &idle,
            BatchPolicy::default(),
            RetryPolicy::default(),
            &requests,
        )
        .unwrap();
        let degr = simulate_serving(
            forward_only(4),
            &cost,
            1,
            &slow,
            BatchPolicy::default(),
            RetryPolicy::default(),
            &requests,
        )
        .unwrap();
        let (b, d) = (
            base.report.unwrap().serving.unwrap(),
            degr.report.unwrap().serving.unwrap(),
        );
        assert_eq!(d.completed, b.completed);
        assert!(d.p99_ns > b.p99_ns);
    }
}
