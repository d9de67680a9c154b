//! Sharded checkpoint-write sweep: synchronous vs bubble-overlapped
//! async flushes across V, X and W.
//!
//! Not a paper artifact — the evaluation for the sharded
//! [`CheckpointPolicy`] write model. Every device flushes its own model
//! shard at each checkpoint boundary; the sweep compares three runs per
//! scheme:
//!
//! * **base** — no checkpointing (the bubble budget);
//! * **sync** — the shard flushed synchronously at the boundary;
//! * **async** — the same shard split into chunks that drain whenever
//!   the device would otherwise idle at a blocking recv, with only the
//!   residue charged synchronously.
//!
//! The headline number is the fraction of the synchronous write cost the
//! pipeline bubbles absorb: `1 − (async − base)/(sync − base)` on the
//! end-to-end makespan. The table also feeds the *effective* per-write
//! cost of each mode into the Young/Daly tuner — cheaper effective
//! writes justify tighter checkpoint intervals.

use crate::table::Table;
use mario_cluster::{run, EmulatorConfig, RunReport};
use mario_core::tuner::{daly_interval, effective_write_ns, scheme_channel_capacity};
use mario_ir::{CheckpointPolicy, SchemeKind, ShardedWrite, UnitCost};
use mario_schedules::{generate, ScheduleConfig};
use serde::{Deserialize, Serialize};

/// Iterations per run; with [`INTERVAL`] this yields four checkpoints.
const ITERS: u32 = 8;
/// Checkpoint boundary every other iteration.
const INTERVAL: u32 = 2;
/// Bytes of model state each device flushes per checkpoint.
const SHARD_BYTES: u64 = 60_000;
/// Flush bandwidth, bytes/µs: a full shard costs 30 µs synchronously.
const FLUSH_BPUS: u64 = 2_000;
/// Chunk granularity: 500-byte chunks ⇒ 120 chunks of 250 ns per shard.
const CHUNK_BYTES: u64 = 500;

/// One scheme's sync-vs-async comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Scheme label (`V`, `X`, `W`).
    pub scheme: String,
    /// Checkpoint-free makespan, ns.
    pub base_ns: u64,
    /// Makespan with synchronous sharded writes, ns.
    pub sync_ns: u64,
    /// Makespan with bubble-overlapped writes, ns.
    pub async_ns: u64,
    /// Write time actually paid across devices, synchronous mode, ns.
    pub sync_paid: u64,
    /// Write time actually paid across devices, async mode, ns.
    pub async_paid: u64,
    /// Fraction of the synchronous makespan overhead the bubbles absorb.
    pub absorbed: f64,
    /// Fraction of the total chunk time the bubbles drained, read
    /// directly from the async run's flight recorder:
    /// `ckpt_absorbed / (ckpt_absorbed + ckpt_sync)`. Matches
    /// [`Row::absorbed`] when every drained chunk shortens the makespan
    /// (V, X); can exceed it when drains happen off the critical path (W).
    pub absorbed_telemetry: f64,
    /// Effective per-write cost on the critical path, synchronous, ns.
    pub eff_sync_ns: u64,
    /// Effective per-write cost on the critical path, async, ns.
    pub eff_async_ns: u64,
    /// Young/Daly interval tuned from the synchronous effective cost.
    pub k_sync: u32,
    /// Young/Daly interval tuned from the async effective cost.
    pub k_async: u32,
}

/// Runs the three-way comparison for one scheme.
fn compare(scheme: SchemeKind) -> Row {
    let s = generate(ScheduleConfig::new(scheme, 4, 8));
    let cost = UnitCost::paper_grid().with_shard_bytes(SHARD_BYTES);
    let cfg = EmulatorConfig {
        channel_capacity: scheme_channel_capacity(scheme),
        iterations: ITERS,
        ..Default::default()
    };
    let sharded = ShardedWrite::new(FLUSH_BPUS, CHUNK_BYTES);
    let exec = |checkpoint| -> RunReport {
        run(&s, &cost, EmulatorConfig { checkpoint, ..cfg }).expect("emulated run completes")
    };
    let base = exec(None);
    let sync = exec(Some(CheckpointPolicy::every(INTERVAL).with_sharded(sharded)));
    let asynced = exec(Some(
        CheckpointPolicy::every(INTERVAL).with_sharded(sharded.with_async_overlap()),
    ));

    let sync_over = sync.total_ns.saturating_sub(base.total_ns);
    let async_over = asynced.total_ns.saturating_sub(base.total_ns);
    let absorbed = if sync_over == 0 {
        0.0
    } else {
        1.0 - async_over as f64 / sync_over as f64
    };
    // The same figure read off the flight recorder instead of endpoint
    // deltas: drained chunk time over total chunk time in the async run.
    let drained = asynced.telemetry.total_ckpt_absorbed_ns();
    let paid = asynced.telemetry.total_ckpt_sync_ns();
    let absorbed_telemetry = if drained + paid == 0 {
        0.0
    } else {
        drained as f64 / (drained + paid) as f64
    };

    // Feed the *observed* per-write cost of each mode into Young/Daly
    // (one expected hard fault over the run): absorbed writes look
    // cheaper, so the tuner can afford tighter intervals.
    let writes = ITERS / INTERVAL;
    let eff_sync_ns = effective_write_ns(base.total_ns, sync.total_ns, writes);
    let eff_async_ns = effective_write_ns(base.total_ns, asynced.total_ns, writes);
    let lambda = 1.0 / ITERS as f64;
    let tune = |eff| daly_interval(base.iter_ns, eff, lambda, ITERS).unwrap_or(ITERS);
    Row {
        scheme: scheme.shape_letter().to_string(),
        base_ns: base.total_ns,
        sync_ns: sync.total_ns,
        async_ns: asynced.total_ns,
        sync_paid: sync.ckpt_overhead_ns,
        async_paid: asynced.ckpt_overhead_ns,
        absorbed,
        absorbed_telemetry,
        eff_sync_ns,
        eff_async_ns,
        k_sync: tune(eff_sync_ns),
        k_async: tune(eff_async_ns),
    }
}

/// Sweeps the comparison over V, X and W (`smoke`: V only).
pub fn run_sweep(smoke: bool) -> Vec<Row> {
    let schemes: &[SchemeKind] = if smoke {
        &[SchemeKind::OneFOneB]
    } else {
        &[
            SchemeKind::OneFOneB,
            SchemeKind::Chimera,
            SchemeKind::Interleave { chunks: 2 },
        ]
    };
    schemes.iter().map(|&s| compare(s)).collect()
}

/// Renders the comparison table and the headline verdict.
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(&[
        "scheme", "base ns", "sync ns", "async ns", "paid sync", "paid async", "absorbed",
        "absorbed (tel)", "C_eff sync", "C_eff async", "k* sync", "k* async",
    ]);
    for r in rows {
        t.row(vec![
            r.scheme.clone(),
            r.base_ns.to_string(),
            r.sync_ns.to_string(),
            r.async_ns.to_string(),
            r.sync_paid.to_string(),
            r.async_paid.to_string(),
            format!("{:.0}%", r.absorbed * 100.0),
            format!("{:.0}%", r.absorbed_telemetry * 100.0),
            r.eff_sync_ns.to_string(),
            r.eff_async_ns.to_string(),
            r.k_sync.to_string(),
            r.k_async.to_string(),
        ]);
    }
    // Headline from the flight recorder — the per-chunk payment ledger —
    // with the endpoint-delta column alongside as the cross-check.
    let best = rows
        .iter()
        .map(|r| r.absorbed_telemetry)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut out = t.render();
    out.push_str(&format!(
        "\n**Headline:** pipeline bubbles absorb up to {:.0}% of the sharded \
         checkpoint write cost ({} writes of {} ns per device).\n",
        best * 100.0,
        ITERS / INTERVAL,
        ShardedWrite::new(FLUSH_BPUS, CHUNK_BYTES).flush_ns(SHARD_BYTES),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bubbles_absorb_write_cost_on_every_scheme() {
        for r in run_sweep(false) {
            // Overlap can only help: never slower than synchronous, never
            // cheaper than the checkpoint-free baseline.
            assert!(r.async_ns <= r.sync_ns, "{}: {} > {}", r.scheme, r.async_ns, r.sync_ns);
            assert!(r.async_ns >= r.base_ns, "{}", r.scheme);
            assert!(r.absorbed > 0.0, "{} absorbed nothing", r.scheme);
            // Bubble-absorbed chunks are unpaid, so the async run's summed
            // payments are strictly below the synchronous ones.
            assert!(r.async_paid < r.sync_paid, "{}", r.scheme);
            // Cheaper effective writes can only tighten the tuned interval.
            assert!(r.k_async <= r.k_sync, "{}", r.scheme);
        }
    }

    #[test]
    fn telemetry_absorbed_fraction_agrees_with_endpoint_deltas() {
        for r in run_sweep(false) {
            // The payment ledger can only see MORE absorption than the
            // makespan deltas: every endpoint nanosecond saved is a
            // drained chunk, but chunks drained off the critical path
            // save payment without moving the makespan (W).
            assert!(
                r.absorbed_telemetry >= r.absorbed - 1e-9,
                "{}: telemetry {} < endpoint {}",
                r.scheme,
                r.absorbed_telemetry,
                r.absorbed
            );
            assert!(r.absorbed_telemetry > 0.0 && r.absorbed_telemetry < 1.0, "{}", r.scheme);
            // The telemetry fraction IS the payment ratio: drained over
            // total chunk time, where the sync run pays everything.
            let expected = 1.0 - r.async_paid as f64 / r.sync_paid as f64;
            assert!(
                (r.absorbed_telemetry - expected).abs() < 1e-9,
                "{}: {} vs {}",
                r.scheme,
                r.absorbed_telemetry,
                expected
            );
        }
    }

    #[test]
    fn ckpt_overhead_equals_summed_sync_class() {
        // The RunReport's ckpt_overhead_ns and the telemetry's ckpt-sync
        // class are the same ledger — absorbed chunk time appears in the
        // ckpt-absorbed class only, never double-counted into either.
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 8));
        let cost = UnitCost::paper_grid().with_shard_bytes(SHARD_BYTES);
        let cfg = EmulatorConfig {
            channel_capacity: 1,
            iterations: ITERS,
            ..Default::default()
        };
        let sharded = ShardedWrite::new(FLUSH_BPUS, CHUNK_BYTES);
        for policy in [
            None,
            Some(CheckpointPolicy::every(INTERVAL).with_sharded(sharded)),
            Some(CheckpointPolicy::every(INTERVAL).with_sharded(sharded.with_async_overlap())),
        ] {
            let report = run(
                &s,
                &cost,
                EmulatorConfig {
                    checkpoint: policy,
                    ..cfg
                },
            )
            .expect("run completes");
            assert_eq!(
                report.telemetry.total_ckpt_sync_ns(),
                report.ckpt_overhead_ns
            );
            report
                .telemetry
                .check_conservation(&report.device_clocks)
                .expect("time classes conserve");
        }
    }
}
