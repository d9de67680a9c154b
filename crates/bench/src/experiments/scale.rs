//! Emulator scaling sweep: rack-aware clusters of thousands of devices.
//!
//! Not a paper artifact — the capability demonstration for the
//! discrete-event driver, which walks the instruction lists
//! single-threaded and emulates thousands of devices. Each sweep point
//! runs a 1F1B pipeline twice:
//!
//! * **flat** — the free-communication unit grid, whose makespan has the
//!   closed form `3(D−1) + 3N` time units: a bit-exact correctness pin
//!   at device counts no other oracle reaches;
//! * **rack** — the same schedule under a rack-aware cost model
//!   ([`RackCost`]): neighbours inside a rack talk over the fast fabric,
//!   the boundary pair between adjacent racks pays the cross-rack wire.
//!
//! The table reports both virtual makespans, the emulated instruction
//! count, and the wall-clock rate (million instructions per second).

use crate::table::Table;
use mario_cluster::{run, EmulatorConfig};
use mario_ir::{ComputeKind, CostModel, DeviceId, Nanos, PartId, SchemeKind, UnitCost};
use mario_schedules::{generate, ScheduleConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Micro-batches per sweep point: fixed so the per-device program size
/// stays constant and the emulated instruction count scales linearly
/// with the device count.
pub const MICROS: u32 = 256;
/// Devices per rack (the paper's testbed is 16 nodes × 4 GPUs; at
/// thousand-device scale the natural unit is the rack).
pub const RACK: u32 = 64;
/// Intra-rack wire time per boundary tensor, ns.
pub const INTRA_NS: Nanos = 500;
/// Cross-rack wire time per boundary tensor, ns.
pub const CROSS_NS: Nanos = 5_000;

/// A unit-grid cost model with rack-aware link costs: devices are packed
/// into racks of [`RackCost::rack`] and a transfer pays the fast
/// intra-rack wire or the slow cross-rack one depending on placement.
#[derive(Debug, Clone, Copy)]
pub struct RackCost {
    grid: UnitCost,
    /// Devices per rack.
    pub rack: u32,
    /// Intra-rack wire time, ns.
    pub intra_ns: Nanos,
    /// Cross-rack wire time, ns.
    pub cross_ns: Nanos,
}

impl RackCost {
    /// The sweep's cluster: unit-grid compute, racks of [`RACK`].
    pub fn cluster() -> Self {
        Self {
            grid: UnitCost::paper_grid(),
            rack: RACK,
            intra_ns: INTRA_NS,
            cross_ns: CROSS_NS,
        }
    }
}

impl CostModel for RackCost {
    fn compute_time(&self, device: DeviceId, part: PartId, kind: ComputeKind) -> Nanos {
        self.grid.compute_time(device, part, kind)
    }

    fn act_full(&self, device: DeviceId, part: PartId) -> u64 {
        self.grid.act_full(device, part)
    }

    fn act_ckpt(&self, device: DeviceId, part: PartId) -> u64 {
        self.grid.act_ckpt(device, part)
    }

    fn boundary_bytes(&self, device: DeviceId, part: PartId) -> u64 {
        self.grid.boundary_bytes(device, part)
    }

    fn p2p_time(&self, _bytes: u64) -> Nanos {
        self.cross_ns
    }

    fn p2p_time_between(&self, from: DeviceId, to: DeviceId, _bytes: u64) -> Nanos {
        if from.0 / self.rack == to.0 / self.rack {
            self.intra_ns
        } else {
            self.cross_ns
        }
    }

    fn allreduce_time(&self, device: DeviceId) -> Nanos {
        self.grid.allreduce_time(device)
    }

    fn optimizer_time(&self, device: DeviceId) -> Nanos {
        self.grid.optimizer_time(device)
    }

    fn static_mem(&self, device: DeviceId) -> u64 {
        self.grid.static_mem(device)
    }
}

/// One sweep point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Devices emulated.
    pub devices: u32,
    /// Micro-batches per iteration.
    pub micros: u32,
    /// Instructions emulated (all devices, one iteration).
    pub instrs: u64,
    /// Free-communication makespan, ns.
    pub flat_ns: u64,
    /// The closed-form expectation for [`Row::flat_ns`]:
    /// `(3(D−1) + 3N) · t`.
    pub expect_ns: u64,
    /// Rack-aware makespan, ns.
    pub rack_ns: u64,
    /// Wall-clock time for both runs, ms.
    pub wall_ms: u64,
    /// Emulation rate across both runs, million instructions per second.
    pub mi_per_s: f64,
}

/// Emulates one `devices`-wide 1F1B pipeline, flat and rack-aware.
pub fn run_point(devices: u32) -> Row {
    let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, devices, MICROS));
    let instrs: u64 = (0..devices)
        .map(|d| s.program(DeviceId(d)).len() as u64)
        .sum();
    let cfg = EmulatorConfig::default();
    let grid = UnitCost::paper_grid();
    let start = Instant::now();
    let flat = run(&s, &grid, cfg).expect("flat run completes");
    let rack = run(&s, &RackCost::cluster(), cfg).expect("rack run completes");
    let wall = start.elapsed();
    let expect_ns = (3 * (devices as u64 - 1) + 3 * MICROS as u64) * grid.unit;
    let secs = wall.as_secs_f64();
    Row {
        devices,
        micros: MICROS,
        instrs,
        flat_ns: flat.total_ns,
        expect_ns,
        rack_ns: rack.total_ns,
        wall_ms: wall.as_millis() as u64,
        mi_per_s: if secs > 0.0 {
            (2 * instrs) as f64 / secs / 1e6
        } else {
            0.0
        },
    }
}

/// The sweep: the CI smoke point, or 512 through 4096 devices.
pub fn run_sweep(smoke: bool) -> Vec<Row> {
    let points: &[u32] = if smoke {
        &[512]
    } else {
        &[512, 1024, 2048, 4096]
    };
    points.iter().map(|&d| run_point(d)).collect()
}

/// True when every point matched the closed form and the rack-aware
/// wires strictly lengthened the makespan.
pub fn sound(rows: &[Row]) -> bool {
    !rows.is_empty()
        && rows
            .iter()
            .all(|r| r.flat_ns == r.expect_ns && r.rack_ns > r.flat_ns)
}

/// Renders the sweep table.
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(&[
        "devices", "micros", "instrs", "flat ms", "rack ms", "wall ms", "Minstr/s",
    ]);
    for r in rows {
        t.row(vec![
            r.devices.to_string(),
            r.micros.to_string(),
            r.instrs.to_string(),
            format!("{:.2}", r.flat_ns as f64 / 1e6),
            format!("{:.2}", r.rack_ns as f64 / 1e6),
            r.wall_ms.to_string(),
            format!("{:.1}", r.mi_per_s),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_holds_at_a_small_scale_point() {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 64, 16));
        let flat = run(&s, &UnitCost::paper_grid(), EmulatorConfig::default()).unwrap();
        assert_eq!(flat.total_ns, (3 * 63 + 3 * 16) * 1_000);
    }
}
