//! Pipeline visualization (paper §5.2 "Visualization", Fig. 5): render a
//! span graph — simulated or emulated — as an ASCII Gantt chart or an SVG
//! document, so users can inspect bubble distribution and checkpoint
//! placement instead of staring at throughput numbers.

use crate::trace::span_instr;
use mario_ir::{Instr, InstrKind, Nanos, OpSpan, Schedule, SpanGraph};

/// Rendering options.
#[derive(Debug, Clone, Copy)]
pub struct VizOptions {
    /// Virtual nanoseconds per character cell (ASCII) / per pixel (SVG).
    pub ns_per_cell: Nanos,
    /// Show micro-batch digits instead of instruction-class letters.
    pub show_micro_ids: bool,
}

impl Default for VizOptions {
    fn default() -> Self {
        Self {
            ns_per_cell: 1_000,
            show_micro_ids: false,
        }
    }
}

/// The class glyph and SVG fill of a compute instruction; communication
/// and collectives are not drawn (zero-width in the unit grid), and
/// neither are checkpoint writes.
fn class_of(instr: Instr) -> Option<(char, &'static str)> {
    Some(match instr.kind {
        // Checkpointed forward: light blue; forward: blue.
        InstrKind::Forward { ckpt: true } => ('f', "#7fb3d5"),
        InstrKind::Forward { ckpt: false } => ('F', "#2e86c1"),
        // Split backward: dark green input half, pale green weight half.
        InstrKind::BackwardInput => ('b', "#1e8449"),
        InstrKind::BackwardWeight => ('w', "#a9dfbf"),
        // Backward: green; recompute: orange.
        InstrKind::Backward => ('B', "#27ae60"),
        InstrKind::Recompute => ('R', "#e67e22"),
        _ => return None,
    })
}

fn glyph(instr: Instr, show_micro: bool) -> Option<char> {
    let (class, _) = class_of(instr)?;
    Some(if show_micro {
        char::from_digit(instr.micro.0 % 10, 10).unwrap()
    } else {
        class
    })
}

/// The instruction spans of `spans`, each with its instruction, in
/// timeline order: stably sorted by `(start, device)`,
/// so each device's spans stay in program order.
fn drawn<'a>(spans: &'a SpanGraph, schedule: &Schedule) -> Vec<(&'a OpSpan, Instr)> {
    let mut all: Vec<(&OpSpan, Instr)> = spans
        .per_device
        .iter()
        .flatten()
        .filter_map(|s| span_instr(schedule, s).map(|i| (s, i)))
        .collect();
    all.sort_by_key(|(s, _)| (s.start, s.device.0));
    all
}

/// Renders an ASCII Gantt chart of `spans`, executed from `schedule`: one
/// row per device, `.` for bubbles.
pub fn render_ascii(spans: &SpanGraph, schedule: &Schedule, opts: VizOptions) -> String {
    let devices = schedule.devices() as usize;
    let width = (spans.makespan / opts.ns_per_cell) as usize + 1;
    let mut grid = vec![vec!['.'; width]; devices];
    for (e, instr) in drawn(spans, schedule) {
        let Some(g) = glyph(instr, opts.show_micro_ids) else {
            continue;
        };
        let s = (e.start / opts.ns_per_cell) as usize;
        let t = (e.end / opts.ns_per_cell) as usize;
        for cell in grid[e.device.index()].iter_mut().take(t.max(s + 1)).skip(s) {
            *cell = g;
        }
    }
    let mut out = String::new();
    for (d, row) in grid.iter().enumerate() {
        out.push_str(&format!("d{d}: "));
        // Trim trailing idle cells.
        let last = row
            .iter()
            .rposition(|&c| c != '.')
            .map(|p| p + 1)
            .unwrap_or(0);
        out.extend(row[..last].iter());
        out.push('\n');
    }
    out
}

/// Renders a minimal SVG Gantt chart of `spans`, executed from
/// `schedule`.
pub fn render_svg(spans: &SpanGraph, schedule: &Schedule, opts: VizOptions) -> String {
    let devices = schedule.devices() as usize;
    let row_h = 22u64;
    let width = spans.makespan / opts.ns_per_cell + 40;
    let height = devices as u64 * row_h + 10;
    let mut out = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">"#
    );
    for (e, instr) in drawn(spans, schedule) {
        let Some((_, color)) = class_of(instr) else {
            continue;
        };
        let x = e.start / opts.ns_per_cell + 30;
        let w = ((e.end - e.start) / opts.ns_per_cell).max(1);
        let y = e.device.0 as u64 * row_h + 4;
        out.push_str(&format!(
            r##"<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{color}" stroke="#333" stroke-width="0.5"><title>{t}</title></rect>"##,
            h = row_h - 6,
            t = instr
        ));
    }
    for d in 0..devices {
        out.push_str(&format!(
            r#"<text x="2" y="{y}" font-size="10">d{d}</text>"#,
            y = d as u64 * row_h + 16
        ));
    }
    out.push_str("</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{simulate, simulate_timeline, SimOptions};
    use mario_ir::{SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    /// The ASCII Gantt of `scheme` on `d` devices with `n` micros, unit
    /// grid, capacity 1.
    fn ascii(scheme: SchemeKind, d: u32, n: u32, opts: VizOptions) -> String {
        let s = generate(ScheduleConfig::new(scheme, d, n));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        render_ascii(&t.spans, &s, opts)
    }

    fn svg(scheme: SchemeKind, d: u32, n: u32) -> String {
        let s = generate(ScheduleConfig::new(scheme, d, n));
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        render_svg(&t.spans, &s, VizOptions::default())
    }

    #[test]
    fn ascii_has_one_row_per_device() {
        let a = ascii(SchemeKind::OneFOneB, 3, 3, VizOptions::default());
        assert_eq!(a.lines().count(), 3);
        assert!(a.contains('F'));
        assert!(a.contains('B'));
    }

    #[test]
    fn last_device_starts_with_bubbles() {
        let a = ascii(SchemeKind::OneFOneB, 3, 3, VizOptions::default());
        let last = a.lines().last().unwrap();
        // 1F1B: device 2 idles 2 cells before its first forward.
        assert!(last.starts_with("d2: ..F"), "{last}");
    }

    #[test]
    fn micro_id_mode_uses_digits() {
        let a = ascii(
            SchemeKind::OneFOneB,
            3,
            3,
            VizOptions {
                show_micro_ids: true,
                ..Default::default()
            },
        );
        assert!(a.contains('0'));
        assert!(a.contains('2'));
        assert!(!a.contains('F'));
    }

    #[test]
    fn checkpointed_timeline_shows_recomputes() {
        let mut s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 3));
        crate::passes::apply_checkpoint(&mut s);
        let t = simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap();
        let a = render_ascii(&t.spans, &s, VizOptions::default());
        assert!(a.contains('R'), "{a}");
        assert!(a.contains('f'), "{a}");
    }

    /// FNV-1a over the rendered bytes: pins a long document compactly.
    fn digest(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// 4×4 on the unit grid, for the schemes whose glyphs the pins cover:
    /// 1F1B (`F`/`B`) and ZB-H1 (`F`/`b`/`w`).
    #[test]
    fn ascii_pins_1f1b_and_zb_h1() {
        let micro = VizOptions {
            show_micro_ids: true,
            ..Default::default()
        };
        let one = |opts| ascii(SchemeKind::OneFOneB, 4, 4, opts);
        let zb = |opts| ascii(SchemeKind::ZeroBubbleH1, 4, 4, opts);
        assert_eq!(
            one(VizOptions::default()),
            concat!(
                "d0: FFFF......BB.BB.BB.BB\n",
                "d1: .FFF....BBFBB.BB.BB\n",
                "d2: ..FF..BBFBBFBB.BB\n",
                "d3: ...FBBFBBFBBFBB\n",
            )
        );
        assert_eq!(
            one(micro),
            concat!(
                "d0: 0123......00.11.22.33\n",
                "d1: .012....00311.22.33\n",
                "d2: ..01..00211322.33\n",
                "d3: ...000111222333\n",
            )
        );
        assert_eq!(
            zb(VizOptions::default()),
            concat!(
                "d0: FFFF...bw.bw.bw.bw\n",
                "d1: .FFF..bwFbw.bw.bw\n",
                "d2: ..FF.bwFbwFbw.bw\n",
                "d3: ...FbwFbwFbwFbw\n",
            )
        );
        assert_eq!(
            zb(micro),
            concat!(
                "d0: 0123...00.11.22.33\n",
                "d1: .012..00311.22.33\n",
                "d2: ..01.00211322.33\n",
                "d3: ...000111222333\n",
            )
        );
    }

    #[test]
    fn svg_pins_1f1b_and_zb_h1() {
        for (scheme, len, hash) in [
            (SchemeKind::OneFOneB, 3945usize, 0xb88f_8f67_5d94_a98bu64),
            (SchemeKind::ZeroBubbleH1, 5829, 0x0aee_82d5_d48b_fcda),
        ] {
            let svg = svg(scheme, 4, 4);
            assert_eq!((svg.len(), digest(&svg)), (len, hash), "{scheme:?}: {svg}");
        }
    }

    /// Chimera 2×2 at capacity 2, two iterations, sharded async
    /// checkpoint writes: both parts and CKPT spans in one timeline.
    #[test]
    fn ascii_and_svg_pin_checkpointed_chimera_2x2() {
        use mario_ir::{CheckpointPolicy, ShardedWrite};
        let s = generate(ScheduleConfig::new(SchemeKind::Chimera, 2, 2));
        let cost = UnitCost::paper_grid().with_shard_bytes(60_000);
        let sim = SimOptions {
            channel_capacity: 2,
            iterations: 2,
            checkpoint: Some(
                CheckpointPolicy::every(1)
                    .with_sharded(ShardedWrite::new(2_000, 500).with_async_overlap()),
            ),
            ..SimOptions::default()
        };
        let t = simulate(&s, &cost, &sim).unwrap();
        let opts = VizOptions {
            ns_per_cell: 500,
            ..Default::default()
        };
        assert_eq!(
            render_ascii(&t.spans, &s, opts),
            concat!(
                "d0: FFFFBBBBBBBBFFFFBBBBBBBB\n",
                "d1: FFFFBBBBBBBBFFFFBBBBBBBB\n",
            )
        );
        let svg = render_svg(&t.spans, &s, opts);
        assert_eq!((svg.len(), digest(&svg)), (2004, 0x2442_e00a_a2f6_200a), "{svg}");
    }

    #[test]
    fn svg_is_well_formed_enough() {
        let svg = svg(SchemeKind::OneFOneB, 3, 3);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.matches("<rect").count() >= 9); // 3 devices × 3 F + B
    }
}
