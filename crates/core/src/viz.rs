//! Pipeline visualization (paper §5.2 "Visualization", Fig. 5): render a
//! simulated timeline as an ASCII Gantt chart or an SVG document, so users
//! can inspect bubble distribution and checkpoint placement instead of
//! staring at throughput numbers.

use crate::simulator::SimTimeline;
use mario_ir::{Instr, InstrKind, Nanos};

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

/// Renders an ASCII Gantt chart: one row per device, `.` for bubbles.
pub fn render_ascii(timeline: &SimTimeline, opts: VizOptions) -> String {
    let devices = timeline.device_clocks.len();
    let width = (timeline.total_ns / opts.ns_per_cell) as usize + 1;
    let mut grid = vec![vec!['.'; width]; devices];
    for e in &timeline.events {
        let Some(g) = e.instr.and_then(|i| glyph(i, opts.show_micro_ids)) else {
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

/// Renders a minimal SVG Gantt chart.
pub fn render_svg(timeline: &SimTimeline, opts: VizOptions) -> String {
    let devices = timeline.device_clocks.len();
    let row_h = 22u64;
    let width = timeline.total_ns / opts.ns_per_cell + 40;
    let height = devices as u64 * row_h + 10;
    let mut out = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">"#
    );
    for e in &timeline.events {
        let Some((_, color)) = e.instr.and_then(class_of) else {
            continue;
        };
        let x = e.start / opts.ns_per_cell + 30;
        let w = ((e.end - e.start) / opts.ns_per_cell).max(1);
        let y = e.device.0 as u64 * row_h + 4;
        out.push_str(&format!(
            r##"<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{color}" stroke="#333" stroke-width="0.5"><title>{t}</title></rect>"##,
            h = row_h - 6,
            t = e.name()
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
    use crate::simulator::simulate_timeline;
    use mario_ir::{SchemeKind, UnitCost};
    use mario_schedules::{generate, ScheduleConfig};

    fn timeline() -> SimTimeline {
        let s = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 3, 3));
        simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap()
    }

    #[test]
    fn ascii_has_one_row_per_device() {
        let a = render_ascii(&timeline(), VizOptions::default());
        assert_eq!(a.lines().count(), 3);
        assert!(a.contains('F'));
        assert!(a.contains('B'));
    }

    #[test]
    fn last_device_starts_with_bubbles() {
        let a = render_ascii(&timeline(), VizOptions::default());
        let last = a.lines().last().unwrap();
        // 1F1B: device 2 idles 2 cells before its first forward.
        assert!(last.starts_with("d2: ..F"), "{last}");
    }

    #[test]
    fn micro_id_mode_uses_digits() {
        let a = render_ascii(
            &timeline(),
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
        let a = render_ascii(&t, VizOptions::default());
        assert!(a.contains('R'), "{a}");
        assert!(a.contains('f'), "{a}");
    }

    /// 4×4 on the unit grid, for the schemes whose glyphs the pins cover:
    /// 1F1B (`F`/`B`) and ZB-H1 (`F`/`b`/`w`).
    fn grid_timeline(scheme: SchemeKind) -> SimTimeline {
        let s = generate(ScheduleConfig::new(scheme, 4, 4));
        simulate_timeline(&s, &UnitCost::paper_grid(), 1).unwrap()
    }

    /// FNV-1a over the rendered bytes: pins a long document compactly.
    fn digest(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn ascii_pins_1f1b_and_zb_h1() {
        let micro = VizOptions {
            show_micro_ids: true,
            ..Default::default()
        };
        let one = grid_timeline(SchemeKind::OneFOneB);
        assert_eq!(
            render_ascii(&one, VizOptions::default()),
            concat!(
                "d0: FFFF......BB.BB.BB.BB\n",
                "d1: .FFF....BBFBB.BB.BB\n",
                "d2: ..FF..BBFBBFBB.BB\n",
                "d3: ...FBBFBBFBBFBB\n",
            )
        );
        assert_eq!(
            render_ascii(&one, micro),
            concat!(
                "d0: 0123......00.11.22.33\n",
                "d1: .012....00311.22.33\n",
                "d2: ..01..00211322.33\n",
                "d3: ...000111222333\n",
            )
        );
        let zb = grid_timeline(SchemeKind::ZeroBubbleH1);
        assert_eq!(
            render_ascii(&zb, VizOptions::default()),
            concat!(
                "d0: FFFF...bw.bw.bw.bw\n",
                "d1: .FFF..bwFbw.bw.bw\n",
                "d2: ..FF.bwFbwFbw.bw\n",
                "d3: ...FbwFbwFbwFbw\n",
            )
        );
        assert_eq!(
            render_ascii(&zb, micro),
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
            let svg = render_svg(&grid_timeline(scheme), VizOptions::default());
            assert_eq!((svg.len(), digest(&svg)), (len, hash), "{scheme:?}: {svg}");
        }
    }

    #[test]
    fn svg_is_well_formed_enough() {
        let svg = render_svg(&timeline(), VizOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.matches("<rect").count() >= 9); // 3 devices × 3 F + B
    }
}
