//! Visualize pipeline schedules (paper Fig. 5): ASCII Gantt charts for
//! V/X/W pipelines with and without Mario's checkpointing, plus SVG files
//! written next to the binary output.
//!
//! Legend: `F` forward, `f` checkpointed forward, `B` backward,
//! `R` recompute, `.` bubble.
//!
//! ```sh
//! cargo run --release --example visualize_pipeline
//! ```

use mario::prelude::*;
use mario_core::viz::{render_ascii, render_svg, VizOptions};

fn show(scheme: SchemeKind, devices: u32, micros: u32) {
    let cost = UnitCost::paper_grid();
    let cap = if matches!(scheme, SchemeKind::Wave { .. }) { 2 } else { 1 };

    let base = generate(ScheduleConfig::new(scheme, devices, micros));
    let t = simulate_timeline(&base, &cost, cap).unwrap();
    println!(
        "== {:?} (D={devices}, N={micros}) — baseline, {}t ==",
        scheme,
        t.total_ns / 1000
    );
    println!("{}", render_ascii(&t.spans, &base, VizOptions::default()));

    let mut mario = base.clone();
    run_graph_tuner(&mut mario, &cost, GraphTunerOptions::mario());
    let tm = simulate_timeline(&mario, &cost, cap).unwrap();
    println!(
        "== {:?} — with Mario checkpointing, {}t ==",
        scheme,
        tm.total_ns / 1000
    );
    println!("{}", render_ascii(&tm.spans, &mario, VizOptions::default()));

    let name = format!(
        "pipeline_{}_d{devices}_n{micros}.svg",
        scheme.shape_letter()
    );
    let svg = render_svg(&tm.spans, &mario, VizOptions::default());
    std::fs::write(&name, svg).expect("write svg");
    println!("(SVG written to {name})\n");
}

fn main() {
    show(SchemeKind::OneFOneB, 4, 6);
    show(SchemeKind::Chimera, 4, 4);
    show(SchemeKind::Interleave { chunks: 2 }, 4, 8);
}
