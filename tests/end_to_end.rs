//! Cross-crate end-to-end scenarios: the full `optimize → run` loop, OOM
//! behaviour, fault attribution, and model-scale shape checks.

use mario::prelude::*;
use mario_core::passes::PreposeOptions;

const GIB: u64 = 1 << 30;

#[test]
fn listing1_flow_for_every_preset_model() {
    for model in [
        ModelConfig::gpt3_1_6b(),
        ModelConfig::llama2_3b(),
    ] {
        let conf = MarioConfig::auto(8, 32, 40 * GIB);
        let gpu = GpuSpec::a100_40g();
        let opt = mario::core::optimize(&conf, &model, &gpu)
            .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        validate(&opt.schedule).unwrap_or_else(|e| panic!("{}: {e:?}", model.name));
        let report = mario::core::run(
            &opt,
            EmulatorConfig {
                mem_capacity: Some(conf.memory_per_device),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        assert!(report.total_ns > 0);
        assert!(
            report.max_peak_mem() <= conf.memory_per_device,
            "{}: tuned schedule exceeded the budget",
            model.name
        );
    }
}

#[test]
fn oversized_model_is_rejected_not_mislabeled() {
    // GPT3-13B on 4 tiny-memory devices: nothing fits; the tuner must say
    // so instead of returning a bogus config.
    let conf = MarioConfig::auto(4, 16, 4 * GIB);
    let err = mario::core::optimize(&conf, &ModelConfig::gpt3_13b(), &GpuSpec::a100_40g())
        .unwrap_err();
    assert_eq!(err, mario::core::TuneError::NoFeasibleConfig);
}

#[test]
fn emulator_attributes_oom_to_the_hungriest_device() {
    // 1F1B without checkpointing: device 0 buffers the most activations,
    // so a tight budget must fault there first.
    let model = ModelConfig::gpt3_1_6b();
    let gpu = GpuSpec::a100_40g();
    let topo = Topology::new(SchemeKind::OneFOneB, 4);
    let setup = TrainSetup::pipeline(model, gpu, topo, 2);
    let cost = AnalyticCost::new(&setup);
    let schedule = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 4, 32));

    // Pick a budget between device 3's needs and device 0's needs.
    let mem = simulate_memory(&schedule, &cost, None);
    let budget = (mem.peak[0] + mem.peak[3]) / 2;
    let err = mario::cluster::run(
        &schedule,
        &cost,
        EmulatorConfig {
            mem_capacity: Some(budget),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(err.is_oom(), "{err}");
    assert_eq!(err.device(), DeviceId(0), "{err}");
}

#[test]
fn near_zero_cost_at_13b_scale() {
    // The title claim, end to end on the emulator: V-ovlp on LLaMA2-13B /
    // 32 devices runs within ~10% of V-base (paper: 94.7%), while using a
    // fraction of the memory.
    let model = ModelConfig::llama2_13b();
    let gpu = GpuSpec::a100_40g();
    let topo = Topology::new(SchemeKind::OneFOneB, 32);
    let setup = TrainSetup::pipeline(model, gpu, topo, 2);
    let cost = AnalyticCost::new(&setup);
    let base = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 32, 64));
    let mut ovlp = base.clone();
    run_graph_tuner(
        &mut ovlp,
        &cost,
        GraphTunerOptions {
            prepose_opts: PreposeOptions {
                max_rounds: 2,
                ..Default::default()
            },
            ..GraphTunerOptions::mario()
        },
    );

    let run = |s: &Schedule| {
        mario::cluster::run(s, &cost, EmulatorConfig::default())
            .unwrap()
            .iter_ns as f64
    };
    let t_base = run(&base);
    let t_ovlp = run(&ovlp);
    assert!(
        t_ovlp / t_base < 1.12,
        "ovlp should be near zero-cost: {:.1}% slower",
        (t_ovlp / t_base - 1.0) * 100.0
    );

    let m_base = simulate_memory(&base, &cost, None);
    let m_ovlp = simulate_memory(&ovlp, &cost, None);
    assert!(m_ovlp.max_peak() * 3 < m_base.max_peak());
}

#[test]
fn profiled_cost_drives_the_full_pipeline() {
    // Profiling -> estimators -> simulator -> tuner decisions, as in §5.2.
    let model = ModelConfig::gpt3_1_6b();
    let gpu = GpuSpec::a100_40g();
    let topo = Topology::new(SchemeKind::OneFOneB, 8);
    let setup = TrainSetup::pipeline(model, gpu, topo, 2);
    let (profiled, report) =
        mario::model::profile_and_build(&setup, mario::model::ProfilerConfig::default());
    assert!(report.fwd.a > 0.0);

    let schedule = generate(ScheduleConfig::new(SchemeKind::OneFOneB, 8, 32));
    let t = simulate_timeline(&schedule, &profiled, 1).unwrap();
    let analytic = AnalyticCost::new(&setup);
    let t2 = simulate_timeline(&schedule, &analytic, 1).unwrap();
    let rel = (t.total_ns as f64 - t2.total_ns as f64).abs() / t2.total_ns as f64;
    assert!(rel < 0.10, "profiled vs analytic diverge by {:.1}%", rel * 100.0);
}

#[test]
fn visualization_round_trip() {
    let conf = MarioConfig::auto(4, 16, 40 * GIB);
    let opt = mario::core::optimize(&conf, &ModelConfig::gpt3_1_6b(), &GpuSpec::a100_40g())
        .unwrap();
    let sim = opt.simulate();
    let ascii = mario::core::render_ascii(
        &sim.spans,
        &opt.schedule,
        mario::core::VizOptions {
            ns_per_cell: sim.total_ns / 100 + 1,
            show_micro_ids: false,
        },
    );
    assert_eq!(ascii.lines().count() as u32, opt.evaluation.candidate.pp);
    let svg = mario::core::render_svg(
        &sim.spans,
        &opt.schedule,
        mario::core::VizOptions {
            ns_per_cell: sim.total_ns / 500 + 1,
            show_micro_ids: false,
        },
    );
    assert!(svg.contains("<rect"));
}

#[test]
fn schedules_serialize_round_trip() {
    // Schedules are the AOT artifact Mario hands to the runtime; they must
    // survive serialization (serde_json via serde's derives is not in the
    // dependency set, so exercise the IR's own equality instead).
    let s = generate(ScheduleConfig::new(SchemeKind::Chimera, 4, 8));
    let cloned = s.clone();
    assert_eq!(s, cloned);
    // Programs are independently addressable and order-stable.
    for d in 0..4u32 {
        assert_eq!(
            s.program(DeviceId(d)).instrs(),
            cloned.program(DeviceId(d)).instrs()
        );
    }
}
