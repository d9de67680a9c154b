//! `mario` — command-line front end for the pipeline optimizer.
//!
//! ```text
//! mario generate --scheme V --devices 4 --micros 8 [--mario] [--out s.txt]
//! mario optimize --model gpt3-1.6b --devices 8 --gbs 128 [--mem-gb 40] [--out s.txt]
//! mario simulate --schedule s.txt --model gpt3-1.6b --mbs 2 [--viz] [--trace t.json]
//! mario emulate  --schedule s.txt --model gpt3-1.6b --mbs 2 [--jitter 0.02] [--backend event]
//! ```
//!
//! Schedules travel in the `mario-schedule v1` text format
//! (`mario_ir::text`), so the output of `generate`/`optimize` feeds
//! straight into `simulate`/`emulate` — the AOT workflow of the paper's
//! Listing 1.

use mario::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
mario — near zero-cost activation checkpointing in pipeline parallelism

USAGE:
  mario generate --scheme <G|V|X|W:k|H:k|F|Z|ZV> --devices <D> --micros <N>
                 [--mario] [--out <file>]
  mario optimize --model <name> --devices <D> --gbs <B>
                 [--mem-gb <G>] [--scheme <V|X|W:2>] [--out <file>]
  mario simulate --schedule <file> --model <name> --mbs <M>
                 [--tp <T>] [--viz] [--trace <file>]
  mario emulate  --schedule <file> --model <name> --mbs <M>
                 [--tp <T>] [--jitter <f>] [--iterations <k>]
                 [--backend <thread|event>]

MODELS: gpt3-1.6b | gpt3-13b | llama2-3b | llama2-13b | gpt3-h<hidden>
";

/// Why a command failed. Only a usage error is followed by the usage
/// text; a schedule that does not load or validate, or a run that fails,
/// is reported on its own.
enum Failure {
    /// The command line itself: an unknown command, flag or value.
    Usage(String),
    /// What the command read, ran or wrote.
    Run(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Usage(e)
    }
}

impl From<&str> for Failure {
    fn from(e: &str) -> Self {
        Failure::Usage(e.into())
    }
}

/// A failure of what the command ran, not of how it was called.
fn run_err(e: impl std::fmt::Display) -> Failure {
    Failure::Run(e.to_string())
}

fn parse_model(name: &str) -> Option<ModelConfig> {
    match name {
        "gpt3-1.6b" => Some(ModelConfig::gpt3_1_6b()),
        "gpt3-13b" => Some(ModelConfig::gpt3_13b()),
        "llama2-3b" => Some(ModelConfig::llama2_3b()),
        "llama2-13b" => Some(ModelConfig::llama2_13b()),
        _ => name
            .strip_prefix("gpt3-h")
            .and_then(|h| h.parse().ok())
            .map(ModelConfig::gpt3_scaling),
    }
}

fn parse_scheme(tok: &str) -> Result<SchemeKind, String> {
    let unknown = || format!("unknown scheme '{tok}'");
    match tok {
        "G" => Ok(SchemeKind::GPipe),
        "V" => Ok(SchemeKind::OneFOneB),
        "X" => Ok(SchemeKind::Chimera),
        "F" => Ok(SchemeKind::ForwardOnly),
        "Z" => Ok(SchemeKind::ZeroBubbleH1),
        "ZV" => Ok(SchemeKind::ZeroBubbleV),
        _ => {
            let (l, c) = tok.split_once(':').ok_or_else(unknown)?;
            let chunks: u32 = c.parse().map_err(|_| unknown())?;
            let scheme = match l {
                "W" => SchemeKind::Interleave { chunks },
                "H" => SchemeKind::Wave { chunks },
                _ => return Err(unknown()),
            };
            if chunks == 0 {
                return Err(format!("scheme '{tok}' needs at least one chunk"));
            }
            Ok(scheme)
        }
    }
}

struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    flags.insert(name.to_string(), it.next().unwrap().clone());
                }
                _ => switches.push(name.to_string()),
            }
        }
        Ok(Self { flags, switches })
    }

    fn req(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.req(name)?
            .parse()
            .map_err(|_| format!("bad value for --{name}"))
    }

    fn opt_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{name}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn emit(schedule: &Schedule, out: Option<&String>) -> Result<(), String> {
    let text = mario::ir::to_text(schedule);
    match out {
        Some(path) => std::fs::write(path, text).map_err(|e| e.to_string())?,
        None => print!("{text}"),
    }
    Ok(())
}

/// The channel capacity the CLI runs `schedule` at.
fn capacity(schedule: &Schedule) -> usize {
    mario::core::tuner::scheme_channel_capacity(schedule.topology.scheme)
}

/// Validates `schedule` with its executability checked at the capacity
/// it runs at.
fn check(schedule: &Schedule) -> Result<(), Vec<mario::ir::ValidationError>> {
    let opts = mario::ir::ValidateOptions {
        channel_capacity: capacity(schedule),
    };
    mario::ir::validate_with(schedule, opts)
}

fn load_schedule(args: &Args) -> Result<Schedule, Failure> {
    let path = args.req("schedule")?;
    let text = std::fs::read_to_string(path).map_err(|e| run_err(format!("{path}: {e}")))?;
    let schedule = mario::ir::from_text(&text).map_err(|e| run_err(format!("{path}: {e}")))?;
    check(&schedule)
        .map_err(|e| run_err(format!("{path}: schedule is not well-formed: {}", e[0])))?;
    Ok(schedule)
}

fn cost_for(args: &Args, schedule: &Schedule) -> Result<AnalyticCost, String> {
    let model = parse_model(args.req("model")?).ok_or("unknown model")?;
    let mbs: u32 = args.num("mbs")?;
    let tp: u32 = args.opt_num("tp", 1)?;
    if mbs == 0 || tp == 0 {
        return Err("--mbs and --tp must be at least 1".into());
    }
    let stages = schedule.topology.num_stages();
    if model.layers < stages {
        return Err(format!(
            "{} has {} layers, too few for the schedule's {stages} stages",
            model.name, model.layers
        ));
    }
    let setup = TrainSetup::pipeline(model, GpuSpec::a100_40g(), schedule.topology, mbs)
        .with_tp(tp);
    Ok(AnalyticCost::new(&setup))
}

fn cmd_generate(args: &Args) -> Result<(), Failure> {
    let scheme = parse_scheme(args.req("scheme")?)?;
    let devices: u32 = args.num("devices")?;
    let micros: u32 = args.num("micros")?;
    if devices == 0 || micros == 0 {
        return Err("--devices and --micros must be at least 1".into());
    }
    let cfg = ScheduleConfig::new(scheme, devices, micros);
    cfg.check().map_err(|e| {
        format!(
            "--scheme {} with --devices {devices} --micros {micros}: {e}",
            scheme.shape_letter()
        )
    })?;
    let mut s = generate(cfg);
    if args.has("mario") {
        let cost = UnitCost::paper_grid();
        run_graph_tuner(&mut s, &cost, GraphTunerOptions::mario());
    }
    check(&s).map_err(|e| run_err(format!("generated schedule invalid: {}", e[0])))?;
    emit(&s, args.flags.get("out")).map_err(run_err)
}

fn cmd_optimize(args: &Args) -> Result<(), Failure> {
    let model = parse_model(args.req("model")?).ok_or("unknown model")?;
    let devices: u32 = args.num("devices")?;
    let gbs: u32 = args.num("gbs")?;
    let mem_gb: u64 = args.opt_num("mem-gb", 40)?;
    let memory_per_device = mem_gb
        .checked_mul(1 << 30)
        .ok_or("--mem-gb is too large: the budget overflows 64-bit bytes")?;
    let scheme_choice = match args.flags.get("scheme") {
        None => SchemeChoice::Auto,
        Some(t) => SchemeChoice::Fixed(vec![parse_scheme(t)?]),
    };
    let conf = MarioConfig {
        pipeline_scheme: scheme_choice,
        global_batch_size: gbs,
        num_devices: devices,
        memory_per_device,
    };
    let opt = optimize(&conf, &model, &GpuSpec::a100_40g()).map_err(run_err)?;
    eprintln!(
        "best: {}  ({:.2} samples/s simulated, memory [{:.2}, {:.2}] GB, tuned in {:.0} ms)",
        opt.evaluation.candidate,
        opt.evaluation.throughput,
        opt.evaluation.peak_mem.0 as f64 / (1u64 << 30) as f64,
        opt.evaluation.peak_mem.1 as f64 / (1u64 << 30) as f64,
        opt.tuning_time.as_secs_f64() * 1e3,
    );
    emit(&opt.schedule, args.flags.get("out")).map_err(run_err)
}

fn cmd_simulate(args: &Args) -> Result<(), Failure> {
    let schedule = load_schedule(args)?;
    let cost = cost_for(args, &schedule)?;
    let timeline = simulate_timeline(&schedule, &cost, capacity(&schedule)).map_err(run_err)?;
    let memory = simulate_memory(&schedule, &cost, None);
    println!(
        "iteration: {:.3} ms  ({:.2} iterations/s)",
        timeline.total_ns as f64 / 1e6,
        1e9 / timeline.total_ns as f64
    );
    println!(
        "peak memory: [{:.2}, {:.2}] GB across {} devices",
        memory.min_peak() as f64 / (1u64 << 30) as f64,
        memory.max_peak() as f64 / (1u64 << 30) as f64,
        schedule.devices()
    );
    if args.has("viz") {
        let opts = mario::core::VizOptions {
            ns_per_cell: timeline.total_ns / 120 + 1,
            show_micro_ids: false,
        };
        println!("{}", mario::core::render_ascii(&timeline.spans, &schedule, opts));
    }
    if let Some(path) = args.flags.get("trace") {
        std::fs::write(path, mario::core::chrome_trace(&timeline.spans, &schedule))
            .map_err(run_err)?;
        eprintln!("chrome trace written to {path}");
    }
    Ok(())
}

fn cmd_emulate(args: &Args) -> Result<(), Failure> {
    let schedule = load_schedule(args)?;
    let cost = cost_for(args, &schedule)?;
    let jitter: f64 = args.opt_num("jitter", 0.0)?;
    if !(0.0..=0.25).contains(&jitter) {
        return Err("--jitter must be in [0, 0.25]".into());
    }
    let iterations: u32 = args.opt_num("iterations", 1)?;
    if iterations == 0 {
        return Err("--iterations must be at least 1".into());
    }
    let backend = match args.flags.get("backend").map(String::as_str) {
        None | Some("thread") => EmulatorBackend::Thread,
        Some("event") => EmulatorBackend::Event,
        Some(other) => {
            return Err(format!("--backend must be thread or event, got '{other}'").into())
        }
    };
    let report = mario::cluster::run(
        &schedule,
        &cost,
        EmulatorConfig {
            channel_capacity: capacity(&schedule),
            jitter,
            iterations,
            backend,
            ..Default::default()
        },
    )
    .map_err(run_err)?;
    println!(
        "iteration: {:.3} ms over {} emulated devices",
        report.iter_ns as f64 / 1e6,
        report.device_clocks.len()
    );
    println!(
        "peak memory: [{:.2}, {:.2}] GB",
        report.min_peak_mem() as f64 / (1u64 << 30) as f64,
        report.max_peak_mem() as f64 / (1u64 << 30) as f64
    );
    Ok(())
}

fn run_cli(argv: Vec<String>) -> Result<(), Failure> {
    let Some(cmd) = argv.first() else {
        return Err("no command".into());
    };
    let args = Args::parse(&argv[1..])?;
    match cmd.as_str() {
        "generate" => cmd_generate(&args),
        "optimize" => cmd_optimize(&args),
        "simulate" => cmd_simulate(&args),
        "emulate" => cmd_emulate(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'").into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
