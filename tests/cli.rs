//! End-to-end tests of the `mario` CLI: generate → simulate → emulate
//! through the text format, plus error handling.

use std::process::Command;

fn mario() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mario"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("mario-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

#[test]
fn generate_emits_parseable_schedules() {
    let out = mario()
        .args(["generate", "--scheme", "V", "--devices", "4", "--micros", "8"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    let s = mario::ir::from_text(&text).unwrap();
    assert_eq!(s.devices(), 4);
    assert_eq!(s.micros, 8);
    mario::ir::validate(&s).unwrap();
}

#[test]
fn generate_mario_flag_applies_checkpointing() {
    let out = mario()
        .args([
            "generate", "--scheme", "V", "--devices", "4", "--micros", "8", "--mario",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let s = mario::ir::from_text(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert!(s.has_checkpointing());
}

#[test]
fn generate_simulate_emulate_round_trip() {
    let path = tmp("roundtrip.txt");
    let out = mario()
        .args([
            "generate",
            "--scheme",
            "X",
            "--devices",
            "4",
            "--micros",
            "8",
            "--mario",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let sim = mario()
        .args([
            "simulate",
            "--schedule",
            path.to_str().unwrap(),
            "--model",
            "gpt3-1.6b",
            "--mbs",
            "2",
            "--viz",
        ])
        .output()
        .unwrap();
    assert!(sim.status.success(), "{}", String::from_utf8_lossy(&sim.stderr));
    let text = String::from_utf8(sim.stdout).unwrap();
    assert!(text.contains("iteration:"), "{text}");
    assert!(text.contains("peak memory:"));
    assert!(text.contains("d0:"), "viz row missing: {text}");

    let emu = mario()
        .args([
            "emulate",
            "--schedule",
            path.to_str().unwrap(),
            "--model",
            "gpt3-1.6b",
            "--mbs",
            "2",
            "--jitter",
            "0.02",
        ])
        .output()
        .unwrap();
    assert!(emu.status.success(), "{}", String::from_utf8_lossy(&emu.stderr));
    assert!(String::from_utf8_lossy(&emu.stdout).contains("emulated devices"));
}

#[test]
fn wave_schedules_validate_at_the_capacity_they_run_at() {
    // Wave at 8×16 deadlocks at channel capacity 1 and runs at its
    // scheme's capacity 2: every command checks it at the latter.
    let path = tmp("wave.txt");
    let p = path.to_str().unwrap();
    let gen = ["generate", "--scheme", "H:2", "--devices", "8", "--micros", "16"];
    let out = mario().args(gen).args(["--out", p]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let run = ["--schedule", p, "--model", "gpt3-1.6b", "--mbs", "1"];
    for cmd in ["simulate", "emulate"] {
        let out = mario().arg(cmd).args(run).output().unwrap();
        assert!(out.status.success(), "{cmd}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.starts_with("iteration: "), "{cmd}: {text}");
    }
}

#[test]
fn simulate_writes_chrome_traces() {
    let sched = tmp("trace-sched.txt");
    let trace = tmp("trace.json");
    assert!(mario()
        .args([
            "generate", "--scheme", "V", "--devices", "2", "--micros", "4", "--out",
            sched.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    assert!(mario()
        .args([
            "simulate",
            "--schedule",
            sched.to_str().unwrap(),
            "--model",
            "gpt3-1.6b",
            "--mbs",
            "1",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    let json = std::fs::read_to_string(&trace).unwrap();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"cat\":\"forward\""));
}

#[test]
fn optimize_produces_a_runnable_schedule() {
    let path = tmp("optimized.txt");
    let out = mario()
        .args([
            "optimize", "--model", "gpt3-1.6b", "--devices", "4", "--gbs", "16",
            "--scheme", "V", "--out", path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("best: V-"), "{stderr}");
    let s = mario::ir::from_text(&std::fs::read_to_string(&path).unwrap()).unwrap();
    mario::ir::validate(&s).unwrap();
}

#[test]
fn bad_input_fails_with_usage() {
    let out = mario().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));

    let out = mario()
        .args(["generate", "--scheme", "Q", "--devices", "2", "--micros", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scheme"));
}

#[test]
fn a_schedule_that_fails_validation_is_reported_without_usage() {
    let path = tmp("invalid.txt");
    let p = path.to_str().unwrap();
    let gen = ["generate", "--scheme", "V", "--devices", "2", "--micros", "2", "--out", p];
    assert!(mario().args(gen).status().unwrap().success());
    // Device 1 sends micro 1's gradient without running its backward.
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains(" B1^0 SG1^0>d0"), "{text}");
    std::fs::write(&path, text.replace(" B1^0 SG1^0>d0", " SG1^0>d0")).unwrap();
    for cmd in ["simulate", "emulate"] {
        let args = [cmd, "--schedule", p, "--model", "gpt3-1.6b", "--mbs", "1"];
        rejects(&args, "schedule is not well-formed");
        let err = String::from_utf8(mario().args(args).output().unwrap().stderr).unwrap();
        assert!(!err.contains("USAGE"), "{err}");
    }
}

#[test]
fn simulate_names_every_blocked_device_of_a_schedule_that_deadlocks() {
    // d0 waits for micro 0's gradient before sending its activation: a
    // well-formed schedule that only the deadlock check rejects.
    let text = "mario-schedule v1\nscheme V devices 2 micros 2\nroutes 0 0\n\
                d0: F0^0 RG0^0<d1 SA0^0>d1 F1^0 SA1^0>d1 B0^0 RG1^0<d1 B1^0 OS\n\
                d1: RA0^0<d0 F0^0 B0^0 SG0^0>d0 RA1^0<d0 F1^0 B1^0 SG1^0>d0 OS\n";
    let errors = mario::ir::validate(&mario::ir::from_text(text).unwrap()).unwrap_err();
    assert!(
        matches!(errors[..], [mario::ir::ValidationError::NotExecutable(_)]),
        "{errors:?}"
    );
    let path = tmp("deadlock.txt");
    std::fs::write(&path, text).unwrap();
    let p = path.to_str().unwrap();
    let args = ["simulate", "--schedule", p, "--model", "gpt3-1.6b", "--mbs", "1"];
    let out = mario().args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8(out.stderr).unwrap(),
        format!(
            "error: {p}: schedule is not well-formed: schedule not executable: deadlock; \
             blocked devices: [d0 at #1: RG0^0<d1] [d1 at #0: RA0^0<d0]\n"
        )
    );
}

#[test]
fn simulate_reports_a_hostile_schedule_header_without_panicking() {
    // Chimera on an odd device count: a header the parser must reject
    // before it builds the topology.
    let path = tmp("odd-chimera.txt");
    std::fs::write(
        &path,
        "mario-schedule v1\nscheme X devices 3 micros 2\nroutes 0 1\nd0:\nd1:\nd2:\n",
    )
    .unwrap();
    let out = mario()
        .args([
            "simulate",
            "--schedule",
            path.to_str().unwrap(),
            "--model",
            "gpt3-1.6b",
            "--mbs",
            "2",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("line 2: Chimera requires an even number of devices"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn emulate_rejects_headers_its_instructions_do_not_fill() {
    // Each header parses; sized by its counts alone, the checks would
    // need gigabytes or list millions of errors for a few bytes of text.
    let cases = [
        (
            "scheme W:20000000 devices 4 micros 1\nroutes 0\nd0:\nd1:\nd2:\nd3:\n",
            "0 instructions cannot hold the 80000000 forwards",
        ),
        (
            "scheme W:1000000 devices 4 micros 1\nroutes 0\nd0:\nd1:\nd2:\nd3:\n",
            "0 instructions cannot hold the 4000000 forwards",
        ),
        (
            "scheme W:4000000000 devices 1 micros 0\nroutes\nd0:\n",
            "128 layers, too few for the schedule's 4000000000 stages",
        ),
    ];
    for (i, (body, what)) in cases.into_iter().enumerate() {
        let path = tmp(&format!("inflated-{i}.txt"));
        std::fs::write(&path, format!("mario-schedule v1\n{body}")).unwrap();
        let path = path.to_str().unwrap();
        let args = [
            "emulate",
            "--schedule",
            path,
            "--model",
            "gpt3-1.6b",
            "--mbs",
            "2",
        ];
        rejects(&args, what);
    }
}

/// Runs `mario` with `args` and asserts it exits 1, without panicking,
/// on an `error:` line that mentions `what`.
fn rejects(args: &[&str], what: &str) {
    let out = mario().args(args).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.lines().any(|l| l.starts_with("error:") && l.contains(what)),
        "{err}"
    );
}

#[test]
fn generate_rejects_zero_interleave_chunks() {
    let args = ["generate", "--scheme", "W:0", "--devices", "2", "--micros", "4"];
    rejects(&args, "'W:0' needs at least one chunk");
}

#[test]
fn generate_rejects_zero_waves() {
    let args = ["generate", "--scheme", "H:0", "--devices", "2", "--micros", "4"];
    rejects(&args, "'H:0' needs at least one chunk");
}

#[test]
fn generate_rejects_sizes_its_scheme_cannot_take() {
    for (scheme, devices, micros, what) in [
        ("X", "3", "4", "--devices 3 --micros 4: Chimera requires an even number of devices"),
        ("X", "4", "3", "--devices 4 --micros 3: Chimera requires an even micro-batch count"),
        ("W:2", "4", "6", "--devices 4 --micros 6: Interleave requires micros (6)"),
    ] {
        let args = ["generate", "--scheme", scheme, "--devices", devices, "--micros", micros];
        rejects(&args, what);
    }
}

#[test]
fn simulate_and_emulate_reject_zero_tensor_parallelism() {
    let path = tmp("tp0.txt");
    let p = path.to_str().unwrap();
    let gen = ["generate", "--scheme", "V", "--devices", "2", "--micros", "2", "--out", p];
    assert!(mario().args(gen).status().unwrap().success());
    for cmd in ["simulate", "emulate"] {
        let args = [cmd, "--schedule", p, "--model", "gpt3-1.6b", "--mbs", "1", "--tp", "0"];
        rejects(&args, "--tp must be at least 1");
    }
}

#[test]
fn simulate_rejects_a_zero_micro_batch_size() {
    let path = tmp("mbs0.txt");
    let p = path.to_str().unwrap();
    let gen = ["generate", "--scheme", "V", "--devices", "2", "--micros", "2", "--out", p];
    assert!(mario().args(gen).status().unwrap().success());
    let args = ["simulate", "--schedule", p, "--model", "gpt3-1.6b", "--mbs", "0"];
    rejects(&args, "--mbs and --tp must be at least 1");
}

#[test]
fn optimize_rejects_a_memory_budget_that_overflows() {
    let args = [
        "optimize", "--model", "gpt3-1.6b", "--devices", "4", "--gbs", "16", "--mem-gb",
        "17179869184",
    ];
    rejects(&args, "--mem-gb is too large");
}
