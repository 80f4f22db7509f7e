//! End-to-end test of the `retimer` command line tool: write a
//! netlist, run the binary, check the outputs it produces.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_retimer")
}

fn workdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("retimer_cli_{}_{}", std::process::id(), tag));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn retimer_round_trips_a_bench_file() {
    let dir = workdir("bench");
    let input = dir.join("demo.bench");
    let output = dir.join("demo_retimed.bench");
    let report = dir.join("report.csv");

    let circuit = netlist::generator::GeneratorConfig::new("cli_demo", 31)
        .gates(120)
        .registers(24)
        .build();
    netlist::bench_format::write_file(&circuit, &input).expect("write input");

    let status = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--out",
            output.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
            "--vectors",
            "256",
            "--frames",
            "6",
        ])
        .output()
        .expect("run retimer");
    assert!(
        status.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&status.stdout),
        String::from_utf8_lossy(&status.stderr)
    );
    let stdout = String::from_utf8_lossy(&status.stdout);
    assert!(stdout.contains("minobswin"), "{stdout}");
    assert!(stdout.contains("SER_ref / SER_new"), "{stdout}");

    // The retimed netlist parses and has registers.
    let rebuilt = netlist::bench_format::read_file(&output).expect("re-read output");
    assert!(rebuilt.num_registers() > 0);

    // The CSV report has a header and one row.
    let csv = std::fs::read_to_string(&report).expect("read report");
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 2, "{csv}");
    assert!(lines[0].starts_with("circuit,"));
    assert!(lines[1].starts_with("demo"), "{csv}"); // circuit named from the file stem

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retimer_writes_verilog_output() {
    let dir = workdir("verilog");
    let input = dir.join("demo2.bench");
    let output = dir.join("demo2.v");
    let circuit = netlist::samples::pipeline(9, 3);
    netlist::bench_format::write_file(&circuit, &input).expect("write input");

    let status = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--method",
            "minobswin",
            "--out",
            output.to_str().unwrap(),
            "--vectors",
            "256",
            "--frames",
            "6",
            "--no-equiv",
        ])
        .output()
        .expect("run retimer");
    assert!(status.status.success());
    let rebuilt = netlist::verilog::read_file(&output).expect("verilog parses back");
    assert!(rebuilt.num_registers() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retimer_fault_sim_scores_before_and_after() {
    let dir = workdir("faultsim");
    let input = dir.join("fs_demo.bench");
    let circuit = netlist::generator::GeneratorConfig::new("fs_demo", 17)
        .gates(80)
        .registers(12)
        .build();
    netlist::bench_format::write_file(&circuit, &input).expect("write input");

    let run = |args: &[&str]| {
        Command::new(bin())
            .arg("fault-sim")
            .arg(input.to_str().unwrap())
            .args(args)
            .args(["--vectors", "256", "--frames", "6", "--injections", "20000"])
            .output()
            .expect("run retimer fault-sim")
    };

    let out = run(&["--workers", "2", "--campaign-seed", "7"]);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("== original =="), "{stdout}");
    assert!(stdout.contains("== retimed (minobswin) =="), "{stdout}");
    assert!(stdout.contains("cross-check"), "{stdout}");
    assert!(stdout.contains("empirical SER change"), "{stdout}");

    // Same seed and worker count ⇒ identical output (the campaign is
    // deterministic; the analytic side already is).
    let again = run(&["--workers", "2", "--campaign-seed", "7"]);
    assert_eq!(stdout, String::from_utf8_lossy(&again.stdout));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retimer_fault_sim_rejects_bad_method() {
    let status = Command::new(bin())
        .args(["fault-sim", "whatever.bench", "--method", "bogus"])
        .output()
        .expect("run retimer");
    assert!(!status.status.success());
}

#[test]
fn retimer_rejects_unknown_format() {
    let status = Command::new(bin())
        .arg("nonexistent.xyz")
        .output()
        .expect("run retimer");
    assert!(!status.status.success());
}

#[test]
fn retimer_exits_one_on_infeasible_instance() {
    // The stable-exit-code contract: 1 = infeasible instance. §V always
    // derives a bound the starting retiming satisfies, so the --r-min
    // override is the supported lever for driving the solver into
    // infeasibility on a perfectly valid netlist.
    let dir = workdir("infeasible");
    let input = dir.join("infeasible.bench");
    let circuit = netlist::samples::pipeline(9, 3);
    netlist::bench_format::write_file(&circuit, &input).expect("write input");

    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--vectors",
            "64",
            "--frames",
            "4",
            "--r-min",
            "1000000",
        ])
        .output()
        .expect("run retimer");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("infeasible"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retimer_exits_two_on_usage_error() {
    // 2 = usage error: an unknown flag.
    let out = Command::new(bin())
        .args(["input.bench", "--definitely-not-a-flag"])
        .output()
        .expect("run retimer");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));

    // 2 also covers a missing input argument entirely.
    let out = Command::new(bin()).output().expect("run retimer");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn retimer_exits_four_when_the_iteration_budget_expires() {
    // 4 = budget exceeded: a degraded-but-feasible retiming was still
    // emitted. One iteration is never enough to reach local optimality
    // on this instance, so the stop is deterministic.
    let dir = workdir("budget_iters");
    let input = dir.join("budget.bench");
    let output = dir.join("budget_out.bench");
    let circuit = netlist::generator::GeneratorConfig::new("budget", 53)
        .gates(200)
        .registers(30)
        .build();
    netlist::bench_format::write_file(&circuit, &input).expect("write input");

    let out = Command::new(bin())
        .args([
            "solve", // the explicit subcommand alias
            input.to_str().unwrap(),
            "--method",
            "minobswin",
            "--out",
            output.to_str().unwrap(),
            "--max-iters",
            "1",
            "--vectors",
            "64",
            "--frames",
            "4",
            "--no-equiv",
        ])
        .output()
        .expect("run retimer");
    assert_eq!(
        out.status.code(),
        Some(4),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("budget exceeded"), "{stderr}");
    // The degraded retiming is still a valid netlist.
    let rebuilt = netlist::bench_format::read_file(&output).expect("re-read degraded output");
    assert!(rebuilt.num_registers() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retimer_exits_four_when_the_time_budget_expires() {
    let dir = workdir("budget_time");
    let input = dir.join("budget_t.bench");
    let circuit = netlist::samples::pipeline(9, 3);
    netlist::bench_format::write_file(&circuit, &input).expect("write input");

    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--time-budget",
            "0",
            "--vectors",
            "64",
            "--frames",
            "4",
            "--no-equiv",
        ])
        .output()
        .expect("run retimer");
    assert_eq!(
        out.status.code(),
        Some(4),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retimer_rejects_resume_without_checkpoint() {
    let out = Command::new(bin())
        .args(["input.bench", "--resume"])
        .output()
        .expect("run retimer");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--checkpoint"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn retimer_exits_two_on_missing_input_file() {
    // 2 = I/O error: a well-formed invocation pointing at a file that
    // does not exist.
    let out = Command::new(bin())
        .arg("/definitely/not/a/real/path.bench")
        .output()
        .expect("run retimer");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn retimer_exits_two_on_a_register_only_loop() {
    // 2 = a netlist the retiming graph refuses: a loop of registers with
    // no gate on it is a property of the input, like a combinational
    // cycle, not an internal error.
    let dir = workdir("register_loop");
    let input = dir.join("loop.bench");
    std::fs::write(&input, "INPUT(a)\nOUTPUT(q)\nq = DFF(q2)\nq2 = DFF(q)\n").expect("write input");
    let input = input.to_str().unwrap();
    for sub in ["solve", "estimate", "fault-sim"] {
        let out = Command::new(bin())
            .args([sub, input, "--vectors", "64", "--frames", "4"])
            .output()
            .expect("run retimer");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{sub}: {stderr}");
        assert!(
            stderr.contains("error: retiming error: register-only loop through `q`"),
            "{sub}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retimer_reports_a_zero_to_zero_change_as_no_change() {
    // A register-free circuit keeps 0 registers and a circuit with no
    // output has SER 0 before and after: neither is a -100% or NaN
    // change.
    let dir = workdir("zero_to_zero");
    let solve = |name: &str, source: &str| {
        let input = dir.join(format!("{name}.bench"));
        std::fs::write(&input, source).expect("write input");
        let report = dir.join(format!("{name}.csv"));
        let out = Command::new(bin())
            .args([
                "solve",
                input.to_str().unwrap(),
                "--vectors",
                "64",
                "--frames",
                "4",
            ])
            .arg("--report")
            .arg(&report)
            .output()
            .expect("run retimer");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert_eq!(out.status.code(), Some(0), "{name}: {stdout}");
        let csv = std::fs::read_to_string(&report).expect("read report");
        (stdout, csv)
    };

    let (stdout, _) = solve(
        "no_register",
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n",
    );
    assert!(stdout.contains("original : #FF      0"), "{stdout}");
    assert_eq!(stdout.matches("dFF +0.00%").count(), 2, "{stdout}");

    let (stdout, csv) = solve("zero_ser", "INPUT(a)\nq = DFF(a)\nx = NOT(q)\n");
    assert!(stdout.contains("SER 0.0000e0"), "{stdout}");
    assert_eq!(stdout.matches("dSER +0.00%").count(), 2, "{stdout}");
    assert!(stdout.contains("SER_ref / SER_new = 100%"), "{stdout}");
    assert!(!stdout.contains("NaN"), "{stdout}");
    let row = csv.lines().nth(1).expect("one row");
    assert!(row.ends_with(",1"), "ser_ratio of a 0 -> 0 SER is 1: {csv}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retimer_exits_two_on_bad_simulation_sizes() {
    // 2 = usage error: every subcommand that simulates checks the size
    // with `SimConfig::validate` instead of panicking in the engine.
    let dir = workdir("bad_sizes");
    let input = dir.join("s27.bench");
    netlist::bench_format::write_file(&netlist::samples::s27_like(), &input).expect("write input");
    let input = input.to_str().unwrap();
    let bench_out = dir.join("BENCH_ser.json");
    let bench_out = bench_out.to_str().unwrap();
    let cases: [(&[&str], &str); 6] = [
        (&["estimate", input, "--vectors", "100"], "multiple of 64"),
        (
            &["estimate", input, "--frames", "0"],
            "frames must be positive",
        ),
        (&["solve", input, "--vectors", "0"], "multiple of 64"),
        (&["fault-sim", input, "--vectors", "100"], "multiple of 64"),
        (
            &["harden", input, "--frames", "0"],
            "frames must be positive",
        ),
        (
            &[
                "bench-ser",
                "--samples-only",
                "--vectors",
                "100",
                "--out",
                bench_out,
            ],
            "multiple of 64",
        ),
    ];
    for (args, rule) in cases {
        let out = Command::new(bin())
            .args(args)
            .output()
            .expect("run retimer");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(rule), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    assert!(!std::path::Path::new(bench_out).exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retimer_refuses_an_exact_enumeration_past_the_trace_ceiling() {
    // 3 registers + 4 inputs × 10 frames = 43 source bits: under the
    // 64-bit cap the caller passes, but a 2^43-vector trace. The exact
    // engine refuses it before allocating instead of aborting.
    let dir = workdir("exact_ceiling");
    let input = dir.join("s27.bench");
    netlist::bench_format::write_file(&netlist::samples::s27_like(), &input).expect("write input");
    let out = Command::new(bin())
        .args([
            "estimate",
            input.to_str().unwrap(),
            "--engine",
            "exact",
            "--max-source-bits",
            "64",
            "--frames",
            "10",
            "--vectors",
            "64",
        ])
        .output()
        .expect("run retimer");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("43 source bits"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retimer_rejects_out_of_range_values_with_the_flag_named() {
    // Every value has one parse-and-range rule: a value outside it
    // exits 2 with the flag named, before any work starts, and never
    // reaches the assertion or overflow deeper in the pipeline.
    let dir = workdir("bad_values");
    let input = dir.join("s27.bench");
    netlist::bench_format::write_file(&netlist::samples::s27_like(), &input).expect("write input");
    let input = input.to_str().unwrap();
    let scratch = dir.join("scratch");
    let scratch = scratch.to_str().unwrap();
    let table1 = env!("CARGO_BIN_EXE_table1");
    let cases: &[(&str, &[&str], &str)] = &[
        (
            bin(),
            &["fault-sim", input, "--tolerance", "nan"],
            "--tolerance",
        ),
        (
            bin(),
            &["fault-sim", input, "--tolerance", "-1"],
            "--tolerance",
        ),
        (
            bin(),
            &["fault-sim", input, "--pulse-width", "-5"],
            "--pulse-width",
        ),
        (
            bin(),
            &["fault-sim", input, "--pulse-width", "nan"],
            "--pulse-width",
        ),
        (
            bin(),
            &["fault-sim", input, "--injections", "0"],
            "--injections",
        ),
        (
            bin(),
            &["solve", input, "--time-budget", "1e300"],
            "--time-budget",
        ),
        (
            bin(),
            &[
                "bench-solve",
                "--samples-only",
                "--time-budget",
                "1e300",
                "--out",
                scratch,
            ],
            "--time-budget",
        ),
        (
            bin(),
            &["estimate", input, "--phi", "9223372036854775806"],
            "--phi",
        ),
        (
            bin(),
            &["serve", "--time-budget", "1e300", "--cache", scratch],
            "--time-budget",
        ),
        (table1, &["--scale", "0"], "--scale"),
        (table1, &["--giant-extra", "0"], "--giant-extra"),
        (table1, &["--vectors", "100"], "--vectors"),
    ];
    for (program, args, flag) in cases {
        let out = Command::new(program)
            .args(*args)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    assert!(!std::path::Path::new(scratch).exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retimer_keeps_every_accepted_spelling() {
    // The spellings scripts rely on: the `--workers` alias, a negative
    // `--r-min`, a bare INPUT without `solve`, `--threads` on solve, a
    // repeated flag whose last value wins, and `--time-budget 0`.
    let dir = workdir("spellings");
    let input = dir.join("spell.bench");
    netlist::bench_format::write_file(&netlist::samples::pipeline(9, 3), &input)
        .expect("write input");
    let input = input.to_str().unwrap();
    let cases: &[(&[&str], i32, &str)] = &[
        (&[input, "--workers", "2"], 0, "minobswin"),
        (&[input, "--r-min", "-3"], 0, "R_min = -3"),
        (&["solve", input, "--threads", "1"], 0, "SER_ref / SER_new"),
        (
            &[input, "--vectors", "100", "--vectors", "64"],
            0,
            "original",
        ),
        (
            &[input, "--method", "minobs", "--method", "minobswin"],
            0,
            "minobswin:",
        ),
        (&[input, "--time-budget", "0"], 4, "minobswin"),
    ];
    for (args, code, needle) in cases {
        let out = Command::new(bin())
            .args(*args)
            .args(["--frames", "4", "--no-equiv"])
            .output()
            .expect("run retimer");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(*code), "{args:?}: {stdout}{stderr}");
        assert!(stdout.contains(needle), "{args:?}: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
