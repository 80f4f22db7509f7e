//! Daemon soak tests: hammer the queue with the adversarial parser
//! corpus interleaved with real solves, prove every job reaches a
//! terminal state, the drain exits cleanly, the cache serves
//! resubmissions byte-identically, and a killed daemon's persisted
//! jobs are recovered on restart.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use netlist::{bench_format, generator::GeneratorConfig, samples};
use serve::daemon::{Daemon, Event, ServeConfig, SubmitError};
use serve::job::{JobSpec, JobState, NetlistFormat};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus_files() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("adversarial corpus directory exists") {
        let path = entry.expect("corpus entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let bytes = std::fs::read(&path).expect("corpus file readable");
        out.push((name, String::from_utf8_lossy(&bytes).into_owned()));
    }
    out.sort();
    assert!(out.len() >= 5, "corpus unexpectedly small: {}", out.len());
    out
}

fn format_of(name: &str) -> NetlistFormat {
    match name.rsplit('.').next() {
        Some("blif") => NetlistFormat::Blif,
        Some("v") => NetlistFormat::Verilog,
        _ => NetlistFormat::Bench,
    }
}

/// A fast real-solve spec: small simulation, the sample circuit or a
/// generated one.
fn real_spec(id: &str, source: &str) -> JobSpec {
    let mut spec = JobSpec::new(id, source, NetlistFormat::Bench);
    spec.vectors = 64;
    spec.frames = 4;
    spec
}

fn wait_terminal(daemon: &Daemon, id: &str, timeout: Duration) -> JobState {
    let deadline = Instant::now() + timeout;
    loop {
        let state = daemon
            .status(id)
            .unwrap_or_else(|| panic!("job `{id}` unknown to the daemon"));
        if state.is_terminal() {
            return state;
        }
        assert!(
            Instant::now() < deadline,
            "job `{id}` not terminal after {timeout:?}; last state {state:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The headline soak: ≥32 concurrent jobs mixing every adversarial
/// corpus file (several times over) with real solves on three
/// circuits, all terminal, drain clean, no wedged workers, and a
/// counter-verified byte-identical cache hit on resubmission.
#[test]
fn soak_mixed_corpus_and_real_solves() {
    let mut config = ServeConfig::new(tmpdir("mixed"));
    config.workers = 4;
    config.queue_capacity = 256;
    let daemon = Daemon::start(config).expect("daemon boots");
    let events = daemon.events().expect("event stream");

    let s27 = bench_format::write(&samples::s27_like());
    let gen_a = bench_format::write(
        &GeneratorConfig::new("soak-a", 5)
            .gates(70)
            .registers(14)
            .build(),
    );
    let gen_b = bench_format::write(
        &GeneratorConfig::new("soak-b", 11)
            .gates(90)
            .registers(18)
            .build(),
    );

    let mut ids: Vec<String> = Vec::new();
    // Three rounds of the full adversarial corpus...
    for round in 0..3 {
        for (name, text) in corpus_files() {
            let id = format!("adv-{round}-{name}").replace('.', "_");
            let mut spec = JobSpec::new(&id, &text, format_of(&name));
            spec.vectors = 64;
            spec.frames = 4;
            daemon.submit(spec).expect("corpus job admitted");
            ids.push(id);
        }
    }
    // ...interleaved with real solves (4 per circuit, distinct ids;
    // identical content and config, so later ones may hit the cache).
    for (cname, source) in [("s27", &s27), ("gen-a", &gen_a), ("gen-b", &gen_b)] {
        for k in 0..4 {
            let id = format!("real-{cname}-{k}");
            daemon
                .submit(real_spec(&id, source))
                .expect("real job admitted");
            ids.push(id);
        }
    }
    assert!(ids.len() >= 32, "soak must run ≥32 jobs, got {}", ids.len());

    // Every job reaches a terminal state within the deadline.
    for id in &ids {
        let state = wait_terminal(&daemon, id, Duration::from_secs(300));
        let exit = state.exit_code().expect("terminal state has an exit code");
        if id.starts_with("real-") {
            assert_eq!(state, JobState::Done, "real solve `{id}` failed: {state:?}");
        } else {
            assert!(exit <= 4, "corpus job `{id}` exit out of range: {exit}");
        }
    }

    // Real solves on identical content+config share one result entry:
    // at least the 3 later duplicates of each circuit could hit, and
    // at least one of them must have (the first of each completes
    // before the fourth is picked up in a 4-worker pool... not
    // guaranteed — so assert on the explicit resubmission below
    // instead, and only record the baseline here).
    let hits_before = daemon.cache().counters.result_hits();

    // Resubmit a completed job's content verbatim under a fresh id:
    // must be a counter-verified cache hit with a byte-identical
    // result netlist.
    let (first_bench, _) = daemon
        .result("real-s27-0")
        .expect("completed result readable");
    daemon
        .submit(real_spec("resubmit-s27", &s27))
        .expect("resubmission admitted");
    assert_eq!(
        wait_terminal(&daemon, "resubmit-s27", Duration::from_secs(60)),
        JobState::Done
    );
    assert!(
        daemon.cache().counters.result_hits() > hits_before,
        "resubmission did not hit the result cache"
    );
    let (resubmit_bench, _) = daemon
        .result("resubmit-s27")
        .expect("cached result readable");
    assert_eq!(
        resubmit_bench, first_bench,
        "cache hit must return a byte-identical netlist"
    );

    // Drain: clean exit, no wedged workers, Drained terminates the
    // event stream.
    daemon.drain();
    daemon.close_events();
    let collected: Vec<Event> = events.iter().collect();
    assert!(
        matches!(collected.last(), Some(Event::Drained)),
        "event stream must end with Drained"
    );
    let terminals = collected
        .iter()
        .filter(|e| matches!(e, Event::Terminal { .. }))
        .count();
    assert_eq!(
        terminals,
        ids.len() + 1, // + the resubmission
        "exactly one terminal event per job"
    );
    // Terminal jobs leave no recovery files behind.
    assert!(daemon.cache().scan_jobs().is_empty());
    let _ = std::fs::remove_dir_all(daemon.cache().root());
}

/// A job persisted by a killed daemon is re-enqueued and finished by
/// the next one.
#[test]
fn restart_recovers_persisted_jobs() {
    let dir = tmpdir("restart");
    let spec = real_spec("orphan-1", &bench_format::write(&samples::s27_like()));
    {
        // Simulate the killed daemon: the job file exists, nobody ran it.
        let cache = serve::ResultCache::open(&dir).unwrap();
        cache.persist_job(&spec).unwrap();
    }

    let mut config = ServeConfig::new(&dir);
    config.workers = 2;
    let daemon = Daemon::start(config).expect("daemon boots");
    assert_eq!(
        wait_terminal(&daemon, "orphan-1", Duration::from_secs(120)),
        JobState::Done,
        "recovered job must run to completion"
    );
    daemon.drain();
    assert!(daemon.cache().scan_jobs().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control: duplicate and malformed ids are rejected
/// outright; a full queue pushes back instead of buffering without
/// bound; draining admits nothing.
#[test]
fn admission_control_rejects_and_backpressures() {
    let mut config = ServeConfig::new(tmpdir("admission"));
    config.workers = 1;
    config.queue_capacity = 1;
    let daemon = Daemon::start(config).expect("daemon boots");

    // A slow job to occupy the single worker: a larger circuit and
    // simulation keep it busy while we probe admission.
    let big = bench_format::write(
        &GeneratorConfig::new("slow", 3)
            .gates(400)
            .registers(64)
            .build(),
    );
    let mut slow = JobSpec::new("slow-1", &big, NetlistFormat::Bench);
    slow.vectors = 1024;
    slow.frames = 10;
    daemon.submit(slow.clone()).expect("slow job admitted");
    // Wait for the worker to pick it up so the queue itself is empty
    // and the capacity probe below is deterministic.
    let deadline = Instant::now() + Duration::from_secs(60);
    while daemon.status("slow-1") == Some(JobState::Queued) {
        assert!(Instant::now() < deadline, "slow job never left the queue");
        std::thread::sleep(Duration::from_millis(10));
    }

    assert_eq!(
        daemon.submit(slow.clone()).unwrap_err(),
        SubmitError::DuplicateId
    );
    let mut bad = slow.clone();
    bad.id = "../escape".into();
    assert!(matches!(
        daemon.submit(bad).unwrap_err(),
        SubmitError::InvalidId(_)
    ));

    // Fill the queue (capacity 1), then expect backpressure. The
    // worker may have already picked up `slow-1`, so the first filler
    // lands in the queue either way.
    let mut filler = slow.clone();
    filler.id = "filler-1".into();
    let mut overflow = slow.clone();
    overflow.id = "overflow-1".into();
    let first = daemon.submit(filler);
    let second = daemon.submit(overflow);
    match (first, second) {
        (Ok(()), Err(SubmitError::QueueFull { capacity: 1 })) => {}
        (Ok(()), Ok(())) => panic!("queue bound of 1 admitted two waiting jobs"),
        other => panic!("unexpected admission outcome: {other:?}"),
    }

    // Cancel everything so the drain is quick.
    for id in ["slow-1", "filler-1"] {
        daemon.cancel(id);
    }
    daemon.drain();
    for id in ["slow-1", "filler-1"] {
        let state = daemon.status(id).unwrap();
        assert!(
            state.is_terminal(),
            "{id} not terminal after drain: {state:?}"
        );
    }
    // Draining daemons admit nothing.
    let mut late = slow.clone();
    late.id = "late-1".into();
    assert_eq!(daemon.submit(late).unwrap_err(), SubmitError::Draining);
    let _ = std::fs::remove_dir_all(daemon.cache().root());
}

/// Cancelling a running job terminates it as `Cancelled` (exit 4).
#[test]
fn cancel_running_job() {
    let mut config = ServeConfig::new(tmpdir("cancel"));
    config.workers = 1;
    let daemon = Daemon::start(config).expect("daemon boots");

    let big = bench_format::write(
        &GeneratorConfig::new("cancelme", 7)
            .gates(400)
            .registers(64)
            .build(),
    );
    let mut spec = JobSpec::new("victim", &big, NetlistFormat::Bench);
    spec.vectors = 1024;
    spec.frames = 10;
    daemon.submit(spec).expect("job admitted");

    // Wait until it leaves the queue, then cancel.
    let deadline = Instant::now() + Duration::from_secs(60);
    while daemon.status("victim") == Some(JobState::Queued) {
        assert!(Instant::now() < deadline, "job never left the queue");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(daemon.cancel("victim"));
    let state = wait_terminal(&daemon, "victim", Duration::from_secs(120));
    assert_eq!(state, JobState::Cancelled);
    assert_eq!(state.exit_code(), Some(4));
    assert!(
        !daemon.cancel("victim"),
        "terminal jobs cannot be cancelled"
    );
    daemon.drain();
    let _ = std::fs::remove_dir_all(daemon.cache().root());
}

/// A spec that reaches a worker without going through the request
/// parser (the library API, or a recovered job file) still gets its
/// simulation size checked: a clean exit-2 failure naming the rule,
/// never a panic in the SER engine.
#[test]
fn worker_rejects_unsimulatable_sizes() {
    let daemon = Daemon::start(ServeConfig::new(tmpdir("bad_sizes"))).expect("daemon boots");
    let source = bench_format::write(&samples::s27_like());
    for (id, vectors, frames, rule) in [
        ("odd-vectors", 100, 4, "multiple of 64"),
        ("no-frames", 64, 0, "frames must be positive"),
    ] {
        let mut spec = real_spec(id, &source);
        spec.vectors = vectors;
        spec.frames = frames;
        daemon.submit(spec).expect("job admitted");
        match wait_terminal(&daemon, id, Duration::from_secs(60)) {
            JobState::Failed { exit: 2, error } => assert!(error.contains(rule), "{id}: {error}"),
            other => panic!("{id}: expected a usage failure, got {other:?}"),
        }
    }
    daemon.drain();
    let _ = std::fs::remove_dir_all(daemon.cache().root());
}

/// A wall-clock budget no `Duration` can hold fails its job (exit 2,
/// the key named) instead of panicking the worker thread, and the same
/// worker goes on to finish a valid job submitted after it.
#[test]
fn worker_rejects_unrepresentable_budgets() {
    let mut config = ServeConfig::new(tmpdir("huge_budget"));
    config.workers = 1;
    let daemon = Daemon::start(config).expect("daemon boots");
    let source = bench_format::write(&samples::s27_like());
    let mut huge = real_spec("huge-budget", &source);
    huge.time_budget = Some(1e300);
    daemon.submit(huge).expect("job admitted");
    match wait_terminal(&daemon, "huge-budget", Duration::from_secs(60)) {
        JobState::Failed { exit: 2, error } => assert!(error.contains("time_budget"), "{error}"),
        other => panic!("expected a usage failure, got {other:?}"),
    }
    daemon
        .submit(real_spec("after-huge", &source))
        .expect("job admitted");
    assert_eq!(
        wait_terminal(&daemon, "after-huge", Duration::from_secs(120)),
        JobState::Done
    );
    daemon.drain();
    let _ = std::fs::remove_dir_all(daemon.cache().root());
}
