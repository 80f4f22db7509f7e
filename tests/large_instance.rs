//! The committed 10k-gate tier (`tests/fixtures/generated_10k.bench`):
//! fixture integrity against pinned digests and the deterministic
//! generator, bounded-memory streaming parse, and the end-to-end
//! pipeline under a `SolveBudget` memory cap.
//!
//! The heavyweight end-to-end tests are release-only
//! (`#[cfg_attr(debug_assertions, ignore)]`): debug builds run the
//! differential oracles on every data-plane step, which is exactly
//! right at sample sizes and prohibitive at 10k gates. CI exercises
//! them through the release-mode `bench-large-smoke` job.

use std::fs;
use std::path::PathBuf;

use bench_harness::solver_bench;
use minobswin::experiment::{Experiment, RunConfig};
use minobswin::{SolveBudget, SolveError};
use netlist::digest::{circuit_digest, content_digest};
use netlist::{bench_format, ParseLimits};
use ser_engine::sim::SimConfig;

/// FNV-1a digest of the committed fixture bytes (see
/// `netlist::digest::content_digest`). Regenerate with the ignored
/// `regenerate_fixture` test below after changing the generator.
const FIXTURE_CONTENT_DIGEST: u64 = 0x42e9_6a97_72fc_e9fe;
/// Structural digest of the parsed fixture
/// (`netlist::digest::circuit_digest` — FNV-1a over the canonical
/// `.bench` re-serialization). The fixture is itself that canonical
/// serialization, so this equals the content digest exactly when the
/// parse → write round trip is lossless.
const FIXTURE_CIRCUIT_DIGEST: u64 = 0x42e9_6a97_72fc_e9fe;

/// Pinned digests of the committed 50k-gate xlarge-tier fixture
/// (`tests/fixtures/generated_50k.bench`); same regeneration protocol
/// as the 10k pair above. The fixture is the canonical serialization,
/// so content and circuit digests coincide.
const FIXTURE_50K_CONTENT_DIGEST: u64 = 0xcbcd_3fb3_0021_e1ae;
const FIXTURE_50K_CIRCUIT_DIGEST: u64 = 0xcbcd_3fb3_0021_e1ae;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/generated_10k.bench")
}

fn fixture_path_50k() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/generated_50k.bench")
}

/// The circuit the fixture is a serialization of: the benchmark
/// generator recipe at 10k gates, renamed to match the file stem
/// `read_path` assigns.
fn reference_circuit() -> netlist::Circuit {
    let mut c = solver_bench::generated_circuit(10_000);
    c.set_name("generated_10k");
    c
}

/// The xlarge twin: the same recipe at 50k gates (what
/// `retimer bench-* --tier xlarge` generates).
fn reference_circuit_50k() -> netlist::Circuit {
    let mut c = solver_bench::generated_circuit(50_000);
    c.set_name("generated_50k");
    c
}

/// Rewrites the committed fixture from the generator. Run explicitly
/// after generator changes:
///
/// ```text
/// cargo test -p minobswin-bench --test large_instance -- --ignored regenerate
/// ```
///
/// then refresh the two pinned digests above from the
/// `fixture_matches_generator_and_pinned_digests` failure output.
#[test]
#[ignore = "writes the committed fixture; run explicitly after generator changes"]
fn regenerate_fixture() {
    let path = fixture_path();
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    bench_format::write_file(&reference_circuit(), &path).unwrap();
    println!("wrote {}", path.display());
}

/// Rewrites the committed 50k fixture; same protocol as
/// [`regenerate_fixture`].
#[test]
#[ignore = "writes the committed fixture; run explicitly after generator changes"]
fn regenerate_fixture_50k() {
    let path = fixture_path_50k();
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    bench_format::write_file(&reference_circuit_50k(), &path).unwrap();
    println!("wrote {}", path.display());
}

#[test]
fn fixture_matches_generator_and_pinned_digests() {
    let bytes = fs::read(fixture_path()).unwrap_or_else(|e| {
        panic!(
            "missing committed fixture {} ({e}); regenerate with the ignored test",
            fixture_path().display()
        )
    });
    assert_eq!(
        content_digest(&bytes),
        FIXTURE_CONTENT_DIGEST,
        "fixture bytes drifted: content_digest = {:#018x}",
        content_digest(&bytes)
    );
    let parsed = netlist::read_path(fixture_path(), &ParseLimits::default()).unwrap();
    assert_eq!(
        circuit_digest(&parsed),
        FIXTURE_CIRCUIT_DIGEST,
        "parsed structure drifted: circuit_digest = {:#018x}",
        circuit_digest(&parsed)
    );
    // The committed bytes round-trip to exactly what the generator
    // produces today — the fixture is a cache, not a fork. Parsing
    // assigns fresh internal gate ids, so the comparison is on the
    // canonical serialization, not the raw `Circuit` structs.
    assert_eq!(
        circuit_digest(&parsed),
        circuit_digest(&reference_circuit()),
        "fixture no longer matches the generator recipe"
    );
}

#[test]
fn fixture_50k_matches_generator_and_pinned_digests() {
    let bytes = fs::read(fixture_path_50k()).unwrap_or_else(|e| {
        panic!(
            "missing committed fixture {} ({e}); regenerate with the ignored test",
            fixture_path_50k().display()
        )
    });
    assert_eq!(
        content_digest(&bytes),
        FIXTURE_50K_CONTENT_DIGEST,
        "fixture bytes drifted: content_digest = {:#018x}",
        content_digest(&bytes)
    );
    let parsed = netlist::read_path(fixture_path_50k(), &ParseLimits::default()).unwrap();
    assert_eq!(
        circuit_digest(&parsed),
        FIXTURE_50K_CIRCUIT_DIGEST,
        "parsed structure drifted: circuit_digest = {:#018x}",
        circuit_digest(&parsed)
    );
    assert_eq!(
        circuit_digest(&parsed),
        circuit_digest(&reference_circuit_50k()),
        "fixture no longer matches the generator recipe"
    );
}

#[test]
fn fixture_50k_is_admitted_by_default_parse_limits() {
    let parsed = netlist::read_path(fixture_path_50k(), &ParseLimits::default()).unwrap();
    assert!(parsed.len() >= 50_000, "gates: {}", parsed.len());
    assert_eq!(parsed.name(), "generated_50k");
}

#[test]
fn fixture_is_admitted_by_default_parse_limits() {
    // The whole point of the committed tier: no `ParseLimits`
    // loosening, no `unlimited()`, just the defaults every production
    // entry point uses.
    let parsed = netlist::read_path(fixture_path(), &ParseLimits::default()).unwrap();
    assert!(parsed.len() >= 10_000, "gates: {}", parsed.len());
    assert_eq!(parsed.name(), "generated_10k");
}

#[test]
fn streaming_parse_peak_memory_is_bounded_by_line_length_not_file_size() {
    let file_len = fs::metadata(fixture_path()).unwrap().len() as usize;
    netlist::stream::reset_parser_peak_bytes();
    let parsed = netlist::read_path(fixture_path(), &ParseLimits::default()).unwrap();
    let peak = netlist::stream::parser_peak_bytes();
    assert!(parsed.len() >= 10_000);
    // The fixture's longest line is tens of bytes; allow generous
    // slack for the shared process-wide counter (other tests in this
    // binary parse concurrently) while still proving the point: the
    // transient buffers never approach the file size.
    assert!(
        peak < file_len / 4,
        "streaming parser buffered {peak} bytes of a {file_len}-byte file"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "10k end-to-end is release-only (see module docs)"
)]
fn ten_k_tier_completes_end_to_end_under_a_memory_cap() {
    let circuit = netlist::read_path(fixture_path(), &ParseLimits::default()).unwrap();
    let sim = SimConfig {
        num_vectors: 256,
        frames: 6,
        warmup: 8,
        seed: 0xC0FFEE,
        threads: 1,
    };
    // A generous-but-real cap: the 10k data plane fits comfortably,
    // and the run fails loudly instead of swapping if a regression
    // balloons it.
    let budget = SolveBudget::new()
        .with_max_iterations(Some(40))
        .with_max_memory_estimate(Some(256 << 20));
    let run = Experiment::new(&circuit)
        .config(RunConfig::small().with_sim(sim).with_budget(budget))
        .run()
        .expect("10k tier must complete under the memory cap");
    assert_eq!(run.name, "generated_10k");
    assert!(run.v >= 10_000, "|V| = {}", run.v);
    assert!(run.ser_original > 0.0);
    assert!(run.minobswin.ser > 0.0);
    // §V's answers, as `retimer solve` prints them for this fixture.
    assert_eq!((run.phi, run.r_min, run.used_setup_hold), (3287, 2, true));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "50k end-to-end is release-only (see module docs)"
)]
fn fifty_k_tier_completes_end_to_end_under_a_memory_cap() {
    let circuit = netlist::read_path(fixture_path_50k(), &ParseLimits::default()).unwrap();
    let sim = SimConfig {
        num_vectors: 256,
        frames: 6,
        warmup: 8,
        seed: 0xC0FFEE,
        threads: 1,
    };
    // 5x the gates of the 10k tier; the cap scales with it but stays a
    // real bound — the live-arena memory probe (see
    // `Supervision::with_memory_probe`) reports actual data-plane
    // bytes into this check, so a ballooning arena fails loudly here.
    let budget = SolveBudget::new()
        .with_max_iterations(Some(40))
        .with_max_memory_estimate(Some(1 << 30));
    let run = Experiment::new(&circuit)
        .config(RunConfig::small().with_sim(sim).with_budget(budget))
        .run()
        .expect("50k tier must complete under the memory cap");
    assert_eq!(run.name, "generated_50k");
    assert!(run.v >= 50_000, "|V| = {}", run.v);
    assert!(run.ser_original > 0.0);
    assert!(run.minobswin.ser > 0.0);
    // §V's answers, as `retimer solve` prints them for this fixture.
    assert_eq!((run.phi, run.r_min, run.used_setup_hold), (5430, 3, true));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "10k end-to-end is release-only (see module docs)"
)]
fn ten_k_tier_over_tight_memory_cap_fails_structurally() {
    let circuit = netlist::read_path(fixture_path(), &ParseLimits::default()).unwrap();
    let budget = SolveBudget::new().with_max_memory_estimate(Some(1 << 20));
    let err = Experiment::new(&circuit)
        .config(RunConfig::small().with_budget(budget))
        .run()
        .expect_err("1 MiB cannot hold the 10k data plane");
    match &err {
        SolveError::Initialization(msg) => {
            assert!(msg.contains("memory budget"), "{msg}");
        }
        other => panic!("expected a structured initialization error, got {other:?}"),
    }
    // The structured failure keeps the documented exit code for
    // infeasible initialization.
    assert_eq!(err.exit_code(), 1);
}
