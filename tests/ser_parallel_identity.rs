//! Differential proptest suite for the arena SER engine: on random
//! generated circuits, for every thread count, vector width and ODC
//! tile width, the levelized arena engine must be bit-identical to the
//! scalar per-`Signature` oracle — same frame traces, same
//! observabilities, same `analyze` reports. (The ODC breaker drill is a
//! unit test in `ser::odc`.)

use netlist::generator::GeneratorConfig;
use netlist::Circuit;
use proptest::prelude::*;
use ser_engine::odc::{exact_fault_injection, Observability};
use ser_engine::scalar::{self, ScalarTrace};
use ser_engine::sim::{FrameTrace, SimConfig};
use ser_engine::{analyze, SerConfig};

fn circuit_of(seed: u64) -> Circuit {
    GeneratorConfig::new("pid", seed)
        .gates(40 + (seed as usize % 40))
        .registers(6 + (seed as usize % 8))
        .build()
}

fn config_of(num_vectors: usize, threads: usize) -> SimConfig {
    SimConfig {
        num_vectors,
        frames: 6,
        warmup: 4,
        seed: 0xC0FFEE ^ num_vectors as u64,
        threads,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The arena engine's frame trace equals the scalar oracle's,
    /// signature by signature, at every worker count and vector width.
    #[test]
    fn frame_trace_matches_scalar_oracle(
        seed in 0u64..10,
        threads in prop::sample::select(vec![1usize, 2, 7]),
        num_vectors in prop::sample::select(vec![64usize, 256, 2048]),
    ) {
        let circuit = circuit_of(seed);
        let config = config_of(num_vectors, threads);
        let trace = FrameTrace::simulate(&circuit, config);
        let oracle = ScalarTrace::simulate(&circuit, config);
        for f in 0..config.frames {
            for (id, _) in circuit.iter() {
                prop_assert!(
                    trace.value(f, id) == *oracle.value(f, id),
                    "frame {f}, gate {}", circuit.gate(id).name()
                );
            }
        }
    }

    /// Observabilities (and the frame-0 ODC masks) are byte-identical
    /// between the arena backward pass and the scalar oracle.
    #[test]
    fn observability_matches_scalar_oracle(
        seed in 0u64..10,
        threads in prop::sample::select(vec![1usize, 2, 7]),
        num_vectors in prop::sample::select(vec![64usize, 256]),
    ) {
        let circuit = circuit_of(seed);
        let config = config_of(num_vectors, threads);
        let trace = FrameTrace::simulate(&circuit, config);
        let obs = Observability::compute(&circuit, &trace);
        let oracle_trace = ScalarTrace::simulate(&circuit, config);
        let (oracle_obs, oracle_masks) = scalar::observability(&circuit, &oracle_trace);
        prop_assert_eq!(obs.as_slice(), &oracle_obs[..]);
        for (id, _) in circuit.iter() {
            prop_assert!(
                obs.odc_mask(id) == &oracle_masks[id.index()],
                "odc mask of {}", circuit.gate(id).name()
            );
        }
        prop_assert!(obs.engine().audited_layers > 0, "audits must sample");
        prop_assert!(obs.engine().is_clean());
    }

    /// The cache-blocked ODC accumulator is byte-identical to the
    /// scalar oracle at every sweep tile width: a 1-word tile (maximal
    /// blocking), the L2-sized default, and an effectively-unbounded
    /// tile (whole level per pass) — crossed with worker counts and
    /// vector widths. Tile width must only ever change traversal
    /// order, never a single bit of the result.
    #[test]
    fn blocked_odc_is_tile_invariant_against_scalar_oracle(
        seed in 0u64..8,
        threads in prop::sample::select(vec![1usize, 2, 7]),
        num_vectors in prop::sample::select(vec![64usize, 2048]),
        block_words in prop::sample::select(vec![1usize, 64, usize::MAX]),
    ) {
        let circuit = circuit_of(seed);
        let config = config_of(num_vectors, threads);
        let trace = FrameTrace::simulate(&circuit, config);
        let obs = Observability::compute_with_block(&circuit, &trace, block_words);
        let oracle_trace = ScalarTrace::simulate(&circuit, config);
        let (oracle_obs, oracle_masks) = scalar::observability(&circuit, &oracle_trace);
        prop_assert_eq!(obs.as_slice(), &oracle_obs[..]);
        for (id, _) in circuit.iter() {
            prop_assert!(
                obs.odc_mask(id) == &oracle_masks[id.index()],
                "odc mask of {} at tile {block_words}", circuit.gate(id).name()
            );
        }
        prop_assert!(obs.engine().is_clean());
    }

    /// The full eq. (4) analysis — the user-visible report — does not
    /// depend on the worker count, bit for bit.
    #[test]
    fn analyze_report_is_thread_invariant(
        seed in 0u64..8,
        threads in prop::sample::select(vec![2usize, 7]),
    ) {
        let circuit = circuit_of(seed);
        let mut config = SerConfig::small(40 + seed as i64 % 20);
        config.sim.threads = 1;
        let baseline = analyze(&circuit, &config).unwrap();
        config.sim.threads = threads;
        let parallel = analyze(&circuit, &config).unwrap();
        prop_assert_eq!(baseline.ser, parallel.ser);
        prop_assert_eq!(baseline.ser_logic_only, parallel.ser_logic_only);
        prop_assert_eq!(&baseline.obs, &parallel.obs);
        prop_assert_eq!(baseline.register_observability, parallel.register_observability);
        prop_assert!(baseline.engine.is_clean() && parallel.engine.is_clean());
    }

    /// The parallel exact-injection reference equals its scalar twin.
    #[test]
    fn exact_injection_is_thread_invariant(
        seed in 0u64..6,
        threads in prop::sample::select(vec![2usize, 7]),
    ) {
        let circuit = circuit_of(seed);
        let config = config_of(256, threads);
        let got = exact_fault_injection(&circuit, config);
        let oracle = scalar::exact_fault_injection(&circuit, config);
        prop_assert_eq!(got, oracle);
    }
}
