//! SER analysis engine throughput: simulation, ODC observabilities and
//! the full eq. (4) analysis, including the scalar-vs-arena data-plane
//! comparison behind `BENCH_ser.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netlist::generator::GeneratorConfig;
use netlist::Circuit;
use ser_engine::odc::Observability;
use ser_engine::scalar::{self, ScalarTrace};
use ser_engine::sim::{FrameTrace, SimConfig};
use ser_engine::{analyze, SerConfig};

fn circuit_of(gates: usize) -> Circuit {
    GeneratorConfig::new("ser_bench", gates as u64)
        .gates(gates)
        .registers(gates / 5)
        .build()
}

fn sim_config() -> SimConfig {
    SimConfig {
        num_vectors: 1024,
        frames: 15,
        warmup: 8,
        seed: 1,
        threads: 1,
    }
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_simulation");
    group.sample_size(10);
    for gates in [400usize, 1200] {
        let circuit = circuit_of(gates);
        let config = sim_config();
        group.bench_with_input(BenchmarkId::from_parameter(gates), &circuit, |b, ckt| {
            b.iter(|| FrameTrace::simulate(ckt, config))
        });
    }
    group.finish();
}

fn bench_observability(c: &mut Criterion) {
    let mut group = c.benchmark_group("odc_observability");
    group.sample_size(10);
    for gates in [400usize, 1200] {
        let circuit = circuit_of(gates);
        let config = sim_config();
        let trace = FrameTrace::simulate(&circuit, config);
        group.bench_with_input(
            BenchmarkId::from_parameter(gates),
            &(&circuit, &trace),
            |b, (ckt, tr)| b.iter(|| Observability::compute(ckt, tr)),
        );
    }
    group.finish();
}

/// The scalar-vs-arena data-plane comparison (simulation + ODC end to
/// end), the criterion twin of `retimer bench-ser`.
fn bench_data_plane(c: &mut Criterion) {
    let mut group = c.benchmark_group("ser_data_plane");
    group.sample_size(10);
    let gates = 800usize;
    let circuit = circuit_of(gates);
    group.bench_function(BenchmarkId::new("scalar", gates), |b| {
        b.iter(|| {
            let trace = ScalarTrace::simulate(&circuit, sim_config());
            scalar::observability(&circuit, &trace)
        })
    });
    group.bench_function(BenchmarkId::new("arena", gates), |b| {
        b.iter(|| {
            let trace = FrameTrace::simulate(&circuit, sim_config());
            Observability::compute(&circuit, &trace)
        })
    });
    group.finish();
}

fn bench_full_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_ser_analysis");
    group.sample_size(10);
    let gates = 500usize;
    let circuit = circuit_of(gates);
    let config = SerConfig {
        sim: SimConfig {
            num_vectors: 512,
            frames: 10,
            warmup: 8,
            seed: 1,
            threads: 1,
        },
        ..SerConfig::with_phi(200)
    };
    group.bench_with_input(BenchmarkId::from_parameter(gates), &circuit, |b, ckt| {
        b.iter(|| analyze(ckt, &config).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulation,
    bench_observability,
    bench_data_plane,
    bench_full_analysis
);
criterion_main!(benches);
