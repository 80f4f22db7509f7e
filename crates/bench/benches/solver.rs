//! Criterion bench of the solver's warm-started closure engine vs.
//! fresh Dinic builds
//! (`SolverConfig::with_closure_engine(ClosureEngine::Fresh)`), on
//! generated circuits.

use bench_harness::solver_bench::{generated_instance, BenchInstance};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minobswin::algorithm::SolverConfig;
use minobswin::closure_inc::ClosureEngine;
use minobswin::SolverSession;

fn solve_with(instance: &BenchInstance, config: SolverConfig) {
    SolverSession::new(&instance.graph, &instance.problem)
        .config(config)
        .initial(instance.initial.clone())
        .run()
        .unwrap();
}

fn bench_closure_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("closure_engines");
    group.sample_size(10);
    for gates in [300usize, 1000] {
        let instance = generated_instance(gates).unwrap();
        group.bench_with_input(BenchmarkId::new("warm", gates), &instance, |b, inst| {
            b.iter(|| solve_with(inst, SolverConfig::default()))
        });
        group.bench_with_input(BenchmarkId::new("fresh", gates), &instance, |b, inst| {
            b.iter(|| {
                solve_with(
                    inst,
                    SolverConfig::default().with_closure_engine(ClosureEngine::Fresh),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_closure_engines);
criterion_main!(benches);
