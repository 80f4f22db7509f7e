//! Solver runtime: Efficient MinObs vs. MinObsWin (the paper's
//! `t_ref`/`t_new` columns — MinObsWin was ~2.5× slower on average).

use bench_harness::solver_bench::generated_instance;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minobswin::algorithm::SolverConfig;
use minobswin::init::InitConfig;
use minobswin::SolverSession;
use netlist::generator::GeneratorConfig;
use netlist::DelayModel;
use retime::RetimeGraph;

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("retiming_solvers");
    group.sample_size(10);
    for gates in [300usize, 1000] {
        let prepared = generated_instance(gates).unwrap();
        group.bench_with_input(BenchmarkId::new("minobs", gates), &prepared, |b, p| {
            b.iter(|| {
                SolverSession::new(&p.graph, &p.problem)
                    .config(SolverConfig::default().with_p2(false))
                    .initial(p.initial.clone())
                    .run()
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("minobswin", gates), &prepared, |b, p| {
            b.iter(|| {
                SolverSession::new(&p.graph, &p.problem)
                    .initial(p.initial.clone())
                    .run()
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_initialization(c: &mut Criterion) {
    let mut group = c.benchmark_group("initialization");
    group.sample_size(10);
    for gates in [300usize, 1000] {
        let circuit = GeneratorConfig::new("init", gates as u64)
            .gates(gates)
            .registers(gates / 5)
            .build();
        let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::default()).unwrap();
        group.bench_with_input(BenchmarkId::new("section_v", gates), &graph, |b, g| {
            b.iter(|| InitConfig::default().initialize(g).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_initialization);
criterion_main!(benches);
