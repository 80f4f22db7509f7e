//! Micro-benchmark of the weighted regular forest operations, the
//! paper's move-set data structure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minobswin::forest::WeightedRegularForest;
use netlist::rng::Xoshiro256;
use retime::VertexId;

fn random_gains(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut b = vec![0i64];
    b.extend((1..n).map(|_| rng.gen_range(201) as i64 - 100));
    b
}

fn bench_forest_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("forest_update");
    for n in [200usize, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            bench.iter(|| {
                let mut forest = WeightedRegularForest::new(random_gains(n, 3));
                let mut rng = Xoshiro256::seed_from_u64(5);
                for _ in 0..n / 2 {
                    let p = 1 + rng.gen_range(n - 1);
                    let q = 1 + rng.gen_range(n - 1);
                    if p != q {
                        forest.update(VertexId::new(p), VertexId::new(q), 1);
                    }
                }
                forest.positive_set().len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forest_updates);
criterion_main!(benches);
