//! Math-core microbenches: naive vs cache-blocked matmul at the training
//! loop's shapes. The single-sample head kernels are timed in
//! `decision_path`.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinynn::Matrix;

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-1.0..1.0);
    }
    m
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    // A minibatch through a 20-wide hidden layer: the shape the training
    // loop hits thousands of times per run.
    let a = random_matrix(64, 20, &mut rng);
    let b = random_matrix(20, 20, &mut rng);
    let bt = b.transpose();
    let mut out = Matrix::zeros(64, 20);
    let mut group = c.benchmark_group("math/matmul_64x20x20");
    group.bench_function("naive", |bch| bch.iter(|| a.matmul_naive(&b)));
    group.bench_function("blocked", |bch| bch.iter(|| a.matmul(&b)));
    group.bench_function("blocked_transposed_into", |bch| {
        bch.iter(|| a.matmul_transposed_into(&bt, &mut out))
    });
    group.finish();

    // A full-dataset validation pass through the widest candidate layer.
    let a = random_matrix(480, 41, &mut rng);
    let b = random_matrix(41, 20, &mut rng);
    let mut group = c.benchmark_group("math/matmul_480x41x20");
    group.bench_function("naive", |bch| bch.iter(|| a.matmul_naive(&b)));
    group.bench_function("blocked", |bch| bch.iter(|| a.matmul(&b)));
    group.finish();
}

criterion_group!(benches, bench_matmul);
criterion_main!(benches);
