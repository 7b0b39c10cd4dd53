//! Micro benchmarks of the protocol executions themselves (the simulated
//! rounds per wall-clock second), across sizes and channel counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsnet::{Broadcast, NetworkBuilder, Protocol};
use dsnet_protocols::runner::{run, RunConfig};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol_micro");
    for n in [50usize, 200, 400] {
        let net = NetworkBuilder::paper(n, 46).build().unwrap();
        g.bench_with_input(BenchmarkId::new("improved_cff", n), &net, |b, net| {
            b.iter(|| black_box(net.broadcast(Protocol::ImprovedCff).rounds))
        });
    }
    let net = NetworkBuilder::paper(200, 47).build().unwrap();
    for k in [1u8, 2, 4] {
        g.bench_with_input(BenchmarkId::new("improved_cff_channels", k), &k, |b, &k| {
            let cfg = RunConfig {
                channels: k,
                ..Default::default()
            };
            let req = Broadcast::new(Protocol::ImprovedCff, net.sink());
            b.iter(|| black_box(run(net.net(), &req, &cfg).outcome.rounds))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
