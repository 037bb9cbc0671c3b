//! Throughput of the sharded admission service: one closed-loop load
//! run per iteration, swept over the shard count (does partitioning the
//! budgets across more controllers raise verdict throughput?) and over
//! the batch size (how much does amortising the DOT solve help?).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use offloadnn_core::scenario::small_scenario;
use offloadnn_serve::{drive, DriveConfig, Service, ServiceConfig};
use std::hint::black_box;
use std::sync::atomic::AtomicU64;
use std::time::Duration;

fn run_once(shards: usize, batch_max: usize, requests: u64) -> u64 {
    let scenario = small_scenario(5);
    let service_config = ServiceConfig {
        shards,
        batch_max,
        batch_window: Duration::from_micros(200),
        ..ServiceConfig::default()
    };
    let cfg =
        DriveConfig { requests, driver: 0, drivers: 1, seed: 7, window: 64, max_active: 32, deadline: None };
    let service = Service::start(service_config, &scenario.instance).expect("service start");
    let report = drive(&service, &cfg, &scenario.instance, None, &AtomicU64::new(0));
    let ledger = service.drain().metrics;
    assert!(ledger.is_conserved() && report.tally.mismatches(&ledger).is_empty(), "bench run lost a request");
    report.tally.outcomes()
}

fn bench_serve_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter(|| run_once(black_box(shards), 64, 2_000))
        });
    }
    for batch_max in [1usize, 16, 64] {
        group.bench_with_input(BenchmarkId::new("batch_max", batch_max), &batch_max, |b, &batch_max| {
            b.iter(|| run_once(4, black_box(batch_max), 2_000))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
