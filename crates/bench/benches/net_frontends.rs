//! Threaded vs reactor ingress, same wire protocol and service behind
//! both: one closed-loop round of pipelined submits per iteration,
//! swept over the connection count. At 4 connections the two frontends
//! should be equivalent (the reactor's acceptance bar); at 256 the
//! threaded frontend pays one OS thread per socket while the reactor
//! multiplexes them onto its fixed pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use offloadnn_core::scenario::small_scenario;
use offloadnn_core::task::TaskId;
use offloadnn_net::{AnyServer, Client, ClientConfig, Frontend, NetConfig};
use offloadnn_serve::{Admitter, ServiceConfig};
use std::hint::black_box;
use std::time::Duration;

/// Submits per iteration, split evenly across the connections.
const SUBMITS_PER_ROUND: usize = 1024;

fn run_rounds(frontend: Frontend, clients: usize, rounds: usize) -> u64 {
    let scenario = small_scenario(5);
    let service_config = ServiceConfig {
        shards: 2,
        batch_max: 64,
        batch_window: Duration::from_micros(200),
        ..ServiceConfig::default()
    };
    let net_config = NetConfig { max_connections: NetConfig::default().max_connections.max(clients + 8) };
    let server = AnyServer::start(frontend, ("127.0.0.1", 0), net_config, service_config, &scenario.instance)
        .expect("start server");
    let conns: Vec<Client> = (0..clients)
        .map(|_| Client::connect(server.local_addr(), ClientConfig::default()).expect("connect"))
        .collect();

    let protos: Vec<_> =
        scenario.instance.tasks.iter().cloned().zip(scenario.instance.options.iter().cloned()).collect();
    let mut next_id = 0u32;
    let mut resolved = 0u64;
    for _ in 0..rounds {
        // Pipeline: fan the round out across every connection, then
        // collect all verdicts.
        let pending: Vec<_> = (0..SUBMITS_PER_ROUND)
            .map(|i| {
                let proto = &protos[i % protos.len()];
                let mut task = proto.0.clone();
                task.id = TaskId(next_id);
                next_id = next_id.wrapping_add(1);
                conns[i % clients].submit(task, proto.1.clone(), None).expect("submit")
            })
            .collect();
        for p in pending {
            p.wait_timeout(Duration::from_secs(30)).expect("verdict");
            resolved += 1;
        }
    }

    for conn in conns {
        conn.close();
    }
    let report = server.shutdown();
    assert!(report.metrics.is_conserved(), "bench run lost a request");
    resolved
}

fn bench_net_frontends(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_frontends");
    group.sample_size(10);
    for frontend in [Frontend::Threads, Frontend::Reactor] {
        for clients in [4usize, 256] {
            let id = BenchmarkId::new(frontend.to_string(), clients);
            group.bench_with_input(id, &clients, |b, &clients| {
                b.iter(|| run_rounds(black_box(frontend), clients, 1))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_net_frontends);
criterion_main!(benches);
