//! State-machine tests for the reactor frontend, at the byte level.
//!
//! The loopback suite proves end-to-end parity through the [`Client`]
//! library; these tests instead speak the wire protocol over raw sockets
//! to hit the reactor's per-connection state machine where it is
//! hardest: short reads split across every frame boundary, write
//! backpressure with partial-write resumption, a malformed byte stream
//! that must still flush every owed verdict before the close, and rapid
//! connection churn with abandoned in-flight requests. Replies leave in
//! resolution order, so verdicts are matched by request id.
//!
//! Frame contents come from the same proptest strategies as the codec
//! round-trip properties (`common/`).

mod common;

use common::{path_option, task};
use offloadnn_core::scenario::small_scenario;
use offloadnn_core::task::TaskId;
use offloadnn_net::codec::{self, Frame, SnapshotRequest, SubmitRequest};
use offloadnn_net::{AnyServer, Client, ClientConfig, Frontend, NetConfig};
use offloadnn_serve::{Admitter, Outcome, ServiceConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A service tuned for debug-mode CI: tiny batches, short windows.
fn quick_service() -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        batch_max: 16,
        batch_window: Duration::from_micros(500),
        ..ServiceConfig::default()
    }
}

fn start_server(net: NetConfig, service: ServiceConfig) -> (AnyServer, offloadnn_core::scenario::Scenario) {
    start_frontend(Frontend::Reactor, net, service)
}

fn start_frontend(
    frontend: Frontend,
    net: NetConfig,
    service: ServiceConfig,
) -> (AnyServer, offloadnn_core::scenario::Scenario) {
    let scenario = small_scenario(4);
    let server =
        AnyServer::start(frontend, ("127.0.0.1", 0), net, service, &scenario.instance).expect("start server");
    (server, scenario)
}

/// Reads frames off `sock` one byte at a time until `expected` frames
/// decoded (or the deadline passes). Asserts the stream is never
/// malformed mid-frame — the streaming distinction the codec guarantees.
fn read_frames_bytewise(sock: &mut TcpStream, expected: usize, deadline: Duration) -> Vec<Frame> {
    sock.set_read_timeout(Some(Duration::from_millis(50))).expect("read timeout");
    let hard_stop = Instant::now() + deadline;
    let mut buf = Vec::new();
    let mut frames = Vec::new();
    let mut byte = [0u8; 1];
    while frames.len() < expected {
        assert!(Instant::now() < hard_stop, "timed out after {} of {expected} frames", frames.len());
        match sock.read(&mut byte) {
            Ok(0) => panic!("peer closed after {} of {expected} frames", frames.len()),
            Ok(_) => buf.extend_from_slice(&byte),
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
                continue
            }
            Err(e) => panic!("read failed after {got} of {expected} frames: {e}", got = frames.len()),
        }
        // Every prefix must decode as "incomplete", never as an error.
        if let Some((frame, consumed)) = codec::decode(&buf).expect("server bytes are never malformed") {
            buf.drain(..consumed);
            frames.push(frame);
        }
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Generated submit frames trickled in one byte at a time — every
    /// frame boundary lands mid-read — each get exactly one correlated
    /// reply, with a snapshot frame interleaved; the server conserves.
    fn byte_at_a_time_pipelined_frames_resolve(
        submits in vec((task(), vec(path_option(), 1..4)), 1..5),
    ) {
        let (server, _scenario) = start_server(NetConfig::default(), quick_service());
        let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
        sock.set_nodelay(true).expect("nodelay");

        // One byte stream: all submits, then a snapshot request.
        let mut wire = Vec::new();
        for (i, (task, options)) in submits.iter().cloned().enumerate() {
            wire.extend_from_slice(&codec::encode(&Frame::Submit(SubmitRequest {
                request_id: i as u64,
                deadline_us: 0,
                task,
                options,
            })));
        }
        let snapshot_id = 1_000_000u64;
        wire.extend_from_slice(&codec::encode(&Frame::Snapshot(SnapshotRequest {
            request_id: snapshot_id,
        })));
        for b in &wire {
            sock.write_all(std::slice::from_ref(b)).expect("write one byte");
        }

        let frames = read_frames_bytewise(&mut sock, submits.len() + 1, Duration::from_secs(30));
        // Replies leave in resolution order: match them by request id.
        let mut answered = Vec::new();
        let mut snapshot = None;
        for frame in frames {
            match frame {
                Frame::Outcome(o) => answered.push(o.request_id),
                Frame::Metrics(m) if snapshot.is_none() => snapshot = Some(m),
                other => prop_assert!(false, "unexpected reply {other:?}"),
            }
        }
        answered.sort_unstable();
        prop_assert_eq!(answered, (0..submits.len() as u64).collect::<Vec<_>>(), "one verdict per submit");
        let m = snapshot.expect("snapshot reply");
        prop_assert_eq!(m.request_id, snapshot_id);
        prop_assert!(!m.is_final);
        // The snapshot is taken at its place in the stream, behind every submit.
        prop_assert_eq!(m.metrics.submitted, submits.len() as u64);

        drop(sock);
        let report = server.shutdown();
        prop_assert!(report.metrics.is_conserved(), "conservation: {:?}", report.metrics);
        prop_assert_eq!(report.metrics.submitted, submits.len() as u64);
    }
}

/// A malformed byte stream aborts the connection, but only after every
/// verdict the client is owed has flushed: two valid submits, then
/// garbage — the reply stream is both outcomes (in whichever order they
/// resolved), the Malformed error, EOF.
#[test]
fn malformed_stream_flushes_owed_verdicts_before_closing() {
    malformed_stream_flushes_owed_verdicts(Frontend::Reactor);
}

/// The same closing rule on the one-loop-per-connection shape.
#[test]
fn malformed_stream_flushes_owed_verdicts_before_closing_threads() {
    malformed_stream_flushes_owed_verdicts(Frontend::Threads);
}

fn malformed_stream_flushes_owed_verdicts(frontend: Frontend) {
    let (server, scenario) = start_frontend(frontend, NetConfig::default(), quick_service());
    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    sock.set_nodelay(true).expect("nodelay");

    let mut wire = Vec::new();
    for i in 0..2u64 {
        wire.extend_from_slice(&codec::encode(&Frame::Submit(SubmitRequest {
            request_id: i,
            deadline_us: 0,
            task: scenario.instance.tasks[i as usize].clone(),
            options: scenario.instance.options[i as usize].clone(),
        })));
    }
    wire.extend_from_slice(b"\xde\xad\xbe\xef not a frame");
    sock.write_all(&wire).expect("write");

    let frames = read_frames_bytewise(&mut sock, 3, Duration::from_secs(30));
    // The two verdicts in resolution order, then the closing error.
    let mut verdicts: Vec<u64> = frames[..2]
        .iter()
        .map(|f| match f {
            Frame::Outcome(o) => o.request_id,
            other => panic!("an owed verdict must precede the closing error, got {other:?}"),
        })
        .collect();
    verdicts.sort_unstable();
    assert_eq!(verdicts, [0, 1], "{frames:?}");
    match &frames[2] {
        Frame::Error(e) => assert_eq!(e.code, codec::ErrorCode::Malformed),
        other => panic!("garbage must be answered Malformed, got {other:?}"),
    }

    // After the error frame the server closes the connection.
    sock.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut rest = Vec::new();
    match sock.read_to_end(&mut rest) {
        Ok(0) => {}
        Ok(n) => panic!("server sent {n} byte(s) past the closing error frame"),
        // A reset instead of FIN is also a close.
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("waiting for close: {e}"),
    }

    let report = server.shutdown();
    assert!(report.metrics.is_conserved());
    assert_eq!(report.metrics.submitted, 2);
}

/// Write backpressure and partial-write resumption: a client pipelines
/// thousands of snapshot requests while refusing to read, so the
/// server's per-connection write queue fills past its pause threshold
/// and drains through `EPOLLOUT` resumptions once the client starts
/// reading. Every reply arrives, in request order.
#[test]
fn partial_writes_resume_and_replies_stay_ordered() {
    const REQUESTS: u64 = 2500;

    let (server, _scenario) = start_server(NetConfig::default(), quick_service());
    let sock = TcpStream::connect(server.local_addr()).expect("connect");
    sock.set_nodelay(true).expect("nodelay");

    let mut write_half = sock.try_clone().expect("clone socket");
    let writer = std::thread::spawn(move || {
        // ~3 MB of replies will be owed; the submit side is ~80 KB and
        // fits in socket buffers even while the server pauses reads.
        let mut wire = Vec::new();
        for i in 0..REQUESTS {
            wire.extend_from_slice(&codec::encode(&Frame::Snapshot(SnapshotRequest { request_id: i })));
        }
        write_half.write_all(&wire).expect("write pipelined snapshots");
    });

    // Let the server's write buffer fill while nothing reads.
    std::thread::sleep(Duration::from_millis(300));

    let mut sock = sock;
    sock.set_read_timeout(Some(Duration::from_millis(100))).expect("read timeout");
    let hard_stop = Instant::now() + Duration::from_secs(60);
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut next_id = 0u64;
    while next_id < REQUESTS {
        assert!(Instant::now() < hard_stop, "timed out at reply {next_id}/{REQUESTS}");
        match sock.read(&mut chunk) {
            Ok(0) => panic!("server closed at reply {next_id}/{REQUESTS}"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
                continue
            }
            Err(e) => panic!("read failed at reply {next_id}/{REQUESTS}: {e}"),
        }
        while let Some((frame, consumed)) = codec::decode(&buf).expect("never malformed") {
            buf.drain(..consumed);
            match frame {
                Frame::Metrics(m) => {
                    assert_eq!(m.request_id, next_id, "replies must arrive in request order");
                    next_id += 1;
                }
                other => panic!("snapshot answered with {other:?}"),
            }
        }
    }
    writer.join().expect("writer thread");

    drop(sock);
    let report = server.shutdown();
    assert!(report.metrics.is_conserved());
}

/// Connection-churn chaos: waves of short-lived clients, half of them
/// vanishing with verdicts still in flight (dead-connection path), half
/// closing politely after collecting every reply. The reactor must free
/// every slot and the service must conserve — abandoned tickets are
/// still redeemed, never leaked.
#[test]
fn connection_churn_conserves_and_frees_every_slot() {
    const WAVES: usize = 5;
    const POLITE_PER_WAVE: usize = 6;
    const RUDE_PER_WAVE: usize = 6;
    const SUBMITS_PER_CLIENT: u64 = 8;

    let (server, scenario) = start_server(NetConfig::default(), quick_service());
    let addr = server.local_addr();
    let protos: Vec<_> =
        scenario.instance.tasks.iter().cloned().zip(scenario.instance.options.iter().cloned()).collect();

    let mut polite_offered = 0u64;
    let mut polite_resolved = 0u64;
    for wave in 0..WAVES {
        let (resolved, offered) = std::thread::scope(|scope| {
            let polite: Vec<_> = (0..POLITE_PER_WAVE)
                .map(|idx| {
                    let protos = &protos;
                    scope.spawn(move || {
                        let client = Client::connect(addr, ClientConfig::default()).expect("connect");
                        let mut pending = Vec::new();
                        for i in 0..SUBMITS_PER_CLIENT {
                            let proto = &protos[(idx + i as usize) % protos.len()];
                            let mut task = proto.0.clone();
                            task.id = TaskId((wave * 10_000 + idx * 100) as u32 + i as u32);
                            pending.push(client.submit(task, proto.1.clone(), None).expect("submit"));
                        }
                        let mut resolved = 0u64;
                        for p in pending {
                            match p.wait_timeout(Duration::from_secs(30)) {
                                Ok(
                                    Outcome::Admitted { .. }
                                    | Outcome::Rejected { .. }
                                    | Outcome::Shed { .. }
                                    | Outcome::Expired { .. },
                                ) => resolved += 1,
                                Err(e) => panic!("polite client lost a verdict: {e}"),
                            }
                        }
                        client.close();
                        resolved
                    })
                })
                .collect();
            let rude: Vec<_> = (0..RUDE_PER_WAVE)
                .map(|idx| {
                    let protos = &protos;
                    scope.spawn(move || {
                        // Raw socket: pipeline submits, vanish without
                        // reading a single reply (RST likely).
                        let mut sock = TcpStream::connect(addr).expect("connect");
                        let mut wire = Vec::new();
                        for i in 0..SUBMITS_PER_CLIENT {
                            let proto = &protos[(idx + i as usize) % protos.len()];
                            let mut task = proto.0.clone();
                            task.id = TaskId((wave * 10_000 + 5_000 + idx * 100) as u32 + i as u32);
                            wire.extend_from_slice(&codec::encode(&Frame::Submit(SubmitRequest {
                                request_id: i,
                                deadline_us: 0,
                                task,
                                options: proto.1.clone(),
                            })));
                        }
                        sock.write_all(&wire).expect("write");
                        drop(sock);
                    })
                })
                .collect();
            let mut resolved = 0u64;
            for h in polite {
                resolved += h.join().expect("polite client");
            }
            for h in rude {
                h.join().expect("rude client");
            }
            (resolved, (POLITE_PER_WAVE as u64) * SUBMITS_PER_CLIENT)
        });
        polite_resolved += resolved;
        polite_offered += offered;
    }

    // Every slot frees: the reactor reaps the abandoned connections too.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_connections() > 0 {
        assert!(Instant::now() < deadline, "{} connection slot(s) leaked", server.active_connections());
        std::thread::sleep(Duration::from_millis(5));
    }

    let report = server.shutdown();
    let m = &report.metrics;
    assert_eq!(polite_resolved, polite_offered, "polite clients saw every verdict");
    assert!(m.is_conserved(), "churn broke conservation: {m:?}");
    assert!(
        m.submitted >= polite_offered,
        "at least the polite submits ingressed: {} < {polite_offered}",
        m.submitted
    );
}
