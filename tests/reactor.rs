//! Reactor-specific regression tests over real sockets: slow-loris and
//! slow-reader clients must be evicted with bounded memory, and a reactor
//! thread that dies mid-load must trip a graceful, accounted shutdown.

use sse_repro::net::frame::{encode_frame, read_frame, MAX_FRAME_LEN};
use sse_repro::server::daemon::{Daemon, ServerConfig};
use sse_repro::server::proto::{
    self, Hello, SchemeId, ADMIN_STATS, HELLO_SEQ, KIND_ADMIN, STATUS_OK,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn hello_bytes() -> Vec<u8> {
    encode_frame(
        &Hello {
            tenant: "reactor-test".into(),
            scheme: SchemeId::Scheme1,
        }
        .encode(),
    )
}

fn expect_ok(stream: &mut TcpStream, seq: u32) {
    let body = read_frame(stream, MAX_FRAME_LEN).expect("response frame");
    let (status, got_seq, _) = proto::decode_response(&body).expect("response envelope");
    assert_eq!((status, got_seq), (STATUS_OK, seq));
}

/// Poll the daemon's stats until `pred` holds or the deadline passes.
fn wait_for_stats(
    daemon: &Daemon,
    deadline: Duration,
    pred: impl Fn(&sse_repro::server::proto::StatsSnapshot) -> bool,
) -> sse_repro::server::proto::StatsSnapshot {
    let start = Instant::now();
    loop {
        let snap = daemon.stats();
        if pred(&snap) || start.elapsed() > deadline {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A client dripping one header byte per tick never completes a frame, so
/// it never counts as activity: the idle deadline reaps it even though
/// the socket is "busy". (The thread-per-connection daemon had the same
/// deadline; the regression risk is the reactor resetting the clock on
/// partial reads.)
#[test]
fn slow_loris_client_is_reaped_by_the_idle_deadline() {
    let daemon = Daemon::spawn(ServerConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    // A frame that will never complete: 1000 declared bytes, dripped one
    // byte per 30ms. 150ms idle deadline ⇒ reaped after ~5 drips.
    let mut doomed = 1000u32.to_le_bytes().to_vec();
    doomed.extend_from_slice(&[0u8; 8]);
    let start = Instant::now();
    let mut evicted = false;
    for byte in doomed.iter() {
        if stream.write_all(std::slice::from_ref(byte)).is_err() {
            evicted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(30));
        if start.elapsed() > Duration::from_secs(3) {
            break;
        }
    }
    if !evicted {
        // Writes may keep landing in kernel buffers after the server
        // closed; a read observes the close (EOF or reset) directly.
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 1];
        evicted = matches!(stream.read(&mut buf), Ok(0) | Err(_));
    }
    assert!(evicted, "slow-loris client still connected after deadline");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "eviction took too long: {:?}",
        start.elapsed()
    );
    let snap = wait_for_stats(&daemon, Duration::from_secs(2), |s| {
        s.conns_idle_reaped >= 1
    });
    assert!(
        snap.conns_idle_reaped >= 1,
        "idle reap not counted: {snap:?}"
    );
    daemon.shutdown();
}

/// A client that floods requests and never reads its responses must hit
/// the bounded write queue and be disconnected — the daemon's memory
/// stays flat instead of buffering responses without bound.
#[test]
fn never_draining_reader_is_disconnected_at_the_write_queue_bound() {
    let daemon = Daemon::spawn(ServerConfig {
        workers: 1,
        queue_depth: 64,
        // Small bound so the test hits it within kernel-buffer noise:
        // each ADMIN_STATS response is a few hundred bytes.
        write_queue_limit: 8 * 1024,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&hello_bytes()).unwrap();
    expect_ok(&mut stream, HELLO_SEQ);

    // Pipeline thousands of stats requests without ever reading. The
    // responses fill the kernel send buffer, then the reactor's write
    // queue, then the bound trips and the connection is cut.
    let request = encode_frame(&proto::encode_request(KIND_ADMIN, 1, &[ADMIN_STATS]));
    let mut burst = Vec::with_capacity(request.len() * 64);
    for _ in 0..64 {
        burst.extend_from_slice(&request);
    }
    let start = Instant::now();
    let mut disconnected = false;
    while start.elapsed() < Duration::from_secs(10) {
        if stream.write_all(&burst).is_err() {
            disconnected = true;
            break;
        }
    }
    assert!(disconnected, "slow reader was never disconnected");
    let snap = wait_for_stats(&daemon, Duration::from_secs(2), |s| {
        s.slow_reader_disconnects >= 1
    });
    assert!(
        snap.slow_reader_disconnects >= 1,
        "disconnect not counted as slow reader: {snap:?}"
    );
    daemon.shutdown();
}

/// Killing the reactor thread mid-load must start a graceful drain (the
/// daemon can never accept again) and be visible in the shutdown report
/// as a panicked thread — not read as a clean exit.
#[test]
fn reactor_panic_mid_load_trips_shutdown_and_is_counted() {
    let daemon = Daemon::spawn(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr();

    // Background load that tolerates the daemon dying under it.
    let clients: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let Ok(mut stream) = TcpStream::connect(addr) else {
                    return;
                };
                let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
                if stream.write_all(&hello_bytes()).is_err() {
                    return;
                }
                let _ = read_frame(&mut stream, MAX_FRAME_LEN);
                let request = encode_frame(&proto::encode_request(KIND_ADMIN, 2, &[ADMIN_STATS]));
                for _ in 0..200 {
                    if stream.write_all(&request).is_err()
                        || read_frame(&mut stream, MAX_FRAME_LEN).is_err()
                    {
                        return;
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(50));
    daemon.inject_reactor_panic();

    // The dying reactor must request shutdown itself; bounded wait so a
    // regression fails the test instead of hanging it.
    let signal = daemon.shutdown_signal();
    let start = Instant::now();
    while !signal.is_requested() && start.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        signal.is_requested(),
        "reactor death did not trip the shutdown signal"
    );
    for join in clients {
        let _ = join.join();
    }

    let report = daemon.shutdown();
    assert!(
        report.threads_panicked >= 1,
        "reactor panic not counted: {report:?}"
    );
    // Workers still drained cleanly.
    assert_eq!(report.workers_joined, 2);
}
