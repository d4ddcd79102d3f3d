//! Ten thousand hello-then-silent connections against one `sse-serverd`
//! process: the reactor holds them at a flat per-connection memory cost,
//! reaps, cuts and refuses none of them, and still drains clean when told
//! to shut down with every one of them open (DESIGN.md §4i).

use sse_net::frame::{encode_frame, read_frame, MAX_FRAME_LEN};
use sse_server::proto::{self, Hello, SchemeId, HELLO_SEQ, STATUS_OK};
use sse_server::transport::TcpTransport;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Connections to hold where the fd limit allows it.
const HERD: usize = 10_000;
/// Fewer than this proves nothing about scaling: fail, do not pass.
const HERD_FLOOR: usize = 1_000;
/// Descriptors this process keeps for everything that is not the herd.
const FD_HEADROOM: u64 = 256;

/// The child daemon, killed on drop so a failed assertion never leaves
/// one listening. Its stdout stays open for its whole life: a closed pipe
/// would turn the exit summary it prints into a fatal `EPIPE`.
struct Serverd {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Drop for Serverd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_serverd(max_conns: usize) -> Serverd {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sse-serverd"))
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        // Far beyond the run: a reap here is a bug in the activity
        // accounting, not the deadline doing its job.
        .args(["--idle-timeout-ms", "3600000", "--scrub-interval-ms", "0"])
        .args(["--max-conns", &max_conns.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn sse-serverd");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .strip_prefix("sse-serverd listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected first line from sse-serverd: {banner:?}"))
        .to_string();
    Serverd {
        child,
        _stdout: stdout,
        addr,
    }
}

/// Complete the hello round trip, then leave the socket silent.
fn open_idle_conn(addr: &str, hello: &[u8]) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(hello)?;
    let body = read_frame(&mut stream, MAX_FRAME_LEN)?;
    let (status, seq, _) = proto::decode_response(&body).expect("well-formed hello reply");
    assert_eq!((status, seq), (STATUS_OK, HELLO_SEQ));
    Ok(stream)
}

/// Resident set size of `pid` in bytes.
fn rss_bytes(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("/proc/<pid>/status has a VmRSS: line");
    let kb: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kb * 1024
}

#[test]
fn idle_herd_costs_flat_memory_and_drains_clean() {
    let granted = epoll::raise_nofile_limit(HERD as u64 + FD_HEADROOM).unwrap();
    let herd_size = HERD.min(granted.saturating_sub(FD_HEADROOM) as usize);
    assert!(
        herd_size >= HERD_FLOOR,
        "an fd limit of {granted} leaves room for {herd_size} connection(s); \
         at least {HERD_FLOOR} are needed (raise `ulimit -n`)"
    );
    // The child inherits this process's limit and raises its own from
    // `--max-conns`; room for the herd, the admin connection and spares.
    let mut serverd = spawn_serverd(herd_size + 64);
    let pid = serverd.child.id();
    let hello = encode_frame(
        &Hello {
            tenant: "idle-tenant".into(),
            scheme: SchemeId::Scheme1,
        }
        .encode(),
    );

    let half = herd_size / 2;
    let rss_start = rss_bytes(pid);
    let mut herd = Vec::with_capacity(herd_size);
    let mut rss_half = rss_start;
    while herd.len() < herd_size {
        let conn = open_idle_conn(&serverd.addr, &hello)
            .unwrap_or_else(|e| panic!("connection {} of {herd_size}: {e}", herd.len() + 1));
        herd.push(conn);
        if herd.len() == half {
            rss_half = rss_bytes(pid);
        }
    }
    let rss_full = rss_bytes(pid);
    let per_conn_first = rss_half.saturating_sub(rss_start) / half as u64;
    let per_conn_second = rss_full.saturating_sub(rss_half) / (herd_size - half) as u64;
    assert!(
        per_conn_second < 8192,
        "{per_conn_second} B of RSS per idle connection over the second half"
    );
    assert!(
        per_conn_second <= 3 * per_conn_first + 1024,
        "per-connection memory is not flat: {per_conn_first} B over the first half, \
         {per_conn_second} B over the second"
    );

    let mut admin = TcpTransport::connect(&serverd.addr, "admin", SchemeId::Scheme2).unwrap();
    let stats = admin.admin_stats().unwrap();
    assert!(
        stats.conns_open as usize > herd_size,
        "the daemon counts {} open connection(s), the herd is {herd_size}",
        stats.conns_open
    );
    assert_eq!(
        (
            stats.conns_idle_reaped,
            stats.slow_reader_disconnects,
            stats.conns_rejected
        ),
        (0, 0, 0),
        "idle connections reaped / cut as slow readers / refused at accept"
    );

    admin.admin_shutdown().unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        match serverd.child.try_wait().unwrap() {
            Some(status) => break status,
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            None => panic!("sse-serverd still running 60 s after ADMIN_SHUTDOWN"),
        }
    };
    assert!(
        status.success(),
        "sse-serverd exited {status} with {herd_size} connection(s) still open"
    );
    drop(herd);
}
