//! The child `sse-serverd`: spawn, find its port, read its `/proc`
//! counters, kill it, restart it on the same directory.
//!
//! The daemon runs as a separate process so that `/proc/<pid>` measures
//! the program alone — not the load generator, not the oracle — and so
//! that the crash test is a real `SIGKILL`.

use std::io::{BufRead, BufReader, Error, Result};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Storage the daemon serves from.
#[derive(Clone, Debug)]
pub enum Storage {
    InMemory,
    /// Durable under `dir` with the named backend (`btree` / `lsm`).
    Durable {
        dir: PathBuf,
        backend: &'static str,
    },
}

/// A directory that is removed when its owner goes away, whichever way.
pub struct ScratchDir(pub PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running child daemon. Dropping it kills the process, reaps it, and
/// (for the owner of a data directory) removes the directory — a failed
/// run must leave neither a listener nor scratch data behind.
pub struct Daemon {
    child: Child,
    /// Kept open for the child's lifetime: the daemon prints its drain
    /// summary to stdout, and a closed pipe would turn that into EPIPE.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    storage: Storage,
    /// Whether dropping this handle removes the data directory (false
    /// while a restart on the same directory is still to come).
    pub remove_dir_on_drop: bool,
}

/// Load shape, fixed — it does not scale with `nproc`. One worker beside
/// the reactor: the whole run is pinned to one CPU (`affinity`), where a
/// second worker could only steal from the first and reorder a pipeline.
const WORKERS: &str = "1";
const QUEUE: &str = "64";

impl Daemon {
    /// Start `serverd` on an ephemeral loopback port and wait until it
    /// prints its listening address.
    ///
    /// # Errors
    /// Spawn failures, or a daemon that exits or stays silent for 30 s.
    pub fn spawn(serverd: &Path, storage: Storage) -> Result<Daemon> {
        let mut cmd = Command::new(serverd);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            WORKERS,
            "--queue",
            QUEUE,
        ])
        // The background scrub would add timer-driven reads to a run
        // whose disk numbers should come from the trace alone.
        .args(["--scrub-interval-ms", "0", "--scheme1-capacity", "4096"])
        // Keeps the daemon from asking for a 100 000-fd limit.
        .args(["--max-conns", "64"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
        if let Storage::Durable { dir, backend } = &storage {
            std::fs::create_dir_all(dir)?;
            cmd.arg("--data-dir").arg(dir).args(["--backend", backend]);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| Error::other(format!("cannot start {}: {e}", serverd.display())))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 || Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(Error::other("sse-serverd exited before listening"));
            }
            if let Some(rest) = line.strip_prefix("sse-serverd listening on ") {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
            storage,
            remove_dir_on_drop: true,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SIGKILL` the daemon (no drain, no checkpoint) and reap it. The
    /// data directory stays for [`Daemon::spawn`] to reopen.
    pub fn kill(mut self) -> Storage {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.remove_dir_on_drop = false;
        self.storage.clone()
    }

    /// Counters of the child as `/proc/<pid>` reports them now.
    ///
    /// # Errors
    /// I/O errors (the child died) or an unparsable `/proc` file.
    pub fn proc_snapshot(&self) -> Result<ProcSnapshot> {
        ProcSnapshot::read(self.pid())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let (true, Storage::Durable { dir, .. }) = (self.remove_dir_on_drop, &self.storage) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// What `/proc/<pid>/{stat,status,io}` and `/proc/<pid>/task/*/status`
/// say about the child at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSnapshot {
    /// utime + stime of the whole process, in microseconds.
    pub cpu_us: u64,
    /// Peak resident set (`VmHWM`), KiB.
    pub rss_hwm_kb: u64,
    /// Bytes the process caused to be sent to the storage layer.
    pub write_bytes: u64,
    /// Voluntary + involuntary context switches, summed over threads.
    pub ctx_switches: u64,
}

/// Linux reports process times in clock ticks of 1/100 s on every
/// platform this repo builds for (`getconf CLK_TCK`).
const TICK_US: u64 = 10_000;

impl ProcSnapshot {
    /// Read the counters of any process this user owns.
    ///
    /// # Errors
    /// I/O errors (no such process) or an unparsable `/proc` file.
    pub fn read(pid: u32) -> Result<ProcSnapshot> {
        let bad = |what: &str| Error::other(format!("/proc/{pid}/{what}: unexpected format"));
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let after = stat.rsplit_once(')').ok_or_else(|| bad("stat"))?.1;
        let fields: Vec<&str> = after.split_whitespace().collect();
        let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        let cpu_us =
            (tick(11).ok_or_else(|| bad("stat"))? + tick(12).ok_or_else(|| bad("stat"))?) * TICK_US;

        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        let rss_hwm_kb = field_kb(&status, "VmHWM:").ok_or_else(|| bad("status"))?;

        // Unreadable on kernels built without task I/O accounting; the
        // disk metric then reads zero rather than failing the run.
        let write_bytes = std::fs::read_to_string(format!("/proc/{pid}/io"))
            .ok()
            .and_then(|io| field_kb(&io, "write_bytes:"))
            .unwrap_or(0);

        let mut ctx_switches = 0;
        for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
            // A thread can exit between readdir and read.
            let Ok(s) = std::fs::read_to_string(task?.path().join("status")) else {
                continue;
            };
            ctx_switches += field_kb(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + field_kb(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
        Ok(ProcSnapshot {
            cpu_us,
            rss_hwm_kb,
            write_bytes,
            ctx_switches,
        })
    }
}

/// First number after `key` at the start of a line.
fn field_kb(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let snap = ProcSnapshot::read(std::process::id()).unwrap();
        assert!(snap.rss_hwm_kb > 0);
        assert_eq!(field_kb("a: 1\nVmHWM:\t  1780 kB\n", "VmHWM:"), Some(1780));
        assert_eq!(field_kb("x", "VmHWM:"), None);
    }
}
