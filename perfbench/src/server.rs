//! The `hull serve` child process: base WAL, spawn, cold-start timing,
//! peak RSS, and reaping.

use chull_service::{wal_path, HullClient, Journal};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kills and reaps the child on drop, so a panicking benchmark never
/// leaves a server behind.
pub struct ChildGuard(Option<Child>);

impl ChildGuard {
    fn pid(&self) -> u32 {
        self.0.as_ref().map_or(0, Child::id)
    }

    /// Wait up to `limit` for a graceful exit, then kill; reaps either way.
    fn finish(&mut self, limit: Duration) {
        if let Some(mut c) = self.0.take() {
            let t0 = Instant::now();
            while t0.elapsed() < limit {
                if let Ok(Some(_)) = c.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut c) = self.0.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Write `units` as the shard-0 WAL under `dir`: one marked batch unit
/// per slice, flushed once at the end. Runs before any clock starts.
pub fn write_base_wal<'a>(
    dim: usize,
    dir: &Path,
    units: impl Iterator<Item = &'a [Vec<i64>]>,
) -> std::io::Result<()> {
    let mut journal = Journal::with_wal(dim, dir, 0)?;
    for unit in units {
        for row in unit {
            journal.append(row)?;
        }
        journal.mark_batch()?;
    }
    journal.sync()
}

/// A fresh WAL directory holding a copy of the base WAL.
pub fn copy_wal(base: &Path, to: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(to)?;
    std::fs::copy(wal_path(base, 0), wal_path(to, 0))?;
    Ok(to.to_path_buf())
}

pub struct Server {
    guard: ChildGuard,
    pub addr: String,
    /// Seconds from spawn until `listening on` and an answered `Hello`.
    pub setup_s: f64,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn `hull serve` with `flags` (plus an ephemeral `--addr`) and
    /// time its cold start: WAL replay, bind, and one handshake.
    pub fn start(hull: &Path, flags: &[String]) -> std::io::Result<Server> {
        let t0 = Instant::now();
        let mut child = Command::new(hull)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let err = child.stderr.take().expect("stderr is piped");
        let mut guard = ChildGuard(Some(child));
        let mut lines = BufReader::new(err).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(a) = line.strip_prefix("hull: listening on ") {
                        break a.trim().to_string();
                    }
                }
                _ => {
                    guard.finish(Duration::ZERO);
                    return Err(std::io::Error::other("server exited before listening"));
                }
            }
        };
        HullClient::builder(addr.clone())
            .deadline(Duration::from_secs(10))
            .connect()?;
        let setup_s = t0.elapsed().as_secs_f64();
        // Keep draining stderr so the server never blocks on a full pipe.
        let stderr = std::thread::spawn(move || for _ in lines.by_ref() {});
        Ok(Server {
            guard,
            addr,
            setup_s,
            stderr: Some(stderr),
        })
    }

    pub fn client(&self) -> std::io::Result<HullClient> {
        HullClient::builder(self.addr.clone())
            .deadline(Duration::from_secs(30))
            .connect()
    }

    /// The server process's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.guard.pid())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Graceful `Shutdown`, then reap (killing after a grace period).
    pub fn stop(mut self) {
        if let Ok(mut c) = self.client() {
            let _ = c.shutdown_server();
        }
        self.guard.finish(Duration::from_secs(10));
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}
