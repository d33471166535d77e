//! The served side: booting `strato-server` in process on loopback,
//! driving it with a closed loop of clients, and reading the process's
//! CPU time and peak memory from `/proc`.

use crate::workload::Query;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use strato_server::{client, Server, ServerConfig, ServerHandle};

/// Clients in the closed loop: each sends its next query only after the
/// previous response has fully arrived.
pub const CLIENTS: usize = 2;

/// Binds a server on an ephemeral loopback port with the default pool and
/// admission settings, spawns it, and answers `first` on it. Returns the
/// handle and the time all of that took.
pub fn boot(first: &Query) -> Result<(ServerHandle, Duration), String> {
    let t = Instant::now();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let handle = Server::bind(&config)
        .and_then(Server::spawn)
        .map_err(|e| format!("server boot: {e}"))?;
    let ok = send(&handle, &first.body)
        .map(|(status, body)| status == 200 && body.starts_with(&first.expected))
        .unwrap_or(false);
    let took = t.elapsed();
    if !ok {
        return Err("the first query after boot failed or answered wrongly".to_string());
    }
    Ok((handle, took))
}

/// One `POST /v1/query` on a fresh connection.
fn send(handle: &ServerHandle, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
    client::post_json(handle.addr(), "/v1/query", body).map(|r| (r.status, r.body))
}

/// What a closed-loop phase observed.
#[derive(Debug, Default)]
pub struct Served {
    /// Client-observed latency of every correct response, connect to last
    /// byte, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Queries sent.
    pub attempted: usize,
    /// Non-200 responses, transport errors and wrong results.
    pub failed: usize,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// The first `keep` correct response bodies, for trace analysis.
    pub kept: Vec<Vec<u8>>,
}

/// Drives `handle` with [`CLIENTS`] closed-loop clients for `run`. Client
/// `i` sends pooled query `i`, `i + CLIENTS`, … round the pool; `traced`
/// picks the `"trace": true` bodies. Every response is byte-checked
/// against the oracle's prefix.
pub fn closed_loop(
    handle: &ServerHandle,
    queries: &[Query],
    traced: bool,
    run: Duration,
    keep: usize,
) -> Served {
    let start = Instant::now();
    let deadline = start + run;
    let kept_slots = AtomicUsize::new(0);
    let per_client: Vec<Served> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let kept_slots = &kept_slots;
                s.spawn(move || {
                    let mut out = Served::default();
                    let mut next = c;
                    while Instant::now() < deadline {
                        let q = &queries[next % queries.len()];
                        next += CLIENTS;
                        let body = if traced { &q.traced_body } else { &q.body };
                        let t = Instant::now();
                        let resp = send(handle, body);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        out.attempted += 1;
                        match resp {
                            Ok((200, bytes)) if bytes.starts_with(&q.expected) => {
                                out.latencies_ms.push(ms);
                                if kept_slots.fetch_add(1, Ordering::Relaxed) < keep {
                                    out.kept.push(bytes);
                                }
                            }
                            _ => out.failed += 1,
                        }
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Served {
        elapsed: start.elapsed(),
        ..Served::default()
    };
    for c in per_client {
        all.merge(c);
    }
    all
}

impl Served {
    /// Adds `other`'s observations to these (elapsed times add up).
    pub fn merge(&mut self, other: Served) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed += other.elapsed;
        self.kept.extend(other.kept);
    }
}

/// `GET /metrics` text.
pub fn scrape(handle: &ServerHandle) -> Result<String, String> {
    client::get(handle.addr(), "/metrics")
        .map(|r| r.text())
        .map_err(|e| format!("scrape: {e}"))
}

/// The value of an unlabelled Prometheus sample.
pub fn prom_value(scrape: &str, name: &str) -> Option<f64> {
    scrape.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.trim().parse().ok())?
    })
}

/// User + system CPU time of this process (all threads, live and
/// exited), in seconds.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc: {e}"))?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the line, in USER_HZ (100 per second on Linux).
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no command field")?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        f.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| "/proc/self/stat: short line".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}
