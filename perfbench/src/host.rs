//! The system under test runs in a child process of its own: this
//! binary started with `--host WORKLOAD DIR`.
//!
//! The child sets the workload's servers (and router) up, serves, and
//! answers a few line commands on stdin. Everything the benchmark does
//! on its own side (building requests, keeping and checking answers,
//! evaluating expected answers, direct layer probes) happens in the
//! parent, so none of it shows in the servers' peak memory, in their
//! allocation counts or in the process-global series `/metrics` exports.
//!
//! Commands, one per line, each answered by one line prefixed
//! [`PREFIX`]:
//!
//! - `alloc on`, `alloc off`: turn the counting allocator on or off;
//!   answers the allocations counted so far;
//! - `rss`: answers the process's peak resident set (VmHWM), in MB;
//! - `stop`: stops every server, answers `stopped` and exits.
//!
//! Its first answer, once set up, is `ready FRONT SERVERS SETUP_S`.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use hyperbench_repo::Repository;

use crate::alloc;
use crate::deploy::{server_config, start_server, Deployment};
use crate::fixture;
use crate::stats::median;

/// Marks the child's protocol lines on its stdout.
const PREFIX: &str = "perfbench-host ";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The parent's handle on a running host process.
pub struct Host {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// Where clients send requests (the router when there is one).
    pub addr: SocketAddr,
    /// Each server's address (shard primaries first, then replicas).
    pub servers: Vec<SocketAddr>,
    /// The median set-up time, in seconds.
    pub setup_s: f64,
}

impl Host {
    /// Starts the host for `workload`, with `dir` for its writable files,
    /// and waits until it is set up. The workload's fixtures must exist.
    pub fn start(workload: &str, dir: &Path) -> Result<Host, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--host")
            .arg(workload)
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the host process: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut host = Host {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            servers: Vec::new(),
            setup_s: 0.0,
        };
        let ready = host.answer()?;
        let parts: Vec<&str> = ready.split(' ').collect();
        let parsed = match parts.as_slice() {
            ["ready", front, servers, setup_s] => (|| {
                host.addr = front.parse().ok()?;
                host.servers = servers
                    .split(',')
                    .map(|s| s.parse().ok())
                    .collect::<Option<_>>()?;
                host.setup_s = setup_s.parse().ok()?;
                Some(())
            })(),
            _ => None,
        };
        parsed.ok_or_else(|| format!("host answered {ready:?}, not ready"))?;
        Ok(host)
    }

    /// The next protocol line from the host.
    fn answer(&mut self) -> Result<String, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("host: {e}"))?;
            if n == 0 {
                return Err("the host process exited".to_string());
            }
            if let Some(rest) = line.strip_prefix(PREFIX) {
                return Ok(rest.trim_end().to_string());
            }
        }
    }

    fn ask(&mut self, command: &str) -> Result<String, String> {
        writeln!(self.stdin, "{command}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("host: {e}"))?;
        self.answer()
    }

    /// Turns the host's allocation counting on or off; returns the
    /// allocations counted so far.
    pub fn allocations(&mut self, counting: bool) -> Result<u64, String> {
        let answer = self.ask(if counting { "alloc on" } else { "alloc off" })?;
        answer
            .parse()
            .map_err(|_| format!("host answered {answer:?} to alloc"))
    }

    /// The host's peak resident set so far, in MB.
    pub fn peak_rss_mb(&mut self) -> Result<f64, String> {
        let answer = self.ask("rss")?;
        answer
            .parse()
            .map_err(|_| format!("host answered {answer:?} to rss"))
    }

    /// Stops every server and waits for the host to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let answer = self.ask("stop")?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if answer != "stopped" || !status.success() {
            return Err(format!("host stopped with {answer:?}, {status}"));
        }
        Ok(())
    }
}

impl Drop for Host {
    /// A host the run did not stop (it failed part-way) is killed.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The child side: sets up, reports ready, then serves commands until
/// `stop` or the end of stdin.
pub fn serve(args: &[String]) -> Result<(), String> {
    let [workload, dir] = args else {
        return Err(format!("bad host arguments {args:?}"));
    };
    let dir = PathBuf::from(dir);
    let (deployment, setup_s) = setup_repeated(|| setup(workload, &dir))?;
    let servers: Vec<String> = deployment.servers.iter().map(|a| a.to_string()).collect();
    say(&format!(
        "ready {} {} {setup_s}",
        deployment.addr,
        servers.join(",")
    ));
    let mut stopped = false;
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "alloc on" => {
                alloc::set_counting(true);
                say(&alloc::allocations().to_string());
            }
            "alloc off" => {
                alloc::set_counting(false);
                say(&alloc::allocations().to_string());
            }
            "rss" => say(&peak_rss_mb().to_string()),
            "stop" => {
                stopped = true;
                break;
            }
            other => say(&format!("unknown command {other:?}")),
        }
    }
    deployment.stop();
    if stopped {
        say("stopped");
    }
    Ok(())
}

fn say(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{PREFIX}{line}");
    let _ = out.flush();
}

/// Times repeated set-ups (see [`SETUPS`]), stops all but the last, and
/// returns it with the median set-up time.
fn setup_repeated(
    mut setup: impl FnMut() -> Result<(Deployment, Duration), String>,
) -> Result<(Deployment, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUPS {
        if let Some(previous) = last.take() {
            Deployment::stop(previous);
        }
        let (deployment, took) = setup()?;
        times.push(took.as_secs_f64());
        last = Some(deployment);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// One set-up of `workload`'s deployment, timed from the first step that
/// belongs to the server (opening its pack) to the first healthy answer.
fn setup(workload: &str, dir: &Path) -> Result<(Deployment, Duration), String> {
    let config = server_config(None);
    match workload {
        "browse" => {
            let pack = fixture::corpus(fixture::CORPUS_SEED, 10)?;
            let t = Instant::now();
            let (a, s, j) = start_server(open_pack(&pack)?, &config).map_err(|e| e.to_string())?;
            ready(Deployment::single(a, s, j), t)
        }
        "routed" => {
            let packs = [
                fixture::corpus(fixture::CORPUS_SEED, 1)?,
                fixture::corpus(fixture::CORPUS_SEED + 1, 1)?,
            ];
            let t = Instant::now();
            let mut shards = Vec::new();
            for (s, pack) in packs.iter().enumerate() {
                // Shard 0 runs a read replica beside its primary.
                let copies = if s == 0 { 2 } else { 1 };
                let mut servers = Vec::new();
                for _ in 0..copies {
                    servers
                        .push(start_server(open_pack(pack)?, &config).map_err(|e| e.to_string())?);
                }
                shards.push(servers);
            }
            ready(Deployment::routed(shards).map_err(|e| e.to_string())?, t)
        }
        "ingest" => {
            // Set-up replays the fixture log and folds it into the pack.
            let (pack, wal) = (dir.join("repo.pack"), dir.join("repo.wal"));
            fixture::copy_fresh(&fixture::corpus(fixture::CORPUS_SEED, 1)?, &pack)?;
            fixture::copy_fresh(&fixture::wal()?, &wal)?;
            let t = Instant::now();
            let mut config = server_config(Some(wal));
            config.checkpoint_pack = Some(pack.clone());
            let (a, s, j) = start_server(open_pack(&pack)?, &config).map_err(|e| e.to_string())?;
            ready(Deployment::single(a, s, j), t)
        }
        "analyze" => {
            // Set-up recovers, compacts and replays the fixture spill segment.
            let spill = dir.join("cache.spill");
            fixture::copy_fresh(&fixture::spill()?, &spill)?;
            let t = Instant::now();
            let mut config = config;
            config.spill = Some(spill);
            let (a, s, j) = start_server(Repository::new(), &config).map_err(|e| e.to_string())?;
            ready(Deployment::single(a, s, j), t)
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn ready(deployment: Deployment, since: Instant) -> Result<(Deployment, Duration), String> {
    deployment.wait_ready().map_err(|e| e.to_string())?;
    Ok((deployment, since.elapsed()))
}

pub fn open_pack(path: &Path) -> Result<Repository, String> {
    Repository::open_pack(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
