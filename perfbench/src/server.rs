//! The served program: `abq serve --listen` (or `abq store build` then
//! `abq serve --store`) as a child process.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to print its listening address.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `abq serve --listen` child. Dropping it kills the child
/// and waits for it.
pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
    /// The server's `ready: ...` line (rows, shards, threads, AB bytes,
    /// kernel), recorded in the run's configuration.
    pub ready: String,
    forwarder: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `abq <args>` and returns once it answers a ping. The
    /// second value is the time from `start` until that first answered
    /// ping, in seconds.
    pub fn launch(abq: &Path, args: &[String], start: Instant) -> Result<(Server, f64), String> {
        let mut child = Command::new(abq)
            .args(args)
            .env_remove("AB_HYBRID")
            .env_remove("AB_SIMD")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", abq.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel::<String>();
        // Forward every server line to our stderr (stdout carries only
        // the benchmark's own output) and to the startup watcher.
        let forwarder = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                eprintln!("[abq] {line}");
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ready: String::new(),
            forwarder: Some(forwarder),
        };
        let deadline = start + STARTUP_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx
                .recv_timeout(left)
                .map_err(|_| "server exited or timed out before listening".to_string())?;
            if line.starts_with("ready:") {
                server.ready = line;
            } else if let Some(rest) = line.strip_prefix("listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listen address `{addr}`: {e}"))?;
                break;
            }
        }
        loop {
            if let Ok(mut c) = net::Client::connect(server.addr) {
                c.set_read_timeout(Some(Duration::from_secs(10)))
                    .map_err(|e| e.to_string())?;
                if c.ping().is_ok() {
                    break;
                }
            }
            if Instant::now() > deadline {
                return Err("server never answered a ping".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    /// How the server ended, if it is no longer running.
    pub fn exited(&mut self) -> Option<std::process::ExitStatus> {
        self.child.as_mut()?.try_wait().ok().flatten()
    }

    /// Peak resident set size of the server (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// Kills the server and waits for it and its output forwarder.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(f) = self.forwarder.take() {
            let _ = f.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Runs `abq store build` to completion; returns its wall time in
/// seconds and its summary line.
pub fn store_build(abq: &Path, csv: &Path, out: &Path) -> Result<(f64, String), String> {
    let t = Instant::now();
    let output = Command::new(abq)
        .args(["store", "build", "--csv"])
        .arg(csv)
        .arg("--out")
        .arg(out)
        .args(["--hier", "--hybrid"])
        .env_remove("AB_HYBRID")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", abq.display()))?;
    let secs = t.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&output.stdout).trim().to_string();
    if !output.status.success() {
        return Err(format!(
            "abq store build failed ({}): {text}",
            output.status
        ));
    }
    eprintln!("[abq] {text}");
    Ok((secs, text))
}
