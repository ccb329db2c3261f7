//! Driving the real `firmup` binary: build it, run CLI commands as
//! child processes, and run a `firmup serve` daemon over TCP.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Build the `firmup` binary from the checkout in the current directory
/// (release profile, honouring `CARGO_TARGET_DIR`) and return its
/// absolute path.
pub fn build_firmup() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "-q", "--bin", "firmup"])
        .args(["--manifest-path", "Cargo.toml"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of firmup failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(target)
        .join("release")
        .join("firmup");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built binary missing at {}", bin.display()))
    }
}

/// One finished CLI invocation.
pub struct Run {
    pub ok: bool,
    pub stdout: Vec<u8>,
    pub wall: Duration,
    pub stderr: String,
}

/// Run `firmup ARGS` in `dir`, timing spawn to exit.
pub fn run(bin: &Path, dir: &Path, args: &[&str]) -> Result<Run, String> {
    let start = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn firmup {}: {e}", args.join(" ")))?;
    Ok(Run {
        ok: out.status.success(),
        stdout: out.stdout,
        wall: start.elapsed(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    })
}

/// Like [`run`], but a failed command is an error.
pub fn run_ok(bin: &Path, dir: &Path, args: &[&str]) -> Result<Run, String> {
    let r = run(bin, dir, args)?;
    if r.ok {
        Ok(r)
    } else {
        Err(format!(
            "firmup {} failed: {}",
            args.join(" "),
            r.stderr.trim()
        ))
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// A running `firmup serve` child. Dropping it stops the daemon.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
}

impl Daemon {
    /// Start `firmup serve` on the index `idx` (relative to `dir`) with
    /// two request workers of one scan thread each, and wait until it
    /// has published its listening address.
    pub fn start(bin: &Path, dir: &Path, idx: &str) -> Result<Daemon, String> {
        let port_file = dir.join("serve.port");
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(dir.join("serve.log")).map_err(|e| e.to_string())?;
        let child = Command::new(bin)
            .args(["serve", "--index", idx, "--listen", "127.0.0.1:0"])
            .args([
                "--port-file",
                "serve.port",
                "--workers",
                "2",
                "--threads",
                "1",
            ])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn firmup serve: {e}"))?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            // The daemon writes the file atomically once it listens.
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                daemon.addr = addr.trim().to_string();
                return Ok(daemon);
            }
            let child = daemon.child.as_mut().expect("daemon child present");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("firmup serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("firmup serve did not publish its port".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Peak resident set (`VmHWM`) of the daemon so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("daemon child present").id();
        let status =
            std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// SIGTERM the daemon (it drains admitted requests) and wait for it;
    /// a daemon still running after 30 s is killed.
    pub fn stop(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("daemon child present");
        let term = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("firmup serve exited {status}")),
                Ok(None) if term.is_ok() && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("firmup serve did not stop on SIGTERM".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Send one newline-JSON scan request and read the response to EOF,
/// timing from connect to the last response byte.
pub fn request(addr: &str, body: &str) -> std::io::Result<(Vec<u8>, Duration)> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.write_all(body.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut out = Vec::new();
    stream.read_to_end(&mut out)?;
    Ok((out, start.elapsed()))
}
