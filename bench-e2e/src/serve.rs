//! The `dn-serve` child process: spawn with the shipped defaults, find
//! its bound address, read its peak RSS, kill it with SIGKILL.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How to start the server. Everything not named here is `dn-serve`'s
/// shipped default (`--threads` = all cores, `--workers 4`,
/// `--checkpoint-every 8`, `--trace-sample 16`, LCC + exact BC).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub bin: PathBuf,
    pub data_dir: PathBuf,
    pub ingest_dir: PathBuf,
    pub ingest_poll_ms: u64,
    pub shards: usize,
    pub log: PathBuf,
}

impl ServeConfig {
    pub fn argv(&self) -> Vec<String> {
        vec![
            self.bin.display().to_string(),
            "--data-dir".into(),
            self.data_dir.display().to_string(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--shards".into(),
            self.shards.to_string(),
            "--ingest-dir".into(),
            self.ingest_dir.display().to_string(),
            "--ingest-poll-ms".into(),
            self.ingest_poll_ms.to_string(),
        ]
    }
}

/// A running `dn-serve`. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    pub started: Instant,
}

impl Server {
    /// Spawn and wait (up to 60 s) for the `listening on http://ADDR` line.
    pub fn spawn(config: &ServeConfig) -> Result<Server, String> {
        let argv = config.argv();
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&config.log)
            .map_err(|e| format!("opening {}: {e}", config.log.display()))?;
        let started = Instant::now();
        let mut child = Command::new(&argv[0])
            .args(&argv[1..])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", argv[0]))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel::<SocketAddr>();
        // Drain stdout for the whole life of the process so the pipe never
        // fills; the thread ends at EOF, when the process is gone.
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("");
                    if let (Some(tx), Ok(addr)) = (tx.take(), addr.parse()) {
                        let _ = tx.send(addr);
                    }
                }
            }
        });
        let mut server = Server {
            child,
            stdout: Some(reader),
            addr: "127.0.0.1:0".parse().expect("literal address"),
            started,
        };
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) => {
                server.addr = addr;
                Ok(server)
            }
            Err(_) => Err(format!(
                "dn-serve did not report a listening address; see {}",
                config.log.display()
            )),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `VmHWM` of the process in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("reading /proc status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// SIGKILL the process and reap it.
    pub fn kill9(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Recursively copy a directory (data dirs hold only regular files).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Total bytes of files under `dir` whose name contains `needle`.
pub fn bytes_matching(dir: &Path, needle: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|entry| {
            let path = entry.path();
            if path.is_dir() {
                bytes_matching(&path, needle)
            } else if entry.file_name().to_string_lossy().contains(needle) {
                entry.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}
