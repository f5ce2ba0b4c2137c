//! The program under test, driven from outside: `cwelmax index shard`
//! builds the store, `cwelmax serve --store` serves it, and the load
//! generator speaks raw NDJSON over loopback (no typed client, so client
//! encoding never counts toward the program's latency).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Paper settings for the index (§6.1.3) and the store layout.
pub const EPS: &str = "0.5";
pub const ELL: &str = "1";
pub const SHARDS: &str = "8";

fn other(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// Run `cwelmax index shard` for `graph` into `out`.
pub fn build_store(cwelmax: &Path, graph: &Path, out: &Path, seed: u64) -> io::Result<()> {
    if out.exists() {
        std::fs::remove_dir_all(out)?;
    }
    let status = Command::new(cwelmax)
        .args(["index", "shard", "--graph"])
        .arg(graph)
        .arg("--out")
        .arg(out)
        .args(["--budget-cap", &crate::gen::BUDGET_CAP.to_string()])
        .args(["--eps", EPS, "--ell", ELL, "--shards", SHARDS])
        .args(["--seed", &seed.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(other(format!("`cwelmax index shard` failed: {status}")));
    }
    Ok(())
}

/// Copy a store directory (flat: manifest, shards, journal).
pub fn copy_store(from: &Path, to: &Path) -> io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// A running `cwelmax serve --store` process. Dropping it kills and
/// reaps the process, so no server outlives the benchmark.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Start serving `store` on an ephemeral loopback port and wait for
    /// the readiness line.
    pub fn spawn(cwelmax: &Path, graph: &Path, store: &Path) -> io::Result<Server> {
        let mut child = Command::new(cwelmax)
            .arg("serve")
            .arg("--graph")
            .arg(graph)
            .arg("--store")
            .arg(store)
            .args(["--addr", "127.0.0.1:0", "--log-level", "error"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("cwelmax-serve listening on ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(other(format!("server did not start: {line:?}")));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Peak resident set (VmHWM) of the serve process, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| other("no VmHWM in /proc status".into()))
    }

    /// Ask the server to stop and wait for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        if let Ok(mut c) = Conn::connect(self.addr) {
            let _ = c.roundtrip("{\"type\":\"shutdown\",\"v\":2}");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(other("server ignored shutdown".into()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn send_line(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    stream.write_all(&bytes)
}

/// The sending half of a [`Conn`].
pub struct Writer(TcpStream);

impl Writer {
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        send_line(&mut self.0, line)
    }
}

/// One NDJSON connection with its own line buffer (reads may end
/// mid-line, and the open loop reads with timeouts).
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        send_line(&mut self.stream, line)
    }

    /// A second handle on the socket for a sending thread.
    pub fn writer(&self) -> io::Result<Writer> {
        Ok(Writer(self.stream.try_clone()?))
    }

    /// A complete buffered line, if one has arrived.
    fn take_line(&mut self) -> Option<String> {
        let end = self.buf.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[..end]).into_owned();
        self.buf.drain(..=end);
        Some(line)
    }

    /// Read until a line arrives or `wait` passes (`None` = block).
    pub fn recv_within(&mut self, wait: Option<Duration>) -> io::Result<Option<String>> {
        if let Some(line) = self.take_line() {
            return Ok(Some(line));
        }
        self.stream
            .set_read_timeout(wait.map(|w| w.max(Duration::from_micros(1))))?;
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(other("server closed the connection".into())),
            Ok(k) => {
                self.buf.extend_from_slice(&chunk[..k]);
                Ok(self.take_line())
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Block for the next line.
    pub fn recv(&mut self) -> io::Result<String> {
        loop {
            if let Some(line) = self.recv_within(None)? {
                return Ok(line);
            }
        }
    }

    /// Send one line and wait for its answer.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}
