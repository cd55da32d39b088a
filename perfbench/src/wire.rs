//! The server under test and a raw-frame client for it.

use crate::stats::peak_rss_mb;
use rc_relalg::Database;
use rc_serve::protocol::{read_frame, write_frame, Request, Response, MAX_RESPONSE_FRAME};
use rc_serve::{Server, ServerConfig};
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};

/// How the wire workloads obtain their server.
#[derive(Clone, Debug)]
pub enum ServerKind {
    /// Spawn this `rc_serve` executable as a child process.
    Spawn(PathBuf),
    /// Run the server on threads of this process (used by the
    /// benchmark's own tests, where no server executable is built).
    InProcess,
}

/// A running server.
pub struct ServerHandle {
    addr: SocketAddr,
    child: Option<(Child, ChildStdin)>,
    in_process: Option<Server>,
}

impl ServerHandle {
    /// Start a server over the facts in `facts_path`. For a spawned
    /// server this covers the process start and its own fact loading, up
    /// to the `listening on` line.
    pub fn start(kind: &ServerKind, facts_path: &Path) -> io::Result<ServerHandle> {
        match kind {
            ServerKind::Spawn(exe) => {
                let mut child = Command::new(exe)
                    .arg("--facts")
                    .arg(facts_path)
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .spawn()?;
                let stdin = child.stdin.take().expect("stdin is piped");
                let stdout = child.stdout.take().expect("stdout is piped");
                let mut line = String::new();
                BufReader::new(stdout).read_line(&mut line)?;
                let addr = line
                    .trim()
                    .strip_prefix("listening on ")
                    .and_then(|a| a.parse().ok());
                let Some(addr) = addr else {
                    drop(stdin);
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::other(format!(
                        "rc_serve did not report its address: {line:?}"
                    )));
                };
                Ok(ServerHandle {
                    addr,
                    child: Some((child, stdin)),
                    in_process: None,
                })
            }
            ServerKind::InProcess => {
                let text = std::fs::read_to_string(facts_path)?;
                let db = Database::from_facts(&text)
                    .map_err(|e| io::Error::other(format!("facts: {e}")))?;
                let server = Server::start(db, ServerConfig::default())?;
                Ok(ServerHandle {
                    addr: server.local_addr(),
                    child: None,
                    in_process: Some(server),
                })
            }
        }
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident memory of the process holding the database and the
    /// caches, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let pid = match &self.child {
            Some((child, _)) => child.id(),
            None => std::process::id(),
        };
        peak_rss_mb(pid).unwrap_or(0.0)
    }

    /// Stop the server and wait until it has exited.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some((mut child, stdin)) = self.child.take() {
            // rc_serve serves until its stdin closes.
            drop(stdin);
            let _ = child.wait();
        }
        if let Some(mut server) = self.in_process.take() {
            server.shutdown();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One client connection speaking raw frames, so the benchmark can time
/// the transfer and the response decoding separately.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream })
    }

    /// Send one encoded request and return the raw response payload.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.stream, request)?;
        match read_frame(&mut self.stream, MAX_RESPONSE_FRAME) {
            Ok(Some(payload)) => Ok(payload),
            Ok(None) => Err(io::Error::other("server closed the connection")),
            Err(e) => Err(io::Error::other(e.to_string())),
        }
    }

    /// Send a request and decode the response.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let payload = self.roundtrip(&request.encode())?;
        Response::parse(&payload).map_err(|e| io::Error::other(e.to_string()))
    }

    /// The server's `stats` counters.
    pub fn stats(&mut self) -> io::Result<ServerStats> {
        match self.call(&Request::bare(rc_serve::Verb::Stats))? {
            Response::Stats(pairs) => Ok(ServerStats(
                pairs
                    .into_iter()
                    .map(|(k, v)| (k, v.parse().unwrap_or(0)))
                    .collect(),
            )),
            other => Err(io::Error::other(format!("stats: {other:?}"))),
        }
    }
}

/// A snapshot of the server's `stats` counters.
#[derive(Clone, Debug, Default)]
pub struct ServerStats(pub Vec<(String, u64)>);

impl ServerStats {
    /// One counter by name (0 when absent).
    pub fn get(&self, key: &str) -> u64 {
        self.0.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v)
    }
}
