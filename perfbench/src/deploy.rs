//! The system under test, in-process: `/v1` servers and the router,
//! each on its own threads and an ephemeral loopback port.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hyperbench_repo::Repository;
use hyperbench_router::{RouterOptions, ShardMap};
use hyperbench_server::reactor::ReactorOptions;
use hyperbench_server::{Server, ServerConfig, ShutdownHandle};

use crate::scrape::Scrape;
use crate::wire::ResponseReader;

/// Router offload threads (the `hyperbench router` default).
const ROUTER_OFFLOAD: usize = 16;

/// Running servers and, when sharded, the router in front of them.
pub struct Deployment {
    /// Where clients send requests (the router when there is one).
    pub addr: SocketAddr,
    /// Each server's address (shard primaries first, then replicas).
    pub servers: Vec<SocketAddr>,
    stops: Vec<(ShutdownHandle, JoinHandle<()>)>,
    router: Option<(Arc<AtomicBool>, JoinHandle<io::Result<()>>)>,
}

/// The server configuration every workload uses: `hyperbench serve`'s
/// defaults on an ephemeral port, with no spill segment.
pub fn server_config(wal: Option<std::path::PathBuf>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        checkpoint_pack: None,
        wal,
        ..ServerConfig::default()
    }
}

/// Binds and runs one server over `repo`.
pub fn start_server(
    repo: Repository,
    config: &ServerConfig,
) -> io::Result<(SocketAddr, ShutdownHandle, JoinHandle<()>)> {
    let server = Server::bind(repo, config)?;
    let addr = server.local_addr();
    let stop = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    Ok((addr, stop, join))
}

impl Deployment {
    /// A single server.
    pub fn single(addr: SocketAddr, stop: ShutdownHandle, join: JoinHandle<()>) -> Deployment {
        Deployment {
            addr,
            servers: vec![addr],
            stops: vec![(stop, join)],
            router: None,
        }
    }

    /// Servers behind a router: `shards[s]` lists shard `s`'s servers,
    /// primary first.
    pub fn routed(
        shards: Vec<Vec<(SocketAddr, ShutdownHandle, JoinHandle<()>)>>,
    ) -> io::Result<Deployment> {
        let mut map = String::new();
        let mut servers = Vec::new();
        let mut stops = Vec::new();
        for shard in shards {
            let line: Vec<String> = shard.iter().map(|(a, _, _)| a.to_string()).collect();
            map.push_str(&line.join(" "));
            map.push('\n');
            for (addr, stop, join) in shard {
                servers.push(addr);
                stops.push((stop, join));
            }
        }
        let map = ShardMap::parse(&map).map_err(io::Error::other)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let join = std::thread::spawn(move || {
            hyperbench_router::serve(
                listener,
                &map,
                RouterOptions::default(),
                ReactorOptions::default(),
                ROUTER_OFFLOAD,
                flag,
            )
        });
        Ok(Deployment {
            addr,
            servers,
            stops,
            router: Some((shutdown, join)),
        })
    }

    /// Waits until the front answers `GET /v1/healthz` and, behind a
    /// router, until its topology reports every upstream healthy.
    pub fn wait_ready(&self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let healthy = match get(self.addr, "/v1/healthz") {
                Ok((200, _)) if self.router.is_none() => true,
                Ok((200, _)) => get(self.addr, "/admin/topology").is_ok_and(|(_, body)| {
                    healthy_upstreams(&String::from_utf8_lossy(&body)) == self.servers.len()
                }),
                _ => false,
            };
            if healthy {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "never became healthy",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops the router and every server and waits for their threads.
    pub fn stop(self) {
        if let Some((flag, join)) = self.router {
            flag.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
            let _ = join.join();
        }
        for (stop, join) in self.stops {
            stop.shutdown();
            let _ = join.join();
        }
    }
}

/// Upstreams a router's `/admin/topology` reports healthy.
fn healthy_upstreams(topology: &str) -> usize {
    let Ok(json) = hyperbench_api::Json::parse(topology) else {
        return 0;
    };
    let shards = json.get("shards").and_then(|s| s.as_arr()).unwrap_or(&[]);
    shards
        .iter()
        .flat_map(|s| s.get("upstreams").and_then(|u| u.as_arr()).unwrap_or(&[]))
        .filter(|u| u.get("healthy").and_then(|h| h.as_bool()) == Some(true))
        .count()
}

/// One closed-loop exchange on a keep-alive connection.
pub fn exchange(
    stream: &mut TcpStream,
    reader: &mut ResponseReader,
    request: &[u8],
) -> io::Result<(u16, Vec<u8>)> {
    stream.write_all(request)?;
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(r) = reader
            .next_response()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        {
            return Ok((r.status, r.body));
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        reader.feed(&buf[..n]);
    }
}

/// A keep-alive connection for closed-loop exchanges.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(stream)
}

/// One `GET` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = connect(addr)?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
    exchange(&mut stream, &mut ResponseReader::new(), request.as_bytes())
}

/// Scrapes `/metrics` from `addr`.
pub fn scrape(addr: SocketAddr) -> io::Result<Scrape> {
    let (status, body) = get(addr, "/metrics")?;
    if status != 200 {
        return Err(io::Error::other(format!("/metrics answered {status}")));
    }
    Ok(Scrape::parse(&String::from_utf8_lossy(&body)))
}
