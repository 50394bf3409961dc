//! Transports: how bytes reach a [`Session`].
//!
//! Two implementations of the same [`Transport`] seam:
//!
//! * [`LoopbackTransport`] — fully synchronous and in-process: a client
//!   write runs the session state machine inline and buffers the
//!   responses for the next read. No threads, no sockets, no timing —
//!   every protocol test and the CI smoke run are deterministic.
//! * [`TcpTransport`] / [`TcpServer`] — `std::net` over a pool of
//!   long-lived connection workers. The accept thread blocks in
//!   `accept`, so a connection is served the moment it arrives, and
//!   hands each socket to an idle worker; it spawns a worker only when
//!   none is idle, so the pool grows to the peak number of concurrent
//!   connections (at most `max_conns`) however many connections are
//!   served. A worker answers each batch of request frames with one
//!   write, and a client that stops reading is cut off after a fixed
//!   write deadline. [`TcpServer::shutdown`] begins the drain and dials
//!   the listener once to wake the accept, then drains every live
//!   session (delivers queued results, says `bye`), joins its threads,
//!   and hands back the final metrics page.
//!
//! Both feed the identical [`Session`]; the loopback-vs-direct corpus
//! test is what entitles the TCP path to that trust.

use crate::protocol::{encode_frame, FrameDecoder};
use crate::server::Server;
use crate::session::Session;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// A client-side connection: write request payloads, read response
/// payloads (both without framing — the connection frames).
pub trait ClientConn {
    /// Sends one request payload.
    fn write_payload(&mut self, payload: &str) -> io::Result<()>;
    /// Receives the next response payload; `None` when the peer closed.
    fn read_payload(&mut self) -> io::Result<Option<String>>;
}

/// Something a client can connect through.
pub trait Transport {
    /// Opens a connection.
    fn connect(&self) -> io::Result<Box<dyn ClientConn>>;
}

/// Deterministic in-process transport over a shared [`Server`].
#[derive(Clone)]
pub struct LoopbackTransport {
    server: Arc<Server>,
}

impl LoopbackTransport {
    /// A loopback front door over `server`.
    #[must_use]
    pub fn new(server: Arc<Server>) -> LoopbackTransport {
        LoopbackTransport { server }
    }
}

impl Transport for LoopbackTransport {
    fn connect(&self) -> io::Result<Box<dyn ClientConn>> {
        Ok(Box::new(LoopbackConn {
            session: Session::new(self.server.clone()),
            decoder: FrameDecoder::new(0),
            inbox: VecDeque::new(),
        }))
    }
}

/// One loopback connection: the session runs inline in the caller.
struct LoopbackConn {
    session: Session,
    decoder: FrameDecoder,
    inbox: VecDeque<String>,
}

impl ClientConn for LoopbackConn {
    fn write_payload(&mut self, payload: &str) -> io::Result<()> {
        if self.session.is_closed() {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection closed",
            ));
        }
        for frame in self.session.on_bytes(&encode_frame(payload)) {
            self.decoder.push(&frame);
            while let Some(p) = self
                .decoder
                .next_payload()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            {
                self.inbox.push_back(p);
            }
        }
        Ok(())
    }

    fn read_payload(&mut self) -> io::Result<Option<String>> {
        Ok(self.inbox.pop_front())
    }
}

/// TCP client transport: connects to a [`TcpServer`]'s address.
pub struct TcpTransport {
    addr: SocketAddr,
}

impl TcpTransport {
    /// A transport dialling `addr`.
    pub fn new(addr: impl ToSocketAddrs) -> io::Result<TcpTransport> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        Ok(TcpTransport { addr })
    }
}

impl Transport for TcpTransport {
    fn connect(&self) -> io::Result<Box<dyn ClientConn>> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        Ok(Box::new(TcpConn {
            stream,
            decoder: FrameDecoder::new(0),
        }))
    }
}

/// One TCP client connection (blocking reads).
struct TcpConn {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl ClientConn for TcpConn {
    fn write_payload(&mut self, payload: &str) -> io::Result<()> {
        self.stream.write_all(&encode_frame(payload))
    }

    fn read_payload(&mut self) -> io::Result<Option<String>> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(p) = self
                .decoder
                .next_payload()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            {
                return Ok(Some(p));
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(None),
                Ok(n) => self.decoder.push(&buf[..n]),
                Err(e) => return Err(e),
            }
        }
    }
}

/// The back-off after a failed `accept` (so a persistent EMFILE cannot
/// spin the accept thread), and the read timeout on which connection
/// workers notice a drain. Neither delays a connection or a request:
/// `accept` and `read` return the moment there is something to return.
const POLL: Duration = Duration::from_millis(10);

/// How long one write to a client may stall before its session is
/// closed: a client that stops reading loses its connection instead of
/// pinning a worker, and the drain that joins it, for good.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// The capacity a worker's batch buffer keeps between batches; one that
/// grew past it for an outsized batch gives the excess back.
const BATCH_KEEP: usize = 64 * 1024;

/// The TCP front door: a bound listener, an accept loop, and a pool of
/// long-lived connection workers.
pub struct TcpServer {
    server: Arc<Server>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    pool: Arc<Pool>,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting for `server`. No connection worker exists until the
    /// first connection arrives.
    pub fn bind(server: Arc<Server>, addr: impl ToSocketAddrs) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let pool = Arc::new(Pool::default());

        let accept = {
            let server = server.clone();
            let pool = pool.clone();
            std::thread::spawn(move || accept_loop(&listener, &server, &pool))
        };
        Ok(TcpServer {
            server,
            addr,
            accept: Some(accept),
            pool,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, finish in-flight work, deliver
    /// queued results and `bye` to every live connection (one accepted
    /// but not yet claimed by a worker included), join all threads, and
    /// return the final metrics page — the flush of record.
    ///
    /// The accept thread is blocked in `accept`, so once the drain has
    /// begun the server dials itself to wake it.
    pub fn shutdown(mut self) -> String {
        self.server.begin_drain();
        // Best-effort: if the accept thread has already left (a drain
        // begun through `Server::begin_drain` ends it at its next accept),
        // the dial is refused and nothing waits on it.
        let _ = TcpStream::connect(wake_addr(self.addr));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.pool.close() {
            let _ = h.join();
        }
        self.server.metrics_page()
    }
}

/// The address that reaches a listener bound to `bound`: the matching
/// loopback address when it was bound to the unspecified one.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Blocks in `accept` until the server drains, handing each accepted
/// connection to the worker pool. A connection accepted once the drain
/// has begun (the wake-up dial among them) is dropped unserved. Accept
/// errors (EMFILE, ECONNABORTED, ...) never end the loop: it backs off
/// [`POLL`] and accepts again.
fn accept_loop(listener: &TcpListener, server: &Arc<Server>, pool: &Arc<Pool>) {
    while !server.is_draining() {
        match listener.accept() {
            Ok(_) if server.is_draining() => return,
            Ok((stream, _)) => pool.dispatch(server, stream),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// The connection workers. Every worker is busy with one connection or
/// idle; a busy worker holds one of the `live` slots that `max_conns`
/// bounds, so the pool never outgrows the peak number of concurrent
/// connections.
#[derive(Default)]
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a socket is queued or the pool closes.
    ready: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// Accepted sockets not yet claimed; each is promised to a worker
    /// that was idle when it was queued.
    queue: VecDeque<TcpStream>,
    /// Idle workers that no queued socket is promised to.
    idle: usize,
    /// Connections being served or queued.
    live: usize,
    /// Set by `shutdown`: a worker with no socket to claim exits.
    closed: bool,
    /// Every worker spawned.
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// The pool state, recovered if a holder panicked: every update
    /// under the lock is a plain field write, so the state is valid
    /// between any two.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands an accepted socket to an idle worker, or to a new one when
    /// none is idle; past the configured bound the client is refused
    /// `busy` instead.
    fn dispatch(self: &Arc<Pool>, server: &Arc<Server>, stream: TcpStream) {
        let max = server.config().max_conns;
        let mut st = self.lock();
        if max > 0 && st.live >= max {
            drop(st);
            refuse_busy(stream);
            return;
        }
        st.live += 1;
        if st.idle > 0 {
            st.idle -= 1;
            st.queue.push_back(stream);
            self.ready.notify_one();
            return;
        }
        let worker = {
            let (pool, server) = (self.clone(), server.clone());
            std::thread::Builder::new().spawn(move || pool.work(&server, stream))
        };
        match worker {
            Ok(h) => st.workers.push(h),
            // No thread to serve it: the socket went down with the
            // closure, so the client sees its connection close.
            Err(_) => st.live -= 1,
        }
    }

    /// One worker: serves `first`, then each socket handed to it, until
    /// the pool closes.
    fn work(&self, server: &Arc<Server>, first: TcpStream) {
        let mut batch = Vec::new();
        let mut next = Some(first);
        while let Some(stream) = next {
            serve_conn(server, stream, &mut batch, || self.release());
            next = self.claim();
        }
    }

    /// A session is over: free its slot and mark its worker idle.
    fn release(&self) {
        let mut st = self.lock();
        st.live -= 1;
        st.idle += 1;
    }

    /// Waits for the next socket; `None` once the pool has closed and no
    /// socket is left to claim.
    fn claim(&self) -> Option<TcpStream> {
        let mut st = self.lock();
        loop {
            if let Some(stream) = st.queue.pop_front() {
                return Some(stream);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the pool, wakes every idle worker, and hands back the
    /// workers to join.
    fn close(&self) -> Vec<JoinHandle<()>> {
        let workers = {
            let mut st = self.lock();
            st.closed = true;
            std::mem::take(&mut st.workers)
        };
        self.ready.notify_all();
        workers
    }
}

/// Tells an over-capacity client why it is being dropped. Best-effort:
/// the refusal itself must never take the accept loop down.
fn refuse_busy(mut stream: TcpStream) {
    let payload = crate::protocol::response_payload(&crate::protocol::Response::Error {
        code: "busy".into(),
        message: "connection limit reached; retry later".into(),
    });
    let _ = stream.write_all(&encode_frame(&payload));
}

/// Serves one connection: shuttles bytes between the socket and the
/// session until the peer leaves, the session closes, or a drain begins.
/// `release` runs once the session is over and before its final frames
/// (`bye`, a fatal `error`) are written, so a client that has read them
/// and redials finds this worker idle. The socket closes on return.
fn serve_conn(
    server: &Arc<Server>,
    mut stream: TcpStream,
    batch: &mut Vec<u8>,
    release: impl FnOnce(),
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut session = Session::new(server.clone());
    let mut buf = [0u8; 4096];
    let last = loop {
        let frames = if server.is_draining() {
            session.drain()
        } else {
            match stream.read(&mut buf) {
                Ok(0) => {
                    session.on_close();
                    Vec::new()
                }
                Ok(n) => session.on_bytes(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(_) => {
                    session.on_close();
                    Vec::new()
                }
            }
        };
        if session.is_closed() {
            break frames;
        }
        if write_batch(&mut stream, batch, &frames).is_err() {
            session.on_close();
            break Vec::new();
        }
    };
    release();
    let _ = write_batch(&mut stream, batch, &last);
}

/// Sends a batch of frames with one `write_all`, assembled in `batch`,
/// the worker's reused buffer.
fn write_batch(stream: &mut TcpStream, batch: &mut Vec<u8>, frames: &[Vec<u8>]) -> io::Result<()> {
    if frames.is_empty() {
        return Ok(());
    }
    for frame in frames {
        batch.extend_from_slice(frame);
    }
    let sent = stream.write_all(batch);
    batch.clear();
    batch.shrink_to(BATCH_KEEP);
    sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::server::ServerConfig;

    /// Runs `cycles` connect → `hello` → `bye` conversations.
    fn churn(addr: SocketAddr, cycles: usize) {
        let transport = TcpTransport::new(addr).expect("transport");
        for _ in 0..cycles {
            let mut client = Client::connect(&transport).expect("tcp connect + hello");
            client.bye().expect("clean close");
        }
    }

    fn workers(tcp: &TcpServer) -> usize {
        tcp.pool.lock().workers.len()
    }

    #[test]
    fn sequential_connections_are_served_by_one_worker() {
        let tcp = TcpServer::bind(Server::new(ServerConfig::new(1, 1)), "127.0.0.1:0")
            .expect("bind ephemeral");
        assert_eq!(workers(&tcp), 0, "bind spawns no worker");
        churn(tcp.local_addr(), 256);
        // The worker goes idle before it writes `bye`, so every redial
        // finds it waiting.
        assert_eq!(workers(&tcp), 1);
        tcp.shutdown();
    }

    #[test]
    fn two_concurrent_clients_never_grow_the_pool_past_two() {
        let tcp = TcpServer::bind(Server::new(ServerConfig::new(1, 1)), "127.0.0.1:0")
            .expect("bind ephemeral");
        let addr = tcp.local_addr();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    churn(addr, 128);
                });
            }
        });
        let grown = workers(&tcp);
        assert!((1..=2).contains(&grown), "{grown} workers for 2 clients");
        tcp.shutdown();
    }

    #[test]
    fn wake_addr_dials_loopback_for_unspecified_binds() {
        let cases = [
            ("0.0.0.0:7000", "127.0.0.1:7000"),
            ("[::]:7000", "[::1]:7000"),
            ("127.0.0.1:7000", "127.0.0.1:7000"),
            ("[::1]:7000", "[::1]:7000"),
        ];
        for (bound, dial) in cases {
            let bound: SocketAddr = bound.parse().expect("literal");
            assert_eq!(wake_addr(bound), dial.parse().expect("literal"), "{bound}");
        }
    }
}
