//! Transports: how bytes reach a [`Session`].
//!
//! Two implementations of the same [`Transport`] seam:
//!
//! * [`LoopbackTransport`] — fully synchronous and in-process: a client
//!   write runs the session state machine inline and buffers the
//!   responses for the next read. No threads, no sockets, no timing —
//!   every protocol test and the CI smoke run are deterministic.
//! * [`TcpTransport`] / [`TcpServer`] — `std::net` over
//!   thread-per-connection with a bounded accept pool. The accept thread
//!   blocks in `accept`, so a connection is served the moment it
//!   arrives; each accept joins the connection threads that have
//!   finished, so memory stays flat however many connections were
//!   served. [`TcpServer::shutdown`] begins the drain and dials the
//!   listener once to wake the accept, then drains every live session
//!   (delivers queued results, says `bye`), joins its threads, and hands
//!   back the final metrics page.
//!
//! Both feed the identical [`Session`]; the loopback-vs-direct corpus
//! test is what entitles the TCP path to that trust.

use crate::protocol::{encode_frame, FrameDecoder};
use crate::server::Server;
use crate::session::Session;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
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
/// threads notice a drain. Neither delays a connection or a request:
/// `accept` and `read` return the moment there is something to return.
const POLL: Duration = Duration::from_millis(10);

/// Join handles of the connection threads that may still be running.
type Registry = Arc<Mutex<Vec<JoinHandle<()>>>>;

/// The TCP front door: a bound listener, an accept loop, and a bounded
/// pool of connection threads.
pub struct TcpServer {
    server: Arc<Server>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Registry,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting for `server`.
    pub fn bind(server: Arc<Server>, addr: impl ToSocketAddrs) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let conns = Registry::default();
        let live = Arc::new(AtomicUsize::new(0));

        let accept = {
            let server = server.clone();
            let conns = conns.clone();
            std::thread::spawn(move || {
                accept_loop(&listener, &server, &conns, &live);
            })
        };
        Ok(TcpServer {
            server,
            addr,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, finish in-flight work, deliver
    /// queued results and `bye` to every live connection, join all
    /// threads, and return the final metrics page — the flush of record.
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
        let handles =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for h in handles {
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

/// Blocks in `accept` until the server drains; spawns one thread per
/// accepted connection, refusing past the configured bound. A
/// connection accepted once the drain has begun (the wake-up dial among
/// them) is dropped unserved. Accept errors (EMFILE, ECONNABORTED, ...)
/// never end the loop: it backs off [`POLL`] and accepts again.
fn accept_loop(
    listener: &TcpListener,
    server: &Arc<Server>,
    conns: &Registry,
    live: &Arc<AtomicUsize>,
) {
    while !server.is_draining() {
        match listener.accept() {
            Ok(_) if server.is_draining() => return,
            Ok((mut stream, _)) => {
                let max = server.config().max_conns;
                if max > 0 && live.load(Ordering::Acquire) >= max {
                    refuse_busy(stream);
                    continue;
                }
                live.fetch_add(1, Ordering::AcqRel);
                let server = server.clone();
                let live = live.clone();
                let handle = std::thread::spawn(move || {
                    conn_thread(&server, &mut stream);
                    // Free the slot before the socket closes, so a client
                    // that has seen its connection end can reconnect
                    // without being refused as busy.
                    live.fetch_sub(1, Ordering::AcqRel);
                    drop(stream);
                });
                let mut conns = conns.lock().unwrap_or_else(PoisonError::into_inner);
                reap_finished(&mut conns);
                conns.push(handle);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Joins and removes every connection thread that has already returned,
/// so the registry (and the stacks of joinable threads) stays bounded by
/// the live connections rather than growing with every one served.
fn reap_finished(conns: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < conns.len() {
        if conns[i].is_finished() {
            let _ = conns.swap_remove(i).join();
        } else {
            i += 1;
        }
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

/// One connection thread: shuttle bytes between the socket and the
/// session until the peer leaves, the session dies, or a drain begins.
fn conn_thread(server: &Arc<Server>, stream: &mut TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let mut session = Session::new(server.clone());
    let mut buf = [0u8; 4096];
    loop {
        if session.is_closed() {
            return;
        }
        if server.is_draining() {
            for frame in session.drain() {
                if stream.write_all(&frame).is_err() {
                    return;
                }
            }
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                session.on_close();
                return;
            }
            Ok(n) => {
                for frame in session.on_bytes(&buf[..n]) {
                    if stream.write_all(&frame).is_err() {
                        session.on_close();
                        return;
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => {
                session.on_close();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::server::ServerConfig;

    #[test]
    fn finished_connection_threads_are_reaped() {
        let tcp = TcpServer::bind(Server::new(ServerConfig::new(1, 1)), "127.0.0.1:0")
            .expect("bind ephemeral");
        let transport = TcpTransport::new(tcp.local_addr()).expect("transport");
        for _ in 0..256 {
            let mut client = Client::connect(&transport).expect("tcp connect + hello");
            client.bye().expect("clean close");
        }
        // Each accept reaps every thread that has returned; only the last
        // few connections can still be winding down.
        let held = tcp.conns.lock().expect("conn registry").len();
        assert!(
            held <= 8,
            "registry holds {held} handles after 256 connections"
        );
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
