//! The wire side: an in-process `TcpServer` and the closed-loop clients
//! that load it over real loopback TCP.

use crate::oracle::{Answer, Tally};
use crate::trace::{Tracer, ROOT};
use crate::workload::{Catalog, Generator};
use jsk_serve::protocol::{
    encode_frame, parse_response, request_payload, FrameDecoder, Request, Response,
    PROTOCOL_VERSION,
};
use jsk_serve::transport::Transport;
use jsk_serve::{Server, ServerConfig, TcpServer, TcpTransport};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kernel shards behind the front door (the repository's `JSK_SHARDS`
/// default).
pub const SHARDS: usize = 4;
/// Pool worker threads.
pub const WORKERS: usize = 2;
/// Closed-loop client threads, each holding at most one connection.
pub const CLIENTS: usize = 2;
/// A reply slower than this is an I/O failure, not a hang.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// How long after `bind` the set-up clients dial (not part of `setup_s`).
const CLIENT_ARRIVAL: Duration = Duration::from_millis(2);
/// Pause after a failed connect, so a refusing server is not spun on.
const CONNECT_BACKOFF: Duration = Duration::from_millis(1);

pub fn frame(req: &Request) -> Vec<u8> {
    encode_frame(&request_payload(req))
}

pub fn hello_frame() -> Vec<u8> {
    frame(&Request::Hello {
        version: PROTOCOL_VERSION,
    })
}

fn invalid(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// One client connection with its own frame decoder.
pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(0),
            buf: vec![0; 64 * 1024],
        })
    }

    pub fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)
    }

    /// The next response, with its payload exactly as received.
    pub fn recv(&mut self) -> io::Result<(Response, String)> {
        loop {
            if let Some(p) = self.decoder.next_payload().map_err(invalid)? {
                return Ok((parse_response(&p).map_err(invalid)?, p));
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.decoder.push(&self.buf[..n]);
        }
    }

    fn expect_hello_ok(&mut self) -> io::Result<()> {
        match self.recv()?.0 {
            Response::HelloOk { .. } => Ok(()),
            other => Err(invalid(format!("hello refused: {other:?}"))),
        }
    }

    /// Connects and completes the `hello` handshake.
    pub fn handshake(addr: SocketAddr) -> io::Result<Conn> {
        let mut c = Conn::open(addr)?;
        c.send(&hello_frame())?;
        c.expect_hello_ok()?;
        Ok(c)
    }

    /// Says `bye` and waits for the server's.
    pub fn bye(mut self) -> io::Result<()> {
        self.send(&frame(&Request::Bye))?;
        match self.recv()?.0 {
            Response::Bye => Ok(()),
            other => Err(invalid(format!("bye answered with {other:?}"))),
        }
    }
}

/// A running front door with its clients' first connections.
pub struct Rig {
    pub server: Arc<Server>,
    pub tcp: TcpServer,
    pub addr: SocketAddr,
    pub conns: Vec<Conn>,
}

impl Rig {
    /// Starts a server and opens both clients' connections. The set-up
    /// time runs from `Server::new` until both clients have finished
    /// `hello`, less a fixed `CLIENT_ARRIVAL` pause between `bind` and
    /// the first connect: clients dial a server that is already
    /// listening, instead of racing its accept thread's first poll.
    pub fn start() -> io::Result<(Rig, Duration)> {
        let t0 = Instant::now();
        let server = Server::new(ServerConfig::new(SHARDS, WORKERS));
        let tcp = TcpServer::bind(server.clone(), "127.0.0.1:0")?;
        let addr = tcp.local_addr();
        let bound = t0.elapsed();
        std::thread::sleep(CLIENT_ARRIVAL);
        let t1 = Instant::now();
        let mut conns = (0..CLIENTS)
            .map(|_| Conn::open(addr))
            .collect::<io::Result<Vec<_>>>()?;
        let hello = hello_frame();
        for c in &mut conns {
            c.send(&hello)?;
        }
        for c in &mut conns {
            c.expect_hello_ok()?;
        }
        let took = bound + t1.elapsed();
        let rig = Rig {
            server,
            tcp,
            addr,
            conns,
        };
        Ok((rig, took))
    }

    /// Closes the clients' connections, drains the server, and joins every
    /// server thread.
    pub fn stop(self) {
        drop(self.conns);
        self.tcp.shutdown();
    }
}

/// Starts `n` rigs, keeps the last, and returns every set-up time.
pub fn setup(n: usize) -> io::Result<(Rig, Vec<f64>)> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        if let Some(old) = last.take() {
            Rig::stop(old);
        }
        let (rig, took) = Rig::start()?;
        times.push(took.as_secs_f64());
        last = Some(rig);
    }
    Ok((last.expect("at least one rig"), times))
}

/// A run's timed window: requests started before `warm_end` are warm-up
/// and not counted; no request starts at or after `end`.
#[derive(Clone, Copy)]
pub struct Window {
    pub warm_end: Instant,
    pub end: Instant,
}

/// Everything one client measured.
#[derive(Default)]
pub struct ClientRun {
    pub tally: Tally,
    pub connect_errors: u64,
    /// Per site: from its `queued` ack to the client writing `flush`.
    pub queue_waits: Vec<Duration>,
}

/// One request's exchange on a connection.
struct Exchange {
    sent: Vec<Instant>,
    queued: Vec<Option<Instant>>,
    flush_sent: Option<Instant>,
    answers: Vec<Option<Answer>>,
    broken: bool,
}

impl Exchange {
    fn new(n: usize) -> Exchange {
        Exchange {
            sent: Vec::with_capacity(n),
            queued: vec![None; n],
            flush_sent: None,
            answers: (0..n).map(|_| None).collect(),
            broken: false,
        }
    }
}

/// Submits every frame (one round trip each), flushes, and maps the
/// flush's responses back onto the queued sites in order.
fn exchange(conn: &mut Conn, frames: &[Vec<u8>]) -> Exchange {
    let mut ex = Exchange::new(frames.len());
    let flush = frame(&Request::Flush);
    let result = (|| -> io::Result<()> {
        for (i, f) in frames.iter().enumerate() {
            ex.sent.push(Instant::now());
            conn.send(f)?;
            if let (Response::Queued { .. }, _) = conn.recv()? {
                ex.queued[i] = Some(Instant::now());
            }
        }
        let queued: Vec<usize> = (0..frames.len())
            .filter(|&i| ex.queued[i].is_some())
            .collect();
        ex.flush_sent = Some(Instant::now());
        conn.send(&flush)?;
        let mut next = queued.iter();
        loop {
            let (resp, payload) = conn.recv()?;
            if matches!(resp, Response::FlushOk { .. }) {
                return Ok(());
            }
            if let Some(&i) = next.next() {
                ex.answers[i] = Some((Instant::now(), resp, payload));
            }
        }
    })();
    ex.broken = result.is_err();
    ex
}

/// One closed-loop client: sends its next request only after the
/// previous one is answered, until the window closes.
pub struct Client<'a> {
    pub cat: &'a Catalog,
    pub gen: Generator,
    pub addr: SocketAddr,
    /// The persistent connection (`None` for `connect-churn`, or after an
    /// I/O error until the next reconnect).
    pub conn: Option<Conn>,
    /// Client-side spans, when tracing.
    pub tracer: Option<Tracer>,
    /// What it measured.
    pub out: ClientRun,
}

impl Client<'_> {
    pub fn run(&mut self, window: Window) {
        let out = &mut self.out;
        let persistent = self.cat.workload.persistent();
        loop {
            let began = Instant::now();
            if began >= window.end {
                break;
            }
            let sites = self.gen.next_request();
            let frames: Vec<Vec<u8>> = sites.iter().map(|s| frame(&self.cat.request(s))).collect();
            // Latency starts once the frames are encoded: at the first
            // byte written, or on `connect-churn` at the dial.
            let dialed = Instant::now();
            let mut connected = None;
            let ex = if persistent {
                if self.conn.is_none() {
                    match Conn::handshake(self.addr) {
                        Ok(c) => self.conn = Some(c),
                        Err(_) => out.connect_errors += 1,
                    }
                }
                self.conn.as_mut().map(|c| exchange(c, &frames))
            } else {
                match Conn::handshake(self.addr) {
                    Ok(mut c) => {
                        connected = Some(Instant::now());
                        let mut ex = exchange(&mut c, &frames);
                        ex.broken = ex.broken || c.bye().is_err();
                        Some(ex)
                    }
                    Err(_) => {
                        out.connect_errors += 1;
                        None
                    }
                }
            };
            if ex.is_none() {
                std::thread::sleep(CONNECT_BACKOFF);
            }
            let done = Instant::now();
            if ex.as_ref().is_some_and(|e| e.broken) {
                self.conn = None;
            }
            if began < window.warm_end {
                continue;
            }
            // Connect-per-request latency includes connect and hello.
            let (answers, starts) = match &ex {
                Some(e) if persistent => (&e.answers[..], e.sent.clone()),
                Some(e) => (&e.answers[..], vec![dialed; sites.len()]),
                None => (&[][..], Vec::new()),
            };
            out.tally.account(self.cat, &sites, answers, &starts);
            if let Some(t) = self.tracer.as_mut() {
                if let Some((e, flush)) = ex.as_ref().and_then(|e| Some((e, e.flush_sent?))) {
                    let queued = e.queued.iter().flatten();
                    out.queue_waits
                        .extend(queued.map(|q| flush.duration_since(*q)));
                }
                let req = t.id();
                let root = t.record(req, ROOT, "wire.request", dialed, done);
                if let Some(c) = connected {
                    t.record(req, root, "transport.connect", dialed, c);
                }
            }
        }
    }
}

/// Idle-server transport probes for the traced run: `n` sequential
/// `TcpTransport::connect` + `hello` round trips (each closed with
/// `bye`), recorded as `transport.connect` spans.
pub fn probe_connect(addr: SocketAddr, n: usize, t: &mut Tracer) -> io::Result<()> {
    let transport = TcpTransport::new(addr)?;
    let hello = request_payload(&Request::Hello {
        version: PROTOCOL_VERSION,
    });
    let bye = request_payload(&Request::Bye);
    for _ in 0..n {
        let req = t.id();
        let t0 = Instant::now();
        let mut conn = transport.connect()?;
        conn.write_payload(&hello)?;
        let answer = conn.read_payload()?;
        t.record(req, ROOT, "transport.connect", t0, Instant::now());
        match answer.as_deref().map(parse_response) {
            Some(Ok(Response::HelloOk { .. })) => {}
            other => return Err(invalid(format!("hello answered with {other:?}"))),
        }
        conn.write_payload(&bye)?;
        conn.read_payload()?;
    }
    Ok(())
}

/// `n` round trips of a `cancel` for a site that was never queued: the
/// server answers `not_found` without touching the pool, so the span is
/// the transport and session round trip alone (`transport.rtt`).
pub fn probe_rtt(conn: &mut Conn, n: usize, t: &mut Tracer) -> io::Result<()> {
    let cancel = frame(&Request::Cancel {
        site: "never-queued".to_owned(),
    });
    for _ in 0..n {
        let req = t.id();
        let t0 = Instant::now();
        conn.send(&cancel)?;
        let (resp, _) = conn.recv()?;
        t.record(req, ROOT, "transport.rtt", t0, Instant::now());
        if !matches!(&resp, Response::Error { code, .. } if code == "not_found") {
            return Err(invalid(format!("cancel answered with {resp:?}")));
        }
    }
    Ok(())
}
