//! The frame server: the one daemon skeleton under both the shard daemon
//! ([`crate::server`]) and the router tier (`pexeso-router`).
//!
//! One acceptor thread owns the listening socket and feeds accepted
//! connections into a bounded queue; a fixed pool of worker threads pops
//! connections and serves request frames until the peer closes. When the
//! queue is full the acceptor answers the connection with a single BUSY
//! frame and drops it — explicit backpressure instead of unbounded
//! queueing, so a traffic spike degrades into fast rejections rather than
//! ballooning latency for everyone. Above the optional soft watermark,
//! every other arrival is shed early with a typed SHED frame.
//!
//! A worker serves a connection frame by frame: read, decode, refuse the
//! request if its deadline already ran out in the accept queue, otherwise
//! hand it to the [`Handler`], then encode and write the reply. A peer
//! whose frame does not decode gets one error reply and is hung up on.
//! Shutdown (the `SHUTDOWN` verb or [`FrameServer::shutdown`]) stops the
//! acceptor, lets the workers drain the queue, and closes idle keep-alive
//! connections so no peer holds a worker for a full read timeout.
//!
//! A handler answers one decoded [`Request`] and never sees a socket. It
//! owns the [`FrameMetrics`] the skeleton records into, so it renders
//! them next to its own counters.

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pexeso_core::fault;
use pexeso_core::log::{self as plog, LogLevel, Value};

use crate::metrics::FrameMetrics;
use crate::protocol::{decode_request, encode_reply, read_frame, write_frame, Reply, Request};

/// The skeleton's knobs; each daemon fills them from its own config.
#[derive(Debug, Clone)]
pub struct FrameConfig {
    /// Log target of the skeleton's events (`"serve"`, `"router"`).
    pub component: &'static str,
    /// Worker threads serving connections (at least one runs).
    pub workers: usize,
    /// Accepted connections waiting for a worker before BUSY kicks in.
    pub queue_capacity: usize,
    /// Queue length from which every other new connection is shed;
    /// `None` disables early shedding (hard limit only).
    pub queue_soft_watermark: Option<usize>,
    /// Per-connection read timeout; an idle or wedged peer releases its
    /// worker after this long.
    pub read_timeout: Option<Duration>,
    /// Write timeout for the one-frame BUSY/SHED rejection on the
    /// acceptor thread.
    pub reject_write_timeout: Duration,
}

/// A daemon's answers to decoded requests.
pub trait Handler: Send + Sync + 'static {
    /// The counters the skeleton records into.
    fn frame_metrics(&self) -> &FrameMetrics;

    /// Answer one decoded request. Never called for a request whose
    /// deadline ran out in the accept queue.
    fn handle(&self, req: Request, ctx: &RequestCtx<'_>) -> Reply;
}

/// What a handler sees of the skeleton while it answers one request.
pub struct RequestCtx<'a> {
    /// How long the request's connection waited in the accept queue.
    /// Only the first request on a connection queued; later ones carry
    /// `None`. The handler charges it against the request's deadline.
    pub queue_wait: Option<Duration>,
    frame: &'a Frame,
}

impl RequestCtx<'_> {
    /// Connections waiting for a worker right now.
    pub fn queue_depth(&self) -> usize {
        self.frame
            .queue
            .lock()
            .expect("connection queue poisoned")
            .len()
    }

    /// Whether a shutdown is in progress.
    pub fn draining(&self) -> bool {
        self.frame.shutting_down.load(Ordering::SeqCst)
    }
}

/// One accepted connection waiting for a worker, stamped with its accept
/// time so queue wait can be charged against the request's deadline.
struct QueuedConn {
    stream: TcpStream,
    accepted_at: Instant,
}

/// The skeleton state the acceptor and the workers share.
struct Frame {
    config: FrameConfig,
    addr: SocketAddr,
    queue: Mutex<VecDeque<QueuedConn>>,
    queue_cv: Condvar,
    shutting_down: AtomicBool,
    /// Accept-sequence counter inside the soft-watermark band, driving
    /// the deterministic every-other shed.
    shed_seq: AtomicU64,
    /// Every connection currently owned by a worker, keyed by an
    /// arbitrary id. Shutdown closes these sockets directly so an idle
    /// keep-alive peer (e.g. a router's pooled connection) cannot hold
    /// a worker hostage for a full `read_timeout`.
    live_conns: Mutex<HashMap<u64, TcpStream>>,
    conn_seq: AtomicU64,
}

struct Shared<H> {
    frame: Frame,
    handler: H,
}

/// A running daemon: the skeleton's threads around one handler.
pub struct FrameServer<H> {
    threads: Vec<JoinHandle<()>>,
    shared: Arc<Shared<H>>,
}

impl<H: Handler> FrameServer<H> {
    /// Bind `addr` (port 0 for an ephemeral test port) and spawn the
    /// acceptor and worker threads around `handler`.
    pub fn start(
        addr: impl ToSocketAddrs,
        config: FrameConfig,
        handler: H,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            frame: Frame {
                addr: listener.local_addr()?,
                config,
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
                shutting_down: AtomicBool::new(false),
                shed_seq: AtomicU64::new(0),
                live_conns: Mutex::new(HashMap::new()),
                conn_seq: AtomicU64::new(0),
            },
            handler,
        });
        let mut threads = Vec::with_capacity(workers + 1);
        {
            let shared = shared.clone();
            threads.push(std::thread::spawn(move || accept_loop(listener, &shared)));
        }
        for _ in 0..workers {
            let shared = shared.clone();
            threads.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        Ok(Self { threads, shared })
    }
}

impl<H> FrameServer<H> {
    pub fn addr(&self) -> SocketAddr {
        self.shared.frame.addr
    }

    /// The handler answering this daemon's requests.
    pub fn handler(&self) -> &H {
        &self.shared.handler
    }

    /// Initiate shutdown (idempotent) and join every thread. In-flight
    /// connections finish their current request; queued connections are
    /// still served before workers exit.
    pub fn shutdown(self) {
        initiate_shutdown(&self.shared.frame);
        self.join();
    }

    /// Block until a protocol `SHUTDOWN` stops the daemon.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn initiate_shutdown(frame: &Frame) {
    if frame.shutting_down.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    frame.queue_cv.notify_all();
    // The acceptor is parked in `accept`; poke it with a throwaway
    // connection so it observes the flag.
    let _ = TcpStream::connect_timeout(&frame.addr, Duration::from_secs(1));
    // Workers parked in `read_frame` on idle keep-alive connections
    // would otherwise only notice the flag after `read_timeout`; close
    // the sockets out from under them so they return immediately.
    for conn in frame
        .live_conns
        .lock()
        .expect("conn registry poisoned")
        .values()
    {
        let _ = conn.shutdown(Shutdown::Both);
    }
}

/// RAII registration of a worker-owned connection in the shutdown
/// registry; deregisters on every exit path out of `handle_connection`.
struct ConnRegistration<'a> {
    frame: &'a Frame,
    id: u64,
}

impl<'a> ConnRegistration<'a> {
    fn new(frame: &'a Frame, stream: &TcpStream) -> Option<Self> {
        let clone = stream.try_clone().ok()?;
        let id = frame.conn_seq.fetch_add(1, Ordering::Relaxed);
        frame
            .live_conns
            .lock()
            .expect("conn registry poisoned")
            .insert(id, clone);
        Some(Self { frame, id })
    }
}

impl Drop for ConnRegistration<'_> {
    fn drop(&mut self) {
        if let Ok(mut conns) = self.frame.live_conns.lock() {
            conns.remove(&self.id);
        }
    }
}

fn accept_loop<H: Handler>(listener: TcpListener, shared: &Shared<H>) {
    let frame = &shared.frame;
    let metrics = shared.handler.frame_metrics();
    for conn in listener.incoming() {
        if frame.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let accepted_at = Instant::now();
        let mut queue = frame.queue.lock().expect("connection queue poisoned");
        let len = queue.len();
        let rejection = if len >= frame.config.queue_capacity {
            Some((&metrics.busy_rejections, "busy_rejected", Reply::Busy))
        } else if frame
            .config
            .queue_soft_watermark
            .is_some_and(|soft| len >= soft)
            // Deterministic every-other shed inside the soft band: half
            // the arrivals are turned away early (so retry-capable
            // clients back off before saturation), the other half still
            // queue — the queue can reach the hard limit under sustained
            // load, keeping BUSY reachable and the shed rate bounded.
            && frame
                .shed_seq
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(2)
        {
            Some((&metrics.shed, "load_shed", Reply::Shed))
        } else {
            None
        };
        match rejection {
            Some((counter, event, reply)) => {
                drop(queue);
                counter.fetch_add(1, Ordering::Relaxed);
                plog::log(
                    LogLevel::Warn,
                    frame.config.component,
                    event,
                    &[("queue_depth", (len as u64).into())],
                );
                reject(frame, stream, &reply);
            }
            None => {
                queue.push_back(QueuedConn {
                    stream,
                    accepted_at,
                });
                drop(queue);
                frame.queue_cv.notify_one();
            }
        }
    }
    // Unblock any workers still parked on the queue.
    frame.queue_cv.notify_all();
}

/// Answer a rejected connection with one frame, bounded by the rejection
/// write timeout: this runs on the acceptor thread, and a peer that
/// never drains its receive buffer must not stall every accept behind
/// it. A timed-out (or otherwise failed) write just drops the
/// connection — the peer sees a hang-up, which it must treat as
/// retryable anyway.
fn reject(frame: &Frame, mut stream: TcpStream, reply: &Reply) {
    let _ = stream.set_write_timeout(Some(frame.config.reject_write_timeout));
    let _ = write_frame(&mut stream, &encode_reply(reply));
}

fn worker_loop<H: Handler>(shared: &Shared<H>) {
    loop {
        let conn = {
            let mut queue = shared
                .frame
                .queue
                .lock()
                .expect("connection queue poisoned");
            loop {
                if let Some(c) = queue.pop_front() {
                    break Some(c);
                }
                if shared.frame.shutting_down.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .frame
                    .queue_cv
                    .wait(queue)
                    .expect("connection queue poisoned");
            }
        };
        match conn {
            Some(conn) => handle_connection(shared, conn),
            None => break,
        }
    }
}

fn handle_connection<H: Handler>(shared: &Shared<H>, conn: QueuedConn) {
    let frame = &shared.frame;
    let QueuedConn {
        mut stream,
        accepted_at,
    } = conn;
    let _ = stream.set_read_timeout(frame.config.read_timeout);
    let _ = stream.set_nodelay(true);
    let _registration = ConnRegistration::new(frame, &stream);
    // The first request on a connection waited in the accept queue; that
    // wait is charged against its deadline. Later requests on the same
    // (interactive) connection never queued.
    let mut queue_wait = Some(accepted_at.elapsed());
    loop {
        // Dev-only fault point: delay models a wedged server socket, an
        // injected error a connection torn mid-stream.
        if fault::check("serve.conn.read").is_err() {
            return;
        }
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            // Clean close, read timeout, or garbage framing: hang up.
            Ok(None) | Err(_) => return,
        };
        let req = match decode_request(&payload) {
            Ok(req) => req,
            Err(e) => {
                let reply = Reply::Err {
                    message: format!("bad request: {e}"),
                };
                let _ = write_frame(&mut stream, &encode_reply(&reply));
                return; // a peer speaking garbage gets one error, not a loop
            }
        };
        let is_shutdown = matches!(req, Request::Shutdown);
        let reply = answer(shared, req, queue_wait.take());
        if fault::check("serve.conn.write").is_err() {
            return;
        }
        if write_frame(&mut stream, &encode_reply(&reply)).is_err() {
            return;
        }
        if is_shutdown {
            initiate_shutdown(frame);
            return;
        }
        // A shutdown initiated elsewhere must not be held open by a
        // chatty keep-alive peer: finish the current request, then close
        // instead of reading the next frame.
        if frame.shutting_down.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Hand one request to the handler — unless it queued past its deadline.
/// Computing (or even cache-serving) a dead answer would hide the
/// overload the deadline exists to expose, so such a request gets a
/// typed refusal instead.
fn answer<H: Handler>(shared: &Shared<H>, req: Request, queue_wait: Option<Duration>) -> Reply {
    let metrics = shared.handler.frame_metrics();
    if let Some(wait) = queue_wait {
        metrics.queue_wait.record_duration(wait);
        if req.deadline().is_some_and(|deadline| wait >= deadline) {
            metrics.expired.fetch_add(1, Ordering::Relaxed);
            let waited_ms = wait.as_millis() as u64;
            let mut fields: Vec<(&str, Value)> = Vec::with_capacity(2);
            if let Some(rid) = req.request_id() {
                fields.push(("rid", Value::Rid(rid)));
            }
            fields.push(("waited_ms", waited_ms.into()));
            plog::log(
                LogLevel::Warn,
                shared.frame.config.component,
                "deadline_expired_in_queue",
                &fields,
            );
            return Reply::DeadlineExpired { waited_ms };
        }
    }
    let ctx = RequestCtx {
        queue_wait,
        frame: &shared.frame,
    };
    shared.handler.handle(req, &ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::wire_request;
    use crate::protocol::{decode_reply, encode_request};
    use pexeso_core::config::{JoinThreshold, Tau};
    use pexeso_core::query::Query;
    use pexeso_core::vector::VectorStore;
    use std::io::Write;
    use std::sync::atomic::AtomicUsize;

    /// Answers every request with the queue depth and counts them.
    #[derive(Default)]
    struct Stub {
        metrics: FrameMetrics,
        handled: AtomicUsize,
    }

    impl Handler for Stub {
        fn frame_metrics(&self) -> &FrameMetrics {
            &self.metrics
        }

        fn handle(&self, req: Request, ctx: &RequestCtx<'_>) -> Reply {
            self.handled.fetch_add(1, Ordering::SeqCst);
            match req {
                Request::Shutdown => Reply::ShuttingDown,
                _ => Reply::Stats {
                    text: ctx.queue_depth().to_string(),
                },
            }
        }
    }

    fn start(workers: usize, queue_capacity: usize, soft: Option<usize>) -> FrameServer<Stub> {
        let config = FrameConfig {
            component: "test",
            workers,
            queue_capacity,
            queue_soft_watermark: soft,
            read_timeout: Some(Duration::from_secs(30)),
            reject_write_timeout: Duration::from_millis(100),
        };
        FrameServer::start("127.0.0.1:0", config, Stub::default()).unwrap()
    }

    fn connect(server: &FrameServer<Stub>) -> TcpStream {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    fn roundtrip(stream: &mut TcpStream, req: &Request) -> Reply {
        write_frame(stream, &encode_request(req)).unwrap();
        next_reply(stream)
    }

    fn next_reply(stream: &mut TcpStream) -> Reply {
        let frame = read_frame(stream).unwrap().expect("a reply frame");
        decode_reply(&frame).unwrap()
    }

    /// The queue depth as seen by a worker answering on `stream`.
    fn queue_depth(stream: &mut TcpStream) -> usize {
        match roundtrip(stream, &Request::Info) {
            Reply::Stats { text } => text.parse().unwrap(),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    /// Connect and wait until a worker answers on the new connection.
    fn connect_served(server: &FrameServer<Stub>) -> TcpStream {
        let mut stream = connect(server);
        queue_depth(&mut stream);
        stream
    }

    /// Poll over a served connection until the queue holds `n`.
    fn await_queue_depth(served: &mut TcpStream, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while queue_depth(served) != n {
            assert!(Instant::now() < deadline, "queue never reached {n}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn count(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn busy_beyond_queue_capacity() {
        let server = start(1, 1, None);
        let mut a = connect_served(&server); // owns the only worker
        let mut b = connect(&server);
        await_queue_depth(&mut a, 1); // b fills the queue
        let mut c = connect(&server);
        assert_eq!(next_reply(&mut c), Reply::Busy);
        assert!(read_frame(&mut c).unwrap().is_none(), "BUSY, then hang-up");
        let metrics = server.handler().frame_metrics();
        assert_eq!(count(&metrics.busy_rejections), 1);
        assert_eq!(count(&metrics.shed), 0);
        // The connection that got in is served once the worker frees up.
        drop(a);
        assert_eq!(queue_depth(&mut b), 0);
        server.shutdown();
    }

    #[test]
    fn every_other_arrival_is_shed_inside_the_soft_band() {
        let server = start(1, 8, Some(1));
        let mut a = connect_served(&server); // owns the only worker
        let b = connect(&server);
        await_queue_depth(&mut a, 1); // b queued below the band
        let mut c = connect(&server);
        assert_eq!(next_reply(&mut c), Reply::Shed);
        let mut d = connect(&server);
        await_queue_depth(&mut a, 2); // d queued
        let mut e = connect(&server);
        assert_eq!(next_reply(&mut e), Reply::Shed);
        let metrics = server.handler().frame_metrics();
        assert_eq!(count(&metrics.shed), 2);
        assert_eq!(count(&metrics.busy_rejections), 0);
        drop(a);
        drop(b);
        assert_eq!(queue_depth(&mut d), 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_closes_idle_keep_alive_peers_early() {
        let server = start(2, 8, None);
        // `idle` parks a worker in a read with a 30 s timeout.
        let mut idle = connect_served(&server);
        let mut admin = connect(&server);
        let started = Instant::now();
        assert_eq!(
            roundtrip(&mut admin, &Request::Shutdown),
            Reply::ShuttingDown
        );
        server.join();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown waited {:?} on an idle peer",
            started.elapsed()
        );
        assert!(
            !matches!(read_frame(&mut idle), Ok(Some(_))),
            "the idle peer's connection is closed"
        );
    }

    #[test]
    fn a_garbage_frame_gets_one_error_then_hang_up() {
        let server = start(1, 8, None);
        let mut peer = connect(&server);
        write_frame(&mut peer, b"not a request frame").unwrap();
        match next_reply(&mut peer) {
            Reply::Err { message } => assert!(message.starts_with("bad request"), "{message}"),
            other => panic!("expected one error reply, got {other:?}"),
        }
        // Anything sent after the error goes unanswered: the server hung up.
        let _ = peer.write_all(&encode_request(&Request::Info));
        assert!(!matches!(read_frame(&mut peer), Ok(Some(_))));
        assert_eq!(server.handler().handled.load(Ordering::SeqCst), 0);
        server.shutdown();
    }

    #[test]
    fn a_deadline_spent_in_the_queue_never_reaches_the_handler() {
        let server = start(1, 8, None);
        let mut a = connect_served(&server); // owns the only worker
        let mut b = connect(&server);
        await_queue_depth(&mut a, 1);
        // b's queue wait must exceed its 1 ms deadline.
        std::thread::sleep(Duration::from_millis(10));
        drop(a);
        let query = Query::threshold(Tau::Ratio(0.1), JoinThreshold::Count(1))
            .with_deadline(Duration::from_millis(1))
            .with_request_id(7);
        let search = wire_request(&query, &VectorStore::new(1));
        let handled = server.handler().handled.load(Ordering::SeqCst);
        assert!(matches!(
            roundtrip(&mut b, &search),
            Reply::DeadlineExpired { waited_ms } if waited_ms >= 1
        ));
        assert_eq!(server.handler().handled.load(Ordering::SeqCst), handled);
        // Only the first request on a connection queued.
        assert!(matches!(roundtrip(&mut b, &search), Reply::Stats { .. }));
        assert_eq!(count(&server.handler().frame_metrics().expired), 1);
        server.shutdown();
    }
}
