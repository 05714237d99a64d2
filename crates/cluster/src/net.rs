//! The TCP edge: [`NetServer`] exposes an in-process `qnn_serve::Server`
//! over the wire protocol, [`NetClient`] speaks it from the other end.
//!
//! Threading model, per connection:
//!
//! * a **reader** thread decodes frames out of a [`FrameBuffer`] and
//!   submits each request straight into the wrapped server (so admission,
//!   batching, and scheduling are exactly the in-process paths — the edge
//!   adds no queueing of its own);
//! * a **completion** thread sleeps on the connection's one reply channel
//!   — every request of the connection is submitted with it
//!   (`Client::submit_to`, tagged with its wire id) — and writes each
//!   response the moment it arrives: **in completion order**, so one slow
//!   batch never head-of-line-blocks the connection.
//!
//! Reads run under a short timeout so every blocked thread notices the
//! server's stop flag; the [`FrameBuffer`] keeps partial frames across
//! those timeouts, so a read boundary mid-frame loses nothing.
//!
//! [`NetServer::shutdown`] reuses the serving runtime's drain: it stops
//! the edge threads first, then drains the wrapped server, returning the
//! same [`ServerReport`] (with its admission-ledger guarantee) an
//! in-process deployment gets.

use crate::wire::{
    ErrorCode, ErrorFrame, Frame, FrameBuffer, RequestFrame, ResponseFrame, NO_REQUEST,
};
use qnn_compiler::Logits;
use qnn_serve::{
    Client, Completion, Dropped, Response, Server, ServerReport, SubmitError, SubmitOptions,
};
use qnn_tensor::Tensor3;
use std::collections::hash_map::{Entry, HashMap};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Socket read timeout: the beat at which blocked reader threads check
/// the stop flag.
const READ_TIMEOUT: Duration = Duration::from_millis(50);
/// Read chunk size; frames larger than this reassemble across reads.
const READ_BUF: usize = 64 * 1024;
/// How often a connection's completion thread looks for requests that
/// outlived the response timeout (it sleeps on the reply channel between).
const TIMEOUT_SWEEP: Duration = Duration::from_millis(250);
/// Default [`NetServer`] guard against requests that never resolve.
const DEFAULT_RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// A TCP front-end wrapping a [`Server`]. Dropping without
/// [`NetServer::shutdown`] leaks the report, so call it.
pub struct NetServer {
    server: Server,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an OS-assigned loopback port) and
    /// start accepting connections for `server`.
    pub fn bind(server: Server, addr: impl ToSocketAddrs) -> io::Result<NetServer> {
        Self::bind_with(server, addr, DEFAULT_RESPONSE_TIMEOUT)
    }

    /// [`NetServer::bind`] with an explicit response timeout: a request
    /// still unresolved after this long is answered with
    /// [`ErrorCode::Timeout`] instead of pinning its connection forever.
    /// The edge submits with [`Client::submit_to`] on one shared reply
    /// channel, so a request lost with a dead worker never resolves to
    /// [`Dropped::Stopped`]; this timeout is its only answer.
    pub fn bind_with(
        server: Server,
        addr: impl ToSocketAddrs,
        response_timeout: Duration,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let client = server.client();
        let accept = thread::Builder::new().name("qnn-net-accept".into()).spawn({
            let stop = Arc::clone(&stop);
            move || accept_loop(listener, client, stop, response_timeout)
        })?;
        Ok(NetServer { server, addr, stop, accept })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped serving runtime — weight publishes, pool resizes, and
    /// load windows go through here while the edge runs.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Stop accepting, drain every connection's in-flight requests, then
    /// drain the wrapped server — the same end-state guarantees as
    /// [`Server::shutdown`], returned as the same [`ServerReport`].
    pub fn shutdown(self) -> ServerReport {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        self.server.shutdown()
    }
}

fn accept_loop(
    listener: TcpListener,
    client: Client,
    stop: Arc<AtomicBool>,
    response_timeout: Duration,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for incoming in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = incoming else { continue };
        let spawned = thread::Builder::new().name("qnn-net-conn".into()).spawn({
            let client = client.clone();
            let stop = Arc::clone(&stop);
            move || serve_conn(stream, client, stop, response_timeout)
        });
        if let Ok(handle) = spawned {
            conns.push(handle);
        }
        // Reap connections that already finished (handles of live ones
        // are kept for the final join).
        conns.retain(|h| !h.is_finished());
    }
    for handle in conns {
        let _ = handle.join();
    }
}

/// A connection's admitted, unanswered requests: wire id → when it was
/// admitted. The reader adds an id *before* submitting it, so a completion
/// always finds its entry; whoever removes the entry — the completion or
/// the timeout sweep — answers the request, exactly once. The server's
/// admission bound keeps the map small.
type Outstanding = Arc<Mutex<HashMap<u64, Instant>>>;

fn unanswered(outstanding: &Outstanding) -> MutexGuard<'_, HashMap<u64, Instant>> {
    outstanding.lock().expect("outstanding map poisoned")
}

fn serve_conn(
    stream: TcpStream,
    client: Client,
    stop: Arc<AtomicBool>,
    response_timeout: Duration,
) {
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let writer = Arc::new(Mutex::new(write_half));
    let outstanding = Outstanding::default();
    let (replies, completions) = channel::<Completion>();
    let completion = thread::Builder::new().name("qnn-net-completion".into()).spawn({
        let (writer, outstanding) = (Arc::clone(&writer), Arc::clone(&outstanding));
        move || completion_loop(completions, outstanding, writer, response_timeout)
    });
    let Ok(completion) = completion else { return };

    let mut reader = stream;
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; READ_BUF];
    'conn: while !stop.load(Ordering::Acquire) {
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                frames.feed(&chunk[..n]);
                loop {
                    match frames.next_frame() {
                        Ok(None) => break,
                        Ok(Some(Frame::Request(req))) => {
                            handle_request(req, &client, &writer, &outstanding, &replies);
                        }
                        Ok(Some(_)) => {
                            // Only requests flow client → server.
                            write_frame(
                                &writer,
                                &error_frame(
                                    NO_REQUEST,
                                    ErrorCode::BadRequest,
                                    "only request frames flow client to server",
                                ),
                            );
                            break 'conn;
                        }
                        Err(e) => {
                            // An undecodable frame poisons the stream;
                            // report it and drop the connection.
                            write_frame(
                                &writer,
                                &error_frame(NO_REQUEST, ErrorCode::BadRequest, &e.to_string()),
                            );
                            break 'conn;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    // Dropping the reader's end of the reply channel leaves the requests in
    // flight holding the only senders: the completion thread drains them
    // and exits when the last one resolves. Admitted requests resolve
    // inside the server whatever the peer does, so the admission ledger
    // balances even when it disconnected mid-request.
    drop(replies);
    let _ = completion.join();
    let _ = reader.shutdown(Shutdown::Both);
}

/// Submit one decoded request, its completion routed to the connection's
/// reply channel under its wire id.
fn handle_request(
    req: RequestFrame,
    client: &Client,
    writer: &Arc<Mutex<TcpStream>>,
    outstanding: &Outstanding,
    replies: &Sender<Completion>,
) {
    let RequestFrame { id: wire_id, model, priority, deadline_us, image } = req;
    let opts = SubmitOptions {
        model: if model.is_empty() { None } else { Some(model) },
        priority,
        deadline: deadline_us.map(Duration::from_micros),
    };
    match unanswered(outstanding).entry(wire_id) {
        Entry::Vacant(slot) => slot.insert(Instant::now()),
        Entry::Occupied(_) => {
            let message = "request id is already in flight on this connection";
            write_frame(writer, &error_frame(wire_id, ErrorCode::BadRequest, message));
            return;
        }
    };
    if let Err(e) = client.submit_to(image, opts, wire_id, replies) {
        unanswered(outstanding).remove(&wire_id);
        let code = match &e {
            SubmitError::QueueFull(_) => ErrorCode::Rejected,
            SubmitError::UnknownModel { .. } => ErrorCode::UnknownModel,
            SubmitError::AmbiguousModel(_) | SubmitError::ShapeMismatch { .. } => {
                ErrorCode::BadRequest
            }
            SubmitError::Stopped => ErrorCode::Stopped,
        };
        write_frame(writer, &error_frame(wire_id, code, &e.to_string()));
    }
}

/// Stream responses back as requests resolve, in resolution order — not
/// submission order — and answer [`ErrorCode::Timeout`] for any that
/// outlive `response_timeout` (e.g. a lost worker). Returns once the
/// reader has gone and every admitted request has resolved.
fn completion_loop(
    completions: Receiver<Completion>,
    outstanding: Outstanding,
    writer: Arc<Mutex<TcpStream>>,
    response_timeout: Duration,
) {
    // Once a write fails the peer is gone; keep draining completions (the
    // requests resolve inside the server regardless) but stop writing.
    let mut peer_alive = true;
    let sweep_every = TIMEOUT_SWEEP.min(response_timeout);
    let mut swept = Instant::now();
    loop {
        match completions.recv_timeout(sweep_every) {
            Ok(Completion { tag: wire_id, result }) => {
                if unanswered(&outstanding).remove(&wire_id).is_some() && peer_alive {
                    peer_alive = write_resolution(&writer, wire_id, result);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        if swept.elapsed() >= sweep_every {
            swept = Instant::now();
            let mut expired = Vec::new();
            unanswered(&outstanding).retain(|&wire_id, since| {
                let late = since.elapsed() > response_timeout;
                if late {
                    expired.push(wire_id);
                }
                !late
            });
            for wire_id in expired {
                if peer_alive {
                    let frame = error_frame(wire_id, ErrorCode::Timeout, "response timed out");
                    peer_alive = write_frame(&writer, &frame);
                }
            }
        }
    }
}

/// Write one resolved ticket back; `false` when the peer is gone.
fn write_resolution(
    writer: &Arc<Mutex<TcpStream>>,
    wire_id: u64,
    resolution: Result<Response, Dropped>,
) -> bool {
    let frame = match resolution {
        Ok(resp) => Frame::Response(ResponseFrame {
            id: wire_id,
            weight_version: resp.stats.weight_version,
            replica: resp.stats.replica as u32,
            batch_size: resp.stats.batch_size as u32,
            logits: resp.logits,
        }),
        Err(Dropped::Deadline) => {
            error_frame(wire_id, ErrorCode::DeadlineShed, &Dropped::Deadline.to_string())
        }
        Err(Dropped::Stopped) => {
            error_frame(wire_id, ErrorCode::Stopped, &Dropped::Stopped.to_string())
        }
    };
    write_frame(writer, &frame)
}

fn error_frame(id: u64, code: ErrorCode, message: &str) -> Frame {
    Frame::Error(ErrorFrame { id, code, message: message.to_string() })
}

/// Serialize one frame onto the shared write half; `false` on any I/O
/// error (the peer hung up).
fn write_frame(writer: &Arc<Mutex<TcpStream>>, frame: &Frame) -> bool {
    let bytes = frame.encode();
    let mut stream = writer.lock().expect("connection writer poisoned");
    stream.write_all(&bytes).is_ok()
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// Why a [`NetTicket`] resolved without a [`NetResponse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The server answered with an error frame.
    Remote {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The connection died before the request was answered.
    Disconnected,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Remote { code, message } => write!(f, "remote error {code:?}: {message}"),
            NetError::Disconnected => write!(f, "connection closed before the response"),
        }
    }
}

impl std::error::Error for NetError {}

/// One completed remote inference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetResponse {
    /// The request id this answers (client-assigned).
    pub id: u64,
    /// Weight version the batch ran on.
    pub weight_version: u64,
    /// Global replica id that executed the batch.
    pub replica: u32,
    /// Batch occupancy the request rode in.
    pub batch_size: u32,
    /// The image's logits.
    pub logits: Vec<i32>,
}

impl NetResponse {
    /// Index of the winning class (shared `Logits` tie-breaking: lowest
    /// index wins — bit-identical to the in-process path).
    pub fn argmax(&self) -> usize {
        Logits::new(&self.logits).argmax()
    }
}

type Resolution = Result<NetResponse, NetError>;

/// Claim ticket for an in-flight remote request.
pub struct NetTicket {
    id: u64,
    rx: Receiver<Resolution>,
}

impl NetTicket {
    /// The client-assigned request id this ticket redeems.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the response (or error) arrives.
    pub fn wait(self) -> Resolution {
        self.rx.recv().unwrap_or(Err(NetError::Disconnected))
    }

    /// Bounded wait; `None` while the request is still in flight.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Resolution> {
        match self.rx.recv_timeout(timeout) {
            Ok(resolution) => Some(resolution),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(NetError::Disconnected)),
        }
    }
}

struct ClientInner {
    writer: Mutex<TcpStream>,
    /// Requests awaiting a response, by client-assigned id. The reader
    /// thread resolves entries as frames arrive — out-of-order safe.
    pending: Mutex<HashMap<u64, SyncSender<Resolution>>>,
    next_id: AtomicU64,
    stop: AtomicBool,
}

/// A wire-protocol client: connect, submit, redeem [`NetTicket`]s.
/// Responses demultiplex by request id, so any number of requests may be
/// in flight and they resolve in whatever order the server answers.
pub struct NetClient {
    inner: Arc<ClientInner>,
    reader: Option<JoinHandle<()>>,
}

impl NetClient {
    /// Connect to a [`NetServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone()?;
        read_half.set_read_timeout(Some(READ_TIMEOUT))?;
        let inner = Arc::new(ClientInner {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let reader = thread::Builder::new().name("qnn-net-client".into()).spawn({
            let inner = Arc::clone(&inner);
            move || client_reader(read_half, inner)
        })?;
        Ok(NetClient { inner, reader: Some(reader) })
    }

    /// Submit one image; `opts` carries the model name, class, and
    /// deadline exactly as for the in-process `Client`.
    pub fn submit(&self, image: Tensor3<i8>, opts: SubmitOptions) -> io::Result<NetTicket> {
        if self.inner.stop.load(Ordering::Acquire) {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "client closed"));
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = sync_channel(1);
        self.inner.pending.lock().expect("pending map poisoned").insert(id, tx);
        let frame = Frame::Request(RequestFrame {
            id,
            model: opts.model.unwrap_or_default(),
            priority: opts.priority,
            deadline_us: opts.deadline.map(|d| d.as_micros() as u64),
            image,
        });
        let bytes = frame.encode();
        let result = {
            let mut writer = self.inner.writer.lock().expect("client writer poisoned");
            writer.write_all(&bytes)
        };
        if let Err(e) = result {
            self.inner.pending.lock().expect("pending map poisoned").remove(&id);
            return Err(e);
        }
        Ok(NetTicket { id, rx })
    }

    /// Requests submitted but not yet answered — the remote analogue of
    /// the in-process `Client::queue_depth`, read by the cluster router's
    /// spillover check.
    pub fn queue_depth(&self) -> u64 {
        self.inner.pending.lock().expect("pending map poisoned").len() as u64
    }

    /// Close the connection; unanswered tickets resolve to
    /// [`NetError::Disconnected`]. Dropping the client does the same.
    pub fn close(self) {
        // Drop runs the teardown.
    }

    fn teardown(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        {
            let writer = self.inner.writer.lock().expect("client writer poisoned");
            let _ = writer.shutdown(Shutdown::Both);
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        self.teardown();
    }
}

fn resolve(inner: &ClientInner, id: u64, resolution: Resolution) {
    let entry = inner.pending.lock().expect("pending map poisoned").remove(&id);
    if let Some(tx) = entry {
        let _ = tx.send(resolution);
    }
}

fn fail_all(inner: &ClientInner, error: NetError) {
    let entries: Vec<_> =
        inner.pending.lock().expect("pending map poisoned").drain().collect();
    for (_, tx) in entries {
        let _ = tx.send(Err(error.clone()));
    }
}

fn client_reader(mut stream: TcpStream, inner: Arc<ClientInner>) {
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; READ_BUF];
    while !inner.stop.load(Ordering::Acquire) {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                frames.feed(&chunk[..n]);
                loop {
                    match frames.next_frame() {
                        Ok(None) => break,
                        Ok(Some(Frame::Response(r))) => resolve(
                            &inner,
                            r.id,
                            Ok(NetResponse {
                                id: r.id,
                                weight_version: r.weight_version,
                                replica: r.replica,
                                batch_size: r.batch_size,
                                logits: r.logits,
                            }),
                        ),
                        Ok(Some(Frame::Error(e))) => {
                            let error =
                                NetError::Remote { code: e.code, message: e.message };
                            if e.id == NO_REQUEST {
                                // Connection-level error: everything in
                                // flight fails with it.
                                fail_all(&inner, error);
                                return;
                            }
                            resolve(&inner, e.id, Err(error));
                        }
                        Ok(Some(Frame::Request(_))) | Err(_) => {
                            // A server that sends requests (or garbage)
                            // has lost protocol sync; drop everything.
                            fail_all(&inner, NetError::Disconnected);
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    fail_all(&inner, NetError::Disconnected);
}
