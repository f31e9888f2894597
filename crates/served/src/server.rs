//! The TCP front door: accept loop, per-connection reader/writer pairs,
//! quotas, graceful drain, and wire-triggered index reload.
//!
//! # Threading model
//!
//! One accept thread polls a non-blocking listener. Each accepted
//! connection gets a **reader** thread (parses frames, enforces quotas,
//! submits batches) and a **writer** thread (the only thread that ever
//! writes to the socket). The two communicate over an in-process
//! channel of `Work` items, so responses are written strictly in
//! request order per connection while the service computes many batches
//! concurrently — the reader keeps submitting (pipelining) while the
//! writer blocks on the oldest [`BatchTicket`]. Clients correlate by
//! `request_id` and must not assume cross-connection ordering. The
//! accept thread joins finished connection threads as it accepts new
//! ones, so a long-running server retains nothing per closed connection.
//!
//! # Graceful drain
//!
//! [`Server::drain`] (or a wire `DRAIN` frame, or SIGTERM in the
//! `reach-served` binary) stops the accept loop and flips the draining
//! flag: new QUERY/WITNESS/RELOAD frames are answered with
//! `SHUTTING_DOWN`, while every batch already ticketed completes and its
//! response is written. [`Server::shutdown`] then joins everything and
//! asserts the serving ledger (`submitted == answered + rejected +
//! shed`) via [`QueryService::shutdown`].

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reach_index::{storage, CompressedIndex, IndexSource, MmapIndex};
use reach_serve::{BatchOptions, BatchTicket, Priority, QueryService, ServeConfig};

use crate::quota::{QuotaConfig, TokenBucket};
use crate::wire::{self, opcode, ErrorCode, Frame, FrameReader, Polled, ReadError, WireStats};

/// How often blocked reads wake up to check the stop/drain flags.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How often the accept loop polls its non-blocking listener.
const ACCEPT_INTERVAL: Duration = Duration::from_millis(5);

/// How the server materializes a `.ridx` file — at startup (the
/// `reach-served` binary's `--compressed` / `--mmap` flags) and on
/// every wire-triggered RELOAD.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexMode {
    /// Decode fully into an in-memory [`reach_index::ReachIndex`] (v1 or
    /// v2 files).
    #[default]
    Ram,
    /// Hold the v2 image in memory in its compressed form and answer
    /// through streaming cursors (requires a v2 file).
    Compressed,
    /// Memory-map the v2 file and serve out-of-core: the index may
    /// exceed RAM (requires a v2 file).
    Mmap,
}

impl IndexMode {
    /// Loads `path` in this mode as a shareable [`IndexSource`].
    pub fn load(self, path: &Path) -> Result<Arc<dyn IndexSource>, storage::StorageError> {
        Ok(match self {
            IndexMode::Ram => Arc::new(storage::load_index(path)?),
            IndexMode::Compressed => Arc::new(CompressedIndex::load(path)?),
            IndexMode::Mmap => Arc::new(MmapIndex::open(path)?),
        })
    }

    /// Stable lowercase name (logs and startup banner).
    pub fn name(self) -> &'static str {
        match self {
            IndexMode::Ram => "ram",
            IndexMode::Compressed => "compressed",
            IndexMode::Mmap => "mmap",
        }
    }
}

/// Configuration of a [`Server`] (see `docs/OPERATIONS.md` for the
/// operator-facing description of every knob).
#[derive(Clone, Debug)]
pub struct ServedConfig {
    /// The wrapped [`QueryService`] configuration — workers, queue
    /// bounds, deadlines, resilience, degradation.
    pub serve: ServeConfig,
    /// Per-connection quotas (in-flight window, batch cap, rate bucket).
    pub quota: QuotaConfig,
    /// Payload-size cap per frame; larger frames are rejected fatally.
    pub max_frame: u32,
    /// Default path a path-less RELOAD frame reloads from — normally the
    /// index the server was started with.
    pub reload_path: Option<PathBuf>,
    /// How RELOAD materializes the file it loads — kept consistent with
    /// the startup mode so a reload cannot silently change the serving
    /// form (and its memory footprint).
    pub index_mode: IndexMode,
}

impl Default for ServedConfig {
    fn default() -> Self {
        ServedConfig {
            serve: ServeConfig::default(),
            quota: QuotaConfig::default(),
            max_frame: wire::DEFAULT_MAX_FRAME,
            reload_path: None,
            index_mode: IndexMode::Ram,
        }
    }
}

/// Response-side work for a connection's writer thread.
enum Work {
    /// A pre-encoded frame to write as-is.
    Frame(Vec<u8>),
    /// A pending batch: wait the ticket, then write QUERY_OK or a typed
    /// error. `received` timestamps the request frame's parse, for the
    /// `served.request_ns` histogram.
    Query {
        request_id: u64,
        ticket: BatchTicket,
        received: Instant,
    },
    /// A fatal error frame: write it, then close the connection.
    Fatal(Vec<u8>),
}

/// State shared by the accept loop, every connection, and the handle.
struct Shared {
    svc: QueryService,
    cfg: ServedConfig,
    /// Set once: stop admitting new wire work (drain in progress).
    draining: AtomicBool,
    /// Set once: tear everything down (readers exit at next poll).
    stop: AtomicBool,
    /// Open connections.
    active: AtomicU64,
    /// Join handles of live connection reader threads (each joins its
    /// own writer before exiting); finished ones are reaped on accept.
    conns: Mutex<Vec<JoinHandle<reach_obs::WorkerMetrics>>>,
}

/// A running wire server around a [`QueryService`]. Start with
/// [`Server::start`], stop with [`Server::shutdown`] (which asserts the
/// serving ledger). See the module docs for the threading and drain
/// model.
pub struct Server {
    inner: Arc<Shared>,
    accept: Option<JoinHandle<reach_obs::WorkerMetrics>>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), starts
    /// the inner [`QueryService`] on `index`, and begins accepting
    /// connections.
    pub fn start(
        index: Arc<reach_index::ReachIndex>,
        cfg: ServedConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<Server> {
        let svc = QueryService::start(index, cfg.serve.clone());
        Server::start_with_service(svc, cfg, addr)
    }

    /// Like [`Server::start`], but serving any [`IndexSource`] — a
    /// compressed in-heap image or an mmap-backed file larger than RAM
    /// (the `reach-served` binary's `--compressed` / `--mmap` modes).
    pub fn start_with_source(
        source: Arc<dyn IndexSource>,
        cfg: ServedConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<Server> {
        let svc = QueryService::start_with_source(source, cfg.serve.clone());
        Server::start_with_service(svc, cfg, addr)
    }

    fn start_with_service(
        svc: QueryService,
        cfg: ServedConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Shared {
            svc,
            cfg,
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            active: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("reach-served-accept".into())
                .spawn(move || reach_obs::scoped_worker(|| accept_loop(&inner, listener)).1)
                .expect("spawn accept thread")
        };
        Ok(Server {
            inner,
            accept: Some(accept),
            addr,
        })
    }

    /// The bound address (with the real port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct access to the wrapped service — tests use it to stage
    /// in-flight work ([`QueryService::pause`]) and to hot-swap without
    /// going through the wire.
    pub fn service(&self) -> &QueryService {
        &self.inner.svc
    }

    /// Begins a graceful drain: the listener stops accepting, new wire
    /// work is rejected with `SHUTTING_DOWN`, in-flight batches complete
    /// and their responses are written. Idempotent.
    pub fn drain(&self) {
        if !self.inner.draining.swap(true, Ordering::SeqCst) {
            reach_obs::counter_add("served.drains", 1);
        }
    }

    /// Whether a drain has begun (locally or via a wire DRAIN frame).
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Open client connections right now.
    pub fn active_connections(&self) -> u64 {
        self.inner.active.load(Ordering::SeqCst)
    }

    /// Blocks until a begun drain has quiesced — every connection closed
    /// — or `timeout` elapsed. Returns `true` when fully quiesced.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let give_up = Instant::now() + timeout;
        loop {
            if self.is_draining() && self.active_connections() == 0 {
                return true;
            }
            if Instant::now() >= give_up {
                return false;
            }
            std::thread::sleep(ACCEPT_INTERVAL);
        }
    }

    /// Tears the server down: stops accepting, unblocks every
    /// connection (in-flight responses are still written), joins all
    /// threads, folds their obs recordings into the calling thread, and
    /// shuts the inner service down — which asserts the
    /// `submitted == answered + rejected + shed` ledger.
    pub fn shutdown(mut self) -> reach_serve::ServeStats {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.stop.store(true, Ordering::SeqCst);
        // The accept thread is joined first, so no connection handle is
        // pushed after the drain below.
        if let Some(Ok(metrics)) = self.accept.take().map(JoinHandle::join) {
            reach_obs::merge_worker(metrics);
        }
        let handles: Vec<_> = self.inner.conns.lock().unwrap().drain(..).collect();
        for h in handles {
            if let Ok(metrics) = h.join() {
                reach_obs::merge_worker(metrics);
            }
        }
        let Server { inner, .. } = self;
        match Arc::try_unwrap(inner) {
            Ok(shared) => shared.svc.shutdown(),
            // Unreachable with every thread joined; keep a safe fallback
            // rather than a panic in teardown.
            Err(arc) => arc.svc.stats(),
        }
    }
}

/// Polls the non-blocking listener until stop/drain, spawning a
/// connection thread per accept and reaping the finished ones.
fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        if shared.stop.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                reach_obs::counter_add("served.connections", 1);
                shared.active.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("reach-served-conn".into())
                    .spawn(move || {
                        let ((), metrics) =
                            reach_obs::scoped_worker(|| connection_loop(&conn_shared, stream));
                        conn_shared.active.fetch_sub(1, Ordering::SeqCst);
                        metrics
                    })
                    .expect("spawn connection thread");
                let mut conns = shared.conns.lock().unwrap();
                reap_finished(&mut conns);
                conns.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_INTERVAL);
            }
            Err(_) => std::thread::sleep(ACCEPT_INTERVAL),
        }
    }
}

/// Joins every connection thread that has exited, folding its obs
/// recordings into the calling (accept) thread's, and keeps the rest.
fn reap_finished(conns: &mut Vec<JoinHandle<reach_obs::WorkerMetrics>>) {
    let mut k = 0;
    while k < conns.len() {
        if conns[k].is_finished() {
            if let Ok(metrics) = conns.swap_remove(k).join() {
                reach_obs::merge_worker(metrics);
            }
        } else {
            k += 1;
        }
    }
}

/// One connection's reader: parse frames, enforce quotas, dispatch, and
/// feed the writer. Exits on EOF, fatal framing, socket error, or server
/// stop; always joins its writer before returning.
fn connection_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = std::sync::mpsc::channel::<Work>();
    let inflight = Arc::new(AtomicU32::new(0));
    let writer = {
        let inflight = Arc::clone(&inflight);
        std::thread::Builder::new()
            .name("reach-served-write".into())
            .spawn(move || {
                let ((), metrics) =
                    reach_obs::scoped_worker(|| writer_loop(write_half, rx, &inflight));
                metrics
            })
            .expect("spawn connection writer")
    };

    let mut reader = FrameReader::new(shared.cfg.max_frame);
    let mut bucket = shared.cfg.quota.queries_per_sec.map(TokenBucket::new);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match reader.poll(&mut stream) {
            Ok(Polled::Pending) => continue,
            Ok(Polled::Frame(frame)) => {
                reach_obs::counter_add("served.frames.in", 1);
                reach_obs::counter_add(
                    "served.bytes.in",
                    (wire::HEADER_LEN + frame.payload.len()) as u64,
                );
                if !handle_frame(shared, &tx, &inflight, &mut bucket, frame) {
                    break;
                }
            }
            // EOF — clean between frames or a mid-frame disconnect; both
            // simply end the connection (there is nobody to answer).
            Err(ReadError::Eof { .. }) => break,
            Err(ReadError::Fatal { code, request_id }) => {
                reach_obs::counter_add("served.errors", 1);
                let msg = format!("fatal framing error: {code:?}");
                let _ = tx.send(Work::Fatal(wire::error_frame(request_id, code, &msg)));
                break;
            }
            Err(ReadError::Io(_)) => break,
        }
    }
    drop(tx);
    if let Ok(metrics) = writer.join() {
        reach_obs::merge_worker(metrics);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Dispatches one parsed frame. Returns `false` when the connection must
/// close (a fatal response was queued).
fn handle_frame(
    shared: &Shared,
    tx: &Sender<Work>,
    inflight: &AtomicU32,
    bucket: &mut Option<TokenBucket>,
    frame: Frame,
) -> bool {
    let id = frame.request_id;
    let send_err = |code: ErrorCode, msg: &str| {
        reach_obs::counter_add("served.errors", 1);
        let _ = tx.send(Work::Frame(wire::error_frame(id, code, msg)));
    };
    match frame.opcode {
        opcode::QUERY => {
            let received = Instant::now();
            let req = match wire::decode_batch(&frame.payload) {
                Ok(req) => req,
                Err(e) => {
                    send_err(ErrorCode::BadPayload, e.0);
                    return true;
                }
            };
            if let Some(msg) = check_batch_quotas(shared, inflight, bucket, req.pairs.len()) {
                send_err(msg.0, msg.1);
                return true;
            }
            if shared.draining.load(Ordering::SeqCst) {
                send_err(ErrorCode::ShuttingDown, "server is draining");
                return true;
            }
            let opts = BatchOptions {
                deadline: (req.deadline_ms > 0)
                    .then(|| Duration::from_millis(u64::from(req.deadline_ms))),
                priority: wire_priority(req.priority),
            };
            reach_obs::counter_add("served.queries", req.pairs.len() as u64);
            match shared.svc.submit_batch_opts(&req.pairs, opts) {
                Ok(ticket) => {
                    inflight.fetch_add(1, Ordering::SeqCst);
                    let _ = tx.send(Work::Query {
                        request_id: id,
                        ticket,
                        received,
                    });
                }
                Err(e) => {
                    let (code, msg) = ErrorCode::from_serve_error(&e);
                    send_err(code, &msg);
                }
            }
        }
        opcode::WITNESS => {
            let req = match wire::decode_batch(&frame.payload) {
                Ok(req) => req,
                Err(e) => {
                    send_err(ErrorCode::BadPayload, e.0);
                    return true;
                }
            };
            if let Some(msg) = check_batch_quotas(shared, inflight, bucket, req.pairs.len()) {
                send_err(msg.0, msg.1);
                return true;
            }
            if shared.draining.load(Ordering::SeqCst) {
                send_err(ErrorCode::ShuttingDown, "server is draining");
                return true;
            }
            // One atomic epoch snapshot: the backing and the generation
            // tag cannot straddle a concurrent reload. source_tagged()
            // works for every index mode (ram, compressed, mmap).
            let (idx, generation) = shared.svc.source_tagged();
            let n = idx.num_vertices();
            if let Some(&(s, t)) = req
                .pairs
                .iter()
                .find(|&&(s, t)| s as usize >= n || t as usize >= n)
            {
                let bad = if s as usize >= n { s } else { t };
                send_err(
                    ErrorCode::InvalidVertex,
                    &format!("invalid vertex {bad}: index covers {n} vertices"),
                );
                return true;
            }
            reach_obs::counter_add("served.witness.queries", req.pairs.len() as u64);
            let witnesses: Vec<_> = req
                .pairs
                .iter()
                .map(|&(s, t)| idx.query_witness(s, t))
                .collect();
            let payload = wire::encode_witness_ok(generation, &witnesses);
            let _ = tx.send(Work::Frame(
                Frame::new(opcode::WITNESS_OK, id, payload).encode(),
            ));
        }
        opcode::RELOAD => {
            let path = match wire::decode_reload(&frame.payload) {
                Ok(p) => p,
                Err(e) => {
                    send_err(ErrorCode::BadPayload, e.0);
                    return true;
                }
            };
            if shared.draining.load(Ordering::SeqCst) {
                send_err(ErrorCode::ShuttingDown, "server is draining");
                return true;
            }
            let path: PathBuf = if path.is_empty() {
                match &shared.cfg.reload_path {
                    Some(p) => p.clone(),
                    None => {
                        send_err(
                            ErrorCode::ReloadFailed,
                            "empty reload path and no startup index path configured",
                        );
                        return true;
                    }
                }
            } else {
                PathBuf::from(path)
            };
            // Reload in the server's configured index mode, so a reload
            // cannot change the serving form (or its memory footprint).
            let swapped: Result<u64, (ErrorCode, String)> = shared
                .cfg
                .index_mode
                .load(&path)
                .map_err(|e| {
                    (
                        ErrorCode::ReloadFailed,
                        format!("cannot load {}: {e}", path.display()),
                    )
                })
                .and_then(|src| {
                    shared
                        .svc
                        .try_swap_source(src)
                        .map_err(|e| ErrorCode::from_serve_error(&e))
                });
            match swapped {
                Ok(generation) => {
                    reach_obs::counter_add("served.reloads", 1);
                    let payload = wire::encode_reload_ok(generation);
                    let _ = tx.send(Work::Frame(
                        Frame::new(opcode::RELOAD_OK, id, payload).encode(),
                    ));
                }
                Err((code, msg)) => send_err(code, &msg),
            }
        }
        opcode::DRAIN => {
            if !shared.draining.swap(true, Ordering::SeqCst) {
                reach_obs::counter_add("served.drains", 1);
            }
            let _ = tx.send(Work::Frame(
                Frame::new(opcode::DRAIN_OK, id, Vec::new()).encode(),
            ));
        }
        opcode::PING => {
            let _ = tx.send(Work::Frame(
                Frame::new(opcode::PONG, id, Vec::new()).encode(),
            ));
        }
        opcode::STATS => {
            let s = shared.svc.stats();
            let stats = WireStats {
                generation: s.generation,
                submitted: s.submitted,
                answered: s.answered,
                rejected: s.rejected(),
                shed: s.shed,
                swaps: s.swaps,
                connections: shared.active.load(Ordering::SeqCst),
            };
            let payload = wire::encode_stats_ok(&stats);
            let _ = tx.send(Work::Frame(
                Frame::new(opcode::STATS_OK, id, payload).encode(),
            ));
        }
        other => {
            send_err(
                ErrorCode::UnknownOpcode,
                &format!(
                    "opcode 0x{other:02x} unknown to protocol version {}",
                    wire::VERSION
                ),
            );
        }
    }
    true
}

/// The quota gauntlet shared by QUERY and WITNESS: batch-size cap, the
/// in-flight window, then the rate bucket. Returns the rejection to send,
/// if any.
fn check_batch_quotas(
    shared: &Shared,
    inflight: &AtomicU32,
    bucket: &mut Option<TokenBucket>,
    batch_len: usize,
) -> Option<(ErrorCode, &'static str)> {
    let quota = &shared.cfg.quota;
    if batch_len > quota.max_batch as usize {
        return Some((
            ErrorCode::BatchTooLarge,
            "batch exceeds the per-frame query cap",
        ));
    }
    if inflight.load(Ordering::SeqCst) >= quota.max_inflight {
        reach_obs::counter_add("served.quota.rejected", 1);
        return Some((
            ErrorCode::QuotaExceeded,
            "per-connection in-flight window exhausted",
        ));
    }
    if let Some(bucket) = bucket {
        if !bucket.try_take(batch_len as u32) {
            reach_obs::counter_add("served.quota.rejected", 1);
            return Some((
                ErrorCode::QuotaExceeded,
                "per-connection query-rate budget exhausted",
            ));
        }
    }
    None
}

/// Maps the wire priority byte (already validated by the decoder).
fn wire_priority(p: u8) -> Priority {
    match p {
        wire::priority::LOW => Priority::Low,
        wire::priority::HIGH => Priority::High,
        _ => Priority::Normal,
    }
}

/// The writer: the single thread allowed to write this connection's
/// socket. Processes work strictly in order; a write failure or a fatal
/// frame ends the connection (remaining tickets are dropped — their
/// batches still complete server-side and stay correctly accounted).
fn writer_loop(mut stream: TcpStream, rx: Receiver<Work>, inflight: &AtomicU32) {
    let mut write = |bytes: &[u8]| -> bool {
        let ok = stream
            .write_all(bytes)
            .and_then(|()| stream.flush())
            .is_ok();
        if ok {
            reach_obs::counter_add("served.frames.out", 1);
            reach_obs::counter_add("served.bytes.out", bytes.len() as u64);
        }
        ok
    };
    for work in rx {
        match work {
            Work::Frame(bytes) => {
                if !write(&bytes) {
                    break;
                }
            }
            Work::Query {
                request_id,
                ticket,
                received,
            } => {
                let frame = match ticket.wait_tagged() {
                    Ok((answers, generation)) => Frame::new(
                        opcode::QUERY_OK,
                        request_id,
                        wire::encode_query_ok(generation, &answers),
                    )
                    .encode(),
                    Err(e) => {
                        reach_obs::counter_add("served.errors", 1);
                        let (code, msg) = ErrorCode::from_serve_error(&e);
                        wire::error_frame(request_id, code, &msg)
                    }
                };
                inflight.fetch_sub(1, Ordering::SeqCst);
                let ok = write(&frame);
                reach_obs::record("served.request_ns", received.elapsed().as_nanos() as u64);
                if !ok {
                    break;
                }
            }
            Work::Fatal(bytes) => {
                let _ = write(&bytes);
                break;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Response, WireClient};

    /// A long-lived server retains nothing per closed connection: 300
    /// sequential connect → PING → close cycles leave at most a few
    /// connection handles un-reaped (those still exiting at the next
    /// accept), not one per connection ever accepted.
    #[test]
    fn finished_connection_threads_are_reaped_on_accept() {
        let index = Arc::new(reach_index::ReachIndex::from_labels(
            vec![vec![0], vec![1]],
            vec![vec![0, 1], vec![1]],
        ));
        let server = Server::start(index, ServedConfig::default(), "127.0.0.1:0").unwrap();
        let mut most_retained = 0;
        for cycle in 0..300 {
            let mut client = WireClient::connect(server.local_addr()).unwrap();
            assert!(
                matches!(client.call_ping().unwrap(), Response::Pong),
                "cycle {cycle}"
            );
            drop(client);
            // Let the connection finish closing, so the next accept can
            // reap it.
            let give_up = Instant::now() + Duration::from_secs(5);
            while server.active_connections() > 0 && Instant::now() < give_up {
                std::thread::yield_now();
            }
            let retained = server.inner.conns.lock().unwrap().len();
            most_retained = most_retained.max(retained);
        }
        assert!(
            most_retained <= 4,
            "{most_retained} connection handles retained after 300 closed connections"
        );
        server.shutdown();
    }
}
