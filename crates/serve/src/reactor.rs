//! The serving core: N `poll(2)` event loops, request pipelining, bounded
//! outbound queues, and an off-loop extraction worker pool.
//!
//! ## Ownership model
//!
//! Each reactor thread owns one [`Poller`], an accepted share of the
//! connections, and everything about them — buffers, in-order pending
//! replies, deadlines. A connection is touched by exactly one thread for
//! its whole life (the reactor that accepted it), so per-connection state
//! needs no locks. All reactors watch the shared listener (level-triggered)
//! and drain its backlog on wakeup; whichever loop wakes first takes the
//! connection.
//!
//! ## Request lifecycle
//!
//! Bytes are read until `WouldBlock` into a per-connection buffer and
//! decoded incrementally ([`crate::protocol::decode_frame_bytes`]). Each
//! decoded request is **dispatched in arrival order**: validation, cache
//! probes, and admission control run inline on the event loop (they cost
//! microseconds), so shed/degrade decisions happen the instant a request
//! is decoded, in arrival order. Work that costs milliseconds —
//! extraction, pyramid rebuild, rasterization, and the encode of those
//! large replies — ships to the worker pool together with the extraction
//! slot it won; the worker posts the encoded frame to the owning reactor's
//! completion queue and rings its doorbell.
//!
//! ## Pipelining and ordering
//!
//! A client may pipeline any number of requests on one connection. Every
//! request takes a slot in the connection's pending queue at dispatch, and
//! replies are released strictly in request order — a fast cache hit
//! queued behind a slow extraction waits for it, so responses can never
//! interleave or reorder. Dispatch (and therefore admission accounting)
//! also happens in request order; only the *execution* of admitted misses
//! overlaps.
//!
//! ## Backpressure
//!
//! Completed replies enter a per-connection outbound queue written out
//! incrementally as the socket accepts bytes. When queued-but-unsent bytes
//! exceed [`crate::server::ServeOptions::outbound_budget`], the reactor
//! stops *reading* that connection (drops its readable interest) until
//! the queue drains below half the budget — a client that pipelines
//! requests but never reads responses stalls itself, not the server.
//!
//! ## What lives where
//!
//! This module owns only I/O: sockets, buffers, ordering, deadlines, and
//! the hand-off to workers. Everything about what a request *means* —
//! admission (`State::admit_mesh`/`admit_frame`/`admit_progressive`),
//! extraction (`State::pyramid_for`), reply building, and the counters —
//! lives in [`crate::server`]. The chaos suite (`tests/chaos.rs`) pins the
//! overload and fault contract end to end.

use crate::cache::CachedSurface;
use crate::protocol::{
    decode_frame_bytes, encode_frame_at, FrameIn, FrameParams, FrameStep, Message, Region,
    ERR_BUSY, ERR_MALFORMED, MAX_REQUEST_PAYLOAD, MIN_PROGRESSIVE_VERSION,
};
use crate::server::{
    busy_reply, encode_chunk_run, frame_render_reply, internal_error_reply, mesh_outcome_reply,
    request_trace_id, respond, validate_frame_request, validate_mesh_request, FrameAdmit,
    MeshAdmit, MeshOutcome, ProgressiveAdmit, Reply, SlotGuard, State,
};
use oociso_exio::poll::{Event, EventFd, Interest, Poller};
use oociso_march::Backend;
use oociso_obs::{Counter, Gauge, Histogram, Span, Trace, DEFAULT_TRACE_EVENTS};
use oociso_volume::ScalarValue;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing and flow-control knobs resolved from `ServeOptions`.
pub(crate) struct ReactorConfig {
    pub reactors: usize,
    pub workers: usize,
    pub outbound_budget: usize,
}

/// Safety-net poll timeout: all real wakeups arrive via fd readiness, the
/// doorbell, or a computed deadline remainder — this only bounds the damage
/// of a hypothetical missed wakeup.
const IDLE_POLL: Duration = Duration::from_millis(1000);

/// How long a loop stops watching the listener after an fd-exhausted
/// accept: accepting keeps failing until something closes, and the
/// listener stays readable meanwhile, so retrying at once would only spin
/// on the CPU the open connections need to finish and free descriptors.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Over-cap connections get at most this long to present the one frame
/// their `ERR_BUSY` reply is versioned from — a shed slot must not be
/// holdable open.
const SHED_DEADLINE: Duration = Duration::from_secs(2);

const TOKEN_DOORBELL: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// One reactor's cross-thread mailbox: completed jobs land here; the
/// doorbell (registered in that reactor's poller) announces them.
struct Mailbox {
    completions: Mutex<Vec<Completion>>,
    doorbell: EventFd,
}

/// An encoded reply frame coming back from the worker pool. A progressive
/// serve posts several completions for one request slot; `done` marks the
/// last one (every non-progressive job posts exactly one, done).
struct Completion {
    token: u64,
    seq: u64,
    payload: OutPayload,
    done: bool,
}

/// Everything needed to account a reply when its last byte reaches the
/// kernel.
struct ReplyMeta {
    root: Option<Span>,
    trace: Option<Trace>,
    trace_id: u64,
    /// Close the connection once this reply is flushed (protocol violation
    /// with lost framing, or a shed connection's one allowed reply).
    close_after: bool,
    /// A non-final progressive chunk: more frames of the same request
    /// follow, so per-request accounting (drain bookkeeping) waits.
    interim: bool,
}

/// An encoded reply plus its accounting.
struct OutPayload {
    bytes: Vec<u8>,
    meta: ReplyMeta,
}

/// One reply slot in a connection's in-order pending queue. One *request*
/// owns one slot even when (progressive) it answers with several frames:
/// ready frames stream out as they land, but the slot — and with it every
/// later request's reply — is released only once `done`, so replies stay
/// strictly ordered per connection.
struct Pending {
    seq: u64,
    /// Encoded frames ready to stream, oldest first.
    ready: VecDeque<OutPayload>,
    /// No more frames will arrive for this slot.
    done: bool,
}

impl Pending {
    /// A slot still waiting on a worker (or on further progressive chunks).
    fn open(seq: u64) -> Pending {
        Pending {
            seq,
            ready: VecDeque::new(),
            done: false,
        }
    }

    /// A slot answered entirely inline by one frame.
    fn answered(seq: u64, payload: OutPayload) -> Pending {
        Pending {
            seq,
            ready: VecDeque::from([payload]),
            done: true,
        }
    }
}

/// What classification decided for one request: answered entirely on the
/// event loop (one or more frames, slot done), or shipped to the worker
/// pool — possibly after streaming a resident head of progressive chunks.
enum Classified {
    Inline(Vec<OutPayload>),
    Offloaded { head: Vec<OutPayload> },
}

/// A reply frame being written out, with a write cursor.
struct OutFrame {
    bytes: Vec<u8>,
    off: usize,
    meta: ReplyMeta,
}

/// Per-connection state machine. Owned by exactly one reactor thread.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    pending: VecDeque<Pending>,
    next_seq: u64,
    out: VecDeque<OutFrame>,
    /// Queued-but-unsent response bytes (the backpressure quantity).
    out_bytes: usize,
    /// Backpressure engaged: reads stopped until the queue drains.
    paused: bool,
    /// No further bytes will be parsed or read (EOF, violation, shed reply
    /// queued, or drain).
    stop_reading: bool,
    /// A reply marked `close_after` has been fully flushed.
    finished: bool,
    /// Peer closed its write half.
    eof: bool,
    /// Over the connection cap: gets one `ERR_BUSY` for its first frame.
    shed: bool,
    /// What the poller currently watches for this stream.
    interest: Interest,
    accepted_at: Instant,
    last_read_progress: Instant,
    last_write_progress: Instant,
    /// Start of the current between-requests gap (the idle clock).
    idle_since: Instant,
    counted_live: bool,
}

/// Work shipped to the extraction/render pool. Every variant travels in an
/// [`Envelope`] with the request's span + trace (extraction phases land in
/// them) and its reply slot coordinates.
enum Job<S: ScalarValue> {
    Mesh {
        iso: f32,
        backend: Backend,
        lod: u16,
        region: Option<Region>,
        slot: SlotGuard<S>,
    },
    FrameRender {
        levels: Vec<Arc<CachedSurface>>,
        cache_hit: bool,
        params: FrameParams,
    },
    FrameExtract {
        iso: f32,
        params: FrameParams,
        slot: SlotGuard<S>,
        resident_full: Option<Arc<CachedSurface>>,
    },
    /// The extraction tail of an admitted progressive request: the resident
    /// coarse prefix already streamed from the event loop; the worker
    /// extracts, then posts one completion per remaining chunk (levels
    /// `next_level` down to `lod`), delta-continuing from `prev`.
    Progressive {
        iso: f32,
        backend: Backend,
        lod: u16,
        slot: SlotGuard<S>,
        prev: Option<Arc<CachedSurface>>,
        next_level: u16,
    },
}

/// A job plus its routing and tracing envelope.
struct Envelope<S: ScalarValue> {
    job: Job<S>,
    mailbox: Arc<Mailbox>,
    token: u64,
    seq: u64,
    trace_id: u64,
    version: u16,
    trace: Trace,
    root: Span,
}

/// Reactor-core metrics, resolved once from the server registry.
#[derive(Clone)]
struct Meters {
    wakeups: Counter,
    loop_us: Histogram,
    offloaded: Counter,
    pauses: Counter,
    conns: Gauge,
    outbound: Gauge,
}

/// Spawn the whole reactor core: `cfg.reactors` event loops, a worker
/// pool, and a supervisor thread that joins them all (what
/// `IsoServer::drain` joins). The listener must already be nonblocking.
pub(crate) fn spawn<S: ScalarValue>(
    listener: TcpListener,
    state: Arc<State<S>>,
    cfg: ReactorConfig,
) -> io::Result<JoinHandle<()>> {
    let listener = Arc::new(listener);
    let reactors = cfg.reactors;
    let workers = if cfg.workers == 0 {
        // extraction fans out internally; a handful of workers keeps misses
        // and rasterization flowing without oversubscribing small hosts
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2)
            .max(4)
    } else {
        cfg.workers
    };
    let meters = Meters {
        wakeups: state.metrics.counter("reactor_wakeups_total"),
        loop_us: state.metrics.histogram("reactor_loop_us"),
        offloaded: state.metrics.counter("reactor_jobs_offloaded_total"),
        pauses: state.metrics.counter("reactor_backpressure_pauses_total"),
        conns: state.metrics.gauge("reactor_connections"),
        outbound: state.metrics.gauge("outbound_queue_bytes"),
    };

    let (tx, rx) = mpsc::channel::<Envelope<S>>();
    let rx = Arc::new(Mutex::new(rx));
    let mut worker_handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let rx = rx.clone();
        let state = state.clone();
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("oociso-worker-{i}"))
                .spawn(move || worker_loop(rx, state))?,
        );
    }

    let mut reactor_handles = Vec::with_capacity(reactors);
    for i in 0..reactors {
        let mailbox = Arc::new(Mailbox {
            completions: Mutex::new(Vec::new()),
            doorbell: EventFd::new()?,
        });
        // drain()/stop() ring every doorbell so parked loops react at once
        {
            let mb = mailbox.clone();
            state
                .ctl
                .wakers
                .lock()
                .expect("wakers lock")
                .push(Box::new(move || {
                    let _ = mb.doorbell.notify();
                }));
        }
        let mut reactor = Reactor {
            poller: Poller::new()?,
            listener: listener.clone(),
            accepting: true,
            state: state.clone(),
            mailbox,
            jobs: tx.clone(),
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            budget: cfg.outbound_budget,
            meters: meters.clone(),
            fd_starved: false,
            accept_paused_until: None,
        };
        reactor.poller.register(
            &reactor.mailbox.doorbell,
            TOKEN_DOORBELL,
            Interest::READABLE,
        )?;
        reactor
            .poller
            .register(&*reactor.listener, TOKEN_LISTENER, Interest::READABLE)?;
        reactor_handles.push(
            std::thread::Builder::new()
                .name(format!("oociso-reactor-{i}"))
                .spawn(move || reactor.run())?,
        );
    }
    drop(tx); // workers exit once every reactor (sender) is gone

    std::thread::Builder::new()
        .name("oociso-accept".to_string()) // what IsoServer::drain joins
        .spawn(move || {
            for h in reactor_handles {
                let _ = h.join();
            }
            for h in worker_handles {
                let _ = h.join();
            }
        })
}

/// Pull envelopes until every reactor hung up, running each job and
/// posting its encoded reply back to the owning reactor.
fn worker_loop<S: ScalarValue>(rx: Arc<Mutex<mpsc::Receiver<Envelope<S>>>>, state: Arc<State<S>>) {
    loop {
        let env = {
            let guard = rx.lock().expect("job queue lock");
            guard.recv()
        };
        let Ok(env) = env else { return };
        run_job(env, &state);
    }
}

/// Post one completed reply frame to the owning reactor.
fn post(mailbox: &Mailbox, token: u64, seq: u64, payload: OutPayload, done: bool) {
    mailbox
        .completions
        .lock()
        .expect("completions lock")
        .push(Completion {
            token,
            seq,
            payload,
            done,
        });
    let _ = mailbox.doorbell.notify();
}

fn run_job<S: ScalarValue>(env: Envelope<S>, state: &Arc<State<S>>) {
    let Envelope {
        job,
        mailbox,
        token,
        seq,
        trace_id,
        version,
        trace,
        mut root,
    } = env;
    let job = if let Job::Progressive {
        iso,
        backend,
        lod,
        slot,
        prev,
        next_level,
    } = job
    {
        // a panicking extraction surfaces as a final ERR_INTERNAL chunk;
        // the slot guard releases during unwind or on the drop below
        let result = catch_unwind(AssertUnwindSafe(|| state.pyramid_for(iso, backend, &trace)))
            .unwrap_or_else(|_| Err(io::Error::other("extraction panicked")));
        drop(slot);
        root.field("offloaded", 1);
        match result {
            Err(e) => {
                let t_enc = Instant::now();
                let bytes = internal_error_reply(&e).finalize(state, version);
                root.annotate("encode", t_enc.elapsed(), &[("bytes", bytes.len() as u64)]);
                post(
                    &mailbox,
                    token,
                    seq,
                    OutPayload {
                        bytes,
                        meta: ReplyMeta {
                            root: Some(root),
                            trace: Some(trace),
                            trace_id,
                            close_after: false,
                            interim: false,
                        },
                    },
                    true,
                );
            }
            Ok(levels) => {
                let t_enc = Instant::now();
                let run: Vec<Arc<CachedSurface>> = (lod..=next_level)
                    .rev()
                    .map(|l| levels[l as usize].clone())
                    .collect();
                let frames = encode_chunk_run(
                    &run,
                    next_level,
                    false,
                    backend,
                    trace_id,
                    version,
                    prev.as_ref(),
                    true,
                );
                // each chunk is posted (and rung) individually so refinement
                // starts flowing before the run is fully posted
                for payload in chunk_payloads(frames, root, trace, trace_id, t_enc.elapsed()) {
                    let done = !payload.meta.interim;
                    post(&mailbox, token, seq, payload, done);
                }
            }
        }
        return;
    } else {
        job
    };
    // a panicking extraction must not strand the reply slot: the client
    // gets ERR_INTERNAL and the connection lives on (the slot guard
    // released during unwind)
    let reply = catch_unwind(AssertUnwindSafe(|| match job {
        Job::Mesh {
            iso,
            backend,
            lod,
            region,
            slot,
        } => match state.pyramid_for(iso, backend, &trace) {
            Ok(levels) => {
                drop(slot);
                mesh_outcome_reply(
                    MeshOutcome::Serve {
                        surface: levels[lod as usize].clone(),
                        cache_hit: false,
                        served_lod: lod,
                        degraded: false,
                    },
                    region,
                    backend,
                    trace_id,
                    version,
                )
            }
            Err(e) => internal_error_reply(&e),
        },
        Job::FrameRender {
            levels,
            cache_hit,
            params,
        } => frame_render_reply(state, &levels, cache_hit, &params, trace_id),
        Job::FrameExtract {
            iso,
            params,
            slot,
            resident_full,
        } => match state.complete_frame_extract(iso, resident_full, &trace) {
            Ok(levels) => {
                drop(slot);
                frame_render_reply(state, &levels, false, &params, trace_id)
            }
            Err(e) => internal_error_reply(&e),
        },
        // peeled off above; the rebinding can't narrow the type
        Job::Progressive { .. } => unreachable!("progressive jobs handled above"),
    }))
    .unwrap_or_else(|_| internal_error_reply(&io::Error::other("extraction panicked")));
    let t_enc = Instant::now();
    let bytes = reply.finalize(state, version);
    root.annotate("encode", t_enc.elapsed(), &[("bytes", bytes.len() as u64)]);
    root.field("offloaded", 1);
    post(
        &mailbox,
        token,
        seq,
        OutPayload {
            bytes,
            meta: ReplyMeta {
                root: Some(root),
                trace: Some(trace),
                trace_id,
                close_after: false,
                interim: false,
            },
        },
        true,
    );
}

/// Turn an encoded chunk run into its per-frame payloads: the request's
/// span and trace ride the *final* chunk (one request, one accounting),
/// earlier chunks are marked interim. `enc` is the wall time the encode
/// took, annotated with the run's total bytes.
fn chunk_payloads(
    frames: Vec<Vec<u8>>,
    root: Span,
    trace: Trace,
    trace_id: u64,
    enc: Duration,
) -> Vec<OutPayload> {
    let total: usize = frames.iter().map(|f| f.len()).sum();
    root.annotate("encode", enc, &[("bytes", total as u64)]);
    let n = frames.len();
    let mut root = Some(root);
    let mut trace = Some(trace);
    frames
        .into_iter()
        .enumerate()
        .map(|(i, bytes)| {
            let last = i + 1 == n;
            OutPayload {
                bytes,
                meta: ReplyMeta {
                    root: if last { root.take() } else { None },
                    trace: if last { trace.take() } else { None },
                    trace_id,
                    close_after: false,
                    interim: !last,
                },
            }
        })
        .collect()
}

/// One event-loop thread.
struct Reactor<S: ScalarValue> {
    poller: Poller,
    listener: Arc<TcpListener>,
    accepting: bool,
    state: Arc<State<S>>,
    mailbox: Arc<Mailbox>,
    jobs: mpsc::Sender<Envelope<S>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    budget: usize,
    meters: Meters,
    fd_starved: bool,
    /// Listener unwatched until then, after fd exhaustion.
    accept_paused_until: Option<Instant>,
}

impl<S: ScalarValue> Reactor<S> {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let ctl = &self.state.ctl;
            if ctl.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let draining = ctl.draining.load(Ordering::SeqCst);
            if draining {
                self.enter_drain();
                if self.conns.is_empty() {
                    break;
                }
            }
            self.resume_accepting();
            let timeout = self.next_deadline().min(IDLE_POLL);
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break; // a failing poll(2) is unrecoverable
            }
            let t0 = Instant::now();
            self.meters.wakeups.inc();
            for ev in std::mem::take(&mut events) {
                match ev.token {
                    TOKEN_DOORBELL => {
                        let _ = self.mailbox.doorbell.drain();
                        self.deliver_completions();
                    }
                    TOKEN_LISTENER => self.accept_burst(),
                    token => self.service(token, ev),
                }
            }
            self.sweep_deadlines();
            self.meters.loop_us.record_duration(t0.elapsed());
        }
        // hard stop: every owned connection closes now
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            self.close(t);
        }
    }

    /// Graceful drain: stop accepting and parsing; connections close once
    /// their already-dispatched requests are answered and flushed.
    fn enter_drain(&mut self) {
        if self.accepting {
            let _ = self.poller.deregister(&*self.listener);
            self.accepting = false;
            self.accept_paused_until = None;
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            if let Some(conn) = self.conns.get_mut(&t) {
                conn.stop_reading = true;
            }
            self.pump(t);
        }
    }

    /// Route completed jobs into their connections' pending slots.
    fn deliver_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut q = self.mailbox.completions.lock().expect("completions lock");
            std::mem::take(&mut *q)
        };
        let mut touched = Vec::new();
        for c in done {
            if let Some(conn) = self.conns.get_mut(&c.token) {
                if let Some(p) = conn.pending.iter_mut().find(|p| p.seq == c.seq) {
                    p.ready.push_back(c.payload);
                    p.done |= c.done;
                    touched.push(c.token);
                }
            }
            // connection already closed: the reply is dropped (its span
            // finalizes via Drop)
        }
        touched.dedup();
        for t in touched {
            self.pump(t);
        }
    }

    /// Accept until `WouldBlock` — the whole backlog in one wakeup.
    fn accept_burst(&mut self) {
        if !self.accepting {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.fd_starved = false;
                    self.admit(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if crate::server::fd_exhausted(&e) => {
                    crate::server::note_fd_exhaustion(
                        &self.state.c.accept_backoffs,
                        &self.state.logger,
                        &e,
                        &mut self.fd_starved,
                    );
                    let unwatched = Interest {
                        readable: false,
                        writable: false,
                    };
                    if self
                        .poller
                        .modify(&*self.listener, TOKEN_LISTENER, unwatched)
                        .is_ok()
                    {
                        self.accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    }
                    break;
                }
                Err(_) => break,
            }
        }
    }

    /// Watch the listener again once an fd-exhaustion backoff has passed.
    fn resume_accepting(&mut self) {
        if self
            .accept_paused_until
            .is_some_and(|until| Instant::now() >= until)
            && self
                .poller
                .modify(&*self.listener, TOKEN_LISTENER, Interest::READABLE)
                .is_ok()
        {
            self.accept_paused_until = None;
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let state = &self.state;
        state.c.connections.inc();
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let over = state
            .max_connections
            .is_some_and(|cap| state.ctl.live.load(Ordering::SeqCst) >= cap as u64);
        if !over {
            state.ctl.live.fetch_add(1, Ordering::SeqCst);
        }
        let token = self.next_token;
        self.next_token += 1;
        let now = Instant::now();
        let conn = Conn {
            stream,
            read_buf: Vec::new(),
            pending: VecDeque::new(),
            next_seq: 0,
            out: VecDeque::new(),
            out_bytes: 0,
            paused: false,
            stop_reading: false,
            finished: false,
            eof: false,
            shed: over,
            interest: Interest::READABLE,
            accepted_at: now,
            last_read_progress: now,
            last_write_progress: now,
            idle_since: now,
            counted_live: !over,
        };
        if self
            .poller
            .register(&conn.stream, token, Interest::READABLE)
            .is_err()
        {
            if conn.counted_live {
                state.ctl.live.fetch_sub(1, Ordering::SeqCst);
            }
            return;
        }
        self.meters.conns.add(1);
        self.conns.insert(token, conn);
    }

    /// Handle readiness for one connection.
    fn service(&mut self, token: u64, ev: Event) {
        if !self.conns.contains_key(&token) {
            return; // closed earlier in this batch
        }
        if ev.error {
            self.close(token);
            return;
        }
        if (ev.readable || ev.hangup) && !self.read_and_dispatch(token) {
            return; // closed
        }
        // pump always attempts the write-out, so ev.writable needs no
        // separate branch
        self.pump(token);
    }

    /// Read until `WouldBlock`, decode every complete frame, dispatch each
    /// in arrival order. Returns false if the connection was closed.
    fn read_and_dispatch(&mut self, token: u64) -> bool {
        let state = self.state.clone();
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        if !conn.stop_reading && !conn.paused {
            let mut chunk = [0u8; 64 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.eof = true;
                        conn.stop_reading = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        let now = Instant::now();
                        conn.last_read_progress = now;
                        conn.idle_since = now;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(token);
                        return false;
                    }
                }
            }
        }
        // decode + dispatch loop: stops at a partial frame, on pause, at a
        // violation that poisons framing, or when drain forbids new work
        let mut consumed = 0usize;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            if conn.stop_reading
                || conn.paused
                || state.ctl.draining.load(Ordering::SeqCst)
                || consumed >= conn.read_buf.len()
            {
                break;
            }
            match decode_frame_bytes(&conn.read_buf[consumed..], MAX_REQUEST_PAYLOAD) {
                FrameStep::NeedMore { .. } => break,
                FrameStep::Frame { frame, consumed: n } => {
                    consumed += n;
                    self.dispatch(token, frame);
                }
            }
        }
        match self.conns.get_mut(&token) {
            Some(conn) => {
                if consumed > 0 {
                    conn.read_buf.drain(..consumed);
                }
                if conn.stop_reading {
                    // nothing behind a poisoned/final frame is interpreted
                    conn.read_buf.clear();
                }
                true
            }
            None => false,
        }
    }

    /// Dispatch one decoded frame: inline answer or worker offload, with a
    /// reply slot reserved in request order either way.
    fn dispatch(&mut self, token: u64, frame: FrameIn) {
        let state = self.state.clone();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        state.c.requests.inc();
        let seq = conn.next_seq;
        conn.next_seq += 1;

        if conn.shed {
            // over the connection cap: one ERR_BUSY in the client's own
            // dialect, then close — honest shedding, never a silent drop
            let version = match &frame {
                FrameIn::Ok { version, .. } => *version,
                FrameIn::Violation { version, .. } => *version,
            };
            state.c.shed.inc();
            state.c.errors.inc();
            let hint = state.retry_hint_ms();
            let bytes = encode_frame_at(
                version,
                &Message::Error {
                    code: ERR_BUSY,
                    detail: format!("connection limit reached; retry in {hint} ms"),
                    retry_after_ms: Some(hint),
                },
            );
            conn.stop_reading = true;
            conn.pending.push_back(Pending::answered(
                seq,
                OutPayload {
                    bytes,
                    meta: ReplyMeta {
                        root: None,
                        trace: None,
                        trace_id: 0,
                        close_after: true,
                        interim: false,
                    },
                },
            ));
            return;
        }

        match frame {
            FrameIn::Violation {
                code,
                detail,
                close,
                version,
            } => {
                state.c.errors.inc();
                let bytes = encode_frame_at(
                    version,
                    &Message::Error {
                        code,
                        detail,
                        retry_after_ms: None,
                    },
                );
                if close {
                    conn.stop_reading = true;
                }
                conn.pending.push_back(Pending::answered(
                    seq,
                    OutPayload {
                        bytes,
                        meta: ReplyMeta {
                            root: None,
                            trace: None,
                            trace_id: 0,
                            close_after: close,
                            interim: false,
                        },
                    },
                ));
            }
            FrameIn::Ok { msg, version } => {
                let trace_id = request_trace_id(&msg);
                let trace = if trace_id != 0 {
                    Trace::new(trace_id, DEFAULT_TRACE_EVENTS)
                } else {
                    Trace::detached()
                };
                let mut root = trace.span("request");
                root.field("msg_type", msg.msg_type() as u64);
                root.field("version", version as u64);
                conn.pending.push_back(Pending::open(seq));
                let verdict = self.classify(token, seq, msg, version, trace, root);
                if let Some(conn) = self.conns.get_mut(&token) {
                    if let Some(p) = conn.pending.iter_mut().find(|p| p.seq == seq) {
                        match verdict {
                            // offloaded: `head` (a progressive serve's
                            // resident prefix) streams now, the worker
                            // posts the rest via the mailbox
                            Classified::Offloaded { head } => p.ready.extend(head),
                            Classified::Inline(payloads) => {
                                p.ready.extend(payloads);
                                p.done = true;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Decide one well-formed request: answer inline (cache hits, shed and
    /// degraded verdicts, stats/ping/metrics/trace, validation errors,
    /// fully cached progressive streams) or ship an envelope to the pool.
    #[allow(clippy::too_many_arguments)]
    fn classify(
        &mut self,
        token: u64,
        seq: u64,
        msg: Message,
        version: u16,
        trace: Trace,
        root: Span,
    ) -> Classified {
        let state = self.state.clone();
        let inline = |reply: Reply, root: Span, trace: Trace, trace_id: u64| {
            let t_enc = Instant::now();
            let bytes = reply.finalize(&state, version);
            root.annotate("encode", t_enc.elapsed(), &[("bytes", bytes.len() as u64)]);
            Classified::Inline(vec![OutPayload {
                bytes,
                meta: ReplyMeta {
                    root: Some(root),
                    trace: Some(trace),
                    trace_id,
                    close_after: false,
                    interim: false,
                },
            }])
        };
        match msg {
            Message::MeshRequest {
                iso,
                region,
                lod,
                backend,
                trace_id,
            } => {
                state.c.mesh_requests.inc();
                let backend = match validate_mesh_request(&state, lod, backend) {
                    Ok(b) => b,
                    Err(reply) => return inline(reply, root, trace, trace_id),
                };
                match state.admit_mesh(iso, backend, lod, &root) {
                    MeshAdmit::Ready(outcome) => inline(
                        mesh_outcome_reply(outcome, region, backend, trace_id, version),
                        root,
                        trace,
                        trace_id,
                    ),
                    MeshAdmit::Extract { slot } => {
                        self.offload(Envelope {
                            job: Job::Mesh {
                                iso,
                                backend,
                                lod,
                                region,
                                slot,
                            },
                            mailbox: self.mailbox.clone(),
                            token,
                            seq,
                            trace_id,
                            version,
                            trace,
                            root,
                        });
                        Classified::Offloaded { head: Vec::new() }
                    }
                }
            }
            Message::ProgressiveRequest {
                iso,
                lod,
                backend,
                trace_id,
            } => {
                state.c.mesh_requests.inc();
                if version < MIN_PROGRESSIVE_VERSION {
                    return inline(
                        Reply::Msg(Message::Error {
                            code: ERR_MALFORMED,
                            detail: format!(
                                "progressive requests need protocol v{MIN_PROGRESSIVE_VERSION} (frame spoke v{version})"
                            ),
                            retry_after_ms: None,
                        }),
                        root,
                        trace,
                        trace_id,
                    );
                }
                let backend = match validate_mesh_request(&state, lod, backend) {
                    Ok(b) => b,
                    Err(reply) => return inline(reply, root, trace, trace_id),
                };
                let top = state.levels() - 1;
                match state.admit_progressive(iso, backend, lod, &root) {
                    ProgressiveAdmit::Busy { retry_after_ms } => inline(
                        Reply::Msg(busy_reply("extraction slots exhausted", retry_after_ms)),
                        root,
                        trace,
                        trace_id,
                    ),
                    ProgressiveAdmit::Ready { levels }
                    | ProgressiveAdmit::Degraded { resident: levels } => {
                        let t_enc = Instant::now();
                        let frames = encode_chunk_run(
                            &levels, top, true, backend, trace_id, version, None, true,
                        );
                        Classified::Inline(chunk_payloads(
                            frames,
                            root,
                            trace,
                            trace_id,
                            t_enc.elapsed(),
                        ))
                    }
                    ProgressiveAdmit::Extract { resident, slot } => {
                        // stream what's already cached now; the worker picks
                        // up delta continuity from the finest resident level
                        let t_enc = Instant::now();
                        let head: Vec<OutPayload> = encode_chunk_run(
                            &resident, top, true, backend, trace_id, version, None, false,
                        )
                        .into_iter()
                        .map(|bytes| OutPayload {
                            bytes,
                            meta: ReplyMeta {
                                root: None,
                                trace: None,
                                trace_id,
                                close_after: false,
                                interim: true,
                            },
                        })
                        .collect();
                        root.annotate("encode", t_enc.elapsed(), &[("head", head.len() as u64)]);
                        let next_level = top - resident.len() as u16;
                        let prev = resident.last().cloned();
                        self.offload(Envelope {
                            job: Job::Progressive {
                                iso,
                                backend,
                                lod,
                                slot,
                                prev,
                                next_level,
                            },
                            mailbox: self.mailbox.clone(),
                            token,
                            seq,
                            trace_id,
                            version,
                            trace,
                            root,
                        });
                        Classified::Offloaded { head }
                    }
                }
            }
            Message::FrameRequest {
                iso,
                params,
                trace_id,
            } => {
                state.c.frame_requests.inc();
                if let Some(reply) = validate_frame_request(&params) {
                    return inline(reply, root, trace, trace_id);
                }
                match state.admit_frame(iso, &root) {
                    FrameAdmit::Busy { retry_after_ms } => inline(
                        Reply::Msg(busy_reply("extraction slots exhausted", retry_after_ms)),
                        root,
                        trace,
                        trace_id,
                    ),
                    // rasterization costs milliseconds even on a hit: off
                    // the loop it goes, the hit accounting already booked
                    FrameAdmit::Hit(levels) => {
                        self.offload(Envelope {
                            job: Job::FrameRender {
                                levels,
                                cache_hit: true,
                                params,
                            },
                            mailbox: self.mailbox.clone(),
                            token,
                            seq,
                            trace_id,
                            version,
                            trace,
                            root,
                        });
                        Classified::Offloaded { head: Vec::new() }
                    }
                    FrameAdmit::Extract {
                        slot,
                        resident_full,
                    } => {
                        self.offload(Envelope {
                            job: Job::FrameExtract {
                                iso,
                                params,
                                slot,
                                resident_full,
                            },
                            mailbox: self.mailbox.clone(),
                            token,
                            seq,
                            trace_id,
                            version,
                            trace,
                            root,
                        });
                        Classified::Offloaded { head: Vec::new() }
                    }
                }
            }
            other => {
                // stats/ping/metrics/trace and confused client messages:
                // respond() answers them inline (all sub-millisecond)
                let trace_id = request_trace_id(&other);
                inline(respond(&state, other, version), root, trace, trace_id)
            }
        }
    }

    fn offload(&mut self, env: Envelope<S>) {
        self.meters.offloaded.inc();
        // send fails only after every worker died (channel closed at
        // shutdown); the pending slot then simply never completes and the
        // connection closes with the server
        let _ = self.jobs.send(env);
    }

    /// Move ready in-order replies to the write queue, write until the
    /// socket blocks, account finished replies, manage backpressure and
    /// interest, and close when the connection's story ends.
    fn pump(&mut self, token: u64) {
        let state = self.state.clone();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // release replies in request order only: the head slot streams every
        // frame it has ready (a progressive serve's chunks flow before its
        // extraction finishes), but later slots stay blocked until the head
        // is done — responses never interleave or reorder
        while let Some(front) = conn.pending.front_mut() {
            while let Some(payload) = front.ready.pop_front() {
                conn.out_bytes += payload.bytes.len();
                self.meters.outbound.add(payload.bytes.len() as i64);
                conn.out.push_back(OutFrame {
                    bytes: payload.bytes,
                    off: 0,
                    meta: payload.meta,
                });
            }
            if !front.done {
                break;
            }
            conn.pending.pop_front();
        }
        // incremental write-out
        let mut hard_close = false;
        while let Some(front) = conn.out.front_mut() {
            match conn.stream.write(&front.bytes[front.off..]) {
                Ok(0) => {
                    hard_close = true;
                    break;
                }
                Ok(n) => {
                    front.off += n;
                    conn.out_bytes -= n;
                    self.meters.outbound.add(-(n as i64));
                    conn.last_write_progress = Instant::now();
                    if front.off == front.bytes.len() {
                        let f = conn.out.pop_front().expect("checked front");
                        finish_reply(&state, f.bytes.len(), f.meta, conn);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    hard_close = true;
                    break;
                }
            }
        }
        if hard_close {
            self.close(token);
            return;
        }
        // backpressure: pause reads over budget, resume under half
        if !conn.paused && conn.out_bytes > self.budget {
            conn.paused = true;
            self.meters.pauses.inc();
        } else if conn.paused && conn.out_bytes <= self.budget / 2 {
            conn.paused = false;
        }
        // story's end?
        let drained_out = conn.out.is_empty() && conn.pending.is_empty();
        if (conn.finished && conn.out.is_empty())
            || (conn.eof && drained_out)
            || (conn.stop_reading && drained_out && conn.read_buf.is_empty())
        {
            self.close(token);
            return;
        }
        // interest: read unless stopped/paused; write while output queued
        let want = Interest {
            readable: !conn.stop_reading && !conn.paused,
            writable: !conn.out.is_empty(),
        };
        if want != conn.interest && self.poller.modify(&conn.stream, token, want).is_ok() {
            conn.interest = want;
        }
    }

    /// Enforce per-connection deadlines, all progress-based: mid-frame read
    /// stalls, write stalls, idle connections, and over-cap connections
    /// that never sent their first frame.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let state = self.state.clone();
        let mut doomed: Vec<u64> = Vec::new();
        for (&token, conn) in &self.conns {
            if conn.shed {
                let cap = state
                    .read_timeout
                    .unwrap_or(SHED_DEADLINE)
                    .min(SHED_DEADLINE);
                if conn.pending.is_empty() && now.duration_since(conn.accepted_at) >= cap {
                    // never presented a frame: closed uncounted
                    doomed.push(token);
                }
                continue;
            }
            // a started-but-unfinished frame counts against the read
            // deadline (slowloris); waiting pipelined work does not
            if !conn.read_buf.is_empty() && !conn.stop_reading && !conn.paused {
                if let Some(rt) = state.read_timeout {
                    if now.duration_since(conn.last_read_progress) >= rt {
                        state.c.timed_out.inc();
                        doomed.push(token);
                        continue;
                    }
                }
            }
            if !conn.out.is_empty() {
                if let Some(wt) = state.write_timeout {
                    if now.duration_since(conn.last_write_progress) >= wt {
                        // the peer stopped draining mid-reply: counted and
                        // cut — a partially written frame is never followed
                        // by another byte
                        state.c.timed_out.inc();
                        doomed.push(token);
                        continue;
                    }
                }
            }
            if conn.pending.is_empty() && conn.out.is_empty() && conn.read_buf.is_empty() {
                if let Some(idle) = state.idle_timeout {
                    if now.duration_since(conn.idle_since) >= idle {
                        state.c.timed_out.inc();
                        doomed.push(token);
                        continue;
                    }
                }
            }
        }
        for t in doomed {
            self.close(t);
        }
    }

    /// How long the next poll may sleep before some deadline needs
    /// enforcement.
    fn next_deadline(&self) -> Duration {
        let now = Instant::now();
        let state = &self.state;
        let mut min = IDLE_POLL;
        let mut consider = |deadline: Instant| {
            let left = deadline.saturating_duration_since(now);
            if left < min {
                min = left;
            }
        };
        if let Some(until) = self.accept_paused_until {
            consider(until);
        }
        for conn in self.conns.values() {
            if conn.shed {
                let cap = state
                    .read_timeout
                    .unwrap_or(SHED_DEADLINE)
                    .min(SHED_DEADLINE);
                consider(conn.accepted_at + cap);
                continue;
            }
            if !conn.read_buf.is_empty() && !conn.stop_reading && !conn.paused {
                if let Some(rt) = state.read_timeout {
                    consider(conn.last_read_progress + rt);
                }
            }
            if !conn.out.is_empty() {
                if let Some(wt) = state.write_timeout {
                    consider(conn.last_write_progress + wt);
                }
            }
            if conn.pending.is_empty() && conn.out.is_empty() && conn.read_buf.is_empty() {
                if let Some(idle) = state.idle_timeout {
                    consider(conn.idle_since + idle);
                }
            }
        }
        min
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(&conn.stream);
            if conn.counted_live {
                self.state.ctl.live.fetch_sub(1, Ordering::SeqCst);
            }
            self.meters.conns.add(-1);
            if conn.out_bytes > 0 {
                self.meters.outbound.add(-(conn.out_bytes as i64));
            }
        }
    }
}

/// Account one fully written reply — byte counters, latency histogram,
/// journals, slow-query log, drain bookkeeping.
fn finish_reply<S: ScalarValue>(
    state: &Arc<State<S>>,
    frame_len: usize,
    meta: ReplyMeta,
    conn: &mut Conn,
) {
    state.c.bytes_out.add(frame_len as u64);
    conn.idle_since = Instant::now();
    if let Some(root) = meta.root {
        let total = root.finish();
        state.request_latency_us.record_duration(total);
        if let Some(trace) = &meta.trace {
            if meta.trace_id != 0 {
                state.recent.push(trace, total);
            }
            if state.slow_ms > 0 && total >= Duration::from_millis(state.slow_ms) {
                state.slow.push(trace, total);
                state.logger.warn(
                    "serve",
                    "slow_query",
                    format!("request took {} ms", total.as_millis()),
                    &[
                        ("trace_id", meta.trace_id.to_string()),
                        ("threshold_ms", state.slow_ms.to_string()),
                    ],
                );
            }
        }
    }
    if !meta.interim && state.ctl.draining.load(Ordering::SeqCst) {
        // this reply completed during the graceful drain (a progressive
        // serve counts once, on its final chunk)
        state.c.drained.inc();
    }
    if meta.close_after {
        conn.finished = true;
        conn.stop_reading = true;
    }
}
