//! The TCP query server: its options, shared state, and admission logic.
//!
//! [`IsoServer::bind`] hands the listener to the serving core in
//! [`crate::reactor`] (event loops plus an extraction worker pool). All
//! serving shares one [`oociso_core::ClusterDatabase`] — extraction already
//! fans out across node threads and per-node worker pools internally, so
//! concurrent requests ride the existing streaming extraction path — plus
//! one [`ResultCache`] behind a mutex (held only for lookup/insert, never
//! across an extraction). This module owns everything about a request that
//! is not I/O: admission, extraction, the warm queue, reply building, and
//! the counters.
//!
//! With [`ServeOptions::lod_ratios`] configured the server builds the LOD
//! pyramid once per cache-missed isovalue (post-weld, via
//! `ClusterDatabase::extract_lods`), caches every level separately, serves
//! mesh requests at their requested `lod`, and picks per-tile levels for
//! frame requests by projected screen-space error.
//!
//! ## Overload and failure behavior
//!
//! The server never queues a request behind an unbounded backlog. Admission
//! control is explicit: cache misses (the expensive path — a disk-backed
//! extraction or a re-decimation) must win one of
//! [`ServeOptions::extraction_slots`]; a miss that can't is answered with a
//! structured [`ERR_BUSY`] carrying a retry-after hint derived from recent
//! miss cost — or, with [`ServeOptions::degrade`] set, satisfied from a
//! cached **coarser** LOD level and flagged `degraded` in the response.
//! Connections beyond [`ServeOptions::max_connections`] get one `ERR_BUSY`
//! reply and a clean close. Cache hits are always served: they cost
//! microseconds and shedding them would gain nothing.
//!
//! Per-connection read/write deadlines bound slow or stalled peers
//! (slowloris defense), and [`IsoServer::drain`] gives `stop()` a graceful
//! phase: stop accepting, let in-flight requests finish under a deadline,
//! then close. Every shed/degraded/timed-out/drained event is counted in
//! [`ServerReport`]. See `docs/serve.md` ("Overload & failure semantics")
//! and `docs/robustness.md`.

use crate::cache::{CachedSurface, ResultCache};
use crate::protocol::{
    encode_frame_at, encode_mesh_chunk_frame, encode_mesh_response_frame,
    encode_stats_response_frame, FrameParams, Message, Region, ServerReport, TraceEvent,
    ERR_BAD_BACKEND, ERR_BAD_LOD, ERR_BUSY, ERR_INTERNAL, ERR_MALFORMED, MAX_LOD_LEVELS,
};
use oociso_cluster::LodSpec;
use oociso_core::ClusterDatabase;
use oociso_march::Backend;
use oociso_obs::{Counter, Histogram, Logger, Registry, Span, Trace, TraceJournal};
use oociso_render::{rasterize_mesh, select_tile_levels, Camera, Framebuffer, TileLayout};
use oociso_volume::ScalarValue;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Result-cache byte budget (default 256 MiB).
    pub cache_bytes: u64,
    /// Extra LOD pyramid levels to build and serve, as vertex-count ratios
    /// of the full mesh (strictly decreasing, at most
    /// [`MAX_LOD_LEVELS`]` - 1` entries). Empty (the default) serves level 0
    /// only, exactly like a v1 server.
    pub lod_ratios: Vec<f64>,
    /// Screen-space error budget (pixels) for per-tile LOD selection in
    /// frame mode. Only meaningful with `lod_ratios` set.
    pub lod_tolerance_px: f32,
    /// Concurrent cache-miss extractions admitted at once (`Some(0)` sheds
    /// every miss — useful for tests and read-only replicas; `None`, the
    /// default, admits all). Cache hits are never gated: they cost
    /// microseconds and hold no slot.
    pub extraction_slots: Option<u32>,
    /// Concurrently served connections admitted at once. A connection over
    /// the cap is answered with one structured [`ERR_BUSY`] and closed —
    /// never silently dropped. `None` (the default) admits all.
    pub max_connections: Option<u32>,
    /// Graceful degradation: a mesh request that misses the cache but can't
    /// win an extraction slot is served from the finest *cached coarser*
    /// LOD level of the same isovalue — flagged `degraded` with the
    /// `served_lod` it actually got — instead of being shed. Off by
    /// default.
    pub degrade: bool,
    /// Mid-frame socket read deadline: a peer that starts a frame and then
    /// stalls (slowloris) is disconnected and counted `timed_out`. Default
    /// 30 s; `None` waits forever (the pre-v3 behavior).
    pub read_timeout: Option<Duration>,
    /// Write-stall deadline for responses: a connection with queued reply
    /// bytes that makes no write progress for this long is cut and counted
    /// `timed_out` (a reader that stops draining a multi-hundred-MB mesh
    /// can't pin server memory forever). Default 30 s.
    pub write_timeout: Option<Duration>,
    /// Close connections that sit idle *between* frames longer than this
    /// (counted `timed_out`). `None` (the default) keeps them forever.
    pub idle_timeout: Option<Duration>,
    /// Extraction backend for requests that carry no selector — every
    /// pre-v4 request, and v4 mesh requests with the selector omitted.
    /// Frame requests always use this backend (they have no wire selector).
    /// v4 mesh requests may override it per request; each backend's results
    /// cache under its own keys, so mixed workloads never collide. Default
    /// [`Backend::Mc`].
    pub backend: Backend,
    /// Slow-query threshold in milliseconds: a request whose end-to-end
    /// wall time reaches it is logged as a `slow_query` warning and its
    /// trace retained in the slow journal (even when the client sent no
    /// trace id). 0 disables. Default 1000.
    pub slow_ms: u64,
    /// How many finished request traces the trace journal retains for
    /// [`Message::TraceRequest`] lookups. Default 64.
    pub trace_buffer: usize,
    /// Structured log sink for operational events (`accept_backoff`,
    /// `slow_query`, `drain_timeout`). Default logs to stderr; tests
    /// install an `oociso_obs::CaptureSink` to assert on events.
    pub logger: Logger,
    /// Event-loop threads of the serving core, each owning a set of
    /// connections — request pipelining, bounded outbound queues, no
    /// per-connection thread. Must be at least 1 ([`IsoServer::bind`]
    /// rejects 0). Default 2.
    pub reactor_threads: usize,
    /// Extraction/render worker threads behind the event loops (cache
    /// misses and rasterization run here; the loops never block on them).
    /// `0` (the default) sizes the pool automatically.
    pub reactor_workers: usize,
    /// Per-connection outbound byte budget: once a client's
    /// queued-but-unsent responses exceed it, the server stops *reading*
    /// that client until the queue drains below half — backpressure, so a
    /// pipelining client that never reads cannot balloon server memory.
    /// Default 8 MiB.
    pub outbound_budget: usize,
    /// Speculative cache warming for interactive isovalue scrubs: after a
    /// cache-miss extraction at isovalue `v` completes, enqueue low-priority
    /// warm jobs for `v - δ` and `v + δ` (the pyramid of `v` itself is
    /// already fully cached by the miss). Warm jobs run on a single
    /// background thread, **never take the last extraction slot**, are
    /// skipped when the target is already resident or no spare slot exists,
    /// and insert behind the recency of real traffic — so warming can slow
    /// down nothing and evict nothing a client asked for. Tracked by the
    /// `speculative_{started,completed,cancelled,hits}_total` metrics
    /// family. `None` (the default) disables warming.
    pub warm_delta: Option<f32>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            cache_bytes: 256 << 20,
            lod_ratios: Vec::new(),
            lod_tolerance_px: 1.0,
            extraction_slots: None,
            max_connections: None,
            degrade: false,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            idle_timeout: None,
            backend: Backend::Mc,
            slow_ms: 1000,
            trace_buffer: 64,
            logger: Logger::stderr(),
            reactor_threads: 2,
            reactor_workers: 0,
            outbound_budget: 8 << 20,
            warm_delta: None,
        }
    }
}

/// Shared shutdown/drain flags and the live-connection gauge — what
/// [`IsoServer::drain`] coordinates with the event loops and the warmer.
pub(crate) struct Control {
    /// Hard stop: event loops close every connection and exit.
    pub(crate) shutdown: AtomicBool,
    /// Graceful phase: event loops stop accepting and parsing, finish the
    /// requests already dispatched (replies counted `drained`), and close
    /// each connection once its replies are flushed.
    pub(crate) draining: AtomicBool,
    /// Admitted connections currently open (the admission-cap gauge and
    /// what drain waits on).
    pub(crate) live: AtomicU64,
    /// Out-of-band wakeups (the event loops' doorbells, the warmer's
    /// condvar), rung whenever a flag above flips so a parked thread
    /// notices immediately instead of at its next tick.
    pub(crate) wakers: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
}

impl Control {
    pub(crate) fn wake_all(&self) {
        for w in self.wakers.lock().expect("wakers lock").iter() {
            w();
        }
    }
}

/// The server's reporting counters, all living in its [`Registry`] (each
/// server owns its own registry so parallel test servers never alias). The
/// handles are resolved once at bind so the hot path never takes the
/// registry lock. [`ServerReport`] reads the same handles — the metrics
/// exposition and the stats response can never disagree.
pub(crate) struct Counters {
    pub(crate) connections: Counter,
    pub(crate) requests: Counter,
    pub(crate) mesh_requests: Counter,
    pub(crate) frame_requests: Counter,
    pub(crate) errors: Counter,
    pub(crate) bytes_out: Counter,
    pub(crate) shed: Counter,
    pub(crate) degraded: Counter,
    pub(crate) timed_out: Counter,
    pub(crate) drained: Counter,
    pub(crate) accept_backoffs: Counter,
    /// Warm jobs that actually began an extraction.
    pub(crate) spec_started: Counter,
    /// Warm extractions whose pyramid landed in the cache.
    pub(crate) spec_completed: Counter,
    /// Warm jobs dropped without completing: target already resident, no
    /// spare slot, queue overflow, or a failed extraction.
    pub(crate) spec_cancelled: Counter,
}

impl Counters {
    fn resolve(reg: &Registry) -> Counters {
        Counters {
            connections: reg.counter("connections_total"),
            requests: reg.counter("requests_total"),
            mesh_requests: reg.counter("mesh_requests_total"),
            frame_requests: reg.counter("frame_requests_total"),
            errors: reg.counter("errors_total"),
            bytes_out: reg.counter("bytes_out_total"),
            shed: reg.counter("shed_total"),
            degraded: reg.counter("degraded_total"),
            timed_out: reg.counter("timed_out_total"),
            drained: reg.counter("drained_total"),
            accept_backoffs: reg.counter("accept_backoffs_total"),
            spec_started: reg.counter("speculative_started_total"),
            spec_completed: reg.counter("speculative_completed_total"),
            spec_cancelled: reg.counter("speculative_cancelled_total"),
        }
    }
}

/// Cap on queued warm jobs: a fast scrub can outrun the warmer, and stale
/// neighbors of isovalues the user has already scrubbed past are worthless —
/// overflow drops the *oldest* job (counted `speculative_cancelled_total`).
const WARM_QUEUE_CAP: usize = 64;

/// How long the warmer tolerates slot contention before cancelling a job:
/// up to [`WARM_DEFER_ATTEMPTS`] polls, [`WARM_DEFER_INTERVAL`] apart
/// (~1 s total). The common transient — the miss that scheduled the job
/// still draining its own slot — clears within one or two polls; a slot
/// pool that stays full for the whole window is real load, and warming
/// yields to it.
const WARM_DEFER_ATTEMPTS: u32 = 50;
const WARM_DEFER_INTERVAL: Duration = Duration::from_millis(20);

/// The speculative-warming work queue: isovalue neighbors enqueued after
/// real cache misses, drained by the single `oociso-warm` thread whenever it
/// can win a *spare* (never the last) extraction slot.
pub(crate) struct WarmQueue {
    /// Scrub-neighbor distance δ.
    delta: f32,
    /// Pending `(iso bits, backend id)` jobs, oldest first.
    jobs: Mutex<VecDeque<(u32, u8)>>,
    /// Rung on push and on drain/shutdown so the warmer parks cheaply.
    cv: Condvar,
}

/// Shared state behind every event loop, worker, and the warmer.
pub(crate) struct State<S: ScalarValue> {
    db: ClusterDatabase<S>,
    lods: LodSpec,
    lod_tolerance_px: f32,
    cache: Mutex<ResultCache>,
    pub(crate) ctl: Arc<Control>,
    extraction_slots: Option<u32>,
    pub(crate) max_connections: Option<u32>,
    degrade: bool,
    pub(crate) default_backend: Backend,
    pub(crate) read_timeout: Option<Duration>,
    pub(crate) write_timeout: Option<Duration>,
    pub(crate) idle_timeout: Option<Duration>,
    /// Per-server metrics registry (counters below plus the latency and
    /// extraction-phase histograms; rendered by [`Message::MetricsRequest`]).
    pub(crate) metrics: Registry,
    pub(crate) c: Counters,
    /// End-to-end request wall time, decode to written reply, in µs.
    pub(crate) request_latency_us: Histogram,
    /// Cache-miss extraction wall time (full pyramid build), in µs.
    extract_latency_us: Histogram,
    /// No-disk pyramid re-decimation wall time, in µs.
    rebuild_latency_us: Histogram,
    /// Structured operational log.
    pub(crate) logger: Logger,
    /// Finished traces of wire-traced requests (trace id != 0).
    pub(crate) recent: TraceJournal,
    /// Finished traces of slow requests, traced or not.
    pub(crate) slow: TraceJournal,
    /// Slow-query threshold (ms); 0 disables.
    pub(crate) slow_ms: u64,
    /// Extractions/rebuilds currently holding a slot.
    inflight_miss: AtomicU64,
    /// Smoothed wall-clock of recent **full** cache-miss extractions, in ms
    /// — the source of the `ERR_BUSY` retry-after hint. Cheap work that
    /// costs a fraction of a real miss (pyramid re-decimations, degraded
    /// coarse serves, warm extractions) is deliberately excluded: letting
    /// it sample the EWMA drags the hint far below honest extraction cost
    /// and invites retry stampedes.
    miss_cost_ms: AtomicU64,
    /// Speculative-warming queue; `None` when warming is disabled.
    warm: Option<Arc<WarmQueue>>,
}

/// RAII extraction-slot lease: decrements the in-flight gauge on drop, so a
/// panicking or erroring extraction can never leak its slot. Owns an `Arc`
/// of the state, so a won slot can be shipped to a reactor worker thread
/// and still release on any exit path there.
pub(crate) struct SlotGuard<S: ScalarValue> {
    state: Arc<State<S>>,
    counted: bool,
}

impl<S: ScalarValue> Drop for SlotGuard<S> {
    fn drop(&mut self) {
        if self.counted {
            self.state.inflight_miss.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Floor of the `ERR_BUSY` retry-after hint, in milliseconds. Critically,
/// this is also the **cold-start** hint: before any cache miss has
/// completed, the EWMA has no samples (`miss_cost_ms == 0`), and a raw
/// hint of 0 ms would invite every shed client to retry immediately — a
/// synchronized re-storm against a server that just declared itself
/// overloaded. A shed request is therefore never told to retry sooner than
/// this, samples or not.
pub(crate) const RETRY_HINT_FLOOR_MS: u64 = 25;

/// Ceiling of the retry-after hint: even when recent misses cost minutes,
/// clients are invited back within this bound (they will simply be shed
/// again, cheaply, if the server is still busy).
pub(crate) const RETRY_HINT_CEIL_MS: u64 = 10_000;

/// Clamp a smoothed miss cost (0 = no samples yet) into the hint window.
pub(crate) fn clamp_retry_hint(miss_cost_ms: u64) -> u32 {
    miss_cost_ms.clamp(RETRY_HINT_FLOOR_MS, RETRY_HINT_CEIL_MS) as u32
}

/// What admission control decided for one mesh request.
pub(crate) enum MeshOutcome {
    Serve {
        surface: Arc<CachedSurface>,
        cache_hit: bool,
        served_lod: u16,
        degraded: bool,
    },
    Busy {
        retry_after_ms: u32,
    },
}

/// A mesh request's admission verdict with the *work* still unexecuted —
/// what the event loop dispatches on. A worker completes an `Extract`
/// through [`State::pyramid_for`].
pub(crate) enum MeshAdmit<S: ScalarValue> {
    /// Hit, degraded serve, or busy: the outcome is already in hand.
    Ready(MeshOutcome),
    /// Miss that won a slot: extraction still to run, on a worker.
    Extract { slot: SlotGuard<S> },
}

/// A frame request's admission verdict (see [`MeshAdmit`]).
pub(crate) enum FrameAdmit<S: ScalarValue> {
    /// The whole pyramid is resident (booked as one hit, levels touched).
    Hit(Vec<Arc<CachedSurface>>),
    Busy {
        retry_after_ms: u32,
    },
    /// Miss holding a slot; `resident_full` is the still-cached level 0 to
    /// re-decimate from, if any (else a disk extraction is due).
    Extract {
        slot: SlotGuard<S>,
        resident_full: Option<Arc<CachedSurface>>,
    },
}

/// A v6 progressive request's admission verdict. A progressive serve
/// streams the pyramid **coarsest-first** down to the requested `lod`;
/// `resident`/`levels` vectors here are always in that stream order
/// (level `levels()-1` first), each a maximal contiguous cached prefix so
/// refinement never skips a level mid-stream.
pub(crate) enum ProgressiveAdmit<S: ScalarValue> {
    /// Every level from the coarsest down to the requested one is resident:
    /// the whole stream serves from cache (booked as one hit at `lod`,
    /// exactly what a plain mesh request costs).
    Ready { levels: Vec<Arc<CachedSurface>> },
    /// Miss that lost the slot race with nothing coarse to offer.
    Busy { retry_after_ms: u32 },
    /// Miss at capacity, but ([`ServeOptions::degrade`]) a cached coarse
    /// prefix exists: stream just that, the final chunk's `level` still
    /// above the requested `lod` — how a progressive client sees
    /// degradation.
    Degraded { resident: Vec<Arc<CachedSurface>> },
    /// Miss that won a slot: stream the resident coarse prefix (possibly
    /// empty) immediately, then the rest of the pyramid from the extraction
    /// this slot admits.
    Extract {
        resident: Vec<Arc<CachedSurface>>,
        slot: SlotGuard<S>,
    },
}

impl<S: ScalarValue> State<S> {
    /// Build the shared serving state: everything [`IsoServer::bind`] wires
    /// up except the listener and the serving threads. Factored out so unit
    /// tests can drive admission, extraction, and warming against a real
    /// database without binding a socket. Assumes `opts` already validated.
    pub(crate) fn new(db: ClusterDatabase<S>, opts: &ServeOptions) -> Arc<State<S>> {
        let ctl = Arc::new(Control {
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            live: AtomicU64::new(0),
            wakers: Mutex::new(Vec::new()),
        });
        let metrics = Registry::new();
        let c = Counters::resolve(&metrics);
        let request_latency_us = metrics.histogram("request_latency_us");
        let extract_latency_us = metrics.histogram("extract_latency_us");
        let rebuild_latency_us = metrics.histogram("rebuild_latency_us");
        let warm = opts.warm_delta.map(|delta| {
            Arc::new(WarmQueue {
                delta,
                jobs: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            })
        });
        if let Some(q) = &warm {
            // drain/shutdown must wake a parked warmer immediately, not at
            // its next poll tick
            let q = q.clone();
            ctl.wakers
                .lock()
                .expect("wakers lock")
                .push(Box::new(move || q.cv.notify_all()));
        }
        Arc::new(State {
            db,
            lods: LodSpec {
                ratios: opts.lod_ratios.clone(),
            },
            lod_tolerance_px: opts.lod_tolerance_px,
            cache: Mutex::new(ResultCache::new(opts.cache_bytes)),
            ctl,
            extraction_slots: opts.extraction_slots,
            max_connections: opts.max_connections,
            degrade: opts.degrade,
            default_backend: opts.backend,
            read_timeout: opts.read_timeout,
            write_timeout: opts.write_timeout,
            idle_timeout: opts.idle_timeout,
            metrics,
            c,
            request_latency_us,
            extract_latency_us,
            rebuild_latency_us,
            logger: opts.logger.clone(),
            recent: TraceJournal::new(opts.trace_buffer.max(1)),
            slow: TraceJournal::new(32),
            slow_ms: opts.slow_ms,
            inflight_miss: AtomicU64::new(0),
            miss_cost_ms: AtomicU64::new(0),
            warm,
        })
    }

    /// Total levels served (1 = full resolution only).
    pub(crate) fn levels(&self) -> u16 {
        self.lods.levels() as u16
    }

    pub(crate) fn report(&self) -> ServerReport {
        let cache = self.cache.lock().expect("cache lock").stats();
        ServerReport {
            connections: self.c.connections.get(),
            requests: self.c.requests.get(),
            mesh_requests: self.c.mesh_requests.get(),
            frame_requests: self.c.frame_requests.get(),
            errors: self.c.errors.get(),
            bytes_out: self.c.bytes_out.get(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_resident_bytes: cache.resident_bytes,
            cache_resident_entries: cache.resident_entries,
            lod_hits: cache.lod_hits,
            lod_misses: cache.lod_misses,
            shed: self.c.shed.get(),
            degraded: self.c.degraded.get(),
            timed_out: self.c.timed_out.get(),
            drained: self.c.drained.get(),
            accept_backoffs: self.c.accept_backoffs.get(),
            active_connections: self.ctl.live.load(Ordering::Relaxed),
            backend_hits: cache.backend_hits,
            backend_misses: cache.backend_misses,
        }
    }

    /// Render the full metrics exposition: the server's own registry (the
    /// gauges freshened first), the cache counters (owned by [`ResultCache`],
    /// so exposed from its stats rather than double-counted), and the
    /// process-global registry (queue-wait histograms recorded by the I/O
    /// layer, which has no handle on this server).
    pub(crate) fn metrics_text(&self) -> String {
        self.metrics
            .gauge("active_connections")
            .set(self.ctl.live.load(Ordering::Relaxed) as i64);
        self.metrics
            .gauge("inflight_miss")
            .set(self.inflight_miss.load(Ordering::Relaxed) as i64);
        let cache = self.cache.lock().expect("cache lock").stats();
        let mut out = self.metrics.render();
        for (name, v) in [
            ("cache_hits_total", cache.hits),
            ("cache_misses_total", cache.misses),
            ("cache_evictions_total", cache.evictions),
            // owned by the cache (promotion happens inside `get`), exposed
            // here next to its speculative_{started,completed,cancelled}
            // registry siblings
            ("speculative_hits_total", cache.speculative_hits),
        ] {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in [
            ("cache_resident_bytes", cache.resident_bytes),
            ("cache_resident_entries", cache.resident_entries),
        ] {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        out.push_str(&oociso_obs::global().render());
        out
    }

    /// Build the trace-request reply: id 0 = the most recent wire-traced
    /// request, otherwise the id is looked up in the recent journal first,
    /// then among retained slow queries.
    pub(crate) fn trace_reply(&self, id: u64) -> Message {
        let found = if id == 0 {
            self.recent.latest()
        } else {
            self.recent.find(id).or_else(|| self.slow.find(id))
        };
        match found {
            Some(ft) => Message::TraceResponse {
                found: true,
                id: ft.id,
                total_us: ft.total.as_micros().min(u64::MAX as u128) as u64,
                dropped: ft.dropped,
                events: ft
                    .events
                    .iter()
                    .map(|e| TraceEvent {
                        id: e.id,
                        parent: e.parent,
                        name: e.name.to_string(),
                        start_us: e.start.as_micros().min(u64::MAX as u128) as u64,
                        dur_us: e.dur.as_micros().min(u64::MAX as u128) as u64,
                        fields: e.fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                    })
                    .collect(),
            },
            None => Message::TraceResponse {
                found: false,
                id,
                total_us: 0,
                dropped: 0,
                events: Vec::new(),
            },
        }
    }

    /// Try to win one cache-miss slot. `None` means at capacity (the caller
    /// sheds or degrades); the returned guard releases the slot on drop.
    fn try_slot(self: &Arc<Self>) -> Option<SlotGuard<S>> {
        match self.extraction_slots {
            None => Some(SlotGuard {
                state: self.clone(),
                counted: false,
            }),
            Some(max) => self
                .inflight_miss
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < max as u64).then_some(n + 1)
                })
                .ok()
                .map(|_| SlotGuard {
                    state: self.clone(),
                    counted: true,
                }),
        }
    }

    /// Fold one observed cache-miss wall-clock into the smoothed cost the
    /// retry-after hint is derived from.
    fn note_miss_cost(&self, wall: Duration) {
        let ms = wall.as_millis().min(u64::MAX as u128) as u64;
        let old = self.miss_cost_ms.load(Ordering::Relaxed);
        let smoothed = if old == 0 { ms } else { (3 * old + ms) / 4 };
        self.miss_cost_ms.store(smoothed.max(1), Ordering::Relaxed);
    }

    /// The retry-after hint for a shed request: the smoothed cost of recent
    /// miss work, clamped to a sane window — before any miss completed, a
    /// conservative floor.
    pub(crate) fn retry_hint_ms(&self) -> u32 {
        clamp_retry_hint(self.miss_cost_ms.load(Ordering::Relaxed))
    }

    /// Try to win a **spare** extraction slot for speculative work: like
    /// [`State::try_slot`], but never the last one — a warm job must leave
    /// at least one slot free for a real request, so with one slot (or
    /// zero) configured warming simply never runs. Unlimited slots
    /// (`extraction_slots: None`) have no "last slot" to protect.
    pub(crate) fn try_warm_slot(self: &Arc<Self>) -> Option<SlotGuard<S>> {
        match self.extraction_slots {
            None => Some(SlotGuard {
                state: self.clone(),
                counted: false,
            }),
            Some(max) => self
                .inflight_miss
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n + 1 < max as u64).then_some(n + 1)
                })
                .ok()
                .map(|_| SlotGuard {
                    state: self.clone(),
                    counted: true,
                }),
        }
    }

    /// Enqueue warm jobs for the scrub neighbors `iso ± δ` after a real
    /// cache miss at `iso` completed. Deduplicates against the pending
    /// queue; overflow drops the oldest job (a stale neighbor of an
    /// isovalue the user already scrubbed past), counted cancelled. No-op
    /// when warming is disabled.
    fn schedule_warm(&self, iso: f32, backend: Backend) {
        let Some(q) = &self.warm else { return };
        let mut jobs = q.jobs.lock().expect("warm queue lock");
        for neighbor in [iso - q.delta, iso + q.delta] {
            if !neighbor.is_finite() {
                continue;
            }
            let key = (neighbor.to_bits(), backend.id());
            if jobs.contains(&key) {
                continue;
            }
            if jobs.len() >= WARM_QUEUE_CAP {
                jobs.pop_front();
                self.c.spec_cancelled.inc();
            }
            jobs.push_back(key);
        }
        drop(jobs);
        q.cv.notify_one();
    }

    /// Run one dequeued warm job: skip (counted cancelled) when the target
    /// pyramid is already resident, and report `false` — job not consumed —
    /// when no spare slot can be won right now. The caller decides whether
    /// to defer or give up on contention; a real request wanting the
    /// capacity always outranks warming.
    pub(crate) fn warm_one(self: &Arc<Self>, iso_bits: u32, backend_id: u8) -> bool {
        let iso = f32::from_bits(iso_bits);
        let backend = Backend::from_id(backend_id).unwrap_or(self.default_backend);
        if self
            .cache
            .lock()
            .expect("cache lock")
            .peek(iso, backend.id(), 0)
            .is_some()
        {
            self.c.spec_cancelled.inc();
            return true;
        }
        let Some(slot) = self.try_warm_slot() else {
            return false;
        };
        self.c.spec_started.inc();
        let trace = Trace::detached();
        match self.warm_extract(iso, backend, &trace) {
            Ok(()) => self.c.spec_completed.inc(),
            Err(e) => {
                self.c.spec_cancelled.inc();
                self.logger.warn(
                    "serve",
                    "warm_failed",
                    "speculative extraction failed",
                    &[("iso", iso.to_string()), ("error", e.to_string())],
                );
            }
        }
        drop(slot);
        true
    }

    /// The speculative twin of [`State::extract_and_insert`]: extract the
    /// full pyramid and insert every level **speculatively** (behind the
    /// recency of real traffic, never evicting it). Deliberately feeds
    /// neither the miss-cost EWMA nor `extract_latency_us` — those describe
    /// what a *client-visible* miss costs — and never schedules further
    /// warming (no speculative cascades).
    fn warm_extract(&self, iso: f32, backend: Backend, trace: &Trace) -> io::Result<()> {
        let opts = oociso_cluster::ExtractOptions {
            lods: self.lods.clone(),
            backend,
            trace: trace.clone(),
            ..Default::default()
        };
        let (chain, report) = self.db.extract_lods_opts(iso, &opts)?;
        let active_metacells = report.total_active_metacells();
        let mut cache = self.cache.lock().expect("cache lock");
        for (i, level) in chain.into_levels().into_iter().enumerate() {
            cache.insert_speculative(
                iso,
                backend.id(),
                i as u16,
                CachedSurface {
                    mesh: level.mesh,
                    active_metacells,
                    world_error: level.cumulative_error.sqrt(),
                },
            );
        }
        Ok(())
    }

    /// Feed the extraction-phase histograms from the span durations the
    /// pipeline just recorded into `trace` — one registry-lock resolve per
    /// phase, on the miss path only (misses cost milliseconds-to-seconds;
    /// the lock costs nanoseconds).
    fn record_phases(&self, trace: &Trace) {
        for name in [
            "execute_plan",
            "triangulate",
            "weld",
            "merge_weld",
            "stitch",
            "lod",
        ] {
            let sum = trace.sum(name);
            if !sum.is_zero() {
                self.metrics
                    .histogram(&format!("phase_{name}_us"))
                    .record_duration(sum);
            }
        }
    }

    /// Extract the full pyramid for `iso` with `backend` and insert every
    /// level, returning the levels in order. Runs outside the cache lock.
    /// The extraction's span tree lands in `trace`.
    fn extract_and_insert(
        &self,
        iso: f32,
        backend: Backend,
        trace: &Trace,
    ) -> io::Result<Vec<Arc<CachedSurface>>> {
        let t0 = Instant::now();
        let opts = oociso_cluster::ExtractOptions {
            lods: self.lods.clone(),
            backend,
            trace: trace.clone(),
            ..Default::default()
        };
        let (chain, report) = self.db.extract_lods_opts(iso, &opts)?;
        let wall = t0.elapsed();
        self.extract_latency_us.record_duration(wall);
        self.record_phases(trace);
        self.note_miss_cost(wall);
        let active_metacells = report.total_active_metacells();
        let levels = {
            let mut cache = self.cache.lock().expect("cache lock");
            chain
                .into_levels()
                .into_iter()
                .enumerate()
                .map(|(i, level)| {
                    cache.insert(
                        iso,
                        backend.id(),
                        i as u16,
                        CachedSurface {
                            mesh: level.mesh,
                            active_metacells,
                            world_error: level.cumulative_error.sqrt(),
                        },
                    )
                })
                .collect()
        };
        // a real miss at `iso` is the scrub signal: warm its neighbors
        // (outside the cache lock; a no-op when warming is off)
        self.schedule_warm(iso, backend);
        Ok(levels)
    }

    /// Re-decimate the pyramid from an already-resident full-resolution
    /// mesh (deterministic, so byte-identical to the original levels) and
    /// insert the rebuilt coarse levels — the no-disk path when only they
    /// were evicted. Decimates **by reference** from the resident entry
    /// (same ladder `LodChain::build` walks: each level from the previous,
    /// targets as fractions of level 0), so the full mesh is never cloned
    /// and its cache entry is reused as level 0 untouched.
    fn rebuild_from_full(
        &self,
        iso: f32,
        backend: Backend,
        full: Arc<CachedSurface>,
        trace: &Trace,
    ) -> Vec<Arc<CachedSurface>> {
        let mut sp = trace.span("rebuild");
        sp.field("levels", self.lods.ratios.len() as u64);
        let base_vertices = full.mesh.num_vertices();
        let mut coarse: Vec<(oociso_march::IndexedMesh, f64)> = Vec::new();
        let mut cumulative = 0.0;
        for &ratio in &self.lods.ratios {
            let prev = coarse.last().map_or(&full.mesh, |(m, _)| m);
            let (mesh, stats) = oociso_march::decimate(
                prev,
                &oociso_march::DecimateOptions {
                    target_vertices: (base_vertices as f64 * ratio).ceil() as usize,
                    max_error: f64::INFINITY,
                },
            );
            cumulative += stats.max_error;
            coarse.push((mesh, cumulative));
        }
        // NOT a `note_miss_cost` sample: a re-decimation costs a fraction
        // of a disk-backed extraction, and during degraded storms rebuilds
        // dominate the miss stream — sampling them would drag the
        // `ERR_BUSY` retry hint far below honest extraction cost and
        // invite retry stampedes.
        self.rebuild_latency_us.record_duration(sp.finish());
        let mut cache = self.cache.lock().expect("cache lock");
        cache.touch(iso, backend.id(), 0);
        let mut levels = vec![full.clone()];
        for (i, (mesh, cumulative_error)) in coarse.into_iter().enumerate() {
            levels.push(cache.insert(
                iso,
                backend.id(),
                (i + 1) as u16,
                CachedSurface {
                    mesh,
                    active_metacells: full.active_metacells,
                    world_error: cumulative_error.sqrt(),
                },
            ));
        }
        levels
    }

    /// Produce the whole pyramid for a missed request: from the resident
    /// full mesh when possible, from a fresh extraction otherwise. Runs
    /// outside the cache lock (concurrent first-queries of one isovalue may
    /// each extract — both count as misses, last insert wins — but no
    /// request ever blocks behind another's extraction).
    pub(crate) fn pyramid_for(
        &self,
        iso: f32,
        backend: Backend,
        trace: &Trace,
    ) -> io::Result<Vec<Arc<CachedSurface>>> {
        let resident_full = self
            .cache
            .lock()
            .expect("cache lock")
            .peek(iso, backend.id(), 0);
        match resident_full {
            Some(full) => Ok(self.rebuild_from_full(iso, backend, full, trace)),
            None => self.extract_and_insert(iso, backend, trace),
        }
    }

    /// Admission for level `lod` of the surface at `iso`. A cache hit is
    /// always served (one accounted lookup against `lod`). A miss must win
    /// an extraction slot; at capacity the request degrades to the finest
    /// cached coarser level (when [`ServeOptions::degrade`] is set and one
    /// is resident — booked as a hit on the level actually served) or is
    /// shed with a retry hint. Everything here is cheap (mutexed lookups
    /// and atomics, no extraction), so the event loop runs it inline; only
    /// an `Extract` verdict leaves for a worker.
    pub(crate) fn admit_mesh(
        self: &Arc<Self>,
        iso: f32,
        backend: Backend,
        lod: u16,
        root: &Span,
    ) -> MeshAdmit<S> {
        let t = Instant::now();
        let hit = self
            .cache
            .lock()
            .expect("cache lock")
            .get(iso, backend.id(), lod);
        root.annotate(
            "cache",
            t.elapsed(),
            &[("hit", hit.is_some() as u64), ("lod", lod as u64)],
        );
        if let Some(hit) = hit {
            return MeshAdmit::Ready(MeshOutcome::Serve {
                surface: hit,
                cache_hit: true,
                served_lod: lod,
                degraded: false,
            });
        }
        match self.try_slot() {
            Some(slot) => MeshAdmit::Extract { slot },
            None => {
                if self.degrade {
                    let coarser = self.cache.lock().expect("cache lock").coarser(
                        iso,
                        backend.id(),
                        lod,
                        self.levels(),
                    );
                    if let Some((level, surface)) = coarser {
                        self.c.degraded.inc();
                        root.annotate("degrade", Duration::ZERO, &[("served_lod", level as u64)]);
                        return MeshAdmit::Ready(MeshOutcome::Serve {
                            surface,
                            cache_hit: true,
                            served_lod: level,
                            degraded: true,
                        });
                    }
                }
                self.c.shed.inc();
                MeshAdmit::Ready(MeshOutcome::Busy {
                    retry_after_ms: self.retry_hint_ms(),
                })
            }
        }
    }

    /// The admission half of a v6 progressive serve. Accounted as exactly
    /// one lookup against the requested `lod` — a hit only when *every*
    /// level from the coarsest down to `lod` is resident (all of them are
    /// streamed, so all must be in hand; the coarser levels are touched so
    /// a scrub-heavy workload keeps its pyramids hot). Anything less is a
    /// miss: the resident coarse prefix streams immediately and the rest
    /// needs a slot, degrades to prefix-only, or is shed — same ladder as
    /// [`State::admit_mesh`].
    pub(crate) fn admit_progressive(
        self: &Arc<Self>,
        iso: f32,
        backend: Backend,
        lod: u16,
        root: &Span,
    ) -> ProgressiveAdmit<S> {
        let want = self.levels();
        let t = Instant::now();
        let (resident, full_hit) = {
            let mut cache = self.cache.lock().expect("cache lock");
            let mut out = Vec::new();
            for level in (lod..want).rev() {
                match cache.peek(iso, backend.id(), level) {
                    Some(s) => out.push(s),
                    None => break,
                }
            }
            let full = out.len() == (want - lod) as usize;
            if full {
                // the accounted lookup (also promotes a speculatively
                // warmed entry, counting `speculative_hits`)
                let _ = cache.get(iso, backend.id(), lod);
                for level in lod + 1..want {
                    cache.touch(iso, backend.id(), level);
                }
            } else {
                cache.account(backend.id(), lod, false);
            }
            (out, full)
        };
        root.annotate(
            "cache",
            t.elapsed(),
            &[("hit", full_hit as u64), ("lod", lod as u64)],
        );
        if full_hit {
            return ProgressiveAdmit::Ready { levels: resident };
        }
        match self.try_slot() {
            Some(slot) => ProgressiveAdmit::Extract { resident, slot },
            None => {
                if self.degrade && !resident.is_empty() {
                    self.c.degraded.inc();
                    let served = want - resident.len() as u16;
                    root.annotate("degrade", Duration::ZERO, &[("served_lod", served as u64)]);
                    return ProgressiveAdmit::Degraded { resident };
                }
                self.c.shed.inc();
                ProgressiveAdmit::Busy {
                    retry_after_ms: self.retry_hint_ms(),
                }
            }
        }
    }

    /// Admission for a frame request, which needs every pyramid level at
    /// `iso`. The request is accounted as exactly one lookup against level
    /// 0 (what a v1 frame request cost): a hit only when the *whole*
    /// pyramid is resident, a miss otherwise — the levels are peeked first,
    /// so a partially evicted pyramid never books a hit for a request that
    /// still has to rebuild. A miss that wins a slot carries the resident
    /// level 0, if any, so the worker re-decimates instead of touching
    /// disk; one that can't is shed (frames have no degraded form:
    /// per-tile LOD selection needs the whole pyramid).
    pub(crate) fn admit_frame(self: &Arc<Self>, iso: f32, root: &Span) -> FrameAdmit<S> {
        let want = self.levels() as usize;
        // frame requests carry no backend selector: they render the server's
        // default backend's pyramid
        let backend = self.default_backend;
        let t = Instant::now();
        let resident_full = {
            let mut cache = self.cache.lock().expect("cache lock");
            let mut levels = Vec::with_capacity(want);
            for lod in 0..want {
                match cache.peek(iso, backend.id(), lod as u16) {
                    Some(l) => levels.push(l),
                    None => break,
                }
            }
            if levels.len() == want {
                cache.account(backend.id(), 0, true);
                // the request used every level: refresh them all, or the
                // coarse levels a frame-heavy workload relies on would
                // decay to LRU victims despite being hot
                for lod in 0..want {
                    cache.touch(iso, backend.id(), lod as u16);
                }
                root.annotate("cache", t.elapsed(), &[("hit", 1)]);
                return FrameAdmit::Hit(levels);
            }
            cache.account(backend.id(), 0, false);
            levels.into_iter().next() // level 0, if it was resident
        };
        root.annotate("cache", t.elapsed(), &[("hit", 0)]);
        match self.try_slot() {
            Some(slot) => FrameAdmit::Extract {
                slot,
                resident_full,
            },
            None => {
                self.c.shed.inc();
                FrameAdmit::Busy {
                    retry_after_ms: self.retry_hint_ms(),
                }
            }
        }
    }

    /// Execute the extraction a [`FrameAdmit::Extract`] verdict committed
    /// to: re-decimate from the resident full mesh when possible, hit the
    /// disk otherwise. The caller drops the slot afterwards.
    pub(crate) fn complete_frame_extract(
        &self,
        iso: f32,
        resident_full: Option<Arc<CachedSurface>>,
        trace: &Trace,
    ) -> io::Result<Vec<Arc<CachedSurface>>> {
        let backend = self.default_backend;
        match resident_full {
            Some(full) => Ok(self.rebuild_from_full(iso, backend, full, trace)),
            None => self.extract_and_insert(iso, backend, trace),
        }
    }
}

/// A running server: the bound address plus the serving core's handle.
///
/// Dropping the handle without calling [`IsoServer::stop`] leaves the core
/// running detached until the process exits (what the CLI's foreground
/// `serve` does by parking forever).
pub struct IsoServer {
    addr: SocketAddr,
    ctl: Arc<Control>,
    /// Joins the event loops and the worker pool once they have exited.
    core: Option<JoinHandle<()>>,
    /// The speculative-warming thread, when warming is enabled (exits on
    /// drain/shutdown; joined so its extraction finishes before teardown).
    warmer: Option<JoinHandle<()>>,
    report: Arc<dyn Fn() -> ServerReport + Send + Sync>,
    metrics: Arc<dyn Fn() -> String + Send + Sync>,
    logger: Logger,
}

impl IsoServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `db`. Returns once the listener is bound and accepting.
    pub fn bind<S: ScalarValue>(
        db: ClusterDatabase<S>,
        addr: impl ToSocketAddrs,
        opts: ServeOptions,
    ) -> io::Result<IsoServer> {
        if opts.lod_ratios.len() >= MAX_LOD_LEVELS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "at most {} LOD ratios (got {})",
                    MAX_LOD_LEVELS - 1,
                    opts.lod_ratios.len()
                ),
            ));
        }
        // reject malformed ladders here, not as a per-request panic deep in
        // LodChain::build: each ratio must be finite, in (0, 1), and
        // strictly decreasing
        let mut prev = 1.0f64;
        for &r in &opts.lod_ratios {
            if !r.is_finite() || r <= 0.0 || r >= prev {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "LOD ratios must be finite, in (0, 1), strictly decreasing: {:?}",
                        opts.lod_ratios
                    ),
                ));
            }
            prev = r;
        }
        if let Some(delta) = opts.warm_delta {
            if !delta.is_finite() || delta <= 0.0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("warm delta must be finite and positive (got {delta})"),
                ));
            }
        }
        if opts.reactor_threads == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "reactor_threads must be at least 1",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // every event loop watches the listener for readiness
        listener.set_nonblocking(true)?;
        let state = State::new(db, &opts);
        let ctl = state.ctl.clone();
        let warmer = match state.warm.is_some() {
            true => Some(
                std::thread::Builder::new()
                    .name("oociso-warm".to_string())
                    .spawn({
                        let state = state.clone();
                        move || warmer_loop(state)
                    })?,
            ),
            false => None,
        };
        let report_state = state.clone();
        let metrics_state = state.clone();
        let logger = opts.logger.clone();
        let core = crate::reactor::spawn(
            listener,
            state,
            crate::reactor::ReactorConfig {
                reactors: opts.reactor_threads,
                workers: opts.reactor_workers,
                outbound_budget: opts.outbound_budget.max(1),
            },
        )?;
        Ok(IsoServer {
            addr,
            ctl,
            core: Some(core),
            warmer,
            report: Arc::new(move || report_state.report()),
            metrics: Arc::new(move || metrics_state.metrics_text()),
            logger,
        })
    }

    /// The address the server actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server counters, as a stats request would see them.
    pub fn report(&self) -> ServerReport {
        (self.report)()
    }

    /// The metrics exposition, as a metrics request would see it.
    pub fn metrics(&self) -> String {
        (self.metrics)()
    }

    /// Gracefully stop: [`IsoServer::drain`] with a 5-second deadline.
    pub fn stop(self) -> ServerReport {
        self.drain(Duration::from_secs(5))
    }

    /// Graceful drain: stop accepting, let every in-flight request finish
    /// (replies completed during the drain are counted `drained`), then
    /// hard-close whatever is left when `deadline` expires and join the
    /// serving core. Returns the final counters.
    pub fn drain(mut self, deadline: Duration) -> ServerReport {
        self.ctl.draining.store(true, Ordering::SeqCst);
        self.ctl.wake_all();
        let t0 = Instant::now();
        while self.ctl.live.load(Ordering::SeqCst) > 0 && t0.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let stuck = self.ctl.live.load(Ordering::SeqCst);
        if stuck > 0 {
            self.logger.warn(
                "serve",
                "drain_timeout",
                "drain deadline expired with connections still live; hard-closing",
                &[
                    ("live", stuck.to_string()),
                    ("deadline_ms", deadline.as_millis().to_string()),
                ],
            );
        }
        self.ctl.shutdown.store(true, Ordering::SeqCst);
        self.ctl.wake_all();
        if let Some(h) = self.core.take() {
            let _ = h.join();
        }
        if let Some(h) = self.warmer.take() {
            let _ = h.join();
        }
        (self.report)()
    }

    /// Block this thread forever (foreground serving).
    pub fn park(self) -> ! {
        loop {
            std::thread::park();
        }
    }
}

/// `EMFILE`/`ENFILE`: the process or system is out of file descriptors.
/// Accepting will keep failing until something closes, so the loop must back
/// off instead of spinning at full speed burning the log and the CPU.
pub(crate) fn fd_exhausted(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23) | Some(24)) // ENFILE | EMFILE
}

/// Book one fd-exhausted accept failure: the backoff counter ticks on every
/// failure, but the structured warning fires once per starvation *episode* —
/// `starved` stays set until a successful accept resets it, so a wedged
/// process emits one log line, not one per 100 ms of backoff.
pub(crate) fn note_fd_exhaustion(
    backoffs: &Counter,
    logger: &Logger,
    e: &io::Error,
    starved: &mut bool,
) {
    backoffs.inc();
    if !*starved {
        *starved = true;
        logger.warn(
            "serve",
            "accept_backoff",
            "accept failed; backing off until fds free up",
            &[("error", e.to_string())],
        );
    }
}

/// The speculative-warming thread: park on the warm queue, drain it one
/// job at a time, exit on drain/shutdown. Single-threaded by design — warm
/// work is strictly lower priority than everything else, so one spare-slot
/// consumer is the whole budget (the timed wait is only a backstop; the
/// queue's condvar is rung on push and registered as a [`Control`] waker).
fn warmer_loop<S: ScalarValue>(state: Arc<State<S>>) {
    let q = state.warm.clone().expect("warmer spawned without a queue");
    loop {
        let job = {
            let mut jobs = q.jobs.lock().expect("warm queue lock");
            loop {
                if state.ctl.shutdown.load(Ordering::SeqCst)
                    || state.ctl.draining.load(Ordering::SeqCst)
                {
                    return;
                }
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                let (guard, _) =
                    q.cv.wait_timeout(jobs, Duration::from_millis(100))
                        .expect("warm queue lock");
                jobs = guard;
            }
        };
        // A spare slot is often *transiently* unavailable — most commonly
        // because the very miss that scheduled this job still holds its
        // admission slot while its reply drains. Defer briefly instead of
        // cancelling on first contact; only sustained contention (real
        // traffic genuinely wanting the capacity) cancels the job.
        let mut deferrals = 0u32;
        while !state.warm_one(job.0, job.1) {
            deferrals += 1;
            if deferrals >= WARM_DEFER_ATTEMPTS {
                state.c.spec_cancelled.inc();
                break;
            }
            if state.ctl.shutdown.load(Ordering::SeqCst)
                || state.ctl.draining.load(Ordering::SeqCst)
            {
                return;
            }
            std::thread::sleep(WARM_DEFER_INTERVAL);
        }
    }
}

/// A computed response: either a message still to encode, or a frame
/// pre-encoded from borrowed data (the cache-hit path, which must not clone
/// the cached mesh; stats, whose payload layout is version-dependent).
// one transient `Reply` per handled request — the `Message` variant's
// inline size never accumulates, so boxing would only add indirection
#[allow(clippy::large_enum_variant)]
pub(crate) enum Reply {
    Msg(Message),
    Encoded(Vec<u8>),
}

impl Reply {
    /// Encode at the client's dialect, booking the error counter — every
    /// single-frame reply, inline or from a worker, finishes here.
    pub(crate) fn finalize<S: ScalarValue>(self, state: &State<S>, version: u16) -> Vec<u8> {
        if matches!(self, Reply::Msg(Message::Error { .. })) {
            state.c.errors.inc();
        }
        match self {
            Reply::Msg(msg) => encode_frame_at(version, &msg),
            Reply::Encoded(bytes) => bytes,
        }
    }
}

/// The wire trace id a request carries, if its type can carry one.
pub(crate) fn request_trace_id(msg: &Message) -> u64 {
    match msg {
        Message::MeshRequest { trace_id, .. }
        | Message::FrameRequest { trace_id, .. }
        | Message::ProgressiveRequest { trace_id, .. } => *trace_id,
        _ => 0,
    }
}

/// Largest viewport a frame request may ask for, in pixels. A framebuffer
/// is 8 B/px and the response roughly triples that (buffer + regions +
/// encoded payload), so this bounds a single well-formed request's
/// allocations to ~200 MB instead of letting a 16384² ask commit gigabytes.
const MAX_FRAME_PIXELS: usize = 8 << 20;

/// The structured overload reply (v3 clients additionally get the hint as a
/// typed field; for older dialects it survives in the detail text).
pub(crate) fn busy_reply(context: &str, retry_after_ms: u32) -> Message {
    Message::Error {
        code: ERR_BUSY,
        detail: format!("{context}; retry in {retry_after_ms} ms"),
        retry_after_ms: Some(retry_after_ms),
    }
}

/// Validate a mesh request's LOD and backend selector. `Err` is the error
/// reply to send; the connection survives either rejection.
// the Err is a ready-to-send reply by design; it is moved straight into the
// response path, never propagated through fallible call chains
#[allow(clippy::result_large_err)]
pub(crate) fn validate_mesh_request<S: ScalarValue>(
    state: &State<S>,
    lod: u16,
    backend: Option<u8>,
) -> Result<Backend, Reply> {
    if lod >= state.levels() {
        return Err(Reply::Msg(Message::Error {
            code: ERR_BAD_LOD,
            detail: format!(
                "lod {lod} out of range: server has {} level(s)",
                state.levels()
            ),
            retry_after_ms: None,
        }));
    }
    // absent selector (every pre-v4 request) = the server default;
    // an unknown id is rejected structurally, connection kept
    match backend {
        None => Ok(state.default_backend),
        Some(id) => Backend::from_id(id).ok_or_else(|| {
            Reply::Msg(Message::Error {
                code: ERR_BAD_BACKEND,
                detail: format!(
                    "unknown backend id {id}: server knows {}",
                    Backend::ALL
                        .iter()
                        .map(|b| format!("{} ({})", b.id(), b.name()))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                retry_after_ms: None,
            })
        }),
    }
}

/// Validate a frame request's viewport/tiling. `Some` is the rejection.
pub(crate) fn validate_frame_request(params: &FrameParams) -> Option<Reply> {
    let (w, h) = (params.width as usize, params.height as usize);
    let (cols, rows) = (params.tile_cols as usize, params.tile_rows as usize);
    if w == 0
        || h == 0
        || w.saturating_mul(h) > MAX_FRAME_PIXELS
        || cols == 0
        || rows == 0
        || w % cols != 0
        || h % rows != 0
    {
        return Some(Reply::Msg(Message::Error {
            code: ERR_MALFORMED,
            detail: format!(
                "bad viewport {w}x{h} in {cols}x{rows} tiles (pixel cap {MAX_FRAME_PIXELS})"
            ),
            retry_after_ms: None,
        }));
    }
    None
}

/// The `ERR_INTERNAL` reply for a failed extraction.
pub(crate) fn internal_error_reply(e: &io::Error) -> Reply {
    Reply::Msg(Message::Error {
        code: ERR_INTERNAL,
        detail: format!("extraction failed: {e}"),
        retry_after_ms: None,
    })
}

/// Turn a decided mesh outcome into its reply — hits answered on the event
/// loop and misses completed by a worker both funnel through here, so
/// region filtering, the borrowed-mesh encode path, and the trace-id echo
/// cannot diverge between them.
pub(crate) fn mesh_outcome_reply(
    outcome: MeshOutcome,
    region: Option<Region>,
    backend: Backend,
    trace_id: u64,
    version: u16,
) -> Reply {
    match outcome {
        // no region: serialize straight from the shared cached mesh
        MeshOutcome::Serve {
            surface,
            cache_hit,
            served_lod,
            degraded,
        } => match region {
            None => Reply::Encoded(encode_mesh_response_frame(
                cache_hit,
                surface.active_metacells,
                served_lod,
                degraded,
                backend.id(),
                trace_id,
                &surface.mesh,
                version,
            )),
            Some(r) => {
                let (lo, hi) = r.corners();
                Reply::Msg(Message::MeshResponse {
                    cache_hit,
                    active_metacells: surface.active_metacells,
                    served_lod,
                    degraded,
                    backend: backend.id(),
                    trace_id,
                    mesh: surface.mesh.filter_region(lo, hi),
                })
            }
        },
        MeshOutcome::Busy { retry_after_ms } => {
            Reply::Msg(busy_reply("extraction slots exhausted", retry_after_ms))
        }
    }
}

/// Rasterize an admitted frame request from its resident pyramid (on a
/// worker, never the event loop).
pub(crate) fn frame_render_reply<S: ScalarValue>(
    state: &State<S>,
    levels: &[Arc<CachedSurface>],
    cache_hit: bool,
    params: &FrameParams,
    trace_id: u64,
) -> Reply {
    let (w, h) = (params.width as usize, params.height as usize);
    let (cols, rows) = (params.tile_cols as usize, params.tile_rows as usize);
    let tiles = TileLayout::new(cols, rows, w, h);
    let full = &levels[0].mesh;
    let mut regions = Vec::with_capacity(tiles.num_tiles());
    if full.is_empty() {
        let fb = Framebuffer::new(w, h);
        regions = tiles.shard(&fb);
    } else {
        let bounds = full.bounds();
        let camera = Camera::orbiting(&bounds, params.azimuth, params.elevation, params.distance);
        // one LOD level per tile by projected error; each selected level
        // rasterizes its full framebuffer once, tiles then cut their
        // region from their level's buffer
        let errors: Vec<f64> = levels.iter().map(|l| l.world_error).collect();
        let picks = select_tile_levels(&tiles, &camera, &bounds, &errors, state.lod_tolerance_px);
        let mut buffers: Vec<Option<Framebuffer>> = Vec::new();
        buffers.resize_with(levels.len(), || None);
        for (t, &level) in picks.iter().enumerate() {
            if buffers[level].is_none() {
                let mut fb = Framebuffer::new(w, h);
                rasterize_mesh(&levels[level].mesh, &camera, [0.9, 0.78, 0.5], &mut fb);
                buffers[level] = Some(fb);
            }
            let fb = buffers[level].as_ref().expect("just rasterized");
            regions.push(oociso_render::FrameRegion::extract(
                fb,
                tiles.tile_origin(t),
                tiles.tile_size(),
            ));
        }
    }
    Reply::Msg(Message::FrameResponse {
        cache_hit,
        width: params.width,
        height: params.height,
        regions,
        trace_id,
    })
}

/// Encode one run of progressive chunk frames for `surfaces` (in stream
/// order: the first chunk is pyramid level `top_level`, counting down one
/// per chunk). `prev` is the previously sent surface for delta continuity
/// into the run; within the run each chunk deltas against its predecessor.
/// `final_run` marks the run's last chunk `last` on the wire. The event
/// loop encodes a resident prefix and a worker the extracted rest through
/// this one function, so chunk framing cannot diverge between them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_chunk_run(
    surfaces: &[Arc<CachedSurface>],
    top_level: u16,
    cache_hit: bool,
    backend: Backend,
    trace_id: u64,
    version: u16,
    prev: Option<&Arc<CachedSurface>>,
    final_run: bool,
) -> Vec<Vec<u8>> {
    let mut frames = Vec::with_capacity(surfaces.len());
    for (i, s) in surfaces.iter().enumerate() {
        let level = top_level - i as u16;
        let last = final_run && i + 1 == surfaces.len();
        let prev_mesh = match i {
            0 => prev.map(|p| &p.mesh),
            _ => Some(&surfaces[i - 1].mesh),
        };
        frames.push(encode_mesh_chunk_frame(
            last,
            level,
            cache_hit,
            backend.id(),
            s.active_metacells,
            trace_id,
            prev_mesh,
            &s.mesh,
            version,
        ));
    }
    frames
}

/// Answer one of the cheap, extraction-free requests spoken at `version`:
/// stats, ping, metrics, trace lookups, and confused clients sending
/// server-to-client messages. Mesh, frame, and progressive requests never
/// come here — the reactor admits and dispatches those itself.
pub(crate) fn respond<S: ScalarValue>(state: &State<S>, msg: Message, version: u16) -> Reply {
    match msg {
        Message::StatsRequest => {
            // stats payloads are version-dependent (v2 appends the per-level
            // arrays, v3 the robustness counters), so encode directly at the
            // client's version
            Reply::Encoded(encode_stats_response_frame(&state.report(), version))
        }
        Message::Ping { payload } => Reply::Msg(Message::Pong { payload }),
        // exposition text covers this server's registry, the cache counters,
        // and the process-global registry (background queue waits)
        Message::MetricsRequest => Reply::Msg(Message::MetricsResponse {
            text: state.metrics_text(),
        }),
        // id 0 = latest wire-traced request; otherwise search recent then slow
        Message::TraceRequest { id } => Reply::Msg(state.trace_reply(id)),
        // a client sending server-to-client messages is confused
        other => Reply::Msg(Message::Error {
            code: ERR_MALFORMED,
            detail: format!("unexpected client message type {}", other.msg_type()),
            retry_after_ms: None,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oociso_core::PreprocessOptions;
    use oociso_obs::{CaptureSink, Level};
    use oociso_volume::field::{FieldExt, SphereField};
    use oociso_volume::{Dims3, Volume};
    use std::sync::Arc;

    /// A [`State`] over a real (tiny) single-node database in a fresh temp
    /// directory — lets unit tests drive extraction, rebuild, and warming
    /// directly, without a socket in the way.
    fn test_state(name: &str, opts: ServeOptions) -> Arc<State<u8>> {
        let mut dir = std::env::temp_dir();
        dir.push(format!("oociso_server_unit_{}_{name}", std::process::id()));
        let vol: Volume<u8> = SphereField::centered(0.32, 128.0).sample(Dims3::cube(17));
        let db = ClusterDatabase::preprocess(
            &vol,
            &dir,
            &PreprocessOptions {
                nodes: 1,
                ..Default::default()
            },
        )
        .unwrap();
        State::new(db, &opts)
    }

    // the satellite-1 contract: pyramid re-decimations record their own
    // histogram but never sample the miss-cost EWMA — a degraded storm of
    // cheap rebuilds must not drag the ERR_BUSY retry hint below honest
    // extraction cost
    #[test]
    fn rebuilds_do_not_feed_the_retry_hint() {
        let state = test_state(
            "rebuild_hint",
            ServeOptions {
                lod_ratios: vec![0.5],
                ..Default::default()
            },
        );
        let trace = Trace::detached();
        let levels = state
            .extract_and_insert(110.0, Backend::Mc, &trace)
            .unwrap();
        assert!(
            state.miss_cost_ms.load(Ordering::Relaxed) > 0,
            "a real miss must sample the EWMA"
        );
        // pin the EWMA at a sentinel, run a rebuild, assert it is untouched
        state.miss_cost_ms.store(5000, Ordering::Relaxed);
        let rebuilt = state.rebuild_from_full(110.0, Backend::Mc, levels[0].clone(), &trace);
        assert_eq!(rebuilt.len(), 2);
        assert_eq!(
            state.miss_cost_ms.load(Ordering::Relaxed),
            5000,
            "rebuilds must not sample the miss-cost EWMA"
        );
        assert_eq!(
            state.rebuild_latency_us.snapshot().count,
            1,
            "rebuild wall time still lands in its own histogram"
        );
    }

    // the satellite-3 contract: an extraction whose result is too big to
    // cache (pass-through) still feeds the miss-cost EWMA and the
    // extract-latency histogram — the costliest extractions are exactly the
    // ones the retry hint must see
    #[test]
    fn oversized_pass_through_extractions_still_feed_the_hint() {
        let state = test_state(
            "oversized_hint",
            ServeOptions {
                cache_bytes: 1,
                ..Default::default()
            },
        );
        let trace = Trace::detached();
        let levels = state
            .extract_and_insert(110.0, Backend::Mc, &trace)
            .unwrap();
        assert!(!levels[0].mesh.is_empty(), "the sphere must triangulate");
        let cache = state.cache.lock().unwrap().stats();
        assert_eq!(
            cache.resident_entries, 0,
            "1-byte budget: every entry passed through uncached"
        );
        assert!(
            state.miss_cost_ms.load(Ordering::Relaxed) > 0,
            "pass-through extraction must sample the EWMA"
        );
        assert_eq!(
            state.extract_latency_us.snapshot().count,
            1,
            "pass-through extraction must sample extract_latency_us"
        );
    }

    // warm admission: a warm job may take a spare slot but never the last
    // one, so a single-slot server simply never warms
    #[test]
    fn warm_slot_never_takes_the_last_one() {
        let state = test_state(
            "warm_slot",
            ServeOptions {
                extraction_slots: Some(2),
                ..Default::default()
            },
        );
        let spare = state.try_warm_slot().expect("one spare slot available");
        assert!(
            state.try_warm_slot().is_none(),
            "the last slot is reserved for real traffic"
        );
        let real = state.try_slot().expect("a real request wins the last slot");
        drop(real);
        drop(spare);

        let single = test_state(
            "warm_slot_single",
            ServeOptions {
                extraction_slots: Some(1),
                ..Default::default()
            },
        );
        assert!(single.try_warm_slot().is_none(), "one slot: never warm");
        assert!(single.try_slot().is_some(), "…but real traffic is served");
    }

    // the warming pipeline end to end at the State level: a real miss
    // enqueues its scrub neighbors, running a job warms the neighbor's
    // pyramid speculatively, a later real query promotes it (counting
    // speculative_hits), and none of it samples client-visible miss
    // economics
    #[test]
    fn warm_jobs_fill_the_cache_behind_real_traffic() {
        let state = test_state(
            "warm_pipeline",
            ServeOptions {
                warm_delta: Some(4.0),
                lod_ratios: vec![0.5],
                ..Default::default()
            },
        );
        let trace = Trace::detached();
        state
            .extract_and_insert(110.0, Backend::Mc, &trace)
            .unwrap();
        let queued: Vec<(u32, u8)> = {
            let q = state.warm.as_ref().unwrap();
            q.jobs.lock().unwrap().iter().copied().collect()
        };
        assert_eq!(
            queued,
            vec![
                (106.0f32.to_bits(), Backend::Mc.id()),
                (114.0f32.to_bits(), Backend::Mc.id()),
            ],
            "a miss at v enqueues v-δ and v+δ"
        );
        // run one job by hand (no warmer thread in State-only tests), with
        // the EWMA pinned to prove warming never samples it
        state.miss_cost_ms.store(5000, Ordering::Relaxed);
        state.warm_one(114.0f32.to_bits(), Backend::Mc.id());
        assert_eq!(state.c.spec_started.get(), 1);
        assert_eq!(state.c.spec_completed.get(), 1);
        assert_eq!(state.miss_cost_ms.load(Ordering::Relaxed), 5000);
        assert_eq!(
            state.extract_latency_us.snapshot().count,
            1,
            "only the real miss samples extract_latency_us"
        );
        // the warmed pyramid is resident; the first real query promotes it
        let hit = state.cache.lock().unwrap().get(114.0, Backend::Mc.id(), 0);
        assert!(hit.is_some(), "warmed level must be resident");
        assert_eq!(state.cache.lock().unwrap().stats().speculative_hits, 1);
        // re-warming a resident isovalue is skipped, counted cancelled
        state.warm_one(114.0f32.to_bits(), Backend::Mc.id());
        assert_eq!(state.c.spec_cancelled.get(), 1);
        assert_eq!(state.c.spec_started.get(), 1, "a skip never starts");
    }

    // the chaos contract for fd starvation: the backoff counter ticks on
    // every failed accept, the structured warning fires exactly once per
    // episode, and a fresh episode warns again
    #[test]
    fn fd_exhaustion_warns_once_per_episode() {
        let sink = Arc::new(CaptureSink::new());
        let logger = Logger::new(sink.clone());
        let backoffs = Counter::new();
        let emfile = || io::Error::from_raw_os_error(24);
        assert!(fd_exhausted(&emfile()));

        let mut starved = false;
        for _ in 0..5 {
            note_fd_exhaustion(&backoffs, &logger, &emfile(), &mut starved);
        }
        assert_eq!(backoffs.get(), 5, "every failure ticks the counter");
        assert_eq!(
            sink.named("accept_backoff").len(),
            1,
            "one warn per episode"
        );

        // a successful accept resets the flag; the next starvation warns anew
        starved = false;
        note_fd_exhaustion(&backoffs, &logger, &emfile(), &mut starved);
        assert_eq!(backoffs.get(), 6);
        assert_eq!(sink.named("accept_backoff").len(), 2);
        assert_eq!(sink.count_at(Level::Warn), 2);
    }

    // the cold-start contract: with no miss samples the EWMA reads 0, and a
    // shed client must still be told to wait the documented floor — never
    // "retry in 0 ms", which would synchronize a re-storm
    #[test]
    fn retry_hint_cold_start_clamps_to_floor() {
        assert_eq!(clamp_retry_hint(0), RETRY_HINT_FLOOR_MS as u32);
        assert_eq!(clamp_retry_hint(1), RETRY_HINT_FLOOR_MS as u32);
        assert_eq!(
            clamp_retry_hint(RETRY_HINT_FLOOR_MS),
            RETRY_HINT_FLOOR_MS as u32
        );
        assert_eq!(clamp_retry_hint(500), 500);
        assert_eq!(clamp_retry_hint(u64::MAX), RETRY_HINT_CEIL_MS as u32);
    }
}
