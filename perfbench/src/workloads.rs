//! The four workloads: what the generator sends, how each output is
//! verified, and how a traced run replays a sample of the operations.
//!
//! The generator is this process's main thread plus, for `warm_storm`, one
//! more thread: never more than 2 threads and 2 connections.

use crate::replay::{frame_payload, ReplaySummary, Replayer};
use crate::setup::{self, Env, Scale, ServerConfig, LOD_RATIOS};
use crate::stats::{mesh_hash, ms, peak_rss_mb, reset_peak_rss, stratified_isos, Json, Rng};
use crate::trace::Recorder;
use oociso_cluster::{ExtractMode, ExtractOptions, LodSpec, QueryReport};
use oociso_core::ClusterDatabase;
use oociso_march::{IndexedMesh, LodChain};
use oociso_serve::protocol::{decode_payload, encode_frame, HEADER_BYTES};
use oociso_serve::{Client, IsoServer, Message};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["extract_sweep", "cold_miss", "warm_storm", "scrub"];

/// The paper's isovalue sweep (Tables 2-5).
const SWEEP: [f32; 11] = [
    10.0, 30.0, 50.0, 70.0, 90.0, 110.0, 130.0, 150.0, 170.0, 190.0, 210.0,
];
/// Isovalues `warm_storm` keeps resident (one near each centre), and
/// requests per pipelined burst.
const STORM_CENTRES: [f32; 4] = [35.0, 85.0, 135.0, 185.0];
const BURST: usize = 8;
/// `scrub`: slider stops, their spacing in isovalue, and the server it runs
/// against — a cache below the slider's working set, so results are
/// evicted and re-extracted, with speculative warming of the neighbours.
const SCRUB_STOPS: usize = 16;
const SCRUB_STEP: f32 = 4.0;
const SCRUB_SERVER: ServerConfig = ServerConfig {
    cache_mib: 6,
    extraction_slots: Some(2),
    warm_delta: Some(SCRUB_STEP),
};

/// One measured operation.
pub struct OpSample {
    pub latency_ms: f64,
    /// Time to the first usable mesh: the first progressive chunk (scrub),
    /// the first reply of a burst (warm_storm), the whole result otherwise.
    pub first_ms: f64,
    pub ok: bool,
    /// The measurement window the operation started in.
    pub window: usize,
    /// Mesh requests the operation completed, and the full-resolution
    /// triangles it produced or delivered.
    pub requests: u64,
    pub triangles: u64,
}

/// Each measurement is split into this many consecutive windows.
/// Throughput and peak RSS are reported as the median over windows, so a
/// burst of load from outside the benchmark during one window moves them
/// less; latency percentiles pool every operation of the run.
pub const WINDOWS: usize = 5;

/// Wall time and peak RSS of each measurement window, closed in order.
pub struct Windows {
    last: Instant,
    pub walls_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
}

impl Windows {
    fn start() -> Windows {
        reset_peak_rss();
        Windows {
            last: Instant::now(),
            walls_s: Vec::new(),
            peak_rss_mb: Vec::new(),
        }
    }

    /// Index of the open window.
    fn open(&self) -> usize {
        self.walls_s.len()
    }

    fn close(&mut self) {
        let now = Instant::now();
        self.walls_s.push((now - self.last).as_secs_f64());
        self.last = now;
        self.peak_rss_mb.push(peak_rss_mb());
        reset_peak_rss();
    }

    /// A fixed list of `n` operations: close the window after operation
    /// `k` when `k` is its last.
    fn after_op(&mut self, k: usize, n: usize) {
        if k + 1 == n || (k + 1) * WINDOWS / n != k * WINDOWS / n {
            self.close();
        }
    }

    /// A time box of `len` starting at `t0`: close every window whose end
    /// has passed (the last one stays open until the caller closes it).
    fn tick(&mut self, t0: Instant, len: Duration) {
        while self.open() + 1 < WINDOWS
            && t0.elapsed() >= len * (self.open() + 1) as u32 / WINDOWS as u32
        {
            self.close();
        }
    }
}

/// What a run of one workload measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub ops: Vec<OpSample>,
    pub windows: Windows,
    pub late_ms: Vec<f64>,
    /// Server counter deltas over the measurement, gauges after it.
    pub counters: BTreeMap<String, f64>,
    pub server: Option<ServerConfig>,
    pub params: Json,
    /// Replay of a sample of the operations and its spans (traced runs
    /// only).
    pub replay: Option<(ReplaySummary, Recorder)>,
    /// `QueryReport`s of the measured (extract_sweep) or replayed
    /// operations.
    pub reports: Vec<QueryReport>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }
}

/// Run workload `name`. `work` is a scratch directory the caller removes.
pub fn run(
    name: &str,
    work: &Path,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> io::Result<Outcome> {
    let seconds = Duration::from_secs_f64(seconds);
    match name {
        "extract_sweep" => extract_sweep(work, scale, seed, seconds, traced),
        "cold_miss" => cold_miss(work, scale, seed, traced),
        "warm_storm" => warm_storm(work, scale, seed, seconds, traced),
        "scrub" => scrub(work, scale, seed, traced),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown workload `{other}` (one of {})", NAMES.join(", ")),
        )),
    }
}

/// Evenly spaced sample of `n` indices out of `len`.
fn picks(len: usize, n: usize) -> Vec<usize> {
    let n = n.min(len);
    (0..n).map(|i| i * len / n).collect()
}

/// The exposition as `name -> value` (histogram series included).
fn exposition(server: &IsoServer) -> BTreeMap<String, f64> {
    server
        .metrics()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// Counter deltas between two expositions; gauges keep their later value.
fn deltas(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(k, v)| {
            let d = if k.ends_with("_total") {
                v - before.get(k).copied().unwrap_or(0.0)
            } else {
                *v
            };
            (k.clone(), d)
        })
        .collect()
}

fn reference_level0(db: &ClusterDatabase<u8>, iso: f32) -> io::Result<IndexedMesh> {
    let (chain, _) = db.extract_lods(iso, &LodSpec::none())?;
    Ok(chain.into_levels().swap_remove(0).mesh)
}

fn pyramid(db: &ClusterDatabase<u8>, iso: f32) -> io::Result<(LodChain, QueryReport)> {
    db.extract_lods(
        iso,
        &LodSpec {
            ratios: LOD_RATIOS.to_vec(),
        },
    )
}

fn server_of<W>(env: &Env<W>) -> &IsoServer {
    env.server.as_ref().expect("served workload")
}

// ---------------------------------------------------------------- sweep

/// In-process `ClusterDatabase::extract` over the paper's sweep, one caller,
/// closed loop, each pass in seeded order. Verification: every repeat equals
/// the first pass, and the first pass equals the batch reference path.
fn extract_sweep(
    work: &Path,
    scale: &Scale,
    seed: u64,
    seconds: Duration,
    traced: bool,
) -> io::Result<Outcome> {
    let (env, setup_s) = setup::set_up(work, scale, None, |db, _| {
        let db = db.expect("in-process workload");
        SWEEP
            .iter()
            .map(|&iso| Ok(db.extract(iso)?.mesh))
            .collect::<io::Result<Vec<_>>>()
    })?;
    let db = env.db.as_ref().expect("in-process workload");
    let first: &[IndexedMesh] = &env.warm;
    let mut rng = Rng::new(seed, 1);
    let (mut ops, mut isos, mut reports) = (Vec::new(), Vec::new(), Vec::new());
    let mut windows = Windows::start();
    let t0 = Instant::now();
    'passes: loop {
        let mut order: Vec<usize> = (0..SWEEP.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let window = windows.open();
            let t = Instant::now();
            let r = db.extract(SWEEP[i])?;
            let latency_ms = ms(t.elapsed());
            ops.push(OpSample {
                latency_ms,
                first_ms: latency_ms,
                ok: r.mesh == first[i],
                window,
                requests: 1,
                triangles: r.report.total_triangles(),
            });
            isos.push(i);
            reports.push(r.report);
            if t0.elapsed() >= seconds {
                break 'passes;
            }
            windows.tick(t0, seconds);
        }
    }
    windows.close();
    for (i, &iso) in SWEEP.iter().enumerate() {
        let batch = db.extract_with_options(
            iso,
            &ExtractOptions {
                mode: ExtractMode::Batch,
                ..Default::default()
            },
        )?;
        if batch.mesh != first[i] {
            for (op, _) in ops.iter_mut().zip(&isos).filter(|(_, &k)| k == i) {
                op.ok = false;
            }
        }
    }
    let replay = if traced {
        let hashes: Vec<u64> = first.iter().map(mesh_hash).collect();
        let picked: Vec<(u64, f64, usize)> = picks(ops.len(), scale.replay_ops)
            .into_iter()
            .map(|k| (k as u64, ops[k].latency_ms, isos[k]))
            .collect();
        let mut rp = Replayer::open(&env.dir, 0)?;
        let summary = rp.run(&picked, |rp, req, &i| {
            Ok(mesh_hash(&rp.extract(req, SWEEP[i])?) == hashes[i])
        })?;
        Some((summary, rp.rec))
    } else {
        None
    };
    setup::tear_down(env);
    Ok(Outcome {
        setup_s,
        ops,
        windows,
        late_ms: Vec::new(),
        counters: BTreeMap::new(),
        server: None,
        params: Json::obj([
            ("loop", Json::str("closed, 1 caller, in-process")),
            (
                "isovalues",
                Json::Arr(SWEEP.iter().map(|&v| Json::Num(v.into())).collect()),
            ),
            ("mode", Json::str("streaming, welded, mc")),
        ]),
        replay,
        reports,
    })
}

// ---------------------------------------------------------------- cold miss

/// Level-0 mesh requests for a fixed list of distinct isovalues on one
/// connection, closed loop: every request misses and builds the pyramid.
fn cold_miss(work: &Path, scale: &Scale, seed: u64, traced: bool) -> io::Result<Outcome> {
    let cfg = ServerConfig::CLI_DEFAULT;
    let mut rng = Rng::new(seed, 2);
    let isos = stratified_isos(&mut rng, scale.cold_isos, 10.0, 210.0);
    // warm-up isovalues sit off the half-unit grid the measured ones use
    let (env, setup_s) = setup::set_up(work, scale, Some(cfg), |_, server| {
        let mut c = Client::connect(server.expect("served").addr())?;
        for iso in [60.25, 160.25] {
            c.query_mesh_lod(iso, None, 0)?;
        }
        Ok(())
    })?;
    let server = server_of(&env);
    let mut client = Client::connect(server.addr())?;
    let before = exposition(server);
    let (mut ops, mut served) = (Vec::new(), Vec::new());
    let mut windows = Windows::start();
    for (k, &iso) in isos.iter().enumerate() {
        let window = windows.open();
        let t = Instant::now();
        let reply = client.query_mesh_lod(iso, None, 0);
        let latency_ms = ms(t.elapsed());
        let (ok, hash, triangles) = match reply {
            Ok(r) => (
                !r.cache_hit && !r.degraded && r.served_lod == 0,
                mesh_hash(&r.mesh),
                r.mesh.len() as u64,
            ),
            Err(e) => {
                eprintln!("cold_miss: iso {iso}: {e}");
                client = Client::connect(server.addr())?;
                (false, 0, 0)
            }
        };
        ops.push(OpSample {
            latency_ms,
            first_ms: latency_ms,
            ok,
            window,
            requests: ok as u64,
            triangles,
        });
        served.push(hash);
        windows.after_op(k, isos.len());
    }
    let counters = deltas(&before, &exposition(server));
    let db = env.open_db()?;
    for ((op, &iso), &hash) in ops.iter_mut().zip(&isos).zip(&served) {
        op.ok &= mesh_hash(&reference_level0(&db, iso)?) == hash;
    }
    let (replay, reports) = if traced {
        let reports = picks(ops.len(), scale.replay_ops)
            .into_iter()
            .map(|k| Ok((k, db.extract_lods(isos[k], &LodSpec::none())?.1)))
            .collect::<io::Result<Vec<_>>>()?;
        let picked: Vec<(u64, f64, (usize, u64))> = reports
            .iter()
            .map(|(k, r)| {
                (
                    *k as u64,
                    ops[*k].latency_ms,
                    (*k, r.total_active_metacells()),
                )
            })
            .collect();
        let mut rp = Replayer::open(&env.dir, cfg.cache_mib << 20)?;
        let summary = rp.run(&picked, |rp, req, &(k, active)| {
            let iso = isos[k];
            rp.lookup(req, iso, 0);
            let chain = rp.extract_pyramid(req, iso)?;
            rp.insert(req, iso, &chain, active);
            let frame = rp.encode_response(req, chain.full(), false, 0, active);
            Ok(mesh_hash(&rp.decode_response(req, &frame)?) == served[k])
        })?;
        let reports = reports.into_iter().map(|(_, r)| r).collect();
        (Some((summary, rp.rec)), reports)
    } else {
        (None, Vec::new())
    };
    setup::tear_down(env);
    Ok(Outcome {
        setup_s,
        ops,
        windows,
        late_ms: Vec::new(),
        counters,
        server: Some(cfg),
        params: Json::obj([
            ("loop", Json::str("closed, 1 connection")),
            ("requests", Json::Int(isos.len() as u64)),
            (
                "isovalues",
                Json::str("one per stratum of [10, 210], half-unit grid, seeded"),
            ),
            ("lod", Json::Int(0)),
        ]),
        replay,
        reports,
    })
}

// ---------------------------------------------------------------- warm storm

struct StormRefs {
    isos: Vec<f32>,
    /// Reference reply frame of `(iso index, level)` at `i * 3 + level`,
    /// captured from the warmed server.
    frames: Vec<Vec<u8>>,
}

fn mesh_request(iso: f32, lod: u16) -> Message {
    Message::MeshRequest {
        iso,
        region: None,
        lod,
        backend: None,
        trace_id: 0,
    }
}

/// Read one whole frame (header, payload, checksum) off `s`.
fn read_raw_frame(s: &mut TcpStream) -> io::Result<Vec<u8>> {
    let mut frame = vec![0u8; HEADER_BYTES];
    s.read_exact(&mut frame)?;
    let len = u64::from_le_bytes(frame[8..16].try_into().expect("8 bytes"));
    let len = usize::try_from(len)
        .ok()
        .filter(|&l| l <= 1 << 30)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "oversized frame"))?;
    frame.resize(HEADER_BYTES + len + 4, 0);
    s.read_exact(&mut frame[HEADER_BYTES..])?;
    Ok(frame)
}

struct ConnResult {
    ops: Vec<OpSample>,
    bursts: Vec<Vec<usize>>,
}

/// One storm connection: seeded bursts of 8 mixed-level requests written
/// back to back, replies read in order and byte-compared to the reference
/// frames. `Client::pipeline_raw` returns only after the last reply, so the
/// connection frames the burst itself to time the first reply too.
/// Operations are tagged with the window they start in; the connection
/// that owns `windows` also closes them as their ends pass.
#[allow(clippy::too_many_arguments)]
fn storm_connection(
    mut s: TcpStream,
    refs: &StormRefs,
    tris: &[u64],
    seed: u64,
    conn: u64,
    t0: Instant,
    seconds: Duration,
    mut windows: Option<&mut Windows>,
) -> io::Result<ConnResult> {
    let mut rng = Rng::new(seed, 10 + conn);
    let mut out = ConnResult {
        ops: Vec::new(),
        bursts: Vec::new(),
    };
    while t0.elapsed() < seconds {
        if let Some(w) = windows.as_deref_mut() {
            w.tick(t0, seconds);
        }
        let window = ((t0.elapsed().as_secs_f64() / seconds.as_secs_f64() * WINDOWS as f64)
            as usize)
            .min(WINDOWS - 1);
        let burst: Vec<usize> = (0..BURST).map(|_| rng.below(refs.frames.len())).collect();
        let mut bytes = Vec::new();
        for &k in &burst {
            bytes.extend(encode_frame(&mesh_request(
                refs.isos[k / 3],
                (k % 3) as u16,
            )));
        }
        let t = Instant::now();
        s.write_all(&bytes)?;
        let mut replies = Vec::with_capacity(BURST);
        let mut first_ms = 0.0;
        for i in 0..BURST {
            replies.push(read_raw_frame(&mut s)?);
            if i == 0 {
                first_ms = ms(t.elapsed());
            }
        }
        let latency_ms = ms(t.elapsed());
        let ok = burst
            .iter()
            .zip(&replies)
            .all(|(&k, r)| *r == refs.frames[k]);
        out.ops.push(OpSample {
            latency_ms,
            first_ms,
            ok,
            window,
            requests: BURST as u64,
            triangles: burst.iter().map(|&k| tris[k]).sum(),
        });
        out.bursts.push(burst);
    }
    Ok(out)
}

fn decode_mesh_frame(frame: &[u8]) -> io::Result<(IndexedMesh, u64)> {
    let (msg_type, payload) = frame_payload(frame)?;
    match decode_payload(msg_type, payload)? {
        Message::MeshResponse {
            mesh,
            cache_hit: true,
            active_metacells,
            ..
        } => Ok((mesh, active_metacells)),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("reference frame is not a cache-hit mesh: {other:?}"),
        )),
    }
}

/// After warm-up caches 4 isovalues × levels 0/1/2, two connections each
/// pipeline bursts of 8 mixed-level requests, all cache hits, for
/// `seconds`.
fn warm_storm(
    work: &Path,
    scale: &Scale,
    seed: u64,
    seconds: Duration,
    traced: bool,
) -> io::Result<Outcome> {
    let cfg = ServerConfig::CLI_DEFAULT;
    // one isovalue near each of four fixed centres: the seed moves them a
    // little, not the reply sizes that set the storm's throughput
    let mut rng = Rng::new(seed, 3);
    let isos: Vec<f32> = STORM_CENTRES
        .iter()
        .map(|c| c - 2.5 + 0.5 * rng.below(11) as f32)
        .collect();
    let (env, setup_s) = setup::set_up(work, scale, Some(cfg), |_, server| {
        let mut c = Client::connect(server.expect("served").addr())?;
        for &iso in &isos {
            c.query_mesh_lod(iso, None, 0)?;
        }
        let requests: Vec<Message> = (0..isos.len() * 3)
            .map(|k| mesh_request(isos[k / 3], (k % 3) as u16))
            .collect();
        Ok(StormRefs {
            isos: isos.clone(),
            frames: c.pipeline_raw(&requests)?,
        })
    })?;
    let server = server_of(&env);
    let refs = &env.warm;
    // the reference frames decode to the in-process pyramid, level by level
    let db = env.open_db()?;
    let mut chains = Vec::new();
    let mut refs_ok = true;
    let mut decoded = Vec::new();
    for (i, &iso) in refs.isos.iter().enumerate() {
        let (chain, _) = pyramid(&db, iso)?;
        for lod in 0..3 {
            let (mesh, active) = decode_mesh_frame(&refs.frames[i * 3 + lod])?;
            refs_ok &= chain.level(lod).is_some_and(|l| l.mesh == mesh);
            decoded.push((mesh.len() as u64, active));
        }
        chains.push(chain);
    }
    let level0_tris: Vec<u64> = decoded
        .iter()
        .enumerate()
        .map(|(k, d)| if k % 3 == 0 { d.0 } else { 0 })
        .collect();
    let connect = || -> io::Result<TcpStream> {
        let s = TcpStream::connect(server.addr())?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(s)
    };
    // Both event loops poll the shared listener and whichever accepts first
    // owns the connection, so two connections opened from idle share one
    // loop about half the time, which halves throughput. The second
    // connection is opened while the first one's loop is busy encoding a
    // burst of full-resolution replies, which pins the pair to different
    // loops.
    let mut conn_a = connect()?;
    let busy: Vec<usize> = (0..BURST).map(|i| (i % refs.isos.len()) * 3).collect();
    for &k in &busy {
        conn_a.write_all(&encode_frame(&mesh_request(refs.isos[k / 3], 0)))?;
    }
    std::thread::sleep(Duration::from_millis(3));
    let conn_b = connect()?;
    for &k in &busy {
        if read_raw_frame(&mut conn_a)? != refs.frames[k] {
            refs_ok = false;
        }
    }
    let before = exposition(server);
    let mut windows = Windows::start();
    let t0 = Instant::now();
    let (a, b) = std::thread::scope(|s| {
        let other =
            s.spawn(|| storm_connection(conn_b, refs, &level0_tris, seed, 1, t0, seconds, None));
        let mine = storm_connection(
            conn_a,
            refs,
            &level0_tris,
            seed,
            0,
            t0,
            seconds,
            Some(&mut windows),
        );
        (mine, other.join().expect("storm connection thread"))
    });
    windows.close();
    let counters = deltas(&before, &exposition(server));
    let (a, b) = (a?, b?);
    let bursts: Vec<Vec<usize>> = a.bursts.into_iter().chain(b.bursts).collect();
    let mut ops: Vec<OpSample> = a.ops.into_iter().chain(b.ops).collect();
    if !refs_ok {
        eprintln!("warm_storm: reference frames differ from the in-process pyramid");
        ops.iter_mut().for_each(|o| o.ok = false);
    }
    let replay = if traced {
        let picked: Vec<(u64, f64, usize)> = picks(ops.len(), scale.replay_ops)
            .into_iter()
            .map(|k| (k as u64, ops[k].latency_ms, k))
            .collect();
        let mut rp = Replayer::open(&env.dir, cfg.cache_mib << 20)?;
        for (i, chain) in chains.iter().enumerate() {
            rp.insert(u64::MAX, refs.isos[i], chain, decoded[i * 3].1);
        }
        let summary = rp.run(&picked, |rp, req, &op| {
            let mut same = true;
            for &k in &bursts[op] {
                let (iso, lod) = (refs.isos[k / 3], (k % 3) as u16);
                let hit = rp.lookup(req, iso, lod).expect("warm set is resident");
                let frame = rp.encode_response(req, &hit.mesh, true, lod, decoded[k].1);
                same &= frame == refs.frames[k];
            }
            Ok(same)
        })?;
        Some((summary, rp.rec))
    } else {
        None
    };
    setup::tear_down(env);
    Ok(Outcome {
        setup_s,
        ops,
        windows,
        late_ms: Vec::new(),
        counters,
        server: Some(cfg),
        params: Json::obj([
            ("loop", Json::str("closed, 2 connections, pipelined bursts")),
            ("burst", Json::Int(BURST as u64)),
            (
                "resident_isovalues",
                Json::Arr(isos.iter().map(|&v| Json::Num(v.into())).collect()),
            ),
            ("levels", Json::str("0/1/2 uniform")),
        ]),
        replay,
        reports: Vec::new(),
    })
}

// ---------------------------------------------------------------- scrub

/// Wait until the speculative warmer has nothing in flight.
fn wait_warmer_idle(server: &IsoServer) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let m = exposition(server);
        let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
        let settled = get("speculative_completed_total") + get("speculative_cancelled_total");
        if get("speculative_started_total") <= settled && get("inflight_miss") == 0.0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A slider over 16 stops 4.0 apart, walked forward and back, one stop due
/// every period: open loop on one connection, progressive requests, the
/// scrub server (warming on, 2 slots, 6 MiB cache).
fn scrub(work: &Path, scale: &Scale, seed: u64, traced: bool) -> io::Result<Outcome> {
    let cfg = SCRUB_SERVER;
    let mut rng = Rng::new(seed, 4);
    // The slider starts at 80..82, where about three in ten visits are
    // whole-pyramid hits, so the final-level median and p90 sit on the
    // extraction side of their two modes. Most visits get their first
    // chunk from cache and the rest wait for an extraction, so first-level
    // p90 sits at the boundary of those two modes and moves with that
    // share: the first-level figures are reported, not bounded. A miss costs more the higher the isovalue
    // (about 160 ms at 80, 210 ms at 140, 360 ms at 180), and each miss is
    // followed by the warmer's extraction of the next stop. Over 80..142
    // that pair takes at most ~430 ms of the 700 ms period; over 120..182
    // it took up to ~780 ms, so later stops queued behind the warmer and a
    // slower spell of the host moved p90 by a quarter.
    let span = SCRUB_STEP * (SCRUB_STOPS - 1) as f32;
    let base = 80.0 + 0.5 * rng.below(5) as f32;
    let stops: Vec<f32> = (0..SCRUB_STOPS)
        .map(|i| base + SCRUB_STEP * i as f32)
        .collect();
    // forward then back: 0, 1, …, 15, 14, …, 1, 0, 1, …
    let path: Vec<usize> = (0..scale.scrub_stops)
        .map(|j| {
            let p = j % (2 * SCRUB_STOPS - 2);
            if p < SCRUB_STOPS {
                p
            } else {
                2 * SCRUB_STOPS - 2 - p
            }
        })
        .collect();
    // warm up on an isovalue whose warmed neighbours stay off the slider
    let warm_iso = base + span + 20.0;
    let (env, setup_s) = setup::set_up(work, scale, Some(cfg), |_, server| {
        let server = server.expect("served");
        Client::connect(server.addr())?.query_mesh_lod(warm_iso, None, 0)?;
        wait_warmer_idle(server);
        Ok(())
    })?;
    let server = server_of(&env);
    let mut client = Client::connect(server.addr())?;
    let before = exposition(server);
    let (mut ops, mut late_ms, mut served, mut missed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_cached = 0u64;
    let mut windows = Windows::start();
    let t0 = Instant::now();
    for (j, &stop) in path.iter().enumerate() {
        let window = windows.open();
        let due = t0 + scale.scrub_period * j as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        late_ms.push(ms(sent - due));
        let mut first: Option<(Instant, bool)> = None;
        let mut all_hit = true;
        let reply = client.query_mesh_progressive(stops[stop], 0, None, |u| {
            first.get_or_insert_with(|| (Instant::now(), u.cache_hit));
            all_hit &= u.cache_hit;
        });
        first_cached += first.is_some_and(|f| f.1) as u64;
        let done = Instant::now();
        let (ok, hash, triangles) = match reply {
            Ok(r) => (
                !r.degraded && r.served_lod == 0,
                mesh_hash(&r.mesh),
                r.mesh.len() as u64,
            ),
            Err(e) => {
                eprintln!("scrub: iso {}: {e}", stops[stop]);
                client = Client::connect(server.addr())?;
                (false, 0, 0)
            }
        };
        ops.push(OpSample {
            latency_ms: ms(done - due),
            first_ms: ms(first.map_or(done, |f| f.0) - due),
            ok,
            window,
            requests: ok as u64,
            triangles,
        });
        served.push(hash);
        missed.push(!all_hit);
        windows.after_op(j, path.len());
    }
    wait_warmer_idle(server);
    let counters = deltas(&before, &exposition(server));
    let db = env.open_db()?;
    let mut reference = Vec::new();
    for &iso in &stops {
        reference.push(mesh_hash(&reference_level0(&db, iso)?));
    }
    for ((op, &stop), &hash) in ops.iter_mut().zip(&path).zip(&served) {
        op.ok &= reference[stop] == hash;
    }
    let (replay, reports) = if traced {
        let picked: Vec<(u64, f64, usize)> = picks(ops.len(), scale.replay_ops)
            .into_iter()
            .map(|k| (k as u64, ops[k].latency_ms, k))
            .collect();
        // hit visits are replayed from their cached pyramid, so only their
        // stops need one built up front
        let mut pyramids = BTreeMap::new();
        for &(_, _, k) in &picked {
            let stop = path[k];
            if let std::collections::btree_map::Entry::Vacant(e) = pyramids.entry(stop) {
                let hit = picked.iter().any(|p| path[p.2] == stop && !missed[p.2]);
                let ratios = if hit { LOD_RATIOS.to_vec() } else { Vec::new() };
                e.insert(db.extract_lods(stops[stop], &LodSpec { ratios })?);
            }
        }
        let reports = picked
            .iter()
            .map(|p| pyramids[&path[p.2]].1.clone())
            .collect();
        let mut rp = Replayer::open(&env.dir, cfg.cache_mib << 20)?;
        let summary = rp.run(&picked, |rp, req, &k| {
            let (stop, iso) = (path[k], stops[path[k]]);
            for lod in (0..=LOD_RATIOS.len() as u16).rev() {
                rp.lookup(req, iso, lod);
            }
            let (chain, report) = &pyramids[&stop];
            let active = report.total_active_metacells();
            let frames = if missed[k] {
                let chain = rp.extract_pyramid(req, iso)?;
                rp.insert(req, iso, &chain, active);
                rp.encode_chunks(req, &chain, false, active)
            } else {
                rp.encode_chunks(req, chain, true, active)
            };
            Ok(mesh_hash(&rp.decode_chunks(req, &frames)?) == served[k])
        })?;
        (Some((summary, rp.rec)), reports)
    } else {
        (None, Vec::new())
    };
    setup::tear_down(env);
    Ok(Outcome {
        setup_s,
        ops,
        windows,
        late_ms,
        counters,
        server: Some(cfg),
        params: Json::obj([
            ("loop", Json::str("open, 1 connection, progressive")),
            ("stops", Json::Int(SCRUB_STOPS as u64)),
            ("stop_step", Json::Num(SCRUB_STEP.into())),
            ("visits", Json::Int(path.len() as u64)),
            ("period_ms", Json::Num(ms(scale.scrub_period))),
            ("slider_start", Json::Num(base.into())),
            // visits whose first chunk, and whose every level, came from cache
            ("visits_first_cached", Json::Int(first_cached)),
            (
                "visits_all_cached",
                Json::Int(missed.iter().filter(|&&m| !m).count() as u64),
            ),
        ]),
        replay,
        reports,
    })
}
