//! Subcommand implementations.

use crate::args::Options;
use oociso_cluster::SimulatedTimeModel;
use oociso_core::{ClusterDatabase, PreprocessOptions};
use oociso_render::{Camera, TileLayout};
use oociso_volume::{io::write_volume, Dims3, RmProxy};
use std::path::Path;

/// Top-level usage text.
pub const USAGE: &str = "\
oociso — out-of-core isosurface extraction and rendering

USAGE:
  oociso gen        --out FILE [--dims NXxNYxNZ] [--step N] [--seed N] [--field rm|ball]
  oociso preprocess --volume FILE --db DIR [--nodes N] [--metacell K]
  oociso info       --db DIR
  oociso extract    --db DIR --iso V [--backend mc|surfacenets] [--obj FILE]
                    [--topology] [--no-weld] [--decimate RATIO]
  oociso render     --db DIR --iso V --out FILE.ppm [--size N] [--tiles CxR]
  oociso serve      --db DIR [--addr 127.0.0.1:7077] [--cache-mb N] [--port-file FILE]
                    [--backend mc|surfacenets] [--lods R1,R2|none] [--slots N]
                    [--max-conns N] [--degrade] [--warm-delta D]
                    [--reactor-threads N] [--workers N] [--outbound-budget-mb N]
                    [--read-timeout-ms N] [--idle-timeout-ms N]
                    [--slow-ms N] [--trace-buffer N]
  oociso query      --addr HOST:PORT (--iso V | --stats) [--lod N]
                    [--backend mc|surfacenets] [--obj FILE] [--progressive]
                    [--region x0,y0,z0,x1,y1,z1]
                    [--frame FILE.ppm] [--size N] [--tiles CxR] [--stats]
                    [--timeout MS] [--retries N] [--trace [ID]]
  oociso stats      --addr HOST:PORT [--metrics]
  oociso help

Generate a Richtmyer-Meshkov proxy volume, preprocess it into a striped
out-of-core database (compact interval tree index), then extract or render
isosurfaces reading only the active metacells. `extract --decimate 0.25`
quadric-simplifies the welded mesh to 25% of its vertices; `serve` exposes
a database over TCP (binary wire protocol, LRU result cache, LOD pyramid —
default levels 100%/25%/6%); `query --lod N` fetches pyramid level N.
`serve --slots N` bounds concurrent extractions (overflow answers ERR_BUSY
with a retry hint; add `--degrade` to fall back to a cached coarser LOD);
`query --timeout MS --retries N` retries busy/torn requests with jittered
exponential backoff. `--backend` selects the extraction kernel — `mc`
(Marching Cubes, the default) or `surfacenets` (`sn`): same triangle budget,
half the primitives, globally vertex-unique; `serve --backend` sets the
default served to clients that name none, while `query --backend` pins one
explicitly (per-backend cache slots never alias). `query --trace` stamps
the request with a trace id and prints the server-side span tree (cache →
admission → extraction phases → encode); `stats` prints the server
counters, and `stats --metrics` dumps the raw Prometheus-style exposition
(counters, gauges, latency histograms). `serve --slow-ms N` logs and
retains a trace for any request slower than N ms; `--trace-buffer N` sizes
the journal `query --trace` reads from. `serve` multiplexes every client
over `--reactor-threads N` event loops (default 2) with request
pipelining and bounded per-client outbound queues
(`--outbound-budget-mb`, default 8); `--workers N` sizes the extraction
pool behind them. `serve --warm-delta D` speculatively pre-extracts v±D
after each cache-miss at v, using only otherwise-idle extraction slots —
an isovalue scrub hits the warmed cache instead of extracting. `query
--progressive` asks for a coarse-to-fine streamed delivery (protocol v6):
the coarsest cached level renders immediately and each refinement prints
with its arrival time; the final mesh equals the plain `--lod` reply.
";

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `--backend mc|surfacenets` (default MC, matching the library default).
fn backend_opt(opts: &Options) -> Result<oociso_march::Backend, String> {
    match opts.get("backend") {
        None => Ok(oociso_march::Backend::Mc),
        Some(s) => s.parse().map_err(|e| format!("--backend: {e}")),
    }
}

/// `oociso gen`: write a synthetic volume file — the RM proxy time step
/// (default), or `--field ball`, a centered sphere whose isosurfaces close
/// strictly inside the volume (the closed-manifold fixture the decimation
/// smoke tests need).
pub fn gen(opts: &Options) -> Result<(), String> {
    let out = opts.require("out")?;
    let dims = opts.dims("dims", Dims3::new(256, 256, 240))?;
    let step: u32 = opts.num("step", 250)?;
    let seed: u64 = opts.num("seed", 0x524D_2006)?;
    let field = opts.get("field").unwrap_or("rm");
    let vol = match field {
        "rm" => {
            eprintln!(
                "generating RM proxy step {step} at {}x{}x{} (seed {seed:#x})…",
                dims.nx, dims.ny, dims.nz
            );
            RmProxy::with_seed(seed).volume(step, dims)
        }
        "ball" => {
            use oociso_volume::field::{FieldExt, SphereField};
            eprintln!(
                "generating centered ball at {}x{}x{}…",
                dims.nx, dims.ny, dims.nz
            );
            SphereField::centered(0.34, 128.0).sample(dims)
        }
        other => return Err(format!("--field: unknown field `{other}` (rm | ball)")),
    };
    write_volume(Path::new(out), &vol).map_err(err)?;
    println!(
        "wrote {} ({:.1} MB raw)",
        out,
        dims.raw_bytes::<u8>() as f64 / 1e6
    );
    Ok(())
}

/// `oociso preprocess`: stream a raw volume file into a database directory.
pub fn preprocess(opts: &Options) -> Result<(), String> {
    let volume = opts.require("volume")?;
    let db_dir = opts.require("db")?;
    let nodes: usize = opts.num("nodes", 1)?;
    let metacell_k: usize = opts.num("metacell", 9)?;
    let popts = PreprocessOptions {
        metacell_k,
        nodes,
        mmap: true,
    };
    eprintln!("preprocessing {volume} -> {db_dir} ({nodes} node(s), {metacell_k}^3 metacells)…");
    let t = std::time::Instant::now();
    let db = ClusterDatabase::<u8>::preprocess_file(Path::new(volume), Path::new(db_dir), &popts)
        .map_err(err)?;
    let stats = db.preprocess_stats().expect("fresh build");
    println!(
        "done in {:.1}s: {} metacells kept, {} culled ({:.0}% of raw size), index {:.1} KB",
        t.elapsed().as_secs_f64(),
        stats.kept_metacells,
        stats.culled_metacells,
        stats.size_ratio() * 100.0,
        db.index_bytes() as f64 / 1024.0
    );
    Ok(())
}

/// `oociso info`: summarize a database directory.
pub fn info(opts: &Options) -> Result<(), String> {
    let db_dir = opts.require("db")?;
    let db = ClusterDatabase::<u8>::open(Path::new(db_dir), true).map_err(err)?;
    let layout = db.cluster().layout();
    let dims = layout.volume_dims();
    println!("database:   {db_dir}");
    println!("volume:     {}x{}x{} u8", dims.nx, dims.ny, dims.nz);
    println!(
        "metacells:  {}^3 vertices ({} B full record), grid {}x{}x{}",
        layout.k(),
        layout.full_record_len(1),
        layout.grid().nx,
        layout.grid().ny,
        layout.grid().nz
    );
    println!("nodes:      {}", db.nodes());
    println!(
        "index:      {:.1} KB total",
        db.index_bytes() as f64 / 1024.0
    );
    for (i, tree) in db.cluster().trees().iter().enumerate() {
        println!(
            "  node {i}: {} tree nodes, {} brick entries, {} metacells, height {}",
            tree.num_nodes(),
            tree.num_entries(),
            tree.num_intervals(),
            tree.height()
        );
    }
    Ok(())
}

/// `oociso extract`: query an isosurface, optionally export OBJ / topology.
pub fn extract(opts: &Options) -> Result<(), String> {
    let db_dir = opts.require("db")?;
    let iso: f32 = opts.num("iso", f32::NAN)?;
    if iso.is_nan() {
        return Err("missing required option --iso".into());
    }
    let db = ClusterDatabase::<u8>::open(Path::new(db_dir), true).map_err(err)?;
    // welding is the default: the exported/analyzed mesh is watertight across
    // metacell and node seams; --no-weld keeps the raw per-metacell merge
    // (SurfaceNets never welds: its vertices are globally unique by cell)
    let weld = !opts.flag("no-weld");
    let backend = backend_opt(opts)?;
    let result = db
        .extract_with_options(
            iso,
            &oociso_cluster::ExtractOptions {
                weld,
                backend,
                ..Default::default()
            },
        )
        .map_err(err)?;
    let r = &result.report;
    println!(
        "isovalue {iso} ({backend}): {} active metacells, {} triangles, {:.1} MB read, wall {:.3}s",
        r.total_active_metacells(),
        r.total_triangles(),
        r.total_bytes_read() as f64 / 1e6,
        r.total_wall.as_secs_f64()
    );
    // retrieval→triangulation pipeline: staging memory and hidden wall-clock
    let max_overlap = r
        .nodes
        .iter()
        .map(|n| n.overlap_fraction())
        .fold(0.0f64, f64::max);
    println!(
        "pipeline: peak staging {:.1} KB/node, overlap saved {:.1} ms across nodes ({:.0}% of the shorter phase on the best node)",
        r.max_peak_queue_bytes() as f64 / 1024.0,
        r.total_overlap_saved().as_secs_f64() * 1e3,
        max_overlap * 100.0
    );
    if weld && backend == oociso_march::Backend::Mc {
        let w = r.total_weld();
        println!(
            "weld: {} seam vertices merged, {} seam edges closed, {} collapsed triangles dropped in {:.1} ms ({:.1}% of extraction wall)",
            w.vertices_merged(),
            w.seam_edges_closed(),
            w.degenerate_dropped,
            r.total_weld_wall().as_secs_f64() * 1e3,
            100.0 * r.total_weld_wall().as_secs_f64() / r.total_wall.as_secs_f64().max(1e-9)
        );
    }
    let model = SimulatedTimeModel::paper();
    println!(
        "simulated on the paper's hardware: {:.3}s ({:.2} MTri/s)",
        model.query_time(r, 4, (1024, 1024)).as_secs_f64(),
        r.total_triangles() as f64
            / 1e6
            / model.query_time(r, 4, (1024, 1024)).as_secs_f64().max(1e-9)
    );
    // --decimate R: quadric edge-collapse simplify the welded mesh; the
    // OBJ export and topology report below then describe the decimated mesh
    let mut mesh = result.mesh;
    if let Some(ratio) = opts.get("decimate") {
        let ratio: f64 = ratio
            .parse()
            .map_err(|_| format!("--decimate: cannot parse `{ratio}`"))?;
        if !(0.0..=1.0).contains(&ratio) {
            return Err(format!("--decimate: ratio {ratio} outside [0, 1]"));
        }
        let t = std::time::Instant::now();
        let (decimated, stats) = oociso_march::decimate_to_ratio(&mesh, ratio);
        println!(
            "decimate {ratio}: {} -> {} vertices ({} -> {} triangles), {} collapses, max error {:.3e} (world {:.4}), {:.1} ms{}",
            stats.input_vertices,
            stats.output_vertices,
            stats.input_triangles,
            stats.output_triangles,
            stats.collapses,
            stats.max_error,
            stats.world_error(),
            t.elapsed().as_secs_f64() * 1e3,
            if stats.reached_target {
                ""
            } else {
                " (stopped early: no legal collapse left)"
            }
        );
        mesh = decimated;
    }
    if opts.flag("topology") {
        let report = oociso_march::analyze_mesh(&mesh);
        println!(
            "topology: V={} E={} F={} components={} boundary_edges={} non_manifold_edges={} chi={} ({})",
            report.vertices,
            report.edges,
            report.faces,
            report.components,
            report.boundary_edges,
            report.non_manifold_edges,
            report.euler_characteristic(),
            if report.is_closed_manifold() {
                "closed manifold"
            } else if report.is_closed() {
                "closed"
            } else {
                "open"
            }
        );
    }
    if let Some(obj) = opts.get("obj") {
        mesh.write_obj(Path::new(obj)).map_err(err)?;
        println!(
            "exported {} triangles ({} welded vertices) -> {obj}",
            mesh.len(),
            mesh.num_vertices()
        );
    }
    Ok(())
}

/// `oociso serve`: expose a database directory as a TCP query server.
pub fn serve(opts: &Options) -> Result<(), String> {
    let db_dir = opts.require("db")?;
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7077");
    let cache_mb: u64 = opts.num("cache-mb", 256)?;
    // LOD pyramid levels: the library's serving default pyramid (100%/25%/6%);
    // `--lods none` keeps the server full-resolution-only
    let lod_ratios: Vec<f64> = match opts.get("lods") {
        None => oociso_cluster::LodSpec::pyramid().ratios,
        Some("none") | Some("off") => Vec::new(),
        Some(list) => list
            .split(',')
            .map(|p| {
                p.trim()
                    .parse()
                    .map_err(|_| format!("--lods: bad ratio `{p}` in `{list}`"))
            })
            .collect::<Result<_, _>>()?,
    };
    let levels = 1 + lod_ratios.len();
    let extraction_slots: Option<u32> = opts.opt_num("slots")?;
    let max_connections: Option<u32> = opts.opt_num("max-conns")?;
    let degrade = opts.flag("degrade");
    let backend = backend_opt(opts)?;
    // `--warm-delta D` turns on speculative cache warming: after each
    // cache-miss extraction at isovalue v, idle capacity pre-extracts v±D
    let warm_delta: Option<f32> = opts.opt_num("warm-delta")?;
    let mut serve_opts = oociso_serve::ServeOptions {
        cache_bytes: cache_mb << 20,
        lod_ratios,
        extraction_slots,
        max_connections,
        degrade,
        backend,
        warm_delta,
        ..Default::default()
    };
    if let Some(ms) = opts.opt_num::<u64>("read-timeout-ms")? {
        serve_opts.read_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    if let Some(ms) = opts.opt_num::<u64>("idle-timeout-ms")? {
        serve_opts.idle_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    // observability knobs: slow-query threshold (0 disables) and how many
    // finished request traces `query --trace` can fetch back
    serve_opts.slow_ms = opts.num("slow-ms", serve_opts.slow_ms)?;
    serve_opts.trace_buffer = opts.num("trace-buffer", serve_opts.trace_buffer)?;
    // serving core: event loops, worker pool, per-client outbound budget
    // (`IsoServer::bind` rejects zero event loops)
    serve_opts.reactor_threads = opts.num("reactor-threads", serve_opts.reactor_threads)?;
    serve_opts.reactor_workers = opts.num("workers", serve_opts.reactor_workers)?;
    serve_opts.outbound_budget = (opts.num::<usize>("outbound-budget-mb", 8)?).max(1) << 20;
    let db = ClusterDatabase::<u8>::open(Path::new(db_dir), true).map_err(err)?;
    let nodes = db.nodes();
    let (reactor_threads, outbound_budget) =
        (serve_opts.reactor_threads, serve_opts.outbound_budget);
    let server = oociso_serve::IsoServer::bind(db, addr, serve_opts).map_err(err)?;
    // scripts pass --addr 127.0.0.1:0 and read the resolved port from here
    if let Some(port_file) = opts.get("port-file") {
        std::fs::write(port_file, server.addr().port().to_string()).map_err(err)?;
    }
    println!(
        "serving {db_dir} ({nodes} node(s)) on {} — protocol v{}, cache {cache_mb} MiB, {levels} LOD level(s), default backend {backend}",
        server.addr(),
        oociso_serve::VERSION,
    );
    println!(
        "core: reactor ({reactor_threads} event loop(s), outbound budget {} MiB/conn)",
        outbound_budget >> 20
    );
    if extraction_slots.is_some() || max_connections.is_some() || degrade {
        println!(
            "admission: {} extraction slot(s), {} connection cap, degraded fallback {}",
            extraction_slots.map_or("unbounded".into(), |n| n.to_string()),
            max_connections.map_or("none".into(), |n| n.to_string()),
            if degrade { "on" } else { "off" }
        );
    }
    if let Some(delta) = warm_delta {
        println!("warming: speculative extraction of v±{delta} after each cache miss");
    }
    server.park()
}

/// `oociso query`: query a running server; mirror of `extract`/`render` over
/// the wire.
pub fn query(opts: &Options) -> Result<(), String> {
    let addr = opts.require("addr")?;
    // --stats alone is a health probe (a drained or zero-slot replica still
    // answers it); everything else needs an isovalue
    let iso: Option<f32> = opts.opt_num("iso")?;
    if iso.is_none() && !opts.flag("stats") {
        return Err("missing required option --iso (or pass --stats alone to probe)".into());
    }
    let region = match opts.get("region") {
        None => None,
        Some(spec) => {
            let parts: Vec<f32> = spec
                .split(',')
                .map(|p| {
                    p.trim()
                        .parse()
                        .map_err(|_| format!("--region: bad `{spec}`"))
                })
                .collect::<Result<_, _>>()?;
            if parts.len() != 6 {
                return Err("--region: expected x0,y0,z0,x1,y1,z1".into());
            }
            Some(oociso_serve::Region {
                lo: [parts[0], parts[1], parts[2]],
                hi: [parts[3], parts[4], parts[5]],
            })
        }
    };
    let lod: u16 = opts.num("lod", 0)?;
    // --timeout MS bounds each request round-trip (0 = wait forever);
    // --retries N re-attempts busy replies and torn connections with
    // jittered exponential backoff honoring the server's retry hint
    let mut copts = oociso_serve::ClientOptions {
        retries: opts.num("retries", 0)?,
        ..Default::default()
    };
    if let Some(ms) = opts.opt_num::<u64>("timeout")? {
        copts.request_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    let mut client = oociso_serve::Client::connect_with(addr, copts).map_err(err)?;
    if let Some(iso) = iso {
        query_iso(opts, &mut client, iso, region, lod)?;
    }
    if opts.flag("stats") {
        print_stats(&mut client)?;
    }
    Ok(())
}

fn query_iso(
    opts: &Options,
    client: &mut oociso_serve::Client,
    iso: f32,
    region: Option<oociso_serve::Region>,
    lod: u16,
) -> Result<(), String> {
    let t = std::time::Instant::now();
    // --trace stamps the request with a trace id (an explicit `--trace ID`,
    // or one derived from the pid) so the server retains its span tree
    let trace_id = match opts.get("trace") {
        Some(v) => {
            let id: u64 = v
                .parse()
                .map_err(|_| format!("--trace: cannot parse `{v}`"))?;
            if id == 0 {
                return Err("--trace: id 0 means untraced; pick a nonzero id".into());
            }
            id
        }
        None if opts.flag("trace") => (u64::from(std::process::id()) << 16) | 0x7ACE,
        None => 0,
    };
    // --backend names an extraction kernel explicitly; without it the
    // request carries no selector and the server's default answers
    let backend = match opts.get("backend") {
        None => None,
        Some(s) => Some(
            s.parse::<oociso_march::Backend>()
                .map_err(|e| format!("--backend: {e}"))?,
        ),
    };
    let reply = if opts.flag("progressive") {
        // --progressive streams the LOD pyramid coarsest-first (protocol
        // v6), printing each refinement as it lands
        if region.is_some() {
            return Err("--progressive cannot be combined with --region".into());
        }
        if trace_id != 0 {
            return Err("--progressive cannot be combined with --trace".into());
        }
        println!("isovalue {iso}, progressive -> lod {lod}:");
        client
            .query_mesh_progressive(iso, lod, backend, |u| {
                println!(
                    "  +{:.3}s  level {}: {} triangles ({} vertices) [{}, {} on the wire]",
                    t.elapsed().as_secs_f64(),
                    u.level,
                    u.mesh.len(),
                    u.mesh.num_vertices(),
                    if u.cache_hit { "cached" } else { "extracted" },
                    if u.delta { "delta" } else { "full" },
                );
            })
            .map_err(err)?
    } else if trace_id != 0 {
        client
            .query_mesh_traced(iso, region, lod, backend, trace_id)
            .map_err(err)?
    } else {
        match backend {
            None => client.query_mesh_lod(iso, region, lod).map_err(err)?,
            Some(b) => client
                .query_mesh_backend(iso, region, lod, b)
                .map_err(err)?,
        }
    };
    let served = oociso_march::Backend::from_id(reply.backend)
        .map_or_else(|| format!("backend {}", reply.backend), |b| b.to_string());
    println!(
        "isovalue {iso} (lod {lod}, {served}): {} triangles ({} vertices), {} active metacells, {} in {:.3}s{}",
        reply.mesh.len(),
        reply.mesh.num_vertices(),
        reply.active_metacells,
        if reply.cache_hit {
            "cache hit"
        } else {
            "cache miss"
        },
        t.elapsed().as_secs_f64(),
        if reply.degraded {
            format!(" [degraded: served lod {}]", reply.served_lod)
        } else {
            String::new()
        }
    );
    if trace_id != 0 {
        let t = client.trace(trace_id).map_err(err)?;
        if t.found {
            println!(
                "trace {:#x} ({:.3} ms server-side{}):",
                t.id,
                t.total_us as f64 / 1e3,
                if t.dropped > 0 {
                    format!(", {} events dropped", t.dropped)
                } else {
                    String::new()
                }
            );
            print!("{}", oociso_serve::render_trace_events(&t.events));
        } else {
            println!("trace {trace_id:#x}: not retained by the server");
        }
    }
    if let Some(obj) = opts.get("obj") {
        reply.mesh.write_obj(Path::new(obj)).map_err(err)?;
        println!("exported -> {obj}");
    }
    if let Some(frame) = opts.get("frame") {
        let size: u32 = opts.num("size", 512)?;
        let (cols, rows) = opts.tiles("tiles", (1, 1))?;
        if cols == 0
            || rows == 0
            || !(size as usize).is_multiple_of(cols)
            || !(size as usize).is_multiple_of(rows)
        {
            return Err(format!(
                "--size {size} must divide evenly into {cols}x{rows} tiles"
            ));
        }
        let f = client
            .query_frame(
                iso,
                oociso_serve::FrameParams {
                    width: size,
                    height: size,
                    azimuth: 0.9,
                    elevation: 0.45,
                    distance: 2.0,
                    tile_cols: cols as u16,
                    tile_rows: rows as u16,
                },
            )
            .map_err(err)?;
        f.framebuffer.write_ppm(Path::new(frame)).map_err(err)?;
        println!(
            "rendered frame ({} covered pixels, {}) -> {frame}",
            f.framebuffer.covered_pixels(),
            if f.cache_hit {
                "cache hit"
            } else {
                "cache miss"
            },
        );
    }
    Ok(())
}

/// `oociso stats`: print a running server's counters; `--metrics` dumps the
/// raw Prometheus-style exposition instead (counters, gauges, histograms).
pub fn stats(opts: &Options) -> Result<(), String> {
    let addr = opts.require("addr")?;
    let mut client = oociso_serve::Client::connect(addr).map_err(err)?;
    if opts.flag("metrics") {
        print!("{}", client.metrics().map_err(err)?);
        return Ok(());
    }
    print_stats(&mut client)
}

fn print_stats(client: &mut oociso_serve::Client) -> Result<(), String> {
    let s = client.stats().map_err(err)?;
    println!(
        "server: {} connection(s), {} request(s) ({} mesh, {} frame, {} error), {:.1} MB out",
        s.connections,
        s.requests,
        s.mesh_requests,
        s.frame_requests,
        s.errors,
        s.bytes_out as f64 / 1e6
    );
    println!(
        "cache: {} hit(s) / {} miss(es), {} eviction(s), {:.1} MB resident in {} entrie(s)",
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.cache_resident_bytes as f64 / 1e6,
        s.cache_resident_entries
    );
    let per_level: Vec<String> = s
        .lod_hits
        .iter()
        .zip(&s.lod_misses)
        .enumerate()
        .filter(|(_, (&h, &m))| h + m > 0)
        .map(|(i, (h, m))| format!("L{i} {h}/{m}"))
        .collect();
    if !per_level.is_empty() {
        println!("cache per lod (hits/misses): {}", per_level.join(", "));
    }
    let per_backend: Vec<String> = s
        .backend_hits
        .iter()
        .zip(&s.backend_misses)
        .enumerate()
        .filter(|(_, (&h, &m))| h + m > 0)
        .map(|(i, (h, m))| {
            let name = oociso_march::Backend::from_id(i as u8)
                .map_or_else(|| i.to_string(), |b| b.to_string());
            format!("{name} {h}/{m}")
        })
        .collect();
    if !per_backend.is_empty() {
        println!(
            "cache per backend (hits/misses): {}",
            per_backend.join(", ")
        );
    }
    println!(
        "overload: shed={} degraded={} timed_out={} drained={} accept_backoffs={} active_conns={}",
        s.shed, s.degraded, s.timed_out, s.drained, s.accept_backoffs, s.active_connections
    );
    Ok(())
}

/// `oociso render`: extract, rasterize per node, sort-last composite, save PPM.
pub fn render(opts: &Options) -> Result<(), String> {
    let db_dir = opts.require("db")?;
    let iso: f32 = opts.num("iso", f32::NAN)?;
    if iso.is_nan() {
        return Err("missing required option --iso".into());
    }
    let out = opts.require("out")?;
    let size: usize = opts.num("size", 1024)?;
    let (cols, rows) = opts.tiles("tiles", (2, 2))?;
    let db = ClusterDatabase::<u8>::open(Path::new(db_dir), true).map_err(err)?;
    let probe = db.extract(iso).map_err(err)?;
    if probe.mesh.is_empty() {
        return Err(format!("isovalue {iso} produces an empty surface"));
    }
    let camera = Camera::orbiting(&probe.mesh.bounds(), 0.9, 0.45, 2.0);
    let tiles = TileLayout::new(cols, rows, size, size);
    let (fb, e) = db
        .extract_and_render(iso, &camera, &tiles, [0.9, 0.78, 0.5])
        .map_err(err)?;
    fb.write_ppm(Path::new(out)).map_err(err)?;
    println!(
        "rendered {} triangles over {} node(s), composite moved {:.1} MB -> {out}",
        e.report.total_triangles(),
        db.nodes(),
        e.report.composite_wire_bytes as f64 / 1e6
    );
    Ok(())
}
