//! End-to-end serving tests: concurrent clients against one live TCP server
//! must observe responses bit-identical to direct library calls, the result
//! cache must be visibly doing its job, and protocol abuse must produce
//! structured errors without wedging the server.

use oociso_cluster::{ExtractOptions, LodSpec};
use oociso_core::{ClusterDatabase, PreprocessOptions};
use oociso_march::{Backend, IndexedMesh};
use oociso_serve::protocol::{
    encode_payload, encode_payload_at, read_frame, write_frame, FrameIn, ERR_BAD_CHECKSUM,
    ERR_MALFORMED, ERR_UNSUPPORTED_VERSION, HEADER_BYTES, MSG_MESH_REQUEST, MSG_MESH_RESPONSE,
    MSG_PROGRESSIVE_REQUEST, MSG_STATS_REQUEST,
};
use oociso_serve::{
    read_progressive_reply, render_trace_events, ChaosStream, Client, ConnFault, FrameParams,
    IsoServer, Message, Region, ServeOptions, ERR_BAD_BACKEND, ERR_BAD_LOD, MAGIC,
};
use oociso_volume::field::{FieldExt, SphereField};
use oociso_volume::{Dims3, Volume};
use std::collections::HashMap;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oociso_serve_{}_{}", std::process::id(), name));
    p
}

fn test_volume() -> Volume<u8> {
    SphereField::centered(0.32, 128.0).sample(Dims3::cube(29))
}

/// A 2-node database + a bound server over it + a second direct-access
/// database on the same directory for ground truth.
fn serve_fixture(name: &str, cache_bytes: u64) -> (PathBuf, IsoServer, ClusterDatabase<u8>) {
    let dir = tmpdir(name);
    let vol = test_volume();
    let opts = PreprocessOptions {
        nodes: 2,
        ..Default::default()
    };
    let served = ClusterDatabase::preprocess(&vol, &dir, &opts).unwrap();
    let direct = ClusterDatabase::<u8>::open(&dir, false).unwrap();
    let server = IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        ServeOptions {
            cache_bytes,
            ..Default::default()
        },
    )
    .unwrap();
    (dir, server, direct)
}

/// Like [`serve_fixture`] but with the 100%/25%/6% LOD pyramid enabled.
fn lod_fixture(name: &str) -> (PathBuf, IsoServer, ClusterDatabase<u8>) {
    let dir = tmpdir(name);
    let vol = test_volume();
    let opts = PreprocessOptions {
        nodes: 2,
        ..Default::default()
    };
    let served = ClusterDatabase::preprocess(&vol, &dir, &opts).unwrap();
    let direct = ClusterDatabase::<u8>::open(&dir, false).unwrap();
    let server = IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        ServeOptions {
            lod_ratios: vec![0.25, 0.06],
            ..Default::default()
        },
    )
    .unwrap();
    (dir, server, direct)
}

fn assert_same_mesh(a: &IndexedMesh, b: &IndexedMesh, ctx: &str) {
    assert_eq!(
        a.positions().len(),
        b.positions().len(),
        "{ctx}: vertex count"
    );
    for (i, (x, y)) in a.positions().iter().zip(b.positions()).enumerate() {
        assert_eq!(x.x.to_bits(), y.x.to_bits(), "{ctx}: vertex {i}.x");
        assert_eq!(x.y.to_bits(), y.y.to_bits(), "{ctx}: vertex {i}.y");
        assert_eq!(x.z.to_bits(), y.z.to_bits(), "{ctx}: vertex {i}.z");
    }
    assert_eq!(a.indices(), b.indices(), "{ctx}: indices");
}

#[test]
fn concurrent_clients_get_bit_identical_results_and_cache_hits() {
    let (dir, server, direct) = serve_fixture("concurrent", 256 << 20);
    let addr = server.addr();
    let isovalues = [90.0f32, 120.0, 150.0];

    // ground truth once per isovalue, via direct library calls
    let truth: HashMap<u32, IndexedMesh> = isovalues
        .iter()
        .map(|&iso| (iso.to_bits(), direct.extract(iso).unwrap().mesh))
        .collect();

    // warm pass: one sequential client populates the cache (all misses)
    {
        let mut warm = Client::connect(addr).unwrap();
        for &iso in &isovalues {
            let reply = warm.query_mesh(iso, None).unwrap();
            assert!(!reply.cache_hit, "first query of {iso} cannot hit");
            assert_same_mesh(&reply.mesh, &truth[&iso.to_bits()], "warm");
        }
        let s = warm.stats().unwrap();
        assert_eq!(s.cache_misses, isovalues.len() as u64);
        assert_eq!(s.cache_resident_entries, isovalues.len() as u64);
    }

    // storm pass: N threads × mixed isovalues, all concurrent, all hits
    let threads = 6;
    let per_thread = 4;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let truth = &truth;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for q in 0..per_thread {
                    let iso = isovalues[(t + q) % isovalues.len()];
                    let reply = client.query_mesh(iso, None).unwrap();
                    assert!(reply.cache_hit, "warmed isovalue {iso} must hit");
                    assert!(reply.active_metacells > 0);
                    assert_same_mesh(
                        &reply.mesh,
                        &truth[&iso.to_bits()],
                        &format!("thread {t} query {q} iso {iso}"),
                    );
                }
            });
        }
    });

    let report = server.report();
    assert_eq!(report.connections, 1 + threads as u64);
    assert_eq!(
        report.cache_hits,
        (threads * per_thread) as u64,
        "every storm query must be a cache hit: {report:?}"
    );
    assert_eq!(report.cache_misses, isovalues.len() as u64);
    assert_eq!(
        report.mesh_requests,
        (isovalues.len() + threads * per_thread) as u64
    );
    assert_eq!(report.errors, 0);
    assert!(report.bytes_out > 0);

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn region_and_frame_requests_match_direct_calls() {
    let (dir, server, direct) = serve_fixture("modes", 256 << 20);
    let mut client = Client::connect(server.addr()).unwrap();
    let iso = 120.0f32;
    let full = direct.extract(iso).unwrap().mesh;

    // region-restricted mesh = the same public filter applied locally
    let region = Region {
        lo: [0.0, 0.0, 0.0],
        hi: [14.0, 14.0, 14.0],
    };
    let (lo, hi) = region.corners();
    let expected = full.filter_region(lo, hi);
    let reply = client.query_mesh(iso, Some(region)).unwrap();
    assert!(
        !reply.mesh.is_empty(),
        "test region should catch some surface"
    );
    assert!(
        reply.mesh.len() < full.len(),
        "region should truly restrict"
    );
    assert_same_mesh(&reply.mesh, &expected, "region");

    // frame mode = rasterizing the same mesh locally, pixel for pixel
    let params = FrameParams {
        width: 96,
        height: 96,
        azimuth: 0.7,
        elevation: 0.4,
        distance: 2.5,
        tile_cols: 2,
        tile_rows: 2,
    };
    let frame = client.query_frame(iso, params).unwrap();
    assert!(frame.cache_hit, "mesh query warmed this isovalue");
    let mut local = oociso_render::Framebuffer::new(96, 96);
    let camera = oociso_render::Camera::orbiting(&full.bounds(), 0.7, 0.4, 2.5);
    oociso_render::rasterize_mesh(&full, &camera, [0.9, 0.78, 0.5], &mut local);
    assert_eq!(
        frame.framebuffer, local,
        "remote frame differs from local raster"
    );
    assert_eq!(frame.regions.len(), 4);
    assert!(frame.framebuffer.covered_pixels() > 100);

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_and_wrong_version_requests_get_structured_errors() {
    let (dir, server, _direct) = serve_fixture("abuse", 256 << 20);
    let addr = server.addr();
    // encoded at v4 so the payload ends at the lod field (no backend byte,
    // no trace id) — the torn-field cases below append bytes one at a time
    let good_payload = encode_payload_at(
        4,
        &Message::MeshRequest {
            iso: 120.0,
            region: None,
            lod: 0,
            backend: None,
            trace_id: 0,
        },
    );

    // future protocol version → ERR_UNSUPPORTED_VERSION, connection survives
    let mut client = Client::connect(addr).unwrap();
    match client
        .roundtrip_raw(
            oociso_serve::MAGIC,
            oociso_serve::VERSION + 7,
            MSG_MESH_REQUEST,
            &good_payload,
            false,
        )
        .unwrap()
    {
        Some(Message::Error { code, detail, .. }) => {
            assert_eq!(code, ERR_UNSUPPORTED_VERSION, "{detail}");
        }
        other => panic!("expected version error, got {other:?}"),
    }
    // ...and a well-formed request on the same connection still works
    let reply = client.query_mesh(120.0, None).unwrap();
    assert!(!reply.mesh.is_empty());

    // corrupted checksum → ERR_BAD_CHECKSUM
    match client
        .roundtrip_raw(
            oociso_serve::MAGIC,
            oociso_serve::VERSION,
            MSG_MESH_REQUEST,
            &good_payload,
            true,
        )
        .unwrap()
    {
        Some(Message::Error { code, .. }) => assert_eq!(code, ERR_BAD_CHECKSUM),
        other => panic!("expected checksum error, got {other:?}"),
    }

    // truncated request body → ERR_MALFORMED
    match client
        .roundtrip_raw(
            oociso_serve::MAGIC,
            oociso_serve::VERSION,
            MSG_MESH_REQUEST,
            &good_payload[..2],
            false,
        )
        .unwrap()
    {
        Some(Message::Error { code, .. }) => assert_eq!(code, ERR_MALFORMED),
        other => panic!("expected malformed error, got {other:?}"),
    }

    // one byte past the v2 lod field is the v4 backend selector: an unknown
    // id must draw the structured ERR_BAD_BACKEND, while junk beyond the
    // selector is still ERR_MALFORMED — a torn field is never misread
    for (extra, want) in [(1usize, ERR_BAD_BACKEND), (3, ERR_MALFORMED)] {
        let mut torn = good_payload.clone();
        torn.extend(std::iter::repeat_n(0xEEu8, extra));
        match client
            .roundtrip_raw(
                oociso_serve::MAGIC,
                oociso_serve::VERSION,
                MSG_MESH_REQUEST,
                &torn,
                false,
            )
            .unwrap()
        {
            Some(Message::Error { code, .. }) => {
                assert_eq!(code, want, "{extra} trailing bytes")
            }
            other => panic!("expected error for torn request, got {other:?}"),
        }
    }

    // a client sending a server-to-server message type → ERR_MALFORMED
    match client
        .roundtrip_raw(
            oociso_serve::MAGIC,
            oociso_serve::VERSION,
            MSG_MESH_RESPONSE,
            &encode_payload(&Message::MeshResponse {
                cache_hit: false,
                active_metacells: 0,
                served_lod: 0,
                degraded: false,
                backend: 0,
                trace_id: 0,
                mesh: IndexedMesh::new(),
            }),
            false,
        )
        .unwrap()
    {
        Some(Message::Error { code, .. }) => assert_eq!(code, ERR_MALFORMED),
        other => panic!("expected malformed error, got {other:?}"),
    }

    // wrong magic: the server replies (if it can) and hangs up
    let mut bad_magic = Client::connect(addr).unwrap();
    match bad_magic.roundtrip_raw(
        0x0BAD_CAFE,
        oociso_serve::VERSION,
        MSG_MESH_REQUEST,
        &good_payload,
        false,
    ) {
        Ok(Some(Message::Error { code, .. })) => {
            assert_eq!(code, oociso_serve::protocol::ERR_BAD_MAGIC)
        }
        Ok(Some(other)) => panic!("expected error frame, got {other:?}"),
        Ok(None) | Err(_) => {} // hung up before/while replying: acceptable
    }

    // a request claiming a payload over the server's request cap is
    // rejected before any allocation (the header alone cannot commit
    // memory), and that connection is closed
    let mut hostile = Client::connect(addr).unwrap();
    let big = vec![0u8; (oociso_serve::protocol::MAX_REQUEST_PAYLOAD + 1) as usize];
    match hostile.roundtrip_raw(
        oociso_serve::MAGIC,
        oociso_serve::VERSION,
        oociso_serve::protocol::MSG_PING,
        &big,
        false,
    ) {
        Ok(Some(Message::Error { code, detail, .. })) => {
            assert_eq!(code, ERR_MALFORMED, "{detail}");
            assert!(detail.contains("exceeds cap"), "{detail}");
        }
        Ok(Some(other)) => panic!("oversized request accepted: {other:?}"),
        Ok(None) | Err(_) => {} // hung up mid-write: also acceptable
    }

    // a well-formed frame request demanding a multi-gigabyte viewport is
    // refused by the pixel cap
    let mut greedy = Client::connect(addr).unwrap();
    let err = greedy
        .query_frame(
            120.0,
            FrameParams {
                width: 16_384,
                height: 16_384,
                azimuth: 0.0,
                elevation: 0.0,
                distance: 2.0,
                tile_cols: 1,
                tile_rows: 1,
            },
        )
        .unwrap_err();
    assert!(err.to_string().contains("pixel cap"), "{err}");

    // the server is still healthy for new connections after all the abuse
    let mut fresh = Client::connect(addr).unwrap();
    assert!(!fresh.query_mesh(120.0, None).unwrap().mesh.is_empty());
    let s = fresh.stats().unwrap();
    assert!(s.errors >= 4, "abuse must be counted: {s:?}");

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_eviction_under_tiny_budget_still_serves_correct_meshes() {
    // a budget big enough for roughly one mesh: every new isovalue evicts,
    // correctness must be unaffected
    let (dir, server, direct) = serve_fixture("evict", 40 << 10);
    let mut client = Client::connect(server.addr()).unwrap();
    for &iso in &[90.0f32, 120.0, 150.0, 90.0] {
        let reply = client.query_mesh(iso, None).unwrap();
        let truth = direct.extract(iso).unwrap().mesh;
        assert_same_mesh(&reply.mesh, &truth, &format!("iso {iso}"));
    }
    let s = client.stats().unwrap();
    assert!(
        s.cache_evictions > 0 || s.cache_resident_entries <= 1,
        "tiny budget must constrain the cache: {s:?}"
    );
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lod_pyramid_roundtrips_bit_exact_with_exact_per_level_accounting() {
    let (dir, server, direct) = lod_fixture("lod");
    let addr = server.addr();
    let iso = 127.5f32;

    // ground truth: the same post-weld pyramid the server builds
    let (chain, _report) = direct.extract_lods(iso, &LodSpec::pyramid()).unwrap();
    assert_eq!(chain.len(), 3);

    let mut client = Client::connect(addr).unwrap();
    // query level 1 first: its miss extracts the pyramid and caches every
    // level, so levels 0 and 2 are hits afterwards
    let l1 = client.query_mesh_lod(iso, None, 1).unwrap();
    assert!(!l1.cache_hit, "first query of the isovalue cannot hit");
    let l0 = client.query_mesh_lod(iso, None, 0).unwrap();
    assert!(l0.cache_hit, "level 0 was cached by the pyramid build");
    let l2 = client.query_mesh_lod(iso, None, 2).unwrap();
    assert!(l2.cache_hit);
    let l1_again = client.query_mesh_lod(iso, None, 1).unwrap();
    assert!(l1_again.cache_hit);

    // every level crosses the wire bit-exactly
    for (lod, reply) in [(0u16, &l0), (1, &l1), (2, &l2)] {
        let want = &chain.level(lod as usize).unwrap().mesh;
        assert_same_mesh(&reply.mesh, want, &format!("lod {lod}"));
    }
    assert_same_mesh(&l1_again.mesh, &l1.mesh, "cache hit bytes");

    // the pyramid really decimates: budgets respected, topology intact
    let v0 = l0.mesh.num_vertices();
    assert!(l1.mesh.num_vertices() <= (v0 as f64 * 0.25).ceil() as usize);
    assert!(l2.mesh.num_vertices() <= (v0 as f64 * 0.06).ceil() as usize);
    for (lod, reply) in [(0u16, &l0), (1, &l1), (2, &l2)] {
        let topo = oociso_march::analyze_mesh_connectivity(&reply.mesh);
        assert!(topo.is_closed_manifold(), "lod {lod}: {topo:?}");
        assert_eq!(topo.euler_characteristic(), 2, "lod {lod}");
    }

    // out-of-range levels: structured ERR_BAD_LOD, connection survives
    for bad in [3u16, 9] {
        let err = client.query_mesh_lod(iso, None, bad).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("server error {ERR_BAD_LOD}")),
            "lod {bad}: {err}"
        );
    }
    let still = client.query_mesh_lod(iso, None, 2).unwrap();
    assert!(still.cache_hit, "connection must survive bad-lod errors");

    // exact per-level accounting: 1 miss (level 1), then hits 0/2/1/2
    let s = client.stats().unwrap();
    assert_eq!(s.lod_misses, [0, 1, 0, 0], "{s:?}");
    assert_eq!(s.lod_hits, [1, 1, 2, 0], "{s:?}");
    assert_eq!(s.cache_hits, s.lod_hits.iter().sum::<u64>());
    assert_eq!(s.cache_misses, s.lod_misses.iter().sum::<u64>());
    assert_eq!(s.errors, 2, "the two bad-lod requests: {s:?}");
    assert_eq!(s.cache_resident_entries, 3, "one entry per level");

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_lod_ladders_are_rejected_at_bind_not_per_request() {
    let dir = tmpdir("badlods");
    let vol = test_volume();
    let opts = PreprocessOptions {
        nodes: 1,
        ..Default::default()
    };
    let ladder = |lod_ratios: Vec<f64>| ServeOptions {
        lod_ratios,
        ..Default::default()
    };
    for serve_opts in [
        ladder(vec![0.5, 0.6]),             // not decreasing
        ladder(vec![1.5]),                  // out of range
        ladder(vec![f64::NAN]),             // not finite
        ladder(vec![0.0]),                  // zero
        ladder(vec![0.5, 0.25, 0.1, 0.05]), // too many levels
        // no event loop to serve on
        ServeOptions {
            reactor_threads: 0,
            ..Default::default()
        },
    ] {
        let what = format!(
            "lods {:?} on {} event loop(s)",
            serve_opts.lod_ratios, serve_opts.reactor_threads
        );
        let db = ClusterDatabase::preprocess(&vol, &dir, &opts).unwrap();
        match IsoServer::bind(db, ("127.0.0.1", 0), serve_opts) {
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{what}"),
            Ok(server) => {
                server.stop();
                panic!("{what} must be rejected at bind");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_clients_still_get_full_resolution() {
    // a v1 client's mesh request has no lod field and its frames say
    // version 1: the server must decode it as level 0, reply with frames
    // stamped v1, and keep the v1 stats payload layout parseable
    let (dir, server, direct) = lod_fixture("v1compat");
    let iso = 120.0f32;
    let truth = direct.extract(iso).unwrap().mesh;

    // hand-built v1 MeshRequest payload: f32 iso + region flag 0, no lod
    let mut v1_payload = Vec::new();
    v1_payload.extend_from_slice(&iso.to_bits().to_le_bytes());
    v1_payload.push(0);

    let mut client = Client::connect(server.addr()).unwrap();
    match client
        .roundtrip_raw(oociso_serve::MAGIC, 1, MSG_MESH_REQUEST, &v1_payload, false)
        .unwrap()
    {
        Some(Message::MeshResponse { mesh, .. }) => {
            assert_same_mesh(&mesh, &truth, "v1 request must get LOD 0");
        }
        other => panic!("expected a mesh response, got {other:?}"),
    }

    // v1 stats: the reply must parse (11-counter layout) with the per-level
    // arrays absent → zeroed, while aggregates are live
    match client
        .roundtrip_raw(oociso_serve::MAGIC, 1, MSG_STATS_REQUEST, &[], false)
        .unwrap()
    {
        Some(Message::StatsResponse(s)) => {
            assert!(s.cache_misses > 0, "{s:?}");
            assert_eq!(s.lod_hits, [0; 4], "v1 payload carries no lod arrays");
            assert_eq!(s.lod_misses, [0; 4]);
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // ...whereas the v2 view of the same counters has the per-level rows
    let s2 = client.stats().unwrap();
    assert_eq!(s2.lod_misses[0], 1, "{s2:?}");

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn frame_requests_select_lods_by_screen_space_error() {
    // with the pyramid enabled, a frame request rasterizes each tile from
    // the level its projected error budget allows — reproduce the server's
    // choice client-side from the same public selection function and the
    // cached per-level meshes
    let (dir, server, direct) = lod_fixture("lodframe");
    let iso = 127.5f32;
    let (chain, _) = direct.extract_lods(iso, &LodSpec::pyramid()).unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    let params = FrameParams {
        width: 96,
        height: 96,
        azimuth: 0.7,
        elevation: 0.4,
        distance: 2.5,
        tile_cols: 2,
        tile_rows: 2,
    };
    let frame = client.query_frame(iso, params).unwrap();

    // expectation: same camera, same selection, same rasterization
    let bounds = chain.full().bounds();
    let camera = oociso_render::Camera::orbiting(&bounds, 0.7, 0.4, 2.5);
    let tiles = oociso_render::TileLayout::new(2, 2, 96, 96);
    let picks = oociso_render::select_tile_levels(
        &tiles,
        &camera,
        &bounds,
        &chain.world_errors(),
        1.0, // ServeOptions::default().lod_tolerance_px
    );
    let mut expected = Vec::new();
    for (t, &level) in picks.iter().enumerate() {
        let mut fb = oociso_render::Framebuffer::new(96, 96);
        oociso_render::rasterize_mesh(
            &chain.level(level).unwrap().mesh,
            &camera,
            [0.9, 0.78, 0.5],
            &mut fb,
        );
        expected.push(oociso_render::FrameRegion::extract(
            &fb,
            tiles.tile_origin(t),
            tiles.tile_size(),
        ));
    }
    assert_eq!(
        frame.regions, expected,
        "served tiles must match the public per-tile LOD selection"
    );

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ping_echoes_and_measures() {
    let (dir, server, _direct) = serve_fixture("ping", 1 << 20);
    let mut client = Client::connect(server.addr()).unwrap();
    let rtt = client.ping(1024).unwrap();
    assert!(rtt > std::time::Duration::ZERO);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn welded_mesh_roundtrips_bit_exact_and_cache_serves_identical_bytes() {
    // Extraction welds seams by default, so the mesh a client receives must
    // be watertight, bit-identical to the in-process welded extraction, and
    // — because the cache stores the welded result — every later cache hit
    // must hand back the very same bytes.
    let (dir, server, direct) = serve_fixture("welded", 256 << 20);
    let addr = server.addr();
    // half-integer isovalue: crossings stay off the u8 lattice, the sphere
    // is closed, and quantized welding collapses nothing
    let iso = 127.5f32;
    let truth = direct.extract(iso).unwrap().mesh;
    assert!(!truth.is_empty());

    let mut client = Client::connect(addr).unwrap();
    let first = client.query_mesh(iso, None).unwrap();
    assert!(!first.cache_hit, "first query cannot hit");
    assert_same_mesh(&first.mesh, &truth, "served vs in-process weld");

    let topo = oociso_march::analyze_mesh(&first.mesh);
    assert!(topo.is_closed_manifold(), "{topo:?}");
    assert_eq!(topo.components, 1);
    assert_eq!(topo.euler_characteristic(), 2, "{topo:?}");
    assert_eq!(
        topo.vertices,
        first.mesh.num_vertices(),
        "no duplicate seam vertices survive the weld"
    );

    let second = client.query_mesh(iso, None).unwrap();
    assert!(second.cache_hit, "second identical query must hit");
    assert_same_mesh(&second.mesh, &first.mesh, "cache hit bytes");
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Ground-truth SurfaceNets extraction via the library, for comparing
/// against served responses.
fn sn_truth(direct: &ClusterDatabase<u8>, iso: f32) -> IndexedMesh {
    direct
        .extract_with_options(
            iso,
            &ExtractOptions {
                backend: Backend::SurfaceNets,
                ..Default::default()
            },
        )
        .unwrap()
        .mesh
}

#[test]
fn backend_selection_round_trips_with_isolated_cache_slots() {
    let (dir, server, direct) = serve_fixture("backend", 256 << 20);
    let addr = server.addr();
    // half-integer isovalue keeps crossings off the u8 lattice for both
    // backends
    let iso = 127.5f32;

    let mc_truth = direct.extract(iso).unwrap().mesh;
    let sn_truth = sn_truth(&direct, iso);
    assert!(!mc_truth.is_empty() && !sn_truth.is_empty());

    let mut client = Client::connect(addr).unwrap();

    // a selector-less request gets the server default (MC) and says so
    let mc = client.query_mesh(iso, None).unwrap();
    assert!(!mc.cache_hit);
    assert_eq!(mc.backend, Backend::Mc.id());
    assert_same_mesh(&mc.mesh, &mc_truth, "default backend");

    // the same isovalue under SurfaceNets lives in a different cache slot:
    // it must miss, produce the SN surface, and stamp the SN id
    let sn = client
        .query_mesh_backend(iso, None, 0, Backend::SurfaceNets)
        .unwrap();
    assert!(!sn.cache_hit, "per-backend slots must not alias");
    assert_eq!(sn.backend, Backend::SurfaceNets.id());
    assert_same_mesh(&sn.mesh, &sn_truth, "surfacenets");
    let same_geometry = mc.mesh.num_vertices() == sn.mesh.num_vertices()
        && mc
            .mesh
            .positions()
            .iter()
            .zip(sn.mesh.positions())
            .all(|(a, b)| a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits());
    assert!(
        !same_geometry,
        "the two backends must produce distinct surfaces"
    );

    // repeats hit, each from its own slot, bytes unchanged
    let mc2 = client
        .query_mesh_backend(iso, None, 0, Backend::Mc)
        .unwrap();
    assert!(mc2.cache_hit);
    assert_same_mesh(&mc2.mesh, &mc.mesh, "mc cache hit");
    let sn2 = client
        .query_mesh_backend(iso, None, 0, Backend::SurfaceNets)
        .unwrap();
    assert!(sn2.cache_hit);
    assert_same_mesh(&sn2.mesh, &sn.mesh, "sn cache hit");

    // exact per-backend accounting: one miss + one hit each
    let s = client.stats().unwrap();
    assert_eq!(s.backend_misses, [1, 1], "{s:?}");
    assert_eq!(s.backend_hits, [1, 1], "{s:?}");

    // an unknown backend id draws the structured error naming the known
    // ids, and the connection survives
    let bad = encode_payload(&Message::MeshRequest {
        iso,
        region: None,
        lod: 0,
        backend: Some(9),
        trace_id: 0,
    });
    match client
        .roundtrip_raw(
            oociso_serve::MAGIC,
            oociso_serve::VERSION,
            MSG_MESH_REQUEST,
            &bad,
            false,
        )
        .unwrap()
    {
        Some(Message::Error { code, detail, .. }) => {
            assert_eq!(code, ERR_BAD_BACKEND, "{detail}");
            assert!(detail.contains("surfacenets"), "{detail}");
        }
        other => panic!("expected backend error, got {other:?}"),
    }
    assert!(client.query_mesh(iso, None).unwrap().cache_hit);

    // a v3-dialect request (no selector byte on the wire) gets the default
    // backend — old clients keep receiving exactly what they always got
    let mut v3_payload = Vec::new();
    v3_payload.extend_from_slice(&iso.to_bits().to_le_bytes());
    v3_payload.push(0); // no region
    v3_payload.extend_from_slice(&0u16.to_le_bytes()); // lod 0
    match client
        .roundtrip_raw(oociso_serve::MAGIC, 3, MSG_MESH_REQUEST, &v3_payload, false)
        .unwrap()
    {
        Some(Message::MeshResponse { mesh, backend, .. }) => {
            assert_eq!(backend, 0, "a v3 reply carries no backend byte");
            assert_same_mesh(&mesh, &mc_truth, "v3 client");
        }
        other => panic!("expected mesh response, got {other:?}"),
    }

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn server_default_backend_applies_to_selector_less_requests() {
    // a server configured with SurfaceNets as its default serves SN to
    // every client that names no backend — including pre-v4 dialects —
    // while an explicit MC request still reaches the MC slot
    let dir = tmpdir("sndefault");
    let vol = test_volume();
    let opts = PreprocessOptions {
        nodes: 2,
        ..Default::default()
    };
    let served = ClusterDatabase::preprocess(&vol, &dir, &opts).unwrap();
    let direct = ClusterDatabase::<u8>::open(&dir, false).unwrap();
    let server = IsoServer::bind(
        served,
        ("127.0.0.1", 0),
        ServeOptions {
            backend: Backend::SurfaceNets,
            ..Default::default()
        },
    )
    .unwrap();
    let iso = 127.5f32;
    let truth = sn_truth(&direct, iso);

    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client.query_mesh(iso, None).unwrap();
    assert_eq!(reply.backend, Backend::SurfaceNets.id());
    assert_same_mesh(&reply.mesh, &truth, "sn default");

    let mc = client
        .query_mesh_backend(iso, None, 0, Backend::Mc)
        .unwrap();
    assert!(!mc.cache_hit, "MC slot starts cold on an SN-default server");
    assert_eq!(mc.backend, Backend::Mc.id());
    assert_same_mesh(&mc.mesh, &direct.extract(iso).unwrap().mesh, "explicit mc");

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_ids_round_trip_and_journals_serve_traces() {
    let (dir, server, _direct) = serve_fixture("traced", 256 << 20);
    let mut client = Client::connect(server.addr()).unwrap();
    let iso = 120.0f32;

    // a traced cold query: the id is echoed and the retained span tree
    // shows the extraction actually happening under the request root
    let cold = client
        .query_mesh_traced(iso, None, 0, None, 0xDEAD_BEEF)
        .unwrap();
    assert!(!cold.cache_hit);
    assert_eq!(cold.trace_id, 0xDEAD_BEEF, "id echoed on the reply");
    let t = client.trace(0xDEAD_BEEF).unwrap();
    assert!(t.found, "traced request retained in the journal");
    assert_eq!(t.id, 0xDEAD_BEEF);
    assert!(t.total_us > 0);
    let tree = render_trace_events(&t.events);
    for span in ["request", "cache", "extract", "encode"] {
        assert!(tree.contains(span), "cold trace missing `{span}`:\n{tree}");
    }

    // a traced warm query: cache annotate says hit, no extract span
    let warm = client.query_mesh_traced(iso, None, 0, None, 77).unwrap();
    assert!(warm.cache_hit);
    assert_eq!(warm.trace_id, 77);
    let t = client.trace(77).unwrap();
    assert!(t.found);
    let tree = render_trace_events(&t.events);
    assert!(tree.contains("hit=1"), "{tree}");
    assert!(!tree.contains("extract"), "{tree}");

    // id 0 = "latest traced request" = the warm one; unknown ids miss
    let latest = client.trace(0).unwrap();
    assert!(latest.found);
    assert_eq!(latest.id, 77);
    assert!(!client.trace(0xBAD0_BAD0).unwrap().found);

    // an untraced request (trace_id 0 on the wire) does not enter the journal
    let plain = client.query_mesh(iso, None).unwrap();
    assert_eq!(plain.trace_id, 0);
    assert_eq!(
        client.trace(0).unwrap().id,
        77,
        "untraced requests not journaled"
    );

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_exposition_agrees_with_stats() {
    let (dir, server, _direct) = serve_fixture("metrics", 256 << 20);
    let mut client = Client::connect(server.addr()).unwrap();
    let iso = 120.0f32;
    client.query_mesh(iso, None).unwrap(); // miss
    client.query_mesh(iso, None).unwrap(); // hit

    let text = client.metrics().unwrap();
    let line = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
            .unwrap_or_else(|| panic!("metric `{name}` missing from:\n{text}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap_or_else(|_| panic!("metric `{name}` not an integer"))
    };
    // the exposition reads the same counter handles as the stats reply, so
    // the two views can never disagree
    let s = client.stats().unwrap();
    assert_eq!(line("mesh_requests_total"), s.mesh_requests);
    assert_eq!(line("cache_hits_total"), s.cache_hits);
    assert_eq!(line("cache_misses_total"), s.cache_misses);
    assert_eq!(line("connections_total"), s.connections);
    // requests_total on the wire text was sampled before the metrics and
    // stats requests themselves were counted; allow that skew only
    assert!(line("requests_total") >= 2);
    // histograms made it into the exposition with recorded samples
    assert!(
        text.contains("request_latency_us_count"),
        "histogram missing:\n{text}"
    );
    assert!(text.contains("phase_triangulate_us_count"), "{text}");
    // the fixture binds `ServeOptions::default()` (its cache budget is the
    // default one), and the default server runs the event-loop core
    assert!(line("reactor_wakeups_total") >= 1);
    assert_eq!(line("reactor_connections"), 1, "this client's connection");

    // the in-process view matches too
    assert!(server.metrics().contains("mesh_requests_total"));

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pre_v5_dialects_are_served_untraced() {
    let (dir, server, direct) = serve_fixture("prev5", 256 << 20);
    let iso = 120.0f32;
    let truth = direct.extract(iso).unwrap().mesh;
    let mut client = Client::connect(server.addr()).unwrap();

    // the same logical request spoken at v2, v3, and v4 — none carry a
    // trace id, every one gets the full mesh and decodes trace_id as 0,
    // and the connection survives for the next dialect
    let req = Message::MeshRequest {
        iso,
        region: None,
        lod: 0,
        backend: None,
        trace_id: 0xFFFF_FFFF, // must never reach a pre-v5 wire
    };
    for version in 2u16..=4 {
        let payload = encode_payload_at(version, &req);
        match client
            .roundtrip_raw(
                oociso_serve::MAGIC,
                version,
                MSG_MESH_REQUEST,
                &payload,
                false,
            )
            .unwrap()
        {
            Some(Message::MeshResponse { mesh, trace_id, .. }) => {
                assert_eq!(trace_id, 0, "v{version} reply must carry no trace id");
                assert_same_mesh(&mesh, &truth, "pre-v5 dialect");
            }
            other => panic!("v{version}: expected mesh response, got {other:?}"),
        }
    }
    // ...and a v5 traced request on the same connection still works
    let traced = client.query_mesh_traced(iso, None, 0, None, 5).unwrap();
    assert_eq!(traced.trace_id, 5);

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Read one complete raw reply frame (header + payload + checksum) off a
/// progressive delivery's socket.
fn read_raw_frame(stream: &mut std::net::TcpStream) -> Vec<u8> {
    use std::io::Read;
    let mut frame = vec![0u8; HEADER_BYTES];
    stream.read_exact(&mut frame).unwrap();
    let len = u64::from_le_bytes(frame[8..16].try_into().unwrap()) as usize;
    let mut body = vec![0u8; len + 4];
    stream.read_exact(&mut body).unwrap();
    frame.extend_from_slice(&body);
    frame
}

/// Satellite: chunked-response reassembly under a torn stream. The raw
/// bytes of one complete progressive delivery are captured, then replayed
/// truncated at every chunk boundary (±1 byte) and a sweep of mid-frame
/// offsets: reassembly must either complete or fail cleanly — a refinement
/// the callback observed is always a whole, bit-correct level, never a
/// half-applied one.
#[test]
fn progressive_reassembly_survives_truncation_at_every_boundary() {
    let (dir, server, direct) = lod_fixture("prog_torn");
    let iso = 120.0f32;

    // capture one complete delivery, recording where each chunk ends
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    write_frame(
        &mut stream,
        &Message::ProgressiveRequest {
            iso,
            lod: 0,
            backend: None,
            trace_id: 0,
        },
    )
    .unwrap();
    let mut raw: Vec<u8> = Vec::new();
    let mut boundaries: Vec<usize> = Vec::new();
    loop {
        let frame = read_raw_frame(&mut stream);
        raw.extend_from_slice(&frame);
        boundaries.push(raw.len());
        match read_frame(&mut &frame[..]).unwrap() {
            Some(FrameIn::Ok {
                msg: Message::MeshChunk { last, .. },
                ..
            }) => {
                if last {
                    break;
                }
            }
            other => panic!("expected a chunk frame, got {other:?}"),
        }
    }
    server.stop();

    // the intact capture reassembles to the direct extraction
    let mut expected: Vec<(u16, IndexedMesh)> = Vec::new();
    let full = read_progressive_reply(&mut std::io::Cursor::new(&raw[..]), 0, |u| {
        expected.push((u.level, u.mesh.clone()))
    })
    .unwrap();
    assert_eq!(
        expected.iter().map(|e| e.0).collect::<Vec<_>>(),
        vec![2, 1, 0]
    );
    assert_same_mesh(&full.mesh, &direct.extract(iso).unwrap().mesh, "intact");

    // every chunk boundary (and its neighbors), plus a mid-frame sweep
    let mut cuts: Vec<usize> = boundaries
        .iter()
        .flat_map(|&b| [b.saturating_sub(1), b, b + 1])
        .collect();
    cuts.extend((0..raw.len()).step_by(611));
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts.into_iter().filter(|&c| c < raw.len()) {
        let mut seen: Vec<(u16, IndexedMesh)> = Vec::new();
        let mut torn = ChaosStream::new(
            std::io::Cursor::new(&raw[..]),
            ConnFault::TruncateResponse {
                after_bytes: cut as u64,
            },
        );
        let res = read_progressive_reply(&mut torn, 0, |u| seen.push((u.level, u.mesh.clone())));
        assert!(
            res.is_err(),
            "cut at {cut}/{} bytes must surface an error",
            raw.len()
        );
        // whatever arrived before the tear is a clean prefix of the true
        // refinement sequence — complete levels only, bit-exact
        assert!(
            seen.len() < expected.len(),
            "cut {cut}: delivery cannot finish"
        );
        for ((lvl, mesh), (want_lvl, want_mesh)) in seen.iter().zip(&expected) {
            assert_eq!(lvl, want_lvl, "cut {cut}: refinement order");
            assert_same_mesh(mesh, want_mesh, &format!("cut {cut} level {lvl}"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A pre-v6 frame smuggling the v6 progressive message type draws a
/// structured `ERR_MALFORMED` — and the connection survives to serve a
/// well-formed v6 delivery right after.
#[test]
fn pre_v6_frames_cannot_carry_progressive_requests() {
    let (dir, server, _direct) = lod_fixture("prog_v5gate");
    let mut client = Client::connect(server.addr()).unwrap();

    // hand-rolled ProgressiveRequest payload inside a v5 frame
    let mut payload = Vec::new();
    payload.extend_from_slice(&120.0f32.to_le_bytes());
    payload.extend_from_slice(&0u16.to_le_bytes());
    payload.push(0xFF); // BACKEND_DEFAULT
    payload.extend_from_slice(&0u64.to_le_bytes());
    match client
        .roundtrip_raw(MAGIC, 5, MSG_PROGRESSIVE_REQUEST, &payload, false)
        .unwrap()
    {
        Some(Message::Error { code, detail, .. }) => {
            assert_eq!(code, ERR_MALFORMED, "{detail}");
            assert!(detail.contains("v6"), "{detail}");
        }
        other => panic!("expected a structured error, got {other:?}"),
    }

    let mut levels = Vec::new();
    let reply = client
        .query_mesh_progressive(120.0, 0, None, |u| levels.push(u.level))
        .unwrap();
    assert_eq!(levels, vec![2, 1, 0]);
    assert!(!reply.degraded);

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
