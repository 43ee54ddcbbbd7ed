//! Serving-core tests: pipelining order and byte-equivalence with
//! sequential delivery, burst accepts, torn-frame safety under write
//! stalls, outbound backpressure, and the 512-connection pipelining storm.
//!
//! The equivalence test intentionally compares **raw reply bytes** between
//! pipelined and sequential delivery — the contract is not "similar"
//! responses, but the same bytes in request order.

use oociso_core::{ClusterDatabase, PreprocessOptions};
use oociso_march::IndexedMesh;
use oociso_serve::protocol::{
    read_frame, write_frame, FrameIn, HEADER_BYTES, MSG_MESH_CHUNK, MSG_MESH_RESPONSE, MSG_PONG,
};
use oociso_serve::{
    ChaosProxy, Client, ClientOptions, ConnFault, FrameParams, IsoServer, Message, ServeOptions,
};
use oociso_volume::field::{FieldExt, SphereField};
use oociso_volume::{Dims3, Volume};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oociso_reactor_{}_{}", std::process::id(), name));
    p
}

fn test_volume() -> Volume<u8> {
    SphereField::centered(0.32, 128.0).sample(Dims3::cube(29))
}

fn bind(name: &str, opts: ServeOptions) -> (PathBuf, IsoServer) {
    let dir = tmpdir(name);
    let vol = test_volume();
    let served = ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    let server = IsoServer::bind(served, ("127.0.0.1", 0), opts).unwrap();
    (dir, server)
}

fn frame_params() -> FrameParams {
    FrameParams {
        width: 64,
        height: 64,
        azimuth: 0.6,
        elevation: 0.3,
        distance: 2.5,
        tile_cols: 2,
        tile_rows: 2,
    }
}

/// The 8-request interleaved pipeline of the equivalence scenario:
/// mesh/frame/stats (and a ping) with distinct v5 trace ids.
fn pipeline_requests(iso: f32) -> Vec<Message> {
    vec![
        Message::MeshRequest {
            iso,
            region: None,
            lod: 0,
            backend: None,
            trace_id: 0xA1,
        },
        Message::FrameRequest {
            iso,
            params: frame_params(),
            trace_id: 0xA2,
        },
        Message::StatsRequest,
        Message::MeshRequest {
            iso,
            region: None,
            lod: 0,
            backend: None,
            trace_id: 0xA3,
        },
        Message::FrameRequest {
            iso,
            params: frame_params(),
            trace_id: 0xA4,
        },
        Message::StatsRequest,
        Message::Ping {
            payload: vec![7u8; 512],
        },
        Message::MeshRequest {
            iso,
            region: None,
            lod: 0,
            backend: None,
            trace_id: 0,
        },
    ]
}

fn decode_reply(raw: &[u8]) -> Message {
    match read_frame(&mut &raw[..]).unwrap() {
        Some(FrameIn::Ok { msg, .. }) => msg,
        other => panic!("undecodable reply frame: {other:?}"),
    }
}

/// 8 interleaved v5 mesh/frame/stats requests pipelined on one
/// connection come back in order and byte-identical to the same requests
/// issued sequentially on fresh connections: warm the cache, issue the 8
/// pipelined, then each alone, and cross-check.
#[test]
fn pipelined_replies_in_order_and_byte_identical_to_sequential() {
    let iso = 120.0f32;
    let (dir, server) = bind("equiv", ServeOptions::default());
    let addr = server.addr();
    // warm: after this, every mesh/frame request below is a cache hit in
    // both delivery orders, so replies carry identical cache_hit bits
    Client::connect(addr)
        .unwrap()
        .query_mesh(iso, None)
        .unwrap();

    let requests = pipeline_requests(iso);
    let pipelined = Client::connect(addr)
        .unwrap()
        .pipeline_raw(&requests)
        .unwrap();
    assert_eq!(pipelined.len(), requests.len());

    // sequential baseline: each request alone on a fresh connection
    let sequential: Vec<Vec<u8>> = requests
        .iter()
        .map(|req| {
            Client::connect(addr)
                .unwrap()
                .pipeline_raw(std::slice::from_ref(req))
                .unwrap()
                .remove(0)
        })
        .collect();

    for (i, req) in requests.iter().enumerate() {
        match req {
            // stats responses cannot be byte-identical across delivery
            // modes: the connection/request counters necessarily differ
            // between "one pipelined connection" and "eight fresh ones".
            // Compare the fields the scenario does pin.
            Message::StatsRequest => {
                let (a, b) = (decode_reply(&pipelined[i]), decode_reply(&sequential[i]));
                let (Message::StatsResponse(p), Message::StatsResponse(s)) = (a, b) else {
                    panic!("slot {i}: stats reply expected");
                };
                for (r, mode) in [(p, "pipelined"), (s, "sequential")] {
                    assert_eq!(r.shed, 0, "{mode} slot {i}");
                    assert_eq!(r.timed_out, 0, "{mode} slot {i}");
                    assert_eq!(r.errors, 0, "{mode} slot {i}");
                    assert_eq!(r.degraded, 0, "{mode} slot {i}");
                    // active_connections is NOT compared: a just-closed
                    // fresh connection may linger until its handler
                    // notices the EOF, so the gauge is timing-dependent
                }
            }
            _ => assert_eq!(
                pipelined[i], sequential[i],
                "slot {i}: pipelined reply must be byte-identical to its \
                 sequential twin"
            ),
        }
        // in-order delivery is observable through the trace-id echo
        let echoed = match decode_reply(&pipelined[i]) {
            Message::MeshResponse { trace_id, .. } => Some(trace_id),
            Message::FrameResponse { trace_id, .. } => Some(trace_id),
            _ => None,
        };
        let sent = match req {
            Message::MeshRequest { trace_id, .. } => Some(*trace_id),
            Message::FrameRequest { trace_id, .. } => Some(*trace_id),
            _ => None,
        };
        assert_eq!(echoed, sent, "slot {i}: trace id echo out of order");
    }
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: a burst of simultaneous connects is accepted by
/// draining the whole backlog per wakeup (`accept_burst`). An accept loop
/// that took one connection per 2 ms park would need >= 190 ms for 96
/// connections; draining to `WouldBlock` admits them all in a couple of
/// wakeups.
#[test]
fn burst_connect_drains_backlog_per_wakeup() {
    let (dir, server) = bind("burst", ServeOptions::default());
    let addr = server.addr();
    let n = 96usize;
    let streams: Vec<TcpStream> = (0..n).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let t0 = Instant::now();
    let deadline = Duration::from_secs(5);
    while (server.report().active_connections as usize) < n {
        assert!(
            t0.elapsed() < deadline,
            "only {}/{n} accepted after {deadline:?}",
            server.report().active_connections
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(150),
        "backlog of {n} took {elapsed:?} to accept — not drained per wakeup"
    );
    drop(streams);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Walk `received` as a sequence of reply frames: every frame must be
/// complete except possibly the last, and nothing may follow a partial
/// one. Returns (complete, partial_bytes).
fn assert_no_torn_interleaving(received: &[u8]) -> (usize, usize) {
    let mut off = 0usize;
    let mut complete = 0usize;
    while off < received.len() {
        let rest = received.len() - off;
        if rest < HEADER_BYTES {
            return (complete, rest); // partial header ends the stream
        }
        let len = u64::from_le_bytes(received[off + 8..off + 16].try_into().unwrap()) as usize;
        let total = HEADER_BYTES + len + 4;
        if rest < total {
            return (complete, rest); // partial frame ends the stream
        }
        off += total;
        complete += 1;
    }
    (complete, 0)
}

/// Freeze a socket's receive buffer at `bytes`, disabling receiver-side
/// autotuning. Without this, Linux grows the unread client's window toward
/// `tcp_rmem[2]` (32 MB on some hosts) and the server's "stalled" write
/// keeps trickling — the deadline under test measures *zero* progress.
fn clamp_rcvbuf(stream: &TcpStream, bytes: i32) {
    use std::os::fd::AsRawFd;
    let (sol_socket, so_rcvbuf) = SOCKOPT_RCVBUF;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            val: *const core::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    // SAFETY: the fd is open for the call and `bytes` is a live i32 whose
    // size is passed as the option length.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            sol_socket,
            so_rcvbuf,
            (&bytes as *const i32).cast(),
            4,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

/// `(SOL_SOCKET, SO_RCVBUF)`: the BSD values on macOS and the BSDs, the
/// Linux ones elsewhere.
#[cfg(any(
    target_vendor = "apple",
    target_os = "freebsd",
    target_os = "openbsd",
    target_os = "netbsd",
    target_os = "dragonfly"
))]
const SOCKOPT_RCVBUF: (i32, i32) = (0xffff, 0x1002);
#[cfg(not(any(
    target_vendor = "apple",
    target_os = "freebsd",
    target_os = "openbsd",
    target_os = "netbsd",
    target_os = "dragonfly"
)))]
const SOCKOPT_RCVBUF: (i32, i32) = (1, 8);

/// Satellite audit pin: when the peer stops reading and the write deadline
/// fires, the connection is cut — a partially written response frame is
/// never followed by bytes of another reply.
#[test]
fn write_stall_is_cut_without_torn_frame() {
    let (dir, server) = bind(
        "stall",
        ServeOptions {
            write_timeout: Some(Duration::from_millis(150)),
            read_timeout: Some(Duration::from_secs(30)),
            // keep backpressure out of the picture: this scenario is about
            // the write deadline, not the outbound budget
            outbound_budget: 1 << 30,
            ..Default::default()
        },
    );
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    clamp_rcvbuf(&stream, 128 * 1024);
    stream
        .set_write_timeout(Some(Duration::from_secs(2)))
        .unwrap();

    // pipeline far more reply bytes than the (clamped) socket buffers can
    // hold, and do not read any of them: the server's write must stall
    // mid-frame with zero progress until the deadline cuts it
    let requests = 48usize;
    let frame = oociso_serve::protocol::encode_frame(&Message::Ping {
        payload: vec![0x5A; 512 * 1024],
    });
    let mut sent_all = true;
    for _ in 0..requests {
        if stream.write_all(&frame).is_err() {
            // the server already cut us off — expected, stop sending
            sent_all = false;
            break;
        }
    }
    // wait for the server to cut the stalled connection (it may still be
    // chewing through the pipelined backlog before its first write blocks)
    let t0 = Instant::now();
    while server.report().timed_out == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "write deadline never fired"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut received = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => received.extend_from_slice(&buf[..n]),
            Err(_) => break, // reset counts as the end of the stream too
        }
    }
    let (complete, partial) = assert_no_torn_interleaving(&received);
    assert!(
        complete < requests,
        "all {requests} replies flushed — the stall never happened \
         (got {complete} complete, {partial} partial bytes, sent_all={sent_all})"
    );
    let report = server.stop();
    assert_eq!(report.timed_out, 1, "the cut is counted");
    std::fs::remove_dir_all(&dir).ok();
}

/// Tentpole: a client that pipelines requests faster than it reads replies
/// trips the outbound byte budget — the reactor pauses *reading* that
/// connection (never dropping or reordering anything) and resumes once the
/// queue drains. Every reply still arrives, intact and in order.
#[test]
fn backpressure_pauses_reads_and_every_reply_survives() {
    let (dir, server) = bind(
        "backpressure",
        ServeOptions {
            outbound_budget: 64 * 1024,
            ..Default::default()
        },
    );
    let addr = server.addr();
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let requests = 32usize;
    let payload_len = 512 * 1024usize;

    let writer = {
        let mut half = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            for i in 0..requests {
                let frame = oociso_serve::protocol::encode_frame(&Message::Ping {
                    payload: vec![i as u8; payload_len],
                });
                half.write_all(&frame).unwrap();
            }
        })
    };
    // let the writer run ahead so replies pile into the outbound queue
    // beyond the 64 KiB budget before any are drained
    std::thread::sleep(Duration::from_millis(300));

    let mut reader = stream;
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for i in 0..requests {
        match read_frame(&mut reader).unwrap() {
            Some(FrameIn::Ok {
                msg: Message::Pong { payload },
                ..
            }) => {
                assert_eq!(payload.len(), payload_len, "reply {i}");
                assert!(
                    payload.iter().all(|&b| b == i as u8),
                    "reply {i} out of order or corrupted"
                );
            }
            other => panic!("reply {i}: expected a pong, got {other:?}"),
        }
    }
    writer.join().unwrap();

    let metrics = server.metrics();
    let pauses: u64 = metrics
        .lines()
        .find(|l| l.starts_with("reactor_backpressure_pauses_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("pause counter missing from metrics:\n{metrics}"));
    assert!(pauses >= 1, "the budget was never hit (pauses = {pauses})");
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Tentpole acceptance: 512 concurrent pipelining connections, every reply
/// correct and in order — and with all 512 still connected, warm-cache
/// latency keeps p99 under 25 ms (no tick quantization: the event loop
/// reacts to request arrival, not to a poll interval).
#[test]
fn storm_512_pipelining_connections_warm_p99_under_25ms() {
    let iso = 120.0f32;
    let (dir, server) = bind("storm512", ServeOptions::default());
    let addr = server.addr();
    Client::connect(addr)
        .unwrap()
        .query_mesh(iso, None)
        .unwrap();

    let conns = 512usize;
    let mut clients: Vec<Client> = (0..conns)
        .map(|_| {
            Client::connect_with(
                addr,
                ClientOptions {
                    request_timeout: Some(Duration::from_secs(60)),
                    ..Default::default()
                },
            )
            .unwrap()
        })
        .collect();

    // phase 1: every connection pipelines a mixed batch concurrently
    std::thread::scope(|scope| {
        for chunk in clients.chunks_mut(64) {
            scope.spawn(move || {
                for (i, client) in chunk.iter_mut().enumerate() {
                    let batch = vec![
                        Message::Ping {
                            payload: vec![i as u8; 256],
                        },
                        Message::MeshRequest {
                            iso,
                            region: None,
                            lod: 0,
                            backend: None,
                            trace_id: 1 + i as u64,
                        },
                        Message::StatsRequest,
                    ];
                    let replies = client.pipeline(&batch).unwrap();
                    match &replies[0] {
                        Message::Pong { payload } => {
                            assert!(payload.iter().all(|&b| b == i as u8))
                        }
                        other => panic!("slot 0: {other:?}"),
                    }
                    match &replies[1] {
                        Message::MeshResponse {
                            cache_hit,
                            trace_id,
                            ..
                        } => {
                            assert!(*cache_hit, "storm runs warm");
                            assert_eq!(*trace_id, 1 + i as u64);
                        }
                        other => panic!("slot 1: {other:?}"),
                    }
                    assert!(matches!(&replies[2], Message::StatsResponse(_)));
                }
            });
        }
    });

    // phase 2: with all 512 connections still open, warm-hit latency —
    // one timed request per connection, p99 must clear the old 25 ms
    // tick floor with room to spare
    let mesh_req = [Message::MeshRequest {
        iso,
        region: None,
        lod: 0,
        backend: None,
        trace_id: 0,
    }];
    let mut lat: Vec<Duration> = clients
        .iter_mut()
        .map(|c| {
            let t0 = Instant::now();
            c.pipeline_raw(&mesh_req).unwrap();
            t0.elapsed()
        })
        .collect();
    lat.sort();
    let p99 = lat[(conns * 99) / 100 - 1];
    assert!(
        p99 < Duration::from_millis(25),
        "warm-cache p99 {p99:?} across {conns} live connections — \
         quantized or queue-bound"
    );
    drop(clients);
    let report = server.stop();
    assert_eq!(report.timed_out, 0);
    assert_eq!(report.shed, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite pin: a response stream stalled *inside the 16-byte response
/// header* (8 bytes in) trips the client deadline; the retrying client
/// redials and converges on the second connection with a bit-correct
/// reply.
#[test]
fn stall_inside_response_header_retry_converges() {
    let iso = 120.0f32;
    let (dir, server) = bind("hdrstall", ServeOptions::default());
    let mut direct = Client::connect(server.addr()).unwrap();
    let truth = direct.query_mesh(iso, None).unwrap();

    let proxy = ChaosProxy::start(
        server.addr(),
        vec![
            ConnFault::Stall {
                after_bytes: 8, // mid-header: client holds a torn prefix
                pause: Duration::from_millis(700),
            },
            ConnFault::Clean,
        ],
    )
    .unwrap();
    let mut client = Client::connect_with(
        proxy.addr(),
        ClientOptions {
            request_timeout: Some(Duration::from_millis(150)),
            retries: 3,
            backoff: Duration::from_millis(10),
            ..Default::default()
        },
    )
    .unwrap();
    let reply = client.query_mesh(iso, None).unwrap();
    assert_eq!(
        reply.mesh.positions().len(),
        truth.mesh.positions().len(),
        "converged reply must be the real mesh"
    );
    assert_eq!(reply.mesh.indices(), truth.mesh.indices());
    assert_eq!(proxy.connections(), 2, "torn attempt + converging redial");
    proxy.stop();
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
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

/// Tentpole: a progressive (v6) delivery streams the LOD pyramid coarsest
/// first — cold (one extraction feeds all chunks) and warm (all cache
/// hits) — with every refinement bit-identical to the plain per-level
/// query, and strict reply ordering around pipelined neighbors.
#[test]
fn progressive_delivery_streams_coarse_to_fine_in_order() {
    let (dir, server) = bind(
        "prog",
        ServeOptions {
            lod_ratios: vec![0.25, 0.06],
            ..Default::default()
        },
    );
    let addr = server.addr();
    let iso = 120.0f32;
    let mut client = Client::connect(addr).unwrap();

    // cold: nothing resident, every level rides the one fresh extraction
    let mut cold: Vec<(u16, bool, IndexedMesh)> = Vec::new();
    let reply = client
        .query_mesh_progressive(iso, 0, None, |u| {
            cold.push((u.level, u.cache_hit, u.mesh.clone()))
        })
        .unwrap();
    assert!(!reply.degraded);
    assert_eq!(reply.served_lod, 0);
    assert_eq!(
        cold.iter().map(|c| c.0).collect::<Vec<_>>(),
        vec![2, 1, 0],
        "coarsest first, strictly refining"
    );
    assert!(
        cold.iter().all(|c| !c.1),
        "cold chunks cannot be cache hits"
    );
    assert_same_mesh(&cold[2].2, &reply.mesh, "final refinement is the reply");

    // each streamed level is bit-identical to the plain per-level query
    // (cache hits now: the delivery populated the pyramid)
    for (level, _, mesh) in &cold {
        let plain = client.query_mesh_lod(iso, None, *level).unwrap();
        assert!(plain.cache_hit, "level {level} resident");
        assert_same_mesh(mesh, &plain.mesh, &format!("level {level}"));
    }

    // warm: a second delivery streams entirely from cache
    let mut warm_hits = Vec::new();
    let again = client
        .query_mesh_progressive(iso, 0, None, |u| warm_hits.push(u.cache_hit))
        .unwrap();
    assert_eq!(warm_hits, vec![true; 3], "warm delivery all hits");
    assert!(again.cache_hit);
    assert_same_mesh(&again.mesh, &reply.mesh, "warm delivery");

    // strict per-connection ordering: a progressive request pipelined
    // between two plain requests keeps all five reply frames in order
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(
            &mut stream,
            &Message::MeshRequest {
                iso,
                region: None,
                lod: 2,
                backend: None,
                trace_id: 0,
            },
        )
        .unwrap();
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
        write_frame(
            &mut stream,
            &Message::Ping {
                payload: vec![9u8; 32],
            },
        )
        .unwrap();
        let mut kinds = Vec::new();
        for _ in 0..5 {
            match read_frame(&mut stream).unwrap().unwrap() {
                FrameIn::Ok { msg, .. } => kinds.push(msg.msg_type()),
                other => panic!("violation mid-pipeline: {other:?}"),
            }
        }
        assert_eq!(
            kinds,
            vec![
                MSG_MESH_RESPONSE,
                MSG_MESH_CHUNK,
                MSG_MESH_CHUNK,
                MSG_MESH_CHUNK,
                MSG_PONG
            ],
            "replies must stay in request order around the stream"
        );
    }
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
