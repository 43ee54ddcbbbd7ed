//! Traced replay of measured operations through each layer's public API.
//!
//! A traced run re-executes a sample of the operations it measured, one at
//! a time, calling the same public functions the server and the cluster
//! call — plan, execute the plan over the node's store, decode records,
//! extract blocks, weld, build the LOD chain, look up the result cache,
//! encode and decode frames — with a span around each call. The program is
//! not instrumented: the spans live in the benchmark. Every replayed level-0
//! mesh is checked against the measured one, so the replay provably did the
//! same work.

use crate::setup::{LOD_RATIOS, NODES};
use crate::trace::Recorder;
use oociso_core::ClusterDatabase;
use oociso_exio::{DiskFarm, RecordStore};
use oociso_itree::{execute_plan, MetacellRecordFormat};
use oociso_march::mc::McStats;
use oociso_march::{
    Backend, BackendScratch, BlockDomain, BlockOutput, IndexedMesh, LodChain, MeshWelder,
};
use oociso_metacell::MetacellRecord;
use oociso_serve::protocol::{
    decode_payload, encode_mesh_chunk_frame, encode_mesh_response_frame, HEADER_BYTES,
    MSG_MESH_CHUNK, MSG_MESH_RESPONSE,
};
use oociso_serve::{CachedSurface, ChunkBody, Message, ResultCache, VERSION};
use oociso_volume::{ScalarValue, Volume};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Counts one replayed operation produced at the layer boundaries.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub active_metacells: u64,
    pub bytes_read: u64,
    pub read_calls: u64,
    pub seeks: u64,
    pub mc: McStats,
    pub vertices_merged: u64,
    pub collapses: u64,
    pub lookups: u64,
    pub reply_bytes: u64,
    /// Bytes of the chunks sent as deltas, and what those levels would
    /// have cost as full meshes.
    pub delta_bytes: u64,
    pub delta_full_bytes: u64,
}

pub struct Replayer {
    db: ClusterDatabase<u8>,
    stores: Vec<RecordStore>,
    format: MetacellRecordFormat<u8>,
    cache: ResultCache,
    pub rec: Recorder,
    pub counts: Counts,
}

/// Full-mesh wire bytes of a level (what `encode_mesh_chunk_frame` weighs a
/// delta against).
fn full_bytes(mesh: &IndexedMesh) -> u64 {
    (mesh.num_vertices() * 12 + mesh.indices().len() * 4) as u64
}

/// Split a raw frame into its message type and payload.
pub fn frame_payload(frame: &[u8]) -> io::Result<(u16, &[u8])> {
    if frame.len() < HEADER_BYTES + 4 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "short frame"));
    }
    let msg_type = u16::from_le_bytes([frame[6], frame[7]]);
    Ok((msg_type, &frame[HEADER_BYTES..frame.len() - 4]))
}

impl Replayer {
    /// A replayer over the database in `dir`, with a replica result cache of
    /// the served budget.
    pub fn open(dir: &Path, cache_bytes: u64) -> io::Result<Replayer> {
        let db = ClusterDatabase::<u8>::open(dir, true)?;
        let farm = DiskFarm::new(dir, NODES);
        let stores = (0..NODES)
            .map(|i| farm.open_store(i, true))
            .collect::<io::Result<Vec<_>>>()?;
        let format = MetacellRecordFormat::new(*db.cluster().layout());
        Ok(Replayer {
            db,
            stores,
            format,
            cache: ResultCache::new(cache_bytes),
            rec: Recorder::new(),
            counts: Counts::default(),
        })
    }

    /// The welded full-resolution mesh of `iso`, as
    /// `ClusterDatabase::extract` builds it: per node plan → retrieval →
    /// decode → triangulate → weld, then the cross-node merge weld.
    pub fn extract(&mut self, req: u64, iso: f32) -> io::Result<IndexedMesh> {
        let layout = *self.db.cluster().layout();
        let backend = Backend::Mc.instance::<u8>();
        let sp = self.rec.open(req, "extract");
        let mut node_meshes = Vec::with_capacity(NODES);
        for node in 0..NODES {
            let nsp = self.rec.open(req, "node");
            let tree = &self.db.cluster().trees()[node];
            let plan = self
                .rec
                .span(req, "itree.plan", || tree.plan(u8::query_key(iso)));
            let store = &self.stores[node];
            let io0 = store.device().io_snapshot();
            let mut records: Vec<Vec<u8>> = Vec::new();
            let exec = self.rec.span(req, "exio.retrieval", || {
                execute_plan(&plan, store, &self.format, |_, bytes| {
                    records.push(bytes.to_vec())
                })
            })?;
            let io = store.device().io_snapshot().since(&io0);
            self.counts.active_metacells += exec.records_emitted;
            self.counts.bytes_read += io.bytes_read;
            self.counts.read_calls += io.read_calls;
            self.counts.seeks += io.seeks;
            let decoded: Vec<(u32, Vec<u8>)> = self.rec.span(req, "metacell.decode", || {
                records
                    .iter()
                    .map(|r| {
                        let mut scalars = Vec::new();
                        let (id, _, _) =
                            MetacellRecord::<u8>::decode_scalars_into(r, &layout, &mut scalars);
                        (id, scalars)
                    })
                    .collect()
            });
            let mut mc = McStats::default();
            let parts: Vec<IndexedMesh> = self.rec.span(req, "march.triangulate", || {
                let mut scratch = BackendScratch::new();
                decoded
                    .into_iter()
                    .map(|(id, scalars)| {
                        let (origin, _) = layout.vertex_box(id);
                        let local = Volume::from_vec(layout.cell_dims(id), scalars);
                        let domain = BlockDomain {
                            origin,
                            volume_dims: layout.volume_dims(),
                        };
                        let mut out = BlockOutput::default();
                        mc.merge(&backend.extract_block(
                            &local,
                            iso,
                            &domain,
                            &mut out,
                            &mut scratch,
                        ));
                        out.mesh
                    })
                    .collect()
            });
            self.counts.mc.merge(&mc);
            let (mesh, stats) = self.rec.span(req, "weld.node", || {
                let total = parts.iter().map(IndexedMesh::len).sum();
                let mut mesh = IndexedMesh::with_capacity(total);
                let mut welder = MeshWelder::new();
                for p in &parts {
                    mesh.merge_welded(p, &mut welder);
                }
                let stats = welder.finish(&mesh);
                (mesh, stats)
            });
            self.counts.vertices_merged += stats.vertices_merged();
            node_meshes.push(mesh);
            self.rec.close(nsp);
        }
        self.rec.close(sp);
        let (mesh, stats) = self.rec.span(req, "weld.merge", || {
            let total = node_meshes.iter().map(IndexedMesh::len).sum();
            let mut out = IndexedMesh::with_capacity(total);
            let mut welder = MeshWelder::new();
            for m in &node_meshes {
                out.merge_welded(m, &mut welder);
            }
            let stats = welder.finish(&out);
            (out, stats)
        });
        self.counts.vertices_merged += stats.vertices_merged();
        Ok(mesh)
    }

    /// [`Replayer::extract`] plus the served LOD pyramid.
    pub fn extract_pyramid(&mut self, req: u64, iso: f32) -> io::Result<LodChain> {
        let mesh = self.extract(req, iso)?;
        let sp = self.rec.open(req, "lod");
        let rec = &mut self.rec;
        let mut collapses = 0;
        let chain = LodChain::build_observed(mesh, &LOD_RATIOS, |level, wall, stats| {
            let end = rec.now();
            let name = if level == 1 {
                "decimate.l1"
            } else {
                "decimate.l2"
            };
            rec.record(req, name, wall, end);
            collapses += stats.collapses;
        });
        self.counts.collapses += collapses;
        self.rec.close(sp);
        Ok(chain)
    }

    /// Look up `(iso, lod)` in the replica cache.
    pub fn lookup(
        &mut self,
        req: u64,
        iso: f32,
        lod: u16,
    ) -> Option<std::sync::Arc<CachedSurface>> {
        self.counts.lookups += 1;
        let cache = &mut self.cache;
        self.rec.span(req, "cache.lookup", || {
            cache.get(iso, Backend::Mc.id(), lod)
        })
    }

    /// Insert every level of `chain` into the replica cache.
    pub fn insert(&mut self, req: u64, iso: f32, chain: &LodChain, active: u64) {
        // the server moves its meshes into the cache; the copies here are
        // made outside the span so it times the insertion alone
        let surfaces: Vec<CachedSurface> = chain
            .levels()
            .iter()
            .map(|level| CachedSurface {
                mesh: level.mesh.clone(),
                active_metacells: active,
                world_error: level.cumulative_error.sqrt(),
            })
            .collect();
        let cache = &mut self.cache;
        self.rec.span(req, "cache.insert", || {
            for (lod, surface) in surfaces.into_iter().enumerate() {
                cache.insert(iso, Backend::Mc.id(), lod as u16, surface);
            }
        });
    }

    /// Encode a v6 `MeshResponse` frame, as the server answers a mesh
    /// request.
    pub fn encode_response(
        &mut self,
        req: u64,
        mesh: &IndexedMesh,
        hit: bool,
        lod: u16,
        active: u64,
    ) -> Vec<u8> {
        let frame = self.rec.span(req, "protocol.encode", || {
            encode_mesh_response_frame(hit, active, lod, false, Backend::Mc.id(), 0, mesh, VERSION)
        });
        self.counts.reply_bytes += frame.len() as u64;
        frame
    }

    /// Decode a `MeshResponse` frame, as a decoding client does.
    pub fn decode_response(&mut self, req: u64, frame: &[u8]) -> io::Result<IndexedMesh> {
        let (msg_type, payload) = frame_payload(frame)?;
        debug_assert_eq!(msg_type, MSG_MESH_RESPONSE);
        match self
            .rec
            .span(req, "protocol.decode", || decode_payload(msg_type, payload))?
        {
            Message::MeshResponse { mesh, .. } => Ok(mesh),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a mesh response",
            )),
        }
    }

    /// Encode a progressive delivery of `chain` coarsest level first, each
    /// later level as a delta when that is smaller on the wire.
    pub fn encode_chunks(
        &mut self,
        req: u64,
        chain: &LodChain,
        hit: bool,
        active: u64,
    ) -> Vec<Vec<u8>> {
        let levels = chain.levels();
        let mut frames = Vec::with_capacity(levels.len());
        for lod in (0..levels.len()).rev() {
            let prev = levels.get(lod + 1).map(|l| &l.mesh);
            let mesh = &levels[lod].mesh;
            let frame = self.rec.span(req, "protocol.encode", || {
                encode_mesh_chunk_frame(
                    lod == 0,
                    lod as u16,
                    hit,
                    Backend::Mc.id(),
                    active,
                    0,
                    prev,
                    mesh,
                    VERSION,
                )
            });
            self.counts.reply_bytes += frame.len() as u64;
            frames.push(frame);
        }
        frames
    }

    /// Decode a progressive delivery, applying deltas, as
    /// `read_progressive_reply` does; returns the final level.
    pub fn decode_chunks(&mut self, req: u64, frames: &[Vec<u8>]) -> io::Result<IndexedMesh> {
        let mut prev: Option<IndexedMesh> = None;
        for frame in frames {
            let (msg_type, payload) = frame_payload(frame)?;
            debug_assert_eq!(msg_type, MSG_MESH_CHUNK);
            let rec = &mut self.rec;
            let (mesh, delta) = rec.span(req, "protocol.decode", || -> io::Result<_> {
                match decode_payload(msg_type, payload)? {
                    Message::MeshChunk {
                        body: ChunkBody::Full(m),
                        ..
                    } => Ok((m, false)),
                    Message::MeshChunk {
                        body: ChunkBody::Delta(d),
                        ..
                    } => prev
                        .as_ref()
                        .and_then(|p| d.apply(p))
                        .map(|m| (m, true))
                        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad delta")),
                    _ => Err(io::Error::new(io::ErrorKind::InvalidData, "not a chunk")),
                }
            })?;
            if delta {
                self.counts.delta_bytes += frame.len() as u64;
                self.counts.delta_full_bytes += full_bytes(&mesh);
            }
            prev = Some(mesh);
        }
        prev.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty delivery"))
    }

    /// Replay each picked operation `(request id, observed ms, work)` inside
    /// an `op` span; `replay` returns whether the replay reproduced the
    /// measured output. Times and counts come back per operation.
    pub fn run<T>(
        &mut self,
        picks: &[(u64, f64, T)],
        mut replay: impl FnMut(&mut Replayer, u64, &T) -> io::Result<bool>,
    ) -> io::Result<ReplaySummary> {
        self.counts = Counts::default();
        let (mut wire, mut coverage, mut faithful) = (0.0, 0.0, true);
        for (req, observed_ms, work) in picks {
            let id = self.rec.open(*req, "op");
            faithful &= replay(self, *req, work)?;
            self.rec.close(id);
            let replayed_ms = crate::stats::ms(self.rec.duration(id));
            wire += (observed_ms - replayed_ms).max(0.0);
            coverage += replayed_ms / observed_ms.max(1e-9);
        }
        let n = picks.len().max(1) as f64;
        let by_name_ms = self
            .rec
            .self_by_name(|r| picks.iter().any(|p| p.0 == r))
            .into_iter()
            .map(|(k, v)| (k, crate::stats::ms(v) / n))
            .collect();
        Ok(ReplaySummary {
            ops: picks.len(),
            by_name_ms,
            counts: self.counts,
            wire_ms: wire / n,
            coverage: coverage / n,
            faithful,
        })
    }
}

/// Per-operation means over the replayed operations.
pub struct ReplaySummary {
    pub ops: usize,
    /// Self time per span name, ms per operation.
    pub by_name_ms: BTreeMap<&'static str, f64>,
    /// Counts summed over the replayed operations.
    pub counts: Counts,
    /// Observed latency not covered by the replayed work (socket transfer
    /// and queueing), ms per operation.
    pub wire_ms: f64,
    /// Replayed time over observed latency, averaged over operations.
    pub coverage: f64,
    /// Every replay reproduced its operation's output.
    pub faithful: bool,
}

impl ReplaySummary {
    /// Per-operation self time of span `name` in ms (0 when absent).
    pub fn ms(&self, name: &str) -> f64 {
        self.by_name_ms.get(name).copied().unwrap_or(0.0)
    }

    /// A count summed over the replay, per operation.
    pub fn per_op(&self, total: u64) -> f64 {
        total as f64 / self.ops.max(1) as f64
    }

    /// Self time per layer (span-name prefix; the `op`/`extract`/`node`/
    /// `lod` containers are `glue`), plus the uncovered `wire` remainder,
    /// in ms per operation.
    pub fn by_layer_ms(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (name, v) in &self.by_name_ms {
            let layer = name.split_once('.').map_or("glue", |(l, _)| l);
            *out.entry(layer.to_string()).or_insert(0.0) += v;
        }
        out.insert("wire".to_string(), self.wire_ms);
        out
    }
}
