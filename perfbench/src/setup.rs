//! The shared dataset, the served configuration and the repeated set-up.

use crate::stats::Json;
use oociso_core::{ClusterDatabase, PreprocessOptions};
use oociso_serve::{IsoServer, ServeOptions};
use oociso_volume::{Dims3, RmProxy};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// RM proxy time step every workload extracts from.
pub const STEP: u32 = 250;
/// Simulated cluster nodes (disk stripes).
pub const NODES: usize = 2;
/// Metacell vertices per axis (the paper's 9).
pub const METACELL_K: usize = 9;
/// The LOD ladder `oociso serve` builds by default.
pub const LOD_RATIOS: [f64; 2] = [0.25, 0.06];

/// Everything about a run's size: the full benchmark or the smoke check.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub dims: Dims3,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Distinct isovalues `cold_miss` requests.
    pub cold_isos: usize,
    /// Slider stops `scrub` visits, and their spacing in time.
    pub scrub_stops: usize,
    pub scrub_period: Duration,
    /// Operations replayed per workload by a traced run.
    pub replay_ops: usize,
}

impl Scale {
    /// Sized so each percentile a run reports has at least ten samples
    /// beyond p90. `scrub` visits a stop every 700 ms. On a 2-core 2.1 GHz
    /// Xeon a miss with its pyramid takes 150-220 ms on the slider, and the
    /// warmer's extraction of the next stop follows it. At 400 ms the
    /// schedule ran so close to saturation that a slower spell of the host
    /// queued visits behind each other and doubled p90 (367 to 650 ms over
    /// five consecutive runs); at 600 ms whether the warmer was done before
    /// the next stop was due was still a race that moved p90. At 700 ms the
    /// pair fits with room for a host running 1.6 times slower.
    pub fn full() -> Scale {
        Scale {
            dims: Dims3::new(96, 96, 90),
            setups: 3,
            cold_isos: 100,
            scrub_stops: 100,
            scrub_period: Duration::from_millis(700),
            replay_ops: 8,
        }
    }

    /// A tiny volume and a few operations: checks names, units and
    /// verification, not speed.
    pub fn smoke() -> Scale {
        Scale {
            dims: Dims3::new(32, 32, 30),
            setups: 2,
            cold_isos: 6,
            scrub_stops: 8,
            scrub_period: Duration::from_millis(40),
            replay_ops: 3,
        }
    }
}

/// The served configuration. Everything not listed is the library default.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    pub cache_mib: u64,
    pub extraction_slots: Option<u32>,
    pub warm_delta: Option<f32>,
}

impl ServerConfig {
    /// How `oociso serve` runs without flags: reactor core with 2 event
    /// loops, LOD ratios 0.25/0.06, a 256 MiB cache, no slot cap.
    pub const CLI_DEFAULT: ServerConfig = ServerConfig {
        cache_mib: 256,
        extraction_slots: None,
        warm_delta: None,
    };

    pub fn options(&self) -> ServeOptions {
        ServeOptions {
            cache_bytes: self.cache_mib << 20,
            lod_ratios: LOD_RATIOS.to_vec(),
            extraction_slots: self.extraction_slots,
            warm_delta: self.warm_delta,
            reactor_threads: 2,
            reactor_workers: 0,
            outbound_budget: 8 << 20,
            ..Default::default()
        }
    }

    pub fn describe(&self) -> Json {
        Json::obj([
            ("core", Json::str("reactor")),
            ("reactor_threads", Json::Int(2)),
            (
                "lod_ratios",
                Json::Arr(LOD_RATIOS.iter().map(|&r| Json::Num(r)).collect()),
            ),
            ("cache_mib", Json::Int(self.cache_mib)),
            (
                "extraction_slots",
                self.extraction_slots
                    .map_or(Json::str("unbounded"), |n| Json::Int(n.into())),
            ),
            (
                "warm_delta",
                self.warm_delta
                    .map_or(Json::str("off"), |d| Json::Num(d.into())),
            ),
        ])
    }
}

/// Seed of the RM proxy volume: the proxy's default, which `oociso gen`
/// also uses. The volume does not follow the workload seed: from seed to
/// seed the proxy's surfaces differ by about 5 % in triangles and far more
/// in decimation cost, which swamps what a run can resolve. The workload
/// seed drives every request sequence instead.
pub const VOLUME_SEED: u64 = 0x524D_2006;

/// One set-up: a freshly generated and preprocessed database, the server
/// (when the workload is served) and the workload's warm-up state.
pub struct Env<W> {
    pub dir: PathBuf,
    pub db: Option<ClusterDatabase<u8>>,
    pub server: Option<IsoServer>,
    pub warm: W,
}

impl<W> Env<W> {
    /// A second handle on the database, for in-process references.
    pub fn open_db(&self) -> io::Result<ClusterDatabase<u8>> {
        ClusterDatabase::open(&self.dir, true)
    }
}

/// Generate the volume, preprocess it, open it (memory-mapped, as the CLI
/// does), bind the server when `server` is set, and run `warm_up`: the
/// whole of what `setup_s` times. Repeated `scale.setups` times into fresh
/// directories; the last set-up is kept and its predecessors are torn down.
/// Returns the kept environment and each set-up's wall time.
pub fn set_up<W>(
    work: &Path,
    scale: &Scale,
    server: Option<ServerConfig>,
    mut warm_up: impl FnMut(Option<&ClusterDatabase<u8>>, Option<&IsoServer>) -> io::Result<W>,
) -> io::Result<(Env<W>, Vec<f64>)> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..scale.setups {
        if let Some(prev) = kept.take() {
            tear_down(prev);
        }
        let dir = work.join(format!("db{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let vol = RmProxy::with_seed(VOLUME_SEED).volume(STEP, scale.dims);
        let opts = PreprocessOptions {
            metacell_k: METACELL_K,
            nodes: NODES,
            mmap: true,
        };
        drop(ClusterDatabase::preprocess(&vol, &dir, &opts)?);
        drop(vol);
        let db = ClusterDatabase::<u8>::open(&dir, true)?;
        let (db, server) = match server {
            Some(cfg) => (
                None,
                Some(IsoServer::bind(db, "127.0.0.1:0", cfg.options())?),
            ),
            None => (Some(db), None),
        };
        let warm = warm_up(db.as_ref(), server.as_ref())?;
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(Env {
            dir,
            db,
            server,
            warm,
        });
    }
    let env = kept.expect("at least one set-up");
    Ok((env, times))
}

/// Stop the server (joining its threads) and remove the database.
pub fn tear_down<W>(env: Env<W>) {
    if let Some(s) = env.server {
        s.stop();
    }
    drop(env.db);
    let _ = std::fs::remove_dir_all(&env.dir);
}
