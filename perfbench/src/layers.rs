//! The metric tables: every end-to-end metric, every per-layer metric, and
//! the mapping from each layer metric to the end-to-end metric it should
//! move (and the workloads on which its effect is predicted to be nil).
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! directions; the benchmark's tests check that they agree.

use crate::replay::ReplaySummary;
use crate::stats::mean;
use oociso_cluster::{NodeReport, QueryReport, SimulatedTimeModel};
use std::collections::BTreeMap;

/// `(name, unit, better, bounded, meaning)` of each end-to-end metric,
/// reported per workload. Throughput and peak RSS are medians over the
/// run's windows. Bounded metrics are the ones `BENCHMARK.json` gates; the
/// first-chunk figures are in the ledger only, because on `scrub` a visit's
/// first chunk comes either from cache or after an extraction, and their
/// median and p90 swing with the share of each.
#[rustfmt::skip]
pub const END_TO_END: [(&str, &str, &str, bool, &str); 8] = [
    ("setup_s", "s", "lower", true, "median set-up: volume generation, preprocess, server bind, warm-up"),
    ("p50_ms", "ms", "lower", true, "median operation latency (scrub: due -> final level 0)"),
    ("p90_ms", "ms", "lower", true, "90th-percentile operation latency"),
    ("first_p50_ms", "ms", "lower", false, "median time to the first usable mesh of an operation"),
    ("first_p90_ms", "ms", "lower", false, "90th percentile of the same"),
    ("mtris", "MTri/s", "higher", true, "full-resolution triangles produced or delivered per second"),
    ("rps", "req/s", "higher", true, "mesh requests completed per second"),
    ("peak_rss_mb", "MiB", "lower", true, "peak RSS (VmHWM) of the process hosting the server or database"),
];

/// Whether `BENCHMARK.json` bounds end-to-end metric `name`.
pub fn bounded(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.0 == name && m.3)
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub replay: &'a ReplaySummary,
    /// `QueryReport`s the public extraction calls returned for the
    /// workload's (or the replayed) operations.
    pub reports: &'a [QueryReport],
    /// Server counter deltas over the measured workload, and gauges after it
    /// (exposition names).
    pub counters: &'a BTreeMap<String, f64>,
    /// Open-loop lateness of each operation, ms.
    pub late_ms: &'a [f64],
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl LayerInputs<'_> {
    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Mean over the reports of a per-report value.
    fn per_report(&self, f: impl Fn(&QueryReport) -> f64) -> f64 {
        mean(&self.reports.iter().map(f).collect::<Vec<_>>())
    }

    /// Mean over the reports of a value summed over nodes, in ms.
    fn per_report_nodes_ms(&self, f: impl Fn(&NodeReport) -> std::time::Duration) -> f64 {
        self.per_report(|q| q.nodes.iter().map(|n| f(n).as_secs_f64() * 1e3).sum())
    }
}

/// One per-layer metric, what it should move, and how it is computed.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The module whose work the metric measures.
    pub layer: &'static str,
    /// End-to-end metrics (on workloads) a change to this layer should move.
    pub moves: &'static str,
    /// Workloads on which the predicted effect is nil.
    pub nil_on: &'static str,
    pub value: fn(&LayerInputs) -> f64,
}

const SWEEP_P50: &str = "p50_ms on extract_sweep (negligibly)";
const SWEEP: &str = "mtris, p50_ms on extract_sweep";
const WELD: &str = "mtris on extract_sweep; p50_ms on cold_miss";
const CLUSTER: &str = "p90_ms on extract_sweep";
const DECIMATE: &str = "p50_ms, p90_ms on cold_miss; p50_ms on scrub";
const CACHE: &str = "rps on warm_storm; p50_ms and peak_rss_mb on scrub";
const WARM: &str = "p50_ms, first_p90_ms on scrub";
const PROTOCOL: &str = "rps, p50_ms on warm_storm; first_p50_ms on scrub";
const WIRE: &str = "rps, p90_ms on warm_storm";
const STORM: &str = "warm_storm";
const DIAG: &str = "(diagnostic)";

macro_rules! metric {
    ($name:literal, $unit:literal, $better:literal, $layer:literal, $moves:expr, $nil:expr, $value:expr) => {
        LayerMetric {
            name: $name,
            unit: $unit,
            better: $better,
            layer: $layer,
            moves: $moves,
            nil_on: $nil,
            value: $value,
        }
    };
}

/// Times and counts are per replayed operation; the cache, warm, reactor
/// and serve counters are deltas of the server's exposition over the whole
/// measured workload.
#[rustfmt::skip]
pub const PER_LAYER: &[LayerMetric] = &[
    metric!("itree.plan_us", "us", "lower", "itree", SWEEP_P50, STORM, |x| x.replay.ms("itree.plan") * 1e3),
    metric!("itree.active_metacells", "count", "lower", "itree", SWEEP_P50, STORM, |x| x.replay.per_op(x.replay.counts.active_metacells)),
    metric!("exio.retrieval_ms", "ms", "lower", "exio", SWEEP, STORM, |x| x.replay.ms("exio.retrieval")),
    metric!("exio.bytes_read", "bytes", "lower", "exio", SWEEP, STORM, |x| x.replay.per_op(x.replay.counts.bytes_read)),
    metric!("exio.read_calls", "count", "lower", "exio", SWEEP, STORM, |x| x.replay.per_op(x.replay.counts.read_calls)),
    metric!("exio.seeks", "count", "lower", "exio", SWEEP, STORM, |x| x.replay.per_op(x.replay.counts.seeks)),
    metric!("metacell.decode_ms", "ms", "lower", "metacell", "mtris on extract_sweep", STORM, |x| x.replay.ms("metacell.decode")),
    metric!("march.triangulate_ms", "ms", "lower", "march", SWEEP, STORM, |x| x.replay.ms("march.triangulate")),
    metric!("march.cells_visited", "count", "lower", "march", SWEEP, STORM, |x| x.replay.per_op(x.replay.counts.mc.cells_visited)),
    metric!("march.active_cells", "count", "lower", "march", SWEEP, STORM, |x| x.replay.per_op(x.replay.counts.mc.active_cells)),
    metric!("march.active_ratio", "ratio", "higher", "march", SWEEP, STORM, |x| {
        let mc = x.replay.counts.mc;
        ratio(mc.active_cells as f64, mc.cells_visited as f64)
    }),
    metric!("march.triangles", "count", "lower", "march", SWEEP, STORM, |x| x.replay.per_op(x.replay.counts.mc.triangles)),
    metric!("weld.node_ms", "ms", "lower", "march::weld", WELD, STORM, |x| x.replay.ms("weld.node")),
    metric!("weld.merge_ms", "ms", "lower", "march::weld", WELD, STORM, |x| x.replay.ms("weld.merge")),
    metric!("weld.vertices_merged", "count", "lower", "march::weld", WELD, STORM, |x| x.replay.per_op(x.replay.counts.vertices_merged)),
    // the producer's blocked time on the bounded retrieval->triangulation queue
    metric!("cluster.queue_wait_ms", "ms", "lower", "cluster", CLUSTER, STORM, |x| {
        x.per_report_nodes_ms(|n| n.amc_retrieval.saturating_sub(n.retrieval_busy))
    }),
    metric!("cluster.overlap_fraction", "ratio", "higher", "cluster", CLUSTER, STORM, |x| {
        x.per_report(|q| mean(&q.nodes.iter().map(NodeReport::overlap_fraction).collect::<Vec<_>>()))
    }),
    metric!("cluster.triangle_imbalance", "ratio", "lower", "cluster", CLUSTER, STORM, |x| x.per_report(QueryReport::triangle_imbalance)),
    metric!("decimate.l1_ms", "ms", "lower", "march::decimate", DECIMATE, "extract_sweep, warm_storm", |x| x.replay.ms("decimate.l1")),
    metric!("decimate.l2_ms", "ms", "lower", "march::decimate", DECIMATE, "extract_sweep, warm_storm", |x| x.replay.ms("decimate.l2")),
    metric!("decimate.collapses", "count", "lower", "march::decimate", DECIMATE, "extract_sweep, warm_storm", |x| x.replay.per_op(x.replay.counts.collapses)),
    metric!("cache.lookup_us", "us", "lower", "serve::cache", CACHE, "extract_sweep", |x| {
        ratio(x.replay.ms("cache.lookup") * x.replay.ops as f64 * 1e3, x.replay.counts.lookups as f64)
    }),
    metric!("cache.hit_ratio", "ratio", "higher", "serve::cache", CACHE, "extract_sweep", |x| {
        let hits = x.counter("cache_hits_total");
        ratio(hits, hits + x.counter("cache_misses_total"))
    }),
    metric!("cache.evictions", "count", "lower", "serve::cache", CACHE, "extract_sweep", |x| x.counter("cache_evictions_total")),
    metric!("cache.resident_bytes", "bytes", "lower", "serve::cache", CACHE, "extract_sweep", |x| x.counter("cache_resident_bytes")),
    metric!("warm.started", "count", "lower", "serve warmer", WARM, "all others", |x| x.counter("speculative_started_total")),
    metric!("warm.completed", "count", "lower", "serve warmer", WARM, "all others", |x| x.counter("speculative_completed_total")),
    metric!("warm.cancelled", "count", "lower", "serve warmer", WARM, "all others", |x| x.counter("speculative_cancelled_total")),
    // speculative hits per completed warm extraction
    metric!("warm.useful_ratio", "ratio", "higher", "serve warmer", WARM, "all others", |x| {
        ratio(x.counter("speculative_hits_total"), x.counter("speculative_completed_total"))
    }),
    metric!("protocol.encode_ms", "ms", "lower", "serve::protocol", PROTOCOL, "extract_sweep", |x| x.replay.ms("protocol.encode")),
    // client-side decode; 0 on warm_storm, whose generator byte-compares
    metric!("protocol.decode_ms", "ms", "lower", "serve::protocol", PROTOCOL, "extract_sweep", |x| x.replay.ms("protocol.decode")),
    metric!("protocol.reply_bytes", "bytes", "lower", "serve::protocol", PROTOCOL, "extract_sweep", |x| x.replay.per_op(x.replay.counts.reply_bytes)),
    // delta chunk bytes over the full-mesh bytes of the same levels
    metric!("protocol.delta_ratio", "ratio", "lower", "serve::protocol", PROTOCOL, "extract_sweep", |x| {
        let c = x.replay.counts;
        ratio(c.delta_bytes as f64, c.delta_full_bytes as f64)
    }),
    // observed latency minus the replayed server work and client decode
    metric!("wire.transfer_ms", "ms", "lower", "serve::reactor", WIRE, "extract_sweep", |x| x.replay.wire_ms),
    metric!("reactor.wakeups", "count", "lower", "serve::reactor", WIRE, "extract_sweep", |x| x.counter("reactor_wakeups_total")),
    metric!("reactor.backpressure_pauses", "count", "lower", "serve::reactor", WIRE, "extract_sweep", |x| x.counter("reactor_backpressure_pauses_total")),
    metric!("serve.shed", "count", "lower", "serve::reactor", WIRE, "extract_sweep", |x| x.counter("shed_total")),
    metric!("serve.degraded", "count", "lower", "serve::reactor", WIRE, "extract_sweep", |x| x.counter("degraded_total")),
    metric!("gen.late_ms", "ms", "lower", "generator", DIAG, "-", |x| mean(x.late_ms)),
    // summed replayed self time over the observed latency of the same operation
    metric!("replay.coverage", "ratio", "higher", "replay", DIAG, "-", |x| x.replay.coverage),
    // the paper's simulated-time model applied to the QueryReports
    metric!("model.sim_mtris", "MTri/s", "higher", "paper model", DIAG, "-", |x| {
        let model = SimulatedTimeModel::paper();
        let tris: f64 = x.reports.iter().map(|q| q.total_triangles() as f64).sum();
        let secs: f64 = x.reports.iter().map(|q| model.query_time(q, 4, (1024, 1024)).as_secs_f64()).sum();
        ratio(tris / 1e6, secs)
    }),
    metric!("model.sim_retrieval_ms", "ms", "lower", "paper model", DIAG, "-", |x| {
        x.per_report_nodes_ms(|n| SimulatedTimeModel::paper().node_io_time(n))
    }),
    metric!("model.sim_triangulate_ms", "ms", "lower", "paper model", DIAG, "-", |x| {
        x.per_report_nodes_ms(|n| SimulatedTimeModel::paper().node_triangulation_time(n))
    }),
];

/// Every per-layer metric, in [`PER_LAYER`] order.
pub fn per_layer(x: &LayerInputs) -> Vec<(&'static str, f64)> {
    PER_LAYER.iter().map(|l| (l.name, (l.value)(x))).collect()
}

/// Both tables, one metric per line: `kind | name | unit | better | …`.
pub fn mapping_text() -> String {
    let mut out =
        String::from("kind | metric | unit | better | layer | should move | predicted nil on\n");
    for (name, unit, better, bounded, meaning) in END_TO_END {
        let kind = if bounded { "end_to_end" } else { "ledger_only" };
        out.push_str(&format!(
            "{kind} | {name} | {unit} | {better} | - | {meaning} | -\n"
        ));
    }
    for l in PER_LAYER {
        out.push_str(&format!(
            "per_layer | {} | {} | {} | {} | {} | {}\n",
            l.name, l.unit, l.better, l.layer, l.moves, l.nil_on
        ));
    }
    out
}
