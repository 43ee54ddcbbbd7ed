//! Small numeric and output helpers: percentiles, a seeded RNG, a content
//! hash for mesh verification, and a minimal JSON writer (the workspace is
//! offline, so no serde).

use oociso_march::IndexedMesh;
use std::fmt::Write as _;
use std::time::Duration;

/// Nearest-rank percentile (`q` in `(0, 1]`) of `values`; 0 for an empty
/// slice. With 100 samples, `q = 0.9` is the 90th smallest, leaving ten
/// samples beyond it.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `values` (nearest-rank, like [`percentile`]).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// splitmix64: every input sequence of the benchmark derives from one seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `n` distinct isovalues on the half-unit grid of `[lo, hi]`, one drawn
/// from each of `n` equal strata of the grid, in seeded random order.
/// Stratifying keeps the mix of surface sizes, and so the latency
/// distribution, alike from seed to seed; the seed still picks every value
/// and the order.
pub fn stratified_isos(rng: &mut Rng, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    let steps = ((hi - lo) * 2.0) as usize + 1;
    assert!(
        n <= steps,
        "{n} distinct isovalues do not fit in [{lo}, {hi}]"
    );
    let mut isos: Vec<f32> = (0..n)
        .map(|i| {
            let (a, b) = (i * steps / n, (i + 1) * steps / n);
            lo + 0.5 * (a + rng.below(b - a)) as f32
        })
        .collect();
    rng.shuffle(&mut isos);
    isos
}

/// FNV-1a over a mesh's positions and indices: two meshes hash equal iff
/// (up to 64-bit collisions) they are bit-identical. Lets the generator
/// keep a fingerprint per reply instead of every served mesh, so verifying
/// does not inflate the measured process's memory.
pub fn mesh_hash(mesh: &IndexedMesh) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            h ^= u64::from_le_bytes(w);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    };
    eat(&(mesh.num_vertices() as u64).to_le_bytes());
    for p in mesh.positions() {
        for c in [p.x, p.y, p.z] {
            eat(&c.to_bits().to_le_bytes());
        }
    }
    for i in mesh.indices() {
        eat(&i.to_le_bytes());
    }
    h
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset this process's `VmHWM` to its current RSS, so the next
/// [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() {
    // best effort: without the reset the peak covers a longer span
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A JSON value, just rich enough for the ledger record.
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // non-finite values are not JSON; they only arise from empty
            // denominators, which the callers already map to 0
            Json::Num(v) if !v.is_finite() => out.push_str("null"),
            Json::Num(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_a_tenth_beyond_p90() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn stratified_isos_are_distinct_and_in_range() {
        let mut rng = Rng::new(7, 1);
        let mut isos = stratified_isos(&mut rng, 100, 10.0, 210.0);
        assert!(isos.iter().all(|&v| (10.0..=210.0).contains(&v)));
        isos.sort_by(f32::total_cmp);
        isos.dedup();
        assert_eq!(isos.len(), 100);
    }

    #[test]
    fn json_escapes_strings() {
        let j = Json::obj([("a\"b", Json::str("x\ny")), ("n", Json::Int(3))]);
        assert_eq!(j.render(), r#"{"a\"b":"x\ny","n":3}"#);
    }
}
