//! Shared pieces: the seeded generator, the result collector, run
//! facts and scratch directories.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use acctee_interp::Value;

use crate::stats::Samples;

/// The attestation universe every party of the benchmark shares. It is
/// a deployment identity, not a workload input, so it stays fixed while
/// `--seed` varies the inputs.
pub const ATTEST_SEED: u64 = 0xacc7ee;

/// Socket timeout for every benchmark connection.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How many timed set-ups a run makes before its load and again after
/// it (after one untimed warm-up); `setup_s` is the median of all of
/// them.
pub const SETUPS: usize = 20;

/// SplitMix64 finaliser: the mixing function behind every seeded input.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic value for position `(a, b)` of the stream `seed`.
pub fn draw(seed: u64, a: u64, b: u64) -> u64 {
    mix(mix(mix(seed) ^ a) ^ b.rotate_left(17))
}

/// Worker/connection count: one per core the process may use.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Bit-exact comparison of returned values (floats by bit pattern).
pub fn same_values(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::F32(p), Value::F32(q)) => p.to_bits() == q.to_bits(),
            (Value::F64(p), Value::F64(q)) => p.to_bits() == q.to_bits(),
            _ => x == y,
        })
}

/// Nanoseconds elapsed since `t0`, as a float.
pub fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// Times `f`, returning its value and the elapsed nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ns_since(t0))
}

/// A set of session ids (dense from 1) that counts repeats.
#[derive(Debug, Default)]
pub struct SessionSet {
    words: Vec<u64>,
    /// Ids inserted more than once.
    pub repeats: u64,
    /// Distinct ids.
    pub len: u64,
}

impl SessionSet {
    pub fn insert(&mut self, id: u64) {
        let (w, bit) = ((id / 64) as usize, 1u64 << (id % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1 + w / 2, 0);
        }
        if self.words[w] & bit != 0 {
            self.repeats += 1;
        } else {
            self.words[w] |= bit;
            self.len += 1;
        }
    }

    /// Folds `other` in, counting ids present in both as repeats.
    pub fn merge(&mut self, other: &SessionSet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let both = (*a & b).count_ones() as u64;
            self.repeats += both;
            self.len += (b.count_ones() as u64) - both;
            *a |= b;
        }
        self.repeats += other.repeats;
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run found: the output-check verdict, request counts, and
/// both metric sets.
#[derive(Debug, Default)]
pub struct Report {
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Free-form `key=value` facts printed before the result line.
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// Records a failed output check (the run reports `correct: false`).
    pub fn problem(&mut self, msg: impl Into<String>) {
        if self.problems.len() < 32 {
            self.problems.push(msg.into());
        }
    }

    /// Fails the run unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            let m = msg();
            self.problem(m);
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Notes a timing's sample count and highest supported percentile.
    pub fn note_samples(&mut self, name: &str, s: &Samples) {
        self.note(&format!("{name}.samples"), s.len());
        let top = s
            .highest_supported()
            .map_or("none".to_string(), |p| format!("p{p}"));
        self.note(&format!("{name}.highest_supported_percentile"), top);
        if let Some(q) = s.quartile_spread() {
            self.note(&format!("{name}.quartile_spread"), format!("{q:.4}"));
        }
    }
}

/// Peak resident set of this process in MiB: `VmHWM` from
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` survives `execve`, so
/// under `cargo run` it would report cargo's own peak.)
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Filesystem type of `path`, from `statfs(2)`'s magic number.
pub fn fs_type(path: &Path) -> String {
    use std::os::unix::ffi::OsStrExt;
    #[repr(C)]
    struct StatFs {
        words: [i64; 32],
    }
    extern "C" {
        fn statfs(path: *const std::ffi::c_char, buf: *mut StatFs) -> i32;
    }
    let Ok(c) = std::ffi::CString::new(path.as_os_str().as_bytes()) else {
        return "unknown".into();
    };
    let mut buf = StatFs { words: [0; 32] };
    // SAFETY: `c` is NUL-terminated and `buf` (256 bytes) is larger
    // than `struct statfs` (120 bytes on 64-bit Linux).
    let rc = unsafe { statfs(c.as_ptr(), &mut buf) };
    if rc != 0 {
        return "unknown".into();
    }
    match buf.words[0] as u32 {
        0xef53 => "ext4".into(),
        0x0102_1994 => "tmpfs".into(),
        0x794c_7630 => "overlayfs".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683e => "btrfs".into(),
        0x6573_5546 => "fuse".into(),
        0x6969 => "nfs".into(),
        0x0102_1997 => "9p".into(),
        other => format!("0x{other:x}"),
    }
}

/// A fresh directory under `.bench_out/` in the working directory,
/// removed when dropped.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(name: &str) -> std::io::Result<ScratchDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("state-{}-{name}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where the benchmark writes state directories and span files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_set_counts_repeats_within_and_across_sets() {
        let mut a = SessionSet::default();
        for id in [1, 2, 3, 200, 2] {
            a.insert(id);
        }
        assert_eq!((a.len, a.repeats), (4, 1));
        let mut b = SessionSet::default();
        for id in [4, 200, 1000] {
            b.insert(id);
        }
        a.merge(&b);
        assert_eq!((a.len, a.repeats), (6, 2));
    }
}
