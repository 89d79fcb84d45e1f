//! Host fingerprint and process memory readings.
//!
//! Every result records the machine it ran on, so `compare` can refuse
//! to set a 1-core run against a 2-core one and call the difference a
//! regression.

use std::fmt::Write as _;

/// What identifies the measuring machine and build. `git_rev` is
/// provenance only: two commits on one host are comparable.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2: String,
    pub l3: String,
    pub rustflags: String,
    pub rustc: String,
    pub git_rev: String,
}

impl Fingerprint {
    /// Read the fingerprint of this process's host and build.
    pub fn of_host() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| {
                l.strip_prefix("model name")
                    .and_then(|r| r.split(':').nth(1))
            })
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpu_model,
            l2: cache_size(2),
            l3: cache_size(3),
            rustflags: env!("PERFBENCH_RUSTFLAGS").to_string(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            git_rev: git_rev(),
        }
    }

    /// The fields that must match for two results to be comparable,
    /// as `(name, value)` pairs.
    pub fn host_key(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("cpu_model", self.cpu_model.clone()),
            ("l2", self.l2.clone()),
            ("l3", self.l3.clone()),
            ("rustflags", self.rustflags.clone()),
            ("rustc", self.rustc.clone()),
        ]
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let mut fields = self.host_key();
        fields.push(("git_rev", self.git_rev.clone()));
        for (i, (k, v)) in fields.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{k}\":\"{}\"", json_escape(v));
        }
        s.push('}');
        s
    }

    /// Rebuild a fingerprint from a parsed result record.
    pub fn from_json(v: &cuszi_profile::minjson::Value) -> Option<Fingerprint> {
        let s = |k: &str| v.get(k).and_then(|x| x.as_str()).map(str::to_string);
        Some(Fingerprint {
            nproc: s("nproc")?.parse().ok()?,
            cpu_model: s("cpu_model")?,
            l2: s("l2")?,
            l3: s("l3")?,
            rustflags: s("rustflags")?,
            rustc: s("rustc")?,
            git_rev: s("git_rev")?,
        })
    }
}

/// Per-core cache size of level `level` as the kernel reports it
/// (index 2 is the unified L2, index 3 the L3 on x86 hosts).
fn cache_size(level: u8) -> String {
    let p = format!("/sys/devices/system/cpu/cpu0/cache/index{level}/size");
    std::fs::read_to_string(p)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The commit the checkout is at, read from `.git` in the working
/// directory without spawning git (a source export has no `.git`).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A `kB` field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|r| r.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set of this process, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}
