//! Spans and launch counts recorded by the benchmark around its calls
//! into each layer (traced runs only).
//!
//! Spans stay in memory and are written out once, when the run ends.
//! Each has a name, start, end, parent and request id; a span's self
//! time is its duration minus the part of it that its children cover.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use cuszi_gpu_sim::{LaunchObserver, LaunchRecord};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span list on one clock.
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(name, parent, req, t0, Instant::now());
        r
    }

    /// Set span `id`'s end to now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Mean duration in ms of the spans named `name`, and their count.
    pub fn mean_ms(&self, name: &str) -> (f64, usize) {
        let durs: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect();
        if durs.is_empty() {
            return (0.0, 0);
        }
        (
            durs.iter().sum::<u64>() as f64 / durs.len() as f64 / 1e6,
            durs.len(),
        )
    }

    /// Self time of span `id`: its duration minus the union of the
    /// intervals its direct children cover (children may overlap when
    /// they ran on different threads).
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in kids {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        span.dur_ns() - covered
    }

    /// Write the spans as a JSON array, one object per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"req\":{},\"self_ns\":{}}}{}",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.req,
                self.self_ns(i),
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        s.push(']');
        std::fs::write(path, s)
    }
}

/// Kernel launches counted at the gpu-sim launch boundary. The bytes
/// are the simulator's modelled DRAM traffic, not measured traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Launches {
    pub launches: u64,
    pub dram_bytes: u64,
    pub useful_bytes: u64,
}

impl Launches {
    pub fn since(self, earlier: Launches) -> Launches {
        Launches {
            launches: self.launches - earlier.launches,
            dram_bytes: self.dram_bytes - earlier.dram_bytes,
            useful_bytes: self.useful_bytes - earlier.useful_bytes,
        }
    }

    /// Useful bytes over transacted DRAM bytes (1.0 = fully coalesced).
    pub fn coalescing_eff(&self) -> f64 {
        if self.dram_bytes == 0 {
            1.0
        } else {
            self.useful_bytes as f64 / self.dram_bytes as f64
        }
    }
}

#[derive(Default)]
struct Counter {
    launches: AtomicU64,
    dram: AtomicU64,
    useful: AtomicU64,
}

// Statistics only: nothing else is published through these atomics.
impl LaunchObserver for &'static Counter {
    fn on_launch(&self, rec: &LaunchRecord<'_>) {
        self.launches.fetch_add(1, Ordering::Relaxed);
        self.dram
            .fetch_add(rec.stats.dram_bytes(), Ordering::Relaxed);
        self.useful
            .fetch_add(rec.stats.useful_bytes(), Ordering::Relaxed);
    }
}

static COUNTER: OnceLock<&'static Counter> = OnceLock::new();

/// Install the launch counter and turn launch reporting on or off. The
/// counter stays installed for the rest of the process; reporting is
/// off by default, so untraced runs pay one relaxed load per launch.
pub fn count_launches(on: bool) {
    COUNTER.get_or_init(|| {
        let c: &'static Counter = Box::leak(Box::default());
        if !cuszi_gpu_sim::hook::set_observer(Box::new(c)) {
            eprintln!("warning: another launch observer is installed; gpu_sim.* will read 0");
        }
        c
    });
    cuszi_gpu_sim::hook::enable(on);
}

/// Launch totals counted so far.
pub fn launches() -> Launches {
    COUNTER.get().map_or_else(Launches::default, |c| Launches {
        launches: c.launches.load(Ordering::Relaxed),
        dram_bytes: c.dram.load(Ordering::Relaxed),
        useful_bytes: c.useful.load(Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, ms: u64) -> Instant {
        epoch + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let e = Instant::now();
        let mut t = Trace::new(e);
        let root = t.record("root", None, 1, at(e, 0), at(e, 100));
        // Two overlapping children (10..40 and 30..50) cover 40 ms,
        // a third (60..70) covers 10 ms; a grandchild is not a child.
        let a = t.record("a", Some(root), 1, at(e, 10), at(e, 40));
        t.record("b", Some(root), 1, at(e, 30), at(e, 50));
        t.record("c", Some(root), 1, at(e, 60), at(e, 70));
        t.record("a.x", Some(a), 1, at(e, 12), at(e, 20));
        assert_eq!(t.self_ns(root), 50_000_000);
        assert_eq!(t.self_ns(a), 22_000_000);
        assert_eq!(t.mean_ms("a"), (30.0, 1));
    }
}
