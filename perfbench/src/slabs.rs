//! `slab-stream`: a closed loop with one client over one tall field
//! (23.7 MB, about 6x the host's combined L2). Each iteration runs three
//! paths: the slab stream at two gpu-sim streams, the same slabs sharded
//! over two simulated devices, and the CSZM multi-field container on
//! all fields of one dataset. The kernels are those of
//! `field-roundtrip`; here the orchestration layers (sched, stream,
//! batch, shard, arena) and the bounded-memory slab path are active.

use std::time::Instant;

use cuszi_core::{
    compress_fields_streams, compress_slabs_sharded, compress_slabs_streams,
    decompress_fields_streams, decompress_slabs_sharded, decompress_slabs_streams, Config,
    NamedField, ShardPlan,
};
use cuszi_quant::ErrorBound;
use cuszi_tensor::stats::ValueRange;
use cuszi_tensor::{NdArray, Shape};

use crate::inputs::{container_fields, tall_field, Input};
use crate::report::Outcome;
use crate::stats::{CallLog, Passes};
use crate::trace::{self, Trace};
use crate::{check_bound, check_slice, host, psnr, repeat_setup, Args};

/// Planes per slab: 28 slabs of 0.85 MB each.
const SLAB_Z: usize = 32;
/// gpu-sim streams of the stream and container paths.
const STREAMS: usize = 2;
/// Simulated devices of the sharded path (one stream each, so every
/// path keeps two slabs in flight).
const DEVICES: usize = 2;
/// Goodput limit per call: about 5x the slowest call (a 23.7 MB slab
/// compress, ~300 ms on a 2-core host).
const LIMIT_MS: f64 = 1500.0;

impl Ready {
    fn slab_eb(&self) -> f64 {
        self.slab_cfg.error_bound.absolute(0.0)
    }
}

fn plan() -> ShardPlan {
    ShardPlan::new(DEVICES).streams(1)
}

struct Ready {
    tall: NdArray<f32>,
    fields: Vec<Input>,
    /// Absolute bound for the slab paths: the tall field's relative
    /// bound resolved once, so every slab gets the same guarantee.
    slab_cfg: Config,
    field_cfg: Config,
    /// The streams=1 slab archive every other slab path must match.
    reference: Vec<u8>,
    container: Vec<u8>,
    field_eb: Vec<f64>,
}

/// One timed call into a path.
struct Call {
    span: &'static str,
    start: Instant,
    end: Instant,
    /// Uncompressed bytes the call moved.
    bytes: usize,
    compress: bool,
}

impl Call {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// The six calls of one iteration with their reports.
struct Pass {
    calls: Vec<Call>,
    stream_archive: Vec<u8>,
    shard_archive: Vec<u8>,
    container: Vec<u8>,
    sim_c_s: f64,
    sim_d_s: f64,
    overlap: f64,
    shard_speedup: f64,
    gather_ns: u64,
    stream_rss: f64,
    shard_rss: f64,
    /// Lowest PSNR over the slab reconstruction and container fields.
    min_psnr: f64,
}

/// Tracks the largest resident set seen at slab callbacks, when on.
struct RssProbe {
    on: bool,
    base: f64,
    peak: f64,
}

impl RssProbe {
    fn start(on: bool) -> RssProbe {
        let base = if on { host::rss_mb() } else { 0.0 };
        RssProbe {
            on,
            base,
            peak: base,
        }
    }

    fn sample(&mut self) {
        if self.on {
            self.peak = self.peak.max(host::rss_mb());
        }
    }

    fn growth(&self) -> f64 {
        self.peak - self.base
    }
}

fn slab(tall: &NdArray<f32>, z0: usize, nz: usize) -> NdArray<f32> {
    let [_, ny, nx] = tall.shape().dims3();
    let plane = ny * nx;
    NdArray::from_vec(
        Shape::d3(nz, ny, nx),
        tall.as_slice()[z0 * plane..(z0 + nz) * plane].to_vec(),
    )
}

/// Write a decompressed slab into its place in `recon`.
fn put(recon: &mut [f32], plane: usize, z0: usize, s: &NdArray<f32>) {
    recon[z0 * plane..z0 * plane + s.len()].copy_from_slice(s.as_slice());
}

/// Mark all of `recon` unwritten (NaN, which the bound check rejects)
/// before a decompress, so a slab the path skips or cuts short fails
/// the check instead of passing on an earlier path's output.
fn clear(recon: &mut [f32]) {
    recon.fill(f32::NAN);
}

fn set_up(seed: u64, out: &mut Outcome, recon: &mut Vec<f32>) -> Ready {
    let tall = tall_field(seed);
    let range = ValueRange::of(tall.as_slice()).map_or(1.0, |r| r.range() as f64);
    let slab_cfg = Config::new(ErrorBound::Abs(crate::roundtrip::REL_EB * range));
    let field_cfg = crate::roundtrip::config();
    let fields = container_fields(seed);
    let field_eb = fields
        .iter()
        .map(|f| {
            let r = ValueRange::of(f.data.as_slice()).map_or(0.0, |r| r.range() as f64);
            field_cfg.error_bound.absolute(r)
        })
        .collect();
    let reference = compress_slabs_streams(tall.shape(), SLAB_Z, slab_cfg, 1, |z0, nz| {
        slab(&tall, z0, nz)
    })
    .map(|(bytes, _)| bytes)
    .unwrap_or_else(|e| {
        out.fail(format!("streams=1 slab compress: {e}"));
        Vec::new()
    });
    recon.resize(tall.len(), 0.0);
    Ready {
        tall,
        fields,
        slab_cfg,
        field_cfg,
        reference,
        container: Vec::new(),
        field_eb,
    }
}

/// Run the three paths once.
fn run_paths(r: &Ready, recon: &mut [f32], probe: bool) -> Result<Pass, String> {
    let shape = r.tall.shape();
    let plane = shape.dims3()[1] * shape.dims3()[2];
    let bytes = r.tall.len() * 4;
    let mut calls = Vec::with_capacity(6);
    let mut timed = |span, bytes, compress, start| {
        calls.push(Call {
            span,
            start,
            end: Instant::now(),
            bytes,
            compress,
        })
    };

    let mut rss = RssProbe::start(probe);
    let t0 = Instant::now();
    let (stream_archive, sc) =
        compress_slabs_streams(shape, SLAB_Z, r.slab_cfg, STREAMS, |z0, nz| {
            rss.sample();
            slab(&r.tall, z0, nz)
        })
        .map_err(|e| format!("stream compress: {e}"))?;
    timed("core.stream.compress", bytes, true, t0);
    clear(recon);
    let t0 = Instant::now();
    let (_, sd) = decompress_slabs_streams(&stream_archive, r.slab_cfg, STREAMS, |z0, s| {
        rss.sample();
        put(recon, plane, z0, &s);
    })
    .map_err(|e| format!("stream decompress: {e}"))?;
    timed("core.stream.decompress", bytes, false, t0);
    let stream_rss = rss.growth();
    let mut min_psnr = psnr(r.tall.as_slice(), recon);
    check_slice(r.tall.as_slice(), recon, r.slab_eb())
        .map_err(|e| format!("stream output: {e}"))?;

    let mut rss = RssProbe::start(probe);
    let t0 = Instant::now();
    let (shard_archive, hc) =
        compress_slabs_sharded(shape, SLAB_Z, r.slab_cfg, plan(), |z0, nz| {
            rss.sample();
            slab(&r.tall, z0, nz)
        })
        .map_err(|e| format!("shard compress: {e}"))?;
    timed("core.shard.compress", bytes, true, t0);
    clear(recon);
    let t0 = Instant::now();
    let (_, hd) = decompress_slabs_sharded(&shard_archive, r.slab_cfg, plan(), |z0, s| {
        rss.sample();
        put(recon, plane, z0, &s);
    })
    .map_err(|e| format!("shard decompress: {e}"))?;
    timed("core.shard.decompress", bytes, false, t0);
    let shard_rss = rss.growth();
    check_slice(r.tall.as_slice(), recon, r.slab_eb()).map_err(|e| format!("shard output: {e}"))?;

    let named: Vec<NamedField> = r
        .fields
        .iter()
        .map(|f| NamedField {
            name: &f.name,
            data: &f.data,
        })
        .collect();
    let fbytes: usize = r.fields.iter().map(|f| f.data.len() * 4).sum();
    let t0 = Instant::now();
    let (container, bc) = compress_fields_streams(&named, r.field_cfg, STREAMS)
        .map_err(|e| format!("container compress: {e}"))?;
    timed("core.batch.compress", fbytes, true, t0);
    let t0 = Instant::now();
    let (decoded, bd) = decompress_fields_streams(&container.bytes, r.field_cfg, STREAMS)
        .map_err(|e| format!("container decompress: {e}"))?;
    timed("core.batch.decompress", fbytes, false, t0);

    for ((f, eb), (name, d)) in r.fields.iter().zip(&r.field_eb).zip(&decoded) {
        check_bound(&f.data, d, *eb).map_err(|e| format!("container field {name}: {e}"))?;
        min_psnr = min_psnr.min(psnr(f.data.as_slice(), d.as_slice()));
    }
    let ns = |n: u64| n as f64 * 1e-9;
    Ok(Pass {
        calls,
        stream_archive,
        shard_archive,
        container: container.bytes,
        sim_c_s: ns(sc.sim_elapsed_ns() + hc.sim_elapsed_ns() + bc.sim_elapsed_ns()),
        sim_d_s: ns(sd.sim_elapsed_ns() + hd.sim_elapsed_ns() + bd.sim_elapsed_ns()),
        overlap: sc.overlap_speedup(),
        shard_speedup: hc.sim_speedup(),
        gather_ns: hc.transfer_ns(),
        stream_rss,
        shard_rss,
        min_psnr,
    })
}

/// Byte-identity of the slab archives across streams=1, streams=2 and
/// devices=2, and of the container across passes.
fn check(r: &Ready, p: &Pass) -> Result<(), String> {
    if p.stream_archive != r.reference {
        return Err("streams=2 slab archive differs from streams=1".into());
    }
    if p.shard_archive != r.reference {
        return Err("devices=2 slab archive differs from streams=1".into());
    }
    if p.container != r.container {
        return Err("container differs from the first pass".into());
    }
    Ok(())
}

/// One iteration: run the six operations and check them (the error
/// bound inside [`run_paths`], byte-identity here), all outside the
/// timed calls. A failure fails one of the six operations.
fn iterate(r: &Ready, recon: &mut [f32], probe: bool, out: &mut Outcome) -> Option<Pass> {
    let p = run_paths(r, recon, probe);
    let verdict = p.as_ref().map_err(Clone::clone).and_then(|p| check(r, p));
    for _ in 1..6 {
        out.op(Ok(()));
    }
    out.op(verdict);
    p.ok()
}

pub fn run(a: &Args) -> (Outcome, Option<Trace>) {
    let mut out = Outcome::default();
    let mut recon = Vec::new();
    let (mut r, setup) = repeat_setup(a.setup_reps(), || set_up(a.seed, &mut out, &mut recon));
    // One untimed pass warms the pool and arenas, and gives the container
    // reference and the pass's quality and modelled figures.
    let first = run_paths(&r, &mut recon, false)
        .map_err(|e| out.fail(e))
        .ok();
    if let Some(p) = &first {
        r.container = p.container.clone();
    }
    if a.trace {
        let tr = traced(a, &r, &mut recon, &mut out);
        crate::control(&crate::inputs::roundtrip_fields(a.seed), &mut out);
        return (out, Some(tr));
    }

    let mut log = CallLog::new(LIMIT_MS);
    let (mut cp, mut dp) = (Passes::default(), Passes::default());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < a.seconds as f64 {
        let failed = out.failed;
        let Some(p) = iterate(&r, &mut recon, false, &mut out) else {
            continue;
        };
        let ok = out.failed == failed;
        for c in &p.calls {
            let passes = if c.compress { &mut cp } else { &mut dp };
            passes.add(c.bytes, c.secs(), 3);
            log.push(c.secs() * 1e3, ok);
        }
    }
    let run_s = start.elapsed().as_secs_f64();
    let (c_mbps, nc) = cp.median_mbps();
    let (d_mbps, nd) = dp.median_mbps();
    out.metric("compress_mbps", c_mbps, "MB/s", nc);
    out.metric("decompress_mbps", d_mbps, "MB/s", nd);
    if let Some(p) = first {
        let input: usize = p.calls.iter().filter(|c| c.compress).map(|c| c.bytes).sum();
        let archive = p.stream_archive.len() + p.shard_archive.len() + p.container.len();
        out.metric(
            "compression_ratio",
            input as f64 / archive as f64,
            "ratio",
            3,
        );
        out.metric("psnr_db", p.min_psnr, "dB", 1 + r.fields.len());
        out.modelled(
            "sim_compress_gbps",
            input as f64 / p.sim_c_s / 1e9,
            "GB/s",
            3,
        );
        out.modelled(
            "sim_decompress_gbps",
            input as f64 / p.sim_d_s / 1e9,
            "GB/s",
            3,
        );
    }
    out.latency_metrics(&log, run_s);
    out.ok_frac_metric();
    out.metric("setup_s", setup.0, "s", setup.1);
    (out, None)
}

/// Traced run: an untraced phase, then a traced phase of equal length.
fn traced(a: &Args, r: &Ready, recon: &mut [f32], out: &mut Outcome) -> Trace {
    let phase_s = a.seconds as f64 / 2.0;
    let call_s = |p: &Pass| p.calls.iter().map(Call::secs).sum::<f64>();
    let mut plain_s = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < phase_s {
        if let Some(p) = iterate(r, recon, false, out) {
            plain_s.push(call_s(&p));
        }
    }

    let mut tr = Trace::new(Instant::now());
    let mut traced_s = Vec::new();
    let mut last: Option<Pass> = None;
    let (mut stream_rss, mut shard_rss) = (0.0f64, 0.0f64);
    let before = trace::launches();
    let start = Instant::now();
    let mut req = 0u64;
    while start.elapsed().as_secs_f64() < phase_s {
        let t0 = Instant::now();
        trace::count_launches(true);
        let p = iterate(r, recon, true, out);
        trace::count_launches(false);
        let Some(p) = p else { continue };
        let root = tr.record("iteration", None, req, t0, Instant::now());
        for c in &p.calls {
            tr.record(c.span, Some(root), req, c.start, c.end);
        }
        traced_s.push(call_s(&p));
        stream_rss = stream_rss.max(p.stream_rss);
        shard_rss = shard_rss.max(p.shard_rss);
        last = Some(p);
        req += 1;
    }
    let gpu = trace::launches().since(before);
    let iters = traced_s.len();
    for (span, metric) in CALL_SPANS {
        let (ms, n) = tr.mean_ms(span);
        out.metric(metric, ms, "ms", n);
    }
    if let Some(p) = &last {
        out.modelled("core.sched.sim_overlap", p.overlap, "ratio", iters);
        out.modelled("core.shard.sim_speedup", p.shard_speedup, "ratio", iters);
        out.modelled("core.shard.gather_ns", p.gather_ns as f64, "ns", iters);
    }
    out.metric("core.stream.peak_rss_mb", stream_rss, "MB", iters);
    out.metric("core.shard.peak_rss_mb", shard_rss, "MB", iters);
    let k = iters.max(1) as f64;
    out.modelled("gpu_sim.launches", gpu.launches as f64 / k, "count", iters);
    out.modelled(
        "gpu_sim.dram_bytes",
        gpu.dram_bytes as f64 / k,
        "bytes",
        iters,
    );
    out.modelled(
        "gpu_sim.coalescing_eff",
        gpu.coalescing_eff(),
        "ratio",
        iters,
    );
    out.metric(
        "trace.overhead_pct",
        crate::overhead_pct(&plain_s, &traced_s),
        "%",
        iters,
    );
    tr
}

/// Call span names and the per-layer metric of their mean duration.
const CALL_SPANS: [(&str, &str); 6] = [
    ("core.stream.compress", "core.stream.compress_ms"),
    ("core.stream.decompress", "core.stream.decompress_ms"),
    ("core.batch.compress", "core.batch.compress_ms"),
    ("core.batch.decompress", "core.batch.decompress_ms"),
    ("core.shard.compress", "core.shard.compress_ms"),
    ("core.shard.decompress", "core.shard.decompress_ms"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// A slab the decompress path never hands back fails the output
    /// check, although `recon` held a complete, valid reconstruction
    /// from the call before.
    #[test]
    fn a_dropped_slab_fails_the_output_check() {
        let tall = NdArray::from_fn(Shape::d3(3 * SLAB_Z, 32, 32), |z, y, x| {
            ((z + 2 * y + 3 * x) as f32 * 0.05).sin()
        });
        let (plane, eb) = (32 * 32, 1e-3);
        let cfg = Config::new(ErrorBound::Abs(eb));
        let (archive, _) = compress_slabs_streams(tall.shape(), SLAB_Z, cfg, STREAMS, |z0, nz| {
            slab(&tall, z0, nz)
        })
        .expect("compress");
        let mut recon = vec![0.0; tall.len()];
        let decode = |recon: &mut [f32], drop_z0: Option<usize>| {
            clear(recon);
            decompress_slabs_streams(&archive, cfg, STREAMS, |z0, s| {
                if Some(z0) != drop_z0 {
                    put(recon, plane, z0, &s);
                }
            })
            .expect("decompress");
            check_slice(tall.as_slice(), recon, eb)
        };
        assert_eq!(decode(&mut recon, None), Ok(()));
        let dropped = decode(&mut recon, Some(SLAB_Z));
        assert!(dropped.is_err(), "a dropped slab passed: {dropped:?}");
    }
}
