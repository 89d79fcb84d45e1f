//! `field-roundtrip`: a closed loop with one client. Each iteration
//! compresses and then decompresses one field with the default
//! configuration, rotating over the first field of the six Small
//! datasets (three instances of each). Nearly all the time is in the kernel layers (predict,
//! huffman, bitcomp, gpu-sim); sched, shard, engine and socket are
//! bypassed.
//!
//! The traced run replays each field's layers from outside, calling
//! their public functions with the parameters the pipeline used
//! (`Compressed::interp`, `eb_abs`, the configured radius and top-k),
//! and checks that every replayed layer reproduces the pipeline's bytes.

use std::time::Instant;

use cuszi_core::archive::HEADER_LEN;
use cuszi_core::{Compressed, Config, CuszI};
use cuszi_gpu_sim::{KernelStats, TimingModel};
use cuszi_huffman::{decode_gpu, encode_gpu, histogram_gpu, Codebook};
use cuszi_predict::{ginterp, tuning::profile_and_tune};
use cuszi_quant::ErrorBound;
use cuszi_tensor::stats::ValueRange;

use crate::inputs::{roundtrip_fields, Input};
use crate::report::Outcome;
use crate::stats::{CallLog, Passes};
use crate::trace::{self, Trace};
use crate::{check_bound, psnr, repeat_setup, Args};

/// Goodput limit per call: about 5x the slowest call (a 3.5 MB
/// compress, ~30 ms on a 2-core host).
const LIMIT_MS: f64 = 150.0;

/// The value-range-relative bound the workload compresses at.
pub const REL_EB: f64 = 1e-3;

pub fn config() -> Config {
    Config::new(ErrorBound::Rel(REL_EB))
}

/// What one untimed pass over the fields established: the
/// reference archives and the per-pass quality and modelled figures.
struct Ready {
    fields: Vec<Input>,
    archives: Vec<Vec<u8>>,
    ratio: f64,
    min_psnr: f64,
    sim_c_gbps: f64,
    sim_d_gbps: f64,
}

/// One untimed pass over the fields: warms the pool and arenas and
/// gives the reference archives and the pass's quality and modelled
/// figures.
fn first_pass(fields: Vec<Input>, out: &mut Outcome) -> Ready {
    let codec = CuszI::new(config());
    let model = TimingModel::new(codec.config().device);
    let (mut bytes_in, mut bytes_out, mut sim_c, mut sim_d) = (0usize, 0usize, 0.0, 0.0);
    let mut min_psnr = f64::INFINITY;
    let mut archives = Vec::new();
    for f in &fields {
        let cd = codec
            .compress(&f.data)
            .and_then(|c| codec.decompress(&c.bytes).map(|d| (c, d)));
        let (c, d) = match cd {
            Ok(cd) => cd,
            Err(e) => {
                out.fail(format!("{}: {e}", f.name));
                archives.push(Vec::new());
                continue;
            }
        };
        if let Err(e) = check_bound(&f.data, &d.data, c.eb_abs) {
            out.fail(format!("{}: {e}", f.name));
        }
        min_psnr = min_psnr.min(psnr(f.data.as_slice(), d.data.as_slice()));
        bytes_in += f.data.len() * 4;
        bytes_out += c.bytes.len();
        sim_c += model.pipeline_time(&c.kernels);
        sim_d += model.pipeline_time(&d.kernels);
        archives.push(c.bytes);
    }
    Ready {
        fields,
        archives,
        ratio: bytes_in as f64 / bytes_out.max(1) as f64,
        min_psnr,
        sim_c_gbps: bytes_in as f64 / sim_c / 1e9,
        sim_d_gbps: bytes_in as f64 / sim_d / 1e9,
    }
}

/// One iteration: when compress began, when decompress began, when it
/// ended, and the compress result.
struct Iter {
    t: [Instant; 3],
    c: Option<Compressed>,
}

impl Iter {
    fn c_s(&self) -> f64 {
        (self.t[1] - self.t[0]).as_secs_f64()
    }

    fn d_s(&self) -> f64 {
        (self.t[2] - self.t[1]).as_secs_f64()
    }
}

/// Compress then decompress field `i`, and check the result outside
/// the timed calls: archive identical to the reference pass, output
/// within the error bound.
fn iterate(codec: &CuszI, r: &Ready, i: usize, out: &mut Outcome) -> Iter {
    let f = &r.fields[i];
    let t0 = Instant::now();
    let c = codec.compress(&f.data);
    let t1 = Instant::now();
    let d = c
        .as_ref()
        .map_err(|e| e.to_string())
        .and_then(|c| codec.decompress(&c.bytes).map_err(|e| e.to_string()));
    let t2 = Instant::now();
    let cres = match &c {
        Ok(c) if c.bytes == r.archives[i] => Ok(()),
        Ok(_) => Err(format!(
            "{}: archive differs from the reference pass",
            f.name
        )),
        Err(e) => Err(format!("{}: compress: {e}", f.name)),
    };
    out.op(cres);
    let dres = match (&c, &d) {
        (Ok(c), Ok(d)) => {
            check_bound(&f.data, &d.data, c.eb_abs).map_err(|e| format!("{}: {e}", f.name))
        }
        (_, Err(e)) => Err(format!("{}: decompress: {e}", f.name)),
        (Err(_), _) => Err(format!("{}: decompress skipped", f.name)),
    };
    out.op(dres);
    Iter {
        t: [t0, t1, t2],
        c: c.ok(),
    }
}

pub fn run(a: &Args) -> (Outcome, Option<Trace>) {
    let mut out = Outcome::default();
    let (fields, setup) = repeat_setup(a.setup_reps(), || roundtrip_fields(a.seed));
    let r = first_pass(fields, &mut out);
    if a.trace {
        let tr = traced(a, &r, &mut out);
        crate::control(&r.fields, &mut out);
        return (out, Some(tr));
    }
    let codec = CuszI::new(config());
    let n = r.fields.len();
    let mut log = CallLog::new(LIMIT_MS);
    let (mut cp, mut dp) = (Passes::default(), Passes::default());
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < a.seconds as f64 {
        let f = i % n;
        let failed = out.failed;
        let it = iterate(&codec, &r, f, &mut out);
        let ok = out.failed == failed;
        let bytes = r.fields[f].data.len() * 4;
        cp.add(bytes, it.c_s(), n);
        dp.add(bytes, it.d_s(), n);
        log.push(it.c_s() * 1e3, ok);
        log.push(it.d_s() * 1e3, ok);
        i += 1;
    }
    let run_s = start.elapsed().as_secs_f64();
    let (c_mbps, c_passes) = cp.median_mbps();
    let (d_mbps, d_passes) = dp.median_mbps();
    out.metric("compress_mbps", c_mbps, "MB/s", c_passes);
    out.metric("decompress_mbps", d_mbps, "MB/s", d_passes);
    out.metric("compression_ratio", r.ratio, "ratio", n);
    out.metric("psnr_db", r.min_psnr, "dB", n);
    out.modelled("sim_compress_gbps", r.sim_c_gbps, "GB/s", n);
    out.modelled("sim_decompress_gbps", r.sim_d_gbps, "GB/s", n);
    out.latency_metrics(&log, run_s);
    out.ok_frac_metric();
    out.metric("setup_s", setup.0, "s", setup.1);
    (out, None)
}

/// Sums over the replayed layers of a traced phase.
#[derive(Default)]
struct LayerSums {
    ginterp_dram: u64,
    fused_dram: u64,
    sectors: u64,
    redecoded: u64,
    fallback: u64,
    payload: u64,
    packed: u64,
    roundtrips: usize,
}

fn dram(k: &[KernelStats]) -> u64 {
    k.iter().map(KernelStats::dram_bytes).sum()
}

/// Replay one field's layers as children of span `root`, checking each
/// against the pipeline's own result.
fn replay(
    tr: &mut Trace,
    root: usize,
    req: u64,
    cfg: &Config,
    f: &Input,
    c: &Compressed,
    sums: &mut LayerSums,
) -> Result<(), String> {
    let dev = &cfg.device;
    let radius = cfg.radius;
    let p = Some(root);
    let range = ValueRange::of(f.data.as_slice())
        .ok_or("non-finite field")?
        .range() as f64;
    let rel_eb = cfg.error_bound.relative(range);
    let (interp, _) = tr.time("predict.tune", p, req, || profile_and_tune(&f.data, rel_eb));
    if interp != c.interp {
        return Err("replayed tune differs from Compressed::interp".into());
    }
    let pred = tr.time("predict.ginterp_compress", p, req, || {
        ginterp::compress(&f.data, c.eb_abs, radius, &c.interp, dev)
    });
    let (fused, fused_hist) = tr.time("predict.ginterp_fused", p, req, || {
        ginterp::compress_fused(
            &f.data,
            c.eb_abs,
            radius,
            &c.interp,
            cfg.histogram_topk,
            dev,
        )
    });
    let (hist, _) = tr.time("huffman.histogram", p, req, || {
        histogram_gpu(
            &pred.codes,
            2 * radius as usize,
            radius,
            cfg.histogram_topk,
            dev,
        )
    });
    if fused_hist != hist || fused.codes != pred.codes {
        return Err("fused predict differs from predict + histogram".into());
    }
    let book = tr
        .time("huffman.codebook", p, req, || {
            Codebook::from_histogram(&hist)
        })
        .map_err(|e| format!("codebook: {e:?}"))?;
    let (stream, _) = tr.time("huffman.encode", p, req, || {
        encode_gpu(&pred.codes, &book, dev)
    });
    let body = &c.bytes[HEADER_LEN..];
    let (payload, _) = tr
        .time("bitcomp.decompress", p, req, || {
            cuszi_bitcomp::decompress(body, dev)
        })
        .map_err(|e| format!("bitcomp decode: {e:?}"))?;
    let (packed, _) = tr.time("bitcomp.compress", p, req, || {
        cuszi_bitcomp::compress(&payload, dev)
    });
    if packed != body {
        return Err("replayed bitcomp differs from the archive body".into());
    }
    let decoded = tr
        .time("huffman.decode", p, req, || decode_gpu(&stream, &book, dev))
        .map_err(|e| format!("huffman decode: {e:?}"))?;
    if decoded.syms != pred.codes {
        return Err("replayed huffman decode differs from the codes".into());
    }
    let shape = f.data.shape();
    let (recon, _) = tr.time("predict.ginterp_decompress", p, req, || {
        ginterp::decompress(
            &decoded.syms,
            &pred.anchors,
            &pred.outliers,
            shape,
            c.eb_abs,
            radius,
            &c.interp,
            dev,
        )
    });
    check_bound(&f.data, &recon, c.eb_abs)?;
    sums.ginterp_dram += dram(&pred.kernels);
    sums.fused_dram += dram(&fused.kernels);
    sums.sectors += decoded.report.sectors;
    sums.redecoded += decoded.report.redecoded;
    sums.fallback += decoded.report.fallback_chunks;
    sums.payload += payload.len() as u64;
    sums.packed += packed.len() as u64;
    Ok(())
}

/// Traced run: an untraced phase, then a traced phase of equal length
/// with spans around the pipeline calls and the layer replays.
fn traced(a: &Args, r: &Ready, out: &mut Outcome) -> Trace {
    let codec = CuszI::new(config());
    let cfg = *codec.config();
    let n = r.fields.len();
    let phase_s = a.seconds as f64 / 2.0;
    let mut plain_s = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < phase_s {
        let it = iterate(&codec, r, i % n, out);
        plain_s.push(it.c_s() + it.d_s());
        i += 1;
    }

    let mut tr = Trace::new(Instant::now());
    let mut sums = LayerSums::default();
    let mut traced_s = Vec::new();
    // Launches are counted during the pipeline calls only, not the replays.
    let gpu0 = trace::launches();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < phase_s {
        let f = i % n;
        let req = i as u64;
        trace::count_launches(true);
        let it = iterate(&codec, r, f, out);
        trace::count_launches(false);
        traced_s.push(it.c_s() + it.d_s());
        let [t0, t1, t2] = it.t;
        let root = tr.record("iteration", None, req, t0, t0);
        tr.record("core.pipeline.compress", Some(root), req, t0, t1);
        tr.record("core.pipeline.decompress", Some(root), req, t1, t2);
        if let Some(c) = &it.c {
            if let Err(e) = replay(&mut tr, root, req, &cfg, &r.fields[f], c, &mut sums) {
                out.fail(format!("{} replay: {e}", r.fields[f].name));
            }
            sums.roundtrips += 1;
        }
        tr.close(root);
        i += 1;
    }

    let gpu = trace::launches().since(gpu0);
    let k = sums.roundtrips.max(1) as f64;
    let (c_ms, nc) = tr.mean_ms("core.pipeline.compress");
    let (d_ms, nd) = tr.mean_ms("core.pipeline.decompress");
    let predict = if cfg.fuse {
        vec!["predict.ginterp_fused"]
    } else {
        vec!["predict.ginterp_compress", "huffman.histogram"]
    };
    let compress_layers: Vec<&str> = ["predict.tune"]
        .into_iter()
        .chain(predict)
        .chain(["huffman.codebook", "huffman.encode", "bitcomp.compress"])
        .collect();
    let decompress_layers = [
        "bitcomp.decompress",
        "huffman.decode",
        "predict.ginterp_decompress",
    ];
    let sum = |names: &[&str]| names.iter().map(|nm| tr.mean_ms(nm).0).sum::<f64>();
    for (span, metric) in LAYER_SPANS {
        let (ms, n) = tr.mean_ms(span);
        out.metric(metric, ms, "ms", n);
    }
    let kk = sums.roundtrips;
    out.modelled(
        "predict.ginterp_compress.dram_bytes",
        sums.ginterp_dram as f64 / k,
        "bytes",
        kk,
    );
    out.modelled(
        "predict.ginterp_fused.dram_bytes",
        sums.fused_dram as f64 / k,
        "bytes",
        kk,
    );
    out.metric(
        "huffman.decode.redecode_rate",
        sums.redecoded as f64 / sums.sectors.max(1) as f64,
        "ratio",
        sums.sectors as usize,
    );
    out.metric(
        "huffman.decode.fallback_chunks",
        sums.fallback as f64,
        "count",
        kk,
    );
    out.metric(
        "bitcomp.ratio",
        sums.payload as f64 / sums.packed.max(1) as f64,
        "ratio",
        kk,
    );
    out.modelled("gpu_sim.launches", gpu.launches as f64 / k, "count", kk);
    out.modelled("gpu_sim.dram_bytes", gpu.dram_bytes as f64 / k, "bytes", kk);
    out.modelled("gpu_sim.coalescing_eff", gpu.coalescing_eff(), "ratio", kk);
    out.metric("core.pipeline.compress_ms", c_ms, "ms", nc);
    out.metric("core.pipeline.decompress_ms", d_ms, "ms", nd);
    out.metric(
        "core.pipeline.compress_self_ms",
        c_ms - sum(&compress_layers),
        "ms",
        nc,
    );
    out.metric(
        "core.pipeline.decompress_self_ms",
        d_ms - sum(&decompress_layers),
        "ms",
        nd,
    );
    out.metric(
        "trace.overhead_pct",
        crate::overhead_pct(&plain_s, &traced_s),
        "%",
        traced_s.len(),
    );
    tr
}

/// Replay span names and the per-layer metric of their mean duration.
const LAYER_SPANS: [(&str, &str); 10] = [
    ("predict.tune", "predict.tune.ms"),
    ("predict.ginterp_compress", "predict.ginterp_compress.ms"),
    ("predict.ginterp_fused", "predict.ginterp_fused.ms"),
    (
        "predict.ginterp_decompress",
        "predict.ginterp_decompress.ms",
    ),
    ("huffman.histogram", "huffman.histogram.ms"),
    ("huffman.codebook", "huffman.codebook.ms"),
    ("huffman.encode", "huffman.encode.ms"),
    ("huffman.decode", "huffman.decode.ms"),
    ("bitcomp.compress", "bitcomp.compress.ms"),
    ("bitcomp.decompress", "bitcomp.decompress.ms"),
];
