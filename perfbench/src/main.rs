//! The repository's benchmark: three seeded workloads over the cuSZ-i
//! stack, each checked for correctness, with a separate traced run for
//! the per-layer numbers. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <field-roundtrip|slab-stream|serve-mixed> \
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! perfbench compare <dir-a> <dir-b>
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced). The full record, with the host
//! fingerprint and every sample count, goes to `<out>/<workload>.seed<n>.trace<t>.json`
//! (default `<out>` is `.bench_out`), and a traced run's spans beside it.

mod compare;
mod host;
mod inputs;
mod report;
mod roundtrip;
mod serve;
mod slabs;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use cuszi_core::Codec;
use cuszi_tensor::NdArray;

use report::Outcome;

const USAGE: &str = "usage: perfbench --workload <field-roundtrip|slab-stream|serve-mixed> \
--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n       perfbench compare <dir-a> <dir-b>";

/// End-to-end metrics with units, in the order `BENCHMARK.json` lists
/// them. Every untraced run reports all of them.
pub const END_TO_END: [(&str, &str); 12] = [
    ("compress_mbps", "MB/s"),
    ("decompress_mbps", "MB/s"),
    ("compression_ratio", "ratio"),
    ("psnr_db", "dB"),
    ("sim_compress_gbps", "GB/s"),
    ("sim_decompress_gbps", "GB/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics with units, in `BENCHMARK.json` order. Every
/// traced run reports all of them; a layer its workload does not run
/// reads 0 with no samples.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("predict.tune.ms", "ms"),
    ("predict.ginterp_compress.ms", "ms"),
    ("predict.ginterp_compress.dram_bytes", "bytes"),
    ("predict.ginterp_fused.ms", "ms"),
    ("predict.ginterp_fused.dram_bytes", "bytes"),
    ("predict.ginterp_decompress.ms", "ms"),
    ("huffman.histogram.ms", "ms"),
    ("huffman.codebook.ms", "ms"),
    ("huffman.encode.ms", "ms"),
    ("huffman.decode.ms", "ms"),
    ("huffman.decode.redecode_rate", "ratio"),
    ("huffman.decode.fallback_chunks", "count"),
    ("bitcomp.compress.ms", "ms"),
    ("bitcomp.decompress.ms", "ms"),
    ("bitcomp.ratio", "ratio"),
    ("gpu_sim.launches", "count"),
    ("gpu_sim.dram_bytes", "bytes"),
    ("gpu_sim.coalescing_eff", "ratio"),
    ("core.pipeline.compress_ms", "ms"),
    ("core.pipeline.decompress_ms", "ms"),
    ("core.pipeline.compress_self_ms", "ms"),
    ("core.pipeline.decompress_self_ms", "ms"),
    ("core.stream.compress_ms", "ms"),
    ("core.stream.decompress_ms", "ms"),
    ("core.batch.compress_ms", "ms"),
    ("core.batch.decompress_ms", "ms"),
    ("core.shard.compress_ms", "ms"),
    ("core.shard.decompress_ms", "ms"),
    ("core.sched.sim_overlap", "ratio"),
    ("core.shard.sim_speedup", "ratio"),
    ("core.shard.gather_ns", "ns"),
    ("core.stream.peak_rss_mb", "MB"),
    ("core.shard.peak_rss_mb", "MB"),
    ("engine.queue_wait_us.mean", "us"),
    ("engine.queue_wait_us.max", "us"),
    ("engine.service_us.mean", "us"),
    ("engine.cache_hit_rate", "ratio"),
    ("engine.rejected", "count"),
    ("engine.job_errors", "count"),
    ("serve.socket_ms", "ms"),
    ("loadgen.frame_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("control.cusz.compress_mbps", "MB/s"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out: PathBuf,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut out = PathBuf::from(".bench_out");
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let val = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(val.clone()),
                "--seed" => seed = Some(val.parse().map_err(|_| "--seed needs an integer")?),
                "--seconds" => {
                    seconds = Some(val.parse().map_err(|_| "--seconds needs an integer")?)
                }
                "--trace" => {
                    trace = Some(match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace needs 0 or 1".into()),
                    })
                }
                "--out" => out = PathBuf::from(val),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !["field-roundtrip", "slab-stream", "serve-mixed"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        let seconds: u64 = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            out,
        })
    }

    /// Set-ups per run: several untraced (their median is `setup_s`),
    /// one traced (a traced run does not report `setup_s`).
    pub fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            3
        }
    }
}

/// Run `set_up` `reps` times, dropping each result before the next, and
/// return the last result with the median set-up time and the count.
pub fn repeat_setup<T>(reps: usize, mut set_up: impl FnMut() -> T) -> (T, (f64, usize)) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(set_up());
        times.push(t0.elapsed().as_secs_f64());
    }
    let ready = last.expect("at least one set-up");
    (ready, (stats::median(&times).unwrap_or(0.0), times.len()))
}

/// The error-bound check every decompressed output goes through.
pub fn check_bound(orig: &NdArray<f32>, recon: &NdArray<f32>, eb: f64) -> Result<(), String> {
    if orig.shape() != recon.shape() {
        return Err(format!("shape {} != {}", recon.shape(), orig.shape()));
    }
    check_slice(orig.as_slice(), recon.as_slice(), eb)
}

/// [`check_bound`] over flat buffers of equal length.
pub fn check_slice(orig: &[f32], recon: &[f32], eb: f64) -> Result<(), String> {
    if orig.len() != recon.len() {
        return Err(format!("{} elements, expected {}", recon.len(), orig.len()));
    }
    // NaN compares false against any bound, so it would pass below.
    if let Some(i) = recon.iter().position(|v| v.is_nan()) {
        return Err(format!("element {i} is NaN"));
    }
    match cuszi_metrics::check_error_bound(orig, recon, eb) {
        None => Ok(()),
        Some(i) => Err(format!(
            "element {i} off by {} > bound {eb}",
            (orig[i] as f64 - recon[i] as f64).abs()
        )),
    }
}

/// PSNR in dB of a reconstruction against its original.
pub fn psnr(orig: &[f32], recon: &[f32]) -> f64 {
    cuszi_metrics::distortion(orig, recon).map_or(0.0, |d| d.psnr)
}

/// Tracing overhead: the traced phase's mean operation time over the
/// untraced phase's, in percent (may read slightly negative in noise).
pub fn overhead_pct(plain: &[f64], traced: &[f64]) -> f64 {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let p = mean(plain);
    if p == 0.0 {
        0.0
    } else {
        (mean(traced) / p - 1.0) * 100.0
    }
}

/// Drift control: the unchanged cuSZ baseline codec compressing the
/// `field-roundtrip` fields, as a median over two seconds of passes. It
/// moves only when the machine does.
pub fn control(fields: &[inputs::Input], out: &mut Outcome) {
    let codec = cuszi_baselines::Cusz::new(
        cuszi_quant::ErrorBound::Rel(roundtrip::REL_EB),
        cuszi_gpu_sim::A100,
    );
    let mut passes = stats::Passes::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < 2.0 {
        for f in fields {
            let t0 = Instant::now();
            let r = codec.compress_bytes(&f.data);
            let secs = t0.elapsed().as_secs_f64();
            if let Err(e) = r {
                out.fail(format!("control {}: {e}", f.name));
            }
            passes.add(f.data.len() * 4, secs, fields.len());
        }
    }
    let (mbps, n) = passes.median_mbps();
    out.metric("control.cusz.compress_mbps", mbps, "MB/s", n);
}

/// Order the outcome's metrics by `list` and make the set exactly
/// `list`: a missing end-to-end metric is a failure of the run, a
/// missing per-layer metric reads 0 with no samples.
fn finish(out: &mut Outcome, list: &[(&'static str, &'static str)], traced: bool) {
    let mut have = std::mem::take(&mut out.metrics);
    for &(name, unit) in list {
        match have.iter().position(|m| m.name == name) {
            Some(i) => out.metrics.push(have.swap_remove(i)),
            None if traced => out.metric(name, 0.0, unit, 0),
            None => out.fail(format!("metric {name} was not measured")),
        }
    }
    for m in have {
        out.fail(format!("metric {} is not in the benchmark's list", m.name));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&argv[1..]));
    }
    let a = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let fp = host::Fingerprint::of_host();
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!("host: {}", fp.to_json());
    let (mut out, spans) = match a.workload.as_str() {
        "field-roundtrip" => roundtrip::run(&a),
        "slab-stream" => slabs::run(&a),
        _ => serve::run(&a),
    };
    if a.trace {
        finish(&mut out, &PER_LAYER, true);
    } else {
        out.metric("peak_rss_mb", host::peak_rss_mb(), "MB", 1);
        finish(&mut out, &END_TO_END, false);
    }
    print!("{}", out.table());
    for m in &out.mismatches {
        eprintln!("check failed: {m}");
    }
    let stem = format!("{}.seed{}.trace{}", a.workload, a.seed, u8::from(a.trace));
    let record = out.record(&a.workload, a.seed, a.seconds, a.trace, &fp);
    let written = std::fs::create_dir_all(&a.out)
        .and_then(|_| std::fs::write(a.out.join(format!("{stem}.json")), record))
        .and_then(|_| match &spans {
            Some(t) => t.write_json(&a.out.join(format!("{stem}.spans.json"))),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write the record under {}: {e}",
            a.out.display()
        );
    }
    println!("{}", out.result_line());
    std::process::exit(if out.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree name
    /// for name, unit for unit, in order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let src = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let v = cuszi_profile::minjson::parse(&src).expect("valid json");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let got: Vec<(String, String)> = v
                .get(key)
                .and_then(|x| x.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(got, want, "{key}");
        }
    }

    #[test]
    fn args_parse_the_run_flags() {
        let argv: Vec<String> = "--workload slab-stream --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = Args::parse(&argv).expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("slab-stream", 7, 10, true)
        );
        let bad: Vec<String> = ["--workload", "nope"].map(String::from).to_vec();
        assert!(Args::parse(&bad).is_err());
    }

    #[test]
    fn finish_fills_per_layer_and_flags_missing_end_to_end() {
        let mut o = Outcome::default();
        o.op(Ok(()));
        o.metric("trace.overhead_pct", 1.5, "%", 3);
        finish(&mut o, &PER_LAYER, true);
        assert_eq!(o.metrics.len(), PER_LAYER.len());
        assert!(o.correct());
        let mut o = Outcome::default();
        o.op(Ok(()));
        finish(&mut o, &END_TO_END, false);
        assert!(!o.correct());
    }
}
