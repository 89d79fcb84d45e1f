//! `serve-mixed`: two clients in a closed loop, each on its own
//! connection to an in-process `cuszi serve` daemon on loopback. Six
//! tenants send compress and decompress requests 3:1 on 32^3 and 48^3
//! crops of RTM snapshots; most content is fresh, a fixed share is
//! exact resubmissions (the only traffic the engine's warm-start session
//! cache can serve). The work per request is small, so framing, the
//! socket, queueing and the session cache weigh as much as the kernels.
//!
//! A closed loop, not an open one: the daemon writes each reply as two
//! segments (length, then body) without `TCP_NODELAY`, so a reply that
//! fits one segment waits for the client's delayed ACK (~40 ms). Whether
//! the client's kernel delays that ACK depends on how soon it sent after
//! its last receive, judged against an adaptive timer, so under open-loop
//! arrivals the share of stalled requests wandered from run to run (p50
//! 8 to 15 ms for one seed over five runs). Back-to-back requests stall
//! every compress reply, every run. The daemon's protocol also carries no
//! priority, so every request rides the engine's interactive lane.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cuszi_cli::serve::{
    decode_error, encode_compress, encode_decompress, read_frame, write_frame, ServeConfig, Server,
    OP_COMPRESS_OK, OP_DECOMPRESS_OK,
};
use cuszi_core::{CuszI, Engine};
use cuszi_datagen::rng::ChaCha8Rng;
use cuszi_gpu_sim::TimingModel;
use cuszi_profile::Snapshot;
use cuszi_tensor::NdArray;

use crate::inputs::{below, serve_sources, Crop};
use crate::report::Outcome;
use crate::roundtrip::config;
use crate::stats::{CallLog, Passes};
use crate::trace::{self, Trace};
use crate::{check_bound, psnr, repeat_setup, Args};

/// Client connections, one client thread each: the host's core count.
const CONNECTIONS: usize = 2;
const TENANTS: usize = 6;
/// RTM snapshots per tenant that requests crop from.
const SOURCES_PER_TENANT: usize = 2;
const SIZES: [usize; 2] = [32, 48];
// The traffic shares. Only the decompress share has a source; the other
// two are assumptions no trace supports (see `perfbench/README.md`).
/// Share of requests on 32^3 crops; the rest are 48^3. Chosen for a
/// steady median, not from traffic: with an even split the median
/// request would sit on the boundary between the two sizes' latency
/// clusters.
const SMALL_SHARE: f64 = 0.25;
/// Share of requests that decompress (compress:decompress = 3:1), as in
/// `exp_serve`, where every fourth request replays a tenant's archive.
const DECOMPRESS_SHARE: f64 = 0.25;
/// Share of compress requests that resubmit a tenant's hot crop. An
/// unmeasured assumption: the engine's session cache hit rate on this
/// workload follows it directly, so that rate says nothing about real
/// traffic until the share is grounded.
const RESUBMIT_SHARE: f64 = 0.25;
/// Archives per tenant and size that decompress requests draw from.
const POOL_PER_SIZE: usize = 8;
/// Goodput limit: about 5x the slowest request as the client sees it
/// today (a 48^3 compress whose reply waits on a delayed ACK, ~50 ms).
const LIMIT_MS: f64 = 250.0;
/// Requests begun in the first second are not recorded (pool, arenas
/// and session cache warm up).
const WARMUP_S: f64 = 1.0;
/// One compress reply in this many (by seeded draw) is re-made one-shot.
const SAMPLE_ONE_IN: u64 = 8;
const SAMPLE_CAP: usize = 48;
/// Requests per throughput pass: one, so the median is over single
/// calls (requests are small and uneven; a few slow ones would
/// dominate a pass total).
const PASS: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Compress { crop: Crop, resubmit: bool },
    Decompress { pool: usize },
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Req {
    idx: u64,
    tenant: usize,
    kind: Kind,
    sampled: bool,
}

impl Req {
    /// Edge of the crop the request moves.
    fn n(&self, world: &World) -> usize {
        match self.kind {
            Kind::Compress { crop, .. } => crop.n,
            Kind::Decompress { pool } => world.pool[pool].crop.n,
        }
    }
}

/// An archive decompress requests can ask for, with its source crop.
struct PoolEntry {
    crop: Crop,
    archive: Vec<u8>,
    eb_abs: f64,
}

/// The seeded inputs: each tenant's source snapshots and hot crops, and
/// the decompress pool.
struct World {
    sources: Vec<NdArray<f32>>,
    hot: Vec<[Crop; 2]>,
    pool: Vec<PoolEntry>,
}

/// One of tenant `t`'s sources, at random.
fn source(rng: &mut ChaCha8Rng, t: usize) -> usize {
    t * SOURCES_PER_TENANT + below(rng, SOURCES_PER_TENANT)
}

/// The pool entry `k` of tenant `t`'s archives of size index `size`.
fn pool_index(t: usize, size: usize, k: usize) -> usize {
    (t * SIZES.len() + size) * POOL_PER_SIZE + k
}

impl World {
    fn new(seed: u64, out: &mut Outcome) -> World {
        let sources = serve_sources(seed, TENANTS * SOURCES_PER_TENANT);
        let dims = sources[0].shape().dims3();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x77);
        let crop = |rng: &mut ChaCha8Rng, t, n| {
            let src = source(rng, t);
            Crop::random(rng, src, n, dims)
        };
        let hot = (0..TENANTS)
            .map(|t| SIZES.map(|n| crop(&mut rng, t, n)))
            .collect();
        let codec = CuszI::new(config());
        // Laid out by tenant, then size: see `pool_index`.
        let mut pool = Vec::new();
        for t in 0..TENANTS {
            for n in SIZES {
                for _ in 0..POOL_PER_SIZE {
                    let crop = crop(&mut rng, t, n);
                    // A failed entry stays, empty, so the layout holds; a
                    // request for it fails.
                    let (archive, eb_abs) = match codec.compress(&crop.cut(&sources)) {
                        Ok(c) => (c.bytes, c.eb_abs),
                        Err(e) => {
                            out.fail(format!("pool archive: {e}"));
                            (Vec::new(), 0.0)
                        }
                    };
                    pool.push(PoolEntry {
                        crop,
                        archive,
                        eb_abs,
                    });
                }
            }
        }
        World { sources, hot, pool }
    }
}

/// The request sequence: request `i` is a deterministic function of the
/// seed and `i`, whichever client ends up sending it.
struct Requests {
    rng: ChaCha8Rng,
    idx: u64,
    dims: [usize; 3],
}

impl Requests {
    fn new(seed: u64, world: &World) -> Requests {
        Requests {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5e7e),
            idx: 0,
            dims: world.sources[0].shape().dims3(),
        }
    }

    fn next(&mut self, hot: &[[Crop; 2]]) -> Req {
        let r = &mut self.rng;
        let tenant = below(r, TENANTS);
        let size = usize::from(r.gen::<f64>() >= SMALL_SHARE);
        let kind = if r.gen::<f64>() < DECOMPRESS_SHARE {
            Kind::Decompress {
                pool: pool_index(tenant, size, below(r, POOL_PER_SIZE)),
            }
        } else if r.gen::<f64>() < RESUBMIT_SHARE {
            Kind::Compress {
                crop: hot[tenant][size],
                resubmit: true,
            }
        } else {
            let src = source(r, tenant);
            Kind::Compress {
                crop: Crop::random(r, src, SIZES[size], self.dims),
                resubmit: false,
            }
        };
        let sampled =
            matches!(kind, Kind::Compress { .. }) && r.next_u64().is_multiple_of(SAMPLE_ONE_IN);
        self.idx += 1;
        Req {
            idx: self.idx - 1,
            tenant,
            kind,
            sampled,
        }
    }
}

fn frame(req: &Req, world: &World) -> Vec<u8> {
    let tenant = format!("tenant{}", req.tenant);
    match req.kind {
        Kind::Compress { crop, .. } => {
            let data = crop.cut(&world.sources);
            encode_compress(
                &tenant,
                data.shape(),
                config().error_bound,
                true,
                data.as_slice(),
            )
        }
        Kind::Decompress { pool } => encode_decompress(&tenant, &world.pool[pool].archive),
    }
}

/// One answered request, checked.
struct Done {
    req: Req,
    /// When the client began building the request, sent it, and had
    /// read the whole reply.
    began: Instant,
    sent: Instant,
    answered: Instant,
    /// Why the request failed, if it did.
    err: Option<String>,
    archive_bytes: usize,
    psnr: Option<f64>,
    /// The reply archive of a sampled compress request.
    sample: Option<Vec<u8>>,
}

impl Done {
    fn rtt_ms(&self) -> f64 {
        (self.answered - self.sent).as_secs_f64() * 1e3
    }
}

/// Check a reply outside the timed call. Returns the archive size, the
/// PSNR of a decompressed reply, and a compress reply's archive.
fn check_reply(
    req: &Req,
    reply: std::io::Result<Option<Vec<u8>>>,
    world: &World,
) -> Result<(usize, Option<f64>, Vec<u8>), String> {
    let reply = reply
        .map_err(|e| format!("socket: {e}"))?
        .ok_or("connection closed")?;
    let (op, body) = reply.split_first().ok_or("empty reply")?;
    match (req.kind, *op) {
        (Kind::Compress { .. }, OP_COMPRESS_OK) => Ok((body.len(), None, body.to_vec())),
        (Kind::Decompress { pool }, OP_DECOMPRESS_OK) => {
            let e = &world.pool[pool];
            let want = e.crop.cut(&world.sources);
            let mut head = vec![want.shape().rank() as u8];
            for &d in want.shape().dims() {
                head.extend_from_slice(&(d as u64).to_le_bytes());
            }
            let data = body
                .strip_prefix(&head[..])
                .filter(|d| d.len() == want.len() * 4)
                .ok_or("decompress reply has the wrong shape")?;
            let vals = data
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
            let got = NdArray::from_vec(want.shape(), vals.collect());
            check_bound(&want, &got, e.eb_abs)?;
            Ok((
                e.archive.len(),
                Some(psnr(want.as_slice(), got.as_slice())),
                Vec::new(),
            ))
        }
        _ => Err(match decode_error(body) {
            Some((stage, msg)) => format!("error reply from {stage}: {msg}"),
            None => format!("unexpected reply opcode {op:#x}"),
        }),
    }
}

/// One client: send the next request as soon as the previous reply is
/// in, until `until`; check each reply outside the timed call. A socket
/// failure ends this client; the other keeps going.
fn client(
    addr: std::net::SocketAddr,
    reqs: &Mutex<Requests>,
    world: &World,
    until: Instant,
) -> Vec<Done> {
    let mut done = Vec::new();
    let mut sock = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: connect {addr}: {e}");
            return done;
        }
    };
    let _ = sock.set_nodelay(true);
    while Instant::now() < until {
        let began = Instant::now();
        let req = reqs.lock().expect("request sequence lock").next(&world.hot);
        let body = frame(&req, world);
        let sent = Instant::now();
        let reply = write_frame(&mut sock, &body).and_then(|_| read_frame(&mut sock));
        let answered = Instant::now();
        let broken = matches!(reply, Err(_) | Ok(None));
        let mut d = Done {
            req,
            began,
            sent,
            answered,
            err: None,
            archive_bytes: 0,
            psnr: None,
            sample: None,
        };
        match check_reply(&req, reply, world) {
            Ok((a, p, bytes)) => {
                d.archive_bytes = a;
                d.psnr = p;
                d.sample = req.sampled.then_some(bytes);
            }
            Err(e) => d.err = Some(format!("request {}: {e}", req.idx)),
        }
        done.push(d);
        if broken {
            break;
        }
    }
    done
}

/// The daemon under test, serving on an ephemeral loopback port. It is
/// drained and joined when stopped or dropped.
struct Daemon {
    addr: std::net::SocketAddr,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<Result<String, cuszi_cli::CliError>>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: CONNECTIONS,
            max_inflight: CONNECTIONS,
            devices: 1,
        })
        .map_err(|e| e.0)?;
        let addr = server.local_addr().map_err(|e| e.0)?;
        let (engine, stop) = (server.engine(), server.stop_handle());
        let handle = Some(std::thread::spawn(move || server.run()));
        Ok(Daemon {
            addr,
            engine,
            stop,
            handle,
        })
    }

    /// Drain and join the daemon.
    fn stop(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        match self.handle.take().map(std::thread::JoinHandle::join) {
            None | Some(Ok(Ok(_))) => Ok(()),
            Some(Ok(Err(e))) => Err(e.0),
            Some(Err(_)) => Err("daemon thread panicked".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Run both clients for `secs` seconds; requests begun in the first
/// `skip_s` seconds are not kept.
fn drive(d: &Daemon, world: &World, reqs: &Mutex<Requests>, secs: f64, skip_s: f64) -> Vec<Done> {
    let start = Instant::now();
    let until = start + std::time::Duration::from_secs_f64(secs);
    let keep_from = start + std::time::Duration::from_secs_f64(skip_s);
    let mut all: Vec<Done> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..CONNECTIONS)
            .map(|_| s.spawn(|| client(d.addr, reqs, world, until)))
            .collect();
        hs.into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    all.retain(|x| x.began >= keep_from);
    all.sort_by_key(|x| x.req.idx);
    all
}

struct Ready {
    world: World,
    daemon: Daemon,
}

/// Set-up: the seeded inputs and decompress pool, and a running daemon.
fn set_up(seed: u64, out: &mut Outcome) -> Option<Ready> {
    let world = World::new(seed, out);
    match Daemon::start() {
        Ok(daemon) => Some(Ready { world, daemon }),
        Err(e) => {
            out.fail(format!("daemon: {e}"));
            None
        }
    }
}

/// Figures of a recorded set of requests.
struct Tally {
    log: CallLog,
    compress: Passes,
    decompress: Passes,
    raw_in: usize,
    archive_out: usize,
    min_psnr: f64,
    samples: Vec<(Crop, Vec<u8>)>,
    /// Successful compress and decompress requests per crop size.
    per_size: [[usize; 2]; 2],
    resubmits: usize,
}

/// Count every request as an operation and gather its figures.
fn tally(done: &[Done], world: &World, out: &mut Outcome) -> Tally {
    let mut t = Tally {
        log: CallLog::new(LIMIT_MS),
        compress: Passes::default(),
        decompress: Passes::default(),
        raw_in: 0,
        archive_out: 0,
        min_psnr: f64::INFINITY,
        samples: Vec::new(),
        per_size: [[0; 2]; 2],
        resubmits: 0,
    };
    for d in done {
        let ok = d.err.is_none();
        t.log.push(d.rtt_ms(), ok);
        out.op(d.err.clone().map_or(Ok(()), Err));
        if !ok {
            continue;
        }
        let n = d.req.n(world);
        let (raw, size) = (n * n * n * 4, usize::from(n == SIZES[1]));
        let secs = d.rtt_ms() / 1e3;
        match d.req.kind {
            Kind::Compress { crop, resubmit } => {
                t.per_size[0][size] += 1;
                t.resubmits += usize::from(resubmit);
                t.compress.add(raw, secs, PASS);
                t.raw_in += raw;
                t.archive_out += d.archive_bytes;
                if let Some(a) = d.sample.clone().filter(|_| t.samples.len() < SAMPLE_CAP) {
                    t.samples.push((crop, a));
                }
            }
            Kind::Decompress { .. } => {
                t.per_size[1][size] += 1;
                t.decompress.add(raw, secs, PASS);
            }
        }
        if let Some(p) = d.psnr {
            t.min_psnr = t.min_psnr.min(p);
        }
    }
    t
}

/// The sampled compress replies, re-made one-shot: each must be
/// byte-identical to `CuszI::compress` of the same input and decompress
/// within the bound.
///
/// Returns the modelled compress and decompress throughput of the run's
/// request mix, GB/s: each size's mean modelled time over the sample,
/// weighted by how many requests of that size the run served (so the
/// figure does not hang on which sizes the sample happened to draw).
fn verify_samples(world: &World, t: &mut Tally, out: &mut Outcome) -> (f64, f64) {
    let codec = CuszI::new(config());
    let model = TimingModel::new(codec.config().device);
    // Per size: samples, summed modelled compress and decompress seconds.
    let mut sim = [(0usize, 0.0, 0.0); 2];
    for (crop, archive) in &t.samples {
        let data = crop.cut(&world.sources);
        let checked = codec
            .compress(&data)
            .map_err(|e| e.to_string())
            .and_then(|c| {
                if c.bytes != *archive {
                    return Err("served archive differs from one-shot CuszI::compress".to_string());
                }
                let d = codec.decompress(archive).map_err(|e| e.to_string())?;
                check_bound(&data, &d.data, c.eb_abs)?;
                t.min_psnr = t.min_psnr.min(psnr(data.as_slice(), d.data.as_slice()));
                let s = &mut sim[usize::from(crop.n == SIZES[1])];
                s.0 += 1;
                s.1 += model.pipeline_time(&c.kernels);
                s.2 += model.pipeline_time(&d.kernels);
                Ok(())
            });
        if let Err(e) = checked {
            out.fail(format!("sampled reply {crop:?}: {e}"));
        }
    }
    let gbps = |dir: usize| {
        let (mut bytes, mut secs) = (0.0, 0.0);
        for (i, &n) in SIZES.iter().enumerate() {
            let (k, c, d) = sim[i];
            if k > 0 {
                let reqs = t.per_size[dir][i] as f64;
                bytes += reqs * (n * n * n * 4) as f64;
                secs += reqs * if dir == 0 { c } else { d } / k as f64;
            }
        }
        bytes / secs / 1e9
    };
    (gbps(0), gbps(1))
}

pub fn run(a: &Args) -> (Outcome, Option<Trace>) {
    let mut out = Outcome::default();
    let (ready, setup) = repeat_setup(a.setup_reps(), || set_up(a.seed, &mut out));
    let Some(Ready { world, mut daemon }) = ready else {
        return (out, None);
    };
    let trace = if a.trace {
        let tr = traced(a, &world, &daemon, &mut out);
        crate::control(&crate::inputs::roundtrip_fields(a.seed), &mut out);
        Some(tr)
    } else {
        measure(a, &world, &daemon, setup, &mut out);
        None
    };
    if let Err(e) = daemon.stop() {
        out.fail(format!("daemon drain: {e}"));
    }
    (out, trace)
}

fn measure(a: &Args, world: &World, daemon: &Daemon, setup: (f64, usize), out: &mut Outcome) {
    let reqs = Mutex::new(Requests::new(a.seed, world));
    let done = drive(daemon, world, &reqs, WARMUP_S + a.seconds as f64, WARMUP_S);
    let mut t = tally(&done, world, out);
    let (sim_c, sim_d) = verify_samples(world, &mut t, out);
    let n = t.log.lat_ms.len();
    let compress_n = t.per_size[0][0] + t.per_size[0][1];
    println!(
        "serve-mixed: {n} requests, {compress_n} compress ({:.1}% resubmissions), {} sampled",
        100.0 * t.resubmits as f64 / compress_n.max(1) as f64,
        t.samples.len()
    );
    let (c_mbps, nc) = t.compress.median_mbps();
    let (d_mbps, nd) = t.decompress.median_mbps();
    out.metric("compress_mbps", c_mbps, "MB/s", nc);
    out.metric("decompress_mbps", d_mbps, "MB/s", nd);
    let ratio = t.raw_in as f64 / t.archive_out.max(1) as f64;
    out.metric("compression_ratio", ratio, "ratio", compress_n);
    out.metric("psnr_db", t.min_psnr, "dB", n);
    out.modelled("sim_compress_gbps", sim_c, "GB/s", t.samples.len());
    out.modelled("sim_decompress_gbps", sim_d, "GB/s", t.samples.len());
    out.latency_metrics(&t.log, a.seconds as f64);
    out.ok_frac_metric();
    out.metric("setup_s", setup.0, "s", setup.1);
}

/// Mean and bucket-bound max of an engine histogram, with its count.
fn hist(s: &Snapshot, name: &str) -> (f64, f64, usize) {
    s.histograms.get(name).map_or((0.0, 0.0, 0), |h| {
        (h.mean(), h.max as f64, h.count as usize)
    })
}

/// Traced run: an untraced phase, then a traced phase of equal length
/// with a span per request and the engine's counters read around it.
fn traced(a: &Args, world: &World, daemon: &Daemon, out: &mut Outcome) -> Trace {
    let half = a.seconds as f64 / 2.0;
    let reqs = Mutex::new(Requests::new(a.seed, world));
    let plain = drive(daemon, world, &reqs, WARMUP_S + half, WARMUP_S);
    let plain_ms: Vec<f64> = plain.iter().map(Done::rtt_ms).collect();
    tally(&plain, world, out);

    let before = daemon.engine.metrics();
    let gpu0 = trace::launches();
    trace::count_launches(true);
    let start = Instant::now();
    let done = drive(daemon, world, &reqs, half, 0.0);
    trace::count_launches(false);
    let gpu = trace::launches().since(gpu0);
    let eng = daemon.engine.metrics().delta(&before);

    let mut tr = Trace::new(start);
    for d in &done {
        let root = tr.record("request", None, d.req.idx, d.began, d.answered);
        tr.record("loadgen.frame", Some(root), d.req.idx, d.began, d.sent);
        tr.record("serve.roundtrip", Some(root), d.req.idx, d.sent, d.answered);
    }
    let n = done.len();
    let traced_ms: Vec<f64> = done.iter().map(Done::rtt_ms).collect();
    let (rtt_ms, _) = tr.mean_ms("serve.roundtrip");
    let (frame_ms, _) = tr.mean_ms("loadgen.frame");
    tally(&done, world, out);

    let (qw_mean, qw_max, jobs) = hist(&eng, "engine.queue_wait_us");
    let (svc_mean, _, _) = hist(&eng, "engine.service_us");
    let count = |k: &str| eng.counters.get(k).copied().unwrap_or(0) as f64;
    let (hits, misses) = (count("engine.cache_hit"), count("engine.cache_miss"));
    out.metric("engine.queue_wait_us.mean", qw_mean, "us", jobs);
    out.metric("engine.queue_wait_us.max", qw_max, "us", jobs);
    out.metric("engine.service_us.mean", svc_mean, "us", jobs);
    let lookups = hits + misses;
    out.metric(
        "engine.cache_hit_rate",
        hits / lookups.max(1.0),
        "ratio",
        lookups as usize,
    );
    out.metric("engine.rejected", count("engine.rejected"), "count", jobs);
    out.metric(
        "engine.job_errors",
        count("engine.job_errors"),
        "count",
        jobs,
    );
    out.metric(
        "serve.socket_ms",
        rtt_ms - (qw_mean + svc_mean) / 1e3,
        "ms",
        n,
    );
    let k = n.max(1) as f64;
    out.modelled("gpu_sim.launches", gpu.launches as f64 / k, "count", n);
    out.modelled("gpu_sim.dram_bytes", gpu.dram_bytes as f64 / k, "bytes", n);
    out.modelled("gpu_sim.coalescing_eff", gpu.coalescing_eff(), "ratio", n);
    out.metric("loadgen.frame_ms", frame_ms, "ms", n);
    out.metric(
        "trace.overhead_pct",
        crate::overhead_pct(&plain_ms, &traced_ms),
        "%",
        n,
    );
    tr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_and_archives() {
        let mut out = Outcome::default();
        let (w, w2) = (World::new(5, &mut out), World::new(5, &mut out));
        assert_eq!(out.failed, 0);
        let take = |seed, w: &World| {
            let mut r = Requests::new(seed, w);
            (0..400).map(|_| r.next(&w.hot)).collect::<Vec<Req>>()
        };
        let (a, b, c) = (take(5, &w), take(5, &w2), take(6, &w));
        assert_eq!(a, b);
        assert_ne!(a, c);
        for (x, y) in a.iter().zip(&b).take(16) {
            assert_eq!(frame(x, &w), frame(y, &w2));
        }
        for (e, f) in w.pool.iter().zip(&w2.pool) {
            assert_eq!(e.archive, f.archive);
        }
        let share = |pred: fn(&Req) -> bool| a.iter().filter(|r| pred(r)).count() as f64 / 400.0;
        let decompress = share(|r| matches!(r.kind, Kind::Decompress { .. }));
        assert!(
            (0.15..0.35).contains(&decompress),
            "decompress share {decompress}"
        );
        let resubmit = share(|r| matches!(r.kind, Kind::Compress { resubmit: true, .. }));
        assert!(
            (0.1..0.3).contains(&resubmit),
            "resubmission share {resubmit}"
        );
    }

    #[test]
    fn pool_entries_belong_to_the_requesting_tenant() {
        let mut out = Outcome::default();
        let w = World::new(3, &mut out);
        assert_eq!(w.pool.len(), TENANTS * SIZES.len() * POOL_PER_SIZE);
        for t in 0..TENANTS {
            for (size, &n) in SIZES.iter().enumerate() {
                let e = &w.pool[pool_index(t, size, POOL_PER_SIZE - 1)];
                assert_eq!(e.crop.n, n);
                assert_eq!(e.crop.source / SOURCES_PER_TENANT, t);
            }
        }
    }
}
