//! `perfbench compare <dir-a> <dir-b>`: set two result sets side by
//! side, workload by workload.
//!
//! Each set is a directory of run records (`.bench_out` by default).
//! Results from different hosts are refused (exit 2): a 1-core and a
//! 2-core run differ by the machine, not the code. End-to-end metrics
//! get a verdict against the bounds in the `BENCHMARK.json` beside this
//! package (exit 2 when it is missing or lists none); when the drift
//! control (`control.cusz.compress_mbps`, an unchanged baseline codec)
//! moved outside its own spread, every verdict that would claim a change
//! reads "environment drift" instead. Exit 1 means a regression.

use std::collections::BTreeMap;
use std::path::Path;

use cuszi_profile::minjson::{self, Value};

use crate::host::Fingerprint;
use crate::stats::{median, quartiles};

const CONTROL: &str = "control.cusz.compress_mbps";

/// One run record: its workload, whether traced, host and metrics.
struct Record {
    workload: String,
    traced: bool,
    fingerprint: Fingerprint,
    metrics: BTreeMap<String, f64>,
}

fn load(dir: &Path) -> Result<Vec<Record>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().to_string();
        if !name.ends_with(".json") || name.ends_with(".spans.json") {
            continue;
        }
        let src = std::fs::read_to_string(e.path()).map_err(|err| format!("{name}: {err}"))?;
        let v = minjson::parse(&src).map_err(|err| format!("{name}: {err}"))?;
        let bad = || format!("{name}: not a perfbench record");
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(bad)?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        out.push(Record {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(bad)?
                .to_string(),
            traced: v.get("trace").and_then(Value::as_f64) == Some(1.0),
            fingerprint: v
                .get("fingerprint")
                .and_then(Fingerprint::from_json)
                .ok_or_else(bad)?,
            metrics,
        });
    }
    if out.is_empty() {
        return Err(format!("{}: no run records", dir.display()));
    }
    Ok(out)
}

/// The first host-key field on which two result sets differ.
fn host_mismatch(a: &[Record], b: &[Record]) -> Option<String> {
    let first = a[0].fingerprint.host_key();
    for r in a.iter().chain(b) {
        for ((k, want), (_, got)) in first.iter().zip(r.fingerprint.host_key()) {
            if *want != got {
                return Some(format!("{k}: {want:?} vs {got:?}"));
            }
        }
    }
    None
}

/// The benchmark definition beside this package, whatever the working
/// directory.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `(better, bound)` per end-to-end metric, from `BENCHMARK.json`. A
/// missing or unreadable file, or one that lists no bounds, is an error:
/// without bounds no metric could get a verdict.
fn bounds(path: &Path) -> Result<BTreeMap<String, (bool, f64)>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|src| parse_bounds(&src))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_bounds(src: &str) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let v = minjson::parse(src).map_err(|e| e.to_string())?;
    let list = v.get("end_to_end").and_then(Value::as_array).unwrap_or(&[]);
    let bounds: BTreeMap<_, _> = list
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let higher = m.get("better")?.as_str()? == "higher";
            Some((name, (higher, m.get("bound")?.as_f64()?)))
        })
        .collect();
    if bounds.is_empty() {
        return Err("no end-to-end bounds".into());
    }
    Ok(bounds)
}

fn select(rs: &[Record], keep: impl Fn(&Record) -> bool) -> Vec<&Record> {
    rs.iter().filter(|r| keep(r)).collect()
}

fn values(rs: &[&Record], metric: &str) -> Vec<f64> {
    rs.iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Whether the drift control's median in `b` left the interquartile
/// range of `a`. `None` when either set has too few traced runs.
pub fn drifted(a: &[f64], b: &[f64]) -> Option<bool> {
    let q = quartiles(a)?;
    let m = median(b)?;
    Some(m < q[0] || m > q[2])
}

/// Verdict on one end-to-end metric: `worse` is the relative change in
/// the metric's bad direction (B against A).
pub fn verdict(a: &[f64], b: &[f64], higher: bool, bound: f64, drift: bool) -> &'static str {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return "no data";
    };
    let worse = if higher {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let spread = quartiles(a).map_or(0.0, |q| (q[2] - q[0]) / ma.abs());
    let all_better = |x: &f64| a.iter().all(|y| if higher { x > y } else { x < y });
    if spread > bound && !b.iter().all(all_better) {
        "unresolved"
    } else if worse.abs() <= bound {
        "within bound"
    } else if drift {
        "environment drift"
    } else if worse > 0.0 {
        "regression"
    } else {
        "improvement"
    }
}

pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: perfbench compare <dir-a> <dir-b>");
        return 2;
    };
    let (ra, rb) = match (load(Path::new(a)), load(Path::new(b))) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    if let Some(diff) = host_mismatch(&ra, &rb) {
        println!("refusing to compare: the results come from different hosts ({diff})");
        return 2;
    }
    let bounds = match bounds(Path::new(BENCHMARK_JSON)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    let (ca, cb) = (
        values(&select(&ra, |r| r.traced), CONTROL),
        values(&select(&rb, |r| r.traced), CONTROL),
    );
    let drift = drifted(&ca, &cb);
    match drift {
        Some(true) => println!(
            "drift control {CONTROL} moved outside its own spread \
             ({:.1} -> {:.1} MB/s): deltas that claim a change read \"environment drift\"",
            median(&ca).unwrap_or(0.0),
            median(&cb).unwrap_or(0.0)
        ),
        Some(false) => println!("drift control {CONTROL} held within its spread"),
        None => println!("drift control: needs two or more traced runs per set"),
    }
    let mut workloads: Vec<&str> = ra.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut regressed = false;
    for w in workloads {
        for traced in [false, true] {
            let keep = |r: &Record| r.workload == w && r.traced == traced;
            let (sa, sb) = (select(&ra, keep), select(&rb, keep));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let kind = if traced { "per-layer" } else { "end-to-end" };
            println!("\n## {w} ({kind}; {} vs {} runs)\n", sa.len(), sb.len());
            println!("| metric | median A | median B | delta | verdict |");
            println!("|---|---:|---:|---:|---|");
            for name in sa[0].metrics.keys() {
                let (va, vb) = (values(&sa, name), values(&sb, name));
                let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
                    continue;
                };
                let delta = if ma == 0.0 {
                    0.0
                } else {
                    (mb - ma) / ma.abs() * 100.0
                };
                let v = match bounds.get(name.as_str()) {
                    Some(&(higher, bound)) if !traced => {
                        verdict(&va, &vb, higher, bound, drift == Some(true))
                    }
                    _ => "",
                };
                regressed |= v == "regression";
                println!("| {name} | {ma:.4} | {mb:.4} | {delta:+.1}% | {v} |");
            }
        }
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_bound_spread_and_drift() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [80.0, 81.0, 79.0];
        assert_eq!(verdict(&a, &slower, true, 0.1, false), "regression");
        assert_eq!(verdict(&a, &slower, true, 0.1, true), "environment drift");
        assert_eq!(
            verdict(&a, &[99.0, 100.0], true, 0.1, false),
            "within bound"
        );
        assert_eq!(
            verdict(&a, &[130.0, 131.0], true, 0.1, false),
            "improvement"
        );
        // Lower-is-better: a 30% rise is a regression.
        assert_eq!(
            verdict(&a, &[130.0, 131.0], false, 0.1, false),
            "regression"
        );
        // A set whose own spread exceeds the bound cannot resolve 20%.
        let noisy = [50.0, 100.0, 150.0, 100.0];
        assert_eq!(
            verdict(&noisy, &[80.0, 80.0], true, 0.1, false),
            "unresolved"
        );
    }

    #[test]
    fn bounds_come_from_the_benchmark_file_and_are_required() {
        let b = bounds(Path::new(BENCHMARK_JSON)).expect("BENCHMARK.json bounds");
        assert_eq!(b.get("setup_s"), Some(&(false, 0.25)));
        assert!(bounds(Path::new("no/such/BENCHMARK.json")).is_err());
        assert!(parse_bounds(r#"{"end_to_end": []}"#).is_err());
    }

    #[test]
    fn drift_is_a_median_outside_the_control_spread() {
        let a = [100.0, 102.0, 98.0, 101.0, 99.0];
        assert_eq!(drifted(&a, &[100.5, 99.5]), Some(false));
        assert_eq!(drifted(&a, &[80.0, 81.0]), Some(true));
        assert_eq!(drifted(&[100.0], &[80.0]), None);
    }

    #[test]
    fn records_from_different_hosts_are_refused() {
        let fp = |nproc| Fingerprint {
            nproc,
            cpu_model: "cpu".into(),
            l2: "2048K".into(),
            l3: "300M".into(),
            rustflags: String::new(),
            rustc: "rustc 1".into(),
            git_rev: "abc".into(),
        };
        let rec = |nproc| Record {
            workload: "w".into(),
            traced: false,
            fingerprint: fp(nproc),
            metrics: BTreeMap::new(),
        };
        assert_eq!(host_mismatch(&[rec(2)], &[rec(2)]), None);
        assert_eq!(
            host_mismatch(&[rec(1)], &[rec(2)]).as_deref(),
            Some("nproc: \"1\" vs \"2\"")
        );
        // The git revision is provenance, not part of the host.
        let mut other = rec(2);
        other.fingerprint.git_rev = "def".into();
        assert_eq!(host_mismatch(&[rec(2)], &[other]), None);
        let parsed = minjson::parse(&fp(2).to_json())
            .ok()
            .and_then(|v| Fingerprint::from_json(&v));
        assert_eq!(parsed, Some(fp(2)));
    }
}
