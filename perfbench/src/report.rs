//! A run's outcome: operation counts, check results and named metrics,
//! rendered as the table, the record file and the final result line.

use std::fmt::Write as _;

use crate::host::{json_escape, Fingerprint};
use crate::stats::{self, CallLog};

/// One reported number. `samples` is how many observations it rests
/// on (calls, passes, requests); 0 marks a layer the workload does not
/// run, whose value is then 0 by convention.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// How the value was obtained when a reader could mistake it:
    /// "modelled" for gpu-sim figures, "computed" for derived ones.
    pub note: String,
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            note: String::new(),
        });
    }

    /// A metric the gpu-sim timing model or counters produced.
    pub fn modelled(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            note: "modelled".into(),
        });
    }

    /// Count one operation; a failed one records why.
    pub fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.fail(why);
        }
    }

    /// Record a failed correctness check on an operation already counted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.mismatches.len() < 20 {
            self.mismatches.push(why);
        }
    }

    /// `latency_p50_ms`, `latency_p99_ms` and `goodput_rps` of a call
    /// log over a run of `run_s` seconds.
    pub fn latency_metrics(&mut self, log: &CallLog, run_s: f64) {
        let n = log.lat_ms.len();
        let s = stats::sorted(log.lat_ms.clone());
        self.metric(
            "latency_p50_ms",
            stats::percentile(&s, 50.0).unwrap_or(0.0),
            "ms",
            n,
        );
        self.metric(
            "latency_p99_ms",
            stats::percentile(&s, 99.0).unwrap_or(0.0),
            "ms",
            n,
        );
        let beyond = stats::samples_beyond(n, 99.0);
        self.metrics.last_mut().expect("just pushed").note = if beyond < 10 {
            format!("{beyond} samples beyond p99: too few to support it")
        } else {
            format!("{beyond} samples beyond p99")
        };
        self.metric("goodput_rps", log.within as f64 / run_s, "1/s", log.within);
    }

    /// `ok_frac`: operations that succeeded over operations attempted.
    pub fn ok_frac_metric(&mut self) {
        let ok = self.attempted.saturating_sub(self.failed);
        let frac = if self.attempted == 0 {
            0.0
        } else {
            ok as f64 / self.attempted as f64
        };
        self.metric("ok_frac", frac, "ratio", self.attempted as usize);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Human-readable table of every metric with unit and sample count.
    pub fn table(&self) -> String {
        let mut s = format!(
            "{:<40} {:>16} {:<8} {:>8}  note\n",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            let samples = if m.samples == 0 {
                "-".to_string()
            } else {
                m.samples.to_string()
            };
            let note = if m.samples == 0 {
                "not on this workload's path"
            } else {
                &m.note
            };
            let _ = writeln!(
                s,
                "{:<40} {:>16.4} {:<8} {:>8}  {note}",
                m.name, m.value, m.unit, samples
            );
        }
        s
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric as `{value, unit}`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The full record kept beside the result: fingerprint, run
    /// parameters, sample counts and notes.
    pub fn record(
        &self,
        workload: &str,
        seed: u64,
        seconds: u64,
        trace: bool,
        fp: &Fingerprint,
    ) -> String {
        let mut s = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\
             \"fingerprint\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"mismatches\":[",
            u8::from(trace),
            fp.to_json(),
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.mismatches.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{}\"", json_escape(m));
        }
        s.push_str("],\"metrics\":{");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{},\"note\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit,
                m.samples,
                json_escape(&m.note)
            );
        }
        s.push_str("\n}}\n");
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip format
/// gives; non-finite values (which JSON cannot carry) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.op(Ok(()));
        o.op(Err("bound exceeded".into()));
        o.metric("latency_ms", 1.2034, "ms", 10);
        let line = o.result_line();
        let v = cuszi_profile::minjson::parse(&line).expect("valid json");
        let keys: Vec<&String> = v.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(|x| x.as_f64()), Some(2.0));
        assert_eq!(v.get("failed").and_then(|x| x.as_f64()), Some(1.0));
        assert_eq!(
            v.get("correct"),
            Some(&cuszi_profile::minjson::Value::Bool(false))
        );
        let m = v
            .get("metrics")
            .and_then(|m| m.get("latency_ms"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(1.2034));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("ms"));
        assert_eq!(m.as_object().map(|o| o.len()), Some(2));
    }
}
