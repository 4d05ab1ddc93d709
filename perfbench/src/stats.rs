//! Quantiles, the metric list a run prints, and the in-memory span log.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use service::json::Json;

/// Nearest-rank quantile of `values` (sorted here); `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Whether at least ten of `n` samples lie beyond the `q` quantile.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n >= 10 && n - ((q * n as f64).ceil() as usize).min(n) >= 10
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub count: usize,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, count: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            count,
        });
    }

    /// Add the median and every supported tail of `samples`; `tails`
    /// lists the tail quantiles to try.
    pub fn add_timing(&mut self, name: &str, samples: &[f64], unit: &'static str, tails: &[f64]) {
        let median = quantile(samples, 0.5).unwrap_or(f64::NAN);
        self.add(&format!("{name}.p50"), median, unit, samples.len());
        for &q in tails {
            if tail_supported(samples.len(), q) {
                let v = quantile(samples, q).unwrap_or(f64::NAN);
                self.add(
                    &format!("{name}.p{}", (q * 100.0).round()),
                    v,
                    unit,
                    samples.len(),
                );
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// One line per metric, for people.
    pub fn print(&self, title: &str) {
        println!("{title}");
        for m in &self.metrics {
            println!(
                "  {:<32} {:>14.4} {:<9} n={}",
                m.name, m.value, m.unit, m.count
            );
        }
    }

    /// The `metrics` object of the result line, restricted to `names`.
    pub fn json(&self, names: &[&str]) -> Json {
        Json::Obj(
            names
                .iter()
                .map(|n| {
                    let m = self.get(n);
                    (
                        (*n).to_string(),
                        Json::Obj(vec![
                            (
                                "value".to_string(),
                                Json::Num(m.map_or(f64::NAN, |m| m.value)),
                            ),
                            ("unit".to_string(), Json::str(m.map_or("", |m| m.unit))),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The frame or case the span belongs to.
    pub frame: u64,
}

/// Spans kept in memory and written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, frame: u64) -> usize {
        let span = Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            frame,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let now = self.now();
        self.spans[id].end_ns = now;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, frame: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, frame);
        let out = f();
        self.end(id);
        out
    }

    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Every span's duration minus what its children cover, in ns.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self times of every span called `name`, in ns.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64)
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let doc = Json::Obj(vec![
                ("id".to_string(), Json::Num(i as f64)),
                ("name".to_string(), Json::str(s.name)),
                ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("frame".to_string(), Json::Num(s.frame as f64)),
                ("self_ns".to_string(), Json::Num(self_ns[i] as f64)),
            ]);
            writeln!(f, "{}", doc.render())?;
        }
        f.flush()
    }
}

/// Median of `v`, or 0 when empty (a layer the workload bypasses).
pub fn median_or_zero(v: &[f64]) -> f64 {
    quantile(v, 0.5).unwrap_or(0.0)
}
