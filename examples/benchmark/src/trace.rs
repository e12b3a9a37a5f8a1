//! Spans recorded around each call into a layer, kept in memory and
//! written out when the replay ends.
//!
//! A span's name is `<layer>.<call>`; its self time is its duration
//! minus the part of its interval covered by its children. Children of a
//! sweep span run on several threads at once, so a sweep's layer shares
//! can add up to more than 1.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;

use serde_json::Value;

use crate::util::now_s;

/// The layers spans are attributed to, in call order.
pub const LAYERS: [&str; 7] = [
    "service",
    "core",
    "grid",
    "workload",
    "scheduler",
    "telemetry",
    "serde_json",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Runs `f` inside a span named `name`, handing it the span's id for its
/// children, and returns its result with its duration in seconds. With
/// tracing off nothing is recorded.
pub fn span<R>(name: &'static str, parent: u32, op: u32, f: impl FnOnce(u32) -> R) -> (R, f64) {
    if !ENABLED.load(Ordering::Relaxed) {
        let start = now_s();
        let r = f(0);
        return (r, now_s() - start);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start = now_s();
    let r = f(id);
    let end = now_s();
    SPANS.lock().expect("span buffer").push(Span {
        id,
        parent,
        op,
        name,
        start,
        end,
    });
    (r, end - start)
}

pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer"))
}

fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut reach) = (0.0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Per-layer self time and per-name counts and mean durations.
pub struct Summary {
    /// Seconds of self time per layer.
    pub self_s: HashMap<String, f64>,
    /// Total seconds of root spans (one per replayed operation).
    pub root_s: f64,
    /// (count, total seconds) per span name.
    pub by_name: HashMap<&'static str, (u64, f64)>,
}

impl Summary {
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(n, s)| if n > 0 { s / n as f64 * 1e3 } else { 0.0 })
    }

    pub fn self_share(&self, layer: &str) -> f64 {
        crate::util::ratio(self.self_s.get(layer).copied().unwrap_or(0.0), self.root_s)
    }
}

pub fn summarize(spans: &[Span]) -> Summary {
    let mut children: HashMap<u32, Vec<(f64, f64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut summary = Summary {
        self_s: HashMap::new(),
        root_s: 0.0,
        by_name: HashMap::new(),
    };
    for s in spans {
        let kids = children.remove(&s.id).unwrap_or_default();
        let own = (s.end - s.start) - covered(kids, s.start, s.end);
        *summary.self_s.entry(layer(s.name).to_string()).or_default() += own;
        let entry = summary.by_name.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += s.end - s.start;
        if s.parent == 0 {
            summary.root_s += s.end - s.start;
        }
    }
    summary
}

/// Writes `spans.jsonl` (one span per line, times in µs from process
/// start) and `summary.json` into `dir`.
pub fn write(dir: &Path, spans: &[Span], summary: &Summary) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(dir.join("spans.jsonl"))?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
            s.id,
            s.parent,
            s.op,
            s.name,
            s.start * 1e6,
            s.end * 1e6
        )?;
    }
    out.flush()?;
    let mut names: Vec<_> = summary.by_name.iter().collect();
    names.sort_by_key(|(name, _)| **name);
    let doc = Value::Object(vec![
        ("root_ms".to_string(), Value::F64(summary.root_s * 1e3)),
        (
            "layers".to_string(),
            Value::Array(
                LAYERS
                    .iter()
                    .map(|l| {
                        Value::Object(vec![
                            ("layer".to_string(), Value::Str(l.to_string())),
                            (
                                "self_ms".to_string(),
                                Value::F64(summary.self_s.get(*l).copied().unwrap_or(0.0) * 1e3),
                            ),
                            ("self_share".to_string(), Value::F64(summary.self_share(l))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "spans".to_string(),
            Value::Array(
                names
                    .into_iter()
                    .map(|(name, &(n, s))| {
                        Value::Object(vec![
                            ("name".to_string(), Value::Str(name.to_string())),
                            ("count".to_string(), Value::U64(n)),
                            ("total_ms".to_string(), Value::F64(s * 1e3)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(std::io::Error::other)?;
    std::fs::write(dir.join("summary.json"), text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32, parent: u32, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            s(1, 0, "service.request", 0.0, 10.0),
            s(2, 1, "core.sweep", 1.0, 9.0),
            // Two overlapping parallel points cover 2..7 of the sweep.
            s(3, 2, "scheduler.simulate", 2.0, 6.0),
            s(4, 2, "scheduler.simulate", 3.0, 7.0),
        ];
        let sum = summarize(&spans);
        assert!((sum.self_s["service"] - 2.0).abs() < 1e-12);
        assert!((sum.self_s["core"] - 3.0).abs() < 1e-12);
        assert!((sum.self_s["scheduler"] - 8.0).abs() < 1e-12);
        assert!((sum.root_s - 10.0).abs() < 1e-12);
        assert!((sum.mean_ms("scheduler.simulate") - 4000.0).abs() < 1e-9);
        assert_eq!(sum.by_name["core.sweep"].0, 1);
    }
}
