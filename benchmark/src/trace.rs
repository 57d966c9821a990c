//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory and written out when the run ends. A
//! layer's number is the median *self time* of its spans: duration
//! minus the part covered by child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// A root span around one client call of a workload re-run.
#[derive(Clone, Copy, Debug)]
pub struct RootSpan {
    /// `put`, `get`, `txn_put`, `paced`, `fault` or `burst`.
    pub kind: &'static str,
    pub ok: bool,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A span of the inline pipeline; `parent == 0` marks a request root.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub req: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a request root; spans begun before [`Tracer::end`] closes
    /// it share its request id.
    pub fn begin_request(&mut self) -> u32 {
        self.req += 1;
        self.begin("request")
    }

    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            id,
            parent,
            req: self.req,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its duration.
    pub fn end(&mut self, id: u32) -> u64 {
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id as usize - 1];
        s.end_ns = end_ns;
        end_ns - s.start_ns
    }

    /// Self time of every span, grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut child_sum = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_sum[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_sum[s.id as usize]);
            out.entry(s.name).or_default().push(own);
        }
        out
    }
}

pub fn median_u64(v: &mut [u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2] as f64
    } else {
        (v[n / 2 - 1] + v[n / 2]) as f64 / 2.0
    }
}

pub fn median_f64(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Root spans written per client; a re-run records more than anyone
/// reads, the file keeps the head of each client's list and the totals.
const ROOTS_WRITTEN_PER_CLIENT: usize = 20_000;
const PIPELINE_SPANS_WRITTEN: usize = 60_000;

/// Writes `benchmark/out/trace_<workload>.json`.
pub fn write_file(
    workload: &str,
    roots: &[Vec<RootSpan>],
    pipelines: &[(&str, &Tracer)],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{workload}.json"));
    let mut s = String::new();
    let _ = writeln!(s, "{{\"workload\": \"{workload}\", \"clients\": [");
    for (c, spans) in roots.iter().enumerate() {
        let _ = writeln!(
            s,
            " {{\"client\": {c}, \"recorded\": {}, \"root_spans\": [",
            spans.len()
        );
        let head = &spans[..spans.len().min(ROOTS_WRITTEN_PER_CLIENT)];
        for (i, r) in head.iter().enumerate() {
            let comma = if i + 1 < head.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "  {{\"op\": \"{}\", \"req\": {i}, \"start_ns\": {}, \"end_ns\": {}, \"ok\": {}}}{comma}",
                r.kind,
                r.start_ns,
                r.start_ns + r.dur_ns,
                r.ok
            );
        }
        let comma = if c + 1 < roots.len() { "," } else { "" };
        let _ = writeln!(s, " ]}}{comma}");
    }
    let _ = writeln!(s, "], \"pipelines\": [");
    for (p, (name, tracer)) in pipelines.iter().enumerate() {
        let _ = writeln!(
            s,
            " {{\"pipeline\": \"{name}\", \"recorded\": {}, \"spans\": [",
            tracer.spans.len()
        );
        let head = &tracer.spans[..tracer.spans.len().min(PIPELINE_SPANS_WRITTEN)];
        for (i, sp) in head.iter().enumerate() {
            let comma = if i + 1 < head.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "  {{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                sp.name, sp.id, sp.parent, sp.req, sp.start_ns, sp.end_ns
            );
        }
        let comma = if p + 1 < pipelines.len() { "," } else { "" };
        let _ = writeln!(s, " ]}}{comma}");
    }
    s.push_str("]}\n");
    std::fs::write(&path, s)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_requests_number_their_spans() {
        let mut t = Tracer::default();
        let root = t.begin_request();
        let a = t.begin("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.end(root);
        let root2 = t.begin_request();
        t.end(root2);
        assert_eq!(t.spans[1].parent, root);
        assert_eq!((t.spans[1].req, t.spans[2].req), (1, 2));
        let selfs = t.self_times();
        let total = t.spans[0].end_ns - t.spans[0].start_ns;
        assert!(selfs["a"][0] >= 2_000_000);
        assert_eq!(selfs["request"][0], total - selfs["a"][0]);
    }

    #[test]
    fn medians() {
        assert_eq!(median_u64(&mut [5, 1, 9]), 5.0);
        assert_eq!(median_u64(&mut [4, 2]), 3.0);
        assert_eq!(median_f64(&mut [2.0, 8.0, 4.0]), 4.0);
        assert_eq!(median_f64(&mut []), 0.0);
    }
}
