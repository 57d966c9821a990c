//! Tiny aligned-text table printer for the experiment rows, plus the
//! throughput-timeline table and folds the slow-core rows share.

use onepaxos::Nanos;

/// Builds an aligned text table.
///
/// # Examples
///
/// ```
/// use consensus_bench::table::Table;
/// let mut t = Table::new(&["protocol", "latency"]);
/// t.row(&["1Paxos", "16.0"]);
/// let s = t.render();
/// assert!(s.contains("1Paxos"));
/// ```
#[derive(Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as the header).
    ///
    /// # Panics
    ///
    /// Panics on a column-count mismatch.
    pub fn row(&mut self, cells: &[impl AsRef<str>]) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_string()).collect());
    }

    /// Renders the table with a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|&w| "-".repeat(w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats ops/sec with thousands separators.
pub fn ops(v: f64) -> String {
    let n = v.round() as u64;
    let s = n.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

/// Formats a microsecond value with one decimal.
pub fn us(v: f64) -> String {
    format!("{v:.1}")
}

/// Renders every `every`-th bucket of throughput timelines (`(bucket
/// start, op/s)` pairs) as a `t (ms)` column followed by one `op/s`
/// column per series. The first series sets the bucket times; a later
/// series missing a bucket shows 0.
pub fn timeline(columns: &[&str], series: &[&[(Nanos, f64)]], every: usize) -> String {
    let header: Vec<&str> = std::iter::once("t (ms)")
        .chain(columns.iter().copied())
        .collect();
    let mut t = Table::new(&header);
    for (i, &(at, _)) in series[0].iter().enumerate().step_by(every) {
        let row: Vec<String> = std::iter::once(format!("{}", at / 1_000_000))
            .chain(
                series
                    .iter()
                    .map(|s| ops(s.get(i).map_or(0.0, |&(_, r)| r))),
            )
            .collect();
        t.row(&row);
    }
    t.render()
}

fn rates_in(tl: &[(Nanos, f64)], from: Nanos, to: Nanos) -> impl Iterator<Item = f64> + '_ {
    tl.iter()
        .filter(move |&&(at, _)| (from..to).contains(&at))
        .map(|&(_, r)| r)
}

/// The highest rate among the buckets starting in `[from, to)`; 0 if none.
pub fn peak(tl: &[(Nanos, f64)], from: Nanos, to: Nanos) -> f64 {
    rates_in(tl, from, to).fold(0.0, f64::max)
}

/// The lowest rate among the buckets starting in `[from, to)`; 0 if none.
pub fn trough(tl: &[(Nanos, f64)], from: Nanos, to: Nanos) -> f64 {
    let low = rates_in(tl, from, to).fold(f64::INFINITY, f64::min);
    if low.is_finite() {
        low
    } else {
        0.0
    }
}

/// The highest rate among the last `k` buckets; 0 if none.
pub fn peak_of_last(tl: &[(Nanos, f64)], k: usize) -> f64 {
    tl.iter().rev().take(k).map(|&(_, r)| r).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["x", "1"]);
        t.row(&["yyyy", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].len(), lines[0].len());
    }

    #[test]
    fn ops_formats_thousands() {
        assert_eq!(ops(1234567.4), "1,234,567");
        assert_eq!(ops(999.0), "999");
        assert_eq!(ops(0.0), "0");
    }

    #[test]
    fn timeline_prints_every_nth_bucket_of_each_series() {
        let a = [(0, 1.0), (10_000_000, 2.0), (20_000_000, 3.0)];
        let b = [(0, 4.0), (10_000_000, 5.0)];
        let s = timeline(&["a op/s", "b op/s"], &[&a, &b], 2);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "t (ms)  a op/s  b op/s");
        assert_eq!(lines[2], "     0       1       4");
        assert_eq!(lines[3], "    20       3       0", "b has no third bucket");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn timeline_folds() {
        let tl = [(0, 5.0), (10, 9.0), (20, 2.0), (30, 7.0)];
        assert_eq!(peak(&tl, 0, 20), 9.0);
        assert_eq!(trough(&tl, 10, 40), 2.0);
        assert_eq!(trough(&tl, 40, 50), 0.0, "empty window");
        assert_eq!(peak_of_last(&tl, 2), 7.0);
        assert_eq!(peak_of_last(&[], 3), 0.0);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }
}
