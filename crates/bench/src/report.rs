//! Shared scaffolding for the registry's rows: the view of the command
//! line each row is handed, the one writer of the hand-rolled
//! `BENCH_*.json` envelope (the workspace builds offline, without serde)
//! and the acceptance gates. One implementation, so the recorded data
//! files cannot silently diverge in shape between experiments.

use std::fmt::{Display, Write as _};

/// One row's view of the command line (see [`crate::registry::BenchCli`]).
#[derive(Clone, Copy, Debug)]
pub struct RowArgs<'a> {
    /// Run the reduced CI-speed variant of the row.
    pub smoke: bool,
    /// Where a `BENCH_*.json`-recording row writes its file: `--out` if
    /// given, else the row's registry default. `None` for rows that
    /// record nothing.
    pub out: Option<&'a str>,
}

impl RowArgs<'_> {
    /// Writes the experiment envelope (see [`render_json`]) for this run
    /// to [`RowArgs::out`] and prints where it went.
    ///
    /// # Panics
    ///
    /// Panics if the row has no output file or the write fails.
    pub fn write_json(
        &self,
        experiment: &str,
        protocol: &str,
        meta: &[(&str, String)],
        rows: &[String],
    ) {
        let path = self.out.expect("the row records a BENCH_*.json");
        let json = render_json(experiment, protocol, meta, self.smoke, rows);
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote {path}");
    }
}

/// A row's result: `Err` when one of its acceptance gates failed.
pub type Outcome = Result<(), GateFailed>;

/// At least one acceptance gate of a row failed (each printed its own
/// `FAIL:` line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GateFailed;

/// A row's acceptance gates. Every check is evaluated; a failed one
/// prints `FAIL: <why>` to stderr at once.
#[derive(Debug, Default)]
pub struct Gates {
    failed: bool,
}

impl Gates {
    /// Records one gate: it holds when `ok`.
    pub fn check(&mut self, ok: bool, why: impl Display) {
        if !ok {
            eprintln!("FAIL: {why}");
            self.failed = true;
        }
    }

    /// The row's outcome: `Err` if any check failed.
    pub fn outcome(self) -> Outcome {
        if self.failed {
            Err(GateFailed)
        } else {
            Ok(())
        }
    }
}

/// Renders the common experiment envelope:
///
/// ```json
/// { "experiment": ..., "protocol": ..., <meta...>, "smoke": ..., "points": [...] }
/// ```
///
/// `meta` values are raw JSON fragments (numbers unquoted, strings
/// pre-quoted by the caller); `rows` are pre-rendered point objects, one
/// per line.
pub fn render_json(
    experiment: &str,
    protocol: &str,
    meta: &[(&str, String)],
    smoke: bool,
    rows: &[String],
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"experiment\": \"{experiment}\",");
    let _ = writeln!(s, "  \"protocol\": \"{protocol}\",");
    for (key, value) in meta {
        let _ = writeln!(s, "  \"{key}\": {value},");
    }
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    s.push_str("  \"points\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(s, "    {row}{comma}");
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_shape_is_stable() {
        let json = render_json(
            "demo",
            "1Paxos",
            &[
                ("profile", "\"opteron-48\"".into()),
                ("clients", "4".into()),
            ],
            true,
            &["{\"x\": 1}".into(), "{\"x\": 2}".into()],
        );
        assert_eq!(
            json,
            "{\n  \"experiment\": \"demo\",\n  \"protocol\": \"1Paxos\",\n  \
             \"profile\": \"opteron-48\",\n  \"clients\": 4,\n  \"smoke\": true,\n  \
             \"points\": [\n    {\"x\": 1},\n    {\"x\": 2}\n  ]\n}\n"
        );
    }

    #[test]
    fn gates_fail_on_any_failed_check() {
        let mut g = Gates::default();
        g.check(true, "holds");
        assert_eq!(g.outcome(), Ok(()));
        let mut g = Gates::default();
        g.check(false, "first");
        g.check(true, "holds");
        assert_eq!(g.outcome(), Err(GateFailed));
    }

    #[test]
    fn last_row_has_no_trailing_comma() {
        let json = render_json("d", "p", &[], false, &["{}".into()]);
        assert!(json.contains("    {}\n  ]"));
        assert!(!json.contains("{},"));
    }
}
