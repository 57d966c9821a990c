//! The experiment registry behind the `figures` binary: one row per paper
//! table, figure, ablation or `BENCH_*.json` sweep, and the one command
//! line that selects among them,
//! `figures <name|all> [--smoke] [--out PATH]`.
//!
//! Each row's function sits next to the generator whose data it prints
//! ([`crate::experiments`], [`crate::netmeas`], [`crate::wire`]).

use crate::report::{Outcome, RowArgs};
use crate::{experiments as exp, netmeas, wire};

/// One registry row.
#[derive(Debug)]
pub struct Experiment {
    /// The name `figures` selects the row by.
    pub name: &'static str,
    /// The `BENCH_*.json` the row records unless `--out` says otherwise;
    /// `None` for rows that only print.
    pub json: Option<&'static str>,
    /// Prints the row (and records its file); `Err` when a gate failed.
    pub run: fn(&RowArgs) -> Outcome,
}

const fn row(name: &'static str, run: fn(&RowArgs) -> Outcome) -> Experiment {
    Experiment {
        name,
        json: None,
        run,
    }
}

const fn sweep(name: &'static str, json: &'static str, run: fn(&RowArgs) -> Outcome) -> Experiment {
    Experiment {
        name,
        json: Some(json),
        run,
    }
}

/// Every row, by name.
pub const REGISTRY: &[Experiment] = &[
    row("tab_net", netmeas::tab_net_row),
    row("tab_latency", exp::tab_latency_row),
    row("fig2", exp::fig2_row),
    row("fig8", exp::fig8_row),
    row("fig9", exp::fig9_row),
    row("fig10", exp::fig10_row),
    row("fig11", exp::fig11_row),
    row("sec2_2", exp::sec2_2_row),
    row("exp_ip", exp::exp_ip_row),
    row("exp_accswitch", exp::exp_accswitch_row),
    row("ablation_mencius", exp::ablation_mencius_row),
    row("ablation_placement", exp::ablation_placement_row),
    row("exp_relaxed_reads", exp::exp_relaxed_reads_row),
    sweep("exp_batching", "BENCH_batching.json", exp::exp_batching_row),
    sweep("exp_sharding", "BENCH_sharding.json", exp::exp_sharding_row),
    sweep("exp_adaptive", "BENCH_adaptive.json", exp::exp_adaptive_row),
    sweep("exp_txn", "BENCH_txn.json", exp::exp_txn_row),
    sweep("exp_wire", "BENCH_wire.json", wire::exp_wire_row),
];

/// What `figures all` runs, in order: the paper's tables, figures and
/// ablations, each under a `== name` banner. The `BENCH_*.json` sweeps
/// and `exp_relaxed_reads` run by name only.
pub const ALL: &[&str] = &[
    "tab_net",
    "tab_latency",
    "fig2",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "sec2_2",
    "exp_ip",
    "exp_accswitch",
    "ablation_mencius",
    "ablation_placement",
];

/// The row named `name`, if any.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The usage text, listing every registry name.
pub fn usage() -> String {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    format!(
        "usage: figures <name|all> [--smoke] [--out PATH]\n\
         names: {}\n\
         all:   {}\n\
         --smoke runs a row's reduced CI-speed variant; --out PATH replaces the\n\
         default BENCH_*.json of a row that records one.",
        names.join(" "),
        ALL.join(" ")
    )
}

/// The parsed command line: `figures <name|all> [--smoke] [--out PATH]`.
#[derive(Debug)]
pub struct BenchCli {
    /// The rows to run, in order: the named one, or the [`ALL`] list.
    pub rows: Vec<&'static Experiment>,
    smoke: bool,
    out: Option<String>,
}

impl BenchCli {
    /// Parses the arguments after the program name. Every error — a
    /// missing `--out` value, an unknown flag, no name, an unknown or
    /// second name, `--out` for a row that records no file — is reported
    /// before any row runs, so a bad command line writes nothing.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let (mut name, mut smoke, mut out) = (None, false, None);
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => smoke = true,
                "--out" => {
                    let path = args.next().filter(|p| !p.starts_with('-'));
                    let path = path.ok_or("--out needs a path")?;
                    if out.replace(path.clone()).is_some() {
                        return Err("--out given twice".into());
                    }
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
                n if name.is_none() => name = Some(n),
                n => return Err(format!("unexpected second name `{n}`")),
            }
        }
        let rows = match name {
            None => return Err("no experiment named".into()),
            Some("all") => ALL
                .iter()
                .map(|n| find(n).expect("`all` names rows"))
                .collect(),
            Some(n) => vec![find(n).ok_or_else(|| format!("unknown experiment `{n}`"))?],
        };
        if out.is_some() && !matches!(rows.as_slice(), [row] if row.json.is_some()) {
            return Err("--out applies only to a row that records a BENCH_*.json".into());
        }
        Ok(BenchCli { rows, smoke, out })
    }

    /// `row`'s view of the command line, with its output file resolved.
    pub fn args(&self, row: &Experiment) -> RowArgs<'_> {
        RowArgs {
            smoke: self.smoke,
            out: row
                .json
                .map(|default| self.out.as_deref().unwrap_or(default)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchCli, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        BenchCli::parse(&args)
    }

    fn names(cli: &BenchCli) -> Vec<&'static str> {
        cli.rows.iter().map(|r| r.name).collect()
    }

    #[test]
    fn registry_names_are_unique() {
        for (i, e) in REGISTRY.iter().enumerate() {
            assert!(
                REGISTRY[..i].iter().all(|o| o.name != e.name),
                "{} twice",
                e.name
            );
        }
    }

    #[test]
    fn all_resolves_to_the_paper_artefacts_in_order() {
        // The list and order the retired subprocess orchestrator ran.
        let expected = [
            "tab_net",
            "tab_latency",
            "fig2",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "sec2_2",
            "exp_ip",
            "exp_accswitch",
            "ablation_mencius",
            "ablation_placement",
        ];
        assert_eq!(ALL, expected);
        for name in ALL {
            assert!(find(name).is_some(), "`all` names unknown row {name}");
        }
        assert_eq!(names(&parse(&["all"]).unwrap()), expected);
    }

    #[test]
    fn sweep_rows_record_distinct_files() {
        let files: Vec<&str> = REGISTRY.iter().filter_map(|e| e.json).collect();
        assert_eq!(files.len(), 5);
        for (i, f) in files.iter().enumerate() {
            assert!(f.starts_with("BENCH_") && f.ends_with(".json"), "{f}");
            assert!(!files[..i].contains(f), "{f} written by two rows");
        }
    }

    #[test]
    fn accepted_forms() {
        let cli = parse(&["fig8"]).unwrap();
        assert_eq!((names(&cli), cli.smoke), (vec!["fig8"], false));
        assert_eq!(cli.args(cli.rows[0]).out, None);

        let cli = parse(&["--smoke", "fig8"]).unwrap();
        assert_eq!((names(&cli), cli.smoke), (vec!["fig8"], true));

        let cli = parse(&["exp_batching", "--smoke"]).unwrap();
        assert!(cli.smoke);
        assert_eq!(cli.args(cli.rows[0]).out, Some("BENCH_batching.json"));

        let cli = parse(&["exp_txn", "--out", "/tmp/t.json", "--smoke"]).unwrap();
        assert!(cli.smoke);
        assert_eq!(cli.args(cli.rows[0]).out, Some("/tmp/t.json"));

        let cli = parse(&["all", "--smoke"]).unwrap();
        assert_eq!(cli.rows.len(), ALL.len());
        assert!(cli.smoke);
    }

    #[test]
    fn missing_out_value_is_an_error() {
        assert_eq!(
            parse(&["exp_batching", "--out"]).unwrap_err(),
            "--out needs a path"
        );
        assert_eq!(
            parse(&["exp_batching", "--out", "--smoke"]).unwrap_err(),
            "--out needs a path"
        );
        assert!(parse(&["exp_batching", "--out", "a", "--out", "b"]).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(
            parse(&["exp_batching", "--smok"]).unwrap_err(),
            "unknown flag `--smok`"
        );
        assert!(parse(&["-s", "fig8"]).is_err());
    }

    #[test]
    fn unknown_missing_or_second_name_is_an_error() {
        assert_eq!(parse(&["fig12"]).unwrap_err(), "unknown experiment `fig12`");
        assert_eq!(parse(&[]).unwrap_err(), "no experiment named");
        assert_eq!(parse(&["--smoke"]).unwrap_err(), "no experiment named");
        assert!(parse(&["fig8", "fig9"]).is_err());
    }

    #[test]
    fn out_needs_a_row_that_records_a_file() {
        assert!(parse(&["fig2", "--out", "x.json"]).is_err());
        assert!(parse(&["all", "--out", "x.json"]).is_err());
    }

    #[test]
    fn usage_lists_every_name() {
        let u = usage();
        for e in REGISTRY {
            assert!(u.contains(e.name), "{}", e.name);
        }
    }
}
