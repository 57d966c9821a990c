//! `figures <name|all> [--smoke] [--out PATH]`: regenerates one paper
//! table, figure or `BENCH_*.json` sweep from the experiment registry
//! (`consensus_bench::registry`), or every paper artefact in sequence.
//! Exits 1 when a row's acceptance gate fails, 2 on a bad command line.

use std::process::ExitCode;

use consensus_bench::registry::{usage, BenchCli};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match BenchCli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("figures: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // `all` runs several rows, each under a `== name` banner.
    let banners = cli.rows.len() > 1;
    for row in &cli.rows {
        if banners {
            println!("==================================================================");
            println!("== {}", row.name);
            println!("==================================================================");
        }
        if (row.run)(&cli.args(row)).is_err() {
            return ExitCode::FAILURE;
        }
        if banners {
            println!();
        }
    }
    ExitCode::SUCCESS
}
