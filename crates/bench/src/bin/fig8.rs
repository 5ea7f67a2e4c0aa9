//! **Figure 8** — change in statement (block) coverage of DSM and SSM
//! relative to the plain engine, for a coverage-oriented, incomplete
//! exploration (short budget, large inputs).
//!
//! Expected shape (the paper's key DSM claim): SSM's topological order
//! starves the coverage goal (mostly negative deltas), while DSM tracks
//! the baseline (deltas around zero) *while still merging*. Also prints
//! the §5.5 statistic: the fraction of fast-forwarded states that merged
//! (paper: 69 % on average).

use symmerge_bench::harness::{config_or_exit, CsvOut, HarnessOpts};
use symmerge_bench::{run_workload, RunOpts, Setup};
use symmerge_workloads::{all, InputConfig, InputKind};

fn big_config(kind: InputKind, quick: bool) -> InputConfig {
    let s = if quick { 0 } else { 1 };
    match kind {
        InputKind::Args => InputConfig::args(3 + s, 5),
        InputKind::Stdin => InputConfig::stdin(12 + 8 * s),
        InputKind::Both => InputConfig { n_args: 2, arg_len: 4, stdin_len: 8 + 6 * s },
    }
}

fn main() {
    let opts = HarnessOpts::parse(3_000);
    let env = config_or_exit("fig8", symmerge::config::from_env());
    let run_opts = RunOpts::from(&opts);
    let mut csv = CsvOut::create(
        "fig8",
        "tool,cov_baseline,cov_ssm,cov_dsm,delta_ssm_pp,delta_dsm_pp,ff_picks,ff_merged",
    );
    println!(
        "# Figure 8: coverage delta vs baseline under a coverage-oriented search ({:?} budget)",
        opts.budget
    );
    println!(
        "{:10} {:>9} {:>9} {:>9} {:>10} {:>10} {:>12}",
        "tool", "base%", "ssm%", "dsm%", "Δssm(pp)", "Δdsm(pp)", "ff merged/picks"
    );
    let mut dsm_deltas = Vec::new();
    let mut ssm_deltas = Vec::new();
    let (mut ff_picks_total, mut ff_merged_total) = (0u64, 0u64);
    for w in all() {
        let cfg = big_config(w.kind, opts.quick);
        let base = run_workload(&w, &cfg, Setup::Baseline, &run_opts, &env);
        let ssm = run_workload(&w, &cfg, Setup::SsmQce, &run_opts, &env);
        let dsm = run_workload(&w, &cfg, Setup::DsmQce, &run_opts, &env);
        // Only incomplete explorations are informative (paper keeps those).
        if !base.hit_budget && !ssm.hit_budget && !dsm.hit_budget {
            continue;
        }
        let (cb, cs, cd) =
            (base.coverage() * 100.0, ssm.coverage() * 100.0, dsm.coverage() * 100.0);
        let (ds, dd) = (cs - cb, cd - cb);
        ssm_deltas.push(ds);
        dsm_deltas.push(dd);
        ff_picks_total += dsm.dsm.ff_picks;
        ff_merged_total += dsm.ff_merged;
        println!(
            "{:10} {:>8.1} {:>8.1} {:>8.1} {:>+10.1} {:>+10.1} {:>7}/{:<6}",
            w.name, cb, cs, cd, ds, dd, dsm.ff_merged, dsm.dsm.ff_picks
        );
        csv.row(&format!(
            "{},{:.2},{:.2},{:.2},{:.2},{:.2},{},{}",
            w.name, cb, cs, cd, ds, dd, dsm.dsm.ff_picks, dsm.ff_merged
        ));
    }
    let avg = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    println!(
        "# mean coverage delta: SSM {:+.1} pp, DSM {:+.1} pp",
        avg(&ssm_deltas),
        avg(&dsm_deltas)
    );
    if ff_picks_total > 0 {
        println!(
            "# fast-forwarded states that merged: {:.0}% (paper §5.5: 69%)",
            100.0 * ff_merged_total as f64 / ff_picks_total as f64
        );
    }
    println!("# csv: {}", csv.path.display());
}
