//! **Figure 9** — scatter of SSM vs DSM completion time for exhaustive
//! exploration (both with QCE).
//!
//! Expected shape: points clustered near the diagonal with DSM modestly
//! slower (the paper measured ~15 % mean overhead) — the price of
//! hash-history bookkeeping and of merges missed when states don't
//! coexist.

use symmerge_bench::harness::{CsvOut, HarnessOpts};
use symmerge_bench::{exhaustive_sweep, run_workload, timed, RunOpts, Setup};
use symmerge_workloads::all;

fn main() {
    let opts = HarnessOpts::parse(10_000);
    let env = symmerge::config::from_env();
    let run_opts = RunOpts::from(&opts);
    let mut csv = CsvOut::create("fig9", "tool,symbolic_bytes,t_ssm_ms,t_dsm_ms");
    println!("# Figure 9: T_SSM vs T_DSM for exhaustive exploration (budget {:?})", opts.budget);
    println!("{:10} {:>6} {:>12} {:>12} {:>8}", "tool", "bytes", "t_ssm", "t_dsm", "dsm/ssm");
    let mut ratios = Vec::new();
    for w in all() {
        for cfg in exhaustive_sweep(w.kind, opts.quick) {
            let (t_ssm, ssm) = timed(|| run_workload(&w, &cfg, Setup::SsmQce, &run_opts, &env));
            let (t_dsm, dsm) = timed(|| run_workload(&w, &cfg, Setup::DsmQce, &run_opts, &env));
            if ssm.hit_budget || dsm.hit_budget {
                continue; // only completed explorations are comparable
            }
            let ratio = t_dsm.as_secs_f64() / t_ssm.as_secs_f64().max(1e-9);
            ratios.push(ratio);
            println!(
                "{:10} {:>6} {:>12.2?} {:>12.2?} {:>8.2}",
                w.name,
                cfg.symbolic_bytes(),
                t_ssm,
                t_dsm,
                ratio
            );
            csv.row(&format!(
                "{},{},{:.3},{:.3}",
                w.name,
                cfg.symbolic_bytes(),
                t_ssm.as_secs_f64() * 1e3,
                t_dsm.as_secs_f64() * 1e3
            ));
        }
    }
    if !ratios.is_empty() {
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        println!(
            "# mean T_DSM / T_SSM = {mean:.2} over {} completed pairs (paper: ~1.15)",
            ratios.len()
        );
    }
    println!("# csv: {}", csv.path.display());
}
