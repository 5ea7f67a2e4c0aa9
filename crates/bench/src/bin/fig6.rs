//! **Figure 6** — scatter plot of SSM+QCE completion time vs baseline
//! completion time for exhaustive exploration, across all workloads and
//! input sizes; timeouts (the paper's triangles) are reported as
//! lower-bound points.
//!
//! Expected shape: the vast majority of points below the `T_SSM = T_base`
//! diagonal, with larger inputs further below.

use symmerge_bench::harness::{config_or_exit, CsvOut, HarnessOpts};
use symmerge_bench::{exhaustive_sweep, run_workload, timed, RunOpts, Setup};
use symmerge_workloads::all;

fn main() {
    let opts = HarnessOpts::parse(10_000);
    let env = config_or_exit("fig6", symmerge::config::from_env());
    let run_opts = RunOpts::from(&opts);
    let mut csv =
        CsvOut::create("fig6", "tool,symbolic_bytes,t_baseline_ms,t_ssm_ms,baseline_timeout");
    println!("# Figure 6: T_SSM+QCE vs T_baseline scatter (exhaustive; budget {:?})", opts.budget);
    println!("{:10} {:>6} {:>14} {:>12}  note", "tool", "bytes", "t_baseline", "t_ssm");
    let mut below = 0usize;
    let mut total = 0usize;
    for w in all() {
        for cfg in exhaustive_sweep(w.kind, opts.quick) {
            let (t_base, base) = timed(|| run_workload(&w, &cfg, Setup::Baseline, &run_opts, &env));
            let (t_ssm, _) = timed(|| run_workload(&w, &cfg, Setup::SsmQce, &run_opts, &env));
            let note = if base.hit_budget { "baseline TIMEOUT (lower bound)" } else { "" };
            println!(
                "{:10} {:>6} {:>14.2?} {:>12.2?}  {note}",
                w.name,
                cfg.symbolic_bytes(),
                t_base,
                t_ssm
            );
            csv.row(&format!(
                "{},{},{:.3},{:.3},{}",
                w.name,
                cfg.symbolic_bytes(),
                t_base.as_secs_f64() * 1e3,
                t_ssm.as_secs_f64() * 1e3,
                base.hit_budget
            ));
            total += 1;
            if t_ssm < t_base {
                below += 1;
            }
        }
    }
    println!("# {below}/{total} points below the diagonal (SSM+QCE faster)");
    println!("# csv: {}", csv.path.display());
}
