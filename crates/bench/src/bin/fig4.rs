//! **Figure 4** — relative increase in explored paths, DSM+QCE vs the
//! plain engine, under a fixed time budget; one bar per utility.
//!
//! The paper runs each COREUTIL for 1 h under both configurations and
//! plots `P_DSM / P_KLEE` where `P_DSM` is estimated from state
//! multiplicity via the Figure-3 calibration. We do the same at
//! seconds-scale budgets: the expected *shape* is bars ≫ 1 for most tools
//! (orders of magnitude for merge-friendly ones) with a small minority
//! below 1.

use symmerge_bench::harness::{config_or_exit, CsvOut, HarnessOpts};
use symmerge_bench::{run_workload, RunOpts, Setup};
use symmerge_workloads::{all, InputConfig, InputKind};

/// Input sizing large enough that the budget, not exhaustion, ends the run.
fn saturating_config(kind: InputKind, quick: bool) -> InputConfig {
    let scale = if quick { 0 } else { 1 };
    match kind {
        InputKind::Args => InputConfig::args(2 + scale, 4 + 2 * scale),
        InputKind::Stdin => InputConfig::stdin(10 + 6 * scale),
        InputKind::Both => InputConfig { n_args: 1 + scale, arg_len: 3, stdin_len: 6 + 4 * scale },
    }
}

fn main() {
    let opts = HarnessOpts::parse(5_000);
    let env = config_or_exit("fig4", symmerge::config::from_env());
    let run_opts = RunOpts::from(&opts);
    let mut csv = CsvOut::create("fig4", "tool,paths_baseline,multiplicity_dsm,ratio");
    println!("# Figure 4: path ratio P_DSM+QCE / P_baseline under a {:?} budget", opts.budget);
    println!("{:10} {:>14} {:>16} {:>12}", "tool", "baseline_paths", "dsm_multiplicity", "ratio");
    let mut ratios: Vec<(String, f64)> = Vec::new();
    for w in all() {
        let cfg = saturating_config(w.kind, opts.quick);
        let base = run_workload(&w, &cfg, Setup::Baseline, &run_opts, &env);
        let dsm = run_workload(&w, &cfg, Setup::DsmQce, &run_opts, &env);
        let p_base = (base.completed_paths as f64).max(1.0);
        let p_dsm = dsm.completed_multiplicity.max(1.0);
        let ratio = p_dsm / p_base;
        println!("{:10} {:>14.0} {:>16.3e} {:>12.3e}", w.name, p_base, p_dsm, ratio);
        csv.row(&format!("{},{},{},{}", w.name, p_base, p_dsm, ratio));
        ratios.push((w.name.to_string(), ratio));
    }
    let above = ratios.iter().filter(|(_, r)| *r > 1.0).count();
    let max =
        ratios.iter().cloned().fold(("-".into(), 0.0f64), |a, b| if b.1 > a.1 { b } else { a });
    println!(
        "# {above}/{} tools explore more paths with DSM+QCE; max ratio {:.3e} ({})",
        ratios.len(),
        max.1,
        max.0
    );
    println!("# csv: {}", csv.path.display());
}
