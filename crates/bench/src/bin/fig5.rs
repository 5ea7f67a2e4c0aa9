//! **Figure 5** — speedup of SSM+QCE over the plain engine for exhaustive
//! exploration, as a function of symbolic input size, for three
//! representative tools: `link` (largest speedup in the paper), `nice`
//! (medium) and `basename` (lowest).
//!
//! Expected shape: the `link` curve grows roughly exponentially with the
//! number of symbolic bytes; `basename` stays near 1.
//!
//! SSM is timed twice: on the incremental solver (persistent prefix
//! contexts + assumption solving) and on the legacy re-blast path. The
//! ROADMAP's "SSM slower than baseline on `basename`-style sweeps"
//! observation was dominated by solver cost on ite-heavy merged queries;
//! the third column shows how much of that the incremental layer buys
//! back.

use symmerge_bench::harness::{config_or_exit, CsvOut, HarnessOpts};
use symmerge_bench::{run_workload, timed, RunOpts, Setup};
use symmerge_workloads::{by_name, InputConfig};

fn main() {
    let opts = HarnessOpts::parse(30_000);
    let env = config_or_exit("fig5", symmerge::config::from_env());
    let run_opts = RunOpts::from(&opts);
    let reblast_opts = RunOpts { incremental: false, ..run_opts.clone() };
    if opts.jobs > 1 {
        println!("# --jobs {}: all engine runs use the sharded parallel engine", opts.jobs);
    }
    let max_l = if opts.quick { 3 } else { 5 };
    let tools: Vec<(&str, Vec<InputConfig>)> = vec![
        ("link", (1..=max_l).map(|l| InputConfig::args(2, l)).collect()),
        ("nice", (1..=max_l).map(|l| InputConfig::args(2, l)).collect()),
        ("basename", (1..=max_l + 1).map(|l| InputConfig::args(1, l)).collect()),
    ];
    let mut csv = CsvOut::create(
        "fig5",
        "tool,symbolic_bytes,t_baseline_ms,t_ssm_ms,t_ssm_reblast_ms,speedup,speedup_reblast",
    );
    println!("# Figure 5: exhaustive-exploration speedup T_baseline / T_SSM+QCE vs input size");
    println!("# t_ssm uses the incremental solver; t_ssm_rb re-blasts every query");
    println!(
        "{:10} {:>6} {:>14} {:>12} {:>12} {:>10} {:>10}",
        "tool", "bytes", "t_baseline", "t_ssm", "t_ssm_rb", "speedup", "speedup_rb"
    );
    for (tool, cfgs) in tools {
        let w = by_name(tool).unwrap();
        for cfg in cfgs {
            let (t_base, base) = timed(|| run_workload(&w, &cfg, Setup::Baseline, &run_opts, &env));
            let (t_ssm, ssm) = timed(|| run_workload(&w, &cfg, Setup::SsmQce, &run_opts, &env));
            let (t_rb, _) = timed(|| run_workload(&w, &cfg, Setup::SsmQce, &reblast_opts, &env));
            let marker = if base.hit_budget { ">=" } else { "  " };
            let speedup = t_base.as_secs_f64() / t_ssm.as_secs_f64().max(1e-9);
            let speedup_rb = t_base.as_secs_f64() / t_rb.as_secs_f64().max(1e-9);
            println!(
                "{tool:10} {:>6} {marker}{:>12.2?} {:>12.2?} {:>12.2?} {marker}{:>8.2}x {:>9.2}x{}",
                cfg.symbolic_bytes(),
                t_base,
                t_ssm,
                t_rb,
                speedup,
                speedup_rb,
                if ssm.hit_budget { " (ssm timed out too)" } else { "" },
            );
            csv.row(&format!(
                "{tool},{},{:.3},{:.3},{:.3},{:.3},{:.3}",
                cfg.symbolic_bytes(),
                t_base.as_secs_f64() * 1e3,
                t_ssm.as_secs_f64() * 1e3,
                t_rb.as_secs_f64() * 1e3,
                speedup,
                speedup_rb
            ));
        }
    }
    println!("# '>=': baseline hit the budget — the speedup shown is a lower bound");
    println!("# csv: {}", csv.path.display());
}
