//! **Figure 3** — exact path count vs state multiplicity (log–log) for
//! `seq`, `join`, `tsort`.
//!
//! The paper tracks both quantities during one run by keeping single-path
//! shadow states; we obtain the pairs by running each input size twice —
//! exhaustively without merging (exact path count `p`) and with SSM+QCE
//! (state multiplicity `m`) — and fit `log p ≈ c₁ + c₂·log m`. The claim
//! under reproduction is the *linear log–log relationship* (`c₂` roughly
//! constant per tool), which is what licenses multiplicity as a path-count
//! estimator in Figures 4–6.

use symmerge_bench::harness::{config_or_exit, CsvOut, HarnessOpts};
use symmerge_bench::{linear_fit, run_workload, RunOpts, Setup};
use symmerge_workloads::{by_name, InputConfig};

fn main() {
    let opts = HarnessOpts::parse(20_000);
    let env = config_or_exit("fig3", symmerge::config::from_env());
    let run_opts = RunOpts::from(&opts);
    let sweeps: Vec<(&str, Vec<InputConfig>)> = vec![
        (
            "seq",
            (1..=4)
                .map(|l| InputConfig::args(1, l))
                .chain((1..=2).map(|l| InputConfig::args(2, l)))
                .collect(),
        ),
        ("join", (1..=4).map(|l| InputConfig::args(2, l)).collect()),
        ("tsort", (2..=if opts.quick { 4 } else { 6 }).map(InputConfig::stdin).collect()),
    ];
    let mut csv = CsvOut::create("fig3", "tool,symbolic_bytes,exact_paths,multiplicity");
    println!("# Figure 3: exact path count p vs state multiplicity m (log-log)");
    println!("{:6} {:>5} {:>12} {:>14}", "tool", "bytes", "exact_p", "multiplicity_m");
    for (tool, cfgs) in sweeps {
        let w = by_name(tool).unwrap();
        let mut points = Vec::new();
        for cfg in cfgs {
            let base = run_workload(&w, &cfg, Setup::Baseline, &run_opts, &env);
            let merged = run_workload(&w, &cfg, Setup::SsmQce, &run_opts, &env);
            if base.hit_budget {
                println!(
                    "{tool:6} {:>5} (baseline timed out; skipping point)",
                    cfg.symbolic_bytes()
                );
                continue;
            }
            let p = base.completed_paths as f64;
            let m = merged.completed_multiplicity;
            println!("{tool:6} {:>5} {:>12.0} {:>14.0}", cfg.symbolic_bytes(), p, m);
            csv.row(&format!("{tool},{},{p},{m}", cfg.symbolic_bytes()));
            if p > 0.0 && m > 0.0 {
                points.push((m.ln(), p.ln()));
            }
        }
        let (c1, c2) = linear_fit(&points);
        println!(
            "{tool:6} fit: log p = {c1:.3} + {c2:.3} * log m   (paper: near-linear, c2 in (0,1])"
        );
    }
    println!("# csv: {}", csv.path.display());
}
