//! **Figure 7** — impact of the QCE threshold parameter α on completion
//! time, for `link`, `nice`, `paste`, `pr`.
//!
//! The x-axis replicates the paper's: a "no merge" point, then
//! α ∈ {0, 10⁻²⁰, 10⁻¹⁵, 10⁻¹⁰, 10⁻⁵, 1, +∞}. α = 0 treats every
//! variable with any future query as hot (merging nearly off); α = ∞
//! merges everything mergeable. Expected shape: an intermediate α is
//! fastest for tools with genuinely hot variables; both extremes lose.

use symmerge_bench::harness::{config_or_exit, CsvOut, HarnessOpts};
use symmerge_bench::{run_workload, timed, RunOpts, Setup};
use symmerge_workloads::{by_name, InputConfig};

fn main() {
    let opts = HarnessOpts::parse(20_000);
    let env = config_or_exit("fig7", symmerge::config::from_env());
    let l = if opts.quick { 3 } else { 4 };
    let tools: Vec<(&str, InputConfig)> = vec![
        ("link", InputConfig::args(2, l)),
        ("nice", InputConfig::args(2, l)),
        ("paste", InputConfig::args(2, l)),
        ("pr", InputConfig::stdin(2 * l)),
    ];
    let alphas: Vec<(String, Option<f64>)> = vec![
        ("no-merge".into(), None),
        ("0".into(), Some(0.0)),
        ("1e-20".into(), Some(1e-20)),
        ("1e-15".into(), Some(1e-15)),
        ("1e-10".into(), Some(1e-10)),
        ("1e-5".into(), Some(1e-5)),
        ("1".into(), Some(1.0)),
        ("inf".into(), Some(f64::INFINITY)),
    ];
    let mut csv = CsvOut::create("fig7", "tool,alpha,t_ms,timeout,merges");
    println!("# Figure 7: completion time vs QCE threshold alpha (SSM; budget {:?})", opts.budget);
    print!("{:10}", "tool");
    for (label, _) in &alphas {
        print!(" {label:>10}");
    }
    println!();
    for (tool, cfg) in tools {
        let w = by_name(tool).unwrap();
        print!("{tool:10}");
        for (label, alpha) in &alphas {
            let run_opts = RunOpts { alpha: alpha.unwrap_or(0.0), ..RunOpts::from(&opts) };
            let setup = if alpha.is_none() { Setup::Baseline } else { Setup::SsmQce };
            let (t, r) = timed(|| run_workload(&w, &cfg, setup, &run_opts, &env));
            let cell = if r.hit_budget {
                format!(">{:.1}s", opts.budget.as_secs_f64())
            } else {
                format!("{:.2}s", t.as_secs_f64())
            };
            print!(" {cell:>10}");
            csv.row(&format!(
                "{tool},{label},{:.3},{},{}",
                t.as_secs_f64() * 1e3,
                r.hit_budget,
                r.merges
            ));
        }
        println!();
    }
    println!("# csv: {}", csv.path.display());
}
