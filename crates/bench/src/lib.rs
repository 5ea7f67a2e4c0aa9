//! # symmerge-bench — experiment harnesses for the paper's figures
//!
//! One binary per figure of the PLDI 2012 evaluation (§5). Each binary
//! prints the same series/rows the paper plots, at laptop-scale budgets
//! (see `EXPERIMENTS.md` for recorded outcomes). Speed claims come from
//! the `mergebench` package, not from these binaries.
//!
//! Configuration is a value: each binary's `main` reads the `SYMMERGE_*`
//! environment once ([`symmerge::config::from_env`]) and passes the
//! [`EnvConfig`] to [`config_for`] and [`run_workload`]. This library
//! reads no environment itself.

use std::time::{Duration, Instant};
use symmerge::config::EnvConfig;
use symmerge_core::{
    Budgets, Engine, EngineConfig, MergeMode, ParallelConfig, ParallelEngine, QceConfig, RunReport,
    StrategyKind,
};
use symmerge_workloads::{InputConfig, InputKind, Workload};

/// A named engine setup used across the figure harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setup {
    /// Plain search-based symbolic execution (the KLEE baseline).
    Baseline,
    /// Static state merging with QCE.
    SsmQce,
    /// Dynamic state merging with QCE over a coverage-driven search.
    DsmQce,
}

/// Options shared by the harnesses.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Per-run wall-clock budget.
    pub budget: Option<Duration>,
    /// QCE α (the paper's tuned default is `1e-12`).
    pub alpha: f64,
    /// Optional ζ: enable the full Eq. 7 criterion (§3.3 ablation).
    pub zeta: Option<f64>,
    /// RNG seed.
    pub seed: u64,
    /// Solve branch queries on incremental prefix contexts (`false`
    /// re-blasts every query, the paper's KLEE + STP scheme).
    pub incremental: bool,
    /// Worker threads for the exploration. `1` runs the sequential
    /// engine; `> 1` runs the sharded [`ParallelEngine`].
    pub jobs: u32,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts { budget: None, alpha: 1e-12, zeta: None, seed: 0, incremental: true, jobs: 1 }
    }
}

impl From<&harness::HarnessOpts> for RunOpts {
    /// The options a figure binary's command line selects.
    fn from(opts: &harness::HarnessOpts) -> RunOpts {
        RunOpts {
            budget: Some(opts.budget),
            alpha: opts.alpha,
            zeta: opts.zeta,
            seed: opts.seed,
            incremental: true,
            jobs: opts.jobs,
        }
    }
}

/// Builds the engine configuration for a setup, on top of the
/// environment's engine configuration `env.engine`.
pub fn config_for(setup: Setup, opts: &RunOpts, env: &EnvConfig) -> EngineConfig {
    let base = &env.engine;
    let (merge_mode, strategy) = match setup {
        Setup::Baseline => (MergeMode::None, StrategyKind::CoverageOptimized),
        Setup::SsmQce => (MergeMode::Static, StrategyKind::Topological),
        Setup::DsmQce => (MergeMode::Dynamic, StrategyKind::CoverageOptimized),
    };
    EngineConfig {
        merge_mode,
        strategy,
        qce: QceConfig { alpha: opts.alpha, zeta: opts.zeta, ..QceConfig::default() },
        budgets: Budgets { max_time: opts.budget, ..Budgets::default() },
        solver: symmerge_core::SolverConfig {
            use_incremental: opts.incremental,
            ..base.solver.clone()
        },
        // The figures time explorations; none needs the tests.
        generate_tests: false,
        seed: opts.seed,
        ..base.clone()
    }
}

/// Runs one workload under one setup and sizing. `opts.jobs > 1` runs
/// the sharded parallel engine, with the rest of its fleet
/// configuration (scheduler, round quota, steal direction) from
/// `env.parallel`; `opts.jobs = 1` runs the sequential engine.
pub fn run_workload(
    workload: &Workload,
    cfg: &InputConfig,
    setup: Setup,
    opts: &RunOpts,
    env: &EnvConfig,
) -> RunReport {
    let program = workload.program(cfg);
    let config = config_for(setup, opts, env);
    if opts.jobs > 1 {
        let par = ParallelConfig { jobs: opts.jobs, ..env.parallel };
        return ParallelEngine::new(program, config, par)
            .expect("workload programs validate")
            .run();
    }
    let mut engine =
        Engine::builder(program).config(config).build().expect("workload programs validate");
    engine.run()
}

/// Runs `run` and measures its wall-clock time.
pub fn timed<T>(run: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let value = run();
    (start.elapsed(), value)
}

/// The input sizes the exhaustive-exploration scatter plots (Figures 6
/// and 9) sweep for a workload's input kind.
pub fn exhaustive_sweep(kind: InputKind, quick: bool) -> Vec<InputConfig> {
    let hi = if quick { 2 } else { 3 };
    match kind {
        InputKind::Args => (1..=hi).map(|l| InputConfig::args(2, l)).collect(),
        InputKind::Stdin => (2..=2 * hi).step_by(2).map(InputConfig::stdin).collect(),
        InputKind::Both => {
            (1..=hi).map(|l| InputConfig { n_args: 1, arg_len: l, stdin_len: 2 * l }).collect()
        }
    }
}

/// Linear regression of `y` on `x`: returns `(intercept, slope)`.
///
/// Used for the paper's §5.2 path-estimation model
/// `log p ≈ c₁ + c₂·log m`.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    if points.is_empty() {
        return (0.0, 0.0);
    }
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return (sy / n, 0.0);
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    (intercept, slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_line() {
        let pts: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let (c1, c2) = linear_fit(&pts);
        assert!((c1 - 3.0).abs() < 1e-9);
        assert!((c2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn configs_map_setups() {
        let opts = RunOpts::default();
        let env = symmerge::config::from_lookup(|_| None).unwrap();
        let config = |setup| config_for(setup, &opts, &env);
        assert_eq!(config(Setup::Baseline).merge_mode, MergeMode::None);
        assert_eq!(config(Setup::SsmQce).merge_mode, MergeMode::Static);
        assert_eq!(config(Setup::DsmQce).merge_mode, MergeMode::Dynamic);
        assert_eq!(config(Setup::SsmQce).strategy, StrategyKind::Topological);
    }
}

pub mod harness {
    //! Shared plumbing for the figure binaries: tiny CLI parsing and CSV
    //! output under `target/figures/`.

    use std::fs;
    use std::io::Write;
    use std::path::PathBuf;
    use std::time::Duration;
    use symmerge::config::EnvConfig;

    /// Options every figure binary accepts:
    /// `--budget-ms N`, `--seed N`, `--quick`, `--alpha X`, `--jobs N`.
    #[derive(Debug, Clone)]
    pub struct HarnessOpts {
        /// Per-run budget.
        pub budget: Duration,
        /// RNG seed.
        pub seed: u64,
        /// Scale sweeps down for CI.
        pub quick: bool,
        /// QCE α override.
        pub alpha: f64,
        /// Optional ζ (full Eq. 7 criterion).
        pub zeta: Option<f64>,
        /// Exploration worker threads (`> 1` → the sharded engine).
        pub jobs: u32,
    }

    impl HarnessOpts {
        /// Parses `std::env::args`, with the given default budget.
        pub fn parse(default_budget_ms: u64) -> HarnessOpts {
            let mut opts = HarnessOpts {
                budget: Duration::from_millis(default_budget_ms),
                seed: 0,
                quick: false,
                alpha: 1e-12,
                zeta: None,
                jobs: 1,
            };
            let args: Vec<String> = std::env::args().collect();
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--budget-ms" => {
                        i += 1;
                        opts.budget = Duration::from_millis(
                            args[i].parse().expect("--budget-ms takes a number"),
                        );
                    }
                    "--seed" => {
                        i += 1;
                        opts.seed = args[i].parse().expect("--seed takes a number");
                    }
                    "--alpha" => {
                        i += 1;
                        opts.alpha = args[i].parse().expect("--alpha takes a float");
                    }
                    "--zeta" => {
                        i += 1;
                        opts.zeta = Some(args[i].parse().expect("--zeta takes a float"));
                    }
                    "--jobs" => {
                        i += 1;
                        opts.jobs = args[i].parse().expect("--jobs takes a worker count");
                        assert!(opts.jobs >= 1, "--jobs must be at least 1");
                    }
                    "--quick" => opts.quick = true,
                    other => panic!("unknown argument {other}"),
                }
                i += 1;
            }
            opts
        }
    }

    /// A figure binary's configuration: the [`symmerge::config::from_env`]
    /// result its `main` read, or, for a bad `SYMMERGE_*` variable, the
    /// one-line error on stderr and exit code 1.
    pub fn config_or_exit(bin: &str, env: Result<EnvConfig, String>) -> EnvConfig {
        env.unwrap_or_else(|e| {
            eprintln!("{bin}: {e}");
            std::process::exit(1)
        })
    }

    /// Appends rows to `target/figures/<name>.csv` (truncating first).
    pub struct CsvOut {
        file: fs::File,
        pub path: PathBuf,
    }

    impl CsvOut {
        /// Creates `target/figures/<name>.csv` with a header row.
        pub fn create(name: &str, header: &str) -> CsvOut {
            let dir = PathBuf::from("target/figures");
            fs::create_dir_all(&dir).expect("create target/figures");
            let path = dir.join(format!("{name}.csv"));
            let mut file = fs::File::create(&path).expect("create csv");
            writeln!(file, "{header}").unwrap();
            CsvOut { file, path }
        }

        /// Writes one row.
        pub fn row(&mut self, line: &str) {
            writeln!(self.file, "{line}").unwrap();
        }
    }
}
