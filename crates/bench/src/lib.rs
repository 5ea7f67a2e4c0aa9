//! # symmerge-bench — experiment harnesses for the paper's figures
//!
//! One binary per figure of the PLDI 2012 evaluation (§5), plus Criterion
//! microbenchmarks. Each binary prints the same series/rows the paper
//! plots, at laptop-scale budgets (see `DESIGN.md` for the substitution
//! rationale and `EXPERIMENTS.md` for recorded outcomes).

use std::sync::OnceLock;
use std::time::Duration;
use symmerge::config::EnvConfig;
use symmerge_core::{
    Budgets, Engine, EngineConfig, MergeMode, ParallelConfig, ParallelEngine, QceConfig, RunReport,
    SchedulerKind, StrategyKind,
};
use symmerge_workloads::{InputConfig, Workload};

/// The `SYMMERGE_*` environment configuration ([`symmerge::config`]),
/// parsed once per process: the base every harness run starts from.
pub fn env_config() -> &'static EnvConfig {
    static CONFIG: OnceLock<EnvConfig> = OnceLock::new();
    CONFIG.get_or_init(symmerge::config::from_env)
}

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

impl Setup {
    /// Human-readable label used in harness output.
    pub fn label(self) -> &'static str {
        match self {
            Setup::Baseline => "baseline",
            Setup::SsmQce => "ssm+qce",
            Setup::DsmQce => "dsm+qce",
        }
    }
}

/// Options shared by the harnesses.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Per-run wall-clock budget.
    pub budget: Option<Duration>,
    /// Per-run instruction budget (protects CI).
    pub max_steps: Option<u64>,
    /// QCE α (the paper's tuned default is `1e-12`).
    pub alpha: f64,
    /// Optional ζ: enable the full Eq. 7 criterion (§3.3 ablation).
    pub zeta: Option<f64>,
    /// RNG seed.
    pub seed: u64,
    /// Generate tests? (off for timing runs).
    pub generate_tests: bool,
    /// Solve branch queries on incremental prefix contexts (`false`
    /// re-blasts every query, the paper's KLEE + STP scheme).
    pub incremental: bool,
    /// Worker threads for the exploration. `1` runs the legacy
    /// sequential engine; `> 1` runs the sharded [`ParallelEngine`].
    pub jobs: u32,
    /// Which parallel scheduler to use (BSP rounds or work stealing).
    /// Defaults from [`env_config`] (`SYMMERGE_SCHEDULER`); steal mode
    /// routes through the [`ParallelEngine`] even at `jobs = 1`.
    pub scheduler: SchedulerKind,
    /// Force canonical minimal models — the byte-identity reference
    /// mode the differential sweeps compare generated tests under.
    pub canonical: bool,
    /// Cross-worker shared solver-cache override: `Some(on)` pins the
    /// fabric for an ablation axis, `None` keeps the [`env_config`]
    /// value (`SYMMERGE_SHARED_CACHE`).
    pub shared_cache: Option<bool>,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            budget: None,
            max_steps: None,
            alpha: 1e-12,
            zeta: None,
            seed: 0,
            generate_tests: false,
            incremental: true,
            jobs: 1,
            scheduler: env_config().parallel.scheduler,
            canonical: false,
            shared_cache: None,
        }
    }
}

/// Builds the engine configuration for a setup, on top of
/// [`env_config`].
pub fn config_for(setup: Setup, opts: &RunOpts) -> EngineConfig {
    let base = &env_config().engine;
    let mut config = EngineConfig {
        merge_mode: match setup {
            Setup::Baseline => MergeMode::None,
            Setup::SsmQce => MergeMode::Static,
            Setup::DsmQce => MergeMode::Dynamic,
        },
        strategy: match setup {
            Setup::Baseline => StrategyKind::CoverageOptimized,
            Setup::SsmQce => StrategyKind::Topological,
            Setup::DsmQce => StrategyKind::CoverageOptimized,
        },
        qce: QceConfig { alpha: opts.alpha, zeta: opts.zeta, ..QceConfig::default() },
        budgets: Budgets { max_time: opts.budget, max_steps: opts.max_steps, ..Budgets::default() },
        solver: {
            let mut solver = symmerge_core::SolverConfig {
                use_incremental: opts.incremental,
                ..base.solver.clone()
            };
            if opts.canonical {
                solver.canonical_models = true;
            }
            if let Some(on) = opts.shared_cache {
                solver.shared_cache = on;
            }
            solver
        },
        generate_tests: opts.generate_tests,
        seed: opts.seed,
        ..base.clone()
    };
    // Exhaustive-exploration harnesses use random search for the baseline
    // (like the paper's complete explorations); the coverage strategy only
    // matters for budgeted runs. Callers override as needed.
    if matches!(setup, Setup::Baseline) && opts.budget.is_none() {
        config.strategy = StrategyKind::Random;
    }
    config
}

/// Runs one workload under one setup and sizing. `opts.jobs > 1` runs
/// the sharded parallel engine instead of the sequential loop; so does
/// `SYMMERGE_SCHEDULER=steal` at any job count (steal at `jobs = 1`
/// still exercises the full shared-pool machinery, which is exactly the
/// single-worker-overhead measurement the scaling sweeps want).
pub fn run_workload(
    workload: &Workload,
    cfg: &InputConfig,
    setup: Setup,
    opts: &RunOpts,
) -> RunReport {
    let program = workload.program(cfg);
    let config = config_for(setup, opts);
    if opts.jobs > 1 || opts.scheduler == SchedulerKind::Steal {
        // The round quota and steal direction come from the environment
        // (SYMMERGE_PAR_QUOTA, SYMMERGE_PAR_STEAL_NEWEST; see EXPERIMENTS.md).
        let par =
            ParallelConfig { jobs: opts.jobs, scheduler: opts.scheduler, ..env_config().parallel };
        return ParallelEngine::new(program, config, par)
            .expect("workload programs validate")
            .run();
    }
    let mut engine =
        Engine::builder(program).config(config).build().expect("workload programs validate");
    engine.run()
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
        assert_eq!(config_for(Setup::Baseline, &opts).merge_mode, MergeMode::None);
        assert_eq!(config_for(Setup::SsmQce, &opts).merge_mode, MergeMode::Static);
        assert_eq!(config_for(Setup::DsmQce, &opts).merge_mode, MergeMode::Dynamic);
        assert_eq!(config_for(Setup::SsmQce, &opts).strategy, StrategyKind::Topological);
    }
}

pub mod harness {
    //! Shared plumbing for the figure binaries: tiny CLI parsing and CSV
    //! output under `target/figures/`.

    use std::fs;
    use std::io::Write;
    use std::path::PathBuf;
    use std::time::Duration;

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
