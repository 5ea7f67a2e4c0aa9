//! **mergebench** — the repository's one-command benchmark.
//!
//! Runs one exhaustive-exploration workload (no budget, so every
//! exploration does the same work) over and over for `--seconds`, checks
//! every result, and prints each metric by name with its unit. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! ```sh
//! cargo run --offline --release --manifest-path mergebench/Cargo.toml -- \
//!     --workload explore-wc6 --seed 0 --seconds 20 --trace 0
//! ```
//!
//! * `--trace 0` reports the end-to-end metrics: `setup_s` (median over
//!   the run's set-ups), `explore_s` and `cpu_s` (medians over its
//!   explorations) and `peak_rss_mb` (the process high-water mark).
//! * `--trace 1` alternates untraced and traced explorations and reports
//!   the per-layer metrics. Spans are timed here, around the public calls
//!   into each layer; the solver, merge, scheduling and fleet figures are
//!   read off the `RunReport` at the API boundary.
//!
//! Every measured exploration runs at engine seed 0, so every run does
//! the same work and its counters repeat exactly. `--seed n` picks the
//! second seed, `n + 1`, at which one more, untimed exploration must pass
//! the same correctness checks. Every configuration is built explicitly,
//! and the run refuses to start when any `SYMMERGE_*` variable is set,
//! because library defaults read those. `workloads.json` records why each
//! workload was chosen.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use symmerge_core::{
    Budgets, DsmConfig, Engine, EngineConfig, ExploreStep, MergeConfig, MergeMode, ParallelConfig,
    ParallelEngine, QceAnalysis, QceConfig, RunReport, SchedulerKind, SolverConfig, StrategyKind,
};
use symmerge_ir::Program;
use symmerge_workloads::{by_name, InputConfig};

/// How a workload's exploration is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    /// One [`Engine`] on the calling thread.
    Sequential,
    /// A [`ParallelEngine`] with this many BSP workers.
    Fleet(u32),
}

/// One benchmark workload: a utility, its symbolic input and the engine
/// setup that explores it.
#[derive(Debug, Clone, Copy)]
struct Spec {
    name: &'static str,
    tool: &'static str,
    input: InputConfig,
    mode: MergeMode,
    strategy: StrategyKind,
    driver: Driver,
}

const fn stdin(n: u32) -> InputConfig {
    InputConfig { n_args: 0, arg_len: 1, stdin_len: n }
}

const SPECS: [Spec; 4] = [
    Spec {
        name: "explore-wc6",
        tool: "wc",
        input: stdin(6),
        mode: MergeMode::None,
        strategy: StrategyKind::Random,
        driver: Driver::Sequential,
    },
    Spec {
        name: "ssm-basename10",
        tool: "basename",
        input: InputConfig { n_args: 1, arg_len: 10, stdin_len: 0 },
        mode: MergeMode::Static,
        strategy: StrategyKind::Topological,
        driver: Driver::Sequential,
    },
    Spec {
        name: "dsm-wc9",
        tool: "wc",
        input: stdin(9),
        mode: MergeMode::Dynamic,
        strategy: StrategyKind::CoverageOptimized,
        driver: Driver::Sequential,
    },
    Spec {
        name: "fleet-wc6",
        tool: "wc",
        input: stdin(6),
        mode: MergeMode::None,
        strategy: StrategyKind::Random,
        driver: Driver::Fleet(2),
    },
];

/// Set-ups timed back to back before each exploration; `setup_s` is the
/// median over all of a run's batches. One set-up takes about a
/// millisecond and its time drifts over seconds with the machine's
/// state, so the samples are spread across the whole run.
const SETUP_BATCH: usize = 64;

/// The library defaults, written out field by field so that no
/// environment variable can change the measured program.
fn solver_config() -> SolverConfig {
    SolverConfig {
        use_cache: true,
        use_model_reuse: true,
        use_independence: true,
        use_cex_cache: true,
        cex_prefilter: true,
        tier_gate: 64,
        use_incremental: true,
        ctx_fork: true,
        sat_ccmin: true,
        ite_factor: true,
        canonical_models: false,
        max_conflicts: None,
        retry_ladder: vec![4, 16],
        model_history: 32,
        max_contexts: 64,
        ctx_evict_by_clauses: true,
        max_context_clauses: 1_000_000,
        cex_capacity: 256,
        shared_cache: true,
    }
}

fn engine_config(spec: &Spec, seed: u64) -> EngineConfig {
    EngineConfig {
        merge_mode: spec.mode,
        strategy: spec.strategy,
        qce: QceConfig { alpha: 1e-12, beta: 0.8, kappa: 10, zeta: None },
        dsm: DsmConfig { delta: 8 },
        merge: MergeConfig { factor_common_prefix: true },
        solver: solver_config(),
        budgets: Budgets { max_time: None, max_steps: None, max_completed: None, max_picks: None },
        generate_tests: true,
        affinity_scheduling: true,
        warm_migration: true,
        fault_plan: None,
        panic_isolation: false,
        checkpoint: None,
        seed,
    }
}

fn parallel_config(jobs: u32) -> ParallelConfig {
    ParallelConfig {
        jobs,
        steps_per_round: 512,
        steal_newest: false,
        scheduler: SchedulerKind::Bsp,
    }
}

// One is built per set-up and moved once, so the size gap costs nothing.
#[allow(clippy::large_enum_variant)]
enum Built {
    Seq(Engine),
    Fleet(ParallelEngine),
}

fn build(spec: &Spec, program: Program, config: EngineConfig) -> Built {
    match spec.driver {
        Driver::Sequential => Built::Seq(
            Engine::builder(program).config(config).build().expect("workload programs validate"),
        ),
        Driver::Fleet(jobs) => Built::Fleet(
            ParallelEngine::new(program, config, parallel_config(jobs))
                .expect("workload programs validate"),
        ),
    }
}

/// The counters that must repeat exactly between explorations of one
/// workload and seed, traced or not.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counters {
    steps: u64,
    picks: u64,
    sched_picks: u64,
    sat_calls: u64,
    merges: u64,
    rejects: u64,
    tests: usize,
    envelope_nodes: u64,
    completed_paths: u64,
    covered_blocks: usize,
    /// Digest of the generated tests (kind, inputs, predicted outputs).
    tests_digest: u64,
}

impl Counters {
    fn of(report: &RunReport) -> Counters {
        let mut h = DefaultHasher::new();
        for t in &report.tests {
            t.sort_key().hash(&mut h);
        }
        Counters {
            steps: report.steps,
            picks: report.picks,
            sched_picks: report.sched_picks,
            sat_calls: report.solver.sat_calls,
            merges: report.merges,
            rejects: report.merge_rejects,
            tests: report.tests.len(),
            envelope_nodes: report.envelope_nodes,
            completed_paths: report.completed_paths,
            covered_blocks: report.covered_blocks,
            tests_digest: h.finish(),
        }
    }
}

/// The engine seed of every measured exploration.
const MEASURED_SEED: u64 = 0;

/// The correctness oracle for one exploration at engine seed `seed`:
/// replays every test on the concrete interpreter and checks the report
/// against the expected results. Returns `(replay failures, mismatches)`.
fn check(spec: &Spec, seed: u64, program: &Program, report: &RunReport) -> (u64, Vec<String>) {
    let replay_failed = report.tests.iter().filter(|t| t.validate(program).is_err()).count() as u64;
    let mut bad = Vec::new();
    let mut want = |what: &str, got: u64, expected: u64| {
        if got != expected {
            bad.push(format!("{what}: got {got}, expected {expected}"));
        }
    };
    want("hit_budget", report.hit_budget as u64, 0);
    want("leftover_states", report.leftover_states as u64, 0);
    want("tests_dropped_unknown", report.tests_dropped_unknown, 0);
    want("quarantined_states", report.quarantined_states, 0);
    if spec.tool == "wc" && spec.mode == MergeMode::None {
        let paths: u64 = (0..=spec.input.stdin_len).map(|k| 4u64.pow(k)).sum();
        want("completed_paths", report.completed_paths, paths);
        want("tests", report.tests.len() as u64, paths);
    }
    for (field, expected) in expected_for(spec.name, seed) {
        let got = match field.as_str() {
            "tests" => report.tests.len() as u64,
            "completed_paths" => report.completed_paths,
            "covered_blocks" => report.covered_blocks as u64,
            "total_blocks" => report.total_blocks as u64,
            "assert_failures" => report.assert_failures.len() as u64,
            other => panic!("expected.txt names an unknown field `{other}`"),
        };
        want(&field, got, expected);
    }
    (replay_failed, bad)
}

/// The `expected.txt` entries for one workload at one engine seed.
fn expected_for(workload: &str, seed: u64) -> Vec<(String, u64)> {
    include_str!("../expected.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(
                f.len(),
                4,
                "expected.txt line `{l}` is not `<workload> <seed> <field> <value>`"
            );
            let value = f[3].parse().expect("expected.txt values are whole numbers");
            let seed_matches = f[1] == "*" || f[1].parse() == Ok(seed);
            (f[0] == workload && seed_matches).then(|| (f[2].to_string(), value))
        })
        .collect()
}

/// Process user + system time in seconds (all threads, live or joined),
/// from clock ticks of 1/100 s (Linux's fixed `USER_HZ`).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// A `/proc/self/status` field's first token.
fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next().map(str::to_string)
}

fn peak_rss_mb() -> f64 {
    let kb: f64 = status_field("VmHWM:").and_then(|v| v.parse().ok()).expect("VmHWM in status");
    kb / 1024.0
}

/// CPUs this process may run on (what `nproc` prints).
fn nproc() -> usize {
    let Some(list) = status_field("Cpus_allowed_list:") else { return 0 };
    list.split(',')
        .map(|r| match r.split_once('-') {
            Some((a, b)) => b.parse::<usize>().unwrap_or(0) + 1 - a.parse::<usize>().unwrap_or(0),
            None => 1,
        })
        .sum()
}

/// The checked-out commit, when the working directory is a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(r) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{r}"))
        .or_else(|| {
            let packed = read(".git/packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(r))?;
            line.split_whitespace().next().map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the measured program's sources (`crates/`, `vendor/`
/// and the root manifests): it names the code where no git metadata is
/// checked out.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x} over {} files", files.len())
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// What one exploration produced, traced or not.
struct Exploration {
    report: RunReport,
    counters: Counters,
    explore_s: f64,
    cpu_s: f64,
    /// Per-layer figures (traced explorations only).
    layers: BTreeMap<&'static str, f64>,
}

struct Bench {
    spec: Spec,
    seed: u64,
    /// The workload's program, for replaying tests.
    program: Program,
}

fn compile(spec: &Spec) -> Program {
    by_name(spec.tool).expect("workload exists").program(&spec.input)
}

impl Bench {
    /// One set-up: the workload's program and an engine over it.
    fn setup(&self) -> Built {
        build(&self.spec, compile(&self.spec), engine_config(&self.spec, self.seed))
    }

    /// Times `SETUP_BATCH` set-ups, dropping each engine outside the timer.
    fn time_setups(&self) -> impl Iterator<Item = f64> + '_ {
        (0..SETUP_BATCH).map(|_| {
            let t = Instant::now();
            let built = self.setup();
            let s = t.elapsed().as_secs_f64();
            drop(built);
            s
        })
    }

    /// An untraced exploration through `Engine::run` / `ParallelEngine::run`,
    /// timed from the first step until the engine is dropped.
    fn untraced(&self) -> Exploration {
        let built = self.setup();
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let report = match built {
            Built::Seq(mut engine) => {
                let report = engine.run();
                drop(engine);
                report
            }
            Built::Fleet(mut fleet) => {
                let report = fleet.run();
                drop(fleet);
                report
            }
        };
        let explore_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        let counters = Counters::of(&report);
        Exploration { report, counters, explore_s, cpu_s, layers: BTreeMap::new() }
    }

    /// A traced exploration: each layer call is timed on its own, and a
    /// sequential engine is driven one `explore_step` at a time.
    fn traced(&self) -> Exploration {
        let config = engine_config(&self.spec, self.seed);
        let t = Instant::now();
        let program = compile(&self.spec);
        let compile_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        drop(QceAnalysis::run(&program, config.qce));
        let qce_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let built = build(&self.spec, program, config);
        let build_s = t.elapsed().as_secs_f64();

        let mut step_ns: Vec<u64> = Vec::new();
        let mut spans_s = 0.0;
        let mut report_s = 0.0;
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let (report, teardown_s) = match built {
            Built::Seq(mut engine) => {
                let t = Instant::now();
                engine.seed_initial();
                spans_s += t.elapsed().as_secs_f64();
                loop {
                    let t = Instant::now();
                    let step = engine.explore_step();
                    let d = t.elapsed();
                    spans_s += d.as_secs_f64();
                    step_ns.push(d.as_nanos() as u64);
                    match step {
                        ExploreStep::Progressed => {}
                        ExploreStep::Exhausted => break,
                        ExploreStep::BudgetExhausted => {
                            unreachable!("the benchmark sets no budget")
                        }
                    }
                }
                let t = Instant::now();
                let report = engine.report(false);
                report_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                drop(engine);
                (report, t.elapsed().as_secs_f64())
            }
            Built::Fleet(mut fleet) => {
                let report = fleet.run();
                let t = Instant::now();
                drop(fleet);
                (report, t.elapsed().as_secs_f64())
            }
        };
        let explore_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        let t = Instant::now();
        let replay_failed =
            report.tests.iter().filter(|t| t.validate(&self.program).is_err()).count();
        let replay_s = t.elapsed().as_secs_f64();

        step_ns.sort_unstable();
        let s = &report.solver;
        let solver_s = s.time.as_secs_f64();
        // A fleet cannot be stepped from outside: its engine self time is
        // the CPU its workers spent outside the solver.
        let self_s = if step_ns.is_empty() { cpu_s - solver_s } else { spans_s - solver_s };
        let layers = BTreeMap::from([
            ("workloads.compile_s", compile_s),
            ("qce.analysis_s", qce_s),
            ("engine.build_s", build_s),
            ("engine.steps", report.steps as f64),
            ("engine.step_p50_us", percentile(&step_ns, 0.50) as f64 / 1e3),
            ("engine.step_p99_us", percentile(&step_ns, 0.99) as f64 / 1e3),
            ("engine.step_max_ms", step_ns.last().copied().unwrap_or(0) as f64 / 1e6),
            ("engine.self_s", self_s),
            ("engine.report_s", report_s),
            ("engine.teardown_s", teardown_s),
            ("replay.s", replay_s),
            ("replay.failed", replay_failed as f64),
            ("solver.time_s", solver_s),
            ("solver.route_s", s.route_time.as_secs_f64()),
            ("solver.ctx_forks", s.ctx_forks as f64),
            ("solver.ctx_rebuilds", s.ctx_rebuilds as f64),
            ("solver.clauses_resident", s.ctx_clauses_resident as f64),
            ("solver.sat_s", s.sat_time.as_secs_f64()),
            ("solver.conflicts", s.conflicts as f64),
            ("solver.propagations", s.propagations as f64),
            ("solver.cache_s", s.cache_time.as_secs_f64()),
            (
                "solver.cache_hit_ratio",
                ratio(s.queries.saturating_sub(s.sat_calls) as f64, s.queries as f64),
            ),
            ("solver.queries", s.queries as f64),
            ("solver.sat_calls", s.sat_calls as f64),
            ("merge.merges", report.merges as f64),
            ("merge.rejects", report.merge_rejects as f64),
            (
                "merge.accept_ratio",
                ratio(report.merges as f64, (report.merges + report.merge_rejects) as f64),
            ),
            ("dsm.ff_picks", report.dsm.ff_picks as f64),
            ("dsm.ff_success_rate", report.ff_success_rate().unwrap_or(0.0)),
            ("sched.picks", report.sched_picks as f64),
            ("sched.heap_repairs", report.sched_heap_repairs as f64),
            ("fleet.envelope_exports", report.envelope_exports as f64),
            ("fleet.envelope_nodes", report.envelope_nodes as f64),
            ("fleet.shared_query_hits", s.shared_query_hits as f64),
            ("fleet.shared_cex_hits", s.shared_cex_hits as f64),
            ("fleet.shared_sync_s", s.shared_sync_time.as_secs_f64()),
            ("fleet.parallelism", ratio(cpu_s, explore_s)),
        ]);
        let counters = Counters::of(&report);
        Exploration { report, counters, explore_s, cpu_s, layers }
    }
}

/// Operations attempted (generated tests) and failed (tests that do not
/// replay, plus every other oracle or determinism mismatch).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, what: &str, bench: &Bench, report: &RunReport) {
        let (replay_failed, mismatches) = check(&bench.spec, bench.seed, &bench.program, report);
        self.attempted += report.tests.len() as u64;
        self.failed += replay_failed + mismatches.len() as u64;
        if replay_failed > 0 {
            eprintln!("mergebench: {what}: {replay_failed} tests do not replay");
        }
        for m in &mismatches {
            eprintln!("mergebench: {what}: {m}");
        }
    }
}

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => {
                let spec = SPECS.iter().find(|s| s.name == value);
                workload = Some(*spec.ok_or_else(|| format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a whole number")?),
            "--seconds" => {
                let s = value.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0);
                seconds = Some(s.ok_or("--seconds takes a positive number")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required: {names:?}"))?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(25.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SYMMERGE_"))
        .collect();
    if !set.is_empty() {
        eprintln!("mergebench: refusing to run with {set:?} set; they change library defaults");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mergebench: {e}\nusage: mergebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload;
    let bench = Bench { spec, seed: MEASURED_SEED, program: compile(&spec) };
    let second = args.seed.wrapping_add(1).max(1);

    println!(
        "# mergebench workload={} seed={} second_seed={second} seconds={} trace={}",
        spec.name, MEASURED_SEED, args.seconds, args.trace as u8
    );
    println!(
        "# host git_rev={} source_digest={} nproc={} available_parallelism={}",
        git_rev(),
        source_digest(),
        nproc(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("# workload {spec:?}");
    println!("# engine_config {:?}", engine_config(&spec, MEASURED_SEED));
    if let Driver::Fleet(jobs) = spec.driver {
        println!("# parallel_config {:?}", parallel_config(jobs));
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut setup: Vec<f64> = Vec::new();

    // Untraced and traced explorations; with --trace 1 they alternate.
    let mut untraced: Vec<Exploration> = Vec::new();
    let mut traced: Vec<Exploration> = Vec::new();
    let mut tally = Tally::default();
    let mut reference: Option<Counters> = None;
    for i in 0.. {
        setup.extend(bench.time_setups());
        let e = if args.trace && i % 2 == 1 { bench.traced() } else { bench.untraced() };
        let kind = if e.layers.is_empty() { "untraced" } else { "traced" };
        println!("# exploration {i} {kind} explore_s={:.4} cpu_s={:.2}", e.explore_s, e.cpu_s);
        tally.check(&format!("exploration {i}"), &bench, &e.report);
        match &reference {
            None => {
                println!(
                    "# counters {:?} multiplicity={} total_blocks={} assert_failures={}",
                    e.counters,
                    e.report.completed_multiplicity,
                    e.report.total_blocks,
                    e.report.assert_failures.len()
                );
                reference = Some(e.counters.clone());
            }
            Some(r) if *r != e.counters => {
                eprintln!("mergebench: exploration {i} counters differ: {:?}", e.counters);
                tally.failed += 1;
            }
            Some(_) => {}
        }
        if e.layers.is_empty() { &mut untraced } else { &mut traced }.push(e);
        let done = (i + 1) as u32;
        let per = start.elapsed() / done;
        if done >= 2 && start.elapsed() + per > budget {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb();
    let measured_s = start.elapsed().as_secs_f64();

    // The second seed explores in a different order; its counters may
    // differ, but the oracle must still hold.
    let check_bench = Bench { spec, seed: second, program: compile(&spec) };
    let e = check_bench.untraced();
    println!(
        "# second seed {second} counters {:?} multiplicity={}",
        e.counters, e.report.completed_multiplicity
    );
    tally.check(&format!("seed {second}"), &check_bench, &e.report);

    let med = |xs: &[Exploration], f: fn(&Exploration) -> f64| {
        median(&xs.iter().map(f).collect::<Vec<_>>())
    };
    let explore_s = med(&untraced, |e| e.explore_s);
    let end_to_end = [
        ("setup_s", median(&setup), "s"),
        ("explore_s", explore_s, "s"),
        ("cpu_s", med(&untraced, |e| e.cpu_s), "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let mut per_layer: Vec<(&str, f64, &str)> = Vec::new();
    if let Some(first) = traced.first() {
        for &name in first.layers.keys() {
            let v = median(&traced.iter().map(|e| e.layers[name]).collect::<Vec<_>>());
            per_layer.push((name, v, unit_of(name)));
        }
        per_layer.push(("trace.overhead_s", med(&traced, |e| e.explore_s) - explore_s, "s"));
    }

    println!(
        "# explorations untraced={} traced={} setups={} measured_wall_s={measured_s:.3}",
        untraced.len(),
        traced.len(),
        setup.len(),
    );
    let mut sorted = setup.clone();
    sorted.sort_by(f64::total_cmp);
    let q = |p: f64| sorted[(p * (sorted.len() - 1) as f64) as usize] * 1e3;
    println!(
        "# setup_ms min={:.4} p10={:.4} p50={:.4} p90={:.4} max={:.4}",
        q(0.0),
        q(0.1),
        q(0.5),
        q(0.9),
        q(1.0)
    );
    for (name, value, unit) in end_to_end.iter().chain(&per_layer) {
        println!("{name} = {value} {unit}");
    }
    let reported = if args.trace { &per_layer[..] } else { &end_to_end[..] };
    let metrics: Vec<String> = reported
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_s") || name == "replay.s" {
        "s"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("ratio") || name.ends_with("rate") || name.ends_with("parallelism") {
        "ratio"
    } else {
        "count"
    }
}
