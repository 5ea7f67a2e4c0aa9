//! Shared differential-soundness oracle.
//!
//! The paper's core claim is that state merging changes *performance but
//! never results*. This module makes that claim mechanically checkable:
//! [`observe`] runs the engine under one explicit [`EngineConfig`],
//! replays **every** generated test case through the concrete
//! interpreter, and condenses the run into an [`Observation`] of purely
//! observable facts (assertion verdicts, concrete behaviours, coverage,
//! path counts). [`assert_mode_invariant`] then compares a merged-mode
//! observation against the unmerged baseline and asserts the paper's
//! `∼qce`-soundness invariants.
//!
//! Every run takes its configuration as a value; nothing here reads the
//! environment.

// Each test binary that includes this module uses a different subset.
#![allow(dead_code)]

use std::collections::BTreeSet;
use symmerge::prelude::*;
use symmerge::workloads::by_name;

/// The differential core: 12 workloads covering every `InputKind`,
/// shared by the mode, solver-config, parallel and ablation
/// differentials.
pub const WORKLOADS: &[(&str, InputConfig)] = &[
    ("echo", InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 }),
    ("link", InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 }),
    ("sleep", InputConfig { n_args: 2, arg_len: 1, stdin_len: 0 }),
    ("nice", InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 }),
    ("basename", InputConfig { n_args: 1, arg_len: 3, stdin_len: 0 }),
    ("dirname", InputConfig { n_args: 1, arg_len: 3, stdin_len: 0 }),
    ("cut", InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 }),
    ("test", InputConfig { n_args: 2, arg_len: 2, stdin_len: 0 }),
    ("wc", InputConfig { n_args: 0, arg_len: 1, stdin_len: 3 }),
    ("rev", InputConfig { n_args: 0, arg_len: 1, stdin_len: 3 }),
    ("sum", InputConfig { n_args: 0, arg_len: 1, stdin_len: 3 }),
    ("cat", InputConfig { n_args: 1, arg_len: 1, stdin_len: 2 }),
];

/// The engine configuration every harness run uses: `mode` and
/// `strategy` with `solver`, QCE α = 1e-12 (so merging actually
/// happens at these small sizes) and seed 11.
pub fn harness_config(
    mode: MergeMode,
    strategy: StrategyKind,
    solver: SolverConfig,
) -> EngineConfig {
    EngineConfig {
        merge_mode: mode,
        strategy,
        qce: QceConfig { alpha: 1e-12, ..QceConfig::default() },
        solver,
        seed: 11,
        ..EngineConfig::default()
    }
}

/// A fleet of `jobs` workers under `scheduler`, with a deliberately tiny
/// round quota so even the small differential workloads cross worker
/// boundaries many times — the determinism claims are only interesting
/// when states actually migrate.
pub fn fleet(jobs: u32, scheduler: SchedulerKind) -> ParallelConfig {
    ParallelConfig { jobs, steps_per_round: 48, scheduler, ..ParallelConfig::default() }
}

/// One concrete behaviour class: how a replay terminated (including the
/// assertion message, if any) plus the exact output bytes.
pub type Behavior = (String, Vec<u64>);

/// The observable outcome of one engine run, after concrete replay.
#[derive(Debug)]
pub struct Observation {
    /// Which merge mode produced this run.
    pub mode: MergeMode,
    /// Which search strategy drove it.
    pub strategy: StrategyKind,
    /// Deduplicated assertion-failure messages the engine reported.
    pub failure_msgs: BTreeSet<String>,
    /// Basic blocks covered by exhaustive exploration.
    pub covered_blocks: usize,
    /// Completed states (merged states count once).
    pub completed_paths: u64,
    /// Sum of completed-state multiplicities (§5.2 path-count proxy).
    pub completed_multiplicity: f64,
    /// Behaviour classes discovered by concretely replaying every
    /// generated test case through `Interp`.
    pub behaviors: BTreeSet<Behavior>,
    /// Number of generated test cases.
    pub num_tests: usize,
    /// The raw engine report the observation condenses.
    pub report: RunReport,
}

impl Observation {
    /// The termination classes of all replayed behaviours. Unlike raw
    /// output bytes — which depend on which model the solver picks for a
    /// path condition, and so may legitimately differ between runs — the
    /// termination class of a path is fixed, making this set comparable
    /// across modes and strategies.
    pub fn termination_classes(&self) -> BTreeSet<String> {
        self.behaviors.iter().map(|(class, _)| class.clone()).collect()
    }
}

fn outcome_class(outcome: &ExecOutcome) -> String {
    match outcome {
        ExecOutcome::Halted => "halted".to_string(),
        ExecOutcome::Returned => "returned".to_string(),
        ExecOutcome::AssertFailed { msg } => format!("assert:{msg}"),
        ExecOutcome::AssumeViolated => "assume-violated".to_string(),
        ExecOutcome::StepLimit => "step-limit".to_string(),
    }
}

/// Runs `workload` exhaustively on the sequential engine under `config`
/// and replays every generated test concretely (see [`condense`]).
pub fn observe(workload: &str, cfg: InputConfig, config: EngineConfig) -> Observation {
    let program =
        by_name(workload).unwrap_or_else(|| panic!("unknown workload {workload}")).program(&cfg);
    let (mode, strategy) = (config.merge_mode, config.strategy);
    let report = run_sequential(program.clone(), workload, config);
    condense(&format!("{workload} {mode:?}/{strategy:?}"), mode, strategy, &program, report)
}

/// Condenses an exhaustive run's report into an [`Observation`],
/// replaying every generated test through the concrete interpreter.
///
/// Panics if the run produced no tests, if any generated test's concrete
/// replay diverges from the symbolic prediction (the core differential
/// check), if a replay ends in a state the engine can never legitimately
/// predict (`assume` violation or interpreter step limit), or if the
/// reported and replayed assertion failures disagree.
fn condense(
    who: &str,
    mode: MergeMode,
    strategy: StrategyKind,
    program: &Program,
    report: RunReport,
) -> Observation {
    assert!(!report.tests.is_empty(), "{who}: produced no test cases to replay");

    let mut behaviors = BTreeSet::new();
    for (i, test) in report.tests.iter().enumerate() {
        // Differential check #1: the symbolic prediction (termination
        // class + output bytes) matches the concrete interpreter exactly.
        if let Err(e) = test.validate(program) {
            panic!("{who}: test {i} diverged from concrete replay: {e}\ninputs: {:?}", test.inputs);
        }
        let replay = test.replay(program);
        assert!(
            !matches!(replay.outcome, ExecOutcome::AssumeViolated | ExecOutcome::StepLimit),
            "{who}: test {i} replayed to {:?}",
            replay.outcome
        );
        behaviors.insert((outcome_class(&replay.outcome), replay.outputs));
    }

    let failure_msgs: BTreeSet<String> =
        report.assert_failures.iter().map(|f| f.msg.clone()).collect();
    // Differential check #2: the report's failure list and the replayed
    // failure behaviours must agree — an assertion the engine claims to
    // have broken must actually break concretely, and vice versa.
    let replayed_failures: BTreeSet<String> = behaviors
        .iter()
        .filter_map(|(class, _)| class.strip_prefix("assert:").map(str::to_string))
        .collect();
    assert_eq!(
        replayed_failures, failure_msgs,
        "{who}: reported assertion failures and concretely replayed failures disagree"
    );

    Observation {
        mode,
        strategy,
        failure_msgs,
        covered_blocks: report.covered_blocks,
        completed_paths: report.completed_paths,
        completed_multiplicity: report.completed_multiplicity,
        behaviors,
        num_tests: report.tests.len(),
        report,
    }
}

/// Asserts the paper's mode-invariance contract between an unmerged
/// baseline observation and another observation of the same workload.
pub fn assert_mode_invariant(workload: &str, baseline: &Observation, other: &Observation) {
    let who = format!(
        "{workload}: {:?}/{:?} vs baseline {:?}/{:?}",
        other.mode, other.strategy, baseline.mode, baseline.strategy
    );
    // Assertion verdicts are identical in every mode (invariant 1).
    assert_eq!(other.failure_msgs, baseline.failure_msgs, "{who}: assertion verdicts differ");
    // Exhaustive exploration covers exactly the same blocks (invariant 2).
    assert_eq!(other.covered_blocks, baseline.covered_blocks, "{who}: block coverage differs");
    // Multiplicity never loses paths (§5.2): the merged run's completed
    // multiplicity accounts for at least every exact baseline path.
    assert!(
        other.completed_multiplicity >= baseline.completed_paths as f64,
        "{who}: multiplicity {} < exact paths {}",
        other.completed_multiplicity,
        baseline.completed_paths
    );
    // Merging can only fuse states, never mint new ones.
    assert!(
        other.completed_paths <= baseline.completed_paths,
        "{who}: more completed states ({}) than the unmerged baseline ({})",
        other.completed_paths,
        baseline.completed_paths
    );
    // Every termination class a merged run exhibits is one the unmerged
    // engine also exhibits: merging must not invent ways for the program
    // to end. (Raw output bytes are not compared across runs — they
    // depend on which model the solver picks per path condition; each
    // run's bytes are instead checked against the concrete interpreter in
    // `observe`. The reverse inclusion is also deliberately not asserted:
    // a merged state yields one representative test for the whole
    // disjunction, so a merged run may sample fewer classes — except for
    // assertion failures, whose equality `failure_msgs` already pins.)
    let (base_classes, other_classes) =
        (baseline.termination_classes(), other.termination_classes());
    for class in &other_classes {
        assert!(
            base_classes.contains(class),
            "{who}: merged run fabricated termination class {class:?} absent from baseline"
        );
    }
}

/// Runs a workload under an explicit solver configuration and returns
/// the raw engine report. Used by the solver-config differential, which
/// compares two reports of the *same* engine configuration that differ
/// only in how the solver answered the queries.
pub fn run_with_solver(
    workload: &str,
    cfg: InputConfig,
    mode: MergeMode,
    strategy: StrategyKind,
    solver: SolverConfig,
) -> RunReport {
    let program =
        by_name(workload).unwrap_or_else(|| panic!("unknown workload {workload}")).program(&cfg);
    run_sequential(program, workload, harness_config(mode, strategy, solver))
}

/// Runs `program` on the sequential engine under `config`, asserting the
/// run was exhaustive and dropped no test on a solver `Unknown`.
fn run_sequential(program: Program, workload: &str, config: EngineConfig) -> RunReport {
    let (mode, strategy) = (config.merge_mode, config.strategy);
    let report = Engine::builder(program).config(config).build().unwrap().run();
    assert!(
        !report.hit_budget,
        "{workload} {mode:?}/{strategy:?}: the differential requires exhaustive exploration"
    );
    assert_eq!(
        report.tests_dropped_unknown, 0,
        "{workload} {mode:?}/{strategy:?}: no solver budget is set, nothing may drop"
    );
    report
}

/// A generated test collapsed to comparable bytes: termination class,
/// input assignments, predicted outputs.
type TestBytes = (String, Vec<(String, u64)>, Vec<u64>);

fn test_bytes(report: &RunReport) -> Vec<TestBytes> {
    let mut v: Vec<TestBytes> = report
        .tests
        .iter()
        .map(|t| {
            let class = match &t.kind {
                TestKind::Halted => "halted".to_string(),
                TestKind::Returned => "returned".to_string(),
                TestKind::AssertFailure { msg } => format!("assert:{msg}"),
            };
            (class, t.inputs.clone(), t.predicted_outputs.clone())
        })
        .collect();
    v.sort();
    v
}

/// Asserts that two runs of the same engine configuration under different
/// *solver* configurations are observationally identical: same assertion
/// verdicts, same coverage, same path counts — and, because both runs use
/// canonical (minimal) models, the *exact same generated-test bytes*.
/// `label` names the solver axis being varied (e.g. "incremental vs
/// re-blast") for failure messages.
pub fn assert_solver_config_invariant(
    workload: &str,
    label: &str,
    incremental: &RunReport,
    reblast: &RunReport,
) {
    let who = format!("{workload}: {label} solver");
    let msgs = |r: &RunReport| -> BTreeSet<String> {
        r.assert_failures.iter().map(|f| f.msg.clone()).collect()
    };
    assert_eq!(msgs(incremental), msgs(reblast), "{who}: assertion verdicts differ");
    assert_eq!(incremental.covered_blocks, reblast.covered_blocks, "{who}: block coverage differs");
    assert_eq!(
        incremental.completed_paths, reblast.completed_paths,
        "{who}: completed path counts differ"
    );
    assert_eq!(
        incremental.completed_multiplicity, reblast.completed_multiplicity,
        "{who}: completed multiplicities differ"
    );
    assert_eq!(
        incremental.merges, reblast.merges,
        "{who}: merge counts differ (exploration diverged)"
    );
    assert_eq!(
        test_bytes(incremental),
        test_bytes(reblast),
        "{who}: canonical models must make generated tests byte-identical"
    );
}

/// The unmerged-baseline observation must itself be internally exact:
/// without merging, multiplicity equals the completed path count and each
/// completed path yields one test.
pub fn assert_exact_baseline(workload: &str, baseline: &Observation) {
    assert_eq!(baseline.mode, MergeMode::None, "{workload}: baseline must be unmerged");
    assert!(
        (baseline.completed_multiplicity - baseline.completed_paths as f64).abs() < 1e-9,
        "{workload}: unmerged multiplicity {} != path count {}",
        baseline.completed_multiplicity,
        baseline.completed_paths
    );
    assert_eq!(
        baseline.num_tests, baseline.completed_paths as usize,
        "{workload}: unmerged run should generate one test per completed path"
    );
}

/// Runs a workload on the sharded parallel engine with `jobs` BSP
/// workers (see [`fleet`]).
pub fn run_parallel(
    workload: &str,
    cfg: InputConfig,
    mode: MergeMode,
    strategy: StrategyKind,
    solver: SolverConfig,
    jobs: u32,
) -> RunReport {
    let program =
        by_name(workload).unwrap_or_else(|| panic!("unknown workload {workload}")).program(&cfg);
    let config = harness_config(mode, strategy, solver);
    run_fleet(program, workload, config, fleet(jobs, SchedulerKind::Bsp))
}

/// Runs a workload on the work-stealing scheduler with `jobs` workers.
pub fn run_parallel_steal(
    workload: &str,
    cfg: InputConfig,
    mode: MergeMode,
    strategy: StrategyKind,
    solver: SolverConfig,
    jobs: u32,
) -> RunReport {
    let program =
        by_name(workload).unwrap_or_else(|| panic!("unknown workload {workload}")).program(&cfg);
    let config = harness_config(mode, strategy, solver);
    run_fleet(program, workload, config, fleet(jobs, SchedulerKind::Steal))
}

/// Runs `program` on a [`ParallelEngine`] fleet, asserting the run was
/// exhaustive and dropped no test on a solver `Unknown`.
fn run_fleet(
    program: Program,
    workload: &str,
    config: EngineConfig,
    par: ParallelConfig,
) -> RunReport {
    let (mode, strategy, jobs) = (config.merge_mode, config.strategy, par.jobs);
    let report =
        ParallelEngine::new(program, config, par).expect("workload programs validate").run();
    assert!(
        !report.hit_budget,
        "{workload} {mode:?}/{strategy:?} jobs={jobs}: differential requires exhaustive runs"
    );
    assert_eq!(
        report.tests_dropped_unknown, 0,
        "{workload} {mode:?}/{strategy:?} jobs={jobs}: no solver budget is set, nothing may drop"
    );
    report
}

/// Asserts the parallel engine's strongest contract: under
/// `MergeMode::None` (schedule-invariant path set) with canonical models,
/// a sharded run is observationally *byte-identical* to the sequential
/// engine — same counters, same verdicts, and the exact same generated
/// tests (compared as canonically sorted byte lists, since the sharded
/// reduction orders tests by their stable key while the sequential engine
/// reports completion order).
pub fn assert_parallel_matches_sequential(
    workload: &str,
    jobs: u32,
    sequential: &RunReport,
    parallel: &RunReport,
) {
    let who = format!("{workload}: jobs={jobs} vs sequential");
    let msgs = |r: &RunReport| -> BTreeSet<String> {
        r.assert_failures.iter().map(|f| f.msg.clone()).collect()
    };
    assert_eq!(msgs(parallel), msgs(sequential), "{who}: assertion verdicts differ");
    assert_eq!(
        parallel.completed_paths, sequential.completed_paths,
        "{who}: completed path counts differ"
    );
    assert_eq!(
        parallel.completed_multiplicity, sequential.completed_multiplicity,
        "{who}: completed multiplicities differ"
    );
    assert_eq!(parallel.covered_blocks, sequential.covered_blocks, "{who}: coverage differs");
    assert_eq!(parallel.steps, sequential.steps, "{who}: executed step counts differ");
    // A quarantined state (panic isolation / injected worker panics) is
    // re-picked by its rescuer, so each quarantine adds exactly one
    // pick of redone work; net of those, pick counts are identical.
    assert_eq!(
        parallel.picks - parallel.quarantined_states,
        sequential.picks,
        "{who}: pick counts differ (net of quarantine re-picks)"
    );
    assert_eq!(parallel.merges, 0, "{who}: MergeMode::None must never merge");
    assert_eq!(parallel.leftover_states, 0, "{who}: exhaustive run left states behind");
    assert_eq!(
        test_bytes(parallel),
        test_bytes(sequential),
        "{who}: canonical models must make generated tests byte-identical"
    );
}

/// Observes a *parallel* run the way [`observe`] observes a sequential
/// one: replays every generated test through the concrete interpreter and
/// condenses the observable facts, so sharded runs can be checked
/// against the sequential unmerged baseline with
/// [`assert_mode_invariant`].
pub fn observe_parallel(
    workload: &str,
    cfg: InputConfig,
    config: EngineConfig,
    par: ParallelConfig,
) -> Observation {
    let program =
        by_name(workload).unwrap_or_else(|| panic!("unknown workload {workload}")).program(&cfg);
    let (mode, strategy) = (config.merge_mode, config.strategy);
    let who = format!("{workload} {mode:?}/{strategy:?} {:?} jobs={}", par.scheduler, par.jobs);
    let report = run_fleet(program.clone(), workload, config, par);
    condense(&who, mode, strategy, &program, report)
}
