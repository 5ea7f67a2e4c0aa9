//! The `symmerge` command-line driver: symbolically execute a MiniC file.
//!
//! ```sh
//! symmerge run program.mc                      # explore, report, list bugs
//! symmerge run program.mc --merge dynamic      # none | static | dynamic
//! symmerge run program.mc --merge static       # in topological order, unless --strategy is given
//! symmerge run program.mc --tests out_dir      # write replayable test files
//! symmerge qce program.mc                      # dump QCE hot-variable tables
//! symmerge workloads                           # list bundled mini-COREUTILS
//! ```
//!
//! `run` takes its solver and fault-tolerance knobs from the `SYMMERGE_*`
//! environment variables (see `symmerge::config`). It explores
//! sequentially, so it refuses to run while a fleet variable
//! (`symmerge::config::FLEET_VARS`) is set rather than ignore it.

use std::process::ExitCode;
use std::time::Duration;
use symmerge::config::FLEET_VARS;
use symmerge::core::VarKey;
use symmerge::prelude::*;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  symmerge run <file.mc> [--merge none|static|dynamic] [--strategy dfs|bfs|random|coverage|topological]\n               [--alpha X] [--beta X] [--kappa N] [--zeta X] [--delta N]\n               [--budget-ms N] [--seed N] [--width N] [--tests DIR] [--no-replay]\n  symmerge qce <file.mc> [--alpha X] [--beta X] [--kappa N] [--width N]\n  symmerge workloads"
    );
    ExitCode::from(2)
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(name) = raw[i].strip_prefix("--") {
                let takes_value = !matches!(name, "no-replay");
                if takes_value && i + 1 < raw.len() {
                    flags.push((name.to_owned(), Some(raw[i + 1].clone())));
                    i += 2;
                } else {
                    flags.push((name.to_owned(), None));
                    i += 1;
                }
            } else {
                positional.push(raw[i].clone());
                i += 1;
            }
        }
        Args { positional, flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: invalid value `{v}`")),
        }
    }
}

fn load_program(path: &str, width: u32) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    minic::compile_with_width(&src, width).map_err(|e| format!("{path}:{e}"))
}

fn qce_config(args: &Args) -> Result<QceConfig, String> {
    let mut qce = QceConfig {
        alpha: args.num("alpha", 1e-12)?,
        beta: args.num("beta", 0.8)?,
        kappa: args.num("kappa", 10u64)?,
        ..QceConfig::default()
    };
    if let Some(z) = args.get("zeta") {
        qce.zeta = Some(z.parse().map_err(|_| format!("--zeta: invalid value `{z}`"))?);
    }
    Ok(qce)
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let [_, path] = args.positional.as_slice() else {
        return Err("run: expected exactly one input file".into());
    };
    if let Some(var) = FLEET_VARS.iter().find(|&&var| std::env::var_os(var).is_some()) {
        return Err(format!(
            "run: {var} is set, but `symmerge run` explores sequentially and would ignore it; \
             only the fig* harnesses read it, under --jobs above 1"
        ));
    }
    let width = args.num("width", 32u32)?;
    let program = load_program(path, width)?;
    let merge = match args.get("merge").unwrap_or("dynamic") {
        "none" => MergeMode::None,
        "static" => MergeMode::Static,
        "dynamic" => MergeMode::Dynamic,
        other => return Err(format!("--merge: unknown mode `{other}`")),
    };
    // Static merging pays only when states meet at join points in
    // topological order, so that is its default strategy.
    let default_strategy = if merge == MergeMode::Static { "topological" } else { "coverage" };
    let strategy = match args.get("strategy").unwrap_or(default_strategy) {
        "dfs" => StrategyKind::Dfs,
        "bfs" => StrategyKind::Bfs,
        "random" => StrategyKind::Random,
        "coverage" => StrategyKind::CoverageOptimized,
        "topological" => StrategyKind::Topological,
        other => return Err(format!("--strategy: unknown strategy `{other}`")),
    };
    let env = symmerge::config::from_env()?.engine;
    let mut budgets = env.budgets;
    if let Some(ms) = args.get("budget-ms") {
        let ms: u64 = ms.parse().map_err(|_| "--budget-ms: invalid value".to_string())?;
        budgets.max_time = Some(Duration::from_millis(ms));
    }
    let config = EngineConfig {
        merge_mode: merge,
        strategy,
        qce: qce_config(args)?,
        dsm: DsmConfig { delta: args.num("delta", 8usize)? },
        budgets,
        seed: args.num("seed", 0u64)?,
        ..env
    };
    let mut engine =
        Engine::builder(program.clone()).config(config).build().map_err(|e| e.to_string())?;
    let report = engine.run();

    println!("== symmerge report for {path} ==");
    println!("merge mode        : {merge:?}   strategy: {strategy:?}");
    println!(
        "paths             : {} represented, {} completed states, {} merges ({} rejected)",
        report.completed_multiplicity, report.completed_paths, report.merges, report.merge_rejects
    );
    println!(
        "work              : {} picks, {} instructions, worklist peak {}",
        report.picks, report.steps, report.max_worklist
    );
    println!(
        "solver            : {} queries ({} sat / {} unsat), {} cache hits, {:?} total",
        report.solver.queries,
        report.solver.sat,
        report.solver.unsat,
        report.solver.cache_hits,
        report.solver.time
    );
    println!(
        "coverage          : {}/{} blocks ({:.1}%)",
        report.covered_blocks,
        report.total_blocks,
        report.coverage() * 100.0
    );
    println!(
        "status            : {} in {:?}{}",
        if report.hit_budget { "budget exhausted" } else { "exhaustive" },
        report.wall_time,
        if report.leftover_states > 0 {
            format!(", {} states unexplored", report.leftover_states)
        } else {
            String::new()
        }
    );
    if report.assert_failures.is_empty() {
        println!("assertions        : all hold on the explored paths");
    } else {
        println!("assertions        : {} FAILURE(S)", report.assert_failures.len());
        let mut seen = std::collections::HashSet::new();
        for f in &report.assert_failures {
            if seen.insert(&f.msg) {
                println!("  ✗ {} (fn#{} bb{} i{})", f.msg, f.loc.0, f.loc.1, f.loc.2);
            }
        }
    }

    // Replay validation (on by default — it is the end-to-end oracle).
    if !args.has("no-replay") {
        let mut ok = 0;
        for t in &report.tests {
            match t.validate(&program) {
                Ok(()) => ok += 1,
                Err(e) => println!("replay DIVERGED   : {e}"),
            }
        }
        println!("replay            : {ok}/{} tests validated", report.tests.len());
    }

    if let Some(dir) = args.get("tests") {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        for (i, t) in report.tests.iter().enumerate() {
            let mut body = String::new();
            body.push_str(&format!("# kind: {:?}\n", t.kind));
            for (name, value) in &t.inputs {
                body.push_str(&format!("{name} = {value}\n"));
            }
            body.push_str(&format!("# predicted outputs: {:?}\n", t.predicted_outputs));
            let file = format!("{dir}/test{i:04}.txt");
            std::fs::write(&file, body).map_err(|e| format!("{file}: {e}"))?;
        }
        println!("tests written     : {} files under {dir}", report.tests.len());
    }
    Ok(())
}

fn cmd_qce(args: &Args) -> Result<(), String> {
    let [_, path] = args.positional.as_slice() else {
        return Err("qce: expected exactly one input file".into());
    };
    let width = args.num("width", 32u32)?;
    let program = load_program(path, width)?;
    let qce = symmerge::core::QceAnalysis::run(&program, qce_config(args)?);
    for (fi, func) in program.functions.iter().enumerate() {
        let fq = &qce.funcs[fi];
        println!("fn {} — Q_t(entry) = {:.3}", func.name, fq.qt_entry);
        let entry = symmerge::ir::BlockId(0);
        let threshold = qce.config.alpha * fq.qt(entry);
        for (li, decl) in func.locals.iter().enumerate() {
            let key = VarKey::Local(symmerge::ir::LocalId(li as u32));
            let q = fq.qadd(entry, key);
            if q > 0.0 {
                let hot = if q > threshold { "HOT " } else { "    " };
                println!("  {hot}Q_add(entry, {:12}) = {q:12.3}", decl.name);
            }
        }
    }
    Ok(())
}

fn cmd_workloads() -> Result<(), String> {
    println!("{:10} {:6} description", "name", "input");
    for w in symmerge::workloads::all() {
        let kind = match w.kind {
            symmerge::workloads::InputKind::Args => "args",
            symmerge::workloads::InputKind::Stdin => "stdin",
            symmerge::workloads::InputKind::Both => "both",
        };
        println!("{:10} {:6} {}", w.name, kind, w.description);
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw);
    let Some(cmd) = args.positional.first() else { return usage() };
    let result = match cmd.as_str() {
        "run" => cmd_run(&args),
        "qce" => cmd_qce(&args),
        "workloads" => cmd_workloads(),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("symmerge: {e}");
            ExitCode::FAILURE
        }
    }
}
