//! Configuration from the environment, for binaries.
//!
//! The library crates never read the environment: every `Default` there
//! is a constant. This module is the one place the `SYMMERGE_*`
//! variables are parsed, and only binaries call it — the `symmerge`
//! command-line tool and the `symmerge-bench` figure binaries, each once
//! in `main`. Tests build their configurations as values instead.
//!
//! Unset variables keep the library default. A set variable that does
//! not parse is an error: a misspelled knob silently running the default
//! would defeat the reason for setting it. For the same reason
//! [`from_env`] refuses a set `SYMMERGE_*` name it does not read, a
//! misspelled or retired one. Each error is one line naming the
//! variable; the binaries print it and exit 1.
//!
//! [`from_lookup`] reads the variables in field order, one line per
//! variable; the README's "Environment" section tables them. It is also
//! the one list of names: the names it asks for are the names
//! [`from_env`] knows.
//!
//! A bool is one of `1`/`0`, `true`/`false`, `on`/`off`, `yes`/`no`.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use symmerge_core::{CheckpointConfig, EngineConfig, FaultPlan, ParallelConfig, SchedulerKind};

/// What a binary takes from the environment: the engine configuration
/// (solver included) and the fleet's parallelism knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvConfig {
    /// Engine configuration, starting from [`EngineConfig::default`].
    pub engine: EngineConfig,
    /// Fleet configuration, starting from [`ParallelConfig::default`].
    pub parallel: ParallelConfig,
}

/// The variables that configure only a fleet
/// ([`EnvConfig::parallel`]). Only the figure harnesses read them, and
/// only when run with `--jobs` above 1; the `symmerge` CLI explores
/// sequentially and refuses to run while one is set.
pub const FLEET_VARS: [&str; 3] =
    ["SYMMERGE_SCHEDULER", "SYMMERGE_PAR_QUOTA", "SYMMERGE_PAR_STEAL_NEWEST"];

/// Reads the `SYMMERGE_*` process environment (see the
/// [module docs](self)).
///
/// # Errors
///
/// A one-line message for a set `SYMMERGE_*` variable that
/// [`from_lookup`] does not read, or one whose value does not parse.
pub fn from_env() -> Result<EnvConfig, String> {
    let mut set = Vec::new();
    for (name, value) in std::env::vars_os() {
        let name = name.to_string_lossy().into_owned();
        if name.starts_with("SYMMERGE_") && value.to_str().is_none() {
            return Err(format!("{name}: {value:?} is not UTF-8"));
        }
        set.push(name);
    }
    refuse_unread(set)?;
    // Every set `SYMMERGE_*` value is UTF-8 by now.
    from_lookup(|name| std::env::var(name).ok())
}

/// [`from_env`] over an arbitrary variable lookup, so callers (and
/// tests) can supply variables without touching the process
/// environment.
///
/// # Errors
///
/// A one-line message for the first set variable whose value does not
/// parse.
pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<EnvConfig, String> {
    let env = Env(&lookup);
    let mut engine = EngineConfig::default();
    let solver = &mut engine.solver;
    env.flag("SYMMERGE_SOLVER_CACHE", &mut solver.use_cache)?;
    env.flag("SYMMERGE_SOLVER_INDEPENDENCE", &mut solver.use_independence)?;
    env.flag("SYMMERGE_SOLVER_CEX_CACHE", &mut solver.use_cex_cache)?;
    env.flag("SYMMERGE_SOLVER_CEX_PREFILTER", &mut solver.cex_prefilter)?;
    env.flag("SYMMERGE_SOLVER_INCREMENTAL", &mut solver.use_incremental)?;
    env.flag("SYMMERGE_SOLVER_CTX_FORK", &mut solver.ctx_fork)?;
    env.flag("SYMMERGE_SAT_CCMIN", &mut solver.sat_ccmin)?;
    env.flag("SYMMERGE_ITE_FACTOR", &mut solver.ite_factor)?;
    if let Some(v) = env.get("SYMMERGE_SOLVER_RETRY_LADDER") {
        solver.retry_ladder = parse_retry_ladder(&v)?;
    }
    if let Some(v) = env.get("SYMMERGE_CTX_EVICT") {
        solver.ctx_evict_by_clauses = match v.as_str() {
            "clauses" => true,
            "count" => false,
            _ => return Err(format!("SYMMERGE_CTX_EVICT takes `clauses` or `count`, got `{v}`")),
        };
    }
    env.num("SYMMERGE_MAX_CTX_CLAUSES", &mut solver.max_context_clauses)?;
    env.num("SYMMERGE_MAX_CONTEXTS", &mut solver.max_contexts)?;

    env.flag("SYMMERGE_WARM_MIGRATION", &mut engine.warm_migration)?;
    if let Some(v) = env.get("SYMMERGE_FAULT_PLAN").filter(|v| !v.is_empty()) {
        let plan = FaultPlan::parse(&v).map_err(|e| format!("SYMMERGE_FAULT_PLAN: {e}"))?;
        engine.fault_plan = Some(Arc::new(plan));
    }
    env.flag("SYMMERGE_PANIC_ISOLATION", &mut engine.panic_isolation)?;
    let path = env.get("SYMMERGE_CHECKPOINT_PATH").filter(|p| !p.is_empty());
    if let Some(every) = env.get("SYMMERGE_CHECKPOINT_EVERY").filter(|_| path.is_none()) {
        return Err(format!(
            "SYMMERGE_CHECKPOINT_EVERY=`{every}` needs SYMMERGE_CHECKPOINT_PATH set as well"
        ));
    }
    if let Some(path) = path {
        let mut every = 256;
        env.num("SYMMERGE_CHECKPOINT_EVERY", &mut every)?;
        if every > 0 {
            engine.checkpoint = Some(CheckpointConfig { path: PathBuf::from(path), every });
        }
    }

    let mut parallel = ParallelConfig::default();
    if let Some(v) = env.get("SYMMERGE_SCHEDULER") {
        parallel.scheduler = match v.as_str() {
            "bsp" => SchedulerKind::Bsp,
            "steal" => SchedulerKind::Steal,
            _ => return Err(format!("SYMMERGE_SCHEDULER takes `bsp` or `steal`, got `{v}`")),
        };
    }
    env.num("SYMMERGE_PAR_QUOTA", &mut parallel.steps_per_round)?;
    env.flag("SYMMERGE_PAR_STEAL_NEWEST", &mut parallel.steal_newest)?;

    Ok(EnvConfig { engine, parallel })
}

/// Refuses the first `SYMMERGE_*` name in `set` that [`from_lookup`]
/// does not read.
fn refuse_unread(set: impl IntoIterator<Item = String>) -> Result<(), String> {
    let read = read_names();
    match set.into_iter().find(|n| n.starts_with("SYMMERGE_") && !read.contains(n)) {
        Some(name) => Err(format!(
            "{name} is set, but symmerge reads no such variable (misspelled or retired)"
        )),
        None => Ok(()),
    }
}

/// Every name [`from_lookup`] reads: with nothing set it asks for each
/// one, so a walk over an empty lookup lists them all (and cannot fail).
fn read_names() -> BTreeSet<String> {
    let read = RefCell::new(BTreeSet::new());
    let _ = from_lookup(|name| {
        read.borrow_mut().insert(name.to_owned());
        None
    });
    read.into_inner()
}

/// A variable lookup with typed setters.
struct Env<'a>(&'a dyn Fn(&str) -> Option<String>);

impl Env<'_> {
    /// The trimmed value of `name`, if set.
    fn get(&self, name: &str) -> Option<String> {
        (self.0)(name).map(|v| v.trim().to_owned())
    }

    /// Sets `field` from a bool variable, if set: the one boolean rule.
    fn flag(&self, name: &str, field: &mut bool) -> Result<(), String> {
        if let Some(v) = self.get(name) {
            *field = match v.as_str() {
                "1" | "true" | "on" | "yes" => true,
                "0" | "false" | "off" | "no" => false,
                _ => {
                    return Err(format!(
                        "{name} takes 1/0, true/false, on/off or yes/no, got `{v}`"
                    ))
                }
            };
        }
        Ok(())
    }

    /// Sets `field` from a numeric variable, if set.
    fn num<T: FromStr>(&self, name: &str, field: &mut T) -> Result<(), String> {
        if let Some(v) = self.get(name) {
            *field = v.parse().map_err(|_| format!("{name}: `{v}` is not a number"))?;
        }
        Ok(())
    }
}

/// Parses a retry ladder: comma-separated budget multipliers, or
/// `0`/`off`/`false`/`no`/empty to disable it.
fn parse_retry_ladder(v: &str) -> Result<Vec<u64>, String> {
    if matches!(v, "" | "0" | "false" | "off" | "no") {
        return Ok(Vec::new());
    }
    v.split(',')
        .map(|m| {
            m.trim().parse().map_err(|_| {
                format!("SYMMERGE_SOLVER_RETRY_LADDER takes comma-separated multipliers, got `{v}`")
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lookup over a fixed variable list.
    fn vars<'a>(list: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| list.iter().find(|(n, _)| *n == name).map(|(_, v)| v.to_string())
    }

    fn parses(list: &[(&str, &str)]) -> bool {
        from_lookup(vars(list)).is_ok()
    }

    #[test]
    fn empty_environment_is_the_library_default() {
        let config = from_lookup(|_| None).unwrap();
        assert_eq!(config.engine, EngineConfig::default());
        assert_eq!(config.parallel, ParallelConfig::default());
    }

    #[test]
    fn bool_variables_follow_one_strict_rule() {
        for (value, want) in [
            ("1", Some(true)),
            ("true", Some(true)),
            ("on", Some(true)),
            ("yes", Some(true)),
            (" yes ", Some(true)),
            ("0", Some(false)),
            ("false", Some(false)),
            ("off", Some(false)),
            ("no", Some(false)),
            ("flase", None),
            ("", None),
            ("2", None),
            ("TRUE", None),
            ("disabled", None),
        ] {
            let list = [("SYMMERGE_PANIC_ISOLATION", value)];
            let got = from_lookup(vars(&list)).ok().map(|c| c.engine.panic_isolation);
            assert_eq!(got, want, "{value:?}");
        }
        // The three misreadings the rule fixes: `0` used to turn
        // steal-newest on (only presence was checked), `true` used to
        // leave panic isolation off (only `1` counted), and a typo used
        // to leave a solver tier on.
        let steal = from_lookup(vars(&[("SYMMERGE_PAR_STEAL_NEWEST", "0")])).unwrap();
        assert!(!steal.parallel.steal_newest);
        let isolation = from_lookup(vars(&[("SYMMERGE_PANIC_ISOLATION", "true")])).unwrap();
        assert!(isolation.engine.panic_isolation);
        assert!(!parses(&[("SYMMERGE_SOLVER_CACHE", "flase")]));
    }

    #[test]
    fn scheduler_env_parse_rejects_unknown_values() {
        let unset = from_lookup(|_| None).unwrap();
        assert_eq!(unset.parallel.scheduler, SchedulerKind::Bsp, "unset is BSP");
        for (value, kind) in [("bsp", SchedulerKind::Bsp), ("steal", SchedulerKind::Steal)] {
            let parsed = from_lookup(vars(&[("SYMMERGE_SCHEDULER", value)])).unwrap();
            assert_eq!(parsed.parallel.scheduler, kind, "{value}");
        }
        for value in ["Steal", "", "work-stealing"] {
            assert!(!parses(&[("SYMMERGE_SCHEDULER", value)]), "{value:?} must be refused");
        }
    }

    #[test]
    fn retry_ladder_parse_accepts_lists_and_off_values() {
        assert_eq!(parse_retry_ladder("4,16"), Ok(vec![4, 16]));
        assert_eq!(parse_retry_ladder("2 , 8 , 32"), Ok(vec![2, 8, 32]));
        assert_eq!(parse_retry_ladder("off"), Ok(Vec::new()));
        assert_eq!(parse_retry_ladder("0"), Ok(Vec::new()));
        assert_eq!(parse_retry_ladder(""), Ok(Vec::new()));
        assert!(parse_retry_ladder("4,x").is_err());
    }

    #[test]
    fn malformed_values_are_refused() {
        for list in [
            &[("SYMMERGE_MAX_CONTEXTS", "many")][..],
            &[("SYMMERGE_CTX_EVICT", "lru")],
            &[("SYMMERGE_FAULT_PLAN", "panic=oops")],
            &[("SYMMERGE_SOLVER_RETRY_LADDER", "4,x")],
            &[("SYMMERGE_CHECKPOINT_PATH", "ck"), ("SYMMERGE_CHECKPOINT_EVERY", "often")],
            // An interval alone would configure nothing.
            &[("SYMMERGE_CHECKPOINT_EVERY", "often")],
            &[("SYMMERGE_CHECKPOINT_EVERY", "9")],
            &[("SYMMERGE_CHECKPOINT_PATH", ""), ("SYMMERGE_CHECKPOINT_EVERY", "9")],
        ] {
            let err = from_lookup(vars(list)).expect_err("a malformed value must be refused");
            let named = list.iter().any(|(name, _)| err.contains(name));
            assert!(named && !err.contains('\n'), "one line naming the variable: {err:?}");
        }
    }

    /// Each variable sets exactly its documented field, and the table
    /// covers every variable the parser reads.
    #[test]
    fn every_variable_sets_its_documented_field() {
        type Edit = fn(&mut EnvConfig);
        let table: &[(&[(&str, &str)], Edit)] = &[
            (&[("SYMMERGE_SOLVER_CACHE", "0")], |c| c.engine.solver.use_cache = false),
            (&[("SYMMERGE_SOLVER_INDEPENDENCE", "no")], |c| {
                c.engine.solver.use_independence = false
            }),
            (&[("SYMMERGE_SOLVER_CEX_CACHE", "false")], |c| c.engine.solver.use_cex_cache = false),
            (&[("SYMMERGE_SOLVER_CEX_PREFILTER", "0")], |c| c.engine.solver.cex_prefilter = false),
            (&[("SYMMERGE_SOLVER_INCREMENTAL", "0")], |c| c.engine.solver.use_incremental = false),
            (&[("SYMMERGE_SOLVER_CTX_FORK", "0")], |c| c.engine.solver.ctx_fork = false),
            (&[("SYMMERGE_SAT_CCMIN", "0")], |c| c.engine.solver.sat_ccmin = false),
            (&[("SYMMERGE_ITE_FACTOR", "0")], |c| c.engine.solver.ite_factor = false),
            (&[("SYMMERGE_SOLVER_RETRY_LADDER", "2,8")], |c| {
                c.engine.solver.retry_ladder = vec![2, 8]
            }),
            (&[("SYMMERGE_CTX_EVICT", "count")], |c| c.engine.solver.ctx_evict_by_clauses = false),
            (&[("SYMMERGE_MAX_CTX_CLAUSES", "1000")], |c| {
                c.engine.solver.max_context_clauses = 1000
            }),
            (&[("SYMMERGE_MAX_CONTEXTS", "16")], |c| c.engine.solver.max_contexts = 16),
            (&[("SYMMERGE_WARM_MIGRATION", "0")], |c| c.engine.warm_migration = false),
            (&[("SYMMERGE_FAULT_PLAN", "panic=1:40,unknown=1/16:7")], |c| {
                let plan = FaultPlan::parse("panic=1:40,unknown=1/16:7").unwrap();
                c.engine.fault_plan = Some(Arc::new(plan));
            }),
            (&[("SYMMERGE_PANIC_ISOLATION", "1")], |c| c.engine.panic_isolation = true),
            (&[("SYMMERGE_CHECKPOINT_PATH", "run.ck")], |c| {
                c.engine.checkpoint = Some(CheckpointConfig { path: "run.ck".into(), every: 256 })
            }),
            (&[("SYMMERGE_CHECKPOINT_PATH", "run.ck"), ("SYMMERGE_CHECKPOINT_EVERY", "9")], |c| {
                c.engine.checkpoint = Some(CheckpointConfig { path: "run.ck".into(), every: 9 })
            }),
            (&[("SYMMERGE_CHECKPOINT_PATH", "run.ck"), ("SYMMERGE_CHECKPOINT_EVERY", "0")], |_| {}),
            (&[("SYMMERGE_SCHEDULER", "steal")], |c| c.parallel.scheduler = SchedulerKind::Steal),
            (&[("SYMMERGE_PAR_QUOTA", "48")], |c| c.parallel.steps_per_round = 48),
            (&[("SYMMERGE_PAR_STEAL_NEWEST", "1")], |c| c.parallel.steal_newest = true),
        ];
        let mut covered = BTreeSet::new();
        let default = from_lookup(|_| None).unwrap();
        for &(list, edit) in table {
            let mut want = default.clone();
            edit(&mut want);
            assert_eq!(from_lookup(vars(list)), Ok(want.clone()), "{list:?}");
            covered.extend(list.iter().map(|&(name, _)| name));
            // `FLEET_VARS` lists exactly the variables that set the fleet.
            if list.iter().all(|(name, _)| FLEET_VARS.contains(name)) {
                assert_ne!(want.parallel, default.parallel, "{list:?}");
                assert_eq!(want.engine, default.engine, "{list:?}");
            } else {
                assert_eq!(want.parallel, default.parallel, "{list:?}");
            }
        }
        let read = read_names();
        let read: BTreeSet<&str> = read.iter().map(String::as_str).collect();
        assert_eq!(read, covered, "the table must cover exactly the variables read");
        assert_eq!(covered.len(), 20);
    }

    /// A set `SYMMERGE_*` name the parser does not read is refused, so a
    /// retired knob cannot silently run the default; every read name
    /// and every name outside `SYMMERGE_*` passes.
    #[test]
    fn unread_variables_are_refused() {
        let refused = |names: &[&str]| {
            let names: Vec<String> = names.iter().map(|&n| n.to_owned()).collect();
            refuse_unread(names).is_err()
        };
        for retired in [
            "SYMMERGE_SHARED_CACHE",
            "SYMMERGE_COV_HEAP",
            "SYMMERGE_SOLVER_MODEL_REUSE",
            "SYMMERGE_SOLVER_TIER_GATE",
            "SYMMERGE_SOLVER_CACH",
        ] {
            assert!(refused(&["PATH", retired]), "{retired} must be refused");
        }
        let read = read_names();
        let mut ok: Vec<&str> = read.iter().map(String::as_str).collect();
        ok.extend(["PATH", "HOME", "SYMMERGE"]);
        assert!(!refused(&ok));
    }
}
