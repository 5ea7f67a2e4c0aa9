//! Seeded fault injection ([`FaultPlan`]) for the fault-tolerance layer.
//!
//! A fault plan deterministically injects two kinds of failure into an
//! exploration run, so that every failure a test or CI leg exercises is
//! bit-reproducible:
//!
//! * **worker panics** at exact `(worker, local pick)` coordinates —
//!   the worker's [`Engine`](crate::Engine) panics immediately after
//!   picking a state and *before* executing it, the point where the
//!   panic-isolation layer can quarantine and re-queue the in-flight
//!   state without losing or duplicating work. Under the steal
//!   scheduler, how many picks each worker makes depends on thread
//!   timing, so there the coordinate is the fleet-global pick sequence
//!   instead: `panic=w:p` fires on whichever worker makes the fleet's
//!   `p`-th pick, and fires exactly once whenever the run makes more
//!   than `p` picks;
//! * **forced solver `Unknown`s**, keyed by a splitmix64 stream
//!   ([`symmerge_solver::Solver::set_forced_unknowns`]): roughly
//!   `num/den` of queries have their first answer forced to `Unknown`,
//!   exercising the retry ladder. Each worker's stream is decorrelated
//!   from the plan seed and the worker index, so the same plan hits
//!   different queries on different workers — deterministically.
//!
//! A plan is installed through [`EngineConfig::fault_plan`]; binaries
//! parse it from text with [`FaultPlan::parse`] (the grammar the
//! `SYMMERGE_FAULT_PLAN` variable takes at the command-line edge).
//!
//! Injected faults never change *results*: a forced `Unknown` always
//! gets an injection-free retry at the base budget, and a panicked
//! worker's states are handed off and finished elsewhere — under
//! [`MergeMode::None`](crate::MergeMode) with canonical models the
//! final test set is byte-identical to the fault-free run, which
//! `tests/fault_prop.rs` pins differentially.
//!
//! [`EngineConfig::fault_plan`]: crate::EngineConfig

use symmerge_solver::splitmix64;

/// A deterministic fault-injection plan (see the [module docs](self)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(worker, local pick)` coordinates at which that worker panics
    /// just after its pick (the steal scheduler reads only the pick, as
    /// a fleet-global index).
    panics: Vec<(u32, u64)>,
    /// Forced solver-`Unknown` stream spec: `(num, den, seed)` — each
    /// query's first answer is forced to `Unknown` with probability
    /// `num/den` under a splitmix64 stream.
    unknown: Option<(u64, u64, u64)>,
}

impl FaultPlan {
    /// Parses a comma-separated list of fault clauses:
    ///
    /// * `panic=<worker>:<step>` — worker `<worker>` panics at its
    ///   `<step>`-th local pick (0-based); repeatable. Under the steal
    ///   scheduler the worker index is ignored and `<step>` counts the
    ///   fleet's picks (see the [module docs](self));
    /// * `unknown=<num>/<den>:<seed>` — force roughly `num/den` of
    ///   solver queries to a first-answer `Unknown`, stream seeded with
    ///   `<seed>` (at most one clause).
    ///
    /// Example: `panic=1:40,unknown=1/16:7`.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in s.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, spec) =
                clause.split_once('=').ok_or_else(|| format!("clause `{clause}` lacks `=`"))?;
            match kind.trim() {
                "panic" => {
                    let (w, step) = spec
                        .split_once(':')
                        .ok_or_else(|| format!("panic spec `{spec}` wants worker:step"))?;
                    let w: u32 =
                        w.trim().parse().map_err(|_| format!("bad worker in `{clause}`"))?;
                    let step: u64 =
                        step.trim().parse().map_err(|_| format!("bad step in `{clause}`"))?;
                    plan.panics.push((w, step));
                }
                "unknown" => {
                    if plan.unknown.is_some() {
                        return Err("at most one unknown= clause".into());
                    }
                    let (rate, seed) = spec
                        .split_once(':')
                        .ok_or_else(|| format!("unknown spec `{spec}` wants num/den:seed"))?;
                    let (num, den) = rate
                        .split_once('/')
                        .ok_or_else(|| format!("unknown rate `{rate}` wants num/den"))?;
                    let num: u64 =
                        num.trim().parse().map_err(|_| format!("bad num in `{clause}`"))?;
                    let den: u64 =
                        den.trim().parse().map_err(|_| format!("bad den in `{clause}`"))?;
                    let seed: u64 =
                        seed.trim().parse().map_err(|_| format!("bad seed in `{clause}`"))?;
                    if den == 0 || num > den {
                        return Err(format!("unknown rate {num}/{den} out of range"));
                    }
                    plan.unknown = Some((num, den, seed));
                }
                other => return Err(format!("unknown fault kind `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Whether `worker` is scheduled to panic at its `step`-th pick.
    pub fn panics_at(&self, worker: u32, step: u64) -> bool {
        self.panics.iter().any(|&(w, s)| w == worker && s == step)
    }

    /// Whether some panic is scheduled at the fleet's `pick`-th pick
    /// (0-based) — the steal scheduler's coordinate, where any worker
    /// may make that pick.
    pub fn panics_at_fleet_pick(&self, pick: u64) -> bool {
        self.panics.iter().any(|&(_, s)| s == pick)
    }

    /// Whether the plan injects any panic at all (the panic-isolation
    /// snapshot defaults on exactly when it does).
    pub fn has_panics(&self) -> bool {
        !self.panics.is_empty()
    }

    /// The forced-`Unknown` stream spec for `worker`: the plan's
    /// `(num, den)` with the seed decorrelated per worker ([`splitmix64`]
    /// of seed and index), so the same plan forces *different* queries on
    /// different workers while staying bit-reproducible.
    pub fn unknown_spec(&self, worker: u32) -> Option<(u64, u64, u64)> {
        let (num, den, seed) = self.unknown?;
        Some((num, den, splitmix64(seed ^ (u64::from(worker) << 32 | 0x5EED))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_combined_plans() {
        let plan = FaultPlan::parse("panic=1:40,unknown=1/16:7,panic=3:2").unwrap();
        assert!(plan.panics_at(1, 40));
        assert!(plan.panics_at(3, 2));
        assert!(!plan.panics_at(1, 41));
        assert!(!plan.panics_at(0, 40));
        assert!(plan.panics_at_fleet_pick(40) && plan.panics_at_fleet_pick(2));
        assert!(!plan.panics_at_fleet_pick(41));
        assert!(plan.has_panics());
        let (num, den, _) = plan.unknown_spec(0).unwrap();
        assert_eq!((num, den), (1, 16));
    }

    #[test]
    fn empty_and_whitespace_plans_are_empty() {
        let plan = FaultPlan::parse("").unwrap();
        assert_eq!(plan, FaultPlan::default());
        assert!(!plan.has_panics());
        assert!(plan.unknown_spec(0).is_none());
        assert_eq!(FaultPlan::parse(" , ").unwrap(), FaultPlan::default());
    }

    #[test]
    fn worker_unknown_seeds_are_decorrelated_and_stable() {
        let plan = FaultPlan::parse("unknown=1/4:9").unwrap();
        let s0 = plan.unknown_spec(0).unwrap();
        let s1 = plan.unknown_spec(1).unwrap();
        assert_ne!(s0.2, s1.2, "distinct workers draw distinct streams");
        assert_eq!(s0, plan.unknown_spec(0).unwrap(), "the stream spec is stable");
    }

    #[test]
    fn worker_unknown_seed_is_pinned() {
        let plan = FaultPlan::parse("unknown=1/4:9").unwrap();
        assert_eq!(plan.unknown_spec(1), Some((1, 4, 13808087316131835088)));
    }

    #[test]
    fn malformed_plans_are_rejected() {
        assert!(FaultPlan::parse("panic=1").is_err());
        assert!(FaultPlan::parse("panic=x:3").is_err());
        assert!(FaultPlan::parse("unknown=1:3").is_err());
        assert!(FaultPlan::parse("unknown=3/2:1").is_err(), "rate above 1 rejected");
        assert!(FaultPlan::parse("unknown=1/0:1").is_err(), "zero denominator rejected");
        assert!(FaultPlan::parse("unknown=1/4:1,unknown=1/4:2").is_err(), "one clause only");
        assert!(FaultPlan::parse("explode=now").is_err());
    }
}
