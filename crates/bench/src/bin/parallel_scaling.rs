//! **parallel_scaling** — wall-clock scaling of the sharded exploration
//! engine.
//!
//! Runs a spread of workloads to exhaustion under `MergeMode::None` (the
//! configuration whose results are provably schedule-invariant, so every
//! worker count explores exactly the same paths) at 1, 2 and 4 workers,
//! under **both** schedulers — the deterministic BSP rounds and the
//! shared-pool work stealer — and reports the speedup over the
//! sequential engine. The BSP 1-worker cell uses the legacy sequential
//! loop (the parallel engine's `jobs = 1` fast path), so the baseline
//! carries no round machinery; the steal 1-worker cell deliberately runs
//! the full shared-pool machinery, making it the direct measurement of
//! the shared pool's single-worker overhead.
//!
//! Each `(scheduler, jobs)` cell is additionally swept with the
//! cross-worker verdict store off and on (`SolverConfig::shared_cache`;
//! the workers share one expression pool either way); runs generate
//! canonical-model tests
//! and every point is asserted byte-identical to the sequential
//! reference cell, the same contract `tier_sweep` pins for the
//! cache-tier axis.
//!
//! Sizes are chosen so the sequential run takes on the order of seconds
//! in release mode: long enough for the per-round barriers to amortize,
//! short enough for CI's `--quick` sweep. Every run's path counts are
//! cross-checked across worker counts and schedulers; a mismatch aborts
//! the harness (scaling numbers for runs that disagree would be
//! meaningless).

use std::time::{Duration, Instant};

/// A generated test collapsed to comparable bytes: termination class,
/// input assignments, predicted outputs.
type TestBytes = (String, Vec<(String, u64)>, Vec<u64>);
use symmerge_bench::harness::{CsvOut, HarnessOpts};
use symmerge_bench::{run_workload, RunOpts, Setup};
use symmerge_core::SchedulerKind;
use symmerge_workloads::{by_name, InputConfig};

fn main() {
    let opts = HarnessOpts::parse(120_000);
    let sweeps: Vec<(&str, InputConfig)> = if opts.quick {
        vec![
            ("link", InputConfig::args(2, 2)),
            ("cut", InputConfig::args(2, 2)),
            ("wc", InputConfig { n_args: 0, arg_len: 1, stdin_len: 4 }),
        ]
    } else {
        vec![
            ("link", InputConfig::args(2, 3)),
            ("nice", InputConfig::args(2, 3)),
            ("cut", InputConfig::args(2, 3)),
            ("wc", InputConfig { n_args: 0, arg_len: 1, stdin_len: 6 }),
            ("rev", InputConfig { n_args: 0, arg_len: 1, stdin_len: 6 }),
        ]
    };
    let jobs_axis: &[u32] = &[1, 2, 4];
    let sched_axis: &[SchedulerKind] = &[SchedulerKind::Bsp, SchedulerKind::Steal];
    let shared_axis: &[bool] = &[false, true];

    let mut csv = CsvOut::create(
        "parallel_scaling",
        "tool,symbolic_bytes,scheduler,jobs,shared,wall_ms,speedup,steps,completed_paths,sat_calls,\
         sat_time_ms,cache_time_ms,route_time_ms,ctx_hits,ctx_rebuilds,ctx_forks,ctx_evictions,\
         clauses_resident,clauses_evicted,clauses_compacted,sched_picks,sched_heap_repairs,\
         steals,stolen_states,idle_waits,envelope_exports,\
         shared_query_hits,shared_cex_hits,shared_publishes,dropped_unknown",
    );
    println!("# parallel_scaling: exhaustive MergeMode::None exploration, bsp vs steal scheduler");
    println!(
        "# sat_calls/sat_time: fleet totals — inflation vs jobs=1 is cache loss from sharding"
    );
    println!("# cache_time: fleet cache-tier bookkeeping; route_time: query routing/blast prep");
    println!("# ctx columns: fleet context-tree totals (hits/rebuilds/forks/evictions)");
    println!("# steal s/w/i: steal-scheduler traffic; envelope_exports: states migrated at BSP");
    println!("#   barriers (both schedulers hand states over directly on the shared pool)");
    println!("# shared axis: off = no verdict store, on = shared verdict store; shr q/c/p =");
    println!("#   shared_query_hits/shared_cex_hits/shared_publishes (fleet totals); every");
    println!("#   point's canonical tests are asserted byte-identical to the off/bsp/jobs=1 cell");
    println!(
        "{:10} {:>6} {:>6} {:>5} {:>4} {:>12} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>22} {:>14} {:>17} {:>8} {:>15}",
        "tool",
        "bytes",
        "sched",
        "jobs",
        "shr",
        "wall",
        "speedup",
        "steps",
        "paths",
        "sat_calls",
        "sat_time",
        "cache_time",
        "route_time",
        "ctx h/r/f/e",
        "steal s/w/i",
        "sched p/r",
        "env",
        "shr q/c/p"
    );
    let mut dropped_total = 0u64;
    for (tool, cfg) in sweeps {
        let w = by_name(tool).unwrap();
        let mut t1 = Duration::ZERO;
        let mut paths1 = 0u64;
        let mut bytes1: Vec<TestBytes> = Vec::new();
        for &scheduler in sched_axis {
            for &jobs in jobs_axis {
                for &shared in shared_axis {
                    let run_opts = RunOpts {
                        budget: Some(opts.budget),
                        seed: opts.seed,
                        alpha: opts.alpha,
                        jobs,
                        scheduler,
                        generate_tests: true,
                        canonical: true,
                        shared_cache: Some(shared),
                        ..Default::default()
                    };
                    let t0 = Instant::now();
                    let report = run_workload(&w, &cfg, Setup::Baseline, &run_opts);
                    let wall = t0.elapsed();
                    assert!(
                        !report.hit_budget,
                        "{tool} {scheduler:?} jobs={jobs}: raise --budget-ms, scaling needs \
                     exhaustive runs"
                    );
                    // Generated tests collapsed to comparable bytes (sorted:
                    // worker interleavings legitimately reorder completion).
                    let mut bytes: Vec<_> = report
                        .tests
                        .iter()
                        .map(|t| {
                            (format!("{:?}", t.kind), t.inputs.clone(), t.predicted_outputs.clone())
                        })
                        .collect();
                    bytes.sort();
                    if scheduler == SchedulerKind::Bsp && jobs == 1 && !shared {
                        t1 = wall;
                        paths1 = report.completed_paths;
                        bytes1 = bytes;
                    } else {
                        assert_eq!(
                        report.completed_paths, paths1,
                        "{tool} {scheduler:?} jobs={jobs} shared={shared}: explored a different \
                         path set than sequential"
                    );
                        assert_eq!(
                            bytes, bytes1,
                            "{tool} {scheduler:?} jobs={jobs} shared={shared}: canonical tests \
                         diverged from the sequential reference"
                        );
                    }
                    let speedup = t1.as_secs_f64() / wall.as_secs_f64().max(1e-9);
                    let s = &report.solver;
                    let sched_label = match scheduler {
                        SchedulerKind::Bsp => "bsp",
                        SchedulerKind::Steal => "steal",
                    };
                    let ctx = format!(
                        "{}/{}/{}/{}",
                        s.ctx_hits, s.ctx_rebuilds, s.ctx_forks, s.ctx_evictions
                    );
                    let stealing =
                        format!("{}/{}/{}", report.steals, report.stolen_states, report.idle_waits);
                    let sched = format!("{}/{}", report.sched_picks, report.sched_heap_repairs);
                    let shr = format!(
                        "{}/{}/{}",
                        s.shared_query_hits, s.shared_cex_hits, s.shared_publishes
                    );
                    let shared_label = if shared { "on" } else { "off" };
                    println!(
                    "{tool:10} {:>6} {sched_label:>6} {jobs:>5} {shared_label:>4} {:>12.2?} {:>8.2}x {:>10} {:>10} {:>10} {:>10.2?} {:>10.2?} {:>10.2?} {ctx:>22} {stealing:>14} {sched:>17} {:>8} {shr:>15}",
                    cfg.symbolic_bytes(),
                    wall,
                    speedup,
                    report.steps,
                    report.completed_paths,
                    s.sat_calls,
                    s.sat_time,
                    s.cache_time,
                    s.route_time,
                    report.envelope_exports
                );
                    csv.row(&format!(
                    "{tool},{},{sched_label},{jobs},{shared_label},{:.3},{:.3},{},{},{},{:.3},{:.3},{:.3},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                    cfg.symbolic_bytes(),
                    wall.as_secs_f64() * 1e3,
                    speedup,
                    report.steps,
                    report.completed_paths,
                    s.sat_calls,
                    s.sat_time.as_secs_f64() * 1e3,
                    s.cache_time.as_secs_f64() * 1e3,
                    s.route_time.as_secs_f64() * 1e3,
                    s.ctx_hits,
                    s.ctx_rebuilds,
                    s.ctx_forks,
                    s.ctx_evictions,
                    s.ctx_clauses_resident,
                    s.ctx_clauses_evicted,
                    s.ctx_clauses_compacted,
                    report.sched_picks,
                    report.sched_heap_repairs,
                    report.steals,
                    report.stolen_states,
                    report.idle_waits,
                    report.envelope_exports,
                    s.shared_query_hits,
                    s.shared_cex_hits,
                    s.shared_publishes,
                    report.tests_dropped_unknown
                ));
                    dropped_total += report.tests_dropped_unknown;
                }
            }
        }
    }
    if dropped_total > 0 {
        eprintln!(
            "# WARNING: {dropped_total} completed path(s) dropped on solver Unknown across \
             the sweep — path counts undercount; see the dropped_unknown column"
        );
    }
    println!("# csv: {}", csv.path.display());
}
