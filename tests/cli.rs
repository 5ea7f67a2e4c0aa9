//! The `symmerge` command-line tool, spawned as a process.
//!
//! `symmerge run` explores sequentially, so a fleet variable
//! (`symmerge::config::FLEET_VARS`) would do nothing there. Like a
//! malformed variable or a `SYMMERGE_*` name symmerge does not read, a
//! set one stops the run instead of being ignored.
//! And `--merge static` explores in the topological order static merging
//! needs, unless `--strategy` says otherwise.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The MiniC program `src` in a per-test file under the temp directory.
fn program(tag: &str, src: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("symmerge-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("demo.mc");
    std::fs::write(&path, src).unwrap();
    path
}

/// Runs `symmerge run <path> <flags>` with the inherited `SYMMERGE_*`
/// variables cleared, then `set` applied.
fn run(path: &PathBuf, flags: &[&str], set: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_symmerge"));
    cmd.arg("run").arg(path).arg("--width").arg("8").args(flags);
    for (var, _) in std::env::vars_os() {
        if var.to_string_lossy().starts_with("SYMMERGE_") {
            cmd.env_remove(var);
        }
    }
    cmd.envs(set.iter().copied()).output().expect("the symmerge binary runs")
}

#[test]
fn run_refuses_a_set_fleet_variable() {
    let src = "fn main() { let x = sym_int(\"x\"); if (x > 3) { putchar(x); } }\n";
    let path = program("fleet", src);
    let clean = run(&path, &[], &[]);
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(clean.status.success(), "unset: {}", String::from_utf8_lossy(&clean.stderr));
    assert!(stdout.contains("symmerge report"), "unset: {stdout}");
    // Valid values, each of which a fleet would act on.
    for (var, value) in [
        ("SYMMERGE_SCHEDULER", "steal"),
        ("SYMMERGE_PAR_QUOTA", "48"),
        ("SYMMERGE_PAR_STEAL_NEWEST", "1"),
    ] {
        let out = run(&path, &[], &[(var, value)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{var}={value} was ignored");
        assert!(stderr.contains(var) && stderr.contains("--jobs"), "{var}: {stderr}");
        assert!(out.stdout.is_empty(), "{var}: the run must not start");
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn run_refuses_a_retired_variable() {
    let path = program("retired", "fn main() { let x = sym_int(\"x\"); putchar(x); }\n");
    let out = run(&path, &[], &[("SYMMERGE_SOLVER_MODEL_REUSE", "0")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a retired variable was ignored");
    assert!(stderr.contains("SYMMERGE_SOLVER_MODEL_REUSE"), "{stderr}");
    assert!(out.stdout.is_empty(), "the run must not start");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// The merge count on a report's `paths` line.
fn merges(stdout: &str) -> u64 {
    let line = stdout.lines().find(|l| l.starts_with("paths")).expect("a paths line");
    let (before, _) = line.split_once(" merges").expect("a merge count");
    before.rsplit(' ').next().unwrap().parse().expect("a number")
}

#[test]
fn static_merging_defaults_to_topological_order() {
    // The paths meet at the join after each `if`, and no branch reads
    // `y`, so QCE lets them merge there.
    let path = program(
        "static",
        "fn main() { let x = sym_int(\"x\"); let y = 0;\n\
         if (x > 10) { y = 1; } else { y = 2; }\n\
         if (x > 20) { putchar(1); } else { putchar(2); }\n\
         putchar(y); }\n",
    );
    let out = run(&path, &["--merge", "static"], &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("strategy: Topological"), "{stdout}");
    assert!(merges(&stdout) >= 1, "static merging must merge at the join: {stdout}");
    // An explicit strategy still wins.
    let out = run(&path, &["--merge", "static", "--strategy", "coverage"], &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("strategy: CoverageOptimized"), "{stdout}");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
