//! The `symmerge` command-line tool, spawned as a process.
//!
//! `symmerge run` explores sequentially, so a fleet variable
//! (`symmerge::config::FLEET_VARS`) would do nothing there. Like a
//! malformed variable, a set one stops the run instead of being ignored.

use std::path::PathBuf;
use std::process::{Command, Output};
use symmerge::config::FLEET_VARS;

/// A small MiniC program in a per-test file under the temp directory.
fn program(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("symmerge-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("demo.mc");
    let src = "fn main() { let x = sym_int(\"x\"); if (x > 3) { putchar(x); } }\n";
    std::fs::write(&path, src).unwrap();
    path
}

/// Runs `symmerge run <path>` with the fleet variables cleared, then
/// `set` applied.
fn run(path: &PathBuf, set: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_symmerge"));
    cmd.arg("run").arg(path).arg("--width").arg("8");
    for var in FLEET_VARS {
        cmd.env_remove(var);
    }
    cmd.envs(set.iter().copied()).output().expect("the symmerge binary runs")
}

#[test]
fn run_refuses_a_set_fleet_variable() {
    let path = program("fleet");
    let clean = run(&path, &[]);
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(clean.status.success(), "unset: {}", String::from_utf8_lossy(&clean.stderr));
    assert!(stdout.contains("symmerge report"), "unset: {stdout}");
    // Valid values, each of which a fleet would act on.
    for (var, value) in [
        ("SYMMERGE_SCHEDULER", "steal"),
        ("SYMMERGE_PAR_QUOTA", "48"),
        ("SYMMERGE_PAR_STEAL_NEWEST", "1"),
    ] {
        let out = run(&path, &[(var, value)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{var}={value} was ignored");
        assert!(stderr.contains(var) && stderr.contains("--jobs"), "{var}: {stderr}");
        assert!(out.stdout.is_empty(), "{var}: the run must not start");
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
