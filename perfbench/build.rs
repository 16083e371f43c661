//! Records the compiler and the commit the benchmark was built with, for
//! the environment block of its report.

use std::process::Command;

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = first_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // A checkout without git history (an exported tree) has no commit.
    let commit = first_line("git", &["rev-parse", "--short=12", "HEAD"])
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=BENCH_GIT_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
