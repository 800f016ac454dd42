//! One CPU for the whole measurement.
//!
//! A request is a hand-off from the client's thread to the connection's and
//! back. Spread over two virtual cores, each hand-off wakes a core that went
//! idle while it waited, and how long a hypervisor takes to wake an idle
//! virtual core depends on its other tenants: 95 µs of transport in a calm
//! phase, 370 µs in a busy one, and nothing the reference slice can see. On
//! one CPU a hand-off is a context switch — compute, which the slice does
//! see — and the slices run on the very core the ops run on. The load is one
//! closed-loop client, so at any moment only one thread has work anyway.
//!
//! std cannot set an affinity mask, so the process runs itself again under
//! `taskset` (util-linux).

use std::process::{Command, ExitCode};

/// Set in the environment of the pinned re-execution.
const PINNED: &str = "TTW_BENCHMARK_PINNED";

/// The highest CPU in the `Cpus_allowed_list` line of `/proc/<pid>/status`
/// (`0-1`, `0,2-3`, `5`): the one least likely to take the box's interrupts.
pub fn last_allowed_cpu(status: &str) -> Option<usize> {
    let line = status
        .lines()
        .find(|line| line.starts_with("Cpus_allowed_list:"))?;
    let last_range = line.split_ascii_whitespace().nth(1)?.rsplit(',').next()?;
    last_range.rsplit('-').next()?.parse().ok()
}

/// Runs this process again with `args`, pinned to one CPU, and returns its
/// exit code — or `None` when this process is that re-execution already, or
/// when the box has no `taskset` (the measurement then runs unpinned, and
/// says so).
pub fn rerun_pinned(args: &[String]) -> Option<ExitCode> {
    if std::env::var_os(PINNED).is_some() {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let cpu = last_allowed_cpu(&status)?;
    let exe = std::env::current_exe().ok()?;
    let outcome = Command::new("taskset")
        .args(["-c", &cpu.to_string()])
        .arg(exe)
        .args(args)
        .env(PINNED, "1")
        .status();
    match outcome {
        Ok(status) => Some(ExitCode::from(status.code().map_or(1, |code| code as u8))),
        Err(error) => {
            eprintln!("ttw-benchmark: no taskset ({error}); measuring unpinned, expect more noise");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_allowed_cpu_is_found_in_every_list_shape() {
        let status =
            |list: &str| format!("Name:\tttw\nCpus_allowed:\t3\nCpus_allowed_list:\t{list}\n");
        assert_eq!(last_allowed_cpu(&status("0-1")), Some(1));
        assert_eq!(last_allowed_cpu(&status("0,2-3")), Some(3));
        assert_eq!(last_allowed_cpu(&status("0-3,8")), Some(8));
        assert_eq!(last_allowed_cpu(&status("5")), Some(5));
        assert_eq!(last_allowed_cpu("Name:\tttw\n"), None);
    }
}
