//! Host facts and CPU-time readings from `/proc`.

use std::path::Path;
use std::process::Command;

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// utime + stime of a `stat` line, in seconds.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3, so utime (14) and stime (15) sit at 11, 12.
    let utime: u64 = f.get(11)?.parse().ok()?;
    let stime: u64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// CPU seconds used by the whole process so far.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat").ok().and_then(|s| stat_cpu_s(&s)).unwrap_or(0.0)
}

/// CPU seconds used so far by thread `tid` of this process.
pub fn thread_cpu_s(tid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/stat"))
        .ok()
        .and_then(|s| stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// Thread ids of this process whose name starts with `prefix`.
pub fn threads_named(prefix: &str) -> Vec<u32> {
    let mut out = Vec::new();
    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
        for e in dir.flatten() {
            let comm = std::fs::read_to_string(e.path().join("comm")).unwrap_or_default();
            if comm.starts_with(prefix) {
                if let Some(tid) = e.file_name().to_str().and_then(|s| s.parse().ok()) {
                    out.push(tid);
                }
            }
        }
    }
    out.sort_unstable();
    out
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    // `output` waits for the child, so no process outlives this call.
    let out = Command::new(program).args(args).current_dir(dir).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the repository's Rust sources and manifests, in path order:
/// identifies the code under test when the checkout carries no git history.
fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            let name = e.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if !name.starts_with('.') && name != "target" {
                    walk(&p, out);
                }
            } else if name.ends_with(".rs") || name == "Cargo.toml" {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["crates", "shims", "src"] {
        walk(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f).to_string_lossy().into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out += "\\\"",
            '\\' => out += "\\\\",
            c if (c as u32) < 0x20 => out += &format!("\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out + "\""
}

/// The run's context as JSON object members: host, code and traffic.
pub fn context_json(repo: &Path) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = command_line("rustc", &["-V"], repo).unwrap_or_else(|| "unknown".into());
    // Only this checkout's own history: git would otherwise walk up into
    // any repository that happens to enclose it.
    let commit = repo
        .join(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"], repo))
        .flatten()
        .unwrap_or_else(|| "none (not a git checkout)".into());
    vec![
        ("nproc".into(), nproc.to_string()),
        ("cpu_model".into(), quote(&cpu_model())),
        ("kernel".into(), quote(&kernel)),
        ("rustc".into(), quote(&rustc)),
        ("git_commit".into(), quote(&commit)),
        ("source_fnv".into(), quote(&source_hash(repo))),
        (
            "traffic".into(),
            quote("in-memory: RingAdapter::pair rings in one process; no link, no loopback socket"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_name() {
        let line = "123 (vr0 vri0) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 2 0 100";
        assert_eq!(stat_cpu_s(line), Some(3.0));
    }

    #[test]
    fn own_process_has_cpu_time_readable() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0);
        }
        assert!(process_cpu_s() > 0.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
