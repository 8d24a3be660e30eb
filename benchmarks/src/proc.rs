//! Child processes and the machine: every `coconut` child is killed on drop,
//! on panic (unwinding drops the guard), on SIGINT/SIGTERM (the handler
//! kills the registered pids) and when this process dies (parent-death
//! signal); all files live under one scratch root removed at exit.

use std::io::{BufRead, BufReader, Read};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const PR_SET_PDEATHSIG: i32 = 1;
const RUSAGE_CHILDREN: i32 = -1;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Live child pids, for the signal handler (which may only touch atomics).
static PIDS: [AtomicI32; 16] = [const { AtomicI32::new(0) }; 16];
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
    for slot in &PIDS {
        let pid = slot.load(Ordering::SeqCst);
        if pid > 0 {
            // SAFETY: kill(2) is async-signal-safe; the pid is a child this
            // process spawned and has not yet reaped.
            unsafe { kill(pid, SIGKILL) };
        }
    }
}

/// Kill every child on SIGINT / SIGTERM. The requests in flight then fail,
/// and the run unwinds through its normal error path (removing the scratch
/// root) and exits non-zero.
pub fn install_signal_handlers() {
    for sig in [SIGINT, SIGTERM] {
        // SAFETY: installs a handler that only stores to atomics and calls
        // kill(2), both async-signal-safe.
        unsafe { signal(sig, on_signal as extern "C" fn(i32) as usize) };
    }
}

pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

fn register(pid: i32) {
    for slot in &PIDS {
        if slot
            .compare_exchange(0, pid, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return;
        }
    }
}

fn unregister(pid: i32) {
    for slot in &PIDS {
        let _ = slot.compare_exchange(pid, 0, Ordering::SeqCst, Ordering::SeqCst);
    }
}

fn command(program: &Path, args: &[String]) -> Command {
    let mut cmd = Command::new(program);
    cmd.args(args).stdin(Stdio::null());
    // SAFETY: the closure runs between fork and exec and makes one prctl(2)
    // call, which is async-signal-safe and touches no memory of the parent.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0);
            Ok(())
        });
    }
    cmd
}

/// A running `coconut` child (a server). Killed and reaped on drop.
pub struct Proc {
    child: Child,
    lines: mpsc::Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
    pub label: String,
}

impl Proc {
    /// Spawn `program args...` with stdout piped (for the listening-address
    /// line) and stderr appended to `stderr_log`.
    pub fn spawn(
        program: &Path,
        args: &[String],
        label: &str,
        stderr_log: &Path,
    ) -> Result<Proc, String> {
        let log = std::fs::File::options()
            .create(true)
            .append(true)
            .open(stderr_log)
            .map_err(|e| format!("opening {}: {e}", stderr_log.display()))?;
        let mut child = command(program, args)
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {} ({label}): {e}", program.display()))?;
        register(child.id() as i32);
        let stdout: ChildStdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Proc {
            child,
            lines,
            reader: Some(reader),
            label: label.to_string(),
        })
    }

    /// Wait for a stdout line containing `marker` and return what follows
    /// it up to the next space (the listening address).
    pub fn wait_for_addr(&mut self, marker: &str, timeout: Duration) -> Result<String, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(at) = line.find(marker) {
                        let rest = &line[at + marker.len()..];
                        let addr = rest.split_whitespace().next().unwrap_or("");
                        return Ok(addr.to_string());
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err(format!(
                        "{}: no '{marker}' line within {timeout:?}",
                        self.label
                    ));
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    let status = self.child.try_wait().ok().flatten();
                    return Err(format!(
                        "{}: exited ({status:?}) before printing '{marker}'",
                        self.label
                    ));
                }
            }
        }
    }

    /// Whether the child has exited on its own (a crash).
    pub fn has_exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }

    /// SIGKILL the child and reap it (the process-crash probe, and drop).
    pub fn kill(&mut self) {
        let pid = self.child.id() as i32;
        let _ = self.child.kill();
        let _ = self.child.wait();
        unregister(pid);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The outcome of one CLI invocation run to completion.
pub struct CliRun {
    pub stdout: String,
    pub secs: f64,
    pub ok: bool,
}

/// Run `program args...` to completion, timing spawn → exit. A watchdog
/// kills it after `timeout`, which then reads as a failed run.
pub fn run_cli(
    program: &Path,
    args: &[String],
    stderr_log: &Path,
    timeout: Duration,
) -> Result<CliRun, String> {
    let log = std::fs::File::options()
        .create(true)
        .append(true)
        .open(stderr_log)
        .map_err(|e| format!("opening {}: {e}", stderr_log.display()))?;
    let t0 = Instant::now();
    let mut child = command(program, args)
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", program.display()))?;
    let pid = child.id() as i32;
    register(pid);
    let (cancel, cancelled) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if cancelled.recv_timeout(timeout).is_err() {
            // SAFETY: kill(2) on a child that is reaped only after this
            // thread is joined, so the pid cannot have been reused.
            unsafe { kill(pid, SIGKILL) };
        }
    });
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout);
    let status = child.wait();
    let secs = t0.elapsed().as_secs_f64();
    let _ = cancel.send(());
    let _ = watchdog.join();
    unregister(pid);
    let ok = read.is_ok() && status.is_ok_and(|s| s.success());
    Ok(CliRun { stdout, secs, ok })
}

/// Peak resident set (MiB) and CPU seconds over every child reaped so far.
pub fn children_rusage() -> (f64, f64) {
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a properly sized and aligned `struct rusage` that
    // getrusage(2) fills in.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    if rc != 0 {
        return (f64::NAN, f64::NAN);
    }
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 / 1e6;
    (ru.maxrss as f64 / 1024.0, tv(ru.utime) + tv(ru.stime))
}

/// One directory for everything a run writes; removed on drop.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn create(base: &Path) -> Result<Scratch, String> {
        let root = base.join(format!("perf-scratch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        Ok(Scratch { root })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A fresh empty directory `name` under the root.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Free bytes on the filesystem holding `path`, from `df`; `None` when `df`
/// is missing or prints something unexpected.
pub fn free_disk_bytes(path: &Path) -> Option<u64> {
    let out = Command::new("df").arg("-Pk").arg(path).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let kib: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit being measured, or "unknown" outside a git checkout.
pub fn git_commit(repo_root: &Path) -> String {
    Command::new("git")
        .arg("-C")
        .arg(repo_root)
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
