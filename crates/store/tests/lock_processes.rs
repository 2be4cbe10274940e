//! Cross-process mutual exclusion on a state directory. Each test re-runs
//! this test binary as child processes (through `current_exe()`) that
//! contend for the same `LOCK`. The tests live in their own binary so the
//! children are never forked while another test in the same process is
//! releasing and re-taking a lock.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use nws_store::lock::{DirLock, LOCK_FILE};
use nws_store::StoreError;

/// Set in a child's environment to the directory it must lock.
const CHILD_DIR_ENV: &str = "NWS_STORE_LOCK_CHILD_DIR";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nws-store-lockproc-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The child side: in a child process, tries the lock, prints the outcome
/// as a `lock-result` line, holds a won lock until stdin closes, and
/// returns true. In the parent it does nothing and returns false.
fn run_as_child() -> bool {
    let Some(dir) = std::env::var_os(CHILD_DIR_ENV) else {
        return false;
    };
    match DirLock::acquire(Path::new(&dir)) {
        Ok(lock) => {
            println!("lock-result won");
            std::io::stdout().flush().unwrap();
            let mut sink = Vec::new();
            let _ = std::io::stdin().read_to_end(&mut sink);
            drop(lock);
        }
        Err(StoreError::Locked { .. }) => println!("lock-result locked"),
        Err(e) => println!("lock-result error: {e}"),
    }
    true
}

/// Re-runs this binary as a child executing only the test `name`.
fn spawn_child(name: &str, dir: &Path) -> Child {
    Command::new(std::env::current_exe().unwrap())
        .args([name, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_DIR_ENV, dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap()
}

/// Blocks until the child reports its `lock-result` line.
fn lock_result(child: &mut Child) -> String {
    let mut reader = BufReader::new(child.stdout.as_mut().unwrap());
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 {
            return "no result".to_string();
        }
        // The harness may print `test name ... ` on the same line.
        if let Some(at) = line.find("lock-result ") {
            return line[at + "lock-result ".len()..].trim().to_string();
        }
    }
}

fn lockfile_pid(dir: &Path) -> u32 {
    fs::read_to_string(dir.join(LOCK_FILE))
        .unwrap()
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn racing_processes_produce_one_winner() {
    if run_as_child() {
        return;
    }
    // A stale lock from a dead daemon, then six processes race for it.
    let dir = temp_dir("race");
    fs::write(dir.join(LOCK_FILE), "4194303999\n").unwrap();
    let mut children: Vec<Child> = (0..6)
        .map(|_| spawn_child("racing_processes_produce_one_winner", &dir))
        .collect();
    // The winner holds until its stdin closes, so every loser tries while
    // the lock is held.
    let results: Vec<String> = children.iter_mut().map(lock_result).collect();
    let won: Vec<usize> = (0..results.len())
        .filter(|&i| results[i] == "won")
        .collect();
    assert_eq!(won.len(), 1, "exactly one process may win: {results:?}");
    assert_eq!(
        results.iter().filter(|r| *r == "locked").count(),
        children.len() - 1,
        "every loser must see Locked: {results:?}"
    );
    assert_eq!(lockfile_pid(&dir), children[won[0]].id());
    for mut child in children {
        drop(child.stdin.take());
        assert!(child.wait().unwrap().success());
    }
    drop(DirLock::acquire(&dir).expect("free once the winner exits"));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_holder_releases_lock() {
    if run_as_child() {
        return;
    }
    let dir = temp_dir("killed");
    let mut holder = spawn_child("killed_holder_releases_lock", &dir);
    assert_eq!(lock_result(&mut holder), "won");
    match DirLock::acquire(&dir) {
        Err(StoreError::Locked { pid, .. }) => assert_eq!(pid, holder.id()),
        other => panic!("expected Locked by the holder, got {other:?}"),
    }
    // SIGKILL, as `kill -9`: no destructor runs, only the kernel releases.
    holder.kill().unwrap();
    holder.wait().unwrap();
    let lock = DirLock::acquire(&dir).expect("a killed holder's lock is free");
    assert_eq!(lockfile_pid(&dir), std::process::id());
    drop(lock);
    fs::remove_dir_all(&dir).unwrap();
}
