//! `ami_svcd` start-up: a set-but-invalid `AMBIENCE_THREADS` or a
//! non-UTF-8 `AMBIENCE_SVC_ADDR` must stop the daemon before it binds,
//! with a message naming the variable, rather than leave it listening
//! (while every request that names no `threads` panics its connection)
//! or listening on the default address.

use ami_svc::SVC_ADDR_ENV;
use std::ffi::OsStr;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long the daemon gets to exit.
const DEADLINE: Duration = Duration::from_secs(10);

/// Starts the daemon under `vars` and asserts that it exits non-zero
/// within the deadline, naming `culprit` on stderr and never reporting
/// that it listens.
fn assert_stops_before_listening(vars: &[(&str, &OsStr)], culprit: &str) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ami_svcd"))
        .envs(vars.iter().copied())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the daemon binary starts");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the daemon") {
            break Some(status);
        }
        if started.elapsed() >= DEADLINE {
            // Still running: it got past the start-up checks.
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("stderr reads");
    let status = status.unwrap_or_else(|| {
        panic!("the daemon was still running after {DEADLINE:?}; stderr:\n{stderr}")
    });
    assert!(
        !status.success(),
        "the daemon exited cleanly; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(culprit),
        "stderr does not name {culprit}:\n{stderr}"
    );
    assert!(
        !stderr.contains("listening"),
        "the daemon bound before failing:\n{stderr}"
    );
}

#[test]
fn an_invalid_thread_count_stops_the_daemon_before_it_listens() {
    assert_stops_before_listening(
        &[
            ("AMBIENCE_THREADS", OsStr::new("0")),
            (SVC_ADDR_ENV, OsStr::new("127.0.0.1:0")),
        ],
        "AMBIENCE_THREADS",
    );
}

#[cfg(unix)]
#[test]
fn a_non_utf8_address_stops_the_daemon_before_it_listens() {
    use std::os::unix::ffi::OsStrExt;
    assert_stops_before_listening(
        &[
            ("AMBIENCE_THREADS", OsStr::new("1")),
            (SVC_ADDR_ENV, OsStr::from_bytes(b"127.0.0.1:0\xff")),
        ],
        SVC_ADDR_ENV,
    );
}
