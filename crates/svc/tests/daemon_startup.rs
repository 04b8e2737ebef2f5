//! `ami_svcd` start-up: a set-but-invalid `AMBIENCE_THREADS` must stop
//! the daemon before it binds, with the runner's message, rather than
//! leave it listening while every request that names no `threads`
//! panics its connection.

use ami_svc::SVC_ADDR_ENV;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long the daemon gets to exit.
const DEADLINE: Duration = Duration::from_secs(10);

#[test]
fn an_invalid_thread_count_stops_the_daemon_before_it_listens() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ami_svcd"))
        .env("AMBIENCE_THREADS", "0")
        .env(SVC_ADDR_ENV, "127.0.0.1:0")
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
            // Still running: it got past the thread-count check.
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
        stderr.contains("AMBIENCE_THREADS"),
        "stderr does not name the variable:\n{stderr}"
    );
    assert!(
        !stderr.contains("listening"),
        "the daemon bound before failing:\n{stderr}"
    );
}
