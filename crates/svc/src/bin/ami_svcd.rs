//! The batch simulation daemon: binds `AMBIENCE_SVC_ADDR` (default
//! `127.0.0.1:9377`) and serves scenario requests forever. See
//! `ami_svc::proto` for the wire format.

use ami_svc::server::Server;
use ami_svc::{Service, DEFAULT_ADDR, SVC_ADDR_ENV};
use std::sync::Arc;

/// Compiled scenarios kept hot in the daemon's cache.
const CACHE_CAPACITY: usize = 64;

fn main() {
    let addr = std::env::var(SVC_ADDR_ENV).unwrap_or_else(|_| DEFAULT_ADDR.to_owned());
    // Resolves `AMBIENCE_THREADS` before the bind: a bad value stops the
    // daemon here, with the runner's message, instead of failing every
    // request that names no `threads`.
    let service = Arc::new(Service::new(CACHE_CAPACITY));
    let server = Server::bind(addr.as_str(), service)
        .unwrap_or_else(|err| panic!("cannot bind {addr}: {err}"));
    let bound = server.local_addr().map(|a| a.to_string()).unwrap_or(addr);
    eprintln!("[ami-svcd listening on {bound}]");
    if let Err(err) = server.serve() {
        eprintln!("[ami-svcd accept failed: {err}]");
        std::process::exit(1);
    }
}
