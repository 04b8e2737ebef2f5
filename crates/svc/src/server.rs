//! The TCP front door: [`proto`](crate::proto) frames over a socket,
//! one handler thread per connection, one shared [`Service`].
//!
//! Connections are long-lived: a client may send any number of request
//! frames and reads one response frame per request frame, in order.
//! A malformed frame gets a frame-level error response and the
//! connection stays open; the connection ends at clean EOF.
//!
//! # Example
//!
//! ```
//! use ami_svc::server::Server;
//! use ami_svc::proto::{read_frame, write_frame};
//! use ami_svc::Service;
//! use std::sync::Arc;
//!
//! let server = Server::bind("127.0.0.1:0", Arc::new(Service::new(4))).unwrap();
//! let addr = server.local_addr().unwrap();
//! std::thread::spawn(move || server.serve());
//!
//! let mut conn = std::net::TcpStream::connect(addr).unwrap();
//! let request = r#"{"id": "doc", "threads": 1, "scenario": {
//!     "name": "server-doc", "rounds": 5,
//!     "topology": {"kind": "grid", "side": 3, "spacing_m": 30.0},
//!     "workload": {"kind": "gathering", "strategy": "minimum_energy"}}}"#;
//! write_frame(&mut conn, request.as_bytes()).unwrap();
//! let reply = read_frame(&mut conn).unwrap().unwrap();
//! assert!(String::from_utf8(reply).unwrap().contains("\"scenario_hash\""));
//! ```

use crate::proto::{
    decode_requests, encode_frame_error, encode_response, encode_responses, read_frame, write_frame,
};
use crate::Service;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// How long [`Server::serve`] waits before retrying a transient accept
/// failure: long enough for finishing connections to release their
/// descriptors, short enough that a waiting client barely notices.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// `EMFILE`, `ENFILE`, `ENOBUFS` and `ENOMEM`: the process or the system
/// is out of descriptors, socket buffers or memory for the moment.
#[cfg(any(target_os = "linux", target_os = "android"))]
const RESOURCE_ERRNOS: &[i32] = &[24, 23, 105, 12];
#[cfg(all(unix, not(any(target_os = "linux", target_os = "android"))))]
const RESOURCE_ERRNOS: &[i32] = &[24, 23, 55, 12];
#[cfg(not(unix))]
const RESOURCE_ERRNOS: &[i32] = &[];

/// A listening batch-service endpoint.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
}

impl Server {
    /// Binds `addr` (use port 0 to let the OS pick one).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<Service>) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            service,
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections forever, one handler thread each. A
    /// transient accept failure — a connection aborted or reset before
    /// it was accepted, an interrupted call, or a momentary shortage of
    /// descriptors, socket buffers or memory (`EMFILE`, `ENFILE`,
    /// `ENOBUFS`, `ENOMEM`) — is retried after a short pause, so a burst
    /// that exhausts file descriptors does not end the daemon; any other
    /// accept failure does.
    ///
    /// # Errors
    ///
    /// The non-transient accept failure that ended the loop.
    pub fn serve(self) -> io::Result<()> {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(err) if is_transient_accept_error(&err) => {
                    std::thread::sleep(ACCEPT_RETRY_PAUSE);
                    continue;
                }
                Err(err) => return Err(err),
            };
            let service = Arc::clone(&self.service);
            std::thread::spawn(move || {
                // A dropped connection is the client's business, not a
                // server failure.
                let _ = handle_connection(stream, &service);
            });
        }
    }
}

/// Whether an `accept` failure passes: a connection aborted or reset
/// before it was accepted, an interrupted or would-block call, or a
/// momentary shortage of descriptors, socket buffers or memory. Anything
/// else (say, a listener that is no longer valid) will not go away by
/// waiting.
fn is_transient_accept_error(err: &io::Error) -> bool {
    use io::ErrorKind::{ConnectionAborted, ConnectionReset, Interrupted, WouldBlock};
    matches!(
        err.kind(),
        ConnectionAborted | ConnectionReset | Interrupted | WouldBlock
    ) || err
        .raw_os_error()
        .is_some_and(|code| RESOURCE_ERRNOS.contains(&code))
}

/// Serves one connection until clean EOF or an I/O error.
fn handle_connection(mut stream: TcpStream, service: &Service) -> io::Result<()> {
    while let Some(payload) = read_frame(&mut stream)? {
        let reply = match std::str::from_utf8(&payload) {
            Err(_) => encode_frame_error("request frame is not UTF-8"),
            Ok(text) => match decode_requests(text) {
                Err(err) => encode_frame_error(&err.to_string()),
                Ok(frame) => {
                    if frame.batch {
                        let ids: Vec<String> =
                            frame.requests.iter().map(|r| r.id.clone()).collect();
                        let responses = service.submit_batch(&frame.requests);
                        encode_responses(&responses, &ids)
                    } else {
                        let request = &frame.requests[0];
                        let response = service.submit(request);
                        encode_response(&response, &request.id)
                    }
                }
            },
        };
        write_frame(&mut stream, reply.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_accept_errors_are_retried_and_others_end_the_loop() {
        use io::ErrorKind::*;
        for kind in [ConnectionAborted, ConnectionReset, Interrupted, WouldBlock] {
            assert!(
                is_transient_accept_error(&io::Error::from(kind)),
                "{kind:?}"
            );
        }
        for &code in RESOURCE_ERRNOS {
            let err = io::Error::from_raw_os_error(code);
            assert!(is_transient_accept_error(&err), "{err}");
        }
        for kind in [
            PermissionDenied,
            InvalidInput,
            AddrInUse,
            NotConnected,
            Other,
        ] {
            assert!(
                !is_transient_accept_error(&io::Error::from(kind)),
                "{kind:?}"
            );
        }
        // EBADF and EINVAL: the listener itself is unusable.
        for code in [9, 22] {
            let err = io::Error::from_raw_os_error(code);
            assert!(!is_transient_accept_error(&err), "{err}");
        }
    }
}
