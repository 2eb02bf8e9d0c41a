//! `poll(2)` readiness through one libc declaration — the one readiness
//! primitive the standard library does not expose. The hermetic-build
//! policy rules out mio, and `std::net` offers only per-socket blocking
//! reads, so a client that waits on several sockets at once (a load
//! generator reading two connections) polls them here.

use std::io;
use std::os::unix::io::RawFd;

/// Readable readiness (data, EOF, or a pending accept).
pub const POLLIN: i16 = 0x001;

/// `struct pollfd` from `<poll.h>`, bit-compatible with the kernel ABI.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// File descriptor to watch (negative entries are ignored by the
    /// kernel — the idiom for a muted slot).
    pub fd: RawFd,
    /// Requested events.
    pub events: i16,
    /// Returned events (filled by [`poll_fds`]).
    pub revents: i16,
}

impl PollFd {
    /// A slot watching `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// Blocks until at least one registered fd is ready (or `timeout_ms`
/// elapses; negative = wait forever). Returns how many slots have nonzero
/// `revents`. `EINTR` retries transparently — a signal is not readiness.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd structs and `nfds` is its length.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn poll_reports_readable_and_ignores_muted_slots() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();

        // Nothing sent yet: the poll times out with zero ready slots.
        let mut fds = [
            PollFd::new(-1, POLLIN),
            PollFd::new(server.as_raw_fd(), POLLIN),
        ];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0);

        client.write_all(b"hi").unwrap();
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        assert_eq!(fds[0].revents, 0, "a negative fd is never ready");
        assert_ne!(fds[1].revents & POLLIN, 0);
    }
}
