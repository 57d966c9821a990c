//! The one readiness primitive of the socket transport: `ppoll(2)` over
//! a set of descriptors, behind a safe wrapper. This module is the only
//! `unsafe` code in the runtime crate (CI's `check` job enforces that).
//!
//! **Why `ppoll` and not `poll`.** A replica's idle wait is bounded by
//! its engine's next timer, and the batch-flush deadline is tens of
//! *micro*seconds away; `poll(2)` takes whole milliseconds and would
//! either round such a wait down to a busy spin or up past the deadline.
//! `ppoll` takes a `timespec`. Its signal-mask argument is unused (null:
//! the mask is left alone).
//!
//! **Why a hand-written declaration.** The build is offline and no
//! `libc` crate is vendored; `std` exposes neither call. The symbol
//! comes from the C library `std` already links. The two `#[repr(C)]`
//! structs below are the kernel's `struct pollfd` and the C library's
//! `struct timespec` (`time_t` and `long` are both `c_long` on the
//! Linux targets this repository builds for).
//!
//! **Linux only**, like `transport::tighten_timer_slack` and the
//! `/proc`-reading tests; there is no fallback path for other platforms.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::fd::RawFd;
use std::time::Duration;

/// `POLLIN` from `<poll.h>`: there is data to read (or, on a listening
/// socket, a connection to accept).
const POLLIN: c_short = 0x001;

/// One entry of a poll set — the kernel's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// An entry asking whether `fd` is readable. `None` becomes the
    /// negative descriptor `ppoll` skips, so a caller can keep its poll
    /// set index-aligned with a table that has holes.
    pub(crate) fn readable(fd: Option<RawFd>) -> Self {
        PollFd {
            fd: fd.unwrap_or(-1),
            events: POLLIN,
            revents: 0,
        }
    }

    /// Whether the last [`wait_readable`] reported anything at all for
    /// this entry — readable, hung up or in error. All three mean "go
    /// read it": EOF and errors surface from the `read(2)` that follows.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// The C library's `struct timespec`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

unsafe extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until an entry of `fds` is ready or `timeout` passes (zero:
/// just ask). Returns whether any entry is ready; a signal (`EINTR`) or
/// any other failure reads as "nothing ready", and the entries' answers
/// are only meaningful after a `true`.
pub(crate) fn wait_readable(fds: &mut [PollFd], timeout: Duration) -> bool {
    let timeout = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        // Below 1e9 by `Duration`'s own invariant: fits every `c_long`.
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // entries laid out as `struct pollfd`, and its own length is passed,
    // so the kernel reads and writes inside it only; `timeout` outlives
    // the call and holds `0 <= tv_nsec < 1e9`; a null signal mask is
    // allowed and means "leave the mask as it is". The call retains no
    // pointer after it returns.
    let ready = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &timeout,
            std::ptr::null(),
        )
    };
    ready > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd as _;
    use std::time::Instant;

    #[test]
    fn reports_only_the_descriptor_with_bytes_and_skips_holes() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let mut tx = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (rx, _) = listener.accept().expect("accept");
        let mut fds = [
            PollFd::readable(Some(listener.as_raw_fd())),
            PollFd::readable(None),
            PollFd::readable(Some(rx.as_raw_fd())),
        ];
        assert!(!wait_readable(&mut fds, Duration::ZERO), "nothing sent yet");

        tx.write_all(b"x").expect("write");
        assert!(wait_readable(&mut fds, Duration::from_secs(5)));
        assert!(!fds[0].ready(), "no connection is waiting");
        assert!(!fds[1].ready(), "a hole is never ready");
        assert!(fds[2].ready());
    }

    #[test]
    fn an_empty_wait_lasts_its_sub_millisecond_timeout() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let mut fds = [PollFd::readable(Some(listener.as_raw_fd()))];
        let timeout = Duration::from_micros(300);
        let start = Instant::now();
        assert!(!wait_readable(&mut fds, timeout));
        assert!(start.elapsed() >= timeout, "{:?}", start.elapsed());
    }
}
