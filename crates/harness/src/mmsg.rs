//! Batched UDP syscalls, no libc.
//!
//! The workspace vendors every external dependency as an offline
//! stand-in, so there is no libc crate to lean on for `recvmmsg(2)` or
//! `sendmmsg(2)` — std exposes neither. On x86-64 Linux this module issues the raw syscalls directly
//! (`core::arch::asm!`); everywhere else, and whenever the one-time
//! [`capability`] probe finds a syscall filtered (seccomp) or absent,
//! the callers fall back to portable one-datagram `std::net` I/O.
//!
//! The contract with the gateway pump:
//!
//! * [`recv_more`] — after a blocking `recv_from` got one datagram,
//!   drain up to `BATCH - 1` more in a single `recvmmsg` without
//!   blocking. Falls back to returning nothing (the caller's next
//!   blocking read picks them up one at a time).
//! * [`send_batch`] — write a slice of (payload, destination) pairs
//!   with as few `sendmmsg` calls as possible; falls back to a
//!   `send_to` loop.

use std::net::{SocketAddr, UdpSocket};
use std::sync::OnceLock;

use parquake_protocol::MAX_DATAGRAM;

/// Datagrams moved per batched syscall.
pub const BATCH: usize = 16;

/// What the running kernel/sandbox actually lets us do, probed once.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchCapability {
    /// `recvmmsg`/`sendmmsg` are callable (not ENOSYS/seccomp-filtered).
    pub mmsg: bool,
}

static CAPABILITY: OnceLock<BatchCapability> = OnceLock::new();

/// Probe (once) and report the batching capability.
pub fn capability() -> BatchCapability {
    *CAPABILITY.get_or_init(sys::probe)
}

/// Drain up to `max` additional datagrams without blocking, batched in
/// one `recvmmsg`. Call after a blocking read produced a datagram, so
/// a bursty socket costs one syscall per `BATCH` instead of one each.
/// Returns an empty vec when nothing is queued or batching is
/// unavailable (the portable path reads one datagram per wakeup).
pub fn recv_more(sock: &UdpSocket, max: usize) -> Vec<(Vec<u8>, SocketAddr)> {
    if !capability().mmsg {
        return Vec::new();
    }
    sys::recv_more(sock, max.min(BATCH))
}

/// Send every `(payload, dest)` pair, batching with `sendmmsg` where
/// possible. Returns `(datagrams_sent, datagrams_batched)` where
/// `datagrams_batched` counts those that went out via a multi-message
/// syscall (0 on the portable path).
pub fn send_batch(sock: &UdpSocket, msgs: &[(Vec<u8>, SocketAddr)]) -> (u64, u64) {
    if msgs.len() > 1 && capability().mmsg {
        if let Some(sent) = sys::send_batch(sock, msgs) {
            return (sent, sent);
        }
    }
    // Portable one-datagram fallback (also the single-message path).
    let mut sent = 0u64;
    for (payload, dest) in msgs {
        if sock.send_to(payload, *dest).is_ok() {
            sent += 1;
        }
    }
    (sent, 0)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    //! Raw x86-64 Linux syscalls: the only platform-specific code in
    //! the workspace. Kept tiny and fully behind the runtime probe so
    //! a seccomp filter downgrades to the portable path instead of
    //! breaking the gateway.

    use super::{BatchCapability, BATCH, MAX_DATAGRAM};
    use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
    use std::os::fd::AsRawFd;

    const SYS_RECVMMSG: usize = 299;
    const SYS_SENDMMSG: usize = 307;

    const AF_INET: usize = 2;
    const MSG_DONTWAIT: usize = 0x40;
    const EAGAIN: isize = -11;
    const EWOULDBLOCK: isize = EAGAIN;

    /// One raw syscall; negative returns are `-errno`.
    ///
    /// SAFETY: callers pass argument counts/types matching the syscall
    /// number, with any pointers valid for the kernel's access.
    unsafe fn syscall5(n: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// `struct sockaddr_in`, ports and addresses in network byte order.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    impl SockaddrIn {
        fn new(ip: Ipv4Addr, port: u16) -> SockaddrIn {
            SockaddrIn {
                sin_family: AF_INET as u16,
                sin_port: port.to_be(),
                sin_addr: u32::from(ip).to_be(),
                sin_zero: [0; 8],
            }
        }

        fn to_addr(self) -> SocketAddr {
            SocketAddr::V4(SocketAddrV4::new(
                Ipv4Addr::from(u32::from_be(self.sin_addr)),
                u16::from_be(self.sin_port),
            ))
        }
    }

    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    /// `struct msghdr` as laid out by the x86-64 kernel ABI (repr(C)
    /// inserts the same padding after `namelen` and `flags`).
    #[repr(C)]
    struct MsgHdr {
        name: *mut SockaddrIn,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    /// Probe what the kernel/sandbox permits: an `EAGAIN` from an empty
    /// nonblocking `recvmmsg` proves the syscall exists and is allowed;
    /// `ENOSYS`/`EPERM` (seccomp) mean the portable path must carry the
    /// traffic.
    pub(super) fn probe() -> BatchCapability {
        let mmsg = match UdpSocket::bind("127.0.0.1:0") {
            Ok(sock) => {
                let mut buf = [0u8; 8];
                let mut iov = IoVec {
                    base: buf.as_mut_ptr(),
                    len: buf.len(),
                };
                let mut msg = MMsgHdr {
                    hdr: MsgHdr {
                        name: std::ptr::null_mut(),
                        namelen: 0,
                        iov: &mut iov,
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                };
                // SAFETY: fd is open, msg points at live stack storage.
                let r = unsafe {
                    syscall5(
                        SYS_RECVMMSG,
                        sock.as_raw_fd() as usize,
                        (&mut msg as *mut MMsgHdr) as usize,
                        1,
                        MSG_DONTWAIT,
                        0,
                    )
                };
                r >= 0 || r == EAGAIN || r == EWOULDBLOCK
            }
            Err(_) => false,
        };
        BatchCapability { mmsg }
    }

    pub(super) fn recv_more(sock: &UdpSocket, max: usize) -> Vec<(Vec<u8>, SocketAddr)> {
        let n = max.min(BATCH);
        if n == 0 {
            return Vec::new();
        }
        let mut bufs = vec![[0u8; MAX_DATAGRAM]; n];
        let mut names = vec![SockaddrIn::new(Ipv4Addr::UNSPECIFIED, 0); n];
        let mut iovs: Vec<IoVec> = bufs
            .iter_mut()
            .map(|b| IoVec {
                base: b.as_mut_ptr(),
                len: MAX_DATAGRAM,
            })
            .collect();
        let mut msgs: Vec<MMsgHdr> = (0..n)
            .map(|i| MMsgHdr {
                hdr: MsgHdr {
                    name: &mut names[i],
                    namelen: std::mem::size_of::<SockaddrIn>() as u32,
                    iov: &mut iovs[i],
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            })
            .collect();
        // SAFETY: every pointer in msgs targets storage that outlives
        // the call; vlen matches the array length.
        let got = unsafe {
            syscall5(
                SYS_RECVMMSG,
                sock.as_raw_fd() as usize,
                msgs.as_mut_ptr() as usize,
                n,
                MSG_DONTWAIT,
                0,
            )
        };
        if got <= 0 {
            return Vec::new();
        }
        (0..got as usize)
            .map(|i| {
                let len = (msgs[i].len as usize).min(MAX_DATAGRAM);
                (bufs[i][..len].to_vec(), names[i].to_addr())
            })
            .collect()
    }

    /// Batched send; `None` means the syscall path failed outright and
    /// the caller should run the portable loop instead.
    pub(super) fn send_batch(sock: &UdpSocket, msgs: &[(Vec<u8>, SocketAddr)]) -> Option<u64> {
        // Only V4 destinations go through the raw path (loopback
        // gateways are always V4; a stray V6 falls back cleanly).
        if msgs
            .iter()
            .any(|(_, dest)| !matches!(dest, SocketAddr::V4(_)))
        {
            return None;
        }
        let mut names: Vec<SockaddrIn> = msgs
            .iter()
            .map(|(_, dest)| match dest {
                SocketAddr::V4(v4) => SockaddrIn::new(*v4.ip(), v4.port()),
                SocketAddr::V6(_) => unreachable!(),
            })
            .collect();
        let mut iovs: Vec<IoVec> = msgs
            .iter()
            .map(|(payload, _)| IoVec {
                base: payload.as_ptr() as *mut u8,
                len: payload.len(),
            })
            .collect();
        let mut hdrs: Vec<MMsgHdr> = (0..msgs.len())
            .map(|i| MMsgHdr {
                hdr: MsgHdr {
                    name: &mut names[i],
                    namelen: std::mem::size_of::<SockaddrIn>() as u32,
                    iov: &mut iovs[i],
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            })
            .collect();
        let mut sent = 0usize;
        while sent < hdrs.len() {
            // SAFETY: hdrs[sent..] points at live storage; vlen matches.
            let r = unsafe {
                syscall5(
                    SYS_SENDMMSG,
                    sock.as_raw_fd() as usize,
                    hdrs[sent..].as_mut_ptr() as usize,
                    hdrs.len() - sent,
                    0,
                    0,
                )
            };
            if r <= 0 {
                break;
            }
            sent += r as usize;
        }
        Some(sent as u64)
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    //! Portable stand-in: no batching. The public entry points all
    //! degrade to one-datagram std I/O.

    use super::BatchCapability;
    use std::net::{SocketAddr, UdpSocket};

    pub(super) fn probe() -> BatchCapability {
        BatchCapability::default()
    }

    pub(super) fn recv_more(_sock: &UdpSocket, _max: usize) -> Vec<(Vec<u8>, SocketAddr)> {
        Vec::new()
    }

    pub(super) fn send_batch(_sock: &UdpSocket, _msgs: &[(Vec<u8>, SocketAddr)]) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn loopback_pair() -> Option<(UdpSocket, UdpSocket)> {
        let a = UdpSocket::bind("127.0.0.1:0").ok()?;
        let b = UdpSocket::bind("127.0.0.1:0").ok()?;
        a.set_read_timeout(Some(Duration::from_millis(500))).ok()?;
        b.set_read_timeout(Some(Duration::from_millis(500))).ok()?;
        Some((a, b))
    }

    #[test]
    fn probe_is_stable() {
        let first = capability();
        let second = capability();
        assert_eq!(first.mmsg, second.mmsg);
    }

    #[test]
    fn send_batch_delivers_every_datagram() {
        let Some((tx, rx)) = loopback_pair() else {
            eprintln!("skipping: loopback UDP not permitted");
            return;
        };
        let dest = rx.local_addr().unwrap();
        let msgs: Vec<(Vec<u8>, std::net::SocketAddr)> =
            (0u8..5).map(|i| (vec![i, i + 1, i + 2], dest)).collect();
        let (sent, batched) = send_batch(&tx, &msgs);
        assert_eq!(sent, 5, "send_batch lost datagrams");
        if capability().mmsg {
            assert_eq!(batched, 5, "mmsg capability present but not used");
        }
        let mut buf = [0u8; 64];
        let mut got = Vec::new();
        for _ in 0..5 {
            let (n, _) = rx.recv_from(&mut buf).expect("batched datagram missing");
            got.push(buf[..n].to_vec());
        }
        // Same-socket loopback UDP preserves send order.
        assert_eq!(got[0], vec![0, 1, 2]);
        assert_eq!(got[4], vec![4, 5, 6]);
    }

    #[test]
    fn recv_more_drains_a_burst_without_blocking() {
        let Some((tx, rx)) = loopback_pair() else {
            eprintln!("skipping: loopback UDP not permitted");
            return;
        };
        let dest = rx.local_addr().unwrap();
        for i in 0u8..6 {
            tx.send_to(&[i], dest).unwrap();
        }
        // Give loopback a moment to queue all six.
        std::thread::sleep(Duration::from_millis(50));
        let mut buf = [0u8; 64];
        let (n, from) = rx.recv_from(&mut buf).expect("first datagram");
        assert_eq!(n, 1);
        assert_eq!(from, tx.local_addr().unwrap());
        let more = recv_more(&rx, BATCH);
        if capability().mmsg {
            assert_eq!(more.len(), 5, "burst not drained in one batch");
            assert_eq!(more[0].0, vec![buf[0] + 1]);
            assert_eq!(more[0].1, from, "recvmmsg reported the wrong sender");
        } else {
            assert!(more.is_empty(), "portable path must not fake batching");
        }
        // Whatever recv_more left behind is still readable one by one.
        let mut rest = more.len();
        while rest < 5 {
            rx.recv_from(&mut buf).expect("remaining datagram");
            rest += 1;
        }
    }

    #[test]
    fn recv_more_on_empty_socket_returns_nothing() {
        let Some((_tx, rx)) = loopback_pair() else {
            eprintln!("skipping: loopback UDP not permitted");
            return;
        };
        assert!(recv_more(&rx, BATCH).is_empty());
    }
}
