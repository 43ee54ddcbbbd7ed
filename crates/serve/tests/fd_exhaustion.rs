//! Accepting under file-descriptor exhaustion: the serving core must back
//! off, not spin on a listener that stays readable while every accept
//! fails with `EMFILE`.
//!
//! A test binary of its own, because it lowers the process's open-file
//! limit.

use oociso_core::{ClusterDatabase, PreprocessOptions};
use oociso_serve::{IsoServer, ServeOptions};
use oociso_volume::field::{FieldExt, SphereField};
use oociso_volume::{Dims3, Volume};
use std::fs::File;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::raw::c_int;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Clone, Copy)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

/// `RLIMIT_NOFILE`: 8 on macOS and the BSDs, 7 elsewhere.
#[cfg(any(
    target_vendor = "apple",
    target_os = "freebsd",
    target_os = "openbsd",
    target_os = "netbsd",
    target_os = "dragonfly"
))]
const RLIMIT_NOFILE: c_int = 8;
#[cfg(not(any(
    target_vendor = "apple",
    target_os = "freebsd",
    target_os = "openbsd",
    target_os = "netbsd",
    target_os = "dragonfly"
)))]
const RLIMIT_NOFILE: c_int = 7;

fn set_nofile(lim: Rlimit) {
    // SAFETY: `lim` is a live `struct rlimit` (two `rlim_t`s) for the call.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0, "setrlimit");
}

#[test]
fn fd_exhaustion_backs_off_instead_of_spinning() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("oociso_fdx_{}", std::process::id()));
    let vol: Volume<u8> = SphereField::centered(0.32, 128.0).sample(Dims3::cube(17));
    let db = ClusterDatabase::preprocess(&vol, &dir, &PreprocessOptions::default()).unwrap();
    let server = IsoServer::bind(db, ("127.0.0.1", 0), ServeOptions::default()).unwrap();
    let addr = server.addr();

    let mut saved = Rlimit { cur: 0, max: 0 };
    // SAFETY: `saved` is a writable `struct rlimit` for the call.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut saved) }, 0);
    // a small headroom over the descriptors already open bounds the fill
    let probe = File::open("/dev/null").unwrap();
    let headroom = probe.as_raw_fd() as u64 + 64;
    drop(probe);
    set_nofile(Rlimit {
        cur: headroom.min(saved.cur),
        max: saved.max,
    });

    // fill the descriptor table, then free exactly one slot: the client's
    // socket takes it, so the server's accept finds none
    let mut fillers = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        fillers.push(f);
    }
    fillers.pop();
    let client = TcpStream::connect(addr).unwrap();

    let t0 = Instant::now();
    while server.report().accept_backoffs == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "accept never hit fd exhaustion"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let first = server.report().accept_backoffs;
    std::thread::sleep(Duration::from_millis(500));
    let backoffs = server.report().accept_backoffs - first;
    // each event loop retries about every 100 ms; a spinning loop fails
    // accept thousands of times in the same half second
    assert!(
        backoffs <= 30,
        "{backoffs} failed accepts in 500 ms: the loop spins instead of backing off"
    );

    // descriptors free up: the pending connection is accepted promptly
    drop(fillers);
    set_nofile(saved);
    let t0 = Instant::now();
    while server.report().active_connections < 1 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the server never resumed accepting"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(client);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
