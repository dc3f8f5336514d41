//! The TCP listener facade: binds `127.0.0.1:<port>`, accepts on a named
//! background thread, and runs one
//! [`session::Session`](crate::session::Session) per connection on a
//! short-lived thread with a read timeout. Admin traffic is one scraper
//! and maybe a human with `nc`, so thread-per-connection is the right
//! amount of machinery — the event loop stays out of the tree until the
//! data plane needs it.
//!
//! Only this module is gated on the `enabled` feature: without it,
//! [`spawn`] returns `Unsupported` (callers print a one-line warning, the
//! same contract as `parcsr_obs::compiled()`), and the session/buffer/
//! protocol layers stay fully compiled and tested.

#[cfg(feature = "enabled")]
use crate::session::Session;
use std::io;
use std::net::SocketAddr;
#[cfg(feature = "enabled")]
use std::net::{TcpListener, TcpStream};
#[cfg(feature = "enabled")]
// ORDERING: Relaxed — STOP is a monotonic shutdown latch; the accept
// thread needs eventual visibility only, and the self-connect that
// unblocks `accept` happens-after the store on the shutdown caller's
// side via the socket itself.
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
#[cfg(feature = "enabled")]
use std::sync::Arc;
#[cfg(feature = "enabled")]
use std::thread;
#[cfg(feature = "enabled")]
use std::time::Duration;

/// Per-session socket read timeout: an idle or wedged client releases its
/// thread after this long. `parcsr watch` reconnects per poll, so polls
/// slower than this still work.
#[cfg(feature = "enabled")]
const SESSION_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A running admin listener. Dropping it shuts the accept loop down.
#[cfg(feature = "enabled")]
pub struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

#[cfg(feature = "enabled")]
impl AdminServer {
    /// Binds `127.0.0.1:port` (`0` picks an ephemeral port — read it back
    /// with [`local_addr`](Self::local_addr)) and starts accepting, with
    /// `provider` supplying the snapshot behind the point-in-time endpoints
    /// and `history` supplying the rotated-window ring behind `history`.
    pub fn bind(
        port: u16,
        provider: crate::session::SnapshotFn,
        history: crate::session::HistoryFn,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let accept = thread::Builder::new()
            .name("parcsr-admin".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let _ = stream.set_read_timeout(Some(SESSION_READ_TIMEOUT));
                    let _ = thread::Builder::new()
                        .name("parcsr-admin-session".to_string())
                        .spawn(move || {
                            if let Err(e) = Session::new(stream, provider, history).run() {
                                eprintln!("parcsr-admin: session error: {e}");
                            }
                        });
                }
            })?;
        Ok(AdminServer {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves ephemeral port requests).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it. In-flight sessions finish on
    /// their own (bounded by `SESSION_READ_TIMEOUT`); their threads are
    /// deliberately not tracked — the admin plane must never stall process
    /// exit behind a slow scraper. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.accept.take() {
            self.stop.store(true, Relaxed);
            // Unblock the accept call so the thread observes the latch.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

#[cfg(feature = "enabled")]
impl Drop for AdminServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Disabled-build stand-in so `--admin-port` wiring compiles everywhere;
/// [`spawn`] never actually constructs one.
#[cfg(not(feature = "enabled"))]
pub struct AdminServer;

#[cfg(not(feature = "enabled"))]
impl AdminServer {
    /// Placeholder address (never observable: [`spawn`] always errors).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], 0))
    }

    /// No-op.
    pub fn shutdown(&mut self) {}
}

/// Starts the admin plane on `127.0.0.1:port` serving
/// [`parcsr_obs::snapshot_all`] and
/// [`parcsr_obs::serve::history_snapshot`]. Without the `enabled` feature this
/// returns [`io::ErrorKind::Unsupported`] — callers print the error and
/// carry on, so `--admin-port` on a default build degrades to a warning
/// rather than a hard failure.
pub fn spawn(port: u16) -> io::Result<AdminServer> {
    #[cfg(feature = "enabled")]
    {
        AdminServer::bind(
            port,
            parcsr_obs::snapshot_all,
            parcsr_obs::serve::history_snapshot,
        )
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = port;
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "admin plane not compiled in (rebuild with the `obs` feature)",
        ))
    }
}
