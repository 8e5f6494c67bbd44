//! Real TCP links over `std::net`.
//!
//! Topology: the server binds one listener; every device opens its own
//! connection, handshakes (`Hello` → `HelloAck`, which pins the protocol
//! version on both ends), then sends its single uplink frame. The server
//! keeps the accepted socket around to answer with the downlink frame.
//!
//! Reliability posture:
//!
//! * **Every blocking socket read and write is armed with a timeout**
//!   (`set_read_timeout` / `set_write_timeout`); nothing can hang a round
//!   forever. `cargo xtask audit` enforces this for any file touching
//!   `TcpStream`.
//! * A device's `send_uplink` is **atomic per attempt**: it dials a fresh
//!   connection, handshakes, and uploads. Any failure tears the attempt
//!   down and surfaces a (usually transient) error, so the caller's
//!   [`with_retry`] budget re-runs the whole exchange —
//!   there is no half-handshaken state to resume.
//! * Byte accounting is *wire-true*: framing headers and handshake frames
//!   count, matching what a packet capture would show.
//!
//! The accept loop runs on its own thread (non-blocking listener polled
//! against a shutdown flag), and each accepted connection is handshaken on
//! a short-lived handler thread so one slow client cannot starve the
//! others. Completed uplinks funnel into a channel the server endpoint
//! drains from `recv_uplink`.

use crate::error::{io_error, Result, TransportError};
use crate::frame::{read_frame, write_frame, Frame, FrameKind, FLAG_TIMED};
use crate::timing::{with_retry, Deadline};
use crate::{DeviceTransport, LinkStats, ServerTransport, Transport};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Socket-level knobs shared by both ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpOptions {
    /// Read/write timeout armed on every socket operation.
    pub io_timeout: Duration,
    /// Budget for one `connect` attempt.
    pub connect_timeout: Duration,
    /// Extra connect attempts before a device gives up dialing.
    pub connect_retries: u32,
    /// Initial backoff between connect attempts (doubles per retry).
    pub connect_backoff: Duration,
    /// How often the acceptor polls the non-blocking listener.
    pub accept_poll: Duration,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            io_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(5),
            connect_retries: 10,
            connect_backoff: Duration::from_millis(20),
            accept_poll: Duration::from_millis(2),
        }
    }
}

/// Factory for loopback/LAN TCP links.
#[derive(Debug, Clone, Copy)]
pub struct TcpTransport {
    /// Address the server binds (port 0 picks a free port).
    pub addr: SocketAddr,
    /// Socket knobs applied to every endpoint.
    pub opts: TcpOptions,
}

impl TcpTransport {
    /// A transport binding an ephemeral loopback port.
    pub fn loopback() -> Self {
        TcpTransport {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            opts: TcpOptions::default(),
        }
    }
}

impl Transport for TcpTransport {
    type Server = TcpServer;
    type Device = TcpDevice;

    fn open(&self, devices: usize) -> Result<(TcpServer, Vec<TcpDevice>)> {
        let server = TcpServer::bind(self.addr, self.opts)?;
        let addr = server.local_addr();
        let endpoints = (0..devices)
            .map(|z| TcpDevice::new(addr, z, self.opts))
            .collect();
        Ok((server, endpoints))
    }
}

/// A completed uplink exchange handed from a handler thread to the server
/// endpoint: the payload plus the live socket for the downlink answer.
struct Inbound {
    device: usize,
    payload: Bytes,
    stream: TcpStream,
    bytes_in: usize,
    bytes_out: usize,
}

/// Server endpoint: listener + acceptor thread + per-connection handlers.
pub struct TcpServer {
    local_addr: SocketAddr,
    inbound_rx: Receiver<Inbound>,
    // Held so `recv_uplink` observes Timeout (retryable by policy) rather
    // than Disconnected once all handler threads exit.
    _inbound_tx: Sender<Inbound>,
    conns: BTreeMap<usize, TcpStream>,
    stats: LinkStats,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl TcpServer {
    /// Binds `addr` and starts accepting device connections.
    pub fn bind(addr: SocketAddr, opts: TcpOptions) -> Result<TcpServer> {
        let listener = TcpListener::bind(addr).map_err(|e| io_error("bind", &e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| io_error("local_addr", &e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| io_error("set_nonblocking", &e))?;
        let (inbound_tx, inbound_rx) = unbounded::<Inbound>();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handlers = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let tx = inbound_tx.clone();
            let stop = Arc::clone(&shutdown);
            let pool = Arc::clone(&handlers);
            std::thread::spawn(move || accept_loop(listener, tx, stop, pool, opts))
        };
        Ok(TcpServer {
            local_addr,
            inbound_rx,
            _inbound_tx: inbound_tx,
            conns: BTreeMap::new(),
            stats: LinkStats::default(),
            shutdown,
            acceptor: Some(acceptor),
            handlers,
        })
    }

    /// The address devices should dial (resolved even when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: Sender<Inbound>,
    stop: Arc<AtomicBool>,
    pool: Arc<Mutex<Vec<JoinHandle<()>>>>,
    opts: TcpOptions,
) {
    // ORDERING: Relaxed — `stop` is a standalone shutdown flag with no
    // associated data to publish; the loop only needs eventual visibility,
    // and the unblocking connect in `Drop` guarantees a fresh iteration.
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let tx = tx.clone();
                let handle = std::thread::spawn(move || {
                    // A connection that fails to handshake or upload is
                    // simply dropped; the device side sees the error and
                    // retries with a fresh connection.
                    let _ = serve_connection(stream, &tx, opts);
                });
                push_handle(&pool, handle);
            }
            // Non-blocking listener with nothing pending (or a transient
            // accept hiccup): back off briefly and poll again.
            Err(_) => std::thread::sleep(opts.accept_poll),
        }
    }
}

fn push_handle(pool: &Arc<Mutex<Vec<JoinHandle<()>>>>, handle: JoinHandle<()>) {
    match pool.lock() {
        Ok(mut g) => g.push(handle),
        Err(poisoned) => poisoned.into_inner().push(handle),
    }
}

/// Runs the server side of one connection: `Hello` → `HelloAck`, then one
/// `Uplink` frame, then hands the live socket to the endpoint for the
/// downlink answer.
fn serve_connection(mut stream: TcpStream, tx: &Sender<Inbound>, opts: TcpOptions) -> Result<()> {
    stream
        .set_read_timeout(Some(opts.io_timeout))
        .map_err(|e| io_error("arm read timeout", &e))?;
    stream
        .set_write_timeout(Some(opts.io_timeout))
        .map_err(|e| io_error("arm write timeout", &e))?;
    let (hello, n_hello) = read_frame(&mut stream)?;
    let t1 = fedsc_obs::now_ns(); // receive timestamp for a timed handshake
    if hello.kind != FrameKind::Hello {
        return Err(TransportError::Malformed("expected hello frame"));
    }
    let device = usize::try_from(hello.device)
        .map_err(|_| TransportError::Malformed("device id out of range"))?;
    // A timed Hello asks for our receive/transmit timestamps in the ack
    // so the device can run the midpoint clock-offset estimator.
    let ack = if hello.flags & FLAG_TIMED != 0 {
        let mut ts = Vec::with_capacity(16);
        ts.extend_from_slice(&t1.to_le_bytes());
        ts.extend_from_slice(&fedsc_obs::now_ns().to_le_bytes()); // t2: transmit
        Frame {
            kind: FrameKind::HelloAck,
            flags: FLAG_TIMED,
            device: hello.device,
            seq: 0,
            payload: Bytes::from(ts),
        }
    } else {
        Frame::control(FrameKind::HelloAck, hello.device)
    };
    let n_ack = write_frame(&mut stream, &ack)?;
    let (up, n_up) = read_frame(&mut stream)?;
    if up.kind != FrameKind::Uplink || up.device != hello.device {
        return Err(TransportError::Malformed("expected uplink frame"));
    }
    let _ = tx.send(Inbound {
        device,
        payload: up.payload,
        stream,
        bytes_in: n_hello + n_up,
        bytes_out: n_ack,
    });
    Ok(())
}

impl ServerTransport for TcpServer {
    fn recv_uplink(&mut self, timeout: Duration) -> Result<(usize, Bytes)> {
        let inbound = self.inbound_rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => TransportError::Timeout("uplink recv"),
            RecvTimeoutError::Disconnected => TransportError::Closed("acceptor gone"),
        })?;
        self.stats.on_bytes_received(inbound.bytes_in);
        self.stats.on_bytes_sent(inbound.bytes_out);
        self.stats.on_msg_received();
        crate::metrics::TCP_BYTES_RECEIVED.add(inbound.bytes_in as u64);
        crate::metrics::TCP_BYTES_SENT.add(inbound.bytes_out as u64);
        // A device retrying its round reconnects; the latest socket wins.
        self.conns.insert(inbound.device, inbound.stream);
        Ok((inbound.device, inbound.payload))
    }

    fn send_downlink(&mut self, device: usize, payload: &Bytes) -> Result<()> {
        let stream = self
            .conns
            .get_mut(&device)
            .ok_or(TransportError::Closed("device never completed an uplink"))?;
        let frame = Frame {
            kind: FrameKind::Downlink,
            flags: 0,
            device: device as u64,
            seq: self.stats.messages_sent + 1,
            payload: payload.clone(),
        };
        let n = write_frame(stream, &frame)?;
        self.stats.on_bytes_sent(n);
        self.stats.on_msg_sent();
        crate::metrics::TCP_BYTES_SENT.add(n as u64);
        Ok(())
    }

    fn stats(&self) -> LinkStats {
        self.stats
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        // ORDERING: Relaxed — standalone flag, no data published through
        // it; the `join` below is the real synchronization point.
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let handles = match self.handlers.lock() {
            Ok(mut g) => std::mem::take(&mut *g),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        for h in handles {
            let _ = h.join();
        }
        // `conns` drops here, closing every accepted socket — devices still
        // blocked in `recv_downlink` (e.g. excluded stragglers) observe EOF
        // instead of hanging.
    }
}

/// Device endpoint: dials the server lazily inside `send_uplink`.
pub struct TcpDevice {
    device: usize,
    addr: SocketAddr,
    opts: TcpOptions,
    stream: Option<TcpStream>,
    stats: LinkStats,
}

impl TcpDevice {
    /// An endpoint that will speak as device `device` to `addr`.
    pub fn new(addr: SocketAddr, device: usize, opts: TcpOptions) -> Self {
        TcpDevice {
            device,
            addr,
            opts,
            stream: None,
            stats: LinkStats::default(),
        }
    }

    fn connect(&self) -> Result<TcpStream> {
        with_retry(self.opts.connect_retries, self.opts.connect_backoff, || {
            TcpStream::connect_timeout(&self.addr, self.opts.connect_timeout)
                .map_err(|e| io_error("connect", &e))
        })
    }

    /// Dials and handshakes, returning the live stream plus the byte
    /// counts of the exchange. A timed handshake (`FLAG_TIMED`) also
    /// returns the midpoint clock-offset estimate.
    fn handshake(&self, timed: bool) -> Result<(TcpStream, usize, usize, i64)> {
        let mut stream = self.connect()?;
        let _ = stream.set_nodelay(true); // latency hint; correctness never depends on it
        stream
            .set_read_timeout(Some(self.opts.io_timeout))
            .map_err(|e| io_error("arm read timeout", &e))?;
        stream
            .set_write_timeout(Some(self.opts.io_timeout))
            .map_err(|e| io_error("arm write timeout", &e))?;
        let id = self.device as u64;
        let hello =
            Frame::control(FrameKind::Hello, id).with_flags(if timed { FLAG_TIMED } else { 0 });
        let t0 = fedsc_obs::now_ns();
        let sent = write_frame(&mut stream, &hello)?;
        let (ack, n_ack) = read_frame(&mut stream)?;
        let t3 = fedsc_obs::now_ns();
        if ack.kind != FrameKind::HelloAck || ack.device != id {
            return Err(TransportError::Malformed("bad handshake ack"));
        }
        let mut offset = 0i64;
        if timed {
            if ack.flags & FLAG_TIMED == 0 || ack.payload.len() != 16 {
                return Err(TransportError::Malformed("peer did not time the handshake"));
            }
            let le64 = |at: usize| {
                let mut b = [0u8; 8];
                b.copy_from_slice(&ack.payload.as_slice()[at..at + 8]);
                u64::from_le_bytes(b)
            };
            let (t1, t2) = (le64(0) as i128, le64(8) as i128);
            // NTP midpoint estimator: server_time ≈ device_time + offset,
            // assuming symmetric network delay; the worst-case error is
            // half the handshake round-trip time.
            offset = (((t1 - t0 as i128) + (t2 - t3 as i128)) / 2) as i64;
        }
        Ok((stream, sent, n_ack, offset))
    }

    fn upload(&mut self, stream: &mut TcpStream, payload: &Bytes) -> Result<usize> {
        write_frame(
            stream,
            &Frame {
                kind: FrameKind::Uplink,
                flags: 0,
                device: self.device as u64,
                seq: self.stats.messages_sent + 1,
                payload: payload.clone(),
            },
        )
    }
}

impl DeviceTransport for TcpDevice {
    fn send_uplink(&mut self, payload: &Bytes) -> Result<()> {
        // A connection kept by `clock_sync` is already handshaken: reuse
        // it for the upload. Any failure clears it, so the caller's retry
        // re-runs a full fresh attempt.
        if let Some(mut stream) = self.stream.take() {
            match self.upload(&mut stream, payload) {
                Ok(sent) => {
                    self.stats.on_bytes_sent(sent);
                    self.stats.on_msg_sent();
                    crate::metrics::TCP_BYTES_SENT.add(sent as u64);
                    self.stream = Some(stream);
                    return Ok(());
                }
                Err(_) => {
                    // Fall through to a fresh connection + handshake.
                }
            }
        }
        // One attempt = one fresh connection + handshake + upload; any
        // failure tears the attempt down (no half-handshaken state).
        let (mut stream, mut sent, n_ack, _) = self.handshake(false)?;
        sent += self.upload(&mut stream, payload)?;
        self.stats.on_bytes_sent(sent);
        self.stats.on_bytes_received(n_ack);
        self.stats.on_msg_sent();
        crate::metrics::TCP_BYTES_SENT.add(sent as u64);
        crate::metrics::TCP_BYTES_RECEIVED.add(n_ack as u64);
        self.stream = Some(stream);
        Ok(())
    }

    fn clock_sync(&mut self) -> Result<i64> {
        // Tear down any previous attempt, then dial with a timed Hello;
        // the connection is kept for the subsequent `send_uplink`, which
        // skips its own handshake.
        self.stream = None;
        let (stream, sent, n_ack, offset) = self.handshake(true)?;
        self.stats.on_bytes_sent(sent);
        self.stats.on_bytes_received(n_ack);
        crate::metrics::TCP_BYTES_SENT.add(sent as u64);
        crate::metrics::TCP_BYTES_RECEIVED.add(n_ack as u64);
        self.stream = Some(stream);
        Ok(offset)
    }

    fn recv_downlink(&mut self, timeout: Duration) -> Result<Bytes> {
        let stream = self
            .stream
            .as_mut()
            .ok_or(TransportError::Closed("uplink was never delivered"))?;
        let deadline = Deadline::after(timeout);
        loop {
            let remaining = deadline.remaining();
            if remaining.is_zero() {
                return Err(TransportError::Timeout("downlink recv"));
            }
            // Re-arm per iteration so the overall wait honours `timeout`
            // even when it exceeds the per-operation socket budget.
            stream
                .set_read_timeout(Some(remaining.min(self.opts.io_timeout)))
                .map_err(|e| io_error("arm read timeout", &e))?;
            match read_frame(stream) {
                Ok((f, n)) => {
                    self.stats.on_bytes_received(n);
                    crate::metrics::TCP_BYTES_RECEIVED.add(n as u64);
                    if f.kind == FrameKind::Downlink && f.device == self.device as u64 {
                        self.stats.on_msg_received();
                        return Ok(f.payload);
                    }
                    // Stray frame (e.g. duplicate ack): keep waiting.
                }
                Err(TransportError::Timeout(_)) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn stats(&self) -> LinkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::HEADER_LEN;

    fn fast_opts() -> TcpOptions {
        TcpOptions {
            io_timeout: Duration::from_millis(500),
            connect_timeout: Duration::from_millis(500),
            connect_retries: 3,
            connect_backoff: Duration::from_millis(5),
            accept_poll: Duration::from_millis(1),
        }
    }

    #[test]
    fn loopback_round_trip_with_wire_true_accounting() {
        let t = TcpTransport {
            opts: fast_opts(),
            ..TcpTransport::loopback()
        };
        let (mut srv, mut devs) = t.open(3).expect("open");
        for d in devs.iter_mut() {
            let fill = d.device as u8;
            d.send_uplink(&Bytes::from(vec![fill; 50])).expect("uplink");
        }
        let mut seen = [false; 3];
        for _ in 0..3 {
            let (z, p) = srv.recv_uplink(Duration::from_secs(5)).expect("recv");
            assert_eq!(p.as_slice(), &[z as u8; 50]);
            seen[z] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for z in 0..3 {
            srv.send_downlink(z, &Bytes::from(vec![z as u8; 8]))
                .expect("downlink");
        }
        for d in devs.iter_mut() {
            let got = d.recv_downlink(Duration::from_secs(5)).expect("reply");
            assert_eq!(got.as_slice(), &[d.device as u8; 8]);
            // Wire-true accounting: hello + uplink out, ack + downlink in.
            assert_eq!(d.stats().bytes_sent, 2 * HEADER_LEN + 50);
            assert_eq!(d.stats().bytes_received, 2 * HEADER_LEN + 8);
        }
        assert_eq!(srv.stats().bytes_received, 3 * (2 * HEADER_LEN + 50));
        assert_eq!(srv.stats().bytes_sent, 3 * (2 * HEADER_LEN + 8));
    }

    #[test]
    fn clock_sync_estimates_near_zero_offset_in_process() {
        // Both ends share one process trace epoch, so the true offset is
        // 0; the estimate is bounded by half the loopback RTT.
        let t = TcpTransport {
            opts: fast_opts(),
            ..TcpTransport::loopback()
        };
        let (mut srv, mut devs) = t.open(1).expect("open");
        let offset = devs[0].clock_sync().expect("timed handshake");
        assert!(
            offset.abs() < 100_000_000,
            "loopback offset {offset} ns is implausible"
        );
        // The synced connection is reused: one upload, no second handshake.
        devs[0]
            .send_uplink(&Bytes::from(vec![3; 40]))
            .expect("uplink");
        let (z, p) = srv.recv_uplink(Duration::from_secs(5)).expect("recv");
        assert_eq!((z, p.len()), (0, 40));
        srv.send_downlink(0, &Bytes::from(vec![1; 4]))
            .expect("downlink");
        let got = devs[0]
            .recv_downlink(Duration::from_secs(5))
            .expect("reply");
        assert_eq!(got.len(), 4);
        // Accounting: hello + uplink out; the timed ack carries 16 extra
        // payload bytes versus the plain handshake.
        assert_eq!(devs[0].stats().bytes_sent, 2 * HEADER_LEN + 40);
        assert_eq!(devs[0].stats().bytes_received, 2 * HEADER_LEN + 16 + 4);
        assert_eq!(srv.stats().bytes_received, 2 * HEADER_LEN + 40);
        assert_eq!(srv.stats().bytes_sent, 2 * HEADER_LEN + 16 + 4);
    }

    #[test]
    fn send_uplink_after_failed_sync_connection_recovers_fresh() {
        let t = TcpTransport {
            opts: fast_opts(),
            ..TcpTransport::loopback()
        };
        let (srv, mut devs) = t.open(1).expect("open");
        let _ = devs[0].clock_sync().expect("timed handshake");
        // Kill the synced connection from the server side: dropping the
        // server closes every accepted socket. Rebind a fresh server on
        // the same address for the fallback path to dial.
        let addr = srv.local_addr();
        drop(srv);
        let mut srv = TcpServer::bind(addr, fast_opts()).expect("rebind");
        // A payload larger than the socket buffer cannot be swallowed by
        // the dead connection: the reuse write deterministically errors
        // and the fresh-attempt fallback must deliver the whole upload.
        let big = 8 << 20;
        devs[0]
            .send_uplink(&Bytes::from(vec![9; big]))
            .expect("reuse fails, fresh attempt succeeds");
        let (z, p) = srv.recv_uplink(Duration::from_secs(5)).expect("recv");
        assert_eq!((z, p.len()), (0, big));
    }

    #[test]
    fn recv_uplink_times_out_without_clients() {
        let t = TcpTransport {
            opts: fast_opts(),
            ..TcpTransport::loopback()
        };
        let (mut srv, _devs) = t.open(1).expect("open");
        assert_eq!(
            srv.recv_uplink(Duration::from_millis(30)).err(),
            Some(TransportError::Timeout("uplink recv"))
        );
    }

    #[test]
    fn connect_to_dead_port_exhausts_retries() {
        // Bind then immediately drop a listener to get a port that refuses.
        let dead = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("probe port");
        let mut dev = TcpDevice::new(dead, 0, fast_opts());
        let err = dev
            .send_uplink(&Bytes::from(vec![1; 4]))
            .expect_err("nobody listening");
        assert!(err.is_transient(), "{err}");
    }

    #[test]
    fn dropping_server_unblocks_waiting_device() {
        let t = TcpTransport {
            opts: fast_opts(),
            ..TcpTransport::loopback()
        };
        let (mut srv, mut devs) = t.open(1).expect("open");
        devs[0]
            .send_uplink(&Bytes::from(vec![5; 10]))
            .expect("uplink");
        let _ = srv.recv_uplink(Duration::from_secs(5)).expect("recv");
        drop(srv); // closes the accepted socket without answering
        let err = devs[0]
            .recv_downlink(Duration::from_secs(5))
            .expect_err("server gone");
        assert!(
            matches!(err, TransportError::Io { .. } | TransportError::Closed(_)),
            "{err}"
        );
    }

    #[test]
    fn recv_downlink_before_uplink_is_an_error() {
        let t = TcpTransport {
            opts: fast_opts(),
            ..TcpTransport::loopback()
        };
        let (_srv, mut devs) = t.open(1).expect("open");
        assert!(matches!(
            devs[0].recv_downlink(Duration::from_millis(10)),
            Err(TransportError::Closed(_))
        ));
    }
}
