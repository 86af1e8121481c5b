//! The daemon process and the closed-loop TCP client that drives it.
//!
//! [`FrameLedger`] is the pure part: it follows each study id through
//! `Queued? → Accepted → Front* → Done | Error` as frames of several
//! outstanding studies interleave on one connection, and rejects any frame
//! out of that order.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mgopt_core::wire::{
    encode_request, Request, RequestFrame, Response, ResponseFrame, StudyDone, WIRE_VERSION,
};

/// What the client saw of one study, times in seconds since the loop's
/// origin.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyTrace {
    /// Request id.
    pub id: String,
    /// Connection index.
    pub conn: usize,
    /// The study's index on its connection.
    pub j: u64,
    /// When the request was written.
    pub sent: f64,
    /// When `Queued` arrived, and how many studies it said were ahead.
    pub queued: Option<(f64, u64)>,
    /// When `Accepted` arrived, with its prepared-cache hits and misses.
    pub accepted: Option<(f64, u32, u32)>,
    /// When the first `Front` arrived.
    pub first_front: Option<f64>,
    /// When `Done` arrived, with its payload.
    pub done: Option<(f64, StudyDone)>,
    /// Why the study failed, if it did.
    pub error: Option<String>,
    /// Response bytes received for this id, newlines included.
    pub bytes_in: u64,
}

impl StudyTrace {
    fn new(id: String, conn: usize, j: u64, sent: f64) -> Self {
        Self {
            id,
            conn,
            j,
            sent,
            queued: None,
            accepted: None,
            first_front: None,
            done: None,
            error: None,
            bytes_in: 0,
        }
    }

    /// When `Done` arrived.
    pub fn done_at(&self) -> Option<f64> {
        self.done.as_ref().map(|(t, _)| *t)
    }

    /// Milliseconds from the request to its `Done`.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done_at().map(|t| (t - self.sent) * 1e3)
    }

    /// Milliseconds from the request to the first frame carrying a front:
    /// the first `Front` when streaming, else the `Done`.
    pub fn first_front_ms(&self) -> Option<f64> {
        self.first_front
            .or(self.done_at())
            .map(|t| (t - self.sent) * 1e3)
    }

    /// Milliseconds from the request to its `Accepted`.
    pub fn accept_wait_ms(&self) -> Option<f64> {
        self.accepted.map(|(t, _, _)| (t - self.sent) * 1e3)
    }

    /// Move every time of the trace `dt` seconds later.
    pub fn shift(&mut self, dt: f64) {
        self.sent += dt;
        if let Some((t, _)) = &mut self.queued {
            *t += dt;
        }
        if let Some((t, _, _)) = &mut self.accepted {
            *t += dt;
        }
        if let Some(t) = &mut self.first_front {
            *t += dt;
        }
        if let Some((t, _)) = &mut self.done {
            *t += dt;
        }
    }
}

/// Per-id frame accounting for one connection.
#[derive(Debug, Default)]
pub struct FrameLedger {
    open: BTreeMap<String, StudyTrace>,
}

impl FrameLedger {
    /// Studies sent and not yet answered with a terminal frame.
    pub fn open(&self) -> usize {
        self.open.len()
    }

    /// Record a request written at `t`.
    pub fn sent(&mut self, id: &str, conn: usize, j: u64, t: f64) {
        let previous = self
            .open
            .insert(id.to_string(), StudyTrace::new(id.to_string(), conn, j, t));
        assert!(previous.is_none(), "study id {id} reused while open");
    }

    /// Account one response frame of `bytes` bytes read at `t`. Returns the
    /// study's trace when the frame was terminal; a frame for no open id or
    /// out of lifecycle order is an error.
    pub fn receive(
        &mut self,
        frame: ResponseFrame,
        t: f64,
        bytes: u64,
    ) -> Result<Option<StudyTrace>, String> {
        let id = frame.id;
        let Some(study) = self.open.get_mut(&id) else {
            return Err(format!("frame for no open study `{id}`: {:?}", frame.resp));
        };
        study.bytes_in += bytes;
        let accepted = study.accepted.is_some();
        match frame.resp {
            Response::Queued(q) if !accepted && study.queued.is_none() => {
                study.queued = Some((t, q.ahead));
                Ok(None)
            }
            Response::Accepted(a) if !accepted => {
                study.accepted = Some((t, a.prep_cache_hits, a.prep_cache_misses));
                Ok(None)
            }
            Response::Front(_) if accepted => {
                study.first_front.get_or_insert(t);
                Ok(None)
            }
            Response::Done(done) if accepted => {
                study.done = Some((t, done));
                Ok(self.open.remove(&id))
            }
            Response::Error(err) => {
                study.error = Some(format!("{:?}: {}", err.code, err.message));
                Ok(self.open.remove(&id))
            }
            other => Err(format!("study `{id}`: frame out of order: {other:?}")),
        }
    }

    /// Close every open study as failed (e.g. its terminal frame timed out).
    pub fn fail_open(&mut self, why: &str) -> Vec<StudyTrace> {
        std::mem::take(&mut self.open)
            .into_values()
            .map(|mut s| {
                s.error = Some(why.to_string());
                s
            })
            .collect()
    }
}

/// A running `mgopt_serve` daemon listening on loopback TCP. Dropping it
/// kills the process; [`Daemon::shutdown`] stops it cleanly.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawn the daemon with an in-flight cap and prepared-cache capacity,
    /// tracing to `trace` when given, and wait until it listens.
    pub fn spawn(
        binary: &Path,
        in_flight_cap: usize,
        cache_capacity: usize,
        trace: Option<&Path>,
    ) -> Result<Self, String> {
        let mut cmd = Command::new(binary);
        cmd.env("MGOPT_SERVER_ADDR", "127.0.0.1:0")
            .env("MGOPT_SERVER_CONCURRENCY", in_flight_cap.to_string())
            .env("MGOPT_SERVER_CACHE", cache_capacity.to_string())
            .env_remove("MGOPT_TRACE")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(path) = trace {
            cmd.env("MGOPT_TRACE", path);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon exited before listening".into());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.trim().strip_prefix("mgopt_serve: listening on ") {
                match rest.parse::<SocketAddr>() {
                    Ok(addr) => break addr,
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("daemon address `{rest}`: {e}"));
                    }
                }
            }
            eprint!("daemon: {line}");
        };
        let stderr = thread::spawn(move || {
            for line in lines.lines().map_while(Result::ok) {
                eprintln!("daemon: {line}");
            }
        });
        Ok(Self {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    /// The daemon's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// `Ping` on a fresh connection and wait for `Pong`.
    pub fn ping(&self, timeout: Duration) -> Result<(), String> {
        let (mut writer, mut reader) = connect(self.addr, timeout)?;
        send_request(&mut writer, "ping", Request::Ping)?;
        match read_frame(&mut reader)?.0.resp {
            Response::Pong => Ok(()),
            other => Err(format!("expected Pong, got {other:?}")),
        }
    }

    /// Send `Shutdown`, wait for `Bye`, and wait for the process to exit.
    /// Every client connection must be closed first: the daemon drains
    /// open connections before it exits.
    pub fn shutdown(mut self) -> Result<(), String> {
        let (mut writer, mut reader) = connect(self.addr, Duration::from_secs(30))?;
        send_request(&mut writer, "bye", Request::Shutdown)?;
        let bye = read_frame(&mut reader)?.0;
        drop((writer, reader));
        if bye.resp != Response::Bye {
            return Err(format!("expected Bye, got {:?}", bye.resp));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                Ok(None) => return Err("daemon did not exit after Bye".into()),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

fn connect(
    addr: SocketAddr,
    timeout: Duration,
) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(timeout)))
        .map_err(|e| format!("socket options: {e}"))?;
    let reader = stream
        .try_clone()
        .map_err(|e| format!("clone socket: {e}"))?;
    Ok((stream, BufReader::new(reader)))
}

fn send_request(writer: &mut TcpStream, id: &str, req: Request) -> Result<(), String> {
    let line = encode_request(&RequestFrame {
        v: WIRE_VERSION,
        id: id.into(),
        req,
    });
    send_line(writer, &line)
}

fn send_line(writer: &mut TcpStream, line: &str) -> Result<(), String> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    writer
        .write_all(&buf)
        .map_err(|e| format!("write request: {e}"))
}

/// Read one response frame and its size in bytes.
fn read_frame(reader: &mut BufReader<TcpStream>) -> Result<(ResponseFrame, u64), String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("daemon closed the connection".into()),
        Ok(n) => serde_json::from_str(line.trim_end())
            .map(|f| (f, n as u64))
            .map_err(|e| format!("unparsable frame: {e}")),
        Err(e) => Err(format!("read frame: {e}")),
    }
}

/// Drive `connections` TCP connections at once, each keeping up to
/// `outstanding` studies in flight (closed loop): whenever one of a
/// connection's studies ends, it sends its next, `next(conn, j)`, until
/// `next` returns `None` or `window` has passed since every connection
/// opened. Returns every study's trace.
pub fn drive(
    addr: SocketAddr,
    connections: usize,
    outstanding: usize,
    window: Option<Duration>,
    timeout: Duration,
    next: &(dyn Fn(usize, u64) -> Option<(String, String)> + Sync),
) -> Result<Vec<StudyTrace>, String> {
    let sockets = (0..connections)
        .map(|_| connect(addr, timeout))
        .collect::<Result<Vec<_>, _>>()?;
    let origin = Instant::now();
    let results: Vec<Result<Vec<StudyTrace>, String>> = thread::scope(|s| {
        let handles: Vec<_> = sockets
            .into_iter()
            .enumerate()
            .map(|(conn, (mut writer, mut reader))| {
                s.spawn(move || {
                    let mut send = |j: u64| {
                        if window.is_some_and(|w| origin.elapsed() >= w) {
                            return None;
                        }
                        next(conn, j)
                    };
                    drive_connection(
                        conn,
                        &mut writer,
                        &mut reader,
                        outstanding,
                        origin,
                        &mut send,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client connection thread panicked"))
            .collect()
    });
    let mut traces = Vec::new();
    for r in results {
        traces.extend(r?);
    }
    Ok(traces)
}

/// One connection's closed loop. A read failure (timeout or hang-up)
/// fails the studies still open; a frame out of lifecycle order aborts.
fn drive_connection(
    conn: usize,
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    outstanding: usize,
    origin: Instant,
    next: &mut dyn FnMut(u64) -> Option<(String, String)>,
) -> Result<Vec<StudyTrace>, String> {
    let mut ledger = FrameLedger::default();
    let mut finished = Vec::new();
    let mut j = 0u64;
    let mut send_next = |ledger: &mut FrameLedger| -> Result<(), String> {
        if let Some((id, line)) = next(j) {
            ledger.sent(&id, conn, j, origin.elapsed().as_secs_f64());
            j += 1;
            send_line(writer, &line)?;
        }
        Ok(())
    };
    for _ in 0..outstanding {
        send_next(&mut ledger)?;
    }
    while ledger.open() > 0 {
        match read_frame(reader) {
            Ok((frame, bytes)) => {
                let t = origin.elapsed().as_secs_f64();
                if let Some(study) = ledger.receive(frame, t, bytes)? {
                    finished.push(study);
                    send_next(&mut ledger)?;
                }
            }
            Err(e) => finished.extend(ledger.fail_open(&e)),
        }
    }
    Ok(finished)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_core::wire::{ErrorCode, FrontUpdate, StudyAccepted, StudyQueued, WireError};

    fn frame(id: &str, resp: Response) -> ResponseFrame {
        ResponseFrame {
            v: WIRE_VERSION,
            id: id.into(),
            resp,
        }
    }

    fn accepted(hits: u32, misses: u32) -> Response {
        Response::Accepted(StudyAccepted {
            sites: vec!["houston".into(), "berkeley".into()],
            plan_space: 729,
            prep_cache_hits: hits,
            prep_cache_misses: misses,
        })
    }

    fn front() -> Response {
        Response::Front(FrontUpdate {
            generation: 0,
            sampled: 8,
            front: Vec::new(),
        })
    }

    fn done() -> Response {
        Response::Done(StudyDone {
            generations: 3,
            sampled_trials: 24,
            unique_evaluations: 20,
            cache_hits: 4,
            cache_misses: 20,
            wall_ms: 2,
            front: Vec::new(),
        })
    }

    #[test]
    fn interleaved_ids_are_followed_independently() {
        let mut l = FrameLedger::default();
        l.sent("a", 0, 0, 0.0);
        l.sent("b", 0, 1, 0.1);
        l.sent("c", 0, 2, 0.2);
        let seq = [
            ("a", accepted(2, 0), 1.0),
            ("b", Response::Queued(StudyQueued { ahead: 2 }), 1.1),
            ("a", front(), 1.2),
            ("c", Response::Queued(StudyQueued { ahead: 3 }), 1.3),
            ("a", front(), 1.4),
            ("b", accepted(2, 0), 1.5),
            ("a", done(), 1.6),
            ("b", front(), 1.7),
            (
                "c",
                Response::Error(WireError::new(ErrorCode::Internal, "boom")),
                1.8,
            ),
            ("b", done(), 1.9),
        ];
        let mut closed = Vec::new();
        for (id, resp, t) in seq {
            if let Some(s) = l.receive(frame(id, resp), t, 10).unwrap() {
                closed.push(s);
            }
        }
        assert_eq!(l.open(), 0);
        let ids: Vec<&str> = closed.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids, ["a", "c", "b"]);

        let a = &closed[0];
        assert_eq!((a.queued, a.bytes_in), (None, 40));
        assert_eq!(a.accepted, Some((1.0, 2, 0)));
        assert!((a.latency_ms().unwrap() - 1_600.0).abs() < 1e-9);
        assert!((a.first_front_ms().unwrap() - 1_200.0).abs() < 1e-9);

        let c = &closed[1];
        assert!(c.error.as_deref().unwrap().starts_with("Internal"));
        assert_eq!(c.latency_ms(), None);

        let b = &closed[2];
        assert_eq!(b.queued, Some((1.1, 2)));
        assert!((b.accept_wait_ms().unwrap() - 1_400.0).abs() < 1e-9);
        assert_eq!((b.conn, b.j), (0, 1));

        // Shifting moves every time of a trace and keeps every interval.
        let mut later = b.clone();
        later.shift(5.0);
        assert!((later.sent - b.sent - 5.0).abs() < 1e-9);
        assert!((later.queued.unwrap().0 - b.queued.unwrap().0 - 5.0).abs() < 1e-9);
        assert!((later.done_at().unwrap() - b.done_at().unwrap() - 5.0).abs() < 1e-9);
        let intervals: [fn(&StudyTrace) -> Option<f64>; 3] = [
            StudyTrace::latency_ms,
            StudyTrace::accept_wait_ms,
            StudyTrace::first_front_ms,
        ];
        for f in intervals {
            assert!((f(&later).unwrap() - f(b).unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    fn unstreamed_first_front_is_the_done() {
        let mut l = FrameLedger::default();
        l.sent("x", 1, 0, 0.5);
        l.receive(frame("x", accepted(0, 2)), 0.6, 1).unwrap();
        let s = l.receive(frame("x", done()), 0.75, 1).unwrap().unwrap();
        assert!((s.first_front_ms().unwrap() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_and_unknown_frames_are_rejected() {
        let mut l = FrameLedger::default();
        l.sent("a", 0, 0, 0.0);
        assert!(
            l.receive(frame("a", front()), 0.1, 1).is_err(),
            "Front before Accepted"
        );
        let mut l = FrameLedger::default();
        l.sent("a", 0, 0, 0.0);
        assert!(
            l.receive(frame("a", done()), 0.1, 1).is_err(),
            "Done before Accepted"
        );
        let mut l = FrameLedger::default();
        l.sent("a", 0, 0, 0.0);
        l.receive(frame("a", accepted(2, 0)), 0.1, 1).unwrap();
        assert!(
            l.receive(frame("a", accepted(2, 0)), 0.2, 1).is_err(),
            "second Accepted"
        );
        assert!(
            l.receive(
                frame("a", Response::Queued(StudyQueued { ahead: 1 })),
                0.3,
                1
            )
            .is_err(),
            "Queued after Accepted"
        );
        assert!(
            l.receive(frame("zz", done()), 0.4, 1).is_err(),
            "unknown id"
        );
        assert!(l.receive(frame("a", Response::Pong), 0.5, 1).is_err());
        l.receive(frame("a", done()), 0.6, 1).unwrap().unwrap();
        assert!(
            l.receive(frame("a", done()), 0.7, 1).is_err(),
            "frame after Done"
        );
    }

    #[test]
    fn timeouts_fail_the_open_studies() {
        let mut l = FrameLedger::default();
        l.sent("a", 0, 0, 0.0);
        l.sent("b", 0, 1, 0.0);
        let failed = l.fail_open("read frame: timed out");
        assert_eq!(failed.len(), 2);
        assert!(failed.iter().all(|s| s.error.is_some() && s.done.is_none()));
        assert_eq!(l.open(), 0);
    }
}
