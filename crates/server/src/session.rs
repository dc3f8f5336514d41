//! One connection's lifecycle: fill the [`Buffer`] from the stream, drain
//! every complete request line, respond, repeat until the peer hangs up,
//! sends `quit`, completes an HTTP exchange, or misbehaves.
//!
//! The session is generic over `Read + Write`, so every robustness property
//! — partial reads, pipelined requests, oversized lines — is tested on
//! in-memory streams with adversarial chunking; the TCP listener in
//! [`crate::admin`] is a thin shell around this.

use crate::buffer::Buffer;
use crate::proto::{
    http_response, parse_request, plain_err, plain_ok, Endpoint, Request, MAX_HEADER_LINES,
    MAX_LINE,
};
use parcsr_obs::expo;
use parcsr_obs::metrics::MetricsSnapshot;
use parcsr_obs::serve::HistoryWindow;
use std::io::{self, Read, Write};

/// Snapshot provider: the admin listener passes
/// [`parcsr_obs::snapshot_all`]; tests inject fixed snapshots.
pub type SnapshotFn = fn() -> MetricsSnapshot;

/// History provider for the `history` endpoint: the admin listener passes
/// [`parcsr_obs::serve::history_snapshot`]; tests inject fixed rings.
pub type HistoryFn = fn() -> Vec<HistoryWindow>;

/// Why a session ended (all are orderly; I/O errors surface as `Err` from
/// [`Session::run`] instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Peer closed the connection.
    Eof,
    /// Peer sent `quit` and was acknowledged.
    Quit,
    /// One HTTP exchange completed (`Connection: close` semantics).
    HttpServed,
    /// A request line exceeded [`MAX_LINE`]; an error response was sent.
    Oversized,
    /// An HTTP request sent more than [`MAX_HEADER_LINES`] header lines;
    /// a `431` response was sent.
    TooManyHeaders,
    /// The stream's read timeout elapsed with no complete request.
    TimedOut,
}

/// While skipping HTTP headers: the endpoint to serve once the blank line
/// arrives, and the header lines skipped so far.
#[derive(Debug, Clone, Copy)]
struct PendingHttp {
    endpoint: Option<Endpoint>,
    headers: usize,
}

/// One admin connection.
pub struct Session<S> {
    stream: S,
    buf: Buffer,
    provider: SnapshotFn,
    history: HistoryFn,
    pending_http: Option<PendingHttp>,
}

fn endpoint_payload(endpoint: Endpoint, provider: SnapshotFn, history: HistoryFn) -> String {
    match endpoint {
        Endpoint::Metrics => expo::render(&provider()),
        Endpoint::Stats => {
            let mut doc = expo::snapshot_json(&provider()).pretty();
            doc.push('\n');
            doc
        }
        Endpoint::Health => "ok\n".to_string(),
        Endpoint::Ready => "ready\n".to_string(),
        Endpoint::History => expo::render_history(&history()),
    }
}

fn content_type(endpoint: Endpoint) -> &'static str {
    match endpoint {
        Endpoint::Stats => "application/json",
        // The Prometheus text format's conventional content type; the
        // history exposition uses the same grammar.
        Endpoint::Metrics | Endpoint::History => "text/plain; version=0.0.4",
        Endpoint::Health | Endpoint::Ready => "text/plain",
    }
}

impl<S: Read + Write> Session<S> {
    /// Wraps a connected stream.
    pub fn new(stream: S, provider: SnapshotFn, history: HistoryFn) -> Self {
        Session {
            stream,
            buf: Buffer::new(),
            provider,
            history,
            pending_http: None,
        }
    }

    fn respond(&mut self, text: &str) -> io::Result<()> {
        self.stream.write_all(text.as_bytes())?;
        self.stream.flush()
    }

    /// Serves the connection to completion. `Ok` carries the orderly exit
    /// reason; `Err` is a transport error (peer reset mid-write and the
    /// like) for the caller to log and drop.
    pub fn run(&mut self) -> io::Result<Exit> {
        loop {
            // Drain every complete frame already buffered (pipelining).
            loop {
                let line = match self.buf.take_line(MAX_LINE) {
                    Ok(Some(line)) => line,
                    Ok(None) => break,
                    Err(too_long) => {
                        let msg = format!(
                            "request line exceeds {MAX_LINE} bytes ({} buffered)\n",
                            too_long.buffered
                        );
                        self.respond(&plain_err(&msg))?;
                        return Ok(Exit::Oversized);
                    }
                };

                if let Some(pending) = self.pending_http.as_mut() {
                    if line.is_empty() {
                        let endpoint = pending.endpoint;
                        self.serve_http(endpoint)?;
                        return Ok(Exit::HttpServed);
                    }
                    pending.headers += 1; // skip an HTTP header line
                    if pending.headers > MAX_HEADER_LINES {
                        let msg = format!("more than {MAX_HEADER_LINES} header lines\n");
                        self.respond(&http_response(
                            431,
                            "Request Header Fields Too Large",
                            "text/plain",
                            &msg,
                        ))?;
                        return Ok(Exit::TooManyHeaders);
                    }
                    continue;
                }

                match parse_request(&line) {
                    Request::Plain(endpoint) => {
                        let payload = endpoint_payload(endpoint, self.provider, self.history);
                        self.respond(&plain_ok(&payload))?;
                    }
                    Request::Quit => {
                        self.respond(&plain_ok("bye\n"))?;
                        return Ok(Exit::Quit);
                    }
                    Request::Http {
                        endpoint,
                        has_headers,
                    } => {
                        if has_headers {
                            self.pending_http = Some(PendingHttp {
                                endpoint,
                                headers: 0,
                            });
                        } else {
                            self.serve_http(endpoint)?;
                            return Ok(Exit::HttpServed);
                        }
                    }
                    Request::Unknown(text) => {
                        // Answer and keep serving: a typo in an interactive
                        // session should not cost the connection.
                        let msg = format!("unknown command: {text}\n");
                        self.respond(&plain_err(&msg))?;
                    }
                }
            }

            match self.buf.fill_from(&mut self.stream) {
                Ok(0) => return Ok(Exit::Eof),
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Exit::TimedOut)
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn serve_http(&mut self, endpoint: Option<Endpoint>) -> io::Result<()> {
        let response = match endpoint {
            Some(endpoint) => http_response(
                200,
                "OK",
                content_type(endpoint),
                &endpoint_payload(endpoint, self.provider, self.history),
            ),
            None => http_response(404, "Not Found", "text/plain", "not found\n"),
        };
        self.respond(&response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcsr_obs::metrics::{HistogramSummary, WindowSeries};

    /// In-memory stream: reads hand back scripted chunks (then EOF), writes
    /// accumulate. Chunks smaller than the session's fill size exercise the
    /// partial-read path exactly like a dribbling socket.
    struct ChunkedStream {
        chunks: Vec<Vec<u8>>,
        next: usize,
        written: Vec<u8>,
    }

    impl ChunkedStream {
        fn new(chunks: Vec<Vec<u8>>) -> Self {
            ChunkedStream {
                chunks,
                next: 0,
                written: Vec::new(),
            }
        }

        fn bytes(data: &[u8], chunk: usize) -> Self {
            Self::new(data.chunks(chunk.max(1)).map(<[u8]>::to_vec).collect())
        }

        fn output(&self) -> String {
            String::from_utf8_lossy(&self.written).into_owned()
        }
    }

    impl Read for ChunkedStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(chunk) = self.chunks.get(self.next) else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n == chunk.len() {
                self.next += 1;
            } else {
                let rest = chunk[n..].to_vec();
                self.chunks[self.next] = rest;
            }
            Ok(n)
        }
    }

    impl Write for ChunkedStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn test_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.push(("queries.total".to_string(), 17));
        snap.windows.push(WindowSeries {
            name: "query.win.neighbors.hub".to_string(),
            kind: "neighbors",
            class: "hub",
            window: 3,
            summary: HistogramSummary {
                count: 4,
                sum: 400,
                max: 200,
                p50: 90,
                p95: 200,
                p99: 200,
            },
        });
        snap
    }

    fn test_history() -> Vec<HistoryWindow> {
        use parcsr_obs::serve::{DegreeClass, QueryKind, WindowCell};
        let summary = HistogramSummary {
            count: 4,
            sum: 400,
            max: 200,
            p50: 90,
            p95: 200,
            p99: 200,
        };
        vec![HistoryWindow {
            window: 9,
            start_ns: 1_000_000,
            end_ns: 2_000_000,
            dur_ns: 1_000_000,
            queries: 4,
            qps: 4_000.0,
            cells: vec![WindowCell {
                kind: QueryKind::Neighbors,
                class: DegreeClass::Hub,
                phases: [summary; 3],
                summary,
            }],
            exemplars: Vec::new(),
        }]
    }

    fn run_session(stream: ChunkedStream) -> (Exit, String) {
        let mut session = Session::new(stream, test_snapshot, test_history);
        let exit = session.run().unwrap();
        (exit, session.stream.output())
    }

    /// Splits a concatenation of `OK/ERR <len>\n<payload>` responses.
    fn split_plain(mut out: &str) -> Vec<(bool, String)> {
        let mut parts = Vec::new();
        while !out.is_empty() {
            let (status, rest) = out.split_once(' ').unwrap();
            let (len, rest) = rest.split_once('\n').unwrap();
            let len: usize = len.parse().unwrap();
            parts.push((status == "OK", rest[..len].to_string()));
            out = &rest[len..];
        }
        parts
    }

    #[test]
    fn metrics_request_in_one_byte_reads_serves_valid_exposition() {
        let (exit, out) = run_session(ChunkedStream::bytes(b"metrics\n", 1));
        assert_eq!(exit, Exit::Eof);
        let responses = split_plain(&out);
        assert_eq!(responses.len(), 1);
        let (ok, payload) = &responses[0];
        assert!(ok);
        let expo = expo::parse(payload).unwrap();
        assert!(expo.saw_eof);
        assert!(expo
            .samples
            .iter()
            .any(|s| s.name == "parcsr_query_win_ns" && s.label("kind") == Some("neighbors")));
    }

    #[test]
    fn pipelined_requests_answer_in_order_on_one_connection() {
        let (exit, out) = run_session(ChunkedStream::bytes(b"health\nready\nstats\nquit\n", 7));
        assert_eq!(exit, Exit::Quit);
        let responses = split_plain(&out);
        assert_eq!(responses.len(), 4);
        assert_eq!(responses[0], (true, "ok\n".to_string()));
        assert_eq!(responses[1], (true, "ready\n".to_string()));
        assert!(responses[2].0);
        assert!(responses[2].1.contains("parcsr.stats.v1"));
        assert_eq!(responses[3], (true, "bye\n".to_string()));
    }

    #[test]
    fn oversized_request_line_gets_error_response_not_panic() {
        let mut line = vec![b'a'; 5000];
        line.push(b'\n');
        let (exit, out) = run_session(ChunkedStream::bytes(&line, 900));
        assert_eq!(exit, Exit::Oversized);
        let responses = split_plain(&out);
        assert_eq!(responses.len(), 1);
        assert!(!responses[0].0);
        assert!(responses[0].1.contains("exceeds 4096 bytes"));
    }

    #[test]
    fn unknown_command_keeps_the_connection_alive() {
        let (exit, out) = run_session(ChunkedStream::bytes(b"bogus\nhealth\n", 3));
        assert_eq!(exit, Exit::Eof);
        let responses = split_plain(&out);
        assert_eq!(responses.len(), 2);
        assert!(
            !responses[0].0,
            "unknown command must produce an ERR response"
        );
        assert!(responses[0].1.contains("unknown command: bogus"));
        assert_eq!(responses[1], (true, "ok\n".to_string()));
    }

    #[test]
    fn http_scrape_skips_headers_and_closes_after_one_exchange() {
        let req = b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n";
        let (exit, out) = run_session(ChunkedStream::bytes(req, 5));
        assert_eq!(exit, Exit::HttpServed);
        assert!(out.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(out.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(out.contains("Connection: close\r\n"));
        let body = out.split("\r\n\r\n").nth(1).unwrap();
        assert!(expo::parse(body).unwrap().saw_eof);
        let len: usize = out
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
    }

    #[test]
    fn history_command_serves_the_ring_as_valid_exposition() {
        let (exit, out) = run_session(ChunkedStream::bytes(b"history\n", 3));
        assert_eq!(exit, Exit::Eof);
        let responses = split_plain(&out);
        assert_eq!(responses.len(), 1);
        let (ok, payload) = &responses[0];
        assert!(ok);
        let expo = expo::parse(payload).unwrap();
        assert!(expo.saw_eof);
        assert!(expo
            .samples
            .iter()
            .any(|s| s.name == "parcsr_history_windows" && s.value == 1.0));
        assert!(expo.samples.iter().any(|s| {
            s.name == "parcsr_query_hist_ns"
                && s.label("window") == Some("9")
                && s.label("class") == Some("hub")
        }));
    }

    #[test]
    fn http_history_scrape_uses_the_exposition_content_type() {
        let req = b"GET /history HTTP/1.1\r\nHost: localhost\r\n\r\n";
        let (exit, out) = run_session(ChunkedStream::bytes(req, 8));
        assert_eq!(exit, Exit::HttpServed);
        assert!(out.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(out.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        let body = out.split("\r\n\r\n").nth(1).unwrap();
        assert!(expo::parse(body).unwrap().saw_eof);
        assert!(body.contains("parcsr_history_qps{window=\"9\"} 4000\n"));
    }

    #[test]
    fn header_lines_past_the_cap_draw_431_and_close() {
        let request = |headers: usize| {
            let mut req = b"GET /metrics HTTP/1.1\r\n".to_vec();
            for i in 0..headers {
                req.extend_from_slice(format!("X-Filler-{i}: x\r\n").as_bytes());
            }
            req.extend_from_slice(b"\r\n");
            req
        };
        // Exactly at the cap is still served.
        let (exit, out) = run_session(ChunkedStream::bytes(&request(MAX_HEADER_LINES), 7));
        assert_eq!(exit, Exit::HttpServed);
        assert!(out.starts_with("HTTP/1.0 200 OK\r\n"));
        // One line over is refused before the blank line arrives.
        let (exit, out) = run_session(ChunkedStream::bytes(&request(MAX_HEADER_LINES + 1), 7));
        assert_eq!(exit, Exit::TooManyHeaders);
        assert!(out.starts_with("HTTP/1.0 431 Request Header Fields Too Large\r\n"));
        assert!(out.contains("Connection: close\r\n"));
        assert!(out.ends_with(&format!("more than {MAX_HEADER_LINES} header lines\n")));
    }

    #[test]
    fn http_unknown_path_is_404() {
        let (exit, out) = run_session(ChunkedStream::bytes(b"GET /nope HTTP/1.0\r\n\r\n", 64));
        assert_eq!(exit, Exit::HttpServed);
        assert!(out.starts_with("HTTP/1.0 404 Not Found\r\n"));
    }

    #[test]
    fn versionless_get_serves_immediately() {
        let (exit, out) = run_session(ChunkedStream::bytes(b"GET /health\n", 64));
        assert_eq!(exit, Exit::HttpServed);
        assert!(out.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(out.ends_with("ok\n"));
    }

    #[test]
    fn read_timeout_surfaces_as_orderly_exit() {
        struct TimeoutAfter(ChunkedStream);
        impl Read for TimeoutAfter {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.next >= self.0.chunks.len() {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
                }
                self.0.read(buf)
            }
        }
        impl Write for TimeoutAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                self.0.flush()
            }
        }
        let stream = TimeoutAfter(ChunkedStream::bytes(b"health\n", 64));
        let mut session = Session::new(stream, test_snapshot, test_history);
        assert_eq!(session.run().unwrap(), Exit::TimedOut);
        assert_eq!(
            split_plain(&session.stream.0.output()),
            [(true, "ok\n".to_string())]
        );
    }
}
