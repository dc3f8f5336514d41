//! Admin-plane request parsing and response framing.
//!
//! Two request syntaxes share one endpoint set:
//!
//! * **Plain**: a single lowercase command per line (`metrics`, `stats`,
//!   `health`, `ready`, `history`, `quit`). Responses are length-prefixed —
//!   `OK <len>\n<len bytes>` or `ERR <len>\n<len bytes>` — so clients can
//!   pipeline commands and split concatenated responses without sniffing
//!   payload contents.
//! * **HTTP**: `GET <path> HTTP/1.x`; headers are skipped up to the blank
//!   line (at most [`MAX_HEADER_LINES`] of them), the response is a minimal `HTTP/1.0` message with
//!   `Content-Length` and `Connection: close`, and the connection closes
//!   after one exchange. Just enough for `curl` and Prometheus scrapers.

/// Longest accepted request line (bytes, excluding the newline). Longer
/// lines draw an error response and a close — see
/// [`crate::buffer::Buffer::take_line`].
pub const MAX_LINE: usize = 4096;

/// Most HTTP header lines accepted per request. The read timeout applies
/// to each read, not to the session, so without a cap a client sending one
/// header line every few seconds would hold its session thread forever.
/// Past the cap the session answers `431` and closes.
pub const MAX_HEADER_LINES: usize = 64;

/// What the admin plane serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Prometheus-style text exposition of the live snapshot.
    Metrics,
    /// JSON `parcsr.stats.v1` document of the live snapshot.
    Stats,
    /// Liveness probe.
    Health,
    /// Readiness probe.
    Ready,
    /// Text exposition of the rotated-window history ring.
    History,
}

impl Endpoint {
    /// The HTTP path serving this endpoint.
    #[must_use]
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Metrics => "/metrics",
            Endpoint::Stats => "/stats",
            Endpoint::Health => "/health",
            Endpoint::Ready => "/ready",
            Endpoint::History => "/history",
        }
    }

    fn from_path(path: &str) -> Option<Self> {
        match path {
            "/metrics" => Some(Endpoint::Metrics),
            "/stats" => Some(Endpoint::Stats),
            "/health" | "/" => Some(Endpoint::Health),
            "/ready" => Some(Endpoint::Ready),
            "/history" => Some(Endpoint::History),
            _ => None,
        }
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Plain-protocol command.
    Plain(Endpoint),
    /// Plain-protocol `quit`: acknowledge and close.
    Quit,
    /// HTTP request line; headers (if `has_headers`) follow up to a blank
    /// line, then one response is sent and the connection closes.
    /// `endpoint` is `None` for unknown paths (404).
    Http {
        /// Resolved endpoint, or `None` → 404.
        endpoint: Option<Endpoint>,
        /// Whether an HTTP version was present, meaning header lines
        /// follow; a bare `GET <path>` (HTTP/0.9 style) has none.
        has_headers: bool,
    },
    /// Anything else; echoed back in an error response.
    Unknown(String),
}

/// Parses one request line (bytes already stripped of the line ending).
/// Non-UTF-8 input degrades to `Unknown` via lossy conversion — the admin
/// plane answers garbage with an error, not a panic.
#[must_use]
pub fn parse_request(line: &[u8]) -> Request {
    let text = String::from_utf8_lossy(line);
    let text = text.trim();
    match text {
        "metrics" => return Request::Plain(Endpoint::Metrics),
        "stats" => return Request::Plain(Endpoint::Stats),
        "health" => return Request::Plain(Endpoint::Health),
        "ready" => return Request::Plain(Endpoint::Ready),
        "history" => return Request::Plain(Endpoint::History),
        "quit" => return Request::Quit,
        _ => {}
    }
    if let Some(rest) = text.strip_prefix("GET ") {
        let mut parts = rest.split_whitespace();
        let path = parts.next().unwrap_or("");
        let has_headers = parts.next().is_some_and(|v| v.starts_with("HTTP/"));
        return Request::Http {
            endpoint: Endpoint::from_path(path),
            has_headers,
        };
    }
    Request::Unknown(text.to_string())
}

/// Frames a plain-protocol success response: `OK <len>\n<payload>`.
#[must_use]
pub fn plain_ok(payload: &str) -> String {
    format!("OK {}\n{payload}", payload.len())
}

/// Frames a plain-protocol error response: `ERR <len>\n<message>`.
#[must_use]
pub fn plain_err(message: &str) -> String {
    format!("ERR {}\n{message}", message.len())
}

/// Frames a minimal HTTP/1.0 response with `Content-Length` and
/// `Connection: close`.
#[must_use]
pub fn http_response(status: u16, reason: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_commands_parse() {
        assert_eq!(parse_request(b"metrics"), Request::Plain(Endpoint::Metrics));
        assert_eq!(parse_request(b"stats"), Request::Plain(Endpoint::Stats));
        assert_eq!(parse_request(b"health"), Request::Plain(Endpoint::Health));
        assert_eq!(parse_request(b"ready"), Request::Plain(Endpoint::Ready));
        assert_eq!(parse_request(b"history"), Request::Plain(Endpoint::History));
        assert_eq!(parse_request(b"quit"), Request::Quit);
        assert_eq!(
            parse_request(b"  health  "),
            Request::Plain(Endpoint::Health)
        );
    }

    #[test]
    fn http_request_lines_parse() {
        assert_eq!(
            parse_request(b"GET /metrics HTTP/1.1"),
            Request::Http {
                endpoint: Some(Endpoint::Metrics),
                has_headers: true
            }
        );
        assert_eq!(
            parse_request(b"GET /stats"),
            Request::Http {
                endpoint: Some(Endpoint::Stats),
                has_headers: false
            }
        );
        assert_eq!(
            parse_request(b"GET /nope HTTP/1.0"),
            Request::Http {
                endpoint: None,
                has_headers: true
            }
        );
        assert_eq!(
            parse_request(b"GET / HTTP/1.1"),
            Request::Http {
                endpoint: Some(Endpoint::Health),
                has_headers: true
            }
        );
        assert_eq!(
            parse_request(b"GET /history HTTP/1.1"),
            Request::Http {
                endpoint: Some(Endpoint::History),
                has_headers: true
            }
        );
    }

    #[test]
    fn garbage_is_unknown_not_a_panic() {
        assert!(matches!(parse_request(b"DELETE /x"), Request::Unknown(_)));
        assert!(matches!(
            parse_request(&[0xff, 0xfe, b'\0']),
            Request::Unknown(_)
        ));
        assert!(matches!(parse_request(b""), Request::Unknown(_)));
    }

    #[test]
    fn framing_lengths_match_payloads() {
        assert_eq!(plain_ok("ok\n"), "OK 3\nok\n");
        assert_eq!(plain_err("bad"), "ERR 3\nbad");
        let http = http_response(200, "OK", "text/plain", "body\n");
        assert!(http.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(http.contains("Content-Length: 5\r\n"));
        assert!(http.contains("Connection: close\r\n\r\nbody\n"));
    }
}
