//! A minimal hand-rolled HTTP/1.0 server for scrape endpoints.
//!
//! The observability plane needs a way for *foreign* tooling — a
//! Prometheus scraper, `curl`, a browser — to read fleet state without
//! speaking the Ironman wire protocol. This module is the smallest
//! server that serves that purpose honestly, in the workspace's
//! no-crates.io style: a nonblocking accept loop on one background
//! thread, blocking per-request I/O with short timeouts, `GET`-only
//! routing through a caller-supplied handler, and `Connection: close`
//! semantics (HTTP/1.0 — one request, one response, one connection).
//!
//! It is deliberately *not* a general web server: no keep-alive, no
//! chunked encoding, no request bodies, an 8 KiB request cap. A scrape
//! endpoint is read-only and tiny; everything beyond that is attack
//! surface.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on a request head (request line + headers). Anything
/// longer is rejected with `413` before buffering more.
const MAX_REQUEST_LEN: usize = 8 * 1024;

/// Per-connection read/write timeout: a stalled scraper cannot pin the
/// accept thread for longer than this.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// Total deadline for reading one request head. The per-read
/// [`IO_TIMEOUT`] only bounds a *silent* peer; a slow-loris client that
/// dribbles one byte per poll resets it forever and would otherwise own
/// the accept thread for up to `MAX_REQUEST_LEN` reads. Past this
/// wall-clock budget the request is answered `408` regardless of how
/// recently bytes arrived (worst case: deadline + one in-flight read).
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Accept-loop poll interval while idle (the listener is nonblocking).
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// A parsed request line: method and path, headers discarded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// The request method (`GET` for everything this server accepts).
    pub method: String,
    /// The request path, query string included, undecoded.
    pub path: String,
}

/// A response the handler hands back: status, content type, body.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// HTTP status code (200, 404, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A `200 OK` plain-text response.
    pub fn text(body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status: 200,
            content_type: "text/plain; charset=utf-8".to_string(),
            body: body.into().into_bytes(),
        }
    }

    /// A `200 OK` HTML response.
    pub fn html(body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status: 200,
            content_type: "text/html; charset=utf-8".to_string(),
            body: body.into().into_bytes(),
        }
    }

    /// The stock `404 Not Found` response.
    pub fn not_found() -> HttpResponse {
        HttpResponse {
            status: 404,
            content_type: "text/plain; charset=utf-8".to_string(),
            body: b"not found\n".to_vec(),
        }
    }
}

/// The handler invoked per request.
pub type HttpHandler = dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync;

/// A running HTTP/1.0 server: one background accept thread, stopped
/// explicitly with [`HttpServer::stop`] or implicitly on drop.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` and starts serving `handler` on a background
    /// thread. The handler runs on the accept thread — it must be fast
    /// (render from already-computed state, never block on the fleet).
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn serve<A, F>(addr: A, handler: F) -> io::Result<HttpServer>
    where
        A: ToSocketAddrs,
        F: Fn(&HttpRequest) -> HttpResponse + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&listener, &handler, &stop))
        };
        Ok(HttpServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .finish()
    }
}

fn accept_loop(listener: &TcpListener, handler: &HttpHandler, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Per-connection errors (resets, timeouts, garbage) end
                // that connection only; the loop keeps serving.
                let _ = serve_connection(stream, handler);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

fn serve_connection(stream: TcpStream, handler: &HttpHandler) -> io::Result<()> {
    let mut stream = stream;
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let (response, unread_input) = match read_request(&mut stream) {
        Ok(req) if req.method == "GET" => (handler(&req), false),
        Ok(_) => (
            HttpResponse {
                status: 405,
                content_type: "text/plain; charset=utf-8".to_string(),
                body: b"method not allowed\n".to_vec(),
            },
            true,
        ),
        Err(status) => (
            HttpResponse {
                status,
                content_type: "text/plain; charset=utf-8".to_string(),
                body: b"bad request\n".to_vec(),
            },
            true,
        ),
    };
    write_response(&mut stream, &response)?;
    if unread_input {
        // Closing with unread bytes in the receive buffer sends an RST
        // that can clobber the response before the peer reads it. Drain
        // a bounded amount (the peer may still be mid-send) so the error
        // status actually arrives.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut sink = [0u8; 4096];
        let mut budget = 256 * 1024usize;
        while budget > 0 {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(n) => budget = budget.saturating_sub(n),
            }
        }
    }
    Ok(())
}

/// Reads and parses the request head (through the blank line).
/// Returns the HTTP status to answer with on failure.
fn read_request(stream: &mut TcpStream) -> Result<HttpRequest, u16> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if buf.len() >= MAX_REQUEST_LEN {
            return Err(413);
        }
        if Instant::now() >= deadline {
            return Err(408);
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // peer closed after (or mid-) head
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(408),
        }
    }
    let head = std::str::from_utf8(&buf).map_err(|_| 400u16)?;
    let request_line = head.lines().next().ok_or(400u16)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(400u16)?.to_string();
    let path = parts.next().ok_or(400u16)?.to_string();
    // The version token is optional (HTTP/0.9-style "GET /path" is
    // accepted); anything after it is ignored.
    Ok(HttpRequest { method, path })
}

fn write_response(stream: &mut TcpStream, resp: &HttpResponse) -> io::Result<()> {
    let reason = match resp.status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        _ => "Bad Request",
    };
    let head = format!(
        "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        reason,
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

/// A convenience client for tests and examples: one blocking `GET`,
/// returning `(status, body)`.
///
/// # Errors
///
/// Propagates connect/read failures and malformed status lines.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: ironman\r\n\r\n")?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .or_else(|| raw.split_once("\n\n"))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header/body split"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_server() -> HttpServer {
        HttpServer::serve("127.0.0.1:0", |req: &HttpRequest| match req.path.as_str() {
            "/metrics" => HttpResponse::text("up 1\n"),
            "/fleet" => HttpResponse::html("<html>fleet</html>"),
            _ => HttpResponse::not_found(),
        })
        .expect("bind loopback")
    }

    #[test]
    fn serves_routed_get_requests() {
        let server = demo_server();
        let (status, body) = http_get(server.addr(), "/metrics").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "up 1\n");
        let (status, body) = http_get(server.addr(), "/fleet").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("fleet"));
        let (status, _) = http_get(server.addr(), "/nope").unwrap();
        assert_eq!(status, 404);
        server.stop();
    }

    #[test]
    fn rejects_non_get_methods() {
        let server = demo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        write!(s, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.0 405"), "{out}");
        server.stop();
    }

    #[test]
    fn oversized_request_head_rejected() {
        let server = demo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        // A request line that never ends: the server must cut it off at
        // the cap with 413 instead of buffering without bound.
        let junk = vec![b'a'; MAX_REQUEST_LEN + 1024];
        s.write_all(b"GET /").unwrap();
        s.write_all(&junk).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.0 413"), "{out}");
        server.stop();
    }

    #[test]
    fn stop_joins_and_frees_the_port() {
        let server = demo_server();
        let addr = server.addr();
        server.stop();
        // The accept thread exits; a fresh bind on the same port works.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok());
    }

    #[test]
    fn slow_loris_dribble_gets_408_at_the_deadline() {
        let server = demo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        // Each dribbled byte lands well inside IO_TIMEOUT, so only the
        // total REQUEST_DEADLINE can cut this connection off.
        s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        write!(s, "GET /metrics HTTP/1.0\r\nX-Dribble: ").unwrap();
        let started = Instant::now();
        let mut out = Vec::new();
        loop {
            assert!(
                started.elapsed() < REQUEST_DEADLINE + Duration::from_secs(3),
                "slow-loris held the connection past the deadline"
            );
            let _ = s.write_all(b"a");
            let mut bytes = [0u8; 256];
            match s.read(&mut bytes) {
                Ok(0) => break, // server answered and closed
                Ok(n) => out.extend_from_slice(&bytes[..n]),
                Err(_) => {} // read timeout: keep dribbling
            }
        }
        let reply = String::from_utf8_lossy(&out);
        assert!(reply.starts_with("HTTP/1.0 408"), "{reply}");
        assert!(
            started.elapsed() >= REQUEST_DEADLINE - Duration::from_millis(100),
            "408 must be the deadline firing, not an early error"
        );
        // The accept thread is free again: a normal scrape succeeds.
        let (status, body) = http_get(server.addr(), "/metrics").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "up 1\n");
        server.stop();
    }

    #[test]
    fn malformed_head_gets_400() {
        let server = demo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"\xff\xfe\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.0 400"), "{out}");
        server.stop();
    }
}
