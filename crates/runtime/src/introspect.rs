//! The live introspection endpoint: a std-only HTTP/1.1 listener
//! serving the runtime's observability surfaces while it runs.
//!
//! Opt-in via [`crate::RuntimeConfig::with_introspect_addr`]. One
//! background thread accepts connections non-blockingly (polling the
//! shutdown flag between accepts), reads one GET request per
//! connection, and answers from a handler closure the runtime
//! provides — the module itself knows nothing about sessions or
//! metrics, only HTTP plumbing. Responses always carry
//! `Content-Length` and `Connection: close`, so any HTTP client (or a
//! bare `std::net::TcpStream`) can scrape it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps between polls when idle.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Per-connection read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// One response from the runtime's route handler.
pub(crate) struct IntrospectReply {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: String,
}

/// The listener thread plus its shutdown handshake.
pub(crate) struct IntrospectServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl IntrospectServer {
    /// Binds `addr` (port 0 allowed) and spawns the accept loop.
    pub(crate) fn start<H>(addr: SocketAddr, handler: H) -> std::io::Result<IntrospectServer>
    where
        H: Fn(&str) -> IntrospectReply + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("xdx-introspect".into())
            .spawn(move || accept_loop(&listener, &stop_flag, &handler))
            .expect("spawn introspect listener");
        Ok(IntrospectServer {
            addr: bound,
            stop,
            handle: Some(handle),
        })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the accept loop and joins it.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for IntrospectServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop<H>(listener: &TcpListener, stop: &AtomicBool, handler: &H)
where
    H: Fn(&str) -> IntrospectReply,
{
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => serve_connection(stream, handler),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Reads one request, answers it, closes. Malformed requests get a 400;
/// anything that isn't a GET gets a 405.
fn serve_connection<H>(mut stream: TcpStream, handler: &H)
where
    H: Fn(&str) -> IntrospectReply,
{
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let reply = match read_request_path(&mut stream) {
        Some((method, path)) if method == "GET" => handler(&path),
        Some(_) => IntrospectReply {
            status: 405,
            content_type: "text/plain",
            body: "method not allowed\n".into(),
        },
        None => IntrospectReply {
            status: 400,
            content_type: "text/plain",
            body: "bad request\n".into(),
        },
    };
    let reason = match reply.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "OK",
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reply.status,
        reason,
        reply.content_type,
        reply.body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(reply.body.as_bytes());
    let _ = stream.flush();
}

/// Reads until the end of the header block and parses the request line.
/// Query strings are stripped; only the path routes.
fn read_request_path(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 16 * 1024 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    Some((method, path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_routes_and_closes() {
        let mut server =
            IntrospectServer::start("127.0.0.1:0".parse().unwrap(), |path| IntrospectReply {
                status: if path == "/ok" { 200 } else { 404 },
                content_type: "text/plain",
                body: format!("path={path}\n"),
            })
            .unwrap();
        let addr = server.addr();
        let ok = fetch(addr, "GET /ok HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("path=/ok"));
        assert!(ok.contains("Content-Length: 9"));
        let missing = fetch(addr, "GET /nope?q=1 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        assert!(missing.contains("path=/nope"), "query string stripped");
        let post = fetch(addr, "POST /ok HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(post.starts_with("HTTP/1.1 405"), "{post}");
        server.shutdown();
        // Shutdown drops the listener: the port stops answering.
        assert!(
            TcpStream::connect(addr).is_err(),
            "endpoint still listening after shutdown"
        );
    }
}
