//! Minimal HTTP/1.1 message framing.
//!
//! Just enough to deploy a SOAP service "over HTTP" the way the paper's
//! WSDL binding declares: POST requests with a `SOAPAction` header and
//! `text/xml` bodies, plus the matching responses.

use std::fmt;

/// Errors from HTTP parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError(pub String);

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "http error: {}", self.0)
    }
}

impl std::error::Error for HttpError {}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method (`POST` for SOAP calls).
    pub method: String,
    /// Request path.
    pub path: String,
    /// Header name/value pairs in order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 500, ...).
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Header name/value pairs in order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// An HTTP request parsed in place: every field borrows the received
/// bytes, so the receiver of a shipped message reads its head and hands
/// the body to the decoder without copying either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRef<'a> {
    /// Method (`POST` for SOAP calls).
    pub method: &'a str,
    /// Request path.
    pub path: &'a str,
    /// Header name/value pairs in order.
    pub headers: Vec<(&'a str, &'a str)>,
    /// Body bytes.
    pub body: &'a [u8],
}

impl<'a> RequestRef<'a> {
    /// Parses wire bytes; accepts and rejects exactly what
    /// [`Request::parse`] does.
    pub fn parse(bytes: &'a [u8]) -> Result<RequestRef<'a>, HttpError> {
        let (start, headers, body) = parse_message(bytes)?;
        let mut parts = start.split(' ');
        let method = parts
            .next()
            .ok_or_else(|| HttpError("missing method".into()))?;
        let path = parts
            .next()
            .ok_or_else(|| HttpError("missing path".into()))?;
        let version = parts
            .next()
            .ok_or_else(|| HttpError("missing version".into()))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError(format!("unsupported version {version}")));
        }
        Ok(RequestRef {
            method,
            path,
            headers,
            body,
        })
    }
}

/// The wire bytes of [`Request::soap_post`], written head then body into
/// one buffer: `body` is copied once, where building the owned request
/// and serializing it copies it twice.
pub fn soap_post_bytes(path: &str, soap_action: &str, body: &[u8]) -> Vec<u8> {
    let head = format!(
        "POST {path} HTTP/1.1\r\nContent-Type: text/xml; charset=utf-8\r\n\
         SOAPAction: \"{soap_action}\"\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body);
    out
}

impl Request {
    /// Builds a SOAP-style POST.
    pub fn soap_post(path: &str, soap_action: &str, body: Vec<u8>) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: vec![
                ("Content-Type".into(), "text/xml; charset=utf-8".into()),
                ("SOAPAction".into(), format!("\"{soap_action}\"")),
                ("Content-Length".into(), body.len().to_string()),
            ],
            body,
        }
    }

    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_of(&self.headers, name)
    }

    /// Serializes to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!("{} {} HTTP/1.1\r\n", self.method, self.path).into_bytes();
        write_headers(&mut out, &self.headers, self.body.len());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses wire bytes into an owned request; [`RequestRef::parse`] is
    /// the same parse without the copies.
    pub fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        let parsed = RequestRef::parse(bytes)?;
        Ok(Request {
            method: parsed.method.into(),
            path: parsed.path.into(),
            headers: owned_headers(&parsed.headers),
            body: parsed.body.to_vec(),
        })
    }
}

impl Response {
    /// A 200 response with a `text/xml` body.
    pub fn ok_xml(body: Vec<u8>) -> Response {
        Response {
            status: 200,
            reason: "OK".into(),
            headers: vec![
                ("Content-Type".into(), "text/xml; charset=utf-8".into()),
                ("Content-Length".into(), body.len().to_string()),
            ],
            body,
        }
    }

    /// A 500 response (SOAP faults ride on 500 per SOAP 1.1 §6.2).
    pub fn server_error_xml(body: Vec<u8>) -> Response {
        Response {
            status: 500,
            reason: "Internal Server Error".into(),
            headers: vec![
                ("Content-Type".into(), "text/xml; charset=utf-8".into()),
                ("Content-Length".into(), body.len().to_string()),
            ],
            body,
        }
    }

    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_of(&self.headers, name)
    }

    /// Serializes to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason).into_bytes();
        write_headers(&mut out, &self.headers, self.body.len());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses wire bytes.
    pub fn parse(bytes: &[u8]) -> Result<Response, HttpError> {
        let (start, headers, body) = parse_message(bytes)?;
        let mut parts = start.splitn(3, ' ');
        let version = parts
            .next()
            .ok_or_else(|| HttpError("missing version".into()))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError(format!("unsupported version {version}")));
        }
        let status = parts
            .next()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| HttpError("bad status".into()))?;
        let reason = parts.next().unwrap_or("").to_string();
        Ok(Response {
            status,
            reason,
            headers: owned_headers(&headers),
            body: body.to_vec(),
        })
    }
}

fn header_of<'a, S: AsRef<str>>(headers: &'a [(S, S)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.as_ref().eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_ref())
}

fn owned_headers(headers: &[(&str, &str)]) -> Vec<(String, String)> {
    headers
        .iter()
        .map(|(n, v)| (n.to_string(), v.to_string()))
        .collect()
}

fn write_headers(out: &mut Vec<u8>, headers: &[(String, String)], body_len: usize) {
    let mut has_len = false;
    for (n, v) in headers {
        if n.eq_ignore_ascii_case("content-length") {
            has_len = true;
        }
        out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
    }
    if !has_len {
        out.extend_from_slice(format!("Content-Length: {body_len}\r\n").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
}

/// Splits a message into start line, headers and body, all borrowed.
#[allow(clippy::type_complexity)]
fn parse_message(bytes: &[u8]) -> Result<(&str, Vec<(&str, &str)>, &[u8]), HttpError> {
    let split = find_header_end(bytes).ok_or_else(|| HttpError("no header terminator".into()))?;
    let head =
        std::str::from_utf8(&bytes[..split]).map_err(|_| HttpError("non-utf8 headers".into()))?;
    let mut lines = head.split("\r\n");
    let start = lines
        .next()
        .ok_or_else(|| HttpError("empty message".into()))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (n, v) = line
            .split_once(':')
            .ok_or_else(|| HttpError(format!("bad header {line:?}")))?;
        headers.push((n.trim(), v.trim()));
    }
    let body_start = split + 4;
    let body = &bytes[body_start..];
    if let Some(len) = header_of(&headers, "content-length") {
        let expected: usize = len
            .parse()
            .map_err(|_| HttpError(format!("bad content-length {len:?}")))?;
        if expected != body.len() {
            return Err(HttpError(format!(
                "content-length {expected} but body has {} bytes",
                body.len()
            )));
        }
    }
    Ok((start, headers, body))
}

pub(crate) fn find_header_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::soap_post("/customerinfo", "urn:GetCustomers", b"<x/>".to_vec());
        let parsed = Request::parse(&req.to_bytes()).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(parsed.header("soapaction"), Some("\"urn:GetCustomers\""));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok_xml(b"<r/>".to_vec());
        let parsed = Response::parse(&resp.to_bytes()).unwrap();
        assert_eq!(parsed, resp);
        assert_eq!(parsed.status, 200);
    }

    #[test]
    fn fault_uses_500() {
        let resp = Response::server_error_xml(b"<f/>".to_vec());
        assert_eq!(Response::parse(&resp.to_bytes()).unwrap().status, 500);
    }

    #[test]
    fn content_length_checked() {
        let mut bytes = Request::soap_post("/", "a", b"1234".to_vec()).to_bytes();
        bytes.pop(); // truncate body
        assert!(Request::parse(&bytes).is_err());
    }

    #[test]
    fn garbage_rejected() {
        assert!(Request::parse(b"not http").is_err());
        assert!(Response::parse(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(Request::parse(b"GET / SPDY/9\r\n\r\n").is_err());
    }

    #[test]
    fn head_then_body_writes_the_owned_request_bytes() {
        let bodies: [&[u8]; 3] = [b"", b"<x/>", &[0, 255, 13, 10, 13, 10, 7]];
        for body in bodies {
            for action in ["ITEM", "ITEM+3 [0/4] 0123456789abcdef:0000000000000009", ""] {
                assert_eq!(
                    soap_post_bytes("/exchange", action, body),
                    Request::soap_post("/exchange", action, body.to_vec()).to_bytes()
                );
            }
        }
    }

    #[test]
    fn borrowed_parse_accepts_and_rejects_what_the_owned_parse_does() {
        let good = soap_post_bytes("/exchange", "ITEM", b"\r\n\r\nbody with a blank line");
        let mut short = good.clone();
        short.pop();
        let mut long = good.clone();
        long.push(b'!');
        let cases: [&[u8]; 8] = [
            &good,
            &short,
            &long,
            b"not http",
            b"GET / SPDY/9\r\n\r\n",
            b"POST /\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n",
            b"POST / HTTP/1.1\r\nno colon\r\n\r\n",
        ];
        for bytes in cases {
            match (RequestRef::parse(bytes), Request::parse(bytes)) {
                (Ok(borrowed), Ok(owned)) => {
                    assert_eq!(borrowed.method, owned.method);
                    assert_eq!(borrowed.path, owned.path);
                    assert_eq!(borrowed.body, owned.body);
                    assert_eq!(owned_headers(&borrowed.headers), owned.headers);
                }
                (Err(borrowed), Err(owned)) => assert_eq!(borrowed, owned),
                (borrowed, owned) => panic!("parses disagree: {borrowed:?} vs {owned:?}"),
            }
        }
        assert!(RequestRef::parse(&good).is_ok());
        assert!(RequestRef::parse(&short).is_err() && RequestRef::parse(&long).is_err());
    }

    #[test]
    fn binary_body_preserved() {
        let body: Vec<u8> = (0u8..=255).collect();
        let req = Request::soap_post("/bin", "x", body.clone());
        assert_eq!(Request::parse(&req.to_bytes()).unwrap().body, body);
    }
}
