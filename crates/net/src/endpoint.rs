//! Service endpoints: dispatching SOAP calls the way a deployed provider
//! would.
//!
//! The WSDL of the paper's Figure 1 deploys `CustomerInfoService` "using
//! the SOAP 1.1 protocol over HTTP". A [`ServiceHost`] plays that role in
//! the simulation: handlers registered under their `soapAction` receive
//! the parsed request envelope and return a response envelope; transport
//! errors and handler failures map onto HTTP status codes and SOAP faults
//! exactly as SOAP 1.1 §6.2 prescribes (faults ride on HTTP 500).
//!
//! A call's request and reply travel sealed: the last header line,
//! `X-Word-Sum`, carries the [`word_sum`] of the message as it reads
//! without that line. A delivery that is empty, unsealed or does not
//! match its seal is a `Client` fault — [`ServiceHost::dispatch`] never
//! hands a damaged request to a handler, and [`call`] never returns a
//! damaged reply.

use crate::channel::Link;
use crate::http::{find_header_end, Request, Response};
use crate::soap::{SoapEnvelope, SoapFault};
use std::collections::HashMap;
use xdx_relational::word_sum;

/// A handler for one operation: request envelope in, response envelope or
/// fault out.
pub type Handler = Box<dyn FnMut(&SoapEnvelope) -> Result<SoapEnvelope, SoapFault>>;

/// A SOAP-over-HTTP service host.
#[derive(Default)]
pub struct ServiceHost {
    routes: HashMap<String, Handler>,
}

impl ServiceHost {
    /// An empty host.
    pub fn new() -> ServiceHost {
        ServiceHost::default()
    }

    /// Registers `handler` for calls whose `SOAPAction` is `action`.
    ///
    /// Registration is last-wins: re-routing an action replaces its
    /// handler, and the previous one is *returned* rather than silently
    /// discarded, so callers can detect (or assert against) accidental
    /// double registration. Returns `None` for a first registration.
    pub fn route(
        &mut self,
        action: &str,
        handler: impl FnMut(&SoapEnvelope) -> Result<SoapEnvelope, SoapFault> + 'static,
    ) -> Option<Handler> {
        self.routes.insert(action.to_string(), Box::new(handler))
    }

    /// Registered actions, sorted.
    pub fn actions(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.routes.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Dispatches sealed HTTP bytes (see the module docs) to the
    /// matching handler, producing the raw HTTP response. Never panics:
    /// unsealed or malformed requests and handler faults become
    /// well-formed error responses, and a request that does not match its
    /// seal reaches no handler.
    pub fn dispatch(&mut self, sealed: &[u8]) -> Response {
        let Some(raw) = unseal(sealed) else {
            return fault_response(SoapFault {
                code: "Client".into(),
                string: "request lost or damaged in transit".into(),
            });
        };
        let request = match Request::parse(&raw) {
            Ok(r) => r,
            Err(e) => {
                return fault_response(SoapFault {
                    code: "Client".into(),
                    string: format!("malformed request: {e}"),
                })
            }
        };
        let action = request
            .header("SOAPAction")
            .unwrap_or("")
            .trim_matches('"')
            .to_string();
        let envelope = match std::str::from_utf8(&request.body)
            .map_err(|e| e.to_string())
            .and_then(SoapEnvelope::parse)
        {
            Ok(env) => env,
            Err(e) => {
                return fault_response(SoapFault {
                    code: "Client".into(),
                    string: format!("malformed envelope: {e}"),
                })
            }
        };
        match self.routes.get_mut(&action) {
            None => fault_response(SoapFault {
                code: "Client".into(),
                string: format!("no such operation: {action:?}"),
            }),
            Some(handler) => match handler(&envelope) {
                Ok(reply) => Response::ok_xml(reply.to_xml().into_bytes()),
                Err(fault) => fault_response(fault),
            },
        }
    }
}

fn fault_response(fault: SoapFault) -> Response {
    Response::server_error_xml(SoapEnvelope::fault(&fault).to_xml().into_bytes())
}

/// The name of the header line that seals a call's message.
const SEAL: &str = "X-Word-Sum: ";

/// `message` (serialized HTTP) with its seal line added as the last line
/// of its head.
fn seal(mut message: Vec<u8>) -> Vec<u8> {
    let line = format!("{SEAL}{:016x}\r\n", word_sum(&message));
    let at = head_end(&message).expect("a serialized message has a head");
    message.splice(at..at, line.bytes());
    message
}

/// The message `delivered` carries with its seal line taken out; `None`
/// when its head ends in no seal line, or in one its bytes do not match.
fn unseal(delivered: &[u8]) -> Option<Vec<u8>> {
    let at = head_end(delivered)?;
    let line_start = delivered[..at - 2].iter().rposition(|&b| b == b'\n')? + 1;
    let line = &delivered[line_start..at];
    let sum = line.strip_prefix(SEAL.as_bytes())?.strip_suffix(b"\r\n")?;
    let message = [&delivered[..line_start], &delivered[at..]].concat();
    (sum == format!("{:016x}", word_sum(&message)).as_bytes()).then_some(message)
}

/// Where the blank line that ends an HTTP head starts.
fn head_end(bytes: &[u8]) -> Option<usize> {
    find_header_end(bytes).map(|p| p + 2)
}

/// Calls a remote `host` across `link`: serializes and seals the request,
/// ships it, dispatches at the far side, seals the response and ships it
/// back, and decodes it. Returns the reply envelope, or the fault as an
/// error; a request or reply lost or damaged on the link is a `Client`
/// fault.
pub fn call(
    link: &mut Link,
    host: &mut ServiceHost,
    path: &str,
    action: &str,
    request: &SoapEnvelope,
) -> Result<SoapEnvelope, SoapFault> {
    let wire = seal(Request::soap_post(path, action, request.to_xml().into_bytes()).to_bytes());
    let (_, delivered) = link.transmit(format!("call {action}"), &wire);
    let resp_wire = seal(host.dispatch(&delivered).to_bytes());
    let (_, resp_delivered) = link.transmit(format!("reply {action}"), &resp_wire);
    let resp_raw = unseal(&resp_delivered).ok_or_else(|| SoapFault {
        code: "Client".into(),
        string: "response lost or damaged in transit".into(),
    })?;
    let arrived = Response::parse(&resp_raw).map_err(|e| SoapFault {
        code: "Client".into(),
        string: format!("malformed response: {e}"),
    })?;
    let envelope = std::str::from_utf8(&arrived.body)
        .map_err(|e| e.to_string())
        .and_then(SoapEnvelope::parse)
        .map_err(|e| SoapFault {
            code: "Client".into(),
            string: format!("malformed response envelope: {e}"),
        })?;
    match envelope.as_fault() {
        Some(fault) => Err(fault),
        None => Ok(envelope),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{FaultProfile, NetworkProfile};
    use std::cell::Cell;
    use std::rc::Rc;
    use xdx_xml::Element;

    fn host() -> ServiceHost {
        let mut h = ServiceHost::new();
        h.route("urn:Echo", |req| {
            Ok(SoapEnvelope::new(
                Element::new("EchoResponse").with_text(req.body.text()),
            ))
        });
        h.route("urn:Fail", |_| {
            Err(SoapFault {
                code: "Server".into(),
                string: "deliberate".into(),
            })
        });
        h
    }

    #[test]
    fn round_trip_call() {
        let mut link = Link::new(NetworkProfile::lan());
        let mut h = host();
        let req = SoapEnvelope::new(Element::new("Echo").with_text("hello"));
        let reply = call(&mut link, &mut h, "/svc", "urn:Echo", &req).unwrap();
        assert_eq!(reply.body.name, "EchoResponse");
        assert_eq!(reply.body.text(), "hello");
        assert_eq!(link.message_count(), 2); // request + response
    }

    #[test]
    fn handler_faults_become_soap_faults() {
        let mut link = Link::new(NetworkProfile::lan());
        let mut h = host();
        let req = SoapEnvelope::new(Element::new("Fail"));
        let err = call(&mut link, &mut h, "/svc", "urn:Fail", &req).unwrap_err();
        assert_eq!(err.code, "Server");
        assert_eq!(err.string, "deliberate");
    }

    #[test]
    fn unknown_action_is_a_client_fault() {
        let mut link = Link::new(NetworkProfile::lan());
        let mut h = host();
        let req = SoapEnvelope::new(Element::new("X"));
        let err = call(&mut link, &mut h, "/svc", "urn:Nope", &req).unwrap_err();
        assert_eq!(err.code, "Client");
        assert!(err.string.contains("no such operation"));
    }

    #[test]
    fn malformed_bytes_are_rejected_gracefully() {
        let mut h = host();
        for raw in [
            &b"not http at all"[..],
            &seal(b"not http at all\r\n\r\n".to_vec()),
        ] {
            let resp = h.dispatch(raw);
            assert_eq!(resp.status, 500);
            let env = SoapEnvelope::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            assert!(env.is_fault());
        }
    }

    #[test]
    fn a_seal_comes_off_as_it_went_on() {
        let wire = Request::soap_post("/svc", "urn:Echo", b"<x/>".to_vec()).to_bytes();
        let sealed = seal(wire.clone());
        assert_eq!(unseal(&sealed), Some(wire.clone()));
        assert_eq!(unseal(&wire), None, "an unsealed message");
        assert_eq!(unseal(b""), None, "an empty delivery");
        for at in 0..sealed.len() {
            let mut damaged = sealed.clone();
            damaged[at] ^= 0x20;
            assert_eq!(unseal(&damaged), None, "byte {at} flipped");
        }
    }

    /// A handler that echoes its request and counts its calls, failing
    /// the test if a request reaches it changed.
    fn counting_host(calls: &Rc<Cell<u32>>) -> ServiceHost {
        let mut h = ServiceHost::new();
        let calls = Rc::clone(calls);
        h.route("urn:Echo", move |req| {
            calls.set(calls.get() + 1);
            assert_eq!(req.body.text(), "hello", "a damaged request was dispatched");
            Ok(SoapEnvelope::new(
                Element::new("EchoResponse").with_text(req.body.text()),
            ))
        });
        h
    }

    #[test]
    fn a_corrupted_message_is_a_fault_never_a_changed_reply() {
        let req = SoapEnvelope::new(Element::new("Echo").with_text("hello"));
        for seed in 0..32 {
            for p in [1.0, 0.5] {
                let calls = Rc::new(Cell::new(0));
                let mut h = counting_host(&calls);
                let corrupt = FaultProfile {
                    corrupt_probability: p,
                    ..FaultProfile::healthy()
                };
                let mut link =
                    Link::new(NetworkProfile::lan()).with_fault_profile(corrupt.with_seed(seed));
                match call(&mut link, &mut h, "/svc", "urn:Echo", &req) {
                    Ok(reply) => {
                        assert_eq!(reply.body.name, "EchoResponse", "seed {seed}");
                        assert_eq!(reply.body.text(), "hello", "seed {seed}");
                    }
                    Err(fault) => assert_eq!(fault.code, "Client", "seed {seed}"),
                }
                if p == 1.0 {
                    assert_eq!(
                        calls.get(),
                        0,
                        "seed {seed}: a corrupted request was dispatched"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupted_link_surfaces_as_fault() {
        // Every message is lost: the request reaches no handler, and the
        // caller sees a fault, not an empty success.
        let mut link =
            Link::new(NetworkProfile::lan()).with_fault_profile(FaultProfile::drops(1.0, 0));
        let calls = Rc::new(Cell::new(0));
        let mut h = counting_host(&calls);
        let req = SoapEnvelope::new(Element::new("Echo").with_text("hello"));
        let err = call(&mut link, &mut h, "/svc", "urn:Echo", &req).unwrap_err();
        assert_eq!(err.code, "Client");
        assert!(err.string.contains("lost or damaged"), "{}", err.string);
        assert_eq!(calls.get(), 0, "a lost request reached a handler");
    }

    #[test]
    fn actions_listing() {
        assert_eq!(host().actions(), vec!["urn:Echo", "urn:Fail"]);
    }

    #[test]
    fn rerouting_returns_the_displaced_handler() {
        let mut h = ServiceHost::new();
        assert!(
            h.route("urn:Op", |_| Ok(SoapEnvelope::new(
                Element::new("First").with_text("1")
            )))
            .is_none(),
            "first registration displaces nothing"
        );
        let mut old = h
            .route("urn:Op", |_| {
                Ok(SoapEnvelope::new(Element::new("Second").with_text("2")))
            })
            .expect("second registration returns the first handler");
        // The displaced handler still works standalone...
        let probe = SoapEnvelope::new(Element::new("Probe"));
        assert_eq!(old(&probe).unwrap().body.name, "First");
        // ...and dispatch now reaches the replacement (last wins).
        let mut link = Link::new(NetworkProfile::lan());
        let reply = call(&mut link, &mut h, "/svc", "urn:Op", &probe).unwrap();
        assert_eq!(reply.body.name, "Second");
    }
}
