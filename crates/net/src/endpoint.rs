//! Service endpoints: dispatching SOAP calls the way a deployed provider
//! would.
//!
//! The WSDL of the paper's Figure 1 deploys `CustomerInfoService` "using
//! the SOAP 1.1 protocol over HTTP". A [`ServiceHost`] plays that role in
//! the simulation: handlers registered under their `soapAction` receive
//! the parsed request envelope and return a response envelope; transport
//! errors and handler failures map onto HTTP status codes and SOAP faults
//! exactly as SOAP 1.1 §6.2 prescribes (faults ride on HTTP 500).

use crate::channel::Link;
use crate::http::{Request, Response};
use crate::soap::{SoapEnvelope, SoapFault};
use std::collections::HashMap;

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

    /// Dispatches raw HTTP bytes to the matching handler, producing the
    /// raw HTTP response. Never panics: malformed requests and handler
    /// faults become well-formed error responses.
    pub fn dispatch(&mut self, raw: &[u8]) -> Response {
        let request = match Request::parse(raw) {
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

/// Calls a remote `host` across `link`: serializes the request, ships it,
/// dispatches at the far side, ships the response back, and decodes it.
/// Returns the reply envelope, or the fault as an error.
pub fn call(
    link: &mut Link,
    host: &mut ServiceHost,
    path: &str,
    action: &str,
    request: &SoapEnvelope,
) -> Result<SoapEnvelope, SoapFault> {
    let wire = Request::soap_post(path, action, request.to_xml().into_bytes()).to_bytes();
    let (_, delivered) = link.transmit(format!("call {action}"), &wire);
    let response = host.dispatch(&delivered);
    let resp_wire = response.to_bytes();
    let (_, resp_delivered) = link.transmit(format!("reply {action}"), &resp_wire);
    let arrived = Response::parse(&resp_delivered).map_err(|e| SoapFault {
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
        let resp = h.dispatch(b"not http at all");
        assert_eq!(resp.status, 500);
        let env = SoapEnvelope::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!(env.is_fault());
    }

    #[test]
    fn corrupted_link_surfaces_as_fault() {
        // Every message is lost: the reply never arrives, and the caller
        // sees a fault, not an empty success.
        let mut link =
            Link::new(NetworkProfile::lan()).with_fault_profile(FaultProfile::drops(1.0, 0));
        let mut h = host();
        let req = SoapEnvelope::new(Element::new("Echo").with_text("x"));
        let err = call(&mut link, &mut h, "/svc", "urn:Echo", &req).unwrap_err();
        assert_eq!(err.code, "Client");
        assert!(err.string.contains("malformed response"), "{}", err.string);
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
