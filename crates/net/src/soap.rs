//! SOAP 1.1 envelopes.
//!
//! The WSDL in the paper's Figure 1 binds `CustomerInfoService` to SOAP 1.1
//! over HTTP. Service calls and shipped fragments travel as envelopes; a
//! failed call returns a `Fault` per SOAP 1.1 §4.4.

use xdx_xml::{Document, Element, Node};

/// SOAP 1.1 envelope namespace.
pub const ENVELOPE_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";

/// A SOAP fault (subset: faultcode + faultstring).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoapFault {
    /// `Client`, `Server`, `VersionMismatch`, ...
    pub code: String,
    /// Human-readable explanation.
    pub string: String,
}

/// A SOAP envelope wrapping one body element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoapEnvelope {
    /// The single child of `<soap:Body>`.
    pub body: Element,
}

impl SoapEnvelope {
    /// Wraps `body` in an envelope.
    pub fn new(body: Element) -> SoapEnvelope {
        SoapEnvelope { body }
    }

    /// Builds a request envelope for an operation with string parameters
    /// (the paper's services "can take one or several arguments that will
    /// be used to subset the data").
    pub fn request(operation: &str, params: &[(&str, &str)]) -> SoapEnvelope {
        let mut op = Element::new(operation);
        for (k, v) in params {
            op = op.with_child(Element::new(*k).with_text(*v));
        }
        SoapEnvelope::new(op)
    }

    /// Builds a fault envelope.
    pub fn fault(fault: &SoapFault) -> SoapEnvelope {
        let body = Element::new("soap:Fault")
            .with_child(Element::new("faultcode").with_text(format!("soap:{}", fault.code)))
            .with_child(Element::new("faultstring").with_text(fault.string.clone()));
        SoapEnvelope::new(body)
    }

    /// True when the body is a fault.
    pub fn is_fault(&self) -> bool {
        self.body.name == "soap:Fault" || self.body.name == "Fault"
    }

    /// Extracts the fault, if this is one.
    pub fn as_fault(&self) -> Option<SoapFault> {
        if !self.is_fault() {
            return None;
        }
        let code = self
            .body
            .child("faultcode")
            .map(|e| e.text().trim_start_matches("soap:").to_string())
            .unwrap_or_else(|| "Server".into());
        let string = self
            .body
            .child("faultstring")
            .map(|e| e.text())
            .unwrap_or_default();
        Some(SoapFault { code, string })
    }

    /// Serializes to the wire form.
    pub fn to_xml(&self) -> String {
        let env = Element::new("soap:Envelope")
            .with_attr("xmlns:soap", ENVELOPE_NS)
            .with_child(Element::new("soap:Body").with_child(self.body.clone()));
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        out.push_str(&env.to_xml());
        out
    }

    /// Parses an envelope off the wire.
    pub fn parse(src: &str) -> Result<SoapEnvelope, String> {
        let mut doc = Document::parse(src).map_err(|e| e.to_string())?;
        let root = &mut doc.root;
        if !(root.name == "soap:Envelope"
            || root.name == "Envelope"
            || root.name.ends_with(":Envelope"))
        {
            return Err(format!("expected Envelope, got {}", root.name));
        }
        let body = elements_mut(root)
            .find(|e| e.name == "soap:Body" || e.name == "Body" || e.name.ends_with(":Body"))
            .ok_or_else(|| "missing Body".to_string())?;
        let inner = elements_mut(body)
            .next()
            .ok_or_else(|| "empty Body".to_string())?;
        // Moved out, not cloned: the parsed tree is dropped right after.
        Ok(SoapEnvelope {
            body: std::mem::take(inner),
        })
    }
}

fn elements_mut(e: &mut Element) -> impl Iterator<Item = &mut Element> {
    e.children.iter_mut().filter_map(|n| match n {
        Node::Element(e) => Some(e),
        Node::Text(_) => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let env = SoapEnvelope::request("GetCustomerInfo", &[("state", "NJ")]);
        let xml = env.to_xml();
        assert!(xml.contains("soap:Envelope"));
        assert!(xml.contains("<state>NJ</state>"));
        let back = SoapEnvelope::parse(&xml).unwrap();
        assert_eq!(back, env);
        assert!(!back.is_fault());
    }

    #[test]
    fn fault_roundtrip() {
        let f = SoapFault {
            code: "Client".into(),
            string: "bad fragmentation".into(),
        };
        let env = SoapEnvelope::fault(&f);
        let back = SoapEnvelope::parse(&env.to_xml()).unwrap();
        assert!(back.is_fault());
        assert_eq!(back.as_fault().unwrap(), f);
    }

    #[test]
    fn payload_body_preserved() {
        let payload = Element::new("FragmentPayload")
            .with_attr("fragment", "ITEM")
            .with_text("Ssome\\tdata");
        let env = SoapEnvelope::new(payload.clone());
        let back = SoapEnvelope::parse(&env.to_xml()).unwrap();
        assert_eq!(back.body, payload);
    }

    #[test]
    fn rejects_non_envelopes() {
        assert!(SoapEnvelope::parse("<notsoap/>").is_err());
        assert!(SoapEnvelope::parse("<soap:Envelope xmlns:soap=\"x\"/>").is_err());
        let empty_body = "<soap:Envelope xmlns:soap=\"x\"><soap:Body/></soap:Envelope>";
        assert!(SoapEnvelope::parse(empty_body).is_err());
    }

    #[test]
    fn non_fault_has_no_fault() {
        let env = SoapEnvelope::request("Op", &[]);
        assert!(env.as_fault().is_none());
    }
}
