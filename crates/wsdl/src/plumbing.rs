//! The WSDL plumbing the paper's Figure 1 omits ("we omit message, port
//! and binding elements ... and refer the reader to \[12\] for examples of
//! complete definitions"): messages, portTypes with operations, and SOAP
//! bindings. A real deployment needs them, so this module completes the
//! definition — [`Plumbing::for_service`] derives the conventional
//! request/response plumbing for a service, and the XML layer serializes
//! and parses it alongside the rest of the definition.

use xdx_xml::{Document, Element, Error, Result};

/// One part of a WSDL message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessagePart {
    /// Part name (`body`, `state`, ...).
    pub name: String,
    /// `element` or `type` QName the part carries.
    pub element: String,
}

/// A WSDL `<message>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Message name (`GetCustomerInfoInput`).
    pub name: String,
    /// Parts in order.
    pub parts: Vec<MessagePart>,
}

/// One operation of a portType.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Operation name (`GetCustomerInfo`).
    pub name: String,
    /// Input message QName.
    pub input: String,
    /// Output message QName.
    pub output: String,
}

/// A WSDL `<portType>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortType {
    /// PortType name (`CustomerInfoPortType`).
    pub name: String,
    /// Operations in order.
    pub operations: Vec<Operation>,
}

/// A SOAP binding of a portType.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// Binding name (`CustomerInfoBinding`).
    pub name: String,
    /// Bound portType QName.
    pub port_type: String,
    /// Per-operation `soapAction` URIs (operation name → action).
    pub soap_actions: Vec<(String, String)>,
}

/// The full message/portType/binding plumbing of one definition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Plumbing {
    /// Declared messages.
    pub messages: Vec<Message>,
    /// Declared portTypes.
    pub port_types: Vec<PortType>,
    /// Declared bindings.
    pub bindings: Vec<Binding>,
}

impl Plumbing {
    /// Derives the conventional request/response plumbing for a service:
    /// one `Get<Service>` operation whose input carries string arguments
    /// and whose output carries the schema's root element.
    pub fn for_service(service_name: &str, root_element: &str, args: &[&str]) -> Plumbing {
        let op = format!("Get{service_name}");
        let input = Message {
            name: format!("{op}Input"),
            parts: args
                .iter()
                .map(|a| MessagePart {
                    name: a.to_string(),
                    element: "xsd:string".to_string(),
                })
                .collect(),
        };
        let output = Message {
            name: format!("{op}Output"),
            parts: vec![MessagePart {
                name: "body".to_string(),
                element: format!("tns:{root_element}"),
            }],
        };
        let port_type = PortType {
            name: format!("{service_name}PortType"),
            operations: vec![Operation {
                name: op.clone(),
                input: format!("tns:{}", input.name),
                output: format!("tns:{}", output.name),
            }],
        };
        let binding = Binding {
            name: format!("{service_name}Binding"),
            port_type: format!("tns:{}", port_type.name),
            soap_actions: vec![(op.clone(), format!("urn:{op}"))],
        };
        Plumbing {
            messages: vec![input, output],
            port_types: vec![port_type],
            bindings: vec![binding],
        }
    }

    /// True when nothing is declared.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty() && self.port_types.is_empty() && self.bindings.is_empty()
    }

    /// Renders the plumbing as child elements of `<definitions>`.
    pub fn to_elements(&self) -> Vec<Element> {
        let mut out = Vec::new();
        for m in &self.messages {
            let mut e = Element::new("message").with_attr("name", &m.name);
            for p in &m.parts {
                e = e.with_child(
                    Element::new("part")
                        .with_attr("name", &p.name)
                        .with_attr("element", &p.element),
                );
            }
            out.push(e);
        }
        for pt in &self.port_types {
            let mut e = Element::new("portType").with_attr("name", &pt.name);
            for op in &pt.operations {
                e = e.with_child(
                    Element::new("operation")
                        .with_attr("name", &op.name)
                        .with_child(Element::new("input").with_attr("message", &op.input))
                        .with_child(Element::new("output").with_attr("message", &op.output)),
                );
            }
            out.push(e);
        }
        for b in &self.bindings {
            let mut e = Element::new("binding")
                .with_attr("name", &b.name)
                .with_attr("type", &b.port_type)
                .with_child(
                    Element::new("soap:binding")
                        .with_attr("style", "document")
                        .with_attr("transport", "http://schemas.xmlsoap.org/soap/http"),
                );
            for (op, action) in &b.soap_actions {
                e =
                    e.with_child(Element::new("operation").with_attr("name", op).with_child(
                        Element::new("soap:operation").with_attr("soapAction", action),
                    ));
            }
            out.push(e);
        }
        out
    }

    /// Parses the plumbing out of a `<definitions>` element.
    pub fn parse(definitions: &Element) -> Result<Plumbing> {
        let mut plumbing = Plumbing::default();
        for m in definitions.children_named("message") {
            let name = attr(m, "name")?;
            let parts = m
                .children_named("part")
                .map(|p| {
                    Ok(MessagePart {
                        name: attr(p, "name")?,
                        element: p
                            .attr("element")
                            .or_else(|| p.attr("type"))
                            .unwrap_or("")
                            .to_string(),
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            plumbing.messages.push(Message { name, parts });
        }
        for pt in definitions.children_named("portType") {
            let name = attr(pt, "name")?;
            let operations = pt
                .children_named("operation")
                .map(|op| {
                    Ok(Operation {
                        name: attr(op, "name")?,
                        input: op
                            .child("input")
                            .and_then(|i| i.attr("message"))
                            .unwrap_or("")
                            .to_string(),
                        output: op
                            .child("output")
                            .and_then(|o| o.attr("message"))
                            .unwrap_or("")
                            .to_string(),
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            plumbing.port_types.push(PortType { name, operations });
        }
        for b in definitions.children_named("binding") {
            let name = attr(b, "name")?;
            let port_type = b.attr("type").unwrap_or("").to_string();
            let soap_actions = b
                .children_named("operation")
                .map(|op| {
                    Ok((
                        attr(op, "name")?,
                        op.elements()
                            .find(|e| e.name.ends_with("operation"))
                            .and_then(|so| so.attr("soapAction"))
                            .unwrap_or("")
                            .to_string(),
                    ))
                })
                .collect::<Result<Vec<_>>>()?;
            plumbing.bindings.push(Binding {
                name,
                port_type,
                soap_actions,
            });
        }
        Ok(plumbing)
    }

    /// Consistency checks: operations reference declared messages, and
    /// bindings reference declared portTypes.
    pub fn validate(&self) -> Result<()> {
        let has_message = |q: &str| {
            self.messages
                .iter()
                .any(|m| q == format!("tns:{}", m.name) || q == m.name)
        };
        for pt in &self.port_types {
            for op in &pt.operations {
                for m in [&op.input, &op.output] {
                    if !has_message(m) {
                        return Err(Error::Schema {
                            detail: format!(
                                "operation {} references undeclared message {m}",
                                op.name
                            ),
                        });
                    }
                }
            }
        }
        for b in &self.bindings {
            let ok = self
                .port_types
                .iter()
                .any(|pt| b.port_type == format!("tns:{}", pt.name) || b.port_type == pt.name);
            if !ok {
                return Err(Error::Schema {
                    detail: format!(
                        "binding {} references undeclared portType {}",
                        b.name, b.port_type
                    ),
                });
            }
        }
        Ok(())
    }
}

fn attr(e: &Element, name: &str) -> Result<String> {
    e.attr(name)
        .map(str::to_string)
        .ok_or_else(|| Error::Schema {
            detail: format!("<{}> missing attribute {name:?}", e.name),
        })
}

/// Convenience: round-trips a plumbing through standalone XML (used by
/// tests; in definitions the elements embed directly).
pub fn to_xml(p: &Plumbing) -> String {
    let mut defs = Element::new("definitions");
    for e in p.to_elements() {
        defs = defs.with_child(e);
    }
    defs.to_xml_pretty()
}

/// Inverse of [`to_xml`].
pub fn from_xml(src: &str) -> Result<Plumbing> {
    let doc = Document::parse(src)?;
    Plumbing::parse(&doc.root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventional_plumbing_is_consistent() {
        let p = Plumbing::for_service("CustomerInfoService", "Customer", &["state"]);
        p.validate().unwrap();
        assert_eq!(p.messages.len(), 2);
        assert_eq!(p.port_types[0].operations[0].name, "GetCustomerInfoService");
        assert_eq!(
            p.bindings[0].soap_actions[0].1,
            "urn:GetCustomerInfoService"
        );
        assert_eq!(p.messages[0].parts[0].name, "state");
    }

    #[test]
    fn xml_roundtrip() {
        let p = Plumbing::for_service("AuctionInfoService", "site", &["region", "category"]);
        let xml = to_xml(&p);
        assert!(xml.contains("portType name=\"AuctionInfoServicePortType\""));
        assert!(xml.contains("soap:operation soapAction"));
        let back = from_xml(&xml).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn validation_catches_dangling_references() {
        let mut p = Plumbing::for_service("S", "root", &[]);
        p.messages.clear();
        assert!(p.validate().is_err());
        let mut p2 = Plumbing::for_service("S", "root", &[]);
        p2.port_types[0].name = "Renamed".into();
        assert!(p2.validate().is_err());
    }

    #[test]
    fn empty_plumbing_parses() {
        let p = from_xml("<definitions/>").unwrap();
        assert!(p.is_empty());
        p.validate().unwrap();
    }
}
