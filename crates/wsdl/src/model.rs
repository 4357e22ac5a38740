//! The WSDL 1.1 subset of the paper's Figure 1.
//!
//! A definition carries a name, a target namespace, the agreed-upon XML
//! Schema (embedded in `<types>`), and one or more services with SOAP
//! ports. Message/binding/portType plumbing is intentionally omitted — the
//! paper does the same ("we omit message, port and binding elements").

use crate::plumbing::Plumbing;
use xdx_xml::{Document, Element, Error, Result, SchemaTree};

/// A SOAP port of a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name (`CustomerInfoPort`).
    pub name: String,
    /// Binding QName (`tns:CustomerInfoBinding`).
    pub binding: String,
    /// `soap:address location` URL.
    pub address: String,
}

/// A service definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Service {
    /// Service name (`CustomerInfoService`).
    pub name: String,
    /// Human documentation.
    pub documentation: Option<String>,
    /// Deployed ports.
    pub ports: Vec<Port>,
}

/// A parsed WSDL definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WsdlDefinition {
    /// Definition name (`CustomerInfo`).
    pub name: String,
    /// Target namespace URI.
    pub target_namespace: String,
    /// The initial XML Schema the two parties agreed on.
    pub schema: SchemaTree,
    /// Messages, portTypes and bindings (the parts Figure 1 omits).
    pub plumbing: Plumbing,
    /// Declared services.
    pub services: Vec<Service>,
}

impl WsdlDefinition {
    /// Creates a definition with one service and one port — the common
    /// single-service shape of the paper's examples.
    pub fn single_service(
        name: &str,
        target_namespace: &str,
        schema: SchemaTree,
        service_name: &str,
        address: &str,
    ) -> WsdlDefinition {
        let root_element = schema.name(schema.root()).to_string();
        WsdlDefinition {
            name: name.to_string(),
            target_namespace: target_namespace.to_string(),
            plumbing: Plumbing::for_service(service_name, &root_element, &[]),
            schema,
            services: vec![Service {
                name: service_name.to_string(),
                documentation: None,
                ports: vec![Port {
                    name: format!("{service_name}Port"),
                    binding: format!("tns:{service_name}Binding"),
                    address: address.to_string(),
                }],
            }],
        }
    }

    /// Serializes to WSDL text.
    pub fn to_xml(&self) -> String {
        let mut defs = Element::new("definitions")
            .with_attr("name", &self.name)
            .with_attr("targetNamespace", &self.target_namespace)
            .with_attr("xmlns", "http://schemas.xmlsoap.org/wsdl/")
            .with_attr("xmlns:soap", "http://schemas.xmlsoap.org/wsdl/soap/")
            .with_attr("xmlns:tns", &self.target_namespace);
        // <types> embeds the XSD-subset rendering of the schema tree.
        defs = defs.with_child(Element::new("types").with_child(self.schema.to_xsd_element()));
        for e in self.plumbing.to_elements() {
            defs = defs.with_child(e);
        }
        for svc in &self.services {
            let mut s = Element::new("service").with_attr("name", &svc.name);
            if let Some(doc) = &svc.documentation {
                s = s.with_child(Element::new("documentation").with_text(doc.clone()));
            }
            for port in &svc.ports {
                s = s.with_child(
                    Element::new("port")
                        .with_attr("name", &port.name)
                        .with_attr("binding", &port.binding)
                        .with_child(
                            Element::new("soap:address").with_attr("location", &port.address),
                        ),
                );
            }
            defs = defs.with_child(s);
        }
        let mut out = String::from("<?xml version=\"1.0\"?>");
        out.push_str(&defs.to_xml_pretty());
        out
    }

    /// Parses WSDL text.
    pub fn parse(src: &str) -> Result<WsdlDefinition> {
        let doc = Document::parse(src)?;
        let root = &doc.root;
        if root.name != "definitions" && !root.name.ends_with(":definitions") {
            return Err(Error::Schema {
                detail: format!("expected <definitions>, got <{}>", root.name),
            });
        }
        let name = root.attr("name").unwrap_or("").to_string();
        let target_namespace = root.attr("targetNamespace").unwrap_or("").to_string();
        let types = root.child("types").ok_or_else(|| Error::Schema {
            detail: "WSDL has no <types>".into(),
        })?;
        let schema_elem = types
            .elements()
            .find(|e| e.name == "schema" || e.name.ends_with(":schema"))
            .ok_or_else(|| Error::Schema {
                detail: "<types> has no <schema>".into(),
            })?;
        let schema = SchemaTree::from_xsd_element(schema_elem)?;
        let plumbing = Plumbing::parse(root)?;
        plumbing.validate()?;
        let mut services = Vec::new();
        for svc in root.children_named("service") {
            let sname = svc
                .attr("name")
                .ok_or_else(|| Error::Schema {
                    detail: "service without name".into(),
                })?
                .to_string();
            let documentation = svc.child("documentation").map(|d| d.text());
            let mut ports = Vec::new();
            for port in svc.children_named("port") {
                let address = port
                    .elements()
                    .find(|e| e.name.ends_with("address"))
                    .and_then(|a| a.attr("location"))
                    .unwrap_or("")
                    .to_string();
                ports.push(Port {
                    name: port.attr("name").unwrap_or("").to_string(),
                    binding: port.attr("binding").unwrap_or("").to_string(),
                    address,
                });
            }
            services.push(Service {
                name: sname,
                documentation,
                ports,
            });
        }
        if services.is_empty() {
            return Err(Error::Schema {
                detail: "WSDL declares no service".into(),
            });
        }
        Ok(WsdlDefinition {
            name,
            target_namespace,
            schema,
            plumbing,
            services,
        })
    }

    /// The first service (most definitions here have exactly one).
    pub fn service(&self) -> &Service {
        &self.services[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdx_xml::Occurs;

    fn customer_schema() -> SchemaTree {
        let mut t = SchemaTree::new("Customer");
        let n = t.add_child(t.root(), "CustName", Occurs::One).unwrap();
        t.set_text(n);
        let order = t.add_child(t.root(), "Order", Occurs::Many).unwrap();
        let s = t.add_child(order, "ServiceName", Occurs::One).unwrap();
        t.set_text(s);
        t
    }

    fn sample() -> WsdlDefinition {
        let mut def = WsdlDefinition::single_service(
            "CustomerInfo",
            "http://customers.wsdl",
            customer_schema(),
            "CustomerInfoService",
            "http://customerinfo",
        );
        def.services[0].documentation = Some("Provides customer information".into());
        def
    }

    #[test]
    fn serialize_contains_figure1_parts() {
        let xml = sample().to_xml();
        assert!(xml.contains("definitions name=\"CustomerInfo\""));
        assert!(xml.contains("targetNamespace=\"http://customers.wsdl\""));
        assert!(xml.contains("<types>"));
        assert!(xml.contains("element name=\"Customer\""));
        assert!(xml.contains("maxOccurs=\"unbounded\""));
        assert!(xml.contains("service name=\"CustomerInfoService\""));
        assert!(xml.contains("soap:address location=\"http://customerinfo\""));
        assert!(xml.contains("Provides customer information"));
    }

    #[test]
    fn parse_roundtrip() {
        let def = sample();
        let back = WsdlDefinition::parse(&def.to_xml()).unwrap();
        assert_eq!(back.name, def.name);
        assert_eq!(back.target_namespace, def.target_namespace);
        assert_eq!(back.services, def.services);
        assert_eq!(back.schema.len(), def.schema.len());
        let order = back.schema.by_name("Order").unwrap();
        assert_eq!(back.schema.node(order).occurs, Occurs::Many);
    }

    #[test]
    fn parse_rejects_non_wsdl() {
        assert!(WsdlDefinition::parse("<x/>").is_err());
        assert!(WsdlDefinition::parse(
            "<definitions name=\"n\" targetNamespace=\"t\"><types/></definitions>"
        )
        .is_err());
    }

    #[test]
    fn parse_requires_a_service() {
        let schema = customer_schema().to_xsd();
        let xml = format!(
            "<definitions name=\"n\" targetNamespace=\"t\"><types>{schema}</types></definitions>"
        );
        assert!(WsdlDefinition::parse(&xml).is_err());
    }

    #[test]
    fn service_accessor() {
        assert_eq!(sample().service().name, "CustomerInfoService");
        assert_eq!(sample().service().ports[0].address, "http://customerinfo");
    }
}
