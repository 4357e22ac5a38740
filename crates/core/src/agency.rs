//! The optimized data-exchange orchestrator: the end-to-end flow of the
//! paper's Figure 2.
//!
//! 1. source and target register WSDL + fragmentation at the discovery
//!    agency (carried by `xdx-wsdl`; systems that register none default to
//!    the whole-document fragmentation, i.e. publish&map behaviour),
//! 2. the agency derives the mapping and generates the data-transfer
//!    program,
//! 3. it probes the systems' costs (here: [`SchemaStats::probe`] plus the
//!    declared [`SystemProfile`]s) and optimizes combine ordering and
//!    operation placement,
//! 4. operations are executed at their assigned systems.

use crate::cost::{CostModel, SchemaStats, SystemProfile};
use crate::error::{Error, Result};
use crate::exec::{execute_with_transport, Transport};
use crate::fragment::Fragmentation;
use crate::gen::Generator;
use crate::greedy;
use crate::optimal;
use crate::program::Program;
use crate::report::{ExchangeReport, StepTimes};
use crate::selection::Selection;
use std::time::{Duration, Instant};
use xdx_codec::WireFormat;
use xdx_net::Link;
use xdx_relational::Database;
use xdx_wsdl::Registry;
use xdx_xml::SchemaTree;

/// Which optimizer the agency runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Optimizer {
    /// Exhaustive `Cost_Based_Optim` over all combine orderings (subject
    /// to the ordering budget).
    Optimal {
        /// Maximum combine orderings to enumerate before falling back to
        /// coordinate descent.
        ordering_cap: usize,
    },
    /// The greedy generator and placement heuristic of Section 4.3.
    Greedy,
}

/// A configured exchange between one source and one target.
pub struct DataExchange<'a> {
    /// The agreed-upon schema.
    pub schema: &'a SchemaTree,
    /// Source fragmentation (Step 1 registration).
    pub source_frag: Fragmentation,
    /// Target fragmentation (Step 1 registration).
    pub target_frag: Fragmentation,
    /// Source system profile (speed/capabilities).
    pub source_profile: SystemProfile,
    /// Target system profile.
    pub target_profile: SystemProfile,
    /// Optimizer choice.
    pub optimizer: Optimizer,
    /// Communication weight per byte in the cost model.
    pub w_comm: f64,
    /// Optional service argument subsetting the data (paper §3.2).
    pub selection: Option<Selection>,
    /// Wire format the link ships feeds in; the cost model estimates
    /// communication in the matching byte model.
    pub wire_format: WireFormat,
}

impl<'a> DataExchange<'a> {
    /// Creates an exchange from explicit fragmentations.
    pub fn new(
        schema: &'a SchemaTree,
        source_frag: Fragmentation,
        target_frag: Fragmentation,
    ) -> DataExchange<'a> {
        DataExchange {
            schema,
            source_frag,
            target_frag,
            source_profile: SystemProfile::default(),
            target_profile: SystemProfile::default(),
            optimizer: Optimizer::Greedy,
            w_comm: 0.05,
            selection: None,
            wire_format: WireFormat::Xml,
        }
    }

    /// Creates an exchange from two registrations at a discovery agency
    /// (Figure 2, Steps 1–2). A system without a registered fragmentation
    /// defaults to the whole document.
    pub fn from_registry(
        schema: &'a SchemaTree,
        registry: &Registry,
        source_system: &str,
        target_system: &str,
    ) -> Result<DataExchange<'a>> {
        let lookup = |system: &str| -> Result<Fragmentation> {
            let reg = registry
                .lookup(system)
                .ok_or_else(|| Error::InvalidFragmentation {
                    detail: format!("system {system:?} not registered"),
                })?;
            match &reg.fragmentation {
                Some(decl) => Fragmentation::from_decl(schema, decl),
                None => Ok(Fragmentation::whole_document(
                    format!("{system}-default"),
                    schema,
                )),
            }
        };
        Ok(DataExchange::new(
            schema,
            lookup(source_system)?,
            lookup(target_system)?,
        ))
    }

    /// Sets the optimizer.
    pub fn with_optimizer(mut self, optimizer: Optimizer) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Sets system profiles (Step 3's probed capabilities).
    pub fn with_profiles(mut self, source: SystemProfile, target: SystemProfile) -> Self {
        self.source_profile = source;
        self.target_profile = target;
        self
    }

    /// Sets a service argument: only the anchor instances matching the
    /// predicate are exchanged.
    pub fn with_selection(mut self, selection: Selection) -> Self {
        self.selection = Some(selection);
        self
    }

    /// Sets the wire format the link ships feeds in.
    pub fn with_wire_format(mut self, format: WireFormat) -> Self {
        self.wire_format = format;
        self
    }

    /// Builds the cost model by probing the source database for document
    /// statistics (Figure 2, Step 3). With a selection in force the stats
    /// under the anchor are scaled by its selectivity, so planning sees
    /// the document the target will actually receive.
    pub fn probe(&self, source: &Database) -> Result<CostModel> {
        let stats = SchemaStats::probe(self.schema, source, &self.source_frag)?;
        self.model(source, stats)
    }

    /// The cost model [`probe`](DataExchange::probe) builds from `stats`,
    /// the [`SchemaStats::probe`] of `source` under the source
    /// fragmentation, however the caller came by them (a runtime
    /// memoises probes).
    pub fn model(&self, source: &Database, mut stats: SchemaStats) -> Result<CostModel> {
        if let Some(sel) = &self.selection {
            let qualifying = sel.qualifying_ids(self.schema, source, &self.source_frag)?;
            let selectivity = sel.selectivity(&stats, &qualifying);
            stats = stats.scaled_under(sel.anchor, selectivity);
        }
        Ok(CostModel {
            w_comp: 1.0,
            w_comm: self.w_comm,
            source: self.source_profile,
            target: self.target_profile,
            stats,
            wire_format: self.wire_format,
            fanout: 1,
        })
    }

    /// Plans the exchange: generates and optimizes the program.
    pub fn plan(&self, model: &CostModel) -> Result<(Program, f64)> {
        let gen = Generator::new(self.schema, &self.source_frag, &self.target_frag);
        match self.optimizer {
            Optimizer::Greedy => greedy::greedy(&gen, model),
            Optimizer::Optimal { ordering_cap } => {
                let r = optimal::optimal_program(&gen, model, ordering_cap)?;
                Ok((r.program, r.cost))
            }
        }
    }

    /// Runs the full optimized exchange (Steps 2–4) over `link`, shipping
    /// feeds in [`DataExchange::wire_format`], and reports. The report's
    /// `planning` is the probe and the plan, its `codec` the feeds'
    /// encode and decode.
    pub fn run(
        &self,
        source: &mut Database,
        target: &mut Database,
        link: &mut Link,
    ) -> Result<(ExchangeReport, Program)> {
        let start = Instant::now();
        let model = self.probe(source)?;
        let (program, _cost) = self.plan(&model)?;
        let planning = start.elapsed();
        let qualifying = match &self.selection {
            Some(sel) => Some(sel.qualifying_ids(self.schema, source, &self.source_frag)?),
            None => None,
        };
        let selection_ctx = self.selection.as_ref().zip(qualifying.as_ref());
        let outcome = execute_with_transport(
            self.schema,
            &self.source_frag,
            &self.target_frag,
            &program,
            source,
            target,
            &mut FormattedLink {
                link,
                format: self.wire_format,
            },
            selection_ctx,
        )?;
        let report = ExchangeReport {
            strategy: "DE".into(),
            scenario: format!("{}->{}", self.source_frag.name, self.target_frag.name),
            times: StepTimes {
                planning,
                ..outcome.times
            },
            bytes_shipped: outcome.bytes_shipped,
            messages: outcome.messages,
            op_counts: program.op_counts(),
            rows_loaded: outcome.rows_loaded,
        };
        Ok((report, program))
    }
}

/// A link shipping feeds in the exchange's wire format.
struct FormattedLink<'l> {
    link: &'l mut Link,
    format: WireFormat,
}

impl Transport for FormattedLink<'_> {
    fn ship(&mut self, label: &str, message: &[u8]) -> Result<(Duration, Vec<u8>)> {
        self.link.ship(label, message)
    }

    fn wire_format(&self) -> WireFormat {
        self.format
    }
}
