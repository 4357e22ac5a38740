//! `xdx` — command-line driver for the XML data-exchange stack.
//!
//! ```text
//! xdx generate --bytes 2500000 --out auction.xml
//! xdx wsdl --fragmentation LF
//! xdx plan --source MF --target LF --target-speed 10
//! xdx exchange --doc auction.xml --source MF --target LF --network internet
//! xdx compare --doc auction.xml --source MF --target LF
//! xdx advise --doc auction.xml --side source --peer LF
//! ```
//!
//! All commands operate on the paper's Figure-7 auction schema; `--source`
//! / `--target` / `--peer` accept `MF`, `LF` or `WHOLE`. A command refuses
//! an option it does not read.

use std::collections::HashMap;
use std::process::ExitCode;
use xdx::core::advisor::{Advisor, Side};
use xdx::core::agency::{DataExchange, Optimizer};
use xdx::core::cost::SystemProfile;
use xdx::core::pm::publish_and_map;
use xdx::core::selection::{Selection, ValuePred};
use xdx::core::Fragmentation;
use xdx::net::{Link, NetworkProfile};
use xdx::relational::Database;
use xdx::wsdl::WsdlDefinition;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match COMMANDS.iter().find(|c| c.0 == command) {
        Some(c) => match Opts::parse(c, rest) {
            Ok(opts) => (c.1)(&opts),
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        },
        None => Err(format!("unknown command {command:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "xdx — fragmented XML data exchange (ICDE 2004 reproduction)

USAGE: xdx <command> [options]

COMMANDS
  generate   generate an auction document        --bytes N [--seed S] [--out FILE]
  shred      shred a document into a database    --doc FILE --fragmentation F --out DIR
  wsdl       print WSDL + fragmentation XML      --fragmentation MF|LF|WHOLE
  plan       plan an exchange and show the DAG   --source F --target F [PLANNING]
  exchange   run an optimized exchange           --source F --target F [PLANNING]
             [--network lan|internet] [--save-target DIR]
  compare    optimized exchange vs publish&map   --source F --target F [PLANNING]
             [--network lan|internet]
  advise     recommend a fragmentation           --side source|target --peer F [--doc FILE]

PLANNING (plan, exchange, compare)
             [--doc FILE | --source-dir DIR] [--optimizer greedy|optimal]
             [--source-speed X] [--target-speed X] [--dumb-client]
             [--select anchor:leaf=value]
";

/// A command's name, its entry point and the option names it reads, in
/// groups, as `USAGE` lists them.
type Command = (
    &'static str,
    fn(&Opts) -> Result<(), String>,
    &'static [&'static [&'static str]],
);

/// The options `plan`, `exchange` and `compare` read through
/// [`build_exchange`] and [`source_db`].
const PLANNING: &[&str] = &[
    "source",
    "target",
    "doc",
    "source-dir",
    "optimizer",
    "source-speed",
    "target-speed",
    "dumb-client",
    "select",
];

const COMMANDS: &[Command] = &[
    ("generate", cmd_generate, &[&["bytes", "seed", "out"]]),
    ("shred", cmd_shred, &[&["doc", "fragmentation", "out"]]),
    ("wsdl", cmd_wsdl, &[&["fragmentation"]]),
    ("plan", cmd_plan, &[PLANNING]),
    (
        "exchange",
        cmd_exchange,
        &[PLANNING, &["network", "save-target"]],
    ),
    ("compare", cmd_compare, &[PLANNING, &["network"]]),
    ("advise", cmd_advise, &[&["side", "peer", "doc"]]),
];

/// The options that are bare `--flag`s; every other one takes a value.
const FLAGS: &[&str] = &["dumb-client"];

/// Minimal `--key value` / `--flag` option parser.
struct Opts {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Opts {
    /// Parses `args` for `command`, refusing an option it does not read.
    fn parse(&(command, _, names): &Command, args: &[String]) -> Result<Opts, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {a:?}"))?;
            if !names.iter().any(|group| group.contains(&key)) {
                return Err(format!("unknown option --{key} for {command}"));
            }
            if FLAGS.contains(&key) {
                flags.push(key.to_string());
            } else {
                let value = it
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                values.insert(key.to_string(), value.clone());
            }
        }
        Ok(Opts { values, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
            None => Ok(default),
        }
    }
}

fn fragmentation(name: &str, schema: &xdx::xml::SchemaTree) -> Result<Fragmentation, String> {
    match name.to_uppercase().as_str() {
        "MF" => Ok(xdx::xmark::mf(schema)),
        "LF" => Ok(xdx::xmark::lf(schema)),
        "WHOLE" => Ok(Fragmentation::whole_document("WHOLE", schema)),
        other => Err(format!(
            "unknown fragmentation {other:?} (expected MF, LF or WHOLE)"
        )),
    }
}

fn network(opts: &Opts) -> Result<NetworkProfile, String> {
    match opts.get("network").unwrap_or("lan") {
        "lan" => Ok(NetworkProfile::lan()),
        "internet" => Ok(NetworkProfile::internet_2004()),
        other => Err(format!(
            "unknown network {other:?} (expected lan or internet)"
        )),
    }
}

fn load_doc(opts: &Opts) -> Result<String, String> {
    match opts.get("doc") {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("--doc {path}: {e}")),
        None => Ok(xdx::xmark::generate(xdx::xmark::GenConfig::sized(500_000))),
    }
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let bytes: usize = opts.parse_num("bytes", 2_500_000)?;
    let seed: u64 = opts.parse_num("seed", 0x1CDE_2004)?;
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig {
        target_bytes: bytes,
        seed,
    });
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &doc).map_err(|e| format!("--out {path}: {e}"))?;
            eprintln!("wrote {} bytes to {path}", doc.len());
        }
        None => println!("{doc}"),
    }
    Ok(())
}

fn cmd_shred(opts: &Opts) -> Result<(), String> {
    let schema = xdx::xmark::schema();
    let frag = fragmentation(opts.require("fragmentation")?, &schema)?;
    let doc = load_doc(opts)?;
    let db = xdx::xmark::load_source(&doc, &schema, &frag).map_err(|e| e.to_string())?;
    let out = std::path::PathBuf::from(opts.require("out")?);
    let n = xdx::relational::storage::save(&db, &out).map_err(|e| e.to_string())?;
    eprintln!(
        "shredded {} bytes into {n} table(s) under {}",
        doc.len(),
        out.display()
    );
    Ok(())
}

/// Resolves the source database: a persisted directory when `--source-dir`
/// is given, else shred `--doc` (or a default document) fresh.
fn source_db(
    opts: &Opts,
    schema: &xdx::xml::SchemaTree,
    frag: &xdx::core::Fragmentation,
) -> Result<Database, String> {
    if let Some(dir) = opts.get("source-dir") {
        let db =
            xdx::relational::storage::load(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
        for f in &frag.fragments {
            if !db.has_table(&f.name) {
                return Err(format!(
                    "--source-dir {dir}: table {} missing (was it shredded with --fragmentation {}?)",
                    f.name, frag.name
                ));
            }
        }
        return Ok(db);
    }
    let doc = load_doc(opts)?;
    xdx::xmark::load_source(&doc, schema, frag).map_err(|e| e.to_string())
}

fn cmd_wsdl(opts: &Opts) -> Result<(), String> {
    let schema = xdx::xmark::schema();
    let frag = fragmentation(opts.get("fragmentation").unwrap_or("LF"), &schema)?;
    let wsdl = WsdlDefinition::single_service(
        "AuctionInfo",
        "http://auctions.wsdl",
        schema.clone(),
        "AuctionInfoService",
        "http://auctioninfo",
    );
    println!("{}", wsdl.to_xml());
    println!();
    println!(
        "{}",
        frag.to_decl(&schema)
            .to_xml(&schema)
            .map_err(|e| e.to_string())?
    );
    Ok(())
}

fn build_exchange<'a>(
    opts: &Opts,
    schema: &'a xdx::xml::SchemaTree,
) -> Result<DataExchange<'a>, String> {
    let source = fragmentation(opts.require("source")?, schema)?;
    let target = fragmentation(opts.require("target")?, schema)?;
    let mut ex = DataExchange::new(schema, source, target);
    let optimizer = match opts.get("optimizer").unwrap_or("greedy") {
        "greedy" => Optimizer::Greedy,
        "optimal" => Optimizer::Optimal {
            ordering_cap: 50_000,
        },
        other => return Err(format!("unknown optimizer {other:?}")),
    };
    ex = ex.with_optimizer(optimizer);
    let src_speed: f64 = opts.parse_num("source-speed", 1.0)?;
    let tgt_speed: f64 = opts.parse_num("target-speed", 1.0)?;
    let mut tgt_profile = SystemProfile::with_speed(tgt_speed);
    if opts.flag("dumb-client") {
        tgt_profile.can_combine = false;
    }
    ex = ex.with_profiles(SystemProfile::with_speed(src_speed), tgt_profile);
    if let Some(spec) = opts.get("select") {
        // anchor:leaf=value
        let (anchor, rest) = spec
            .split_once(':')
            .ok_or_else(|| format!("--select expects anchor:leaf=value, got {spec:?}"))?;
        let (leaf, value) = rest
            .split_once('=')
            .ok_or_else(|| format!("--select expects anchor:leaf=value, got {spec:?}"))?;
        let sel = Selection::new(schema, anchor, leaf, ValuePred::Equals(value.to_string()))
            .map_err(|e| e.to_string())?;
        ex = ex.with_selection(sel);
    }
    Ok(ex)
}

fn cmd_plan(opts: &Opts) -> Result<(), String> {
    let schema = xdx::xmark::schema();
    let ex = build_exchange(opts, &schema)?;
    let source = source_db(opts, &schema, &ex.source_frag)?;
    let model = ex.probe(&source).map_err(|e| e.to_string())?;
    let (program, cost) = ex.plan(&model).map_err(|e| e.to_string())?;
    println!("{}", program.display(&schema));
    let (s, c, sp, w) = program.op_counts();
    println!("ops: {s} scans, {c} combines, {sp} splits, {w} writes");
    println!("cross-edges: {}", program.cross_edges().len());
    println!("estimated cost: {cost:.0}");
    Ok(())
}

fn cmd_exchange(opts: &Opts) -> Result<(), String> {
    let schema = xdx::xmark::schema();
    let ex = build_exchange(opts, &schema)?;
    let mut source = source_db(opts, &schema, &ex.source_frag)?;
    let mut target = Database::new("target");
    let mut link = Link::new(network(opts)?);
    let (report, program) = ex
        .run(&mut source, &mut target, &mut link)
        .map_err(|e| e.to_string())?;
    println!("{}", program.display(&schema));
    println!("{report}");
    println!("\ntarget tables:");
    for name in target.table_names() {
        println!(
            "  {name}: {} rows",
            target.table(name).map_err(|e| e.to_string())?.len()
        );
    }
    if let Some(dir) = opts.get("save-target") {
        let n = xdx::relational::storage::save(&target, std::path::Path::new(dir))
            .map_err(|e| e.to_string())?;
        eprintln!("saved {n} target table(s) under {dir}");
    }
    Ok(())
}

fn cmd_compare(opts: &Opts) -> Result<(), String> {
    let schema = xdx::xmark::schema();
    let ex = build_exchange(opts, &schema)?;
    let profile = network(opts)?;

    let mut de_source = source_db(opts, &schema, &ex.source_frag)?;
    let mut de_target = Database::new("de");
    let mut de_link = Link::new(profile);
    let (de, _) = ex
        .run(&mut de_source, &mut de_target, &mut de_link)
        .map_err(|e| e.to_string())?;

    let mut pm_source = source_db(opts, &schema, &ex.source_frag)?;
    let mut pm_target = Database::new("pm");
    let mut pm_link = Link::new(profile);
    let pm = publish_and_map(
        &schema,
        &ex.source_frag,
        &ex.target_frag,
        &mut pm_source,
        &mut pm_target,
        &mut pm_link,
    )
    .map_err(|e| e.to_string())?;

    println!("{de}");
    println!("{pm}");
    let save = 1.0 - de.times.total().as_secs_f64() / pm.times.total().as_secs_f64();
    println!("optimized exchange saves {:.1}% end-to-end", save * 100.0);
    Ok(())
}

fn cmd_advise(opts: &Opts) -> Result<(), String> {
    let schema = xdx::xmark::schema();
    let side = match opts.require("side")? {
        "source" => Side::Source,
        "target" => Side::Target,
        other => return Err(format!("--side must be source or target, got {other:?}")),
    };
    let peer = fragmentation(opts.require("peer")?, &schema)?;
    let doc = load_doc(opts)?;
    // Probe statistics from the peer's own layout (any layout gives the
    // same per-element counts).
    let db = xdx::xmark::load_source(&doc, &schema, &peer).map_err(|e| e.to_string())?;
    let stats =
        xdx::core::cost::SchemaStats::probe(&schema, &db, &peer).map_err(|e| e.to_string())?;
    let model = xdx::core::cost::CostModel::fast_network(stats);
    let advisor = Advisor::new(&schema, &model);
    let advice = advisor.advise(side, &peer).map_err(|e| e.to_string())?;
    println!(
        "advised fragmentation ({} candidates evaluated, planned cost {:.0}):",
        advice.candidates_evaluated, advice.cost
    );
    for frag in &advice.fragmentation.fragments {
        println!("  {}", frag.name);
    }
    Ok(())
}
