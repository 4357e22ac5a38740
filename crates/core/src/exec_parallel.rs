//! Parallel execution of data-transfer programs.
//!
//! The paper observes (Section 5.2) that an exchange program is a set of
//! independent expressions — in the `MF → MF` / `LF → LF` cases a pure
//! series of `Scan → Write` pairs — and that "this observation offers an
//! opportunity for parallelism in the execution that we did not pursue
//! here. All pieces of the programs were executed sequentially in all of
//! our experiments." This module pursues it:
//!
//! * the program DAG is partitioned into its weakly connected components
//!   (expressions share no data, so they are embarrassingly parallel),
//! * components execute on a scoped thread pool; each worker scans
//!   read-only, runs its combines/splits locally, and *stages* its writes
//!   and shipments,
//! * the single wide-area link and the target's load remain serialized:
//!   bandwidth is shared, and the target stages every write and commits
//!   them together, as every executor does, so a failing write leaves it
//!   untouched. Parallelism buys computation time, exactly the resource
//!   the paper's observation targets.
//!
//! Work counters are accumulated per worker and merged, keeping the
//! probe-visible totals identical to sequential execution.

use crate::error::Result;
use crate::exec::{commit_and_index, NodeLoop};
use crate::fragment::Fragmentation;
use crate::program::{Location, Program};
use std::collections::HashMap;
use std::time::Instant;
use xdx_net::http::Request;
use xdx_net::Link;
use xdx_relational::{Counters, Database, Feed};
use xdx_xml::SchemaTree;

pub use crate::exec::ExecOutcome;

/// What one worker produced.
struct WorkerOut {
    /// Writes staged for the target: (target fragment index, feed).
    writes: Vec<(usize, Feed)>,
    /// Shipments staged for the link: (label, serialized message).
    shipments: Vec<(String, Vec<u8>)>,
    /// Work performed at the source.
    source_counters: Counters,
    /// Work performed at the target (target-placed combines/splits).
    target_counters: Counters,
}

/// Splits the program into weakly connected components (node index sets in
/// topological order).
fn components(program: &Program) -> Vec<Vec<usize>> {
    let n = program.nodes.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (i, node) in program.nodes.iter().enumerate() {
        for p in &node.inputs {
            let a = find(&mut parent, i);
            let b = find(&mut parent, p.node);
            parent[a] = b;
        }
    }
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..n {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    for g in &mut out {
        g.sort_unstable();
    }
    out.sort_by_key(|g| g[0]);
    out
}

/// Executes one component against the read-only source, on the shared
/// node loop: scans take handles on the source's rows, and work is billed
/// to the worker's own counters.
fn run_component(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    program: &Program,
    nodes: &[usize],
    source: &Database,
) -> Result<WorkerOut> {
    let (mut writes, mut shipments) = (Vec::new(), Vec::new());
    let mut ops = NodeLoop::new(
        schema,
        source_frag,
        program,
        Some(source),
        None,
        nodes.iter().copied(),
    );
    // Operator timings of a worker are not reported: the caller splits
    // the pool's wall time by counter work instead.
    let mut unreported = ExecOutcome::default();
    for &i in nodes {
        let node = &program.nodes[i];
        // Stage shipping for inputs crossing to the target.
        for p in &node.inputs {
            if program.nodes[p.node].location == Location::Source
                && node.location == Location::Target
            {
                let label = program
                    .port_region(*p)
                    .map(|r| r.name(schema))
                    .unwrap_or_default();
                let body = ops.store.get(*p)?.to_wire().into_bytes();
                let message = Request::soap_post("/exchange", &label, body).to_bytes();
                ops.source_work.bytes_out += message.len() as u64;
                shipments.push((label, message));
            }
        }
        ops.run(i, &mut unreported, &mut |fragment, feed| {
            writes.push((fragment, feed));
            Ok(())
        })?;
    }
    Ok(WorkerOut {
        writes,
        shipments,
        source_counters: ops.source_work,
        target_counters: ops.target_work,
    })
}

/// Parallel counterpart of [`crate::exec::execute`]; produces identical
/// target state and identical shipped bytes, with component-parallel
/// computation, and like it leaves the target untouched when a write
/// fails. `threads` caps the worker count (components are simply
/// chunked across workers).
#[allow(clippy::too_many_arguments)]
pub fn execute_parallel(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    program: &Program,
    source: &mut Database,
    target: &mut Database,
    link: &mut Link,
    threads: usize,
) -> Result<ExecOutcome> {
    program.validate()?;
    program.validate_placement()?;
    let comps = components(program);
    let threads = threads.max(1).min(comps.len().max(1));

    // Chunk components round-robin across workers.
    let mut chunks: Vec<Vec<usize>> = vec![Vec::new(); threads];
    for (i, c) in comps.iter().enumerate() {
        chunks[i % threads].extend(c.iter().copied());
    }
    for chunk in &mut chunks {
        chunk.sort_unstable(); // preserve topological order within worker
    }

    let compute_start = Instant::now();
    let results: Vec<Result<WorkerOut>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let source_ref: &Database = source;
                scope.spawn(move || run_component(schema, source_frag, program, chunk, source_ref))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let compute_time = compute_start.elapsed();

    let mut outcome = ExecOutcome::default();
    // Computation wall time: attribute to source/target queries in
    // proportion to the counter work on each side.
    let mut total_source = Counters::new();
    let mut total_target = Counters::new();
    let mut all: Vec<WorkerOut> = Vec::with_capacity(results.len());
    for r in results {
        let w = r?;
        total_source.merge(&w.source_counters);
        total_target.merge(&w.target_counters);
        all.push(w);
    }
    let sw = total_source.work_units() as f64;
    let tw = total_target.work_units() as f64;
    let share = if sw + tw > 0.0 { sw / (sw + tw) } else { 1.0 };
    outcome.times.source_queries = compute_time.mulf(share);
    outcome.times.target_queries = compute_time.mulf(1.0 - share);
    source.counters.merge(&total_source);
    target.counters.merge(&total_target);

    // Serialize shipments over the single shared link.
    for w in &all {
        for (label, message) in &w.shipments {
            outcome.times.communication += link.send(label.clone(), message);
            outcome.bytes_shipped += message.len() as u64;
            outcome.messages += 1;
        }
    }

    // Stage every write, then commit and index them together: a write
    // that fails rolls back the ones staged before it.
    let start = Instant::now();
    let staged = all
        .into_iter()
        .flat_map(|w| w.writes)
        .try_for_each(|(fragment, feed)| {
            outcome.rows_loaded += feed.len() as u64;
            target.load_staged(&target_frag.fragments[fragment].name, feed)
        });
    outcome.times.loading = start.elapsed();
    if let Err(e) = staged {
        target.rollback_staged();
        return Err(e.into());
    }
    commit_and_index(program, target, &mut outcome)?;
    Ok(outcome)
}

/// `Duration * f64` helper (std has no stable `mul_f64` on all paths we
/// need with rounding to zero).
trait MulF {
    fn mulf(&self, f: f64) -> std::time::Duration;
}
impl MulF for std::time::Duration {
    fn mulf(&self, f: f64) -> std::time::Duration {
        std::time::Duration::from_secs_f64((self.as_secs_f64() * f).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::fragment::testutil::{customer_schema, t_fragmentation};
    use crate::gen::Generator;
    use crate::program::Op;
    use crate::shred::shred;
    use xdx_net::NetworkProfile;
    use xdx_xml::Writer;

    fn doc() -> String {
        let mut w = Writer::new();
        w.start("Customer");
        w.text_element("CustName", "acme");
        for o in 0..5 {
            w.start("Order");
            w.start("Service");
            w.text_element("ServiceName", &format!("svc{o}"));
            w.start("Line");
            w.text_element("TelNo", &format!("555-{o}"));
            w.start("Switch");
            w.text_element("SwitchID", "sw");
            w.end();
            w.start("Feature");
            w.text_element("FeatureID", "cid");
            w.end();
            w.end();
            w.end();
            w.end();
        }
        w.end();
        w.finish()
    }

    fn setup(schema: &SchemaTree, frag: &Fragmentation) -> Database {
        let shredded = shred(&doc(), schema, frag).unwrap();
        let mut db = Database::new("s");
        for (f, feed) in frag.fragments.iter().zip(shredded.feeds) {
            db.load(&f.name, feed).unwrap();
        }
        db
    }

    fn placed_program(gen: &Generator<'_>) -> Program {
        let mut p = gen.canonical().unwrap();
        for n in &mut p.nodes {
            n.location = match n.op {
                Op::Write { .. } => Location::Target,
                _ => Location::Source,
            };
        }
        p
    }

    #[test]
    fn components_partition_the_dag() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let gen = Generator::new(&schema, &mf, &mf);
        let p = placed_program(&gen);
        let comps = components(&p);
        assert_eq!(comps.len(), schema.len()); // one Scan→Write per element
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, p.len());
    }

    #[test]
    fn parallel_matches_sequential() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let program = placed_program(&gen);

        let mut seq_source = setup(&schema, &mf);
        let mut seq_target = Database::new("seq");
        let mut seq_link = Link::new(NetworkProfile::lan());
        let seq = execute(
            &schema,
            &mf,
            &t,
            &program,
            &mut seq_source,
            &mut seq_target,
            &mut seq_link,
        )
        .unwrap();

        for threads in [1, 2, 4] {
            let mut par_source = setup(&schema, &mf);
            let mut par_target = Database::new("par");
            let mut par_link = Link::new(NetworkProfile::lan());
            let par = execute_parallel(
                &schema,
                &mf,
                &t,
                &program,
                &mut par_source,
                &mut par_target,
                &mut par_link,
                threads,
            )
            .unwrap();
            assert_eq!(par.rows_loaded, seq.rows_loaded, "threads={threads}");
            assert_eq!(par.bytes_shipped, seq.bytes_shipped);
            assert_eq!(par.messages, seq.messages);
            for frag in &t.fragments {
                let mut a = seq_target.table(&frag.name).unwrap().data.clone();
                let mut b = par_target.table(&frag.name).unwrap().data.clone();
                let id = a.schema.root_id_col().unwrap();
                a.sort_by(&[id]);
                b.sort_by(&[id]);
                assert_eq!(a.rows, b.rows, "fragment {}", frag.name);
            }
        }
    }

    #[test]
    fn parallel_counters_match_sequential_reads() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let gen = Generator::new(&schema, &mf, &mf);
        let program = placed_program(&gen);
        let mut source = setup(&schema, &mf);
        let rows = source.total_rows() as u64;
        let mut target = Database::new("t");
        let mut link = Link::new(NetworkProfile::lan());
        execute_parallel(
            &schema,
            &mf,
            &mf,
            &program,
            &mut source,
            &mut target,
            &mut link,
            4,
        )
        .unwrap();
        assert_eq!(source.counters.rows_read, rows);
        assert_eq!(target.counters.rows_written, rows);
    }

    #[test]
    fn thread_count_is_clamped() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let gen = Generator::new(&schema, &mf, &mf);
        let program = placed_program(&gen);
        let mut source = setup(&schema, &mf);
        let mut target = Database::new("t");
        let mut link = Link::new(NetworkProfile::lan());
        // 1000 threads requested; must clamp to component count and work.
        let out = execute_parallel(
            &schema,
            &mf,
            &mf,
            &program,
            &mut source,
            &mut target,
            &mut link,
            1000,
        )
        .unwrap();
        assert!(out.rows_loaded > 0);
    }

    #[test]
    fn a_failing_write_leaves_the_target_untouched() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let program = placed_program(&gen);
        // One worker stages its writes in node order: the last `Write`
        // node's table is written last, after every other table.
        let last = program
            .nodes
            .iter()
            .rev()
            .find_map(|n| match n.op {
                Op::Write { fragment } => Some(fragment),
                _ => None,
            })
            .unwrap();
        let name = t.fragments[last].name.as_str();
        // The target already holds that table, with the wrong arity.
        let mut source = setup(&schema, &mf);
        let wrong = source.table(&mf.fragments[0].name).unwrap().data.clone();
        assert_ne!(
            wrong.schema.arity(),
            t.fragments[last].feed_schema(&schema).arity()
        );
        let mut target = Database::new("t");
        target.load(name, wrong.clone()).unwrap();
        let mut link = Link::new(NetworkProfile::lan());
        let run = execute_parallel(
            &schema,
            &mf,
            &t,
            &program,
            &mut source,
            &mut target,
            &mut link,
            1,
        );
        assert!(run.is_err());
        assert_eq!(target.table_names(), vec![name], "no other table landed");
        assert_eq!(
            target.table(name).unwrap().data,
            wrong,
            "the table is unchanged"
        );
        assert_eq!(target.staged_rows(), 0);
    }
}
