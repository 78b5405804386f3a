//! The identity baseline: every deterministic quantity the repository pins, rendered
//! as one JSON document and committed as `BENCH_baseline.json` at the repository
//! root.
//!
//! Nothing here reads a clock — time belongs to the frozen benchmark
//! (`crates/bench/src/bin/benchmark/`). What is left is what must not move under a
//! purely mechanical change, so [`render`] is compared to the committed file byte for
//! byte by `tests::committed_baseline_is_current`:
//!
//! * `workloads` — the eight Table 1 rows, centralized vs distributed on the paper
//!   testbed: virtual times, message count, checksum agreement.
//! * `graphs` — the Table 1 graph columns of those eight, `bank(100)` and three
//!   generated call trees under the default configuration, plus three hashes:
//!   `odg_digest` of the whole ODG edge set, `program_digest` of what the front end
//!   emitted and `node_programs_digest` of what the rewriter made of it for the two
//!   nodes — each a deterministic artefact of the source text. The `gen-d6w12` and
//!   `gen-d8w24` rows add `odg_cut_n{4,8}` and `node_programs_digest_n{4,8}`: the same
//!   plan on 4 and 8 nodes, which is where the partitioner recurses.
//! * `op_census` — per Table 1 workload and chain microbench ([`crate::microbench`]),
//!   the op counts of the 1:1 (`stack_ops`) and folded (`register_ops`) register
//!   forms, the folded form's placing moves and zero-width ops, and the dynamic
//!   dispatch reduction.
//! * `wire_codec` — the encoded frame size of the three dominant remote accesses.
//! * `serving` / `adaptive_serving` — traffic totals of the two closed loops in
//!   [`crate::serving`].
//! * `quiet_fault_plans` — the identity booleans of [`crate::fault`].
//!
//! A change that moves one of these on purpose (a cost-model or wire-format change)
//! re-records the file (`cargo run --release -p autodist-bench --bin baseline >
//! BENCH_baseline.json` from the repository root) and says so; nothing parses the
//! document, so it is written by hand.

use autodist::{Distributor, DistributorConfig, PipelineResult, Table1Row};
use autodist_analysis::odg::ObjectDependenceGraph;
use autodist_ir::printer::format_insn;
use autodist_ir::program::Program;
use autodist_runtime::wire::{encode_dependence, encode_new, AccessKind, WireValue};
use autodist_workloads::GenConfig;
use bytes::BytesMut;

use crate::microbench::{self, ARITH_CHAIN_DEEP, COND_CHAIN_DEEP};
use crate::{fault, measure_speedup, serving};

/// Encoded sizes of the dominant Table 1 remote accesses — the bounce invoke with one
/// int argument, the bare field read, a one-argument constructor — hello excluded (it
/// is paid once per link, not per message).
fn frame_sizes() -> [(&'static str, usize); 3] {
    let dep = |kind, member, args: &[WireValue]| {
        let mut frame = BytesMut::new();
        encode_dependence(&mut frame, None, 7, kind, member, args.iter().cloned());
        frame.len()
    };
    let new = |class, args: &[WireValue]| {
        let mut frame = BytesMut::new();
        encode_new(&mut frame, None, class, args.iter().cloned());
        frame.len()
    };
    [
        (
            "dep_invoke_1int",
            dep(AccessKind::InvokeRet, 3, &[WireValue::Int(1)]),
        ),
        ("dep_getfield", dep(AccessKind::GetField, 1, &[])),
        ("new_1int", new(4, &[WireValue::Int(42)])),
    ]
}

/// 64-bit FNV-1a, the one hash behind every `*_digest` column.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    /// Length-prefixed, so adjacent strings cannot trade bytes.
    fn text(&mut self, s: &str) {
        self.eat(&(s.len() as u64).to_le_bytes());
        self.eat(s.as_bytes());
    }
}

/// The ODG's edges as sorted `(from, to, kind, weight)` tuples (little-endian
/// `u32, u32, u8, u64`), so the digest names the edge *set*: it moves when an edge
/// appears, disappears or is re-weighted, not when `edges` is reordered.
fn odg_digest(odg: &ObjectDependenceGraph) -> u64 {
    let mut edges: Vec<_> = odg
        .edges
        .iter()
        .map(|e| (e.from.0, e.to.0, e.kind as u8, e.weight))
        .collect();
    edges.sort_unstable();
    let mut hash = Fnv::new();
    for (from, to, kind, weight) in edges {
        hash.eat(&from.to_le_bytes());
        hash.eat(&to.to_le_bytes());
        hash.eat(&[kind]);
        hash.eat(&weight.to_le_bytes());
    }
    hash.0
}

/// Everything a front end or a rewriter decides about `program`, in id order: each
/// class (name, superclass, fields with type and staticness, `is_synthetic`) and each
/// method (name, class, parameter and return types, `is_static`, `locals`, and the
/// printed form of every instruction). Types and instructions go in as their
/// `Display` / [`format_insn`] text, so the digest moves exactly when a listing would.
fn eat_program(hash: &mut Fnv, program: &Program) {
    hash.eat(&(program.classes.len() as u64).to_le_bytes());
    for class in &program.classes {
        hash.text(&class.name);
        hash.eat(
            &class
                .super_class
                .map_or(0, |c| u64::from(c.0) + 1)
                .to_le_bytes(),
        );
        hash.eat(&(class.fields.len() as u64).to_le_bytes());
        for field in &class.fields {
            hash.text(&field.name);
            hash.text(&field.ty.to_string());
            hash.eat(&[u8::from(field.is_static)]);
        }
        hash.eat(&[u8::from(class.is_synthetic)]);
    }
    hash.eat(&(program.methods.len() as u64).to_le_bytes());
    for method in &program.methods {
        hash.text(&method.name);
        hash.eat(&method.class.0.to_le_bytes());
        hash.eat(&(method.params.len() as u64).to_le_bytes());
        for param in &method.params {
            hash.text(&param.to_string());
        }
        hash.text(&method.ret.to_string());
        hash.eat(&[u8::from(method.is_static)]);
        hash.eat(&method.locals.to_le_bytes());
        hash.eat(&(method.body.len() as u64).to_le_bytes());
        for insn in &method.body {
            hash.text(&format_insn(program, insn));
        }
    }
}

/// The digest of one program (`eat_program`): equal for two programs exactly when
/// they declare the same classes and methods with the same bodies, id for id.
pub fn program_digest(program: &Program) -> u64 {
    let mut hash = Fnv::new();
    eat_program(&mut hash, program);
    hash.0
}

/// `program` planned on `nodes` nodes under the default configuration otherwise: its
/// Table 1 row, its ODG digest and the digest of its rewritten copies taken together.
fn plan_row(name: &str, program: &Program, nodes: usize) -> PipelineResult<(Table1Row, u64, u64)> {
    let plan = Distributor::new(DistributorConfig::multilevel(nodes)).try_distribute(program)?;
    let row = Table1Row::build(
        name,
        program,
        &plan.analysis,
        &plan.partitioning,
        &plan.placement,
    );
    let mut node_programs = Fnv::new();
    for copy in &plan.node_programs {
        eat_program(&mut node_programs, &copy.program);
    }
    Ok((row, odg_digest(&plan.analysis.odg), node_programs.0))
}

/// One `graphs` row: the Table 1 columns of `program` planned under the default
/// configuration (two nodes), and the digests of its ODG, of the program itself and of
/// its two rewritten copies taken together; then, for each of `wider` node counts,
/// `odg_cut_n{nodes}` and `node_programs_digest_n{nodes}` of the plan on that many.
fn graph_row(name: &str, program: &Program, wider: &[usize]) -> PipelineResult<String> {
    let (row, odg, node_programs) = plan_row(name, program, 2)?;
    let mut out = format!(
        "\"name\": {}, \"classes\": {}, \"methods\": {}, \"crg_nodes\": {}, \
         \"crg_edges\": {}, \"crg_cut\": {}, \"odg_nodes\": {}, \"odg_edges\": {}, \
         \"odg_cut\": {}, \"odg_digest\": \"{:016x}\", \"program_digest\": \"{:016x}\", \
         \"node_programs_digest\": \"{:016x}\"",
        json_string(name),
        row.classes,
        row.methods,
        row.crg.nodes,
        row.crg.edges,
        row.crg.edgecut,
        row.odg.nodes,
        row.odg.edges,
        row.odg.edgecut,
        odg,
        program_digest(program),
        node_programs
    );
    for &nodes in wider {
        let (row, _, node_programs) = plan_row(name, program, nodes)?;
        out.push_str(&format!(
            ", \"odg_cut_n{nodes}\": {}, \"node_programs_digest_n{nodes}\": \"{node_programs:016x}\"",
            row.odg.edgecut
        ));
    }
    Ok(out)
}

/// One array section: `"key": [`, one object per line, `]`.
fn rows_section(key: &str, rows: &[String]) -> String {
    let rows: Vec<String> = rows.iter().map(|r| format!("    {{{r}}}")).collect();
    format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n"))
}

/// Measures every section at scale 1 and renders the document.
pub fn render() -> PipelineResult<String> {
    let table1 = autodist_workloads::table1_workloads(1);
    let mut sections = vec!["  \"scale\": 1".to_string()];

    let mut rows = Vec::new();
    for w in &table1 {
        let r = measure_speedup(w, &DistributorConfig::default())?;
        rows.push(format!(
            "\"name\": {}, \"centralized_virtual_us\": {:.1}, \
             \"distributed_virtual_us\": {:.1}, \"messages\": {}, \"checksum_matches\": {}",
            json_string(&r.benchmark),
            r.centralized_us,
            r.distributed_us,
            r.messages,
            r.checksum_matches
        ));
    }
    sections.push(rows_section("workloads", &rows));

    let mut rows = Vec::new();
    for w in table1.iter().chain([&autodist_workloads::bank(100)]) {
        rows.push(graph_row(&w.name, &w.program, &[])?);
    }
    // The two larger call trees are the ones the partitioner coarsens; at 4 and 8 nodes
    // they also pin its recursion below the first bisection.
    for (depth, width, wider) in [(4, 8, &[][..]), (6, 12, &[4, 8]), (8, 24, &[4, 8])] {
        let g = autodist_workloads::generated(&GenConfig {
            depth,
            width,
            fan_out: 3,
            ..GenConfig::default()
        });
        rows.push(graph_row(
            &format!("gen-d{depth}w{width}"),
            &g.workload.program,
            wider,
        )?);
    }
    sections.push(rows_section("graphs", &rows));

    let chains = [
        ("arith_chain_deep", ARITH_CHAIN_DEEP),
        ("cond_chain_deep", COND_CHAIN_DEEP),
    ];
    let census = table1
        .iter()
        .map(|w| microbench::census(&w.name, &w.program))
        .chain(
            chains
                .iter()
                .map(|(name, src)| microbench::census(name, &microbench::compile_chain(src))),
        );
    let rows: Vec<String> = census
        .map(|c| {
            let s = &c.static_;
            format!(
                "\"name\": {}, \"stack_ops\": {}, \"register_ops\": {}, \"moves\": {}, \
                 \"zero_width\": {}, \"instructions\": {}, \
                 \"dispatches\": {}, \"dispatch_reduction_pct\": {:.1}",
                json_string(&c.name),
                s.stack_ops,
                s.register_ops,
                s.moves,
                s.zero_width,
                c.dynamic.instructions,
                c.dynamic.dispatches,
                c.dynamic.dispatch_reduction_pct()
            )
        })
        .collect();
    sections.push(rows_section("op_census", &rows));

    let rows: Vec<String> = frame_sizes()
        .iter()
        .map(|(name, bytes)| format!("\"name\": {}, \"bytes\": {}", json_string(name), bytes))
        .collect();
    sections.push(rows_section("wire_codec", &rows));

    let s = serving::measure_serving()?;
    sections.push(format!(
        "  \"serving\": {{\"requests\": {}, \"concurrency\": {}, \"messages\": {}, \
         \"bytes\": {}, \"all_ok\": {}}}",
        s.requests, s.concurrency, s.messages, s.bytes, s.all_ok
    ));

    let a = serving::measure_adaptive_serving()?;
    sections.push(format!(
        "  \"adaptive_serving\": {{\n    \"requests\": {}, \"epoch_requests\": {},\n    \
         \"static_messages\": {}, \"static_bytes\": {},\n    \
         \"adaptive_messages\": {}, \"adaptive_bytes\": {},\n    \
         \"placement_swaps\": {}, \"all_ok\": {}, \"checksums_match\": {}\n  }}",
        a.requests,
        a.epoch_requests,
        a.static_messages,
        a.static_bytes,
        a.adaptive_messages,
        a.adaptive_bytes,
        a.placement_swaps,
        a.all_ok,
        a.checksums_match
    ));

    let rows: Vec<String> = fault::quiet_plan_identity()?
        .iter()
        .map(|q| {
            format!(
                "\"name\": {}, \"virtual_identical\": {}, \"messages_identical\": {}",
                json_string(&q.name),
                q.virtual_identical,
                q.messages_identical
            )
        })
        .collect();
    sections.push(rows_section("quiet_fault_plans", &rows));

    Ok(format!("{{\n{}\n}}\n", sections.join(",\n")))
}

/// Escapes a string into a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../BENCH_baseline.json");
    const RERECORD: &str =
        "cargo run --release -p autodist-bench --bin baseline > BENCH_baseline.json";

    /// `None` when the two documents are equal, else the first line that differs
    /// (1-based) with both sides' text (`<end of file>` for the shorter one).
    fn first_difference(committed: &str, fresh: &str) -> Option<String> {
        if committed == fresh {
            return None;
        }
        // Unequal strings have unequal `split` sequences, so the loop ends.
        let (mut c, mut f) = (committed.split('\n'), fresh.split('\n'));
        let mut line = 1;
        loop {
            let (cl, fl) = (c.next(), f.next());
            if cl != fl {
                let show = |l: Option<&str>| l.unwrap_or("<end of file>").trim().to_string();
                return Some(format!(
                    "line {line}\n  committed: {}\n  measured:  {}",
                    show(cl),
                    show(fl)
                ));
            }
            line += 1;
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
    }

    #[test]
    fn first_difference_names_the_line_and_both_sides() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        let d = first_difference("a\n\"messages\": 4\n", "a\n\"messages\": 5\n").unwrap();
        assert!(d.starts_with("line 2"), "{d}");
        assert!(d.contains("committed: \"messages\": 4"), "{d}");
        assert!(d.contains("measured:  \"messages\": 5"), "{d}");
        let d = first_difference("a", "a\nb").unwrap();
        assert!(d.contains("committed: <end of file>"), "{d}");
    }

    /// The byte-identity net: every virtual time, message and byte count, census
    /// count, frame size and identity boolean equals its committed value.
    #[test]
    fn committed_baseline_is_current() {
        let fresh = render().expect("every section measures");
        if let Some(diff) = first_difference(COMMITTED, &fresh) {
            panic!(
                "BENCH_baseline.json is not what this tree measures; first difference at {diff}\n\
                 If the change is intended (cost model, wire format), re-record with\n  {RERECORD}\n\
                 and name the moved fields in CHANGES.md."
            );
        }
    }
}
