//! Pins the assembly the BURS back-end emits, so that a change to the emitter or to a
//! target's rules shows up here first.
//!
//! The corpus is every method of Table 1, Table 3 (`fft` and `montecarlo` among
//! them), `bank` and a default `generated` tree, each together with its two
//! rewritten copies from a 2-node plan, plus [`HAND`], which writes the forms the
//! corpus may lack. Every method is lowered to quads and emitted for both targets;
//! each program and target is pinned by an FNV-1a digest of its listing, the listing's
//! line count and three sample instructions. On a mismatch the test prints the whole fresh
//! table in source form.

use autodist::{Distributor, DistributorConfig};
use autodist_codegen::{generate_method, Target};
use autodist_ir::frontend::compile_source;
use autodist_ir::lower::lower_method;
use autodist_ir::Program;
use autodist_workloads::{bank, generated, table1_workloads, table3_workloads, GenConfig};

/// What the corpus may not contain: a compare of two immediates, string, float and
/// `null` constants, `!` and unary `-`, `new int[n]`, `.length` and element stores.
const HAND: &str = r#"
    class Shape {
        int side;
        float scale;
        String label;
        Shape next;
        Shape(int s) { side = s; scale = 1.5; label = "square"; next = null; }
        int area() { return side * side; }
        float scaled() { return scale * 2.0; }
    }
    class Main {
        static int checksum;
        static int[] fill(int n) {
            int[] a = new int[n];
            int i = 0;
            while (i < a.length) { a[i] = -i; i = i + 1; }
            return a;
        }
        static void main() {
            boolean ok = !(checksum > 3);
            if (1 < 2) { checksum = checksum + 1; }
            Shape s = new Shape(3);
            int[] a = fill(4);
            String t = "text";
            if (ok) { checksum = checksum + s.area() + a[2]; }
            if (s.next == null) { checksum = checksum - 1; }
        }
    }
"#;

/// `(program, target, digest, lines, samples)`: the listing of the program and of its
/// 2-node copies on one target.
type Pin = (&'static str, &'static str, u64, usize, [&'static str; 3]);

const PINS: &[Pin] = &[
    (
        "t1/CreateBench (Custom[])",
        "x86",
        0xeedbb3875d0ce6bc,
        196,
        ["push r8", "mov eax, ecx", "cmp edx, ebx"],
    ),
    (
        "t1/CreateBench (Custom[])",
        "arm",
        0x3f3099fea492c852,
        177,
        ["mov R8, #400", "mov R1, R2", "mov R2, #0"],
    ),
    (
        "t1/method",
        "x86",
        0x26937b25298a56c8,
        294,
        ["mov edx, esi", "cmp edx, ebx", "mov ebx, eax"],
    ),
    (
        "t1/method",
        "arm",
        0xd21493aff2214c46,
        257,
        ["mov R3, R4", "mov R2, #0", "mov R8, #2"],
    ),
    (
        "t1/crypt",
        "x86",
        0x43d600b0d078f205,
        366,
        ["mov eax, esi", "jmp BB3", "mov edi, esi"],
    ),
    (
        "t1/crypt",
        "arm",
        0xc375e399f25c78c1,
        336,
        ["mov R1, R4", "b BB3", "mov R11, #1"],
    ),
    (
        "t1/heapsort",
        "x86",
        0x208189b83a21e0c6,
        733,
        ["push eax", "mov [ebp-12], [eax + data]", "mov [ebp-12], 0"],
    ),
    (
        "t1/heapsort",
        "arm",
        0xeba50b51168c3604,
        637,
        ["bl Sorter.siftDown", "mov PC, R14", "cmp R8, R3"],
    ),
    (
        "t1/moldyn",
        "x86",
        0xef1ffc2bdb301034,
        668,
        ["ret eax", "mov [ebp-4], [eax + y]", "cmp ebx, [ebp-8]"],
    ),
    (
        "t1/moldyn",
        "arm",
        0xd3444f0ed5a028fd,
        602,
        ["add R3, R2, R8", "add R8, R8, R9", "mov R1, #0"],
    ),
    (
        "t1/search",
        "x86",
        0xf0e1476423846082,
        443,
        [
            "call rt_new_Searcher",
            "mov [ebp-12], [ebp-24]",
            "push [ebp-20]",
        ],
    ),
    (
        "t1/search",
        "arm",
        0xa816e7c7081ad287,
        381,
        ["bl rt_new_Searcher", "add R11, R11, R7", "bl rt_new_Board"],
    ),
    (
        "t1/compress",
        "x86",
        0x53ef5cd22376a030,
        802,
        ["mov [ebp-12], [[ebp-12] + edi*8]", "je BB8", "je BB13"],
    ),
    (
        "t1/compress",
        "arm",
        0xc35ad93c9c3b1c68,
        709,
        ["ldr R8, [R0, #data]", "sub R10, R8, R9", "mov R7, #1"],
    ),
    (
        "t1/db",
        "x86",
        0x44efbeda56c2f15f,
        815,
        ["call Database.update", "ret", "mov ecx, 0"],
    ),
    (
        "t1/db",
        "arm",
        0x627d43bd23d87f77,
        713,
        ["bne BB6", "b BB6", "mov PC, R14"],
    ),
    (
        "t3/CreateBench (int[])",
        "x86",
        0x9aef49140d499171,
        166,
        [
            "call Factory.run",
            "call rt_new_rt/DependentObject",
            "mov ecx, 0",
        ],
    ),
    (
        "t3/CreateBench (int[])",
        "arm",
        0x56b74bde96ba35f1,
        153,
        [
            "bl Factory.run",
            "bl rt_new_rt/DependentObject",
            "mov R2, #0",
        ],
    ),
    (
        "t3/CreateBench (long[])",
        "x86",
        0x9aef49140d499171,
        166,
        [
            "call Factory.run",
            "call rt_new_rt/DependentObject",
            "mov ecx, 0",
        ],
    ),
    (
        "t3/CreateBench (long[])",
        "arm",
        0x56b74bde96ba35f1,
        153,
        [
            "bl Factory.run",
            "bl rt_new_rt/DependentObject",
            "mov R2, #0",
        ],
    ),
    (
        "t3/CreateBench (float[])",
        "x86",
        0x28c67eade4de0f11,
        166,
        [
            "call Factory.run",
            "call rt_new_rt/DependentObject",
            "mov ecx, 0",
        ],
    ),
    (
        "t3/CreateBench (float[])",
        "arm",
        0x027f151a67a8bc65,
        153,
        [
            "bl Factory.run",
            "bl rt_new_rt/DependentObject",
            "mov R2, #0",
        ],
    ),
    (
        "t3/CreateBench (Object[])",
        "x86",
        0xc9698853346cf720,
        159,
        [
            "mov r8, 200",
            "call rt/DependentObject.<init>",
            "cmp edx, ebx",
        ],
    ),
    (
        "t3/CreateBench (Object[])",
        "arm",
        0xb379be752668611a,
        146,
        ["mov R0, R1", "mov R2, R11", "mov R3, #0"],
    ),
    (
        "t3/CreateBench (Custom[])",
        "x86",
        0x915ebb232862d7c6,
        196,
        ["push r8", "mov eax, ecx", "cmp edx, ebx"],
    ),
    (
        "t3/CreateBench (Custom[])",
        "arm",
        0x6bef4aecb65e35d8,
        177,
        ["mov R8, #200", "mov R1, R2", "mov R2, #0"],
    ),
    (
        "t3/method",
        "x86",
        0x3e344cb75b455dda,
        294,
        ["mov edx, esi", "cmp edx, ebx", "mov ebx, eax"],
    ),
    (
        "t3/method",
        "arm",
        0x00543c6f6a397ce8,
        257,
        ["mov R3, R4", "mov R2, #0", "mov R8, #2"],
    ),
    (
        "t3/fft",
        "x86",
        0xbb3173d99d945f30,
        484,
        [
            "mov [ebp-12], r8",
            "mov [ebp-4], esi",
            "add [ebp-8], [ebp-12]",
        ],
    ),
    (
        "t3/fft",
        "arm",
        0x31fc8a09aadc78e1,
        416,
        ["mul R8, R8, R3", "add R6, R6, R7", "mul R8, R8, R11"],
    ),
    (
        "t3/heapsort",
        "x86",
        0xc95b9114cc8e7639,
        733,
        ["push eax", "mov [ebp-12], [eax + data]", "mov [ebp-12], 0"],
    ),
    (
        "t3/heapsort",
        "arm",
        0x628d000a1e4b6173,
        637,
        ["bl Sorter.siftDown", "mov PC, R14", "cmp R8, R3"],
    ),
    (
        "t3/moldyn",
        "x86",
        0x02353f6044760a15,
        668,
        ["ret eax", "mov [ebp-4], [eax + y]", "cmp ebx, [ebp-8]"],
    ),
    (
        "t3/moldyn",
        "arm",
        0x4fdb93e05f2911e0,
        602,
        ["add R3, R2, R8", "add R8, R8, R9", "mov R1, #0"],
    ),
    (
        "t3/montecarlo",
        "x86",
        0x254e0b071c35663b,
        319,
        [
            "mov r14, 4000",
            "imul [ebp-8], edi",
            "mov edx, [eax + state]",
        ],
    ),
    (
        "t3/montecarlo",
        "arm",
        0x3dc40a6e6dea6283,
        276,
        ["mov R13, #4000", "mul R7, R5, R5", "bge BB4"],
    ),
    (
        "bank",
        "x86",
        0x7f3dfae00b5fa63f,
        758,
        ["push edi", "jmp BB6", "mov [eax + count], r9"],
    ),
    (
        "bank",
        "arm",
        0x64721abf4c8b0237,
        641,
        ["mov R1, R15", "mov PC, R14", "str R1, [R0, #name]"],
    ),
    (
        "generated",
        "x86",
        0x31e29c986cd266b9,
        1237,
        ["mov r11, 2", "ret", "idiv ; remainder in edx [ebp-4], r11"],
    ),
    (
        "generated",
        "arm",
        0x87917fab61e118a3,
        1026,
        ["mov R10, #2", "mov R4, #0", "mov R5, R0"],
    ),
    (
        "hand",
        "x86",
        0xfa3d353a3a039755,
        370,
        ["add esp, 4", "mov esi, 3", "mov r8, 2"],
    ),
    (
        "hand",
        "arm",
        0xd1e9279d16178d0b,
        336,
        ["add R4, R4, R5", "mov R4, #3", "ldr R1, [R0, #scale]"],
    ),
];

struct Fnv(u64);

impl Fnv {
    fn line(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Each corpus program followed by its two rewritten copies from a 2-node plan.
fn corpus() -> Vec<(String, Vec<Program>)> {
    let mut programs: Vec<(String, Program)> = Vec::new();
    for (table, workloads) in [("t1", table1_workloads(1)), ("t3", table3_workloads(1))] {
        for w in workloads {
            programs.push((format!("{table}/{}", w.name), w.program));
        }
    }
    programs.push(("bank".into(), bank(100).program));
    let tree = generated(&GenConfig::default()).workload.program;
    programs.push(("generated".into(), tree));
    programs.push((
        "hand".into(),
        compile_source(HAND).expect("the hand source compiles"),
    ));
    let planner = Distributor::new(DistributorConfig::multilevel(2));
    (programs.into_iter())
        .map(|(name, program)| {
            let plan = (planner.try_distribute(&program))
                .unwrap_or_else(|e| panic!("{name} plans on two nodes: {e}"));
            let copies = plan.node_programs.into_iter().map(|copy| copy.program);
            (name, std::iter::once(program).chain(copies).collect())
        })
        .collect()
}

/// Every method with a body, in id order: a header line, then its assembly.
fn listing(program: &Program, target: Target, out: &mut Vec<String>) {
    for method in &program.methods {
        if method.body.is_empty() {
            continue;
        }
        out.push(format!(
            "== {}.{}",
            program.class(method.class).name,
            method.name
        ));
        match lower_method(program, method) {
            Ok(qm) => out.extend(generate_method(program, &qm, target)),
            Err(e) => out.push(format!("!! {e}")),
        }
    }
}

/// The first instruction at or after `lines[i]` (labels and headers say little).
fn sample(lines: &[String], i: usize) -> String {
    let instruction = |l: &&String| !l.starts_with("==") && !l.ends_with(':');
    lines[i..]
        .iter()
        .find(instruction)
        .cloned()
        .unwrap_or_default()
}

#[test]
fn every_corpus_method_emits_its_pinned_assembly() {
    let mut fresh = Vec::new();
    for (name, programs) in corpus() {
        for (tag, target) in [("x86", Target::X86), ("arm", Target::StrongArm)] {
            let mut lines = Vec::new();
            for program in &programs {
                listing(program, target, &mut lines);
            }
            let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
            for line in &lines {
                hash.line(line);
            }
            let n = lines.len();
            let samples = [n / 4, n / 2, 3 * n / 4].map(|i| sample(&lines, i));
            fresh.push((name.clone(), tag, hash.0, n, samples));
        }
    }
    let matches = fresh.len() == PINS.len()
        && fresh.iter().zip(PINS).all(|(f, p)| {
            f.0 == p.0 && f.1 == p.1 && f.2 == p.2 && f.3 == p.3 && f.4 == p.4.map(String::from)
        });
    if !matches {
        println!("const PINS: &[Pin] = &[");
        for (name, tag, digest, n, samples) in &fresh {
            println!(
                "    ({name:?}, {tag:?}, 0x{digest:016x}, {n}, [{:?}, {:?}, {:?}]),",
                samples[0], samples[1], samples[2]
            );
        }
        println!("];");
    }
    assert!(
        matches,
        "the emitted assembly moved; the fresh table is printed above"
    );
}

/// Every rule left in either table is chosen somewhere in the corpus, so none can
/// change without the pin above noticing. Prints how often each was chosen.
#[test]
fn every_rule_is_chosen_somewhere_in_the_corpus() {
    let corpus = corpus();
    for target in [Target::X86, Target::StrongArm] {
        let mut emitter = target.emitter();
        for program in corpus.iter().flat_map(|(_, programs)| programs) {
            for method in program.methods.iter().filter(|m| !m.body.is_empty()) {
                let qm = lower_method(program, method).expect("every corpus method lowers");
                emitter.method(program, &qm);
            }
        }
        let census = emitter.census();
        println!("{target:?} rule census:");
        for (rule, chosen) in &census {
            println!("  {rule:<16} {chosen:>7}");
        }
        let unused: Vec<_> = census.iter().filter(|(_, n)| *n == 0).collect();
        assert!(
            unused.is_empty(),
            "{target:?} rules never chosen: {unused:?}"
        );
    }
}
