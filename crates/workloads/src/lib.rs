//! # autodist-workloads
//!
//! The benchmark programs used in the paper's evaluation, re-expressed in this
//! repository's MiniJava-style source language and compiled to the IR on demand:
//!
//! * **Java Grande section 1–3 kernels** — Create, Method, Crypt, HeapSort, MolDyn,
//!   Search (Table 1/2 + Figure 11), plus FFT and MonteCarlo (Table 3).
//! * **SPEC JVM98-shaped programs** — `compress` (201_compress) and `db` (209_db).
//! * The **Bank/Account** running example of Figure 2.
//!
//! Each workload is built as a `Main` driver class plus one or more worker/data classes
//! so that the class-level placement used by the distribution rewriter has something
//! meaningful to split. Every program stores a final checksum into `Main.checksum`,
//! which the tests (and the distributed-vs-centralized comparisons) use to check that
//! transformations preserve behaviour.

use autodist_ir::frontend::compile_source;
use autodist_ir::Program;

mod gen;
pub use gen::{generated, generated_source, phased, GenConfig, GeneratedWorkload, PhasedWorkload};

/// The array-element flavour of the Create benchmark (the paper's Table 3 rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CreateKind {
    /// `int[]` allocations.
    IntArray,
    /// `long[]` allocations (same as int in this IR, kept for table fidelity).
    LongArray,
    /// `float[]` allocations.
    FloatArray,
    /// `Object[]` allocations.
    ObjectArray,
    /// Arrays of a user-defined class.
    CustomArray,
}

impl CreateKind {
    /// Display name used in Table 3.
    pub fn name(&self) -> &'static str {
        match self {
            CreateKind::IntArray => "CreateBench (int[])",
            CreateKind::LongArray => "CreateBench (long[])",
            CreateKind::FloatArray => "CreateBench (float[])",
            CreateKind::ObjectArray => "CreateBench (Object[])",
            CreateKind::CustomArray => "CreateBench (Custom[])",
        }
    }
}

/// A named, ready-to-run benchmark program.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short name (matches the paper's tables).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// The compiled program.
    pub program: Program,
}

fn build(name: &str, description: &str, src: &str) -> Workload {
    let program =
        compile_source(src).unwrap_or_else(|e| panic!("workload {name} failed to compile: {e}"));
    Workload {
        name: name.to_string(),
        description: description.to_string(),
        program,
    }
}

/// The Bank/Account example of Figure 2.
pub fn bank(customers: usize) -> Workload {
    let src = format!(
        r#"
        class Account {{
            int id;
            String name;
            int savings;
            int checking;
            Account(int id, String name, int savings, int checking) {{
                this.id = id;
                this.name = name;
                this.savings = savings;
                this.checking = checking;
            }}
            int getSavings() {{ return this.savings; }}
            int getId() {{ return this.id; }}
            int getBalance() {{ return this.savings; }}
            void setBalance(int b) {{ this.savings = b; }}
        }}
        class Bank {{
            int id;
            String name;
            int numCustomers;
            Account[] accounts;
            int count;
            Bank(String name, int numCustomers, int initialBalance) {{
                this.name = name;
                this.numCustomers = numCustomers;
                this.accounts = new Account[{cap}];
                this.count = 0;
                this.initializeAccounts(initialBalance);
            }}
            void initializeAccounts(int initialBalance) {{
                int i = 0;
                while (i < this.numCustomers) {{
                    Account a = new Account(i, "customer", initialBalance, 0);
                    this.openAccount(a);
                    i = i + 1;
                }}
            }}
            void openAccount(Account a) {{
                this.accounts[this.count] = a;
                this.count = this.count + 1;
            }}
            Account getCustomer(int customerID) {{ return this.accounts[customerID]; }}
            boolean withdraw(int customerID, int amount) {{
                if (amount > 0) {{
                    this.getCustomer(customerID).setBalance(
                        this.getCustomer(customerID).getBalance() - amount);
                    return true;
                }} else {{
                    return false;
                }}
            }}
            int totalSavings() {{
                int t = 0;
                int i = 0;
                while (i < this.count) {{
                    t = t + this.accounts[i].getSavings();
                    i = i + 1;
                }}
                return t;
            }}
        }}
        class Main {{
            static int checksum;
            static void main() {{
                Bank merchants = new Bank("Merchants", {n}, 10000);
                Account a4 = new Account(1001, "ABC Market", 1000000, 100000);
                Account a5 = new Account(1002, "CDE Outlet", 5000000, 300000);
                merchants.openAccount(a4);
                merchants.openAccount(a5);
                Account a = merchants.getCustomer(2);
                boolean ok = merchants.withdraw(a.getId(), 900);
                checksum = merchants.totalSavings();
            }}
        }}
        "#,
        n = customers,
        cap = customers + 8
    );
    build("bank", "the Bank/Account running example of Figure 2", &src)
}

/// JGFCreateBench: object and array creation throughput.
pub fn create_bench(kind: CreateKind, iterations: usize) -> Workload {
    let body = match kind {
        CreateKind::IntArray | CreateKind::LongArray => {
            "int[] a = new int[32]; a[0] = i; sink = sink + a[0];".to_string()
        }
        CreateKind::FloatArray => {
            "float[] a = new float[32]; a[0] = 1.5; sink = sink + 1;".to_string()
        }
        CreateKind::ObjectArray => {
            "Item[] a = new Item[16]; a[0] = new Item(); sink = sink + 1;".to_string()
        }
        CreateKind::CustomArray => {
            "Custom c = new Custom(i, i + 1); Custom[] a = new Custom[8]; a[0] = c; sink = sink + c.a;"
                .to_string()
        }
    };
    let src = format!(
        r#"
        class Item {{ int v; }}
        class Custom {{
            int a;
            int b;
            Custom(int a, int b) {{ this.a = a; this.b = b; }}
        }}
        class Factory {{
            int run(int n) {{
                int sink = 0;
                int i = 0;
                while (i < n) {{
                    {body}
                    i = i + 1;
                }}
                return sink;
            }}
        }}
        class Main {{
            static int checksum;
            static void main() {{
                Factory f = new Factory();
                checksum = f.run({n}) + 1;
            }}
        }}
        "#,
        body = body,
        n = iterations
    );
    build(kind.name(), "JGFCreateBench: allocation throughput", &src)
}

/// JGFMethodBench: method invocation throughput (instance + static + virtual).
pub fn method_bench(iterations: usize) -> Workload {
    let src = format!(
        r#"
        class Base {{
            int id() {{ return 1; }}
        }}
        class Derived extends Base {{
            int id() {{ return 2; }}
        }}
        class Callee {{
            int instanceAdd(int x) {{ return x + 1; }}
            static int staticAdd(int x) {{ return x + 2; }}
        }}
        class Harness {{
            Callee callee;
            Base plain;
            Base derived;
            Harness() {{
                this.callee = new Callee();
                this.plain = new Base();
                this.derived = new Derived();
            }}
            int run(int n) {{
                int acc = 0;
                int i = 0;
                while (i < n) {{
                    acc = this.callee.instanceAdd(acc);
                    acc = Callee.staticAdd(acc);
                    acc = acc + this.plain.id() + this.derived.id();
                    i = i + 1;
                }}
                return acc;
            }}
        }}
        class Main {{
            static int checksum;
            static void main() {{
                Harness h = new Harness();
                checksum = h.run({n});
            }}
        }}
        "#,
        n = iterations
    );
    build(
        "method",
        "JGFMethodBench: method invocation throughput",
        &src,
    )
}

/// JGFCryptBench: symmetric encrypt/decrypt over an integer buffer.
pub fn crypt(size: usize) -> Workload {
    let src = format!(
        r#"
        class Cipher {{
            int key1;
            int key2;
            int[] plain;
            Cipher(int n, int k1, int k2) {{
                this.key1 = k1;
                this.key2 = k2;
                this.plain = new int[n];
                int i = 0;
                while (i < n) {{ this.plain[i] = (i * 17 + 3) % 251; i = i + 1; }}
            }}
            int run() {{
                int[] out = new int[this.plain.length];
                int i = 0;
                while (i < this.plain.length) {{
                    int v = this.plain[i];
                    v = (v * this.key1 + this.key2) % 65536;
                    v = (v * 3 + 7) % 65536;
                    out[i] = v;
                    i = i + 1;
                }}
                int d = 0;
                i = 0;
                while (i < out.length) {{
                    d = (d * 31 + out[i]) % 1000000007;
                    i = i + 1;
                }}
                return d;
            }}
        }}
        class Main {{
            static int checksum;
            static void main() {{
                Cipher c = new Cipher({n}, 52845, 22719);
                checksum = c.run() + 1;
            }}
        }}
        "#,
        n = size
    );
    build("crypt", "JGFCryptBench: block cipher kernel", &src)
}

/// JGFHeapSortBench: heapsort over a pseudo-random integer array.
pub fn heapsort(size: usize) -> Workload {
    let src = format!(
        r#"
        class Sorter {{
            int[] data;
            Sorter(int n) {{
                this.data = new int[n];
                int seed = 13;
                int i = 0;
                while (i < n) {{
                    seed = (seed * 1103515245 + 12345) % 2147483647;
                    if (seed < 0) {{ seed = 0 - seed; }}
                    this.data[i] = seed % 10000;
                    i = i + 1;
                }}
            }}
            void siftDown(int[] a, int start, int end) {{
                int root = start;
                boolean done = false;
                while (root * 2 + 1 <= end && done == false) {{
                    int child = root * 2 + 1;
                    if (child + 1 <= end) {{
                        if (a[child] < a[child + 1]) {{ child = child + 1; }}
                    }}
                    if (a[root] < a[child]) {{
                        int t = a[root];
                        a[root] = a[child];
                        a[child] = t;
                        root = child;
                    }} else {{
                        done = true;
                    }}
                }}
            }}
            int run() {{
                int[] a = this.data;
                int n = a.length;
                int start = n / 2 - 1;
                while (start >= 0) {{
                    this.siftDown(a, start, n - 1);
                    start = start - 1;
                }}
                int end = n - 1;
                while (end > 0) {{
                    int t = a[end];
                    a[end] = a[0];
                    a[0] = t;
                    end = end - 1;
                    this.siftDown(a, 0, end);
                }}
                int i = 1;
                int ok = 1;
                while (i < a.length) {{
                    if (a[i - 1] > a[i]) {{ ok = 0; }}
                    i = i + 1;
                }}
                return ok * (a[a.length - 1] + 1);
            }}
        }}
        class Main {{
            static int checksum;
            static void main() {{
                Sorter s = new Sorter({n});
                checksum = s.run();
            }}
        }}
        "#,
        n = size
    );
    build("heapsort", "JGFHeapSortBench: heapsort kernel", &src)
}

/// JGFMolDynBench: an O(N^2) particle force computation.
pub fn moldyn(particles: usize, steps: usize) -> Workload {
    let src = format!(
        r#"
        class Particles {{
            float[] x;
            float[] y;
            float[] fx;
            float[] fy;
            int n;
            Particles(int n) {{
                this.n = n;
                this.x = new float[n];
                this.y = new float[n];
                this.fx = new float[n];
                this.fy = new float[n];
                int i = 0;
                while (i < n) {{
                    this.x[i] = 0.3 * i;
                    this.y[i] = 0.7 * i;
                    i = i + 1;
                }}
            }}
            void step() {{
                int i = 0;
                while (i < this.n) {{
                    int j = 0;
                    while (j < this.n) {{
                        if (i != j) {{
                            float dx = this.x[i] - this.x[j];
                            float dy = this.y[i] - this.y[j];
                            float r2 = dx * dx + dy * dy + 1.0;
                            this.fx[i] = this.fx[i] + dx / r2;
                            this.fy[i] = this.fy[i] + dy / r2;
                        }}
                        j = j + 1;
                    }}
                    i = i + 1;
                }}
                i = 0;
                while (i < this.n) {{
                    this.x[i] = this.x[i] + this.fx[i] * 0.001;
                    this.y[i] = this.y[i] + this.fy[i] * 0.001;
                    i = i + 1;
                }}
            }}
            float energy() {{
                float e = 0.0;
                int i = 0;
                while (i < this.n) {{
                    e = e + this.x[i] * this.x[i] + this.y[i] * this.y[i];
                    i = i + 1;
                }}
                return e;
            }}
        }}
        class Main {{
            static int checksum;
            static void main() {{
                Particles p = new Particles({n});
                int s = 0;
                while (s < {steps}) {{
                    p.step();
                    s = s + 1;
                }}
                float e = p.energy();
                if (e > 0.0) {{ checksum = 1000 + {n}; }} else {{ checksum = 1; }}
            }}
        }}
        "#,
        n = particles,
        steps = steps
    );
    build("moldyn", "JGFMolDynBench: N-body force kernel", &src)
}

/// JGFSearchBench: a recursive game-tree search (alpha-beta flavoured).
pub fn search(depth: usize) -> Workload {
    let depth = depth.min(14);
    let src = format!(
        r#"
        class Board {{
            int state;
            Board(int s) {{ this.state = s; }}
            int evaluate() {{ return (this.state * 37 + 11) % 101 - 50; }}
        }}
        class Searcher {{
            int nodes;
            int search(int state, int depth, int alpha, int beta) {{
                this.nodes = this.nodes + 1;
                if (depth == 0) {{
                    Board b = new Board(state);
                    return b.evaluate();
                }}
                int best = 0 - 100000;
                int move = 0;
                while (move < 3) {{
                    int child = state * 3 + move + 1;
                    int score = 0 - this.search(child, depth - 1, 0 - beta, 0 - alpha);
                    if (score > best) {{ best = score; }}
                    if (best > alpha) {{ alpha = best; }}
                    if (alpha >= beta) {{ move = 3; }} else {{ move = move + 1; }}
                }}
                return best;
            }}
        }}
        class Main {{
            static int checksum;
            static void main() {{
                Searcher s = new Searcher();
                int score = s.search(1, {d}, 0 - 100000, 100000);
                checksum = score * 1000 + s.nodes % 1000 + 7;
            }}
        }}
        "#,
        d = depth
    );
    build(
        "search",
        "JGFSearchBench: alpha-beta game-tree search",
        &src,
    )
}

/// SPEC JVM98 201_compress shaped workload: run-length compression + round trip check.
pub fn compress(size: usize) -> Workload {
    let src = format!(
        r#"
        class Compressor {{
            int[] data;
            Compressor(int n) {{
                this.data = new int[n];
                int i = 0;
                while (i < n) {{
                    this.data[i] = (i / 7) % 10;
                    i = i + 1;
                }}
            }}
            int[] pack(int[] input) {{
                int[] out = new int[input.length * 2 + 2];
                int oi = 0;
                int i = 0;
                while (i < input.length) {{
                    int v = input[i];
                    int run = 1;
                    while (i + run < input.length && input[i + run] == v && run < 255) {{
                        run = run + 1;
                    }}
                    out[oi] = run;
                    out[oi + 1] = v;
                    oi = oi + 2;
                    i = i + run;
                }}
                out[oi] = 0 - 1;
                return out;
            }}
            int[] unpack(int[] packed, int originalLength) {{
                int[] out = new int[originalLength];
                int oi = 0;
                int i = 0;
                while (packed[i] != 0 - 1) {{
                    int run = packed[i];
                    int v = packed[i + 1];
                    int k = 0;
                    while (k < run) {{
                        out[oi] = v;
                        oi = oi + 1;
                        k = k + 1;
                    }}
                    i = i + 2;
                }}
                return out;
            }}
            int run() {{
                int n = this.data.length;
                int[] packed = this.pack(this.data);
                int[] restored = this.unpack(packed, n);
                int ok = 1;
                int i = 0;
                while (i < n) {{
                    if (restored[i] != this.data[i]) {{ ok = 0; }}
                    i = i + 1;
                }}
                int digest = 0;
                i = 0;
                while (packed[i] != 0 - 1) {{ digest = (digest * 31 + packed[i]) % 1000003; i = i + 1; }}
                return ok * (digest + 1);
            }}
        }}
        class Main {{
            static int checksum;
            static void main() {{
                Compressor c = new Compressor({n});
                checksum = c.run();
            }}
        }}
        "#,
        n = size
    );
    build(
        "compress",
        "SPEC JVM98 201_compress shaped run-length compressor",
        &src,
    )
}

/// SPEC JVM98 209_db shaped workload: an in-memory record database.
pub fn db_bench(records: usize, operations: usize) -> Workload {
    let src = format!(
        r#"
        class Record {{
            int key;
            int value;
            Record(int key, int value) {{ this.key = key; this.value = value; }}
        }}
        class Database {{
            Record[] records;
            int count;
            Database(int capacity) {{
                this.records = new Record[capacity];
                this.count = 0;
            }}
            void fill(int n) {{
                int i = 0;
                while (i < n) {{
                    this.add(i, i * 3 + 1);
                    i = i + 1;
                }}
            }}
            void add(int key, int value) {{
                this.records[this.count] = new Record(key, value);
                this.count = this.count + 1;
            }}
            int find(int key) {{
                int i = 0;
                while (i < this.count) {{
                    if (this.records[i].key == key) {{ return this.records[i].value; }}
                    i = i + 1;
                }}
                return 0 - 1;
            }}
            void update(int key, int value) {{
                int i = 0;
                while (i < this.count) {{
                    if (this.records[i].key == key) {{ this.records[i].value = value; }}
                    i = i + 1;
                }}
            }}
            void remove(int key) {{
                int i = 0;
                while (i < this.count) {{
                    if (this.records[i].key == key) {{
                        this.records[i] = this.records[this.count - 1];
                        this.count = this.count - 1;
                    }}
                    i = i + 1;
                }}
            }}
            int total() {{
                int t = 0;
                int i = 0;
                while (i < this.count) {{
                    t = t + this.records[i].value;
                    i = i + 1;
                }}
                return t;
            }}
            int workload(int n, int ops) {{
                int acc = 0;
                int op = 0;
                while (op < ops) {{
                    int key = (op * 13) % n;
                    acc = acc + this.find(key);
                    if (op % 5 == 0) {{ this.update(key, op); }}
                    if (op % 17 == 0) {{ this.remove(key); }}
                    op = op + 1;
                }}
                return acc + this.total();
            }}
        }}
        class Main {{
            static int checksum;
            static void main() {{
                int n = {records};
                Database db = new Database(n + 8);
                db.fill(n);
                checksum = db.workload(n, {ops});
            }}
        }}
        "#,
        records = records,
        ops = operations
    );
    build("db", "SPEC JVM98 209_db shaped record database", &src)
}

/// An FFT-flavoured numeric kernel (Table 3's FFTA row): O(n log n) butterfly passes.
pub fn fft(size: usize) -> Workload {
    let src = format!(
        r#"
        class Transform {{
            void pass(float[] re, float[] im, int stride) {{
                int i = 0;
                while (i + stride < re.length) {{
                    float tr = re[i + stride] * 0.7 - im[i + stride] * 0.7;
                    float ti = re[i + stride] * 0.7 + im[i + stride] * 0.7;
                    re[i + stride] = re[i] - tr;
                    im[i + stride] = im[i] - ti;
                    re[i] = re[i] + tr;
                    im[i] = im[i] + ti;
                    i = i + stride * 2;
                }}
            }}
            float run(float[] re, float[] im) {{
                int stride = 1;
                while (stride < re.length) {{
                    this.pass(re, im, stride);
                    stride = stride * 2;
                }}
                float acc = 0.0;
                int i = 0;
                while (i < re.length) {{ acc = acc + re[i] * re[i] + im[i] * im[i]; i = i + 1; }}
                return acc;
            }}
        }}
        class Main {{
            static int checksum;
            static void main() {{
                int n = {n};
                float[] re = new float[n];
                float[] im = new float[n];
                int i = 0;
                while (i < n) {{ re[i] = 0.01 * i; im[i] = 0.0; i = i + 1; }}
                Transform t = new Transform();
                float a = t.run(re, im);
                if (a > 0.0) {{ checksum = n; }} else {{ checksum = 1; }}
            }}
        }}
        "#,
        n = size
    );
    build("fft", "FFT-shaped butterfly kernel", &src)
}

/// A Monte-Carlo π-estimation kernel (Table 3's MonteCarlo row).
pub fn montecarlo(samples: usize) -> Workload {
    let src = format!(
        r#"
        class Rng {{
            int state;
            Rng(int seed) {{ this.state = seed; }}
            int next() {{
                this.state = (this.state * 1103515245 + 12345) % 2147483647;
                if (this.state < 0) {{ this.state = 0 - this.state; }}
                return this.state;
            }}
        }}
        class Simulation {{
            int run(int samples) {{
                Rng rng = new Rng(42);
                int inside = 0;
                int i = 0;
                while (i < samples) {{
                    int x = rng.next() % 1000;
                    int y = rng.next() % 1000;
                    if (x * x + y * y < 1000000) {{ inside = inside + 1; }}
                    i = i + 1;
                }}
                return inside * 4000 / samples;
            }}
        }}
        class Main {{
            static int checksum;
            static void main() {{
                Simulation s = new Simulation();
                checksum = s.run({n});
            }}
        }}
        "#,
        n = samples
    );
    build("montecarlo", "Monte-Carlo π estimation kernel", &src)
}

/// The eight benchmarks of Table 1 / Table 2 / Figure 11, at small default sizes
/// suitable for tests; the bench harness re-creates them with `scale` > 1.
pub fn table1_workloads(scale: usize) -> Vec<Workload> {
    let s = scale.max(1);
    vec![
        create_bench(CreateKind::CustomArray, 400 * s),
        method_bench(600 * s),
        crypt(1200 * s),
        heapsort(800 * s),
        moldyn(10 * s, 4),
        search(7 + s.min(5)),
        compress(1500 * s),
        db_bench(80 * s, 300 * s),
    ]
}

/// The ten workloads of the profiler evaluation (Table 3).
pub fn table3_workloads(scale: usize) -> Vec<Workload> {
    let s = scale.max(1);
    vec![
        create_bench(CreateKind::IntArray, 300 * s),
        create_bench(CreateKind::LongArray, 300 * s),
        create_bench(CreateKind::FloatArray, 300 * s),
        create_bench(CreateKind::ObjectArray, 200 * s),
        create_bench(CreateKind::CustomArray, 200 * s),
        method_bench(400 * s),
        fft(256 * s),
        heapsort(300 * s),
        moldyn(8 * s, 3),
        montecarlo(500 * s),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use autodist_ir::verify::verify_program;
    use autodist_runtime::cluster::run_centralized;
    use autodist_runtime::StaticValue;

    fn checksum_of(w: &Workload) -> i64 {
        let report = run_centralized(&w.program, 1.0);
        assert!(report.is_ok(), "{}: {:?}", w.name, report.error);
        match report.final_statics.get("Main::checksum") {
            Some(StaticValue::Int(v)) => *v,
            other => panic!("{}: missing checksum ({other:?})", w.name),
        }
    }

    #[test]
    fn all_table1_workloads_compile_verify_and_run() {
        for w in table1_workloads(1) {
            verify_program(&w.program).unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
            let c = checksum_of(&w);
            assert_ne!(c, 0, "{} produced a non-trivial checksum", w.name);
        }
    }

    #[test]
    fn all_table3_workloads_compile_and_run() {
        for w in table3_workloads(1) {
            verify_program(&w.program).unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
            let report = run_centralized(&w.program, 1.0);
            assert!(report.is_ok(), "{}: {:?}", w.name, report.error);
        }
    }

    #[test]
    fn bank_checksum_matches_hand_computation() {
        let w = bank(100);
        // 100 customers * 10000 + a4 (1,000,000) + a5 (5,000,000) - 900 withdrawn.
        assert_eq!(checksum_of(&w), 100 * 10000 + 1_000_000 + 5_000_000 - 900);
    }

    #[test]
    fn heapsort_verifies_sortedness() {
        let w = heapsort(500);
        // verify() returns ok * (max + 1); ok must be 1, so checksum > 0.
        assert!(checksum_of(&w) > 0);
    }

    #[test]
    fn compress_round_trips() {
        let w = compress(800);
        assert!(checksum_of(&w) > 0, "ok flag must be 1 and digest non-zero");
    }

    #[test]
    fn montecarlo_estimates_pi_roughly() {
        let w = montecarlo(4000);
        let pi_times_1000 = checksum_of(&w);
        assert!((2800..3500).contains(&pi_times_1000), "got {pi_times_1000}");
    }

    #[test]
    fn workloads_scale_with_their_parameter() {
        let small = crypt(200);
        let large = crypt(2000);
        let rs = run_centralized(&small.program, 1.0);
        let rl = run_centralized(&large.program, 1.0);
        assert!(
            rl.per_node[0].instructions > rs.per_node[0].instructions * 5,
            "bigger input, more work"
        );
    }

    #[test]
    fn create_kinds_have_distinct_names() {
        let names: Vec<&str> = [
            CreateKind::IntArray,
            CreateKind::LongArray,
            CreateKind::FloatArray,
            CreateKind::ObjectArray,
            CreateKind::CustomArray,
        ]
        .iter()
        .map(|k| k.name())
        .collect();
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn db_operations_modify_state() {
        let w = db_bench(50, 120);
        assert!(checksum_of(&w) != 0);
    }

    #[test]
    fn search_explores_a_tree() {
        let w = search(8);
        let _ = checksum_of(&w);
        let report = run_centralized(&w.program, 1.0);
        assert!(
            report.per_node[0].method_invocations > 100,
            "visits many nodes"
        );
    }

    #[test]
    fn moldyn_and_fft_produce_expected_flags() {
        assert_eq!(checksum_of(&moldyn(6, 2)), 1006);
        assert_eq!(checksum_of(&fft(128)), 128);
    }
}
