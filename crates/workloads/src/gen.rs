//! Parameterized workload generator: seeded synthetic call trees for the chaos suite.
//!
//! The Table 1/3 programs are faithful to the paper but fixed in shape; fault
//! injection wants *families* of programs whose call-graph depth, fan-out, object
//! affinity and message sizes can be swept independently. [`generated`] builds a
//! MiniJava program from a [`GenConfig`]: `depth` levels of `width` classes each,
//! every non-leaf calling `fan_out` children in the next level, children chosen by
//! a seeded PRNG whose `affinity_skew` concentrates edges onto low-index classes
//! (skew 0 spreads calls uniformly; large skew funnels every call through class 0
//! — a hot object). Every call carries a `String` tag whose length is set by
//! `payload`, so the wire cost of a remote hop (`5 + len` bytes per tag) is a knob
//! too: `Main` alternates between a full-size and a half-size tag, giving a
//! bimodal message-size distribution. The whole tree stores a bounded checksum
//! into `Main.checksum`, so distributed runs can be checked against centralized
//! ones under any placement of the generated levels.
//!
//! Generation is deterministic: the same [`GenConfig`] (seed included) produces
//! byte-identical source, so a chaos-test failure reproduces from its config alone.

use std::fmt::Write;

use crate::{build, Workload};

/// Shape parameters for one generated workload. All counts are clamped to at
/// least 1 during generation.
#[derive(Clone, Debug, PartialEq)]
pub struct GenConfig {
    /// PRNG seed; fixes the parent→child wiring (and nothing else).
    pub seed: u64,
    /// Levels of generated classes below `Main` (call-graph depth).
    pub depth: usize,
    /// Classes per level.
    pub width: usize,
    /// Children each non-leaf class calls in the next level.
    pub fan_out: usize,
    /// Child-choice skew: 0.0 picks uniformly among the next level's classes,
    /// larger values concentrate edges on low-index classes (object affinity).
    pub affinity_skew: f64,
    /// Length of the `String` tag passed down every call (wire bytes per remote
    /// hop = 5 + length; `Main` alternates full- and half-size tags).
    pub payload: usize,
    /// Root calls `Main` drives through each level-0 class.
    pub iterations: usize,
    /// Phased traffic for [`phased`]: `(requests, affinity_skew_target)` pairs.
    /// Each phase serves `requests` requests of a variant of this config whose
    /// `affinity_skew` is the phase's target — so generated serving traffic
    /// shifts its hot-object affinity mid-run, deterministically per seed. Empty
    /// (the default) means unphased; [`generated`] ignores this field.
    pub phase: Vec<(usize, f64)>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 0x5EED,
            depth: 3,
            width: 2,
            fan_out: 2,
            affinity_skew: 0.0,
            payload: 8,
            iterations: 4,
            phase: Vec::new(),
        }
    }
}

/// A generated workload plus the structural facts the chaos suite places by.
#[derive(Clone, Debug)]
pub struct GeneratedWorkload {
    /// The compiled program (named after its config).
    pub workload: Workload,
    /// `(class name, level)` for every generated class, `Main` excluded.
    pub levels: Vec<(String, usize)>,
    /// Chosen call edges `((level, idx), (level + 1, child idx))`.
    pub edges: Vec<((usize, usize), (usize, usize))>,
}

/// SplitMix64 — the same tiny deterministic generator the test stubs use.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Index in `0..width`, skew-weighted toward 0.
    fn pick(&mut self, width: usize, skew: f64) -> usize {
        let u = self.next_f64().powf(1.0 + skew.max(0.0));
        ((width as f64 * u) as usize).min(width - 1)
    }
}

/// Builds the workload described by `cfg`. See the module docs for the shape.
pub fn generated(cfg: &GenConfig) -> GeneratedWorkload {
    let Tree {
        name,
        src,
        levels,
        edges,
    } = tree(cfg);
    let workload = build(
        &name,
        "seeded synthetic call tree for the chaos suite",
        &src,
    );
    GeneratedWorkload {
        workload,
        levels,
        edges,
    }
}

/// The source text [`generated`] compiles for `cfg`.
pub fn generated_source(cfg: &GenConfig) -> String {
    tree(cfg).src
}

/// A generated workload before compilation: its name, its source and the facts
/// [`GeneratedWorkload`] reports beside the program.
struct Tree {
    name: String,
    src: String,
    levels: Vec<(String, usize)>,
    edges: Vec<((usize, usize), (usize, usize))>,
}

fn tree(cfg: &GenConfig) -> Tree {
    let depth = cfg.depth.max(1);
    let width = cfg.width.max(1);
    let fan_out = cfg.fan_out.max(1);
    let iterations = cfg.iterations.max(1);
    let payload = cfg.payload.max(2);
    let mut rng = Rng(cfg.seed);

    // Wiring first: children[level][idx] lists the next-level classes this class
    // calls, in call order. Leaves (the last level) have none.
    let mut children: Vec<Vec<Vec<usize>>> = Vec::with_capacity(depth);
    let mut edges = Vec::new();
    for level in 0..depth {
        let mut row = Vec::with_capacity(width);
        for idx in 0..width {
            let mut picks = Vec::new();
            if level + 1 < depth {
                for _ in 0..fan_out {
                    let child = rng.pick(width, cfg.affinity_skew);
                    edges.push(((level, idx), (level + 1, child)));
                    picks.push(child);
                }
            }
            row.push(picks);
        }
        children.push(row);
    }

    // The whole source goes into one buffer; `write!` to a `String` cannot fail.
    let mut src = String::with_capacity(depth * width * (256 + 128 * fan_out));
    let mut levels = Vec::new();
    for (level, row) in children.iter().enumerate() {
        for (idx, picks) in row.iter().enumerate() {
            let name = format!("G{level}_{idx}");
            let salt = level * 1000 + idx * 7 + 1;
            if picks.is_empty() {
                // Leaf: bounded local compute, no further calls.
                let _ = write!(
                    src,
                    "class {name} {{\n\
                     \x20   int salt;\n\
                     \x20   {name}(int salt) {{ this.salt = salt; }}\n\
                     \x20   int work(int n, String tag) {{\n\
                     \x20       int acc = n + this.salt;\n\
                     \x20       int i = 0;\n\
                     \x20       while (i < 8) {{\n\
                     \x20           acc = (acc * 31 + i) % 1000003;\n\
                     \x20           i = i + 1;\n\
                     \x20       }}\n\
                     \x20       return acc;\n\
                     \x20   }}\n\
                     }}\n"
                );
            } else {
                let next = level + 1;
                let _ = writeln!(src, "class {name} {{");
                for (k, &c) in picks.iter().enumerate() {
                    let _ = writeln!(src, "    G{next}_{c} c{k};");
                }
                let _ = write!(src, "    {name}(");
                for (k, &c) in picks.iter().enumerate() {
                    let sep = if k == 0 { "" } else { ", " };
                    let _ = write!(src, "{sep}G{next}_{c} c{k}");
                }
                src.push_str(") { ");
                for k in 0..picks.len() {
                    let _ = write!(src, "this.c{k} = c{k}; ");
                }
                let _ = write!(
                    src,
                    "}}\n\
                     \x20   int work(int n, String tag) {{\n\
                     \x20       int acc = (n * 31 + {salt}) % 1000003;\n"
                );
                for k in 0..picks.len() {
                    let _ = writeln!(
                        src,
                        "        acc = (acc + this.c{k}.work(acc % 65521, tag)) % 1000003;"
                    );
                }
                src.push_str("        return acc;\n    }\n}\n");
            }
            levels.push((name, level));
        }
    }

    // Main: build the tree bottom-up (one instance per class), then drive every
    // level-0 class `iterations` times, alternating full- and half-size tags.
    src.push_str("class Main {\n    static int checksum;\n    static void main() {\n");
    for (level, row) in children.iter().enumerate().rev() {
        for (idx, picks) in row.iter().enumerate() {
            let _ = write!(
                src,
                "        G{level}_{idx} g{level}_{idx} = new G{level}_{idx}("
            );
            if picks.is_empty() {
                let _ = write!(src, "{}", level * 1000 + idx * 7 + 1);
            }
            for (k, &c) in picks.iter().enumerate() {
                let sep = if k == 0 { "" } else { ", " };
                let _ = write!(src, "{sep}g{}_{c}", level + 1);
            }
            src.push_str(");\n");
        }
    }
    let tag = "x".repeat(payload);
    let _ = write!(
        src,
        "        String tagA = \"{tag}\";\n        String tagB = \"{}\";\n",
        &tag[..(payload / 2).max(1)],
    );
    src.push_str("        int acc = 0;\n        int it = 0;\n");
    let _ = writeln!(src, "        while (it < {iterations}) {{");
    for idx in 0..width {
        let _ = write!(
            src,
            "            if (it % 2 == 0) {{\n\
             \x20               acc = (acc + g0_{idx}.work(it + 1, tagA)) % 1000003;\n\
             \x20           }} else {{\n\
             \x20               acc = (acc + g0_{idx}.work(it + 1, tagB)) % 1000003;\n\
             \x20           }}\n"
        );
    }
    src.push_str("            it = it + 1;\n        }\n        checksum = acc + 1;\n    }\n}\n");

    let name = format!(
        "gen(seed={:#x},d={depth},w={width},f={fan_out},skew={},pay={payload})",
        cfg.seed, cfg.affinity_skew
    );
    Tree {
        name,
        src,
        levels,
        edges,
    }
}

/// A phased serving workload: one generated app per distinct affinity target
/// plus the request sequence that shifts traffic between them mid-run.
#[derive(Clone, Debug)]
pub struct PhasedWorkload {
    /// One generated variant per *distinct* skew target, in first-use order.
    pub apps: Vec<GeneratedWorkload>,
    /// `sequence[i]` indexes into `apps`: the app request `i` instantiates.
    /// Phase boundaries are exactly where the ISSUE's "traffic shifts its
    /// hot-object affinity" happens.
    pub sequence: Vec<usize>,
}

/// Expands `cfg.phase` into serving traffic: per phase, a variant of `cfg` with
/// `affinity_skew` set to the phase's target (phases with equal targets share
/// one app), contributing that phase's request count to the sequence. With an
/// empty `phase` the whole thing degenerates to one app and zero requests.
/// Deterministic: same config (seed included), same apps and sequence.
pub fn phased(cfg: &GenConfig) -> PhasedWorkload {
    let mut apps = Vec::new();
    let mut targets: Vec<f64> = Vec::new();
    let mut sequence = Vec::new();
    let phases: &[(usize, f64)] = if cfg.phase.is_empty() {
        &[(0, cfg.affinity_skew)]
    } else {
        &cfg.phase
    };
    for &(requests, target) in phases {
        let app = match targets.iter().position(|&t| t == target) {
            Some(i) => i,
            None => {
                apps.push(generated(&GenConfig {
                    affinity_skew: target,
                    phase: Vec::new(),
                    ..cfg.clone()
                }));
                targets.push(target);
                apps.len() - 1
            }
        };
        sequence.extend(std::iter::repeat_n(app, requests));
    }
    PhasedWorkload { apps, sequence }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autodist_ir::verify::verify_program;
    use autodist_runtime::cluster::run_centralized;
    use autodist_runtime::StaticValue;

    fn checksum(w: &Workload) -> i64 {
        let report = run_centralized(&w.program, 1.0);
        assert!(report.is_ok(), "{}: {:?}", w.name, report.error);
        match report.final_statics.get("Main::checksum") {
            Some(StaticValue::Int(v)) => *v,
            other => panic!("{}: missing checksum ({other:?})", w.name),
        }
    }

    #[test]
    fn generated_workloads_compile_verify_and_run() {
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let g = generated(&GenConfig {
                seed,
                ..GenConfig::default()
            });
            verify_program(&g.workload.program).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            assert_ne!(checksum(&g.workload), 0);
            assert_eq!(g.levels.len(), 3 * 2, "depth * width classes");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GenConfig {
            seed: 7,
            affinity_skew: 0.5,
            ..GenConfig::default()
        };
        let a = generated(&cfg);
        let b = generated(&cfg);
        assert_eq!(a.edges, b.edges);
        assert_eq!(checksum(&a.workload), checksum(&b.workload));
        // A different seed rewires the tree (with width > 1 this is overwhelmingly
        // likely; seed 8 is a fixed witness, not a probabilistic claim).
        let c = generated(&GenConfig { seed: 8, ..cfg });
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    fn depth_and_width_scale_the_work() {
        let small = generated(&GenConfig::default());
        let big = generated(&GenConfig {
            depth: 5,
            width: 3,
            ..GenConfig::default()
        });
        let rs = run_centralized(&small.workload.program, 1.0);
        let rb = run_centralized(&big.workload.program, 1.0);
        assert!(rb.per_node[0].instructions > rs.per_node[0].instructions);
        assert_eq!(big.levels.len(), 5 * 3);
    }

    #[test]
    fn affinity_skew_concentrates_edges_on_low_indices() {
        let wide = GenConfig {
            width: 6,
            depth: 4,
            fan_out: 4,
            ..GenConfig::default()
        };
        let uniform = generated(&GenConfig {
            affinity_skew: 0.0,
            ..wide.clone()
        });
        let skewed = generated(&GenConfig {
            affinity_skew: 1e6,
            ..wide
        });
        let distinct = |g: &GeneratedWorkload| {
            g.edges
                .iter()
                .map(|&(_, (_, c))| c)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        };
        assert!(distinct(&uniform) > 1, "uniform choice spreads out");
        assert_eq!(distinct(&skewed), 1, "heavy skew funnels into class 0");
        assert_eq!(
            skewed.edges.iter().filter(|&&(_, (_, c))| c == 0).count(),
            skewed.edges.len()
        );
    }

    #[test]
    fn phased_shares_apps_across_equal_targets_and_orders_the_sequence() {
        let cfg = GenConfig {
            width: 4,
            fan_out: 3,
            phase: vec![(3, 0.0), (5, 8.0), (2, 0.0)],
            ..GenConfig::default()
        };
        let p = phased(&cfg);
        assert_eq!(p.apps.len(), 2, "two distinct skew targets, two apps");
        let mut expected = vec![0; 3];
        expected.extend([1; 5]);
        expected.extend([0; 2]);
        assert_eq!(p.sequence, expected);
        // Phase apps really differ in wiring (skew 8 funnels to low indices).
        assert_ne!(p.apps[0].edges, p.apps[1].edges);
        // Determinism: the same config reproduces the same traffic.
        let q = phased(&cfg);
        assert_eq!(p.sequence, q.sequence);
        assert_eq!(p.apps[1].edges, q.apps[1].edges);
    }

    #[test]
    fn phased_without_phases_degenerates_to_one_idle_app() {
        let p = phased(&GenConfig::default());
        assert_eq!(p.apps.len(), 1);
        assert!(p.sequence.is_empty());
    }

    #[test]
    fn payload_sets_the_tag_length_without_changing_the_checksum() {
        let thin = generated(&GenConfig {
            payload: 2,
            ..GenConfig::default()
        });
        let fat = generated(&GenConfig {
            payload: 64,
            ..GenConfig::default()
        });
        // The tag is dead weight for the computation: same wiring, same checksum.
        assert_eq!(thin.edges, fat.edges);
        assert_eq!(checksum(&thin.workload), checksum(&fat.workload));
    }
}
