//! Program-load-time interning: field slot layouts, static slots and dispatch tables.
//!
//! The interpreter originally resolved every field access by cloning the field name and
//! probing a per-object `BTreeMap<String, Value>`, and every virtual call by walking the
//! superclass chain comparing method-name strings. [`ProgramLayout`] is the resolution
//! pass that removes both costs: it is computed once per [`Program`] (once per plan
//! for the parts its per-node copies share, see below) and maps
//!
//! * every instance [`FieldRef`] to a dense **slot index** into a flat per-object value
//!   vector (superclass fields occupy a shared prefix, so a field declared in class `D`
//!   has the same slot in every subclass of `D`),
//! * every static [`FieldRef`] to a global **static slot** (statics are replicated per
//!   node, so one dense vector per interpreter suffices),
//! * every method name to a **selector** and every class to a selector-indexed
//!   **vtable**, replacing the name-based superclass walk of dynamic dispatch.
//!
//! Names are interned too, for the wire boundary: every method name has its selector
//! (`selector_of_name`) and every field name a dense **field-name id**
//! (`field_name_id`), and each class carries a field-name-id-indexed slot column
//! shaped like its vtable. A sender resolves the name it holds to the id once; the
//! receiver resolves the id against the target's *runtime* class
//! (`slot_of_field_name`, `resolve_selector`), so shadowing and overriding come out
//! exactly as name-based resolution would. `slot_of_name` and `static_names` remain
//! for `statics_snapshot` and diagnostics; the interpret loop itself only ever uses
//! the dense indices.
//!
//! Field-name shadowing note: the previous map-based heap stored one entry per *name*,
//! so a subclass redeclaring a superclass field aliased it. The layout reproduces that
//! behaviour by assigning the shadowing declaration the same slot as the shadowed one.
//!
//! A layout is two things with two lifetimes. The **shape** ([`LayoutShape`]: class
//! layouts, vtables, selectors, field-name ids, static slots, names — exactly what the
//! shape fingerprint covers) depends on nothing a per-node rewrite touches, so the
//! layouts of a plan's copies hold one shape behind one `Arc`. The **ops**
//! (`method_ops`, `const_strs`) are the decoded bodies: `Vec<Arc<MethodOps>>`, one
//! `Arc` per distinct `Arc<Method>`, against one string-constant pool. The family
//! constructor [`ProgramLayout::build_family`] builds the layouts of several programs
//! in one call and is where the sharing happens — programs are grouped by
//! fingerprint, a body is decoded and fused when its method's address is first seen
//! in its group, and the memo dies with the call. [`ProgramLayout::build`] /
//! [`ProgramLayout::build_with`] are the family of one program, the same function.
//! A [`ProgramLayout`] dereferences to its shape, so readers write `layout.classes`
//! and `layout.field_slot(..)` whichever way the layout was built.
//!
//! On top of the interning tables, `build` runs a **decode pass** over every method
//! body: each [`crate::bytecode::Insn`] becomes exactly one dense [`Op`] with its
//! name-carrying payloads resolved up front — instance/static field slots, invoke
//! argument counts and selectors, interned constant-pool indices for string literals,
//! and `u32` branch targets. The interpreter's dispatch loop runs over `Op`s and never
//! touches a string or a resolution table; the original [`FieldRef`]s survive inside
//! the ops only for the proxy/remote slow paths, which send the field's name id and
//! charge its name length.
//!
//! After decoding, a **fusion pass** (on by default, toggled by
//! [`LayoutOptions::fuse`]) rewrites each op stream, collapsing the dominant
//! pairs/triples the frontend emits — local/local and local/constant arithmetic,
//! compare-and-branch heads of loops and `if`s, the `i = i + K` increment idiom, and
//! implicit-`this` field reads — into superinstructions that read locals directly
//! instead of round-tripping the operand stack. A fusion window never spans a branch
//! target (a branch landing mid-pattern blocks fusion), branch targets are remapped
//! onto the shortened stream, and [`MethodOps::src_pc`] maps every fused pc back to
//! the seed pc so fault coordinates stay identical to the unfused stream. Each
//! superinstruction is *accounted* as its constituent seed ops: the interpreter
//! charges [`Op::fused_width`] virtual-clock ticks and instruction counts for it, so
//! virtual time is bit-identical with fusion on or off.

use std::collections::HashMap;
use std::sync::Arc;

use crate::bytecode::{BinOp, CmpOp, Const, Insn, InvokeKind, UnOp};
use crate::program::{ClassId, FieldRef, Method, MethodId, Program, Type};

/// Sentinel for "no method bound to this selector" inside the vtables.
const NO_METHOD: u32 = u32::MAX;

/// Sentinel slot for field references that do not resolve (e.g. a `GetField` naming a
/// static). The interpreter treats it as "no such slot", reproducing the pre-decode
/// `Option` semantics (reads yield null, writes are dropped).
pub const NO_SLOT: u32 = u32::MAX;

/// Per-element-type default used by `NewArray` (Java-style zero initialisation),
/// pre-computed so the interpreter does not match on [`Type`] in the hot loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrayInit {
    /// Elements default to `0`.
    Int,
    /// Elements default to `0.0`.
    Float,
    /// Elements default to `false`.
    Bool,
    /// Elements default to `null` (references, strings, nested arrays).
    Null,
}

impl ArrayInit {
    /// The default-value class of an array element type.
    pub fn of(ty: &Type) -> ArrayInit {
        match ty {
            Type::Int => ArrayInit::Int,
            Type::Float => ArrayInit::Float,
            Type::Bool => ArrayInit::Bool,
            _ => ArrayInit::Null,
        }
    }
}

/// One pre-decoded instruction of the compact op format the interpreter executes.
///
/// The decode pass produces ops in 1:1 correspondence with the [`Insn`]s of the
/// method body (so branch targets carry over unchanged, as `u32`), but every
/// name-carrying payload is already resolved: field accesses carry their dense slot,
/// invokes carry the argument count, the callee selector and whether the call site
/// expects a pushed result, and string constants are indices into the shared constant
/// pool ([`ProgramLayout::const_strs`]).
///
/// The fusion pass then optionally collapses hot sequences into the superinstruction
/// variants grouped at the end of the enum ([`Op::IncLocal`] and friends); after
/// fusion, one op stands for [`Op::fused_width`] seed instructions and branch targets
/// index the shortened stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Push an integer constant.
    ConstInt(i64),
    /// Push a float constant.
    ConstFloat(f64),
    /// Push a boolean constant.
    ConstBool(bool),
    /// Push an interned string constant (index into the program's constant pool).
    ConstStr(u32),
    /// Push null.
    ConstNull,
    /// Push local slot `n`.
    Load(u16),
    /// Pop into local slot `n`.
    Store(u16),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Swap the two topmost stack values.
    Swap,
    /// Pop two values, push `lhs op rhs`.
    Bin(BinOp),
    /// Pop one value, push `op value`.
    Un(UnOp),
    /// Pop `rhs`, `lhs`; branch to `target` if `lhs op rhs`.
    IfCmp(CmpOp, u32),
    /// Pop `v`; branch to `target` if `v op 0` (for refs: `Eq` = is-null).
    If(CmpOp, u32),
    /// Unconditional branch.
    Goto(u32),
    /// Allocate an uninitialised instance and push the reference.
    New(ClassId),
    /// Pop a length, allocate an array zero-filled per `ArrayInit`, push the reference.
    NewArray(ArrayInit),
    /// Pop index and array reference, push the element.
    ArrayLoad,
    /// Pop value, index and array reference, store the element.
    ArrayStore,
    /// Pop an array reference, push its length.
    ArrayLength,
    /// Pop an object reference, push the field at `slot`. `fr` survives only for the
    /// proxy/remote slow path, which sends the field's name id.
    GetField {
        /// Pre-resolved dense instance slot ([`NO_SLOT`] if unresolvable).
        slot: u32,
        /// The original field reference (slow paths + diagnostics).
        fr: FieldRef,
    },
    /// Pop a value and an object reference, store into the field at `slot`.
    PutField {
        /// Pre-resolved dense instance slot ([`NO_SLOT`] if unresolvable).
        slot: u32,
        /// The original field reference (slow paths + diagnostics).
        fr: FieldRef,
    },
    /// Push the static at the pre-resolved global slot ([`NO_SLOT`] pushes null).
    GetStatic(u32),
    /// Pop into the static at the global slot ([`NO_SLOT`] drops the value).
    PutStatic(u32),
    /// Invoke a method. All signature-derived facts are pre-decoded: `nargs` counts
    /// the receiver for non-static kinds, `sel` is the callee's selector for vtable
    /// dispatch, and `push_ret` says whether the call site expects a pushed result
    /// (derived from the *static* target, exactly like the pre-decode interpreter).
    Invoke {
        /// Dispatch kind.
        kind: InvokeKind,
        /// Static target method.
        target: MethodId,
        /// Pre-resolved selector of the target (vtable column).
        sel: u32,
        /// Stack values consumed (receiver included for non-static kinds).
        nargs: u16,
        /// Whether the result is pushed (static target returns non-void).
        push_ret: bool,
    },
    /// Return with no value.
    Return,
    /// Pop a value and return it.
    ReturnValue,

    // --- Superinstructions (produced only by the fusion pass, never by decode) ---
    /// `Load a; Load b; Bin op` — push `locals[a] op locals[b]`, no stack traffic
    /// for the operands.
    LoadLoadBin(u16, u16, BinOp),
    /// `Load n; ConstInt k; Bin op` — push `locals[n] op k`.
    LoadConstBin(u16, i64, BinOp),
    /// `Bin op; Store n` — pop `rhs`, `lhs`; store `lhs op rhs` into local `n`.
    BinStore(BinOp, u16),
    /// `Load n; IfCmp op t` — pop `lhs`; branch to `t` if `lhs op locals[n]`.
    LoadIfCmp(CmpOp, u16, u32),
    /// `Load a; Load b; IfCmp op t` — branch to `t` if `locals[a] op locals[b]`,
    /// no stack traffic at all (the dominant loop/`if` head shape).
    IfCmpFused(CmpOp, u16, u16, u32),
    /// `Load n; ConstInt k; IfCmp op t` — branch to `t` if `locals[n] op k` (the
    /// `while (i < LITERAL)` head shape).
    LoadConstIfCmp(CmpOp, u16, i64, u32),
    /// `Load n; ConstInt k; Bin Add; Store n` — `locals[n] += k`, the frontend's
    /// lowering of `i = i + K`.
    IncLocal(u16, i64),
    /// `Load n; GetField` — push the field at `slot` of the object in local `n`
    /// (implicit-`this` field reads load local 0).
    LoadFieldGet {
        /// Local holding the object reference.
        local: u16,
        /// Pre-resolved dense instance slot ([`NO_SLOT`] if unresolvable).
        slot: u32,
        /// The original field reference (slow paths + diagnostics).
        fr: FieldRef,
    },
    /// `PutField; Pop` — pop value and object reference, store the field, then pop
    /// one more stack value.
    PutFieldPop {
        /// Pre-resolved dense instance slot ([`NO_SLOT`] if unresolvable).
        slot: u32,
        /// The original field reference (slow paths + diagnostics).
        fr: FieldRef,
    },
}

impl Op {
    /// How many seed instructions this op stands for: 1 for every decoded op,
    /// the collapsed sequence length for superinstructions. The interpreter charges
    /// exactly this many virtual-clock ticks and instruction counts per execution,
    /// which is what keeps virtual time bit-identical with fusion on or off.
    #[inline]
    pub fn fused_width(&self) -> u32 {
        match self {
            Op::IncLocal(..) => 4,
            Op::LoadLoadBin(..)
            | Op::LoadConstBin(..)
            | Op::IfCmpFused(..)
            | Op::LoadConstIfCmp(..) => 3,
            Op::BinStore(..)
            | Op::LoadIfCmp(..)
            | Op::LoadFieldGet { .. }
            | Op::PutFieldPop { .. } => 2,
            _ => 1,
        }
    }
}

/// The decoded body of one method (empty iff the bytecode body is empty, i.e. the
/// method is abstract/intrinsic) plus the frame facts the interpreter needs to set up
/// an activation without consulting the [`Program`].
#[derive(Clone, Debug, Default)]
pub struct MethodOps {
    /// The decoded (and, by default, fused) ops of the method body.
    pub ops: Vec<Op>,
    /// Fused pc → seed pc of the first collapsed instruction. Empty when the stream
    /// is 1:1 with the bytecode (fusion off, or nothing fused in this method), in
    /// which case the mapping is the identity. Faults report seed coordinates
    /// through this map, so diagnostics are stable under fusion.
    pub src_pc: Vec<u32>,
    /// Local variable slots (including parameters and `this`).
    pub locals: u16,
}

impl MethodOps {
    /// Seed-bytecode pc of the instruction at fused pc `pc` (identity when the
    /// stream was not shortened).
    #[inline]
    pub fn seed_pc(&self, pc: usize) -> u32 {
        match self.src_pc.get(pc) {
            Some(&s) => s,
            None => pc as u32,
        }
    }
}

/// Knobs for [`ProgramLayout::build_with`]. `Default` is what the runtime uses:
/// fusion on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayoutOptions {
    /// Run the superinstruction fusion pass over every decoded method body.
    /// Off yields the 1:1 decode (used by benches to A/B dispatch cost and by the
    /// parity test suite).
    pub fuse: bool,
}

impl Default for LayoutOptions {
    fn default() -> Self {
        LayoutOptions { fuse: true }
    }
}

/// The field layout and dispatch table of one class.
#[derive(Clone, Debug, Default)]
pub struct ClassLayout {
    /// Canonical field name per slot (inherited slots first).
    pub slot_names: Vec<String>,
    /// Declared type per slot (under shadowing the most-derived declaration's
    /// type wins, matching the old subclass-first default initialisation).
    pub slot_types: Vec<Type>,
    /// Slot index per entry of this class's own `Class::fields` (None for statics).
    field_slot: Vec<Option<u32>>,
    /// Global static slot per entry of this class's own `Class::fields` (None for
    /// instance fields).
    static_slot: Vec<Option<u32>>,
    /// Field-name id per entry of this class's own `Class::fields`: the member word
    /// a forwarded field access sends.
    field_name: Vec<u32>,
    /// Field-name-id-indexed slot column ([`NO_SLOT`] where this class has no
    /// instance field of that name, inherited ones included). The wire boundary
    /// resolves the member word of a field frame here, against the target's runtime
    /// class — the field twin of the vtable.
    name_slot: Vec<u32>,
    /// Selector-indexed dispatch table (`NO_METHOD` where unbound).
    vtable: Vec<u32>,
}

impl ClassLayout {
    /// Number of instance-field slots (including inherited ones).
    pub fn slot_count(&self) -> usize {
        self.slot_names.len()
    }
}

/// The interning tables of a program's *shape*: everything [`LayoutShape::fingerprint`]
/// covers and nothing a per-node rewrite touches. One allocation is shared by the
/// layouts of every same-fingerprint program built together
/// ([`ProgramLayout::build_family`]); a [`ProgramLayout`] dereferences to it, so
/// `layout.classes`, `layout.field_slot(..)` and the rest read as they always did.
#[derive(Debug, Default)]
pub struct LayoutShape {
    /// Per-class layouts, indexed by [`ClassId`].
    pub classes: Vec<ClassLayout>,
    /// Global static slot → `Class::field` key (the `statics_snapshot` wire names).
    pub static_names: Vec<String>,
    /// Global static slot → declared type (for Java-style default initialisation).
    pub static_types: Vec<Type>,
    /// Selector per [`MethodId`] (methods with the same name share a selector).
    selectors: Vec<u32>,
    /// Declaring class per [`MethodId`]: what the invoke fast path tests against the
    /// proxy class without a detour through the `Program`.
    method_classes: Vec<ClassId>,
    /// Method name → selector: the one probe a `DependentObject.access` invoke pays
    /// at its send site. Keys share the `Arc`s of `method_names`.
    selector_of_name: HashMap<Arc<str>, u32>,
    /// Field name → dense field-name id, assigned in declaration order (class
    /// order, then field order; statics included so every [`FieldRef`] has one).
    field_name_ids: HashMap<String, u32>,
    /// Interned method names, indexed by [`MethodId`]. Cold error paths (unknown
    /// method) carry one of these `Arc`s instead of cloning the `String`.
    method_names: Vec<Arc<str>>,
    /// Total number of selectors (vtable width).
    pub selector_count: usize,
    /// Stable structural hash of the *shape* tables — class names and superclass
    /// links, field names/types/staticness, method names/signatures and declaring
    /// classes — but **not** method bodies or local counts. Per-node program
    /// rewrites only touch bodies, so every node of a placement computes the same
    /// fingerprint; two layouts agreeing on it assign identical class ids, field
    /// slots, selectors and field-name ids, which is what licenses the id-addressed
    /// wire frames. That holds because every id space is assigned by walking the
    /// hashed tables in declaration order — never in map-iteration order, which
    /// differs between processes.
    fingerprint: u64,
}

/// The layout of one program: its (shared) shape tables plus the decoded bodies of its
/// methods. Built with [`ProgramLayout::build`] or, for the per-node copies of a plan,
/// [`ProgramLayout::build_family`]; the program must not be mutated afterwards (the
/// interpreter builds it at load time, after all rewriting has happened).
#[derive(Clone, Debug, Default)]
pub struct ProgramLayout {
    shape: Arc<LayoutShape>,
    /// Pre-decoded op bodies, indexed by [`MethodId`]. Layouts built together hold
    /// the same `Arc` wherever their programs hold the same `Arc<Method>`.
    pub method_ops: Vec<Arc<MethodOps>>,
    /// Interned string constants referenced by [`Op::ConstStr`], deduplicated across
    /// the whole family (one allocation per distinct literal, cloned by refcount):
    /// shared bodies index one pool.
    pub const_strs: Arc<[Arc<str>]>,
}

impl std::ops::Deref for ProgramLayout {
    type Target = LayoutShape;

    #[inline]
    fn deref(&self) -> &LayoutShape {
        &self.shape
    }
}

/// The string constants of a family's bodies, in first-use order, with their index.
#[derive(Default)]
struct StrPool {
    strs: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

/// What [`ProgramLayout::build_family`] keeps per shape while it decodes: the string
/// pool its bodies index and the bodies decoded so far, by the address of the
/// [`Method`] they came from (the programs outlive the call, so an address names one
/// method).
struct Family {
    shape: Arc<LayoutShape>,
    pool: StrPool,
    decoded: HashMap<*const Method, Arc<MethodOps>>,
}

impl ProgramLayout {
    /// Runs the resolution pass over `program` with the default options (fusion on).
    pub fn build(program: &Program) -> ProgramLayout {
        Self::build_with(program, LayoutOptions::default())
    }

    /// Runs the resolution pass over `program`: a family of one.
    pub fn build_with(program: &Program, opts: LayoutOptions) -> ProgramLayout {
        let mut family = Self::build_family(std::slice::from_ref(program), opts);
        family.pop().expect("one program, one layout")
    }

    /// Runs the resolution pass over `programs` together, `layouts[i]` for
    /// `programs[i]`. Programs with the same shape fingerprint — the per-node copies
    /// of one plan — share one [`LayoutShape`] allocation and one string-constant
    /// pool, and each distinct `Arc<Method>` among them is decoded and fused once;
    /// programs of different shapes share nothing. Nothing outlives the call but the
    /// layouts.
    pub fn build_family(programs: &[Program], opts: LayoutOptions) -> Vec<ProgramLayout> {
        let mut families: Vec<Family> = Vec::new();
        let mut fuse_scratch = (Vec::new(), Vec::new());
        let bodies: Vec<(usize, Vec<Arc<MethodOps>>)> = programs
            .iter()
            .map(|program| {
                let fingerprint = shape_fingerprint(program);
                let known = families
                    .iter()
                    .position(|f| f.shape.fingerprint == fingerprint);
                let at = known.unwrap_or_else(|| {
                    families.push(Family {
                        shape: Arc::new(LayoutShape::of(program, fingerprint)),
                        pool: StrPool::default(),
                        decoded: HashMap::with_capacity(program.methods.len()),
                    });
                    families.len() - 1
                });
                let Family {
                    shape,
                    pool,
                    decoded,
                } = &mut families[at];
                let method_ops = program.methods.iter().map(|m| {
                    let ops = decoded.entry(Arc::as_ptr(m)).or_insert_with(|| {
                        Arc::new(shape.decode(program, m, opts, pool, &mut fuse_scratch))
                    });
                    Arc::clone(ops)
                });
                (at, method_ops.collect())
            })
            .collect();
        // What the layouts of one family have in common: the shape and the finished pool.
        let shared: Vec<ProgramLayout> = families
            .into_iter()
            .map(|f| ProgramLayout {
                shape: f.shape,
                method_ops: Vec::new(),
                const_strs: f.pool.strs.into(),
            })
            .collect();
        bodies
            .into_iter()
            .map(|(at, method_ops)| ProgramLayout {
                method_ops,
                ..shared[at].clone()
            })
            .collect()
    }

    /// The pre-decoded body of `method` (`ops` empty iff the bytecode body is empty).
    #[inline]
    pub fn ops(&self, method: MethodId) -> &MethodOps {
        &self.method_ops[method.0 as usize]
    }

    /// An interned string constant by pool index.
    #[inline]
    pub fn const_str(&self, idx: u32) -> &Arc<str> {
        &self.const_strs[idx as usize]
    }
}

impl LayoutShape {
    /// Builds the shape tables of `program`, whose [`shape_fingerprint`] is
    /// `fingerprint`.
    fn of(program: &Program, fingerprint: u64) -> LayoutShape {
        // Selectors: one per distinct method name, in method order.
        let mut selector_of_name: HashMap<Arc<str>, u32> = HashMap::new();
        let mut selectors = Vec::with_capacity(program.methods.len());
        let mut method_names: Vec<Arc<str>> = Vec::with_capacity(program.methods.len());
        for m in &program.methods {
            let (name, sel) = match selector_of_name.get_key_value(m.name.as_str()) {
                Some((name, &sel)) => (Arc::clone(name), sel),
                None => {
                    let name: Arc<str> = Arc::from(m.name.as_str());
                    let sel = selector_of_name.len() as u32;
                    selector_of_name.insert(Arc::clone(&name), sel);
                    (name, sel)
                }
            };
            selectors.push(sel);
            method_names.push(name);
        }
        let selector_count = selector_of_name.len();
        let method_classes = program.methods.iter().map(|m| m.class).collect();

        // Field-name ids: one per distinct field name, in (class, field)
        // declaration order.
        let mut field_name_ids: HashMap<String, u32> = HashMap::new();
        let field_names: Vec<Vec<u32>> = program
            .classes
            .iter()
            .map(|class| {
                class
                    .fields
                    .iter()
                    .map(|f| match field_name_ids.get(f.name.as_str()) {
                        Some(&id) => id,
                        None => {
                            let id = field_name_ids.len() as u32;
                            field_name_ids.insert(f.name.clone(), id);
                            id
                        }
                    })
                    .collect()
            })
            .collect();

        let mut classes: Vec<ClassLayout> = (0..program.classes.len())
            .map(|_| ClassLayout::default())
            .collect();
        let mut static_names = Vec::new();
        let mut static_types = Vec::new();
        let mut static_of_field: HashMap<(ClassId, u16), u32> = HashMap::new();

        // Static slots are assigned in (class, field) declaration order so the
        // snapshot keys come out deterministic.
        for class in &program.classes {
            for (idx, f) in class.fields.iter().enumerate() {
                if f.is_static {
                    let slot = static_names.len() as u32;
                    static_names.push(format!("{}::{}", class.name, f.name));
                    static_types.push(f.ty.clone());
                    static_of_field.insert((class.id, idx as u16), slot);
                }
            }
        }

        for class in &program.classes {
            // Root-first superclass chain: inherited fields occupy a shared prefix, so
            // a FieldRef resolves to the same slot in the declaring class and every
            // subclass.
            let mut chain = Vec::new();
            let mut cur = Some(class.id);
            while let Some(cid) = cur {
                chain.push(cid);
                cur = program.class(cid).super_class;
            }
            chain.reverse();

            let layout = &mut classes[class.id.0 as usize];
            layout.name_slot = vec![NO_SLOT; field_name_ids.len()];
            for &cid in &chain {
                let c = program.class(cid);
                let record_own = cid == class.id;
                for (idx, f) in c.fields.iter().enumerate() {
                    if f.is_static {
                        if record_own {
                            layout.field_slot.push(None);
                            layout
                                .static_slot
                                .push(static_of_field.get(&(cid, idx as u16)).copied());
                        }
                        continue;
                    }
                    let name_id = field_names[cid.0 as usize][idx] as usize;
                    let slot = match layout.name_slot[name_id] {
                        NO_SLOT => {
                            let s = layout.slot_names.len() as u32;
                            layout.slot_names.push(f.name.clone());
                            layout.slot_types.push(f.ty.clone());
                            layout.name_slot[name_id] = s;
                            s
                        }
                        s => {
                            // Shadowed: alias the inherited slot. The most-derived
                            // declaration's type wins (the map-based heap defaulted
                            // fields subclass-first), so overwrite the slot type.
                            layout.slot_types[s as usize] = f.ty.clone();
                            s
                        }
                    };
                    if record_own {
                        layout.field_slot.push(Some(slot));
                        layout.static_slot.push(None);
                    }
                }
            }

            // Vtable: walk the chain root-first so subclass declarations overwrite
            // inherited bindings, reproducing `Program::resolve_method`.
            let mut vtable = vec![NO_METHOD; selector_count];
            for &cid in &chain {
                for &mid in &program.class(cid).methods {
                    vtable[selectors[mid.0 as usize] as usize] = mid.0;
                }
            }
            classes[class.id.0 as usize].vtable = vtable;
        }
        for (layout, names) in classes.iter_mut().zip(field_names) {
            layout.field_name = names;
        }

        LayoutShape {
            classes,
            static_names,
            static_types,
            selectors,
            method_classes,
            selector_of_name,
            field_name_ids,
            method_names,
            selector_count,
            fingerprint,
        }
    }

    /// Decodes (and, per `opts`, fuses) one method body against the shape tables,
    /// interning its string constants into `pool` as it goes.
    fn decode(
        &self,
        program: &Program,
        method: &Method,
        opts: LayoutOptions,
        pool: &mut StrPool,
        fuse_scratch: &mut (Vec<bool>, Vec<u32>),
    ) -> MethodOps {
        let decoded: Vec<Op> = method
            .body
            .iter()
            .map(|insn| self.decode_insn(program, insn, pool))
            .collect();
        let (ops, src_pc) = if opts.fuse {
            fuse_ops(decoded, fuse_scratch)
        } else {
            (decoded, Vec::new())
        };
        MethodOps {
            ops,
            src_pc,
            locals: method.locals,
        }
    }

    /// Decodes one instruction against the built tables. Infallible by construction:
    /// every [`Insn`] maps to exactly one [`Op`], with unresolvable field references
    /// carrying [`NO_SLOT`] (reproducing the pre-decode `Option` semantics).
    fn decode_insn(&self, program: &Program, insn: &Insn, pool: &mut StrPool) -> Op {
        match insn {
            Insn::Const(Const::Int(v)) => Op::ConstInt(*v),
            Insn::Const(Const::Float(v)) => Op::ConstFloat(*v),
            Insn::Const(Const::Bool(v)) => Op::ConstBool(*v),
            Insn::Const(Const::Null) => Op::ConstNull,
            Insn::Const(Const::Str(s)) => Op::ConstStr(match pool.index.get(s.as_str()) {
                Some(&i) => i,
                None => {
                    let i = pool.strs.len() as u32;
                    pool.strs.push(Arc::from(s.as_str()));
                    pool.index.insert(Arc::clone(&pool.strs[i as usize]), i);
                    i
                }
            }),
            Insn::Load(n) => Op::Load(*n),
            Insn::Store(n) => Op::Store(*n),
            Insn::Dup => Op::Dup,
            Insn::Pop => Op::Pop,
            Insn::Swap => Op::Swap,
            Insn::Bin(op) => Op::Bin(*op),
            Insn::Un(op) => Op::Un(*op),
            Insn::IfCmp(op, t) => Op::IfCmp(*op, *t as u32),
            Insn::If(op, t) => Op::If(*op, *t as u32),
            Insn::Goto(t) => Op::Goto(*t as u32),
            Insn::New(c) => Op::New(*c),
            Insn::NewArray(ty) => Op::NewArray(ArrayInit::of(ty)),
            Insn::ArrayLoad => Op::ArrayLoad,
            Insn::ArrayStore => Op::ArrayStore,
            Insn::ArrayLength => Op::ArrayLength,
            Insn::GetField(fr) => Op::GetField {
                slot: self.field_slot(*fr).unwrap_or(NO_SLOT),
                fr: *fr,
            },
            Insn::PutField(fr) => Op::PutField {
                slot: self.field_slot(*fr).unwrap_or(NO_SLOT),
                fr: *fr,
            },
            Insn::GetStatic(fr) => Op::GetStatic(self.static_slot(*fr).unwrap_or(NO_SLOT)),
            Insn::PutStatic(fr) => Op::PutStatic(self.static_slot(*fr).unwrap_or(NO_SLOT)),
            Insn::Invoke(kind, target) => {
                let callee = program.method(*target);
                let receiver = usize::from(*kind != InvokeKind::Static);
                Op::Invoke {
                    kind: *kind,
                    target: *target,
                    sel: self.selectors[target.0 as usize],
                    nargs: (callee.params.len() + receiver) as u16,
                    push_ret: callee.ret != Type::Void,
                }
            }
            Insn::Return => Op::Return,
            Insn::ReturnValue => Op::ReturnValue,
        }
    }

    /// Dense slot of an instance field reference, valid for objects of the declaring
    /// class and all its subclasses. `None` if `fr` names a static field.
    #[inline]
    pub fn field_slot(&self, fr: FieldRef) -> Option<u32> {
        self.classes[fr.class.0 as usize]
            .field_slot
            .get(fr.index as usize)
            .copied()
            .flatten()
    }

    /// Global static slot of a static field reference.
    #[inline]
    pub fn static_slot(&self, fr: FieldRef) -> Option<u32> {
        self.classes[fr.class.0 as usize]
            .static_slot
            .get(fr.index as usize)
            .copied()
            .flatten()
    }

    /// Resolves a field *name* against the layout of `class` (load-time setup and
    /// diagnostics; the wire carries [`Self::field_name_id`]s).
    pub fn slot_of_name(&self, class: ClassId, name: &str) -> Option<u32> {
        self.slot_of_field_name(class, self.field_name_id(name)?)
    }

    /// The dense id of a field name, if any class declares a field so named. One
    /// probe at the send site of a `DependentObject.access` field access.
    pub fn field_name_id(&self, name: &str) -> Option<u32> {
        self.field_name_ids.get(name).copied()
    }

    /// The field-name id of a field reference (what a forwarded field access sends).
    #[inline]
    pub fn field_name_id_of(&self, fr: FieldRef) -> u32 {
        self.classes[fr.class.0 as usize].field_name[fr.index as usize]
    }

    /// Resolves a wire-carried field-name id against `class`, the target's runtime
    /// class: one array index, and a subclass that shadows the name answers with
    /// its own slot. `None` for ids the class has no instance field for (out of
    /// range included).
    #[inline]
    pub fn slot_of_field_name(&self, class: ClassId, name_id: u32) -> Option<u32> {
        match self.classes[class.0 as usize]
            .name_slot
            .get(name_id as usize)
        {
            Some(&s) if s != NO_SLOT => Some(s),
            _ => None,
        }
    }

    /// The selector of a method *name*, if any method is so named. One probe at the
    /// send site of a `DependentObject.access` invoke.
    pub fn selector_of_name(&self, name: &str) -> Option<u32> {
        self.selector_of_name.get(name).copied()
    }

    /// The method name behind `sel` (cold error paths: an unbound selector reports
    /// the name it stands for).
    pub fn selector_name(&self, sel: u32) -> Option<&Arc<str>> {
        let method = self.selectors.iter().position(|&s| s == sel)?;
        Some(&self.method_names[method])
    }

    /// The canonical name of `slot` in `class` (diagnostics).
    pub fn slot_name(&self, class: ClassId, slot: u32) -> Option<&str> {
        self.classes[class.0 as usize]
            .slot_names
            .get(slot as usize)
            .map(|s| s.as_str())
    }

    /// Selector assigned to `method`'s name.
    #[inline]
    pub fn selector(&self, method: MethodId) -> u32 {
        self.selectors[method.0 as usize]
    }

    /// The class that declares `method`.
    #[inline]
    pub fn method_class(&self, method: MethodId) -> ClassId {
        self.method_classes[method.0 as usize]
    }

    /// The interned name of `method`: cloning the returned `Arc` is a refcount bump,
    /// not a string copy.
    #[inline]
    pub fn method_name(&self, method: MethodId) -> &Arc<str> {
        &self.method_names[method.0 as usize]
    }

    /// Virtual dispatch: the method bound in `class`'s vtable for `target`'s selector.
    /// This is the interned equivalent of `Program::resolve_method(class, name)`.
    #[inline]
    pub fn resolve_virtual(&self, class: ClassId, target: MethodId) -> Option<MethodId> {
        let sel = self.selectors[target.0 as usize] as usize;
        match self.classes[class.0 as usize].vtable.get(sel) {
            Some(&m) if m != NO_METHOD => Some(MethodId(m)),
            _ => None,
        }
    }

    /// Virtual dispatch by pre-decoded selector: the method bound in `class`'s vtable
    /// column `sel`. This is what [`Op::Invoke`] uses — one array index, no probe of
    /// the per-method selector table.
    #[inline]
    pub fn resolve_selector(&self, class: ClassId, sel: u32) -> Option<MethodId> {
        match self.classes[class.0 as usize].vtable.get(sel as usize) {
            Some(&m) if m != NO_METHOD => Some(MethodId(m)),
            _ => None,
        }
    }

    /// Number of instance-field slots of `class`.
    #[inline]
    pub fn slot_count(&self, class: ClassId) -> usize {
        self.classes[class.0 as usize].slot_count()
    }

    /// The structural shape fingerprint (see the field doc). Two layouts with equal
    /// fingerprints resolve every class id, field slot and selector identically, so
    /// a peer presenting the same fingerprint may address us by dense ids.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// FNV-1a over the program's shape tables. Hand-rolled (not `DefaultHasher`) so the
/// value is stable across Rust versions and processes — it travels on the wire.
struct ShapeHasher(u64);

impl ShapeHasher {
    fn new() -> ShapeHasher {
        ShapeHasher(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_be_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    fn ty(&mut self, t: &Type) {
        match t {
            Type::Int => self.u8(1),
            Type::Float => self.u8(2),
            Type::Bool => self.u8(3),
            Type::Str => self.u8(4),
            Type::Void => self.u8(5),
            Type::Ref(c) => {
                self.u8(6);
                self.u64(u64::from(c.0));
            }
            Type::Array(elem) => {
                self.u8(7);
                self.ty(elem);
            }
        }
    }
}

/// Hashes everything that determines id assignment (class ids, field slots,
/// selectors, static slots) and deliberately nothing else: method bodies and local
/// counts are per-node rewrite targets and must not perturb the fingerprint.
fn shape_fingerprint(program: &Program) -> u64 {
    let mut h = ShapeHasher::new();
    h.u64(program.classes.len() as u64);
    for class in &program.classes {
        h.str(&class.name);
        match class.super_class {
            Some(sup) => h.u64(u64::from(sup.0) + 1),
            None => h.u64(0),
        }
        h.u64(class.fields.len() as u64);
        for f in &class.fields {
            h.str(&f.name);
            h.u8(u8::from(f.is_static));
            h.ty(&f.ty);
        }
    }
    h.u64(program.methods.len() as u64);
    for m in &program.methods {
        h.str(&m.name);
        h.u64(u64::from(m.class.0));
        h.u8(u8::from(m.is_static));
        h.u64(m.params.len() as u64);
        for p in &m.params {
            h.ty(p);
        }
        h.ty(&m.ret);
    }
    h.0
}

/// The superinstruction fusion pass over one decoded method body.
///
/// Walks the stream front to back, greedily collapsing the longest matching window
/// at each pc. A window is only fusible when no branch target lands *strictly
/// inside* it — a mid-pattern target must keep its instruction addressable, so the
/// window stays unfused. Branch targets (including targets equal to the body
/// length, i.e. "fall off the end") are then remapped onto the shortened stream.
///
/// Returns the fused ops plus the fused-pc → seed-pc map ([`MethodOps::src_pc`]);
/// the map comes back empty when nothing fused, signalling identity. The two
/// per-method work tables live in the caller's `scratch` (contents irrelevant on
/// entry), so a layout build allocates them once rather than once per method.
fn fuse_ops(ops: Vec<Op>, scratch: &mut (Vec<bool>, Vec<u32>)) -> (Vec<Op>, Vec<u32>) {
    let n = ops.len();
    let (is_target, old_to_new) = scratch;
    // Seed-coordinate branch-target set. `n + 1` entries: a target may legally be
    // one past the last instruction.
    is_target.clear();
    is_target.resize(n + 1, false);
    for op in &ops {
        match op {
            Op::IfCmp(_, t) | Op::If(_, t) | Op::Goto(t) => is_target[*t as usize] = true,
            _ => {}
        }
    }

    let mut fused: Vec<Op> = Vec::with_capacity(n);
    let mut src_pc: Vec<u32> = Vec::with_capacity(n);
    old_to_new.clear();
    old_to_new.resize(n + 1, 0);
    let mut pc = 0usize;
    while pc < n {
        // No target may land inside the window; the window start itself is fine.
        let free = |k: usize| (pc + 1..pc + k).all(|j| !is_target[j]);
        let (op, width) = match &ops[pc..] {
            [Op::Load(a), Op::ConstInt(k), Op::Bin(BinOp::Add), Op::Store(d), ..]
                if a == d && free(4) =>
            {
                (Op::IncLocal(*d, *k), 4)
            }
            [Op::Load(a), Op::Load(b), Op::Bin(op), ..] if free(3) => {
                (Op::LoadLoadBin(*a, *b, *op), 3)
            }
            [Op::Load(a), Op::Load(b), Op::IfCmp(c, t), ..] if free(3) => {
                (Op::IfCmpFused(*c, *a, *b, *t), 3)
            }
            [Op::Load(a), Op::ConstInt(k), Op::Bin(op), ..] if free(3) => {
                (Op::LoadConstBin(*a, *k, *op), 3)
            }
            [Op::Load(a), Op::ConstInt(k), Op::IfCmp(c, t), ..] if free(3) => {
                (Op::LoadConstIfCmp(*c, *a, *k, *t), 3)
            }
            [Op::Load(a), Op::IfCmp(c, t), ..] if free(2) => (Op::LoadIfCmp(*c, *a, *t), 2),
            [Op::Load(a), Op::GetField { slot, fr }, ..] if free(2) => (
                Op::LoadFieldGet {
                    local: *a,
                    slot: *slot,
                    fr: *fr,
                },
                2,
            ),
            [Op::Bin(op), Op::Store(d), ..] if free(2) => (Op::BinStore(*op, *d), 2),
            [Op::PutField { slot, fr }, Op::Pop, ..] if free(2) => (
                Op::PutFieldPop {
                    slot: *slot,
                    fr: *fr,
                },
                2,
            ),
            [op, ..] => (op.clone(), 1),
            [] => unreachable!("loop condition guarantees pc < n"),
        };
        // Interior pcs are never branch targets (checked above), so only the window
        // start needs a mapping; fill the whole window anyway to keep the map total.
        for entry in &mut old_to_new[pc..pc + width] {
            *entry = fused.len() as u32;
        }
        src_pc.push(pc as u32);
        fused.push(op);
        pc += width;
    }
    old_to_new[n] = fused.len() as u32;

    if fused.len() == n {
        // Nothing fused: the stream is 1:1, targets are unchanged, the map is
        // the identity.
        return (fused, Vec::new());
    }
    for op in &mut fused {
        match op {
            Op::IfCmp(_, t)
            | Op::If(_, t)
            | Op::Goto(t)
            | Op::LoadIfCmp(_, _, t)
            | Op::IfCmpFused(_, _, _, t)
            | Op::LoadConstIfCmp(_, _, _, t) => *t = old_to_new[*t as usize],
            _ => {}
        }
    }
    (fused, src_pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    const OPTS: LayoutOptions = LayoutOptions { fuse: true };

    fn sample() -> Program {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        p.add_field(a, "x", Type::Int, false);
        p.add_field(a, "s", Type::Int, true);
        p.add_field(a, "y", Type::Float, false);
        let b = p.add_class("B", Some(a));
        p.add_field(b, "z", Type::Bool, false);
        p.add_method(a, "m", vec![], Type::Void, false);
        p.add_method(a, "n", vec![], Type::Void, false);
        p.add_method(b, "m", vec![], Type::Void, false);
        p
    }

    #[test]
    fn inherited_fields_share_the_slot_prefix() {
        let p = sample();
        let layout = ProgramLayout::build(&p);
        let a = p.class_by_name("A").unwrap();
        let b = p.class_by_name("B").unwrap();
        let fx = p.resolve_field(a, "x").unwrap();
        let fy = p.resolve_field(a, "y").unwrap();
        let fz = p.resolve_field(b, "z").unwrap();
        assert_eq!(layout.field_slot(fx), Some(0));
        assert_eq!(layout.field_slot(fy), Some(1));
        assert_eq!(layout.field_slot(fz), Some(2));
        // The same FieldRef resolves identically through the subclass layout.
        assert_eq!(layout.slot_of_name(b, "x"), Some(0));
        assert_eq!(layout.slot_of_name(b, "y"), Some(1));
        assert_eq!(layout.slot_count(a), 2);
        assert_eq!(layout.slot_count(b), 3);
    }

    #[test]
    fn statics_get_global_slots_with_snapshot_keys() {
        let p = sample();
        let layout = ProgramLayout::build(&p);
        let a = p.class_by_name("A").unwrap();
        let fs = p.resolve_field(a, "s").unwrap();
        let slot = layout.static_slot(fs).unwrap();
        assert_eq!(layout.static_names[slot as usize], "A::s");
        assert_eq!(layout.static_types[slot as usize], Type::Int);
        assert_eq!(layout.field_slot(fs), None);
    }

    #[test]
    fn vtables_reproduce_name_based_resolution() {
        let p = sample();
        let layout = ProgramLayout::build(&p);
        let a = p.class_by_name("A").unwrap();
        let b = p.class_by_name("B").unwrap();
        let am = p.find_method(a, "m").unwrap();
        let an = p.find_method(a, "n").unwrap();
        let bm = p.find_method(b, "m").unwrap();
        assert_eq!(layout.resolve_virtual(a, am), Some(am));
        assert_eq!(layout.resolve_virtual(b, am), Some(bm), "override wins");
        assert_eq!(layout.resolve_virtual(b, an), Some(an), "inherited binding");
        assert_eq!(
            layout.selector(am),
            layout.selector(bm),
            "same name, same selector"
        );
        assert_ne!(layout.selector(am), layout.selector(an));
    }

    #[test]
    fn shadowing_aliases_the_inherited_slot() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        p.add_field(a, "v", Type::Int, false);
        let b = p.add_class("B", Some(a));
        let shadow = p.add_field(b, "v", Type::Int, false);
        let layout = ProgramLayout::build(&p);
        assert_eq!(layout.field_slot(shadow), Some(0));
        assert_eq!(layout.slot_count(b), 1);
    }

    #[test]
    fn names_intern_in_declaration_order_and_resolve_against_the_runtime_class() {
        let p = sample();
        let layout = ProgramLayout::build(&p);
        let a = p.class_by_name("A").unwrap();
        let b = p.class_by_name("B").unwrap();
        // Class order, then field order; statics take an id too.
        for (id, name) in ["x", "s", "y", "z"].into_iter().enumerate() {
            assert_eq!(layout.field_name_id(name), Some(id as u32), "{name}");
        }
        assert_eq!(layout.field_name_id("nope"), None);
        let fz = p.resolve_field(b, "z").unwrap();
        let z = layout.field_name_id_of(fz);
        assert_eq!(layout.slot_of_field_name(b, z), layout.field_slot(fz));
        assert_eq!(layout.slot_of_field_name(a, z), None, "A has no z");
        let s = layout.field_name_id("s").unwrap();
        assert_eq!(
            layout.slot_of_field_name(a, s),
            None,
            "statics have no slot"
        );
        assert_eq!(layout.slot_of_field_name(a, 99), None, "out of range");

        let am = p.find_method(a, "m").unwrap();
        assert_eq!(layout.selector_of_name("m"), Some(layout.selector(am)));
        assert_eq!(layout.selector_of_name("nope"), None);
        let n = layout.selector_of_name("n").unwrap();
        assert_eq!(layout.selector_name(n).map(|s| &**s), Some("n"));
        assert_eq!(layout.selector_name(99), None);
    }

    #[test]
    fn shadowing_with_a_different_type_defaults_to_the_derived_declaration() {
        // The map-based heap defaulted fields subclass-first, so the most-derived
        // declaration's type determined a fresh instance's default value.
        let mut p = Program::new();
        let a = p.add_class("A", None);
        p.add_field(a, "v", Type::Bool, false);
        let b = p.add_class("B", Some(a));
        p.add_field(b, "v", Type::Int, false);
        let layout = ProgramLayout::build(&p);
        assert_eq!(layout.classes[a.0 as usize].slot_types[0], Type::Bool);
        assert_eq!(
            layout.classes[b.0 as usize].slot_types[0],
            Type::Int,
            "B instances default v to Int(0), not Bool(false)"
        );
    }

    #[test]
    fn decode_interns_string_constants_once() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let m = p.add_method(a, "m", vec![], Type::Void, true);
        p.method_mut(m).body = vec![
            Insn::Const(Const::Str("dup".into())),
            Insn::Pop,
            Insn::Const(Const::Str("dup".into())),
            Insn::Pop,
            Insn::Const(Const::Str("other".into())),
            Insn::Pop,
            Insn::Return,
        ];
        let layout = ProgramLayout::build(&p);
        assert_eq!(layout.const_strs.len(), 2, "literals are deduplicated");
        let ops = &layout.ops(m).ops;
        assert_eq!(ops[0], ops[2], "same literal, same pool index");
        assert_ne!(ops[0], ops[4]);
        match ops[0] {
            Op::ConstStr(i) => assert_eq!(&*layout.const_str(i).clone(), "dup"),
            ref other => panic!("expected ConstStr, got {other:?}"),
        }
    }

    #[test]
    fn decode_resolves_slots_selectors_and_invoke_shapes() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let fx = p.add_field(a, "x", Type::Int, false);
        let fs = p.add_field(a, "s", Type::Int, true);
        let m = p.add_method(a, "m", vec![Type::Int, Type::Int], Type::Int, false);
        let caller = p.add_method(a, "caller", vec![], Type::Void, true);
        p.method_mut(caller).body = vec![
            Insn::GetField(fx),
            Insn::GetStatic(fs),
            Insn::PutStatic(fs),
            Insn::PutField(fx),
            Insn::Invoke(InvokeKind::Virtual, m),
            Insn::Goto(0),
        ];
        let layout = ProgramLayout::build(&p);
        let ops = &layout.ops(caller).ops;
        assert_eq!(
            ops[0],
            Op::GetField {
                slot: layout.field_slot(fx).unwrap(),
                fr: fx
            }
        );
        assert_eq!(ops[1], Op::GetStatic(layout.static_slot(fs).unwrap()));
        assert_eq!(ops[2], Op::PutStatic(layout.static_slot(fs).unwrap()));
        match ops[4] {
            Op::Invoke {
                kind,
                target,
                sel,
                nargs,
                push_ret,
            } => {
                assert_eq!(kind, InvokeKind::Virtual);
                assert_eq!(target, m);
                assert_eq!(sel, layout.selector(m));
                assert_eq!(nargs, 3, "two params + receiver");
                assert!(push_ret);
                assert_eq!(layout.resolve_selector(a, sel), Some(m));
            }
            ref other => panic!("expected Invoke, got {other:?}"),
        }
        assert_eq!(ops[5], Op::Goto(0));
        assert_eq!(layout.ops(m).locals, p.method(m).locals);
        assert!(layout.ops(m).ops.is_empty(), "abstract body decodes empty");
    }

    /// `i = 0; while (i < 10) { i = i + 1; }` — the loop head fuses to
    /// `LoadConstIfCmp`, the increment to `IncLocal`, and both branch targets are
    /// remapped onto the shortened stream.
    #[test]
    fn fusion_collapses_the_increment_loop_idiom() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let m = p.add_method(a, "m", vec![], Type::Void, true);
        p.method_mut(m).body = vec![
            Insn::Const(Const::Int(0)),
            Insn::Store(0),
            Insn::Load(0), // loop head, target of the Goto
            Insn::Const(Const::Int(10)),
            Insn::IfCmp(CmpOp::Ge, 10),
            Insn::Load(0),
            Insn::Const(Const::Int(1)),
            Insn::Bin(BinOp::Add),
            Insn::Store(0),
            Insn::Goto(2),
            Insn::Return,
        ];
        let layout = ProgramLayout::build(&p);
        let mops = layout.ops(m);
        assert_eq!(
            mops.ops,
            vec![
                Op::ConstInt(0),
                Op::Store(0),
                Op::LoadConstIfCmp(CmpOp::Ge, 0, 10, 5),
                Op::IncLocal(0, 1),
                Op::Goto(2),
                Op::Return,
            ]
        );
        assert_eq!(mops.src_pc, vec![0, 1, 2, 5, 9, 10]);
        assert_eq!(mops.seed_pc(3), 5);
        let width_sum: u32 = mops.ops.iter().map(Op::fused_width).sum();
        assert_eq!(width_sum as usize, p.method(m).body.len());
    }

    #[test]
    fn branch_target_landing_mid_pattern_blocks_fusion() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let m = p.add_method(a, "m", vec![Type::Int], Type::Int, true);
        // The Goto lands on the ConstInt *inside* the Load/Const/Bin window, so the
        // window must stay unfused and the whole stream 1:1.
        p.method_mut(m).body = vec![
            Insn::Goto(2),
            Insn::Load(0),
            Insn::Const(Const::Int(1)),
            Insn::Bin(BinOp::Add),
            Insn::ReturnValue,
        ];
        let layout = ProgramLayout::build(&p);
        let mops = layout.ops(m);
        assert_eq!(
            mops.ops,
            vec![
                Op::Goto(2),
                Op::Load(0),
                Op::ConstInt(1),
                Op::Bin(BinOp::Add),
                Op::ReturnValue,
            ]
        );
        assert!(mops.src_pc.is_empty(), "identity map when nothing fused");
        assert_eq!(mops.seed_pc(3), 3);
    }

    #[test]
    fn branch_target_on_a_window_start_does_not_block_fusion() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let m = p.add_method(a, "m", vec![Type::Int], Type::Int, true);
        p.method_mut(m).body = vec![
            Insn::Goto(1),
            Insn::Load(0),
            Insn::Const(Const::Int(1)),
            Insn::Bin(BinOp::Add),
            Insn::ReturnValue,
        ];
        let layout = ProgramLayout::build(&p);
        let mops = layout.ops(m);
        assert_eq!(
            mops.ops,
            vec![
                Op::Goto(1),
                Op::LoadConstBin(0, 1, BinOp::Add),
                Op::ReturnValue,
            ]
        );
        assert_eq!(mops.src_pc, vec![0, 1, 4]);
    }

    #[test]
    fn fusion_remaps_targets_one_past_the_end() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let m = p.add_method(a, "m", vec![Type::Int, Type::Int], Type::Int, true);
        p.method_mut(m).body = vec![
            Insn::Load(0),
            Insn::Load(1),
            Insn::IfCmp(CmpOp::Eq, 5), // branches one past the last instruction
            Insn::Load(0),
            Insn::ReturnValue,
        ];
        let layout = ProgramLayout::build(&p);
        let mops = layout.ops(m);
        assert_eq!(
            mops.ops,
            vec![
                Op::IfCmpFused(CmpOp::Eq, 0, 1, 3),
                Op::Load(0),
                Op::ReturnValue,
            ]
        );
        assert_eq!(mops.src_pc, vec![0, 3, 4]);
    }

    #[test]
    fn fuse_off_yields_the_one_to_one_decode() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let m = p.add_method(a, "m", vec![], Type::Int, true);
        p.method_mut(m).body = vec![
            Insn::Load(0),
            Insn::Const(Const::Int(1)),
            Insn::Bin(BinOp::Add),
            Insn::ReturnValue,
        ];
        let layout = ProgramLayout::build_with(&p, LayoutOptions { fuse: false });
        let mops = layout.ops(m);
        assert_eq!(mops.ops.len(), p.method(m).body.len());
        assert!(mops.src_pc.is_empty());
        assert!(mops.ops.iter().all(|op| op.fused_width() == 1));
    }

    #[test]
    fn fingerprint_ignores_bodies_but_sees_shape() {
        let base = sample();
        let fp = ProgramLayout::build(&base).fingerprint();
        assert_eq!(
            ProgramLayout::build(&sample()).fingerprint(),
            fp,
            "identical programs agree"
        );

        // Body rewrites (what rewrite_for_node does per node) leave it unchanged.
        let mut bodied = sample();
        let m = {
            let a = bodied.class_by_name("A").unwrap();
            bodied.find_method(a, "m").unwrap()
        };
        bodied.method_mut(m).body = vec![Insn::Const(Const::Int(1)), Insn::Pop, Insn::Return];
        bodied.method_mut(m).locals = 7;
        assert_eq!(ProgramLayout::build(&bodied).fingerprint(), fp);

        // Any shape change — a new field, a renamed method — perturbs it.
        let mut extra_field = sample();
        let a = extra_field.class_by_name("A").unwrap();
        extra_field.add_field(a, "w", Type::Int, false);
        assert_ne!(ProgramLayout::build(&extra_field).fingerprint(), fp);

        let mut renamed = sample();
        let a = renamed.class_by_name("A").unwrap();
        let m = renamed.find_method(a, "m").unwrap();
        renamed.method_mut(m).name = "m2".into();
        assert_ne!(ProgramLayout::build(&renamed).fingerprint(), fp);
    }

    /// `sample()` with bodies: `A.m` pushes a string, `A.n` another, `B.m` is empty.
    fn bodied() -> Program {
        let mut p = sample();
        let a = p.class_by_name("A").unwrap();
        for (name, literal) in [("m", "left"), ("n", "right")] {
            let m = p.find_method(a, name).unwrap();
            let body = vec![
                Insn::Const(Const::Str(literal.into())),
                Insn::Pop,
                Insn::Return,
            ];
            p.set_body(m, body, 1);
        }
        p
    }

    #[test]
    fn a_family_shares_its_shape_its_pool_and_every_body_its_programs_share() {
        let source = bodied();
        let mut copy = source.clone();
        let n = MethodId(1);
        let body = vec![
            Insn::Const(Const::Str("other".into())),
            Insn::Pop,
            Insn::Return,
        ];
        copy.set_body(n, body, 2);
        let family = ProgramLayout::build_family(&[source.clone(), copy.clone()], OPTS);
        assert!(Arc::ptr_eq(&family[0].shape, &family[1].shape));
        assert!(Arc::ptr_eq(&family[0].const_strs, &family[1].const_strs));
        for m in 0..source.methods.len() {
            assert_eq!(
                Arc::ptr_eq(&family[0].method_ops[m], &family[1].method_ops[m]),
                m != n.0 as usize,
                "method {m}: decoded once unless rewritten"
            );
        }
        // One pool for both: the shared bodies' literals first, then the copy's own.
        let pool: Vec<&str> = family[0].const_strs.iter().map(|s| &**s).collect();
        assert_eq!(pool, ["left", "right", "other"]);
        assert_eq!(family[1].ops(n).ops[0], Op::ConstStr(2));
        assert_eq!(family[1].ops(n).locals, 2);
        assert_eq!(family[0].ops(n).ops[0], Op::ConstStr(1));
    }

    #[test]
    fn programs_of_different_shapes_share_nothing() {
        let one = bodied();
        let mut other = one.clone();
        let a = other.class_by_name("A").unwrap();
        other.add_field(a, "w", Type::Int, false);
        // `other` still holds `one`'s method `Arc`s: same bodies, another shape.
        assert!(Arc::ptr_eq(&one.methods[0], &other.methods[0]));
        let mixed = [one.clone(), other.clone(), one.clone()];
        let family = ProgramLayout::build_family(&mixed, OPTS);
        assert_ne!(family[0].fingerprint(), family[1].fingerprint());
        assert!(!Arc::ptr_eq(&family[0].shape, &family[1].shape));
        assert!(!Arc::ptr_eq(&family[0].const_strs, &family[1].const_strs));
        for m in 0..one.methods.len() {
            assert!(!Arc::ptr_eq(
                &family[0].method_ops[m],
                &family[1].method_ops[m]
            ));
            assert!(Arc::ptr_eq(
                &family[0].method_ops[m],
                &family[2].method_ops[m]
            ));
        }
        assert!(Arc::ptr_eq(&family[0].shape, &family[2].shape));
        assert_eq!(
            family[1].slot_count(a),
            ProgramLayout::build(&other).slot_count(a)
        );
    }

    #[test]
    fn layout_resolution_matches_program_resolution_for_every_method() {
        let p = sample();
        let layout = ProgramLayout::build(&p);
        for class in &p.classes {
            for m in &p.methods {
                assert_eq!(
                    layout.resolve_virtual(class.id, m.id),
                    p.resolve_method(class.id, &m.name),
                    "class {} method {}",
                    class.name,
                    m.name
                );
            }
        }
    }
}
