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
//! String literals are interned per family into [`Literals`]: [`Op::SetS`] carries
//! a literal's index, the pool maps content back to that index, and each literal
//! carries what it names in the shape (a class, a selector, a field-name id). The
//! runtime numbers a node's strings from this pool — a literal's id is its index — so
//! a rewritten `DependentObject` site, whose class and member names are literals,
//! resolves them by index rather than by hashing the name on every call.
//!
//! Field-name shadowing note: the previous map-based heap stored one entry per *name*,
//! so a subclass redeclaring a superclass field aliased it. The layout reproduces that
//! behaviour by assigning the shadowing declaration the same slot as the shadowed one.
//!
//! Beside its program, a layout is two things with two lifetimes. The **shape**
//! ([`LayoutShape`]: class layouts, vtables, selectors, field-name ids, static slots,
//! names — exactly what the shape fingerprint covers) depends on nothing a per-node
//! rewrite touches, so the layouts of a plan's copies hold one shape behind one
//! `Arc`. The **ops** (`method_ops`, `literals`) are the decoded bodies:
//! `Vec<Arc<MethodOps>>`, one `Arc` per distinct `Arc<Method>`, against one
//! string-constant pool. The family constructor [`ProgramLayout::build_family`]
//! builds the layouts of several programs in one call and is where the sharing
//! happens — programs are grouped by fingerprint, a body is decoded when
//! its method's address is first seen in its group, and the memo dies with the
//! call. [`ProgramLayout::build`] /
//! [`ProgramLayout::build_with`] are the family of one program, the same function.
//! A [`ProgramLayout`] dereferences to its shape, so readers write `layout.classes`
//! and `layout.field_slot(..)` whichever way the layout was built. It also owns the
//! program it was built from ([`ProgramLayout::program`]): a layout is the whole
//! executable, and an interpreter holds nothing else of its program.
//!
//! On top of the interning tables, `build` runs a **decode pass** over every method
//! body, with every name-carrying payload resolved up front — instance/static field
//! slots, invoke argument counts and selectors, interned constant-pool indices for
//! string literals, and `u32` branch targets. The interpreter's dispatch loop runs
//! over [`Op`]s and never touches a string or a resolution table; the original
//! [`FieldRef`]s survive only for the proxy/remote slow paths, which send the field's
//! name id and charge its name length.
//!
//! The pass is a one-pass **register translation** straight from each
//! [`crate::bytecode::Insn`] body, and every body takes it: operand-stack slot `k`
//! becomes frame register `base + k` after the locals ([`MethodOps::regs`] is the
//! register-file size), so no op touches an operand stack. With
//! [`LayoutOptions::fuse`] on (the default) `Load`s and constants are read in place
//! by the op that consumes them and a `Store` retargets the op that produced its
//! value — so `a = b + c`, `i = i + 1` and a loop head are one op each. Slots are
//! placed in their home registers (`Mov`, `Set*`) wherever paths meet: before a
//! branch and at a branch target. With the option off the same pass places every
//! slot and closes every window after each seed instruction, which gives the 1:1
//! form: one op per seed instruction. A `Swap` is two `Mov`s through a scratch
//! register after the locals, and a branch back to a pc the pass left behind takes
//! its stack height from the verifier's `verify::entry_heights`. A body
//! whose stack discipline the verifier rejects (an underflow, a join of two
//! heights), that branches past its end or that needs more registers than a frame
//! names decodes to one [`Op::Fault`], which raises its [`Rejected`] reason on entry.
//! Every body carries one seed-accounting table, [`MethodOps::src_pc`]: op `pc`
//! stands for seed instructions `src_pc[pc]..src_pc[pc + 1]` and takes effect at the
//! last of them, and the last entry is the seed length. Fault coordinates read it,
//! and the interpreter charges each op as the seed instructions it stands for, so
//! virtual time is bit-identical in either form.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::bytecode::{BinOp, CmpOp, Const, Insn, InvokeKind, UnOp};
use crate::cfg::BytecodeCfg;
use crate::program::{ClassId, FieldRef, Method, MethodId, Program, Type};
use crate::verify::{entry_heights, VerifyError};

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

/// No register: the `dst` of an [`Op::RInvoke`] whose callee returns nothing, and
/// for a frame waiting on a call, "the result goes nowhere".
pub const NO_REG: u16 = u16::MAX;

/// Why a body has no register translation: what its one op, [`Op::Fault`], raises
/// on entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The verifier's stack discipline or branch range rejects the body: an
    /// underflow, a join of two stack heights, a branch past the end.
    Verify(VerifyError),
    /// The locals plus one register per seed instruction (the most stack slots the
    /// body can hold) come to `bound`, which reaches [`NO_REG`].
    Registers {
        /// The method whose body it is.
        method: MethodId,
        /// Locals (scratch included) plus seed instructions.
        bound: usize,
    },
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Verify(e) => write!(f, "{e}"),
            Rejected::Registers { method, bound } => {
                write!(f, "{method:?}: {bound} registers reach the frame's limit")
            }
        }
    }
}

/// One pre-decoded instruction of the register form the interpreter executes.
///
/// Operands and results name frame registers — the locals, then one register per
/// operand-stack slot — so no op touches an operand stack; the first `u16` of a
/// producing op is its destination. Every name-carrying payload is resolved up
/// front: field ops carry their dense slot (their slow path reads the `FieldRef` off
/// the seed instruction the op stands for, the last of its window), invokes the
/// argument count and the callee selector, string constants an index into the
/// shared constant pool ([`ProgramLayout::literals`]). An op stands for
/// [`MethodOps::seed_width`] seed instructions, and branch targets index the
/// translated stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Unconditional branch.
    Goto(u32),
    /// Return with no value.
    Return,
    /// Nothing: charges seed instructions no other op stands for (a `Store` folded
    /// into its producer, a `Pop`, or a dead stretch).
    Nop,
    /// `r[dst] = r[src]`.
    Mov(u16, u16),
    /// `r[dst] = k` (integer).
    SetI(u16, i64),
    /// `r[dst] = k` (float).
    SetF(u16, f64),
    /// `r[dst] = k` (boolean).
    SetB(u16, bool),
    /// `r[dst] =` string literal `k`.
    SetS(u16, u32),
    /// `r[dst] = null`.
    SetN(u16),
    /// `r[dst] = r[a] op r[b]`.
    RBin(BinOp, u16, u16, u16),
    /// `r[dst] = r[a] op k`.
    RBinI(BinOp, u16, u16, i64),
    /// `r[dst] = op r[src]`.
    RUn(UnOp, u16, u16),
    /// Branch to `target` if `r[a] op r[b]`.
    RIfCmp(CmpOp, u16, u16, u32),
    /// Branch to `target` if `r[a] op k`.
    RIfCmpI(CmpOp, u16, i64, u32),
    /// Branch to `target` if `r[v] op 0` (for refs: `Eq` = is-null).
    RIf(CmpOp, u16, u32),
    /// `r[dst] =` a new instance of the class.
    RNew(u16, ClassId),
    /// `r[dst] =` a new array of length `r[len]`.
    RNewArray(u16, u16, ArrayInit),
    /// `r[dst] = r[arr][r[idx]]`.
    RArrayLoad(u16, u16, u16),
    /// `r[arr][r[idx]] = r[val]`.
    RArrayStore(u16, u16, u16),
    /// `r[dst] = r[arr].length`.
    RArrayLength(u16, u16),
    /// `r[dst] = r[obj].field` at the pre-resolved slot ([`NO_SLOT`] if
    /// unresolvable): `(dst, obj, slot)`.
    RGetField(u16, u16, u32),
    /// `r[obj].field = r[val]` at the pre-resolved slot: `(obj, val, slot)`.
    RPutField(u16, u16, u32),
    /// `r[dst] =` the static at the global slot.
    RGetStatic(u16, u32),
    /// The static at the global slot `= r[src]`.
    RPutStatic(u16, u32),
    /// Invoke with the arguments in `r[args..args + nargs]` (receiver first); the
    /// result lands in `r[dst]`, or nowhere when `dst` is [`NO_REG`].
    RInvoke {
        /// Dispatch kind.
        kind: InvokeKind,
        /// Result register ([`NO_REG`] for a callee that returns nothing).
        dst: u16,
        /// First argument register.
        args: u16,
        /// Argument count (receiver included for non-static kinds).
        nargs: u16,
        /// Static target method.
        target: MethodId,
        /// Pre-resolved selector of the target (vtable column).
        sel: u32,
    },
    /// Return `r[src]`.
    RReturnValue(u16),
    /// The whole body of a method the translation rejects: faults on entry with the
    /// reason, charging none of the seed instructions it stands for.
    Fault(Box<Rejected>),
}

/// The decoded body of one method (empty iff the bytecode body is empty, i.e. the
/// method is abstract/intrinsic) plus the frame facts the interpreter needs to set up
/// an activation without consulting the [`Program`].
#[derive(Clone, Debug)]
pub struct MethodOps {
    /// The ops of the method body, folded or 1:1 as [`LayoutOptions::fuse`] says;
    /// one [`Op::Fault`] for a body the translation rejects.
    pub ops: Vec<Op>,
    /// The seed-accounting table: one entry per op, the seed pc of the first
    /// instruction it stands for, plus a last entry holding the seed length. Op `pc`
    /// stands for seed instructions `src_pc[pc]..src_pc[pc + 1]` and takes effect at
    /// the last of them (one each in the 1:1 form; none for a `Mov` or `Set*`
    /// that places a slot whose `Load` or constant was charged already). Faults
    /// report seed coordinates and the interpreter charges seed instructions
    /// through this table, so both are the same in either form.
    pub src_pc: Vec<u32>,
    /// Register-file size: the local variable slots (parameters and `this`
    /// included, widened to every local index the body names), a scratch register
    /// where the body has a `Swap`, then one register per operand-stack slot.
    pub regs: u16,
}

impl MethodOps {
    /// Seed-bytecode pc of the op at `pc` (the seed length at `pc == ops.len()`).
    #[inline]
    pub fn seed_pc(&self, pc: usize) -> u32 {
        self.src_pc[pc]
    }

    /// How many seed instructions the op at `pc` stands for: the window it was
    /// translated from (1 for every op of the 1:1 form but a `Swap`'s last two).
    pub fn seed_width(&self, pc: usize) -> u32 {
        self.src_pc[pc + 1] - self.src_pc[pc]
    }
}

/// Knobs for [`ProgramLayout::build_with`]. `Default` is what the runtime uses:
/// the folded register form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayoutOptions {
    /// Fold the operand stack away: `Load`s and constants read in place, a `Store`
    /// retargeting its producer, windows of several seed instructions. Off, the same
    /// translation places every slot and closes every window after each seed
    /// instruction: one op of width 1 per seed instruction (a `Swap` adds two that
    /// stand for none) — the reference the census and the parity suite compare
    /// against.
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
    /// Global static slot → `Class::field` key (the `statics_snapshot` names, shared
    /// by every snapshot taken of the layout).
    pub static_names: Arc<[String]>,
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
    /// Per class, its own `<init>` (what a `NEW` served at home runs), if declared.
    constructors: Vec<Option<MethodId>>,
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

/// The layout of one program: the program itself, its (shared) shape tables and the
/// decoded bodies of its methods — everything an interpreter runs. Built with
/// [`ProgramLayout::build`] or, for the per-node copies of a plan,
/// [`ProgramLayout::build_family`], after all rewriting has happened.
#[derive(Clone, Debug, Default)]
pub struct ProgramLayout {
    /// The program this layout was built from (classes and methods shared by `Arc`).
    program: Program,
    shape: Arc<LayoutShape>,
    /// Pre-decoded op bodies, indexed by [`MethodId`]. Layouts built together hold
    /// the same `Arc` wherever their programs hold the same `Arc<Method>`.
    pub method_ops: Vec<Arc<MethodOps>>,
    /// Interned string constants referenced by [`Op::SetS`], deduplicated across
    /// the whole family: shared bodies index one pool.
    pub literals: Arc<Literals>,
}

impl std::ops::Deref for ProgramLayout {
    type Target = LayoutShape;

    #[inline]
    fn deref(&self) -> &LayoutShape {
        &self.shape
    }
}

/// A word-at-a-time multiplicative hash (the FxHash scheme) for the literal map: a
/// string is hashed eight bytes per step, so recognising a long tag read off the wire
/// as a literal costs a fraction of copying it. Not keyed: the map's keys are the
/// program's own literals, fixed at load time, so a probe crafted to collide costs
/// at most a scan of one bucket of them.
#[derive(Clone, Copy, Debug, Default)]
pub struct StrHasher(u64);

impl StrHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for StrHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, b: u8) {
        self.add(u64::from(b));
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its best bits on top; the table indexes by the bottom.
        self.0.rotate_left(26)
    }
}

/// Distinct strings numbered in first-seen order, each stored once (the vector and
/// the map share it), with the map from content back to number. `S` hashes the map:
/// [`StrHasher`] for a program's own literals, a keyed hasher where the keys arrive
/// from outside.
#[derive(Debug, Default)]
pub struct Interner<S = BuildHasherDefault<StrHasher>> {
    strs: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32, S>,
}

impl<S: BuildHasher> Interner<S> {
    /// Number of distinct strings.
    #[inline]
    pub fn len(&self) -> usize {
        self.strs.len()
    }

    /// `true` when nothing was interned.
    pub fn is_empty(&self) -> bool {
        self.strs.is_empty()
    }

    /// String number `id`.
    #[inline]
    pub fn get(&self, id: u32) -> Option<&str> {
        self.strs.get(id as usize).map(|s| &**s)
    }

    /// The number of the string equal to `s`, if one is.
    #[inline]
    pub fn id_of(&self, s: &str) -> Option<u32> {
        self.ids.get(s).copied()
    }

    /// The number of `s`, added at the end if it is new.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(id) = self.id_of(s) {
            return id;
        }
        let id = self.strs.len() as u32;
        let s: Arc<str> = Arc::from(s);
        self.ids.insert(Arc::clone(&s), id);
        self.strs.push(s);
        id
    }
}

/// The string constants of a family's bodies, in first-use order — [`Op::SetS`]
/// carries the index — with the map from content back to index and, per literal,
/// what it names in the family's shape.
#[derive(Debug, Default)]
pub struct Literals {
    strs: Interner,
    names: Vec<LiteralNames>,
}

/// What one literal names in a shape, by kind (`None` where it names nothing).
#[derive(Clone, Copy, Debug, Default)]
struct LiteralNames {
    class: Option<ClassId>,
    selector: Option<u32>,
    field: Option<u32>,
}

impl std::ops::Deref for Literals {
    type Target = Interner;

    #[inline]
    fn deref(&self) -> &Interner {
        &self.strs
    }
}

impl Literals {
    /// The class literal `id` names.
    #[inline]
    pub fn class(&self, id: u32) -> Option<ClassId> {
        self.names.get(id as usize)?.class
    }

    /// The selector of the method name literal `id` spells.
    #[inline]
    pub fn selector(&self, id: u32) -> Option<u32> {
        self.names.get(id as usize)?.selector
    }

    /// The field-name id of the field name literal `id` spells.
    #[inline]
    pub fn field_name_id(&self, id: u32) -> Option<u32> {
        self.names.get(id as usize)?.field
    }

    /// Fills in what every literal names, against `shape` and a program of it (class
    /// names are part of the shape, so any program of the family answers alike).
    fn resolve_names(&mut self, program: &Program, shape: &LayoutShape) {
        self.names = self
            .strs
            .strs
            .iter()
            .map(|s| LiteralNames {
                class: program.class_by_name(s),
                selector: shape.selector_of_name(s),
                field: shape.field_name_id(s),
            })
            .collect();
    }
}

/// What [`ProgramLayout::build_family`] keeps per shape while it decodes: a program
/// of the shape, the string pool its bodies index and the bodies decoded so far, by
/// the address of the [`Method`] they came from (the programs outlive the call, so an
/// address names one method).
struct Family {
    shape: Arc<LayoutShape>,
    program: usize,
    pool: Literals,
    decoded: HashMap<*const Method, Arc<MethodOps>>,
}

impl ProgramLayout {
    /// Runs the resolution pass over `program` with the default options (the
    /// register form).
    pub fn build(program: &Program) -> ProgramLayout {
        Self::build_with(program, LayoutOptions::default())
    }

    /// Runs the resolution pass over `program`: a family of one, owning a copy of it.
    pub fn build_with(program: &Program, opts: LayoutOptions) -> ProgramLayout {
        let mut family = Self::decode_family(std::slice::from_ref(program), opts);
        let mut layout = family.pop().expect("one program, one layout");
        layout.program = program.clone();
        layout
    }

    /// Runs the resolution pass over `programs` together, `layouts[i]` owning
    /// `programs[i]`. Programs with the same shape fingerprint — the per-node copies
    /// of one plan — share one [`LayoutShape`] allocation and one string-constant
    /// pool, and each distinct `Arc<Method>` among them is decoded once;
    /// programs of different shapes share nothing. Nothing outlives the call but the
    /// layouts.
    pub fn build_family(programs: Vec<Program>, opts: LayoutOptions) -> Vec<ProgramLayout> {
        let mut layouts = Self::decode_family(&programs, opts);
        for (layout, program) in layouts.iter_mut().zip(programs) {
            layout.program = program;
        }
        layouts
    }

    /// The layouts of [`Self::build_family`], each still without its program.
    fn decode_family(programs: &[Program], opts: LayoutOptions) -> Vec<ProgramLayout> {
        let mut families: Vec<Family> = Vec::new();
        let mut work = RegWork::default();
        let bodies: Vec<(usize, Vec<Arc<MethodOps>>)> = programs
            .iter()
            .enumerate()
            .map(|(index, program)| {
                let fingerprint = shape_fingerprint(program);
                let known = families
                    .iter()
                    .position(|f| f.shape.fingerprint == fingerprint);
                let at = known.unwrap_or_else(|| {
                    families.push(Family {
                        shape: Arc::new(LayoutShape::of(program, fingerprint)),
                        program: index,
                        pool: Literals::default(),
                        decoded: HashMap::with_capacity(program.methods.len()),
                    });
                    families.len() - 1
                });
                let Family {
                    shape,
                    pool,
                    decoded,
                    ..
                } = &mut families[at];
                let method_ops = program.methods.iter().map(|m| {
                    let ops = decoded.entry(Arc::as_ptr(m)).or_insert_with(|| {
                        Arc::new(shape.registers(program, m, opts, pool, &mut work))
                    });
                    Arc::clone(ops)
                });
                (at, method_ops.collect())
            })
            .collect();
        // What the layouts of one family have in common: the shape and the finished pool.
        let shared: Vec<ProgramLayout> = families
            .into_iter()
            .map(|mut f| {
                f.pool.resolve_names(&programs[f.program], &f.shape);
                ProgramLayout {
                    program: Program::default(),
                    shape: f.shape,
                    method_ops: Vec::new(),
                    literals: Arc::new(f.pool),
                }
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

    /// The program this layout was built from.
    #[inline]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The pre-decoded body of `method` (`ops` empty iff the bytecode body is empty).
    #[inline]
    pub fn ops(&self, method: MethodId) -> &MethodOps {
        &self.method_ops[method.0 as usize]
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
        let constructors = program
            .classes
            .iter()
            .map(|c| program.find_method(c.id, "<init>"))
            .collect();

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
            static_names: static_names.into(),
            static_types,
            selectors,
            method_classes,
            selector_of_name,
            field_name_ids,
            method_names,
            constructors,
            selector_count,
            fingerprint,
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

    /// `class`'s own constructor (`<init>`), if it declares one.
    #[inline]
    pub fn constructor(&self, class: ClassId) -> Option<MethodId> {
        self.constructors[class.0 as usize]
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
    /// column `sel`. This is what [`Op::RInvoke`] uses — one array index, no probe of
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

/// Stack height not known (yet) at a seed pc.
const UNKNOWN: u32 = u32::MAX;

/// A stack slot of the register translation that no op has placed in its home
/// register yet: a register read in place (a local, or another slot's home a `Dup`
/// copied) or a constant.
#[derive(Clone, Copy, Debug)]
enum Val {
    Reg(u16),
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(u32),
    Null,
}

/// The register translation of one body at a time: its work tables, reused by every
/// body of one build, and the output so far.
#[derive(Default)]
struct RegWork {
    /// Per seed pc, plus the end: whether a branch lands there.
    target: Vec<bool>,
    /// Per seed pc, plus the end: the stack height control arrives with.
    height: Vec<u32>,
    /// Per seed pc, plus the end: the op whose window starts there (live targets).
    op_at: Vec<u32>,
    /// The abstract operand stack: slot `k` is at home in register `base + k`.
    stack: Vec<Val>,
    ops: Vec<Op>,
    src_pc: Vec<u32>,
    /// First seed instruction no emitted op stands for yet.
    from: u32,
    /// Home register of stack slot 0.
    base: u16,
    /// Whether the last op's result is a slot's and a `Store` may retarget it.
    producer: bool,
}

impl RegWork {
    /// Home register of stack slot `d`.
    fn home(&self, d: usize) -> u16 {
        self.base + d as u16
    }

    /// Emits `op` standing for the pending window up to seed pc `end`.
    fn emit(&mut self, op: Op, end: u32) {
        self.src_pc.push(self.from);
        self.ops.push(op);
        self.from = end;
        self.producer = false;
    }

    /// Emits `op`, whose result is the new top slot, at home.
    fn produce(&mut self, op: Op, end: u32) {
        let home = self.home(self.stack.len());
        self.emit(op, end);
        self.stack.push(Val::Reg(home));
        self.producer = true;
    }

    /// Places slot `d` in its home register (ops emitted here close the pending
    /// window at `end`, so only the first can stand for seed instructions).
    fn place(&mut self, d: usize, end: u32) -> u16 {
        let home = self.home(d);
        match self.stack[d] {
            Val::Reg(r) if r == home => {}
            v => {
                self.emit(set(home, v), end);
                self.stack[d] = Val::Reg(home);
            }
        }
        home
    }

    /// The register slot `d` is read from: in place, or its home once placed.
    fn reg(&mut self, d: usize, end: u32) -> u16 {
        match self.stack[d] {
            Val::Reg(r) => r,
            _ => self.place(d, end),
        }
    }

    /// The registers of the top `K` slots, which are popped.
    fn pop_regs<const K: usize>(&mut self, end: u32) -> [u16; K] {
        let lo = self.stack.len() - K;
        let regs = std::array::from_fn(|k| self.reg(lo + k, end));
        self.stack.truncate(lo);
        regs
    }

    /// The registers of the top two slots, which are popped; an integer constant on
    /// top is read as an immediate instead.
    fn pop_pair(&mut self, end: u32) -> (u16, Result<u16, i64>) {
        if let Some(&Val::Int(k)) = self.stack.last() {
            self.stack.pop();
            let [a] = self.pop_regs(end);
            return (a, Err(k));
        }
        let [a, b] = self.pop_regs(end);
        (a, Ok(b))
    }

    /// Places every slot from `d` up.
    fn place_from(&mut self, d: usize, end: u32) {
        for k in d..self.stack.len() {
            self.place(k, end);
        }
    }

    /// Places every slot that reads register `x` in place, so that they keep its
    /// old value when `x` is written.
    fn keep(&mut self, x: u16, at: u32) {
        for d in 0..self.stack.len() {
            if matches!(self.stack[d], Val::Reg(r) if r == x) {
                self.place(d, at);
            }
        }
    }

    /// `Swap` at seed pc `at`: both slots at home, then two `Mov`s through
    /// `scratch`, which the top slot reads in place until it is placed.
    fn swap(&mut self, scratch: u16, at: u32) {
        let lo = self.stack.len() - 2;
        self.keep(scratch, at);
        self.place_from(lo, at);
        let (a, b) = (self.home(lo), self.home(lo + 1));
        self.emit(Op::Mov(scratch, a), at + 1);
        self.emit(Op::Mov(a, b), at + 1);
        self.stack[lo + 1] = Val::Reg(scratch);
    }

    /// `Store x` at seed pc `at`.
    fn store(&mut self, x: u16, at: u32) {
        let top = self.stack.pop().expect("height checked");
        self.keep(x, at);
        let fresh = self.home(self.stack.len());
        if matches!(top, Val::Reg(r) if r == fresh) && self.producer {
            if let Some(dst) = self
                .ops
                .last_mut()
                .and_then(dst_of)
                .filter(|d| **d == fresh)
            {
                // The producer writes `x` itself; the `Store` is charged with the
                // next op.
                *dst = x;
                return;
            }
        }
        self.emit(set(x, top), at + 1);
    }

    /// Emits branch `op` (seed pc `at`) to seed pc `t`, which control reaches with
    /// the `h` slots left, all placed at home. `false` where `t` has another
    /// height or lies behind the pass, unreached.
    fn branch(&mut self, op: Op, at: u32, t: usize, h: usize) -> bool {
        self.place_from(0, at);
        let arrives = self.height[t];
        if (t <= at as usize && self.op_at[t] == UNKNOWN)
            || (arrives != UNKNOWN && arrives as usize != h)
        {
            return false;
        }
        self.height[t] = h as u32;
        self.emit(op, at + 1);
        true
    }
}

/// The op that writes `v` to register `dst`.
fn set(dst: u16, v: Val) -> Op {
    match v {
        Val::Reg(r) => Op::Mov(dst, r),
        Val::Int(k) => Op::SetI(dst, k),
        Val::Float(k) => Op::SetF(dst, k),
        Val::Bool(k) => Op::SetB(dst, k),
        Val::Str(k) => Op::SetS(dst, k),
        Val::Null => Op::SetN(dst),
    }
}

/// The destination register of a register op that produces a value.
fn dst_of(op: &mut Op) -> Option<&mut u16> {
    match op {
        Op::RBin(_, d, ..)
        | Op::RBinI(_, d, ..)
        | Op::RUn(_, d, _)
        | Op::RNew(d, _)
        | Op::RNewArray(d, ..)
        | Op::RArrayLoad(d, ..)
        | Op::RArrayLength(d, _)
        | Op::RGetField(d, ..)
        | Op::RGetStatic(d, _)
        | Op::RInvoke { dst: d, .. } => Some(d),
        _ => None,
    }
}

/// Why one translation pass gave up: the body is rejected, or only the verifier's
/// stack heights can tell (`Heights`).
enum GiveUp {
    Rejected(Rejected),
    Heights,
}

impl LayoutShape {
    /// The register translation of one body. Every body takes it: a pass that gives
    /// up for want of a stack height (a pop below the bottom, a join of two heights,
    /// a branch back to a pc it left behind unreached) asks the verifier's
    /// [`entry_heights`] and runs again with every reachable block's height known,
    /// and a body the verifier rejects, that branches past its end or that needs
    /// too many registers decodes to one [`Op::Fault`].
    fn registers(
        &self,
        program: &Program,
        method: &Method,
        opts: LayoutOptions,
        pool: &mut Literals,
        w: &mut RegWork,
    ) -> MethodOps {
        let body = &method.body;
        let rejected = match self.translate(program, method, opts, pool, w, None) {
            Ok(ops) => return ops,
            Err(GiveUp::Rejected(rejected)) => rejected,
            Err(GiveUp::Heights) => {
                let cfg = BytecodeCfg::build(body);
                match entry_heights(program, method, &cfg) {
                    Ok(heights) => {
                        let mut known = vec![UNKNOWN; body.len() + 1];
                        for (&leader, h) in cfg.leaders.iter().zip(heights) {
                            known[leader] = h.map_or(UNKNOWN, |h| h as u32);
                        }
                        let ops = self.translate(program, method, opts, pool, w, Some(&known));
                        return ops.unwrap_or_else(|_| unreachable!("the verifier's heights hold"));
                    }
                    Err(e) => Rejected::Verify(e),
                }
            }
        };
        // The pool holds every body's literals in order, a rejected body's too.
        for insn in body {
            if let Insn::Const(Const::Str(s)) = insn {
                pool.strs.intern(s);
            }
        }
        MethodOps {
            ops: vec![Op::Fault(Box::new(rejected))],
            src_pc: vec![0, body.len() as u32],
            regs: method.locals,
        }
    }

    /// One pass of the register translation over `method`'s seed instructions,
    /// with the stack heights `known` per seed pc if the verifier gave them. Stack
    /// slot `k` is register `base + k`, `base` the locals widened to every local
    /// index the body names (plus a scratch register if it swaps). With folding
    /// on, `Load` and constants stay on an abstract stack and are read in place by
    /// the op that consumes them, and a `Store` retargets the op that produced its
    /// value; each op stands for the window of seed instructions since the previous
    /// op, its own last. Slots are placed at home before every branch and branch
    /// target, so every path agrees on where a slot lives, and with folding off
    /// after every seed instruction.
    fn translate(
        &self,
        program: &Program,
        method: &Method,
        opts: LayoutOptions,
        pool: &mut Literals,
        w: &mut RegWork,
        known: Option<&[u32]>,
    ) -> Result<MethodOps, GiveUp> {
        let body = &method.body;
        let n = body.len();
        let mut base = u32::from(method.locals);
        let mut swaps = false;
        w.target.clear();
        w.target.resize(n + 1, false);
        for (pc, insn) in body.iter().enumerate() {
            match insn {
                Insn::Swap => swaps = true,
                Insn::Load(x) | Insn::Store(x) => base = base.max(u32::from(*x) + 1),
                _ => {}
            }
            match insn.branch_target() {
                Some(target) if target > n => {
                    let e = VerifyError::BranchOutOfRange {
                        method: method.id,
                        pc,
                        target,
                    };
                    return Err(GiveUp::Rejected(Rejected::Verify(e)));
                }
                Some(t) => w.target[t] = true,
                None => {}
            }
        }
        let scratch = base as u16;
        base += u32::from(swaps);
        if base as usize + n >= usize::from(NO_REG) {
            return Err(GiveUp::Rejected(Rejected::Registers {
                method: method.id,
                bound: base as usize + n,
            }));
        }
        w.height.clear();
        match known {
            Some(known) => w.height.extend_from_slice(known),
            None => w.height.resize(n + 1, UNKNOWN),
        }
        w.op_at.clear();
        w.op_at.resize(n + 1, UNKNOWN);
        w.stack.clear();
        (w.ops, w.src_pc) = (Vec::with_capacity(n), Vec::with_capacity(n + 1));
        (w.from, w.base, w.producer) = (0, base as u16, false);
        let mut live = true;
        let mut max_height = 0;
        for (i, insn) in body.iter().enumerate() {
            let at = i as u32;
            if w.target[i] {
                if live {
                    w.place_from(0, at);
                    if w.height[i] != UNKNOWN && w.height[i] as usize != w.stack.len() {
                        return Err(GiveUp::Heights);
                    }
                } else if w.height[i] != UNKNOWN {
                    live = true;
                    for d in 0..w.height[i] as usize {
                        w.stack.push(Val::Reg(w.home(d)));
                    }
                }
                if live {
                    if w.from < at {
                        w.emit(Op::Nop, at);
                    }
                    w.producer = false;
                    w.height[i] = w.stack.len() as u32;
                    w.op_at[i] = w.ops.len() as u32;
                }
            }
            if !live {
                // Dead code, charged to a `Nop` no run reaches; its literals are
                // interned all the same, so the pool holds every literal of the body.
                if let Insn::Const(Const::Str(s)) = insn {
                    pool.strs.intern(s);
                }
                if !opts.fuse {
                    w.emit(Op::Nop, at + 1);
                }
                continue;
            }
            let h = w.stack.len();
            let (pops, _) = insn.stack_effect(|m| {
                let callee = program.method(m);
                (callee.params.len(), callee.ret != Type::Void)
            });
            if h < pops {
                return Err(GiveUp::Heights);
            }
            let end = at + 1;
            let top = h.wrapping_sub(1);
            match insn {
                Insn::Const(c) => w.stack.push(match c {
                    Const::Int(k) => Val::Int(*k),
                    Const::Float(k) => Val::Float(*k),
                    Const::Bool(k) => Val::Bool(*k),
                    Const::Str(s) => Val::Str(pool.strs.intern(s)),
                    Const::Null => Val::Null,
                }),
                Insn::Load(x) => w.stack.push(Val::Reg(*x)),
                Insn::Store(x) => w.store(*x, at),
                Insn::Dup => w.stack.push(w.stack[top]),
                Insn::Pop => {
                    w.stack.pop();
                }
                Insn::Swap => w.swap(scratch, at),
                Insn::Bin(op) => {
                    let dst = w.home(top - 1);
                    let op = match w.pop_pair(at) {
                        (a, Ok(b)) => Op::RBin(*op, dst, a, b),
                        (a, Err(k)) => Op::RBinI(*op, dst, a, k),
                    };
                    w.produce(op, end);
                }
                Insn::Un(op) => {
                    let [v] = w.pop_regs(at);
                    w.produce(Op::RUn(*op, w.home(top), v), end);
                }
                Insn::IfCmp(c, t) => {
                    let op = match w.pop_pair(at) {
                        (a, Ok(b)) => Op::RIfCmp(*c, a, b, *t as u32),
                        (a, Err(k)) => Op::RIfCmpI(*c, a, k, *t as u32),
                    };
                    if !w.branch(op, at, *t, h - 2) {
                        return Err(GiveUp::Heights);
                    }
                }
                Insn::If(c, t) => {
                    let [v] = w.pop_regs(at);
                    if !w.branch(Op::RIf(*c, v, *t as u32), at, *t, h - 1) {
                        return Err(GiveUp::Heights);
                    }
                }
                Insn::Goto(t) => {
                    if !w.branch(Op::Goto(*t as u32), at, *t, h) {
                        return Err(GiveUp::Heights);
                    }
                    w.stack.clear();
                    live = false;
                }
                Insn::New(class) => w.produce(Op::RNew(w.home(h), *class), end),
                Insn::NewArray(ty) => {
                    let [len] = w.pop_regs(at);
                    w.produce(Op::RNewArray(w.home(top), len, ArrayInit::of(ty)), end);
                }
                Insn::ArrayLoad => {
                    let [arr, idx] = w.pop_regs(at);
                    w.produce(Op::RArrayLoad(w.home(top - 1), arr, idx), end);
                }
                Insn::ArrayStore => {
                    let [arr, idx, val] = w.pop_regs(at);
                    w.emit(Op::RArrayStore(arr, idx, val), end);
                }
                Insn::ArrayLength => {
                    let [arr] = w.pop_regs(at);
                    w.produce(Op::RArrayLength(w.home(top), arr), end);
                }
                Insn::GetField(fr) => {
                    let [obj] = w.pop_regs(at);
                    let slot = self.field_slot(*fr).unwrap_or(NO_SLOT);
                    w.produce(Op::RGetField(w.home(top), obj, slot), end);
                }
                Insn::PutField(fr) => {
                    let [obj, val] = w.pop_regs(at);
                    let slot = self.field_slot(*fr).unwrap_or(NO_SLOT);
                    w.emit(Op::RPutField(obj, val, slot), end);
                }
                Insn::GetStatic(fr) => {
                    let slot = self.static_slot(*fr).unwrap_or(NO_SLOT);
                    w.produce(Op::RGetStatic(w.home(h), slot), end);
                }
                Insn::PutStatic(fr) => {
                    let [v] = w.pop_regs(at);
                    let slot = self.static_slot(*fr).unwrap_or(NO_SLOT);
                    w.emit(Op::RPutStatic(v, slot), end);
                }
                Insn::Invoke(kind, target) => {
                    let lo = h - pops;
                    // Arguments already in consecutive registers are read in place.
                    let args = match w.stack.get(lo) {
                        Some(&Val::Reg(r))
                            if (lo..h).all(|d| {
                                matches!(w.stack[d], Val::Reg(q) if q as usize == r as usize + d - lo)
                            }) =>
                        {
                            r
                        }
                        _ => {
                            w.place_from(lo, at);
                            w.home(lo)
                        }
                    };
                    w.stack.truncate(lo);
                    let returns = program.method(*target).ret != Type::Void;
                    let op = Op::RInvoke {
                        kind: *kind,
                        dst: if returns { w.home(lo) } else { NO_REG },
                        args,
                        nargs: pops as u16,
                        target: *target,
                        sel: self.selectors[target.0 as usize],
                    };
                    match returns {
                        true => w.produce(op, end),
                        false => w.emit(op, end),
                    }
                }
                Insn::Return => {
                    w.emit(Op::Return, end);
                    live = false;
                }
                Insn::ReturnValue => {
                    let [v] = w.pop_regs(at);
                    w.stack.clear();
                    w.emit(Op::RReturnValue(v), end);
                    live = false;
                }
            }
            if !opts.fuse {
                // The 1:1 form: every slot at home, the window closed.
                w.place_from(0, end);
                if w.from < end {
                    w.emit(Op::Nop, end);
                }
                w.producer = false;
            }
            max_height = max_height.max(w.stack.len());
        }
        if !live && w.from < n as u32 {
            w.emit(Op::Nop, n as u32);
        }
        w.op_at[n] = w.ops.len() as u32;
        w.src_pc.push(n as u32);
        for op in &mut w.ops {
            if let Op::Goto(t) | Op::RIfCmp(.., t) | Op::RIfCmpI(.., t) | Op::RIf(.., t) = op {
                *t = w.op_at[*t as usize];
            }
        }
        Ok(MethodOps {
            ops: std::mem::take(&mut w.ops),
            src_pc: std::mem::take(&mut w.src_pc),
            regs: (base as usize + max_height) as u16,
        })
    }
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
            Insn::Store(0),
            Insn::Const(Const::Str("dup".into())),
            Insn::Store(1),
            Insn::Const(Const::Str("other".into())),
            Insn::Store(2),
            Insn::Return,
        ];
        let layout = ProgramLayout::build(&p);
        assert_eq!(layout.literals.len(), 2, "literals are deduplicated");
        let ops = &layout.ops(m).ops;
        let literal = |op: &Op| match *op {
            Op::SetS(_, i) => i,
            ref other => panic!("expected SetS, got {other:?}"),
        };
        assert_eq!(
            literal(&ops[0]),
            literal(&ops[1]),
            "same literal, same pool index"
        );
        assert_ne!(literal(&ops[0]), literal(&ops[2]));
        let i = literal(&ops[0]);
        assert_eq!(layout.literals.get(i), Some("dup"));
        assert_eq!(layout.literals.id_of("dup"), Some(i), "content maps back");
        assert_eq!(layout.literals.id_of("absent"), None);
        // The 1:1 form interns into the same pool, in the same order.
        let one_to_one = ProgramLayout::build_with(&p, LayoutOptions { fuse: false });
        assert_eq!(one_to_one.ops(m).ops[..2], [Op::SetS(3, i), Op::Mov(0, 3)]);
    }

    #[test]
    fn an_interner_stores_each_content_once() {
        let mut strs: Interner = Interner::default();
        let ab = strs.intern("ab");
        assert_eq!(strs.intern("a"), ab + 1);
        let built = format!("{}{}", "a", "b");
        assert_eq!(strs.intern(&built), ab, "equal content, one number");
        assert_eq!(strs.get(ab), Some("ab"));
        assert_eq!((strs.len(), strs.id_of("zz")), (2, None));
    }

    #[test]
    fn literals_know_what_they_name_and_classes_their_constructors() {
        let mut p = sample();
        let a = p.class_by_name("A").unwrap();
        let b = p.class_by_name("B").unwrap();
        let ctor = p.add_method(a, "<init>", vec![], Type::Void, false);
        let m = p.find_method(a, "m").unwrap();
        let mut body = Vec::new();
        for literal in ["B", "n", "y", "other"] {
            body.extend([Insn::Const(Const::Str(literal.into())), Insn::Pop]);
        }
        body.push(Insn::Return);
        p.set_body(m, body, 1);
        let layout = ProgramLayout::build(&p);
        let lits = &layout.literals;
        let id = |s: &str| lits.id_of(s).unwrap();
        assert_eq!(lits.class(id("B")), Some(b));
        assert_eq!(lits.selector(id("n")), layout.selector_of_name("n"));
        assert_eq!(lits.field_name_id(id("y")), layout.field_name_id("y"));
        let other = id("other");
        let names = (
            lits.class(other),
            lits.selector(other),
            lits.field_name_id(other),
        );
        assert_eq!(names, (None, None, None));
        assert_eq!(lits.class(99), None, "out of range");
        assert_eq!(layout.constructor(a), Some(ctor));
        assert_eq!(
            layout.constructor(b),
            None,
            "a constructor is not inherited"
        );
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
            Insn::Load(0),
            Insn::Load(0),
            Insn::GetField(fx),
            Insn::PutField(fx),
            Insn::GetStatic(fs),
            Insn::PutStatic(fs),
            Insn::Load(0),
            Insn::Const(Const::Int(1)),
            Insn::Const(Const::Int(2)),
            Insn::Invoke(InvokeKind::Virtual, m),
            Insn::Pop,
            Insn::Return,
        ];
        let layout = ProgramLayout::build(&p);
        let (x, s) = (
            layout.field_slot(fx).unwrap(),
            layout.static_slot(fs).unwrap(),
        );
        let sel = layout.selector(m);
        // Local 0 (widened: the method declares none), then the stack slots.
        let mops = layout.ops(caller);
        assert_eq!(
            mops.ops,
            vec![
                Op::RGetField(2, 0, x),
                Op::RPutField(0, 2, x),
                Op::RGetStatic(1, s),
                Op::RPutStatic(1, s),
                Op::Mov(1, 0),
                Op::SetI(2, 1),
                Op::SetI(3, 2),
                Op::RInvoke {
                    kind: InvokeKind::Virtual,
                    dst: 1,
                    args: 1,
                    nargs: 3,
                    target: m,
                    sel,
                },
                Op::Return,
            ]
        );
        assert_eq!(mops.src_pc, [0, 3, 4, 5, 6, 9, 9, 9, 10, 12]);
        assert_eq!(layout.resolve_selector(a, sel), Some(m));
        assert_eq!(layout.ops(m).regs, p.method(m).locals);
        assert!(layout.ops(m).ops.is_empty(), "abstract body decodes empty");
    }

    /// `i = 0; while (i < 10) { i = i + 1; }` — the loop head becomes one
    /// `RIfCmpI` reading local 0 in place, the increment one `RBinI` whose `Store`
    /// retargets it to local 0 (the `Store` is charged with the `Goto`), and both
    /// branch targets are remapped onto the translated stream.
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
                Op::SetI(0, 0),
                Op::RIfCmpI(CmpOp::Ge, 0, 10, 4),
                Op::RBinI(BinOp::Add, 0, 0, 1),
                Op::Goto(1),
                Op::Return,
            ]
        );
        assert_eq!(mops.src_pc, vec![0, 2, 5, 8, 10, 11]);
        assert_eq!(mops.seed_pc(2), 5);
        assert_eq!((mops.seed_width(1), mops.seed_width(3)), (3, 2));
        // Local 0 (widened: the method declares none), then two stack slots.
        assert_eq!(mops.regs, 3);
    }

    /// The `Goto` joins the `Load/Const/Bin` sequence at its `Const` with an empty
    /// stack, so the `Bin` pops below the bottom: the body is one op that faults on
    /// entry with the verifier's error, standing for the whole body.
    #[test]
    fn branch_target_landing_mid_pattern_faults_on_entry() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let m = p.add_method(a, "m", vec![Type::Int], Type::Int, true);
        p.method_mut(m).body = vec![
            Insn::Goto(2),
            Insn::Load(0),
            Insn::Const(Const::Int(1)),
            Insn::Bin(BinOp::Add),
            Insn::ReturnValue,
        ];
        let underflow = VerifyError::StackUnderflow { method: m, pc: 3 };
        for fuse in [true, false] {
            let layout = ProgramLayout::build_with(&p, LayoutOptions { fuse });
            let mops = layout.ops(m);
            let fault = Op::Fault(Box::new(Rejected::Verify(underflow.clone())));
            assert_eq!(mops.ops, [fault]);
            assert_eq!(mops.src_pc, [0, 5]);
        }
    }

    /// Locals plus one register per seed instruction that reach [`NO_REG`] (a frame
    /// could not name its last stack slot), and a branch past the end: both bodies
    /// fault on entry.
    #[test]
    fn too_many_registers_and_a_branch_past_the_end_fault_on_entry() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let wide = p.add_method(a, "wide", vec![], Type::Void, true);
        let body = vec![Insn::Const(Const::Int(1)), Insn::Pop, Insn::Return];
        p.set_body(wide, body, NO_REG - 3);
        let far = p.add_method(a, "far", vec![], Type::Void, true);
        p.set_body(far, vec![Insn::Goto(3), Insn::Return], 0);
        let layout = ProgramLayout::build(&p);
        let registers = Rejected::Registers {
            method: wide,
            bound: usize::from(NO_REG),
        };
        assert_eq!(layout.ops(wide).ops, [Op::Fault(Box::new(registers))]);
        let past = VerifyError::BranchOutOfRange {
            method: far,
            pc: 0,
            target: 3,
        };
        let fault = Op::Fault(Box::new(Rejected::Verify(past)));
        assert_eq!(layout.ops(far).ops, [fault]);
    }

    /// A branch back to a pc the pass walked past as dead code: the verifier's
    /// heights make it live, and the body translates whole.
    #[test]
    fn a_backward_branch_to_a_skipped_pc_takes_the_verifiers_height() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let m = p.add_method(a, "m", vec![Type::Int], Type::Int, true);
        p.method_mut(m).body = vec![
            Insn::Goto(3),
            Insn::Load(0), // reached only from the backward Goto
            Insn::ReturnValue,
            Insn::Goto(1),
        ];
        let mops = &ProgramLayout::build(&p).method_ops[m.0 as usize];
        assert_eq!(mops.ops, [Op::Goto(2), Op::RReturnValue(0), Op::Goto(1)]);
        assert_eq!(mops.src_pc, [0, 1, 3, 4]);
    }

    /// A `Swap` is two `Mov`s through the scratch register after the locals; the
    /// lower slot reads it in place.
    #[test]
    fn a_swap_is_two_moves_through_the_scratch_register() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let m = p.add_method(a, "m", vec![Type::Int, Type::Int], Type::Int, true);
        p.method_mut(m).body = vec![
            Insn::Load(0),
            Insn::Load(1),
            Insn::Swap,
            Insn::Bin(BinOp::Sub), // a1 - a0
            Insn::ReturnValue,
        ];
        let mops = &ProgramLayout::build(&p).method_ops[m.0 as usize];
        // Locals 0 and 1, the scratch register 2, then slots 3 and 4.
        assert_eq!(
            mops.ops,
            [
                Op::Mov(3, 0),
                Op::Mov(4, 1),
                Op::Mov(2, 3),
                Op::Mov(3, 4),
                Op::RBin(BinOp::Sub, 3, 3, 2),
                Op::RReturnValue(3),
            ]
        );
        assert_eq!(mops.src_pc, [0, 2, 2, 3, 3, 4, 5]);
        assert_eq!(mops.regs, 5);
    }

    /// A branch to the start of a sequence translates it whole; the op at the
    /// target starts its window there.
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
                Op::RBinI(BinOp::Add, 1, 0, 1),
                Op::RReturnValue(1),
            ]
        );
        assert_eq!(mops.src_pc, vec![0, 1, 4, 5]);
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
            vec![Op::RIfCmp(CmpOp::Eq, 0, 1, 2), Op::RReturnValue(0)]
        );
        assert_eq!(mops.src_pc, vec![0, 3, 5]);
    }

    /// A `Store` whose value no op produced in place is a `Mov` or `Set*`; a
    /// `Dup`ed or constant operand that must live in its slot's register is placed
    /// by one that stands for no seed instruction.
    #[test]
    fn stores_and_placements_are_moves() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let m = p.add_method(a, "m", vec![Type::Int], Type::Int, true);
        p.method_mut(m).body = vec![
            Insn::Load(0),
            Insn::Store(1), // mov 1, 0
            Insn::Const(Const::Int(7)),
            Insn::Load(1),
            Insn::Bin(BinOp::Sub), // 7 - local 1: the constant is placed first
            Insn::ReturnValue,
        ];
        let layout = ProgramLayout::build(&p);
        let mops = layout.ops(m);
        assert_eq!(
            mops.ops,
            vec![
                Op::Mov(1, 0),
                Op::SetI(2, 7),
                Op::RBin(BinOp::Sub, 2, 2, 1),
                Op::RReturnValue(2),
            ]
        );
        assert_eq!(mops.src_pc, vec![0, 2, 4, 5, 6]);
        assert_eq!(
            mops.seed_width(1),
            2,
            "the placing SetI takes the pending window"
        );
        assert_eq!(mops.regs, 4, "locals 0 and 1, then two stack slots");
    }

    /// With folding off the same translation places every slot and closes every
    /// window after each seed instruction: `Load` is a `Mov`, `Pop` a `Nop`, `Bin`
    /// an `RBin` on the two top homes, and dead code one `Nop` per instruction.
    #[test]
    fn fuse_off_yields_the_one_to_one_decode() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let m = p.add_method(a, "m", vec![], Type::Int, true);
        p.method_mut(m).body = vec![
            Insn::Load(0),
            Insn::Const(Const::Int(1)),
            Insn::Bin(BinOp::Add),
            Insn::Dup,
            Insn::Pop,
            Insn::Store(0),
            Insn::Load(0),
            Insn::ReturnValue,
            Insn::Pop, // dead
            Insn::Return,
        ];
        let layout = ProgramLayout::build_with(&p, LayoutOptions { fuse: false });
        let mops = layout.ops(m);
        assert_eq!(
            mops.ops,
            [
                Op::Mov(1, 0),
                Op::SetI(2, 1),
                Op::RBin(BinOp::Add, 1, 1, 2),
                Op::Mov(2, 1),
                Op::Nop,
                Op::Mov(0, 1),
                Op::Mov(1, 0),
                Op::RReturnValue(1),
                Op::Nop,
                Op::Nop,
            ]
        );
        assert_eq!(mops.src_pc, (0..=10).collect::<Vec<u32>>());
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

    /// `sample()` with bodies: `A.m` stores a string, `A.n` another, `B.m` is empty.
    fn bodied() -> Program {
        let mut p = sample();
        let a = p.class_by_name("A").unwrap();
        for (name, literal) in [("m", "left"), ("n", "right")] {
            let m = p.find_method(a, name).unwrap();
            let body = vec![
                Insn::Const(Const::Str(literal.into())),
                Insn::Store(0),
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
            Insn::Store(1),
            Insn::Return,
        ];
        copy.set_body(n, body, 2);
        let family = ProgramLayout::build_family(vec![source.clone(), copy.clone()], OPTS);
        // Each layout owns its program: the very methods it was built from.
        assert!(Arc::ptr_eq(
            &family[1].program().methods[n.0 as usize],
            &copy.methods[n.0 as usize]
        ));
        assert!(Arc::ptr_eq(&family[0].shape, &family[1].shape));
        assert!(Arc::ptr_eq(&family[0].literals, &family[1].literals));
        for m in 0..source.methods.len() {
            assert_eq!(
                Arc::ptr_eq(&family[0].method_ops[m], &family[1].method_ops[m]),
                m != n.0 as usize,
                "method {m}: decoded once unless rewritten"
            );
        }
        // One pool for both: the shared bodies' literals first, then the copy's own.
        let literals = &family[0].literals;
        let pool: Vec<&str> = (0..3).filter_map(|i| literals.get(i)).collect();
        assert_eq!(literals.len(), 3);
        assert_eq!(pool, ["left", "right", "other"]);
        assert_eq!(family[1].ops(n).ops[0], Op::SetS(1, 2));
        assert_eq!(family[1].ops(n).regs, 3, "the copy's two locals and a slot");
        assert_eq!(family[0].ops(n).ops[0], Op::SetS(0, 1));
    }

    #[test]
    fn programs_of_different_shapes_share_nothing() {
        let one = bodied();
        let mut other = one.clone();
        let a = other.class_by_name("A").unwrap();
        other.add_field(a, "w", Type::Int, false);
        // `other` still holds `one`'s method `Arc`s: same bodies, another shape.
        assert!(Arc::ptr_eq(&one.methods[0], &other.methods[0]));
        let family =
            ProgramLayout::build_family(vec![one.clone(), other.clone(), one.clone()], OPTS);
        assert_ne!(family[0].fingerprint(), family[1].fingerprint());
        assert!(!Arc::ptr_eq(&family[0].shape, &family[1].shape));
        assert!(!Arc::ptr_eq(&family[0].literals, &family[1].literals));
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
