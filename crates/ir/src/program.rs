//! The class-file-like program model.
//!
//! A [`Program`] is a collection of [`Class`]es; each class has [`Field`]s and
//! [`Method`]s. Methods carry a body expressed in the stack [`bytecode`](crate::bytecode)
//! instruction set. This mirrors what the paper's front-end obtains after decoding Java
//! class files with Joeq.
//!
//! Classes and methods sit behind [`Arc`]s, so [`Program::clone`] costs one reference
//! count per class and per method rather than a deep copy: the per-node copies the
//! rewriter makes share every class and every method body it leaves alone. Mutation
//! goes through [`Program::class_mut`] / [`Program::method_mut`] (and the `add_*`
//! methods), which copy the one item on first write if another program still holds
//! it.

use std::fmt;
use std::sync::Arc;

use crate::bytecode::Insn;

/// Identifier of a class inside a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Identifier of a method inside a [`Program`] (global, not per-class).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub u32);

/// A reference to a field: the class that *declares* it plus the field's slot index.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldRef {
    /// Declaring class.
    pub class: ClassId,
    /// Index into [`Class::fields`].
    pub index: u16,
}

impl fmt::Debug for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}
impl fmt::Debug for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}
impl fmt::Debug for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}.f{}", self.class, self.index)
    }
}

/// The value/reference types understood by the IR.
///
/// This is the JVM type system trimmed to what the analyses and the runtime need:
/// primitives, strings, object references and (possibly nested) arrays.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Type {
    /// 64-bit signed integer (stands in for Java's `int`/`long`).
    Int,
    /// 64-bit IEEE float (stands in for `float`/`double`).
    Float,
    /// Boolean.
    Bool,
    /// Immutable string (the analogue of `java.lang.String`).
    Str,
    /// No value; only valid as a method return type.
    Void,
    /// Reference to an instance of the given class.
    Ref(ClassId),
    /// Array with the given element type.
    Array(Box<Type>),
}

impl Type {
    /// Returns `true` for types that are object references (class instances).
    pub fn is_ref(&self) -> bool {
        matches!(self, Type::Ref(_))
    }

    /// Returns the class referred to, if this is a reference type.
    pub fn ref_class(&self) -> Option<ClassId> {
        match self {
            Type::Ref(c) => Some(*c),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Float => write!(f, "float"),
            Type::Bool => write!(f, "boolean"),
            Type::Str => write!(f, "String"),
            Type::Void => write!(f, "void"),
            Type::Ref(c) => write!(f, "ref({})", c.0),
            Type::Array(t) => write!(f, "{}[]", t),
        }
    }
}

/// A field declaration.
#[derive(Clone, Debug)]
pub struct Field {
    /// Field name, unique within its declaring class.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// `true` for class (static) fields, `false` for instance fields.
    pub is_static: bool,
}

/// A method declaration together with its bytecode body.
#[derive(Clone, Debug)]
pub struct Method {
    /// Global identifier of this method.
    pub id: MethodId,
    /// Declaring class.
    pub class: ClassId,
    /// Method name. Constructors use the conventional name `<init>`.
    pub name: String,
    /// Parameter types, *excluding* the implicit `this` for instance methods.
    pub params: Vec<Type>,
    /// Return type ([`Type::Void`] if none).
    pub ret: Type,
    /// `true` for static methods (no implicit receiver).
    pub is_static: bool,
    /// Number of local variable slots (including parameters and `this`).
    pub locals: u16,
    /// The bytecode body. Empty for abstract/native methods.
    pub body: Vec<Insn>,
}

impl Method {
    /// Number of implicit + explicit parameters (i.e. locals occupied on entry).
    pub fn entry_locals(&self) -> u16 {
        self.params.len() as u16 + if self.is_static { 0 } else { 1 }
    }

    /// Returns `true` if this method is a constructor.
    pub fn is_constructor(&self) -> bool {
        self.name == "<init>"
    }

    /// An approximate static size in bytes of the method (used for the "KB" column of
    /// Table 1): each instruction is counted as three bytes, mirroring average JVM
    /// instruction length.
    pub fn size_bytes(&self) -> u64 {
        self.body.len() as u64 * 3 + 16
    }
}

/// A class declaration.
#[derive(Clone, Debug)]
pub struct Class {
    /// Identifier of this class.
    pub id: ClassId,
    /// Fully qualified name.
    pub name: String,
    /// Superclass, if any. `None` means the class derives directly from the implicit
    /// root object class.
    pub super_class: Option<ClassId>,
    /// Declared fields (instance and static).
    pub fields: Vec<Field>,
    /// Methods declared by this class.
    pub methods: Vec<MethodId>,
    /// Marks runtime-support classes injected by the distribution rewriter (for example
    /// `rt/DependentObject`); these are ignored by the dependence analyses.
    pub is_synthetic: bool,
}

impl Class {
    /// Finds a field slot by name, searching only this class (not superclasses).
    pub fn field_index(&self, name: &str) -> Option<u16> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u16)
    }
}

/// A whole program: the analogue of a set of loaded class files plus a designated
/// entry point.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// All classes, indexed by [`ClassId`].
    pub classes: Vec<Arc<Class>>,
    /// All methods, indexed by [`MethodId`].
    pub methods: Vec<Arc<Method>>,
    /// The entry point (a static method, conventionally `main`).
    pub entry: Option<MethodId>,
    /// Every class id, sorted by class name: the name index. It holds no strings of
    /// its own, so a clone copies `4 * classes` bytes and adding a class to a copy
    /// copies nothing else.
    by_name: Vec<ClassId>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where `name` is (`Ok`) or would go (`Err`) in the name index.
    fn name_slot(&self, name: &str) -> Result<usize, usize> {
        self.by_name
            .binary_search_by(|&id| self.class(id).name.as_str().cmp(name))
    }

    /// Adds a class and returns its id. Panics if a class with the same name exists.
    pub fn add_class(&mut self, name: &str, super_class: Option<ClassId>) -> ClassId {
        let Err(slot) = self.name_slot(name) else {
            panic!("duplicate class {name}");
        };
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(Arc::new(Class {
            id,
            name: name.to_string(),
            super_class,
            fields: Vec::new(),
            methods: Vec::new(),
            is_synthetic: false,
        }));
        self.by_name.insert(slot, id);
        id
    }

    /// Adds a field to `class` and returns a reference to it.
    pub fn add_field(&mut self, class: ClassId, name: &str, ty: Type, is_static: bool) -> FieldRef {
        let c = self.class_mut(class);
        assert!(
            c.field_index(name).is_none(),
            "duplicate field {}.{}",
            c.name,
            name
        );
        c.fields.push(Field {
            name: name.to_string(),
            ty,
            is_static,
        });
        FieldRef {
            class,
            index: (c.fields.len() - 1) as u16,
        }
    }

    /// Adds a method (with an empty body) and returns its id.
    pub fn add_method(
        &mut self,
        class: ClassId,
        name: &str,
        params: Vec<Type>,
        ret: Type,
        is_static: bool,
    ) -> MethodId {
        let id = MethodId(self.methods.len() as u32);
        self.methods.push(Arc::new(Method {
            id,
            class,
            name: name.to_string(),
            params,
            ret,
            is_static,
            locals: 0,
            body: Vec::new(),
        }));
        self.class_mut(class).methods.push(id);
        id
    }

    /// Looks up a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.name_slot(name).ok().map(|slot| self.by_name[slot])
    }

    /// Accessor for a class.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.0 as usize]
    }

    /// Mutable accessor for a class (copies it first if another program shares it).
    /// Renaming a class through it would invalidate the name index; nothing does.
    pub fn class_mut(&mut self, id: ClassId) -> &mut Class {
        Arc::make_mut(&mut self.classes[id.0 as usize])
    }

    /// Accessor for a method.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.0 as usize]
    }

    /// Mutable accessor for a method (copies it first if another program shares it).
    pub fn method_mut(&mut self, id: MethodId) -> &mut Method {
        Arc::make_mut(&mut self.methods[id.0 as usize])
    }

    /// Gives method `id` a new body and local count. A method another program still
    /// shares is rebuilt around the new body rather than copied first, so the body
    /// being replaced is never cloned.
    pub fn set_body(&mut self, id: MethodId, body: Vec<Insn>, locals: u16) {
        let slot = &mut self.methods[id.0 as usize];
        if let Some(m) = Arc::get_mut(slot) {
            m.body = body;
            m.locals = locals;
        } else {
            *slot = Arc::new(Method {
                id,
                class: slot.class,
                name: slot.name.clone(),
                params: slot.params.clone(),
                ret: slot.ret.clone(),
                is_static: slot.is_static,
                locals,
                body,
            });
        }
    }

    /// Accessor for a field via a [`FieldRef`].
    pub fn field(&self, fr: FieldRef) -> &Field {
        &self.classes[fr.class.0 as usize].fields[fr.index as usize]
    }

    /// Finds a field by name starting at `class` and walking up the superclass chain.
    pub fn resolve_field(&self, class: ClassId, name: &str) -> Option<FieldRef> {
        let mut cur = Some(class);
        while let Some(cid) = cur {
            let c = self.class(cid);
            if let Some(idx) = c.field_index(name) {
                return Some(FieldRef {
                    class: cid,
                    index: idx,
                });
            }
            cur = c.super_class;
        }
        None
    }

    /// Finds a method declared *directly* on `class` by name.
    pub fn find_method(&self, class: ClassId, name: &str) -> Option<MethodId> {
        self.class(class)
            .methods
            .iter()
            .copied()
            .find(|&m| self.method(m).name == name)
    }

    /// Resolves a method by name starting at `class` and walking up the superclass
    /// chain — this is the dynamic-dispatch lookup used by the interpreter and by RTA.
    pub fn resolve_method(&self, class: ClassId, name: &str) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(cid) = cur {
            if let Some(m) = self.find_method(cid, name) {
                return Some(m);
            }
            cur = self.class(cid).super_class;
        }
        None
    }

    /// Returns `true` if `sub` equals `sup` or transitively derives from it.
    pub fn is_subclass_of(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(cid) = cur {
            if cid == sup {
                return true;
            }
            cur = self.class(cid).super_class;
        }
        false
    }

    /// All classes that are `cls` or a subclass of it.
    pub fn subclasses_of(&self, cls: ClassId) -> Vec<ClassId> {
        self.classes
            .iter()
            .filter(|c| self.is_subclass_of(c.id, cls))
            .map(|c| c.id)
            .collect()
    }

    /// Sets the program entry point.
    pub fn set_entry(&mut self, m: MethodId) {
        self.entry = Some(m);
    }

    /// Number of non-synthetic classes (the "#C" column of Table 1).
    pub fn class_count(&self) -> usize {
        self.classes.iter().filter(|c| !c.is_synthetic).count()
    }

    /// Number of methods declared by non-synthetic classes (the "#M" column of Table 1).
    pub fn method_count(&self) -> usize {
        self.methods
            .iter()
            .filter(|m| !self.class(m.class).is_synthetic)
            .count()
    }

    /// Approximate static footprint in kilobytes (the "KB" column of Table 1).
    pub fn size_kb(&self) -> u64 {
        let bytes: u64 = self
            .methods
            .iter()
            .filter(|m| !self.class(m.class).is_synthetic)
            .map(|m| m.size_bytes())
            .sum::<u64>()
            + self
                .classes
                .iter()
                .filter(|c| !c.is_synthetic)
                .map(|c| 64 + c.fields.len() as u64 * 24)
                .sum::<u64>();
        bytes.div_ceil(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup_class() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        assert_eq!(p.class_by_name("A"), Some(a));
        assert_eq!(p.class_by_name("B"), Some(b));
        assert_eq!(p.class(b).super_class, Some(a));
        assert!(p.is_subclass_of(b, a));
        assert!(!p.is_subclass_of(a, b));
    }

    #[test]
    fn field_resolution_walks_superclasses() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let f = p.add_field(a, "x", Type::Int, false);
        assert_eq!(p.resolve_field(b, "x"), Some(f));
        assert_eq!(p.resolve_field(b, "y"), None);
    }

    #[test]
    fn method_resolution_walks_superclasses() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let m = p.add_method(a, "run", vec![], Type::Void, false);
        assert_eq!(p.resolve_method(b, "run"), Some(m));
        let m2 = p.add_method(b, "run", vec![], Type::Void, false);
        assert_eq!(p.resolve_method(b, "run"), Some(m2));
        assert_eq!(p.resolve_method(a, "run"), Some(m));
    }

    #[test]
    fn subclasses_of_includes_self() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let c = p.add_class("C", Some(b));
        let _d = p.add_class("D", None);
        let subs = p.subclasses_of(a);
        assert_eq!(subs, vec![a, b, c]);
    }

    #[test]
    fn size_accounting_ignores_synthetic_classes() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        p.add_method(a, "m", vec![], Type::Void, true);
        let s = p.add_class("rt/DependentObject", None);
        p.class_mut(s).is_synthetic = true;
        p.add_method(s, "access", vec![], Type::Void, false);
        assert_eq!(p.class_count(), 1);
        assert_eq!(p.method_count(), 1);
    }

    #[test]
    fn a_clone_shares_until_it_is_written() {
        let mut p = Program::new();
        let b = p.add_class("B", None);
        let a = p.add_class("A", Some(b));
        let kept = p.add_method(a, "kept", vec![], Type::Void, false);
        let edited = p.add_method(a, "edited", vec![Type::Int], Type::Int, true);
        let replaced = p.add_method(b, "replaced", vec![], Type::Void, false);
        p.method_mut(replaced).body = vec![Insn::Return];

        let mut q = p.clone();
        assert!(p
            .methods
            .iter()
            .zip(&q.methods)
            .all(|(x, y)| Arc::ptr_eq(x, y)));
        assert!(p
            .classes
            .iter()
            .zip(&q.classes)
            .all(|(x, y)| Arc::ptr_eq(x, y)));

        // Writes land in the copy alone, one item at a time.
        q.method_mut(edited).locals = 7;
        q.set_body(replaced, vec![Insn::Pop, Insn::Return], 2);
        let z = q.add_class("Z", None);
        q.add_method(z, "fresh", vec![], Type::Void, true);
        assert_eq!(p.method(edited).locals, 0);
        assert_eq!(p.method(replaced).body, vec![Insn::Return]);
        assert_eq!(
            (q.method(edited).locals, q.method(edited).params.len()),
            (7, 1)
        );
        assert_eq!(q.method(replaced).body.len(), 2);
        assert_eq!(
            (q.method(replaced).name.as_str(), q.method(replaced).locals),
            ("replaced", 2)
        );
        assert!(Arc::ptr_eq(
            &p.methods[kept.0 as usize],
            &q.methods[kept.0 as usize]
        ));
        assert!(Arc::ptr_eq(
            &p.classes[a.0 as usize],
            &q.classes[a.0 as usize]
        ));

        // The name index is per program and stays sorted whatever the insertion order.
        assert_eq!(
            (p.class_by_name("Z"), q.class_by_name("Z")),
            (None, Some(z))
        );
        for program in [&p, &q] {
            assert_eq!(program.class_by_name("A"), Some(a));
            assert_eq!(program.class_by_name("B"), Some(b));
            assert_eq!(program.class_by_name("C"), None);
        }
    }

    #[test]
    fn duplicate_class_panics() {
        let mut p = Program::new();
        p.add_class("A", None);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.add_class("A", None);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn type_display_and_ref_class() {
        assert_eq!(Type::Array(Box::new(Type::Int)).to_string(), "int[]");
        assert!(Type::Ref(ClassId(0)).is_ref());
        assert_eq!(Type::Ref(ClassId(3)).ref_class(), Some(ClassId(3)));
    }
}
