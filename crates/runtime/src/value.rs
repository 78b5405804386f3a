//! Runtime values and the per-node heap.
//!
//! Values are dynamically typed (the interpreter plays the JVM's role). Object
//! references are either *local* (an index into the node's heap) or *remote* (a node id
//! plus the export id the home node handed out); remote references are what a
//! `DependentObject` stands for at run time.
//!
//! A [`Value`] is plain words and [`Copy`]: pushing, popping, storing and reading a
//! field never touch a refcount. A string is a [`StrId`] into the string table of the
//! interpreter that holds it: ids below the layout's literal count are the literals
//! themselves, and every other string the node builds or receives is interned once,
//! so equal content means equal id. A `Value::Str` therefore means
//! nothing outside its interpreter; strings are resolved to their bytes only at the
//! boundaries — marshalling, orderings, error texts and the [`Statics`] snapshot a
//! report keeps.

use std::fmt;
use std::sync::Arc;

use autodist_ir::program::ClassId;

/// An object reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjRef {
    /// Index into the local heap.
    Local(u32),
    /// An object living on another node, identified by its export id there.
    Remote {
        /// Home node rank: a `u32`, as a wire value carries it, which keeps a
        /// [`Value`] at 16 bytes.
        node: u32,
        /// Export id assigned by the home node.
        id: u64,
    },
}

/// A string's id in its interpreter's string table (see the module doc).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StrId(pub(crate) u32);

/// A runtime value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Immutable interned string.
    Str(StrId),
    /// Null reference.
    Null,
    /// Object or array reference.
    Ref(ObjRef),
}

/// The dispatch loop copies values on every push, pop and store: they must stay plain
/// words with no drop glue, two of them.
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<Value>()
};
const _: () = assert!(std::mem::size_of::<Value>() == 16);
// The dispatch loop reads one op per iteration: a wider one costs cache and memory.
const _: () = assert!(std::mem::size_of::<autodist_ir::layout::Op>() == 16);

impl Value {
    /// Interprets the value as an integer (booleans coerce to 0/1).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Bool(b) => Some(*b as i64),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// Interprets the value as a float (ints widen).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            Value::Bool(b) => Some(*b as i64 as f64),
            _ => None,
        }
    }

    /// Truthiness used by `if` on non-comparison values: false, 0, 0.0 and null are
    /// false, everything else is true.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            Value::Null => false,
            _ => true,
        }
    }
}

/// A [`Value`] that owns its string: what a static reads as once its interpreter is
/// gone.
#[derive(Clone, Debug, PartialEq)]
pub enum StaticValue {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String, by content.
    Str(Box<str>),
    /// Null reference.
    Null,
    /// Object or array reference (meaningful only beside the run's own heap).
    Ref(ObjRef),
}

/// The final static fields of a run, slot-indexed like the layout's statics: the
/// names are the layout's own (shared, not copied) and every string is resolved, so
/// snapshots of different runs compare by content.
#[derive(Clone, Default, PartialEq)]
pub struct Statics {
    names: Arc<[String]>,
    values: Vec<StaticValue>,
}

impl Statics {
    /// A snapshot of `values`, named slot for slot by `names`.
    pub(crate) fn new(names: Arc<[String]>, values: Vec<StaticValue>) -> Self {
        debug_assert_eq!(names.len(), values.len());
        Statics { names, values }
    }

    /// The final value of the static named `Class::field`.
    pub fn get(&self, name: &str) -> Option<&StaticValue> {
        let slot = self.names.iter().position(|n| n == name)?;
        self.values.get(slot)
    }

    /// `(name, value)` for every static, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StaticValue)> {
        self.names.iter().map(String::as_str).zip(&self.values)
    }
}

impl fmt::Debug for Statics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A heap cell: an object with slot-indexed fields, or an array.
#[derive(Clone, Debug, PartialEq)]
pub enum HeapObject {
    /// An instance of `class`. Fields live in a flat vector indexed by the dense slot
    /// assigned at program-load time by `autodist_ir::layout::ProgramLayout`;
    /// superclass fields occupy the shared prefix, so a field reference resolves to
    /// the same slot for every runtime subclass.
    Object {
        /// Runtime class of the instance.
        class: ClassId,
        /// Field values, indexed by layout slot.
        fields: Vec<Value>,
    },
    /// An array of values.
    Array {
        /// Element values.
        data: Vec<Value>,
    },
}

impl HeapObject {
    /// The class of an object (None for arrays).
    pub fn class(&self) -> Option<ClassId> {
        match self {
            HeapObject::Object { class, .. } => Some(*class),
            HeapObject::Array { .. } => None,
        }
    }

    /// Approximate resident size in bytes (for the memory-allocation profiler metric).
    pub fn size_bytes(&self) -> u64 {
        match self {
            HeapObject::Object { fields, .. } => 16 + fields.len() as u64 * 16,
            HeapObject::Array { data } => 16 + data.len() as u64 * 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_float_coercions() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Bool(true).as_int(), Some(1));
        assert_eq!(Value::Float(2.9).as_int(), Some(2));
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        assert_eq!(Value::Str(StrId(0)).as_int(), None);
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(Value::Int(5).is_truthy());
        assert!(Value::Ref(ObjRef::Local(0)).is_truthy());
    }

    #[test]
    fn statics_answer_by_name_and_compare_by_content() {
        let names: Arc<[String]> = vec!["Main::n".to_string(), "Main::s".to_string()].into();
        let snap = |s: &str| {
            Statics::new(
                Arc::clone(&names),
                vec![StaticValue::Int(7), StaticValue::Str(s.into())],
            )
        };
        assert_eq!(snap("x").get("Main::n"), Some(&StaticValue::Int(7)));
        assert_eq!(snap("x").get("Main::absent"), None);
        assert_eq!(snap("x"), snap("x"));
        assert_ne!(snap("x"), snap("y"));
        assert_eq!(
            format!("{:?}", snap("x").get("Main::n")),
            "Some(Int(7))",
            "int statics print as they always did"
        );
        assert_eq!(
            format!("{:?}", snap("x")),
            r#"{"Main::n": Int(7), "Main::s": Str("x")}"#
        );
    }

    #[test]
    fn heap_object_sizes() {
        let o = HeapObject::Object {
            class: ClassId(0),
            fields: vec![Value::Int(1)],
        };
        let a = HeapObject::Array {
            data: vec![Value::Int(0); 10],
        };
        assert_eq!(o.class(), Some(ClassId(0)));
        assert_eq!(a.class(), None);
        assert!(a.size_bytes() > o.size_bytes());
    }
}
