//! Pins the wire acceptance condition directly: a steady-state round trip — the
//! sender's name probe, recycled encode buffer in, head + values decoded, the member
//! id resolved against the target's runtime class, buffer reclaimed — performs
//! **zero heap allocations** per message. A counting global allocator observes every
//! `alloc`/`realloc` in the process, so the loop below fails loudly if any future
//! change sneaks a per-message allocation (a string, a fresh `Vec`, a copying
//! freeze) back into the hot path.
//!
//! The measured loop is exactly the shape `interp.rs` runs: the layout's interning
//! maps turn the name `DependentObject.access` holds into an id, `take_buf` hands a
//! warm `BytesMut`, `encode_*_v2` fills and freezes it, the decode side reads the
//! head and the values into a recycled scratch vector and resolves the id through
//! the vtable or the field-name slot column, and `try_into_mut` reclaims the
//! storage for the next message.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use autodist_ir::layout::ProgramLayout;
use autodist_ir::{Program, Type};
use autodist_runtime::wire::{
    decode_head, decode_values_into, encode_dependence, encode_new, AccessKind, FrameHead,
    WireValue,
};
use bytes::BytesMut;

/// Counts every allocation and reallocation; frees are uninteresting here.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One test drives every frame kind so nothing else in this binary allocates
/// concurrently while the counter window is open.
#[test]
fn steady_state_v2_round_trip_is_allocation_free() {
    // `Savings extends Account` and shadows `savings`: the receiver resolves ids
    // against the subclass, as it would for a runtime instance of it.
    let mut p = Program::new();
    let account = p.add_class("Account", None);
    p.add_field(account, "id", Type::Int, false);
    p.add_field(account, "savings", Type::Int, false);
    let get = p.add_method(account, "getSavings", vec![], Type::Int, false);
    let savings = p.add_class("Savings", Some(account));
    p.add_field(savings, "savings", Type::Int, false);
    let layout = ProgramLayout::build(&p);
    let slot = layout.slot_of_name(savings, "savings");
    assert!(slot.is_some());

    // Fixed-size argument values only: `Str` legitimately allocates on decode
    // and the interpreter's hot remote calls (ints, floats, references) never
    // carry one.
    let args = [
        WireValue::Int(-9_000_000_000),
        WireValue::Float(2.5),
        WireValue::Bool(true),
        WireValue::Remote { node: 1, id: 42 },
        WireValue::Null,
    ];

    let mut buf = BytesMut::with_capacity(256);
    let mut scratch: Vec<WireValue> = Vec::with_capacity(args.len());

    let round_trip = |buf_in: BytesMut, scratch: &mut Vec<WireValue>| -> BytesMut {
        // Invoke: name → selector at the sender, selector → method at the receiver.
        let sel = layout.selector_of_name("getSavings").expect("interned");
        let mut data = encode_dependence(buf_in, None, 7, AccessKind::InvokeRet, sel, &args);
        let Ok(FrameHead::Dependence {
            target: 7,
            member,
            argc,
            ..
        }) = decode_head(&mut data)
        else {
            panic!("head decodes");
        };
        decode_values_into(&mut data, argc, scratch).expect("values decode");
        assert_eq!(scratch.len(), args.len());
        assert_eq!(layout.resolve_selector(savings, member), Some(get));
        let mut buf = data.try_into_mut().expect("sole owner reclaims");
        buf.clear();

        // Field read: name → field-name id, id → the runtime class's slot.
        let name_id = layout.field_name_id("savings").expect("interned");
        let mut data = encode_dependence(buf, None, 7, AccessKind::GetField, name_id, &[]);
        let Ok(FrameHead::Dependence {
            member, argc: 0, ..
        }) = decode_head(&mut data)
        else {
            panic!("head decodes");
        };
        assert_eq!(layout.slot_of_field_name(savings, member), slot);
        let mut buf = data.try_into_mut().expect("sole owner reclaims");
        buf.clear();

        // NEW: the class id was resolved once, when the proxy was initialised.
        let mut data = encode_new(buf, None, savings.0, &args);
        let Ok(FrameHead::New { class, argc }) = decode_head(&mut data) else {
            panic!("head decodes");
        };
        assert_eq!(class, savings.0);
        decode_values_into(&mut data, argc, scratch).expect("values decode");
        scratch.clear();
        let mut buf = data.try_into_mut().expect("sole owner reclaims");
        buf.clear();
        buf
    };

    // Warm-up: lets the buffer and scratch vector settle at their steady-state
    // capacities (the one-time allocations the pool amortises away).
    for _ in 0..8 {
        buf = round_trip(buf, &mut scratch);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        buf = round_trip(buf, &mut scratch);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state probe+encode+decode+resolve allocated on the hot path"
    );
}
