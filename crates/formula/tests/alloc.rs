//! Heap allocations of the formula arena, counted by a global allocator
//! (which is why this file is its own test binary). Counts are kept per
//! thread, so tests running side by side do not see each other's.

use qb_formula::{Arena, NodeId, Simplify};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A Raw-mode structure that exercises every constructor path: binary
/// AND and XOR nodes, negations of variables and of two-child XORs, and
/// XOR chains that strip those negations back to their siblings.
fn build(f: &mut Arena, vars: &[NodeId]) -> NodeId {
    let mut acc = vars[0];
    for w in vars.windows(2) {
        let a = f.and2(w[0], w[1]);
        let na = f.not(a);
        let nv = f.not(w[1]);
        let x = f.xor2(acc, na);
        let y = f.xor2(x, nv);
        let ny = f.not(y);
        acc = f.xor2(ny, a);
    }
    acc
}

#[test]
fn raw_reinterning_existing_structure_allocates_nothing() {
    let mut f = Arena::new(Simplify::Raw);
    let vars: Vec<NodeId> = (0..64).map(|v| f.var(v)).collect();
    let root = build(&mut f, &vars);
    let len = f.len();
    let before = allocations();
    let again = build(&mut f, &vars);
    let made = allocations() - before;
    assert_eq!((again, f.len()), (root, len), "everything was a hit");
    assert_eq!(made, 0, "hits allocate nothing");
}

/// Allocations of one collection of an arena of at least `nodes` nodes,
/// about half of them live, the rest interleaved garbage.
fn collect_allocations(nodes: usize) -> u64 {
    let mut f = Arena::new(Simplify::Raw);
    let vars: Vec<NodeId> = (0..64).map(|v| f.var(v)).collect();
    let mut acc = vars[0];
    let mut i = 0;
    while f.len() < nodes {
        let v = vars[i % vars.len()];
        acc = if i % 2 == 0 {
            f.xor2(acc, v)
        } else {
            f.and2(acc, v)
        };
        f.and2(v, acc);
        i += 1;
    }
    let before = allocations();
    let remap = f.collect(&[acc]);
    let made = allocations() - before;
    assert!(remap.collected() * 3 > nodes, "the garbage was collected");
    assert!(remap.live() * 3 > nodes, "the chain survived");
    made
}

#[test]
fn collect_allocations_do_not_grow_with_the_arena() {
    assert_eq!(collect_allocations(1 << 10), collect_allocations(1 << 14));
}
