//! What the client side of a warm hit allocates in the codec.
//!
//! A client renders its request and decodes the schedule reply on every
//! call, so the two are pinned here with a counting global allocator: it
//! forwards every call to the system allocator and counts allocations and
//! reallocations per thread, so the test harness's other threads do not
//! disturb the count.
//!
//! * Writing a request builds no owned intermediate: rendered into a buffer
//!   reserved to its final length it allocates nothing at all.
//! * Decoding a schedule reply allocates what the decoded value holds (its
//!   maps, vectors and shared modes) and no more than the count pinned
//!   below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use ttw::core::json::{Json, Writer};
use ttw::service::{Request, Response};

thread_local! {
    /// Allocations and reallocations made by this thread. A `const`
    /// thread-local needs no lazy initialization, so counting never
    /// allocates itself.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// The allocations `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// The system allocator, counting every allocation it serves.
struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no heap memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/codec")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Allocations of one decode of `response_schedule.json`, measured when the
/// reply decoder last changed.
const SCHEDULE_REPLY_DECODE_ALLOCATIONS: usize = 26;

#[test]
fn a_request_renders_into_a_reserved_frame_without_allocating() {
    let text = fixture("request_synthesize.json");
    let request = Request::from_json(text.trim_end().as_bytes()).expect("the fixture decodes");
    let rendered = request.to_json();
    assert_eq!(
        rendered,
        text.trim_end(),
        "the fixture is the request's bytes"
    );
    // The first rendering has sorted every table's member names once.
    let mut frame = Vec::with_capacity(rendered.len());
    let ((), allocations) = allocations_of(|| request.write(&mut Writer::compact(&mut frame)));
    assert_eq!(frame, rendered.as_bytes());
    assert_eq!(allocations, 0, "rendering a request allocated");
}

#[test]
fn a_schedule_reply_decodes_within_its_pinned_allocations() {
    let text = fixture("response_schedule.json");
    let payload = text.trim_end().as_bytes();
    let warm = Response::from_json(payload).expect("the fixture decodes");
    let (decoded, allocations) = allocations_of(|| Response::from_json(payload));
    let decoded = decoded.expect("the fixture decodes");
    assert_eq!(decoded.to_json(), warm.to_json());
    assert!(
        allocations <= SCHEDULE_REPLY_DECODE_ALLOCATIONS,
        "decoding a schedule reply allocated {allocations} times, more than the pinned {SCHEDULE_REPLY_DECODE_ALLOCATIONS}"
    );
}
